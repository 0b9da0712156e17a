"""The README's ``python`` code blocks, run in order in one namespace.

Each block reads names the blocks before it defined, as a reader of the
README would run them; a renamed function or a changed result fails here
instead of leaving the quick start wrong.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S
)


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    assert BLOCKS, "README.md has no python block"
    monkeypatch.chdir(tmp_path)  # anything a block writes lands here
    namespace = {"__name__": "readme"}
    for number, block in enumerate(BLOCKS, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
