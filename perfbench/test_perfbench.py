"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about two minutes: each workload runs traced twice at the same seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from tracing import COUNT_METRICS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_across_traced_runs(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = result_of(run_bench(*args)), result_of(run_bench(*args))
    assert first["correct"] and second["correct"]
    counts = [m["name"] for m in BENCH["per_layer"] if m["name"] in COUNT_METRICS]
    assert len(counts) == len(COUNT_METRICS)
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric_nonzero():
    result = result_of(run_bench("--workload", "cli-scp", "--seed", "0", "--seconds", "2"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    for metric in BENCH["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "cli-scp", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_uninstall_restores_every_binding():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import binconformal
    import binconformal.cli

    def bindings():
        found = {
            (name, attr): value
            for name, module in sys.modules.items() if name.startswith("binconformal")
            for attr, value in vars(module).items() if callable(value)
        }
        found["inverse"] = binconformal.OutcomeTransform.inverse
        for cls in (binconformal.PredictionInterval, binconformal.IntervalSet):
            found[cls.__name__] = cls.__post_init__
        return found

    before = bindings()
    tracer = Tracer()
    tracer.install(binconformal)
    assert bindings() != before
    tracer.uninstall()
    assert bindings() == before
