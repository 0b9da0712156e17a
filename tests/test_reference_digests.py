"""Op 0 of each benchmark workload reproduces its pinned output digests.

``perfbench/reference.json`` pins the bytes every benchmark op must
produce at seed 0. Running op 0 of each workload through the benchmark's
own ``setup``/``op``/``check`` fails the suite on a byte drift before the
benchmark runs. Nothing under ``perfbench/`` is written: the CLI
workloads put their CSVs in ``tmp_path``.
"""

import importlib.util
from pathlib import Path

import pytest

import binconformal
import binconformal.cli
import binconformal.evaluation

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


worker = load_worker()


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_op_zero_matches_reference(name, tmp_path):
    workload = worker.WORKLOADS[name]
    workload.setup(binconformal, worker.DEFAULT_SEED, str(tmp_path))
    output, _ = workload.op(0)
    assert workload.check(0, output, worker.load_reference(name)) == []
