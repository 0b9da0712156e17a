"""One workload in one fresh process: set up, warm up, run the closed loop.

Started by ``run.py``; prints one JSON object with the raw samples on its
last stdout line. The program is imported from ``src/`` of the checkout
that holds this directory and driven only through its public entry points,
``evaluation.run_replications`` and ``cli.main``.

    python3 perfbench/worker.py --workload cli-scp --seed 0 --seconds 25 \
        --trace 0 --workdir perfbench/out/work
"""

import argparse
import hashlib
import json
import os
import re
import resource
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 0          # the seed whose outputs must match reference.json
STUDY_INPUTS = 32         # distinct replicates a study op cycles through
MIN_OPS = 3               # per timed phase, even when an op outlasts the phase
CLI_CAL_ROWS = 20_000
CLI_TEST_ROWS = 10_000
ZERO_PROB = 0.867
COVERAGE_SLACK = 0.05     # conformal aggregate coverage must reach 1 - alpha - this
REFERENCE = os.path.join(HERE, "reference.json")
NONCONVERGED = (
    r"replicate 0: quantile regression \(tau=[0-9.e-]+\) did not converge: "
    r"last coefficient change \S+ after \d+ iterations \(loss \S+\)"
)

perf = time.perf_counter


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference(workload):
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference["seed"] != DEFAULT_SEED:
        raise ValueError(f"{REFERENCE} holds seed {reference['seed']}, not {DEFAULT_SEED}")
    return reference[workload]


# ---------------------------------------------------------------------------
# workloads


class Study:
    """Op: one replicate of a bundled study preset via run_replications."""

    def __init__(self, preset, test_share):
        self.preset = preset
        self.test_share = test_share

    def setup(self, bc, seed, workdir):
        self.evaluation = bc.evaluation
        self.numerical_error = bc.NumericalError
        self.quantreg_failed_ops = 0
        self.configs = [
            getattr(bc.evaluation, self.preset)(replications=1, base_seed=seed * STUDY_INPUTS + j)
            for j in range(STUDY_INPUTS)
        ]
        config = self.configs[0]
        self.n_test = int(config.n * self.test_share)
        self.rows_per_op = self.n_test * len(config.methods)
        self.conformal = {m.name for m in config.methods if m.kind in ("scp", "bccp-d", "bccp-c")}
        self.bootstrap_draws = config.bootstrap_draws

    def op(self, i):
        """The report, or the documented error when quantreg does not converge.

        ``quantreg_fit`` raises NumericalError when its IRLS loop reaches
        ``max_iter`` and ``run_replications`` aborts the replicate with it.
        That is the program's specified outcome for the input, so the op
        counts as correct; it is counted in ``baselines.quantreg_failed_ops``
        so the defect stays visible. Any other error fails the op.
        """
        try:
            return self.evaluation.run_replications(self.configs[i % STUDY_INPUTS]), {}
        except self.numerical_error as exc:
            if not re.fullmatch(NONCONVERGED, str(exc)):
                raise
            self.quantreg_failed_ops += 1
            return exc, {}

    def outputs_digest(self, report):
        if isinstance(report, Exception):
            return digest(f"{type(report).__name__}: {report}")
        lines = []
        for (method, group), s in report.stats.items():
            lines.append(",".join([method, group, str(s.n), *map(repr, (
                s.coverage, s.coverage_se, s.mean_width, s.width_se,
            )), str(s.inf_width_count), repr(s.discontiguity_rate)]))
        return digest("\n".join(lines))

    def check(self, i, report, reference):
        problems = []
        for method in () if isinstance(report, Exception) else report.methods:
            groups = [g for g in report.groups if (method, g) in report.stats]
            total = report.get(method).n
            if total != self.n_test:
                problems.append(f"{method}: aggregate n {total} != {self.n_test} test rows")
            parts = sum(report.stats[(method, g)].n for g in groups if g != "aggregate")
            if parts != total:
                problems.append(f"{method}: group n sum {parts} != aggregate n {total}")
            cov = report.get(method).coverage
            floor = 1 - report.alpha - COVERAGE_SLACK if method in self.conformal else 0.0
            if not floor <= cov <= 1.0:
                problems.append(f"{method}: aggregate coverage {cov} outside [{floor}, 1]")
        if reference is not None:
            want = reference[i % STUDY_INPUTS]
            got = self.outputs_digest(report)
            if got != want:
                problems.append(f"report digest {got[:12]} != reference {want[:12]}")
        return problems

    def reference_entry(self, outputs):
        return [self.outputs_digest(report) for report in outputs]

    def computed(self):
        return {"baselines.bootstrap_draw_bytes": 2 * self.n_test * self.bootstrap_draws * 8}


class Cli:
    """Op: ``binconformal intervals`` then ``binconformal evaluate``, in process."""

    def __init__(self, method_args):
        self.method_args = method_args

    def setup(self, bc, seed, workdir):
        import numpy as np

        self.cli = bc.cli
        self.quantreg_failed_ops = 0
        os.makedirs(workdir, exist_ok=True)
        path = {k: os.path.join(workdir, f"{k}.csv")
                for k in ("calibration", "test", "intervals", "report", "widths")}
        self.path = path
        # zero-inflated counts: 0 with probability ZERO_PROB, else a rounded
        # log-normal count >= 1; the prediction is linear on the log1p scale
        rng = np.random.default_rng([seed, 20240502])
        n = CLI_CAL_ROWS + CLI_TEST_ROWS
        x = rng.uniform(size=(n, 2))
        is_zero = rng.random(n) < ZERO_PROB
        mu = 2.0 * x[:, 0] + 2.0 * x[:, 1]
        counts = np.maximum(1.0, np.rint(np.exp(rng.normal(mu, 1.0))))
        y = np.where(is_zero, 0.0, counts).tolist()
        pred = np.expm1(0.1 + 0.15 * mu).tolist()
        cal = range(CLI_CAL_ROWS)
        test = range(CLI_CAL_ROWS, n)
        with open(path["calibration"], "w", encoding="utf-8") as fh:
            fh.write("row_id,y_true,y_pred\n")
            fh.writelines(f"r{i},{y[i]!r},{pred[i]!r}\n" for i in cal)
        with open(path["test"], "w", encoding="utf-8") as fh:
            fh.write("row_id,y_pred,y_true\n")
            fh.writelines(f"r{i},{pred[i]!r},{y[i]!r}\n" for i in test)
        self.test_ids = [f"r{i}" for i in test]
        self.n_test = CLI_TEST_ROWS
        self.rows_per_op = CLI_TEST_ROWS
        self.checked = set()
        self.intervals_argv = [
            "intervals", *self.method_args,
            "--calibration", path["calibration"], "--test", path["test"],
            "--out", path["intervals"],
        ]
        self.evaluate_argv = [
            "evaluate", "--intervals", path["intervals"], "--truth", path["test"],
            "--out", path["report"], "--group", "bins", "--bins", "1",
            "--widths-out", path["widths"],
        ]

    def op(self, i):
        t0 = perf()
        rc_intervals = self.cli.main(self.intervals_argv)
        t1 = perf()
        rc_evaluate = self.cli.main(self.evaluate_argv)
        t2 = perf()
        return (rc_intervals, rc_evaluate), {"intervals": t1 - t0, "evaluate": t2 - t1}

    def outputs_digest(self):
        return {k: file_digest(self.path[k]) for k in ("intervals", "report", "widths")}

    def check(self, i, return_codes, reference):
        if return_codes != (0, 0):
            return [f"exit codes {return_codes}, expected (0, 0)"]
        digests = self.outputs_digest()
        problems = []
        if reference is not None:
            problems += [
                f"{k} digest {digests[k][:12]} != reference {reference[k][:12]}"
                for k in digests if digests[k] != reference[k]
            ]
        key = tuple(sorted(digests.items()))
        if key not in self.checked:
            # identical bytes have identical structure: parse each distinct output once
            problems += self.check_structure()
            if not problems:
                self.checked.add(key)
        return problems

    def check_structure(self):
        problems = []
        segments = {}
        for rid, _, lower, upper, _ in read_csv(self.path["intervals"]):
            segments.setdefault(rid, []).append((float(lower), float(upper)))
        missing = [r for r in self.test_ids if r not in segments]
        if missing or len(segments) != len(self.test_ids):
            problems.append(
                f"intervals: {len(missing)} test rows missing, "
                f"{len(segments)} rows for {len(self.test_ids)} test ids"
            )
        for rid, segs in segments.items():
            ordered = all(lo <= hi for lo, hi in segs) and all(
                a[1] < b[0] for a, b in zip(segs, segs[1:])
            )
            if not ordered:
                problems.append(f"intervals: row {rid} segments not sorted and disjoint: {segs}")
                break
        report = {row[1]: row for row in read_csv(self.path["report"])}
        aggregate = report.get("aggregate")
        if aggregate is None or int(aggregate[2]) != self.n_test:
            problems.append(f"report: aggregate row {aggregate} does not count {self.n_test} rows")
            return problems
        parts = sum(int(row[2]) for g, row in report.items() if g != "aggregate")
        if parts != self.n_test:
            problems.append(f"report: group n sum {parts} != aggregate n {self.n_test}")
        widths = read_csv(self.path["widths"])
        covered = [int(row[4]) for row in widths]
        if [row[0] for row in widths] != self.test_ids:
            problems.append("widths: row ids differ from the test rows")
        elif sum(covered) / len(covered) != float(aggregate[3]):
            problems.append(
                f"widths: covered mean {sum(covered) / len(covered)!r} != "
                f"report coverage {aggregate[3]}"
            )
        return problems

    def reference_entry(self, outputs):
        return self.outputs_digest()

    def computed(self):
        return {}


def read_csv(path):
    """Data rows of a program CSV: comment lines and the header dropped."""
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


WORKLOADS = {
    "study-lognormal": Study("lognormal_study", 0.25),
    "study-zicount": Study("zicount_study", 0.1),
    "cli-scp": Cli(["--method", "scp", "--transform", "identity"]),
    "cli-bccp": Cli([
        "--method", "bccp-d", "--bins", "1,3,8,21,55,149", "--transform", "log1p",
    ]),
}


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """One client: each op starts when the previous one returns."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_op(self, i):
        """Run and check op i; returns (seconds, phase seconds) or None if it failed."""
        self.attempted += 1
        try:
            t0 = perf()
            output, phases = self.workload.op(i)
            seconds = perf() - t0
            problems = self.workload.check(i, output, self.reference)
        except Exception as exc:  # a failed op is counted and the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append({"op": i, "problems": problems[:5]})
            return None
        return seconds, phases

    def phase(self, seconds, tracer=None):
        """Ops 1, 2, ... until the next op would end past ``seconds``."""
        times, phases = [], {}
        start = perf()
        i = 0
        while True:
            i += 1
            elapsed = perf() - start
            if i > MIN_OPS:
                typical = median(times) if times else elapsed / (i - 1)
                if elapsed + typical > seconds:
                    return times, phases
            if tracer is not None:
                tracer.begin_op(i)
            result = self.run_op(i)
            if result is None:
                if tracer is not None:
                    tracer.op = None
                continue
            if tracer is not None:
                tracer.end_op(result[0])
            times.append(result[0])
            for key, value in result[1].items():
                phases.setdefault(key, []).append(value)


def provenance(seed):
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def import_program():
    sys.path.insert(0, SRC)
    import binconformal
    import binconformal.cli
    import binconformal.evaluation

    if not os.path.abspath(binconformal.__file__).startswith(SRC + os.sep):
        raise ImportError(f"binconformal imported from {binconformal.__file__}, not {SRC}")
    return binconformal


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then stop")
    parser.add_argument("--record-reference", action="store_true",
                        help="print reference digests for --seed instead of timing")
    args = parser.parse_args(argv)

    bc = import_program()
    workload = WORKLOADS[args.workload]
    workload.setup(bc, args.seed, args.workdir)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done_monotonic": setup_done}))
        return 0
    if args.record_reference:
        count = STUDY_INPUTS if isinstance(workload, Study) else 1
        outputs = [workload.op(i)[0] for i in range(count)]
        print(json.dumps({args.workload: workload.reference_entry(outputs)}))
        return 0

    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    loop = Loop(workload, reference)
    t0 = perf()
    loop.run_op(0)
    warmup_s = perf() - t0
    result = {
        "workload": args.workload,
        "setup_done_monotonic": setup_done,
        "warmup_op_s": warmup_s,
        "rows_per_op": workload.rows_per_op,
        "computed": workload.computed(),
    }
    if args.trace == 0:
        times, phases = loop.phase(args.seconds)
        result["op_s"] = times
        result["phase_s"] = phases
    else:
        from tracing import Tracer

        plain, phases = loop.phase(args.seconds / 2)
        tracer = Tracer()
        tracer.install(bc)
        try:
            traced, _ = loop.phase(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        for key in ("intervals", "evaluate"):
            layers[f"cli.{key}_s.p50"] = median(phases[key]) if key in phases else 0.0
        if plain and traced:
            layers["trace.op_s.p50"] = median(traced)
            layers["trace.plain_op_s.p50"] = median(plain)
            layers["trace.overhead_s"] = median(traced) - median(plain)
        layers["warmup.op_s"] = warmup_s
        result["layers"] = layers
        result["op_s"] = plain
        result["traced_op_s"] = traced
        spans_path = os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    if args.trace:
        result["layers"]["baselines.quantreg_failed_ops"] = workload.quantreg_failed_ops
    result.update({
        "quantreg_failed_ops": workload.quantreg_failed_ops,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": provenance(args.seed),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
