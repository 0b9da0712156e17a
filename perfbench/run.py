"""binconformal benchmark: one workload per fresh process, closed loop, one client.

    python3 perfbench/run.py --workload study-zicount --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload, one table

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones, each preceded by a readable report; the
last stdout line is one JSON object. Set-up is measured from process start
in ``SETUP_SAMPLES`` fresh processes and reported as their median. Exits 2
without a result when the program's source is missing.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("study-lognormal", "study-zicount", "cli-scp", "cli-bccp")
SETUP_SAMPLES = 3          # fresh processes timed from start to first op
DEADLINE_S = 170           # one workload run ends within this, or fails
# ROADMAP baseline per replicate on the 2-CPU reference box
ROADMAP_OP_S = {"study-lognormal": 1.3, "study-zicount": 2.5}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def spawn(args, deadline):
    """Run the worker; returns (its JSON result, monotonic time of spawn)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args[:4])} did not finish before the deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it, not below 50."""
    return max(50, math.floor(100 * (n - 10) / n)) if n else 50


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def run_workload(name, seed, seconds, trace):
    """Set-up samples plus one worker run; returns (metrics, raw result)."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(HERE, "out", f"work-{name}-{os.getpid()}")
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    setup = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            done, started = spawn([*common, "--setup-only"], deadline)
            setup.append(done["setup_done_monotonic"] - started)
        raw, started = spawn(
            [*common, "--seconds", str(seconds), "--trace", str(trace)], deadline
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(raw["setup_done_monotonic"] - started)
    raw["setup_samples_s"] = setup
    raw["provenance"]["git_sha"] = git_sha()
    ops = raw["op_s"]
    if not ops:
        fail(f"{name}: no op succeeded; first problems: {raw['problems'][:3]}")
    if trace:
        metrics = dict(raw["layers"])
    else:
        metrics = {
            "setup_s": median(setup),
            "op_s.p50": median(ops),
            "op_s.tail": nearest_rank(ops, tail_percentile(len(ops))),
            "test_rows_per_s": raw["rows_per_op"] / median(ops),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    return metrics, raw


def describe(name, seed, trace, metrics, raw, units):
    """Readable report: provenance, samples, warm-up and checks."""
    prov = raw["provenance"]
    ops = raw["op_s"]
    lines = [
        f"== {name}  seed {seed}  trace {trace}",
        "   provenance: " + "  ".join(f"{k}={v}" for k, v in prov.items()),
        f"   set-up: {len(raw['setup_samples_s'])} fresh processes, "
        + ", ".join(f"{s:.3f}" for s in raw["setup_samples_s"]) + " s",
        f"   warm-up: 1 op, {raw['warmup_op_s']:.4f} s (not in op_s)",
        f"   timed ops: {len(ops)}" + (
            f" untraced + {len(raw['traced_op_s'])} traced" if trace else ""
        ),
    ]
    for key, value in metrics.items():
        note = ""
        if key == "op_s.tail":
            pct = tail_percentile(len(ops))
            note = f"  (p{pct} of n={len(ops)}" + (
                "; under 20 ops the tail falls back to p50)" if pct == 50 else ")"
            )
        elif key.endswith(".p50") or key == "test_rows_per_s":
            n = len(raw["traced_op_s"]) if key == "trace.op_s.p50" else len(ops)
            note = f"  (n={n})"
        lines.append(f"   {key:<42} {value:.6g} {units[key]}{note}")
    phases = raw.get("phase_s", {})
    for key in ("intervals", "evaluate"):
        if key in phases:
            lines.append(
                f"   {key + '_s.p50':<42} {median(phases[key]):.6g} s  (n={len(phases[key])})"
            )
    for key, value in raw["computed"].items():
        lines.append(f"   {key:<42} {value} bytes  (computed per call: index + draw matrices)")
    lines.append(
        f"   fail_ratio                                 {raw['failed']}/{raw['attempted']}"
        f" = {raw['failed'] / raw['attempted']:.4g}"
    )
    if raw["quantreg_failed_ops"]:
        lines.append(
            f"   ops ending in quantreg non-convergence (NumericalError, checked, "
            f"timed, not failed): {raw['quantreg_failed_ops']} of {raw['attempted']}"
        )
    for problem in raw["problems"][:5]:
        lines.append(f"   FAILED op {problem['op']}: {problem['problems']}")
    if not trace and name in ROADMAP_OP_S:
        lines.append(
            f"   ROADMAP baseline: op_s.p50 {metrics['op_s.p50']:.3f} s against "
            f"~{ROADMAP_OP_S[name]} s per replicate "
            f"(ratio {metrics['op_s.p50'] / ROADMAP_OP_S[name]:.2f})"
        )
    if trace:
        lines.append(f"   spans written to {raw['spans_file']}")
        lines += layer_shares(metrics)
    return "\n".join(lines)


def layer_shares(layers):
    """Self time per module as a share of the mean traced op."""
    modules = {}
    for key, value in layers.items():
        if key.endswith("_s") and not key.startswith(("trace.", "warmup.", "untraced")) \
                and ".make_intervals_s." not in key:
            modules.setdefault(key.split(".")[0], 0.0)
            modules[key.split(".")[0]] += value
    modules["untraced"] = layers["untraced_s"]
    total = sum(modules.values())
    return ["   self time by module: " + "  ".join(
        f"{m}={v / total:.1%}" for m, v in sorted(modules.items(), key=lambda kv: -kv[1])
    )]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be nonnegative", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "binconformal", "__init__.py")):
        fail(f"program source not found under {os.path.join(ROOT, 'src')}", 2)

    end_to_end, per_layer = load_metrics()
    declared = per_layer if args.trace else end_to_end
    units = {m["name"]: m["unit"] for m in declared}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {}
    attempted = failed = 0
    for name in names:
        metrics, raw = run_workload(name, args.seed, args.seconds, args.trace)
        missing = sorted(set(units) - set(metrics))
        if missing:
            fail(f"{name}: metrics not produced: {missing}")
        metrics = {key: metrics[key] for key in units}
        print(describe(name, args.seed, args.trace, metrics, raw, units), flush=True)
        attempted += raw["attempted"]
        failed += raw["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        combined.update({
            prefix + key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        })
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
