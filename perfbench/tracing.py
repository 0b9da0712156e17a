"""Span tracing of binconformal's public functions, installed from outside.

The tracer replaces each traced function's binding in the package's
modules with a wrapper that records a span (name, start, end, parent span,
op id) and charges the span's self time, its duration minus its traced
children, to one per-layer metric. Nothing under ``src/`` changes; calling
:meth:`Tracer.uninstall` puts every original binding back.

Functions called once per test row (the "hot" ones) would produce 10^5
spans per op, so their spans are folded into per-op totals (calls and self
time) instead of being kept one by one. Their time is still subtracted from
the enclosing span, so self times add up to the traced part of the op.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# (module, function, self-time metric, call-count metric, hot)
TARGETS = (
    ("simulation", "lognormal_dgp", "simulation.generate_s", None, False),
    ("simulation", "zero_inflated_count_dgp", "simulation.generate_s", None, False),
    ("simulation", "split", "simulation.generate_s", None, False),
    ("models", "ols_fit", "models.fit_s", None, False),
    ("models", "predict", "models.fit_s", None, False),
    ("models", "OutcomeTransform.inverse", "models.inverse_s", "models.inverse_calls", True),
    ("conformal", "calibrate", "conformal.calibrate_s", "conformal.calibrate_calls", False),
    ("conformal", "scp_interval", "conformal.rows_s", "conformal.row_calls", True),
    ("conformal", "bccp_discontiguous", "conformal.rows_s", "conformal.row_calls", True),
    ("conformal", "bccp_contiguous", "conformal.rows_s", "conformal.row_calls", True),
    ("intervals", "union", "intervals.union_s", "intervals.union_calls", True),
    ("pipelines", "make_intervals", "pipelines.self_s", None, False),
    ("baselines", "bootstrap_intervals", "baselines.bootstrap_s", None, False),
    ("baselines", "quantreg_pair", "baselines.quantreg_s", None, False),
    ("baselines", "poisson_intervals", "baselines.count_s", None, False),
    ("baselines", "negbinom_intervals", "baselines.count_s", None, False),
    ("baselines", "estimate_nb_dispersion", "baselines.count_s", None, False),
    ("evaluation", "coverage", "evaluation.coverage_s", None, False),
    ("evaluation", "run_replications", "evaluation.aggregate_s", None, False),
    ("io", "read_calibration_csv", "io.read_s", None, False),
    ("io", "read_test_csv", "io.read_s", None, False),
    ("io", "read_intervals_csv", "io.read_s", None, False),
    ("io", "write_dataset_csv", "io.write_s", None, False),
    ("io", "write_intervals_csv", "io.write_s", None, False),
    ("io", "write_report_csv", "io.write_s", None, False),
    ("io", "write_report_rows_csv", "io.write_s", None, False),
    ("io", "write_widths_csv", "io.write_s", None, False),
    ("cli", "main", "cli.self_s", None, False),
)

# bccp_contiguous calls bccp_discontiguous inside conformal; wrapping the
# bindings seen by other modules only keeps that a single row call.
CALLER_SIDE_ONLY = {"scp_interval", "bccp_discontiguous", "bccp_contiguous"}

# classes whose constructions are counted (no spans: one per segment)
COUNTED_CLASSES = (("intervals", "PredictionInterval"), ("intervals", "IntervalSet"))

METHOD_KINDS = (
    "scp", "bccp-d", "bccp-c", "bootstrap", "bootstrap-log",
    "lognormal", "poisson", "negbinom", "quantreg",
)

TIME_METRICS = tuple(dict.fromkeys(t[2] for t in TARGETS)) + tuple(
    f"pipelines.make_intervals_s.{kind}" for kind in METHOD_KINDS
)
COUNT_METRICS = tuple(dict.fromkeys(t[3] for t in TARGETS if t[3])) + (
    "intervals.objects",
    "baselines.bootstrap_draw_bytes",
    "baselines.quantreg_iters",
    "evaluation.coverage_rows",
    "io.bytes_read",
    "io.bytes_written",
    "io.rows_read",
    "io.rows_written",
)


def _segments(interval_sets) -> int:
    return sum(s.n_segments for s in interval_sets)


def _after_make_intervals(tracer, args, result, duration):
    tracer.seconds[f"pipelines.make_intervals_s.{args['kind']}"] += duration


def _after_bootstrap(tracer, args, result, duration):
    # computed, not measured: the int64 index matrix plus the float64 draw
    # matrix, each n_test x B x 8 bytes, alive together inside one call
    n_test = len(result)
    drawn = 2 * n_test * args["n_draws"] * 8
    key = "baselines.bootstrap_draw_bytes"
    tracer.counts[key] = max(tracer.counts[key], drawn)


def _after_quantreg(tracer, args, result, duration):
    tracer.counts["baselines.quantreg_iters"] += (
        result.lower.iterations + result.upper.iterations
    )


def _after_coverage(tracer, args, result, duration):
    tracer.counts["evaluation.coverage_rows"] += next(iter(result.values())).n


def _after_read(rows_of):
    def after(tracer, args, result, duration):
        tracer.counts["io.bytes_read"] += os.path.getsize(args["path"])
        tracer.counts["io.rows_read"] += rows_of(result)
    return after


def _after_write(rows_of):
    def after(tracer, args, result, duration):
        tracer.counts["io.bytes_written"] += os.path.getsize(args["path"])
        tracer.counts["io.rows_written"] += rows_of(args)
    return after


def _report_rows(args):
    report = args["report"]
    return sum(
        (m, g) in report.stats for m in report.methods for g in report.groups
    )


AFTER = {
    "make_intervals": _after_make_intervals,
    "bootstrap_intervals": _after_bootstrap,
    "quantreg_pair": _after_quantreg,
    "coverage": _after_coverage,
    "read_calibration_csv": _after_read(lambda r: len(r[0])),
    "read_test_csv": _after_read(lambda r: len(r[0])),
    "read_intervals_csv": _after_read(lambda r: _segments(r[1].values())),
    "write_dataset_csv": _after_write(lambda a: len(a["dataset"])),
    "write_intervals_csv": _after_write(lambda a: _segments(a["interval_sets"])),
    "write_report_csv": _after_write(_report_rows),
    "write_report_rows_csv": _after_write(lambda a: len(a["rows"])),
    "write_widths_csv": _after_write(lambda a: len(a["row_ids"])),
}


class Tracer:
    """Spans and per-op layer totals for one traced run, kept in memory."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, op id)
        self.hot = []          # per op: {name: [calls, self seconds]}
        self.ops = []          # per op: {metric: value}
        self.op = None
        self._stack = []       # open frames: [span id or None, child seconds]
        self._next_id = 0
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self, package):
        for module_name in {t[0] for t in TARGETS}:
            importlib.import_module(f"{package.__name__}.{module_name}")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        for module_name, func, time_key, calls_key, hot in TARGETS:
            home = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in func:
                cls_name, method = func.split(".")
                cls = getattr(home, cls_name)
                original = getattr(cls, method)
                self._patch(cls, method, self._wrap(
                    original, f"{module_name}.{func}", time_key, calls_key, hot, None
                ))
                continue
            original = getattr(home, func)
            wrapper = self._wrap(
                original, f"{module_name}.{func}", time_key, calls_key, hot,
                AFTER.get(func),
            )
            for module in modules:
                if module is home and func in CALLER_SIDE_ONLY:
                    continue
                if vars(module).get(func) is original:
                    self._patch(module, func, wrapper)
        for module_name, cls_name in COUNTED_CLASSES:
            cls = getattr(sys.modules[f"{package.__name__}.{module_name}"], cls_name)
            self._patch(cls, "__post_init__", self._counted(cls.__post_init__))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _counted(self, post_init):
        tracer = self

        def counted(obj):
            if tracer.op is not None:
                tracer.objects += 1
            post_init(obj)
        return counted

    def _wrap(self, fn, name, time_key, calls_key, hot, after):
        if hot:
            return self._wrap_hot(fn, name)
        tracer = self
        stack = self._stack
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.seconds[time_key] += duration - frame[1]
                if calls_key is not None:
                    tracer.counts[calls_key] += 1
                tracer.spans.append((span_id, name, start, end, parent, tracer.op))
                tracer._charge_parent(duration)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, bound.arguments, result, duration)
                # bookkeeping time is tracing overhead, not the caller's self time
                tracer._charge_parent(perf() - end)
            return result
        return wrapper

    def _wrap_hot(self, fn, name):
        """Per-row wrapper: calls and self time summed into this op's cell."""
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            frame = [None, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                cell = tracer.hot_op[name]
                cell[0] += 1
                cell[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.covered += duration
        return wrapper

    def _charge_parent(self, seconds):
        if self._stack:
            self._stack[-1][1] += seconds
        else:
            self.covered += seconds

    # -- per-op accounting -------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self.hot_op = {f"{t[0]}.{t[1]}": [0, 0.0] for t in TARGETS if t[4]}
        self.objects = 0
        self.covered = 0.0

    def end_op(self, wall_seconds):
        for module_name, func, time_key, calls_key, hot in TARGETS:
            if hot:
                calls, seconds = self.hot_op[f"{module_name}.{func}"]
                self.counts[calls_key] += calls
                self.seconds[time_key] += seconds
        self.counts["intervals.objects"] = self.objects
        record = {key: self.seconds[key] for key in TIME_METRICS}
        record.update({key: self.counts[key] for key in COUNT_METRICS})
        untraced = max(0.0, wall_seconds - self.covered)
        record["untraced_s"] = untraced
        record["untraced_share"] = untraced / wall_seconds
        self.ops.append(record)
        self.hot.append({"op": self.op, "calls_and_self_s": self.hot_op})
        self.op = None

    def layer_metrics(self) -> dict:
        """Mean seconds per traced op; counts from the first traced op.

        Counts are taken from one op on a fixed input so that two runs at
        the same seed report them identically however many ops each ran.
        """
        if not self.ops:
            raise RuntimeError("no traced op completed")
        out = {}
        for key in (*TIME_METRICS, "untraced_s", "untraced_share"):
            out[key] = sum(op[key] for op in self.ops) / len(self.ops)
        for key in COUNT_METRICS:
            out[key] = self.ops[0][key]
        return out

    def write(self, path):
        """Write every span and the per-op hot totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
            for record in self.hot:
                fh.write(json.dumps(record) + "\n")
