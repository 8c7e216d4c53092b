"""Span recorder for traced benchmark runs.

Tracing is done from the benchmark's side: ``Instrumented`` swaps the public
functions and methods of the famdebias modules for timing wrappers while a
traced iteration runs and puts the originals back afterwards. A name bound
with ``from .x import y`` is wrapped in the importing module, because that is
the binding the caller looks up; wrapping only the defining module would miss
those calls.

Each call records a span ``[name, start, end, parent, arm, rows]`` in memory.
A span's self time is its duration minus the time covered by its child
spans; ``layer_metrics`` turns one iteration's spans into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

ARMS = (
    "control",
    "debias_discrete",
    "debias_continuous",
    "log_pop",
    "static_boost",
    "user_centric",
    "item_centric",
)

# per-layer metric name -> unit, in report order
PER_LAYER = {
    "simulator.streams_s": "s",
    "simulator.streams_calls": "count",
    "simulator.streams_distinct_ratio": "ratio",
    "simulator.features_s": "s",
    "simulator.quality_s": "s",
    "simulator.consume_s": "s",
    "simulator.impressions_s": "s",
    "simulator.step_self_s": "s",
    "simulator.arm_self_s": "s",
    **{f"simulator.arm_s.{arm}": "s" for arm in ARMS},
    **{f"policies.rank_s.{arm}": "s" for arm in ARMS},
    "bucketizer.fit_edges_s": "s",
    "bucketizer.fit_table_s": "s",
    "bucketizer.lookup_s": "s",
    "bucketizer.lookup_rows": "count",
    "bucketizer.lookup_calls": "count",
    "estimator.train_s": "s",
    "estimator.train_epochs": "count",
    "estimator.best_epoch_ratio": "ratio",
    "estimator.forward_s": "s",
    "estimator.forward_rows": "count",
    "estimator.forward_calls": "count",
    "debias.scores_s": "s",
    "debias.scores_rows": "count",
    "debias.diagnostics_s": "s",
    "metrics.novelty_s": "s",
    "metrics.novelty_rows": "count",
    "metrics.bootstrap_s": "s",
    "metrics.bootstrap_calls": "count",
    "metrics.diagnostics_s": "s",
    "metrics.report_self_s": "s",
    "core.write_s": "s",
    "core.write_rows_per_s": "rows/s",
    "core.read_s": "s",
    "core.read_rows_per_s": "rows/s",
    "harness.universe_s": "s",
    "harness.pipeline_self_s": "s",
    "harness.fit_self_s": "s",
    "harness.evaluate_self_s": "s",
    "harness.artifact_io_s": "s",
    "harness.arm_io_self_s": "s",
    "harness.emit_s": "s",
    "harness.unattributed_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

# counts that must repeat exactly across iterations and runs of one commit and seed
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER.items() if unit == "count"
) + ("simulator.streams_distinct_ratio",)

# span name -> per-layer metric that takes its self time
SELF_TIME = {
    "simulator.streams": "simulator.streams_s",
    "simulator.features": "simulator.features_s",
    "simulator.quality": "simulator.quality_s",
    "simulator.consume": "simulator.consume_s",
    "simulator.impressions": "simulator.impressions_s",
    "simulator.step": "simulator.step_self_s",
    "simulator.arm": "simulator.arm_self_s",
    "bucketizer.fit_edges": "bucketizer.fit_edges_s",
    "bucketizer.fit_table": "bucketizer.fit_table_s",
    "bucketizer.lookup": "bucketizer.lookup_s",
    "estimator.train": "estimator.train_s",
    "estimator.forward": "estimator.forward_s",
    "debias.scores": "debias.scores_s",
    "debias.diagnostics": "debias.diagnostics_s",
    "metrics.novelty": "metrics.novelty_s",
    "metrics.bootstrap": "metrics.bootstrap_s",
    "metrics.diagnostics": "metrics.diagnostics_s",
    "metrics.report": "metrics.report_self_s",
    "core.write": "core.write_s",
    "core.read": "core.read_s",
    "harness.universe": "harness.universe_s",
    "harness.pipeline": "harness.pipeline_self_s",
    "harness.fit": "harness.fit_self_s",
    "harness.evaluate": "harness.evaluate_self_s",
    "harness.artifact_io": "harness.artifact_io_s",
    "harness.arm_io": "harness.arm_io_self_s",
    "harness.emit": "harness.emit_s",
}

# span name -> count metrics: (number of calls, sum of rows)
COUNTED = {
    "simulator.streams": ("simulator.streams_calls", None),
    "bucketizer.lookup": ("bucketizer.lookup_calls", "bucketizer.lookup_rows"),
    "estimator.forward": ("estimator.forward_calls", "estimator.forward_rows"),
    "debias.scores": (None, "debias.scores_rows"),
    "metrics.novelty": (None, "metrics.novelty_rows"),
    "metrics.bootstrap": ("metrics.bootstrap_calls", None),
}

ROOT = "bench.iteration"


def _n_rows(a) -> int:
    a = np.asarray(a)
    return int(a.shape[0]) if a.ndim > 1 else 1


class Tracer:
    """In-memory span list for one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.arm: str | None = None
        self.stream_keys: list = []
        self.train: list[dict] = []

    def wrap(self, fn, name, rows=None, note=None, arm_of=None):
        spans, stack = self.spans, self.stack
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.arm, 0]
            stack.append(len(spans))
            spans.append(rec)
            outer_arm = tracer.arm
            if arm_of is not None:
                tracer.arm = rec[4] = arm_of(args, kwargs)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                tracer.arm = outer_arm
            if rows is not None:
                rec[5] = rows(args, kwargs, out)
            if note is not None:
                note(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def run(self, body):
        """Call ``body()`` inside the root span that covers one whole iteration."""
        return self.wrap(body, ROOT)()


def _stream_key(tracer, args, kwargs, out):
    # SessionStreams(seed, session, ...): the draws depend on (seed, session) only
    seed = args[1] if len(args) > 1 else kwargs.get("seed")
    session = args[2] if len(args) > 2 else kwargs.get("session")
    tracer.stream_keys.append((seed, session))


def _train_note(tracer, args, kwargs, model):
    meta = getattr(model, "metadata", {}) or {}
    tracer.train.append(
        {"epochs": int(meta.get("epochs_run", 0)), "best": int(meta.get("best_epoch", 0))}
    )


def _arm_name(args, kwargs):
    return kwargs.get("name", "arm")


def _features_rows(args, kwargs, out):
    return _n_rows(args[1] if len(args) > 1 else kwargs.get("features", kwargs.get("b")))


def _scores_rows(args, kwargs, out):
    return int(np.size(out))


def _log_rows_in(args, kwargs, out):
    return len(args[0] if args else kwargs["log"])


def _log_rows_out(args, kwargs, out):
    return len(out)


def patch_table(fd) -> list[tuple]:
    """(owner, attribute, span name, options) for every wrapped call site.

    ``fd`` is a namespace holding the famdebias modules.
    """
    sim, harness, policies, debias, metrics = (
        fd.simulator, fd.harness, fd.policies, fd.debias, fd.metrics
    )
    table = [
        (sim.SessionStreams, "__init__", "simulator.streams", {"note": _stream_key}),
        (sim.SessionState, "features_batch", "simulator.features", {}),
        (sim.Universe, "quality_batch", "simulator.quality", {}),
        (sim.SessionState, "consume_batch", "simulator.consume", {}),
        (sim.SessionState, "record_impressions_batch", "simulator.impressions", {}),
        (sim, "step_session", "simulator.step", {}),
        (harness, "run_arm", "simulator.arm", {"arm_of": _arm_name}),
        (harness, "fit_edges", "bucketizer.fit_edges", {}),
        (harness, "fit_table", "bucketizer.fit_table", {}),
        (debias, "lookup_many", "bucketizer.lookup", {"rows": _features_rows}),
        (harness, "train_xy", "estimator.train", {"note": _train_note}),
        (debias, "forward", "estimator.forward", {"rows": _features_rows}),
        (metrics, "forward", "estimator.forward", {"rows": _features_rows}),
        (policies, "debias_scores", "debias.scores", {"rows": _scores_rows}),
        (debias, "debias_scores", "debias.scores", {"rows": _scores_rows}),
        (metrics, "debias_scores", "debias.scores", {"rows": _scores_rows}),
        (harness, "debias_log", "debias.diagnostics", {}),
        (debias, "debias_log", "debias.diagnostics", {}),
        (metrics, "debias_log", "debias.diagnostics", {}),
        (harness, "residual_correlation", "debias.diagnostics", {}),
        (metrics, "novelty_mask", "metrics.novelty", {"rows": _log_rows_in}),
        (metrics, "bootstrap_ratio_delta", "metrics.bootstrap", {}),
        (metrics, "calibration_ratio", "metrics.diagnostics", {}),
        (metrics, "label_prediction_shift", "metrics.diagnostics", {}),
        (metrics, "score_distribution_by_bucket", "metrics.diagnostics", {}),
        (metrics, "familiar_share_by_time_quartile", "metrics.diagnostics", {}),
        (harness, "experiment_report", "metrics.report", {}),
        (harness, "write_jsonl", "core.write", {"rows": _log_rows_in}),
        (harness, "read_jsonl", "core.read", {"rows": _log_rows_out}),
        (fd.core, "read_jsonl", "core.read", {"rows": _log_rows_out}),
        (harness, "build_universe", "harness.universe", {}),
        (harness, "run_pipeline", "harness.pipeline", {}),
        (harness, "fit_artifacts", "harness.fit", {}),
        (harness, "evaluate_results", "harness.evaluate", {}),
        (harness, "emit_report", "harness.emit", {}),
        (harness, "write_arm_outputs", "harness.arm_io", {}),
        (harness, "read_arm_outputs", "harness.arm_io", {}),
        (fd.bucketizer.AdjustmentTable, "save", "harness.artifact_io", {}),
        (fd.bucketizer.AdjustmentTable, "load", "harness.artifact_io", {}),
        (fd.estimator.RegressorModel, "save", "harness.artifact_io", {}),
        (fd.estimator.RegressorModel, "load", "harness.artifact_io", {}),
        (fd.core.FeatureSchema, "save", "harness.artifact_io", {}),
    ]
    for cls in (
        sim.ControlPolicy,
        policies.DebiasPolicy,
        policies.LogPopPolicy,
        policies.StaticBoostPolicy,
        policies.QuotaRerankPolicy,
    ):
        table.append((cls, "rank_batch", "policies.rank", {}))
    return table


class Instrumented:
    """Context manager that installs the wrappers of ``patch_table`` on one tracer.

    Names missing from the program are skipped with a warning, so the traced
    run still works after a refactor; their time then shows up as the
    caller's self time or as ``harness.unattributed_s``.
    """

    def __init__(self, tracer: Tracer, table: list[tuple]):
        self.tracer = tracer
        self.table = table
        self.saved: list[tuple] = []
        self.missing: list[str] = []

    def __enter__(self) -> "Instrumented":
        for owner, attr, name, opts in self.table:
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = staticmethod(self.tracer.wrap(getattr(owner, attr), name, **opts))
            else:
                wrapped = self.tracer.wrap(raw, name, **opts)
            self.saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        if self.missing:
            print(f"perfbench: not traced (missing): {', '.join(self.missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()


def self_times(spans: list[list]) -> np.ndarray:
    """Duration of each span minus the time covered by its direct children."""
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur - child


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (without ``trace.overhead_pct``)."""
    spans = tracer.spans
    own = self_times(spans)
    out = {name: 0.0 for name in PER_LAYER}
    root = [i for i, s in enumerate(spans) if s[0] == ROOT]
    if len(root) != 1:
        raise RuntimeError(f"expected one root span, found {len(root)}")
    for i, s in enumerate(spans):
        name = s[0]
        if name in SELF_TIME:
            out[SELF_TIME[name]] += own[i]
        if name in COUNTED:
            calls, rows = COUNTED[name]
            if calls:
                out[calls] += 1
            if rows:
                out[rows] += s[5]
        if name == "simulator.arm" and f"simulator.arm_s.{s[4]}" in out:
            out[f"simulator.arm_s.{s[4]}"] += s[2] - s[1]
        if name == "policies.rank" and f"policies.rank_s.{s[4]}" in out:
            out[f"policies.rank_s.{s[4]}"] += own[i]
    out["harness.unattributed_s"] = float(own[root[0]])
    calls = len(tracer.stream_keys)
    out["simulator.streams_distinct_ratio"] = (
        len(set(tracer.stream_keys)) / calls if calls else 0.0
    )
    if tracer.train:
        out["estimator.train_epochs"] = sum(t["epochs"] for t in tracer.train)
        out["estimator.best_epoch_ratio"] = (
            sum(t["best"] + 1 for t in tracer.train) / out["estimator.train_epochs"]
        )
    for io in ("write", "read"):
        seconds = out[f"core.{io}_s"]
        rows = sum(s[5] for s in spans if s[0] == f"core.{io}")
        out[f"core.{io}_rows_per_s"] = rows / seconds if seconds > 0 else 0.0
    out["trace.spans"] = len(spans) - 1
    return out


def traced_wall(tracer: Tracer) -> float:
    s = next(s for s in tracer.spans if s[0] == ROOT)
    return s[2] - s[1]
