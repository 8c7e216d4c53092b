"""famdebias benchmark: one run of one workload.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The program is imported from ``src/``;
nothing needs building. With ``--trace 0`` every iteration is untraced and
the run reports the end-to-end metrics. With ``--trace 1`` untraced and
traced iterations alternate (U, T, T, U, T, T, ...) and the run reports the
per-layer metrics of the traced ones; ``trace.overhead_pct`` compares the
two kinds. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the environment stamp, goes to ``.bench_out/results/``, and the spans
of a traced run go next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# pinned for steady timings; at most nproc, as the benchmark is single-process
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
MIN_TRACED = 2
# a traced run fails when more of its wall time than this share is outside every module span
UNATTRIBUTED_MAX_SHARE = 0.03
# a traced run fails when tracing slows its iterations by more than this; the bound is
# wide because traced and untraced iterations run at different times on a shared host
TRACE_OVERHEAD_MAX_PCT = 50.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mib": "MiB",
    "request_p50_ms.discrete": "ms",
    "request_p99_ms.discrete": "ms",
    "request_p50_ms.continuous": "ms",
    "request_p99_ms.continuous": "ms",
    "requests_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one famdebias benchmark workload.")
    p.add_argument("--workload", required=True,
                   choices=("closed_loop", "offline_fit_eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the program's sources, the experiment config and the benchmark's code."""
    h = hashlib.sha256()
    files = (
        sorted((root / "src").rglob("*.py"))
        + [root / "configs" / "repro.json"]
        + sorted((root / "perfbench").glob("*.py"))
    )
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp(root: Path, load_1m: float) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load_1m,
    }


def end_to_end(setup_s, untraced) -> dict:
    """Times and rates as totals over the run; request latency percentiles per iteration.

    The shared host runs this code at one of two speeds, switching every few
    seconds to minutes, and per-request latency moves with it by up to 1.7x.
    Totals, and the mean of the iterations' p50, weigh each speed by the time
    it lasted; a median over iterations or a p50 over the pooled requests
    would jump from one speed to the other when a run is split between them.
    The p99 keeps the median over iterations, so that a probe that met a
    burst from outside the process moves one tail, not the run's.
    """
    walls = [w for w, _ in untraced]
    outcomes = [o for _, o in untraced]
    values = {
        "setup_s": setup_s,
        "wall_s": sum(walls) / len(walls),
        "rows_per_s": sum(o.rows for o in outcomes) / sum(walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests_per_s": sum(o.requests for o in outcomes)
        / sum(o.request_seconds for o in outcomes),
    }
    for mode in ("discrete", "continuous"):
        values[f"request_p50_ms.{mode}"] = statistics.fmean(
            o.percentiles_ms[mode][50] for o in outcomes
        )
        values[f"request_p99_ms.{mode}"] = statistics.median(
            o.percentiles_ms[mode][99] for o in outcomes
        )
    return values


def check_state(path: Path, digest: str | None, counts: dict | None) -> list[str]:
    """Compare this run's report digest and counts with earlier runs of the same source."""
    state = json.loads(path.read_text()) if path.exists() else {}
    errors = []
    if digest is not None:
        if state.setdefault("report_sha256", digest) != digest:
            errors.append(f"report.json differs from an earlier run: {digest} != {state['report_sha256']}")
    if counts is not None:
        earlier = state.setdefault("counts", counts)
        diff = {k: (v, earlier.get(k)) for k, v in counts.items() if earlier.get(k) != v}
        if diff:
            errors.append(f"counts differ from an earlier run (now, before): {diff}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(state, sort_keys=True) + "\n")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "famdebias" / "__init__.py").is_file():
        print(f"perfbench: no famdebias source under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    load_1m = os.getloadavg()[0]
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import numpy  # noqa: F401
    import famdebias
    from famdebias import bucketizer, core, debias, estimator, harness, metrics, policies, simulator
    import_s = perf_counter() - t0
    if Path(famdebias.__file__).resolve().parent != (src / "famdebias").resolve():
        print(f"perfbench: imported famdebias from {famdebias.__file__}, not {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    env = stamp(ROOT, load_1m)
    print(json.dumps({"stamp": env}), flush=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, OUT / "work")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)

    modules = argparse.Namespace(
        bucketizer=bucketizer, core=core, debias=debias, estimator=estimator,
        harness=harness, metrics=metrics, policies=policies, simulator=simulator,
    )
    table = spans.patch_table(modules)
    untraced, traced = [], []  # (wall, outcome) and (wall, outcome, layer metrics, spans)
    errors, failed_iterations, i = [], 0, 0
    deadline = perf_counter() + args.seconds
    while True:
        started = perf_counter()
        try:
            if args.trace == 1 and i % 3 != 0:
                tracer = spans.Tracer()
                with spans.Instrumented(tracer, table):
                    tracer.run(lambda: workload.main(tracer))
                outcome = workload.after()
                layer = spans.layer_metrics(tracer)
                traced.append((spans.traced_wall(tracer), outcome, layer, tracer.spans))
            else:
                t0 = perf_counter()
                workload.main(None)
                wall = perf_counter() - t0
                outcome = workload.after()
                untraced.append((wall, outcome))
            errors += outcome.errors
        except Exception:
            failed_iterations += 1
            errors.append(traceback.format_exc())
        i += 1
        enough = args.trace == 0 or (len(traced) >= MIN_TRACED and untraced)
        # start another iteration only if at least half of one fits before the deadline
        now = perf_counter()
        if (deadline - now < (now - started) / 2 and enough) or failed_iterations > 2:
            break

    outcomes = [u[1] for u in untraced] + [t[1] for t in traced]
    digests = {o.digest for o in outcomes}
    if len(digests) > 1:
        errors.append(f"report.json differs between iterations of this run: {sorted(digests)}")
    counts = None
    if traced:
        counts = {k: traced[0][2][k] for k in spans.COUNT_METRICS}
        for _, _, layer, _ in traced[1:]:
            diff = {k: (v, layer[k]) for k, v in counts.items() if layer[k] != v}
            if diff:
                errors.append(f"counts differ between traced iterations: {diff}")
        for wall, _, layer, _ in traced:
            share = layer["harness.unattributed_s"] / wall
            if share > UNATTRIBUTED_MAX_SHARE:
                errors.append(
                    f"coverage: {share:.2%} of traced wall time is outside every span "
                    f"(bound {UNATTRIBUTED_MAX_SHARE:.0%})"
                )
    digest = next(iter(digests)) if len(digests) == 1 else None
    variant = args.seed % workloads.VARIANTS
    state_path = OUT / "state" / f"{args.workload}-v{variant}-{env['source_sha256'][:16]}.json"
    errors += check_state(state_path, digest, counts)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "stamp": env, "import_s": import_s, "setup_times_s": setup_times,
              "walls_s": [u[0] for u in untraced], "traced_walls_s": [t[0] for t in traced],
              "request_percentiles_ms": [u[1].percentiles_ms for u in untraced]}
    failed = failed_iterations + sum(o.failed_requests for o in outcomes)
    attempted = i + sum(o.requests for o in outcomes)
    metrics_out = {}
    if untraced:
        e2e = end_to_end(import_s + statistics.median(setup_times), untraced)
        result["end_to_end"] = e2e
        if args.trace == 0:
            metrics_out = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    if traced and untraced:
        per_layer = {k: statistics.median(t[2][k] for t in traced) for k in spans.PER_LAYER}
        per_layer.update(counts)
        untraced_wall = statistics.median(u[0] for u in untraced)
        overhead = (statistics.median(t[0] for t in traced) / untraced_wall - 1.0) * 100.0
        per_layer["trace.overhead_pct"] = overhead
        if overhead > TRACE_OVERHEAD_MAX_PCT:
            errors.append(f"trace overhead {overhead:.1f}% above {TRACE_OVERHEAD_MAX_PCT}%")
        result["per_layer"] = per_layer
        result["per_layer_by_iteration"] = [t[2] for t in traced]
        metrics_out = {k: {"value": per_layer[k], "unit": u} for k, u in spans.PER_LAYER.items()}
    result["errors"] = errors

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if traced:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as fh:
            for it, (_, _, _, recs) in enumerate(traced):
                for idx, (name, start, end, parent, arm, rows) in enumerate(recs):
                    fh.write(json.dumps([it, idx, name, start, end, parent, arm, rows]) + "\n")

    for err in errors:
        print(f"perfbench: FAILED CHECK: {err}", file=sys.stderr)
    correct = not errors and failed == 0 and bool(metrics_out)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
