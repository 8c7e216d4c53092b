"""The benchmark's two workloads and their output gates.

Every workload runs the ``configs/repro.json`` experiment shape (7 arms,
pool 200, slate 20, top-10 consumed, 50 sessions) at ``USERS`` users. The
workload seed picks one of ``VARIANTS`` input variants (seed mod VARIANTS),
and every config seed is derived from the variant, so ``references.json``
can hold the seed-commit reference of every input the benchmark can make.

A workload has three steps:

- ``setup()`` builds its fixtures (the runner calls it several times and
  times each call);
- ``main(tracer)`` is the timed unit of work; ``tracer`` is None when the
  iteration is untraced;
- ``after()`` runs untimed: it serves the single-user request probe and
  checks the outputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from famdebias import core, harness, policies
from famdebias.bucketizer import AdjustmentTable
from famdebias.estimator import RegressorModel
from famdebias.simulator import ArmResult

USERS = 100
VARIANTS = 32
REPRO_SHAPE = {"sessions": 50, "pool_size": 200, "slate_size": 20, "consume_top_k": 10}
OFFLINE_ARMS = ("control", "debias_discrete", "debias_continuous", "log_pop")
CANDIDATES = 200
# the request set of the probe after each iteration, per mode
REQUESTS = 2500
# passes over the request set per probe (75 requests beyond the p99 of each mode). The
# shared host switches between two speeds every few seconds to minutes, and per-request
# latency moves with it more than the pipeline does, so a probe lasts seconds, not one moment.
PROBE_PASSES = 3
MODES = ("discrete", "continuous")

# per-arm report metrics must match the seed-commit reference within these
TOLERANCE = {
    "overall_wt": ("relative", 1e-3),
    "novel_wt_share": ("absolute", 1e-3),
    "familiar_wt_share": ("absolute", 1e-3),
    "emerging_creator_exposure_share": ("absolute", 1e-3),
    "n_interactions": ("absolute", 0),
}

REFERENCES = Path(__file__).resolve().parent / "references.json"


def experiment_config(root: Path, seed: int, arms: tuple[str, ...] | None = None) -> dict:
    """The repro experiment at ``USERS`` users with every seed derived from ``seed``.

    The training sample cap shrinks with the user count, so fitting keeps the
    share of the control log it has at full scale and the simulator stays
    the dominant cost of ``closed_loop``, as it is in the full repro run.
    """
    raw = json.loads((root / "configs" / "repro.json").read_text())
    shape = {k: raw["session"][k] for k in REPRO_SHAPE}
    names = [a["name"] for a in raw["arms"]]
    if shape != REPRO_SHAPE or len(names) != 7:
        raise SystemExit(f"configs/repro.json no longer has the benchmarked shape: {shape}, {names}")
    full_users = int(raw["universe"]["users"])
    s = [int(x) for x in np.random.SeedSequence(seed % VARIANTS).generate_state(5)]
    raw["universe"]["users"] = USERS
    raw["universe"]["seed"] = s[0]
    raw["experiment_seed"] = s[1]
    raw["train"]["seed"] = s[2]
    raw["train"]["subsample_seed"] = s[3]
    raw["metrics"]["bootstrap_seed"] = s[4]
    raw["train"]["max_samples"] = int(raw["train"]["max_samples"]) * USERS // full_users
    raw["write_logs"] = False
    if arms is not None:
        raw["arms"] = [a for a in raw["arms"] if a["name"] in arms]
    return raw


def simulate_control(cfg: harness.ExperimentConfig) -> ArmResult:
    universe = harness.build_universe(cfg)
    name = cfg.control_name
    policy = harness.make_policies(cfg, None, None, [name])[name]
    return harness.run_arm(
        universe, policy, cfg.inflation, cfg.session, cfg.experiment_seed, name=name
    )


def debias_policies(cfg: harness.ExperimentConfig, table, model) -> dict:
    return {
        mode: policies.build_policy(
            "debias", {"mode": mode}, cfg.schema, cfg.session.slate_size,
            table=table, model=model, debias_config=cfg.debias,
        )
        for mode in MODES
    }


def report_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """What one iteration produced, for the runner's metrics and gate."""

    rows: int
    latencies: dict = field(default_factory=dict)  # mode -> seconds per request
    request_seconds: float = 0.0
    failed_requests: int = 0
    errors: list = field(default_factory=list)
    digest: str | None = None

    @property
    def requests(self) -> int:
        return sum(lat.size for lat in self.latencies.values())

    @property
    def percentiles_ms(self) -> dict:
        """mode -> {50: p50, 99: p99} of this iteration's requests, in ms."""
        return {
            mode: {q: float(np.percentile(lat, q)) * 1e3 for q in (50, 99)}
            for mode, lat in self.latencies.items()
        }


class Requests:
    """Single-user requests of ``CANDIDATES`` rows drawn from one log.

    Each request is one user's candidate set, id-sorted like a simulator
    pool, with the familiarity rows and scores of the sampled log records.
    """

    def __init__(self, log, n: int, seed: int):
        rng = np.random.default_rng([seed % VARIANTS, n])
        idx = np.stack([rng.choice(len(log), CANDIDATES, replace=False) for _ in range(n)])
        idx = np.take_along_axis(idx, np.argsort(log.items[idx], axis=1, kind="stable"), axis=1)
        self.pools = log.items[idx]
        self.urps = log.urps[idx]
        self.features = log.features[idx]
        self.args = [
            (self.pools[i : i + 1], self.urps[i : i + 1], self.features[i : i + 1])
            for i in range(n)
        ]

    def probe(self, by_mode: dict) -> tuple[dict, float, int]:
        """``PROBE_PASSES`` passes: latencies per mode, client seconds, requests ranked wrongly."""
        reference = self.reference(by_mode)
        lat, seconds, mismatches = {mode: [] for mode in by_mode}, 0.0, 0
        for _ in range(PROBE_PASSES):
            times, orders, pass_seconds = self.serve(by_mode)
            for mode in by_mode:
                lat[mode].append(times[mode])
            seconds += pass_seconds
            mismatches += self.mismatches(orders, reference)
        return {mode: np.concatenate(t) for mode, t in lat.items()}, seconds, mismatches

    def serve(self, by_mode: dict) -> tuple[dict, dict, float]:
        """One closed-loop client, no think time: every request, mode by mode."""
        lat, orders = {}, {}
        start = perf_counter()
        for mode, policy in by_mode.items():
            rank = policy.rank_batch
            times = np.empty(len(self.args))
            out = np.empty((len(self.args), CANDIDATES), dtype=np.int64)
            for i, (pools, urps, feats) in enumerate(self.args):
                t0 = perf_counter()
                order = rank(pools, urps, feats, None)
                times[i] = perf_counter() - t0
                out[i] = order[0]
            lat[mode], orders[mode] = times, out
        return lat, orders, perf_counter() - start

    def reference(self, by_mode: dict) -> dict:
        """Order of every request's rows ranked in batched calls.

        A batch holds ``USERS`` requests, the batch size of one closed-loop
        ranking call; one call over all requests would make the batched
        forward pass the peak memory of the whole run.
        """
        return {
            mode: np.concatenate([
                policy.rank_batch(
                    self.pools[i : i + USERS], self.urps[i : i + USERS],
                    self.features[i : i + USERS], None,
                )
                for i in range(0, len(self.args), USERS)
            ])
            for mode, policy in by_mode.items()
        }

    @staticmethod
    def mismatches(orders: dict, reference: dict) -> int:
        return int(sum(np.any(orders[m] != reference[m], axis=1).sum() for m in orders))


def check_report(report: dict, workload: str, seed: int) -> list[str]:
    """Compare the checks' pass/fail set and per-arm metrics with the seed-commit reference."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    ref = refs.get(workload, {}).get(str(seed % VARIANTS))
    if ref is None:
        return [f"no reference for {workload} variant {seed % VARIANTS}"]
    errors = []
    passed = {name: bool(c.get("pass", True)) for name, c in report["checks"].items()}
    if passed != ref["checks"]:
        errors.append(f"checks pass/fail set changed: {passed} != {ref['checks']}")
    for arm, want in ref["arms"].items():
        got = report["arms"].get(arm)
        if got is None:
            errors.append(f"arm {arm} missing from report")
            continue
        for metric, (kind, tol) in TOLERANCE.items():
            a, b = got[metric], want[metric]
            diff = abs(a - b) / abs(b) if kind == "relative" and b else abs(a - b)
            if not diff <= tol:
                errors.append(f"{arm}.{metric} = {a!r}, reference {b!r} ({kind} tolerance {tol})")
    return errors


def report_summary(report: dict) -> dict:
    """The parts of a report that ``references.json`` keeps."""
    return {
        "checks": {name: bool(c.get("pass", True)) for name, c in report["checks"].items()},
        "arms": {
            arm: {metric: m[metric] for metric in TOLERANCE}
            for arm, m in report["arms"].items()
        },
    }


class ClosedLoop:
    """The paired closed-loop experiment through ``harness.run_pipeline``."""

    name = "closed_loop"

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.out = root, seed, work / self.name

    def setup(self) -> None:
        self.raw = experiment_config(self.root, self.seed)
        self.cfg = harness.ExperimentConfig.from_dict(self.raw)
        self.requests = Requests(simulate_control(self.cfg).log, REQUESTS, self.seed)

    def main(self, tracer) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.report = harness.run_pipeline(self.raw, self.out)

    def after(self) -> Outcome:
        artifacts = self.out / "artifacts"
        by_mode = debias_policies(
            self.cfg,
            AdjustmentTable.load(artifacts / "table.json"),
            RegressorModel.load(artifacts / "model.json"),
        )
        lat, seconds, mismatches = self.requests.probe(by_mode)
        return Outcome(
            rows=sum(m["n_interactions"] for m in self.report["arms"].values()),
            latencies=lat,
            request_seconds=seconds,
            failed_requests=mismatches,
            errors=check_report(self.report, self.name, self.seed),
            digest=report_digest(self.out / "report.json"),
        )


class OfflineFitEval:
    """The staged simulate -> fit -> evaluate handoff, without simulation in the timed part."""

    name = "offline_fit_eval"

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.out = root, seed, work / self.name

    def setup(self) -> None:
        self.raw = experiment_config(self.root, self.seed, OFFLINE_ARMS)
        cfg = self.cfg = harness.ExperimentConfig.from_dict(self.raw)
        control = simulate_control(cfg)
        _, table, model = harness.fit_artifacts(control.log, cfg)
        universe = harness.build_universe(cfg)
        rest = [a["name"] for a in cfg.arms if a["name"] != control.name]
        arm_policies = harness.make_policies(cfg, table, model, rest)
        self.results = {control.name: control}
        for name in rest:
            self.results[name] = harness.run_arm(
                universe, arm_policies[name], cfg.inflation, cfg.session,
                cfg.experiment_seed, name=name,
            )
        # artifacts fit before the handoff; the handoff must reproduce them byte for byte
        fixtures = self.out.with_name(self.name + "_fixtures")
        fixtures.mkdir(parents=True, exist_ok=True)
        table.save(fixtures / "table.json")
        model.save(fixtures / "model.json")
        self.artifact_bytes = {
            n: (fixtures / n).read_bytes() for n in ("table.json", "model.json")
        }

    def main(self, tracer) -> None:
        cfg, schema = self.cfg, self.cfg.schema
        shutil.rmtree(self.out, ignore_errors=True)
        logs, artifacts, report_dir = self.out / "logs", self.out / "artifacts", self.out / "report"
        # simulate stage: hand the arm logs off
        for result in self.results.values():
            harness.write_arm_outputs(result, schema, logs)
        schema.save(logs / "schema.json")
        # fit stage
        control_log = core.read_jsonl(logs / f"{cfg.control_name}.jsonl", schema)
        _, table, model = harness.fit_artifacts(control_log, cfg)
        artifacts.mkdir(parents=True)
        table.save(artifacts / "table.json")
        model.save(artifacts / "model.json")
        schema.save(artifacts / "schema.json")
        # evaluate stage
        table = AdjustmentTable.load(artifacts / "table.json")
        model = RegressorModel.load(artifacts / "model.json")
        universe = harness.build_universe(cfg)
        results = {}
        for arm in cfg.arms:
            log, impressions = harness.read_arm_outputs(arm["name"], schema, logs)
            results[arm["name"]] = ArmResult(
                name=arm["name"],
                log=log,
                item_impressions=np.zeros(universe.n_items, dtype=np.int64),
                user_creator_impressions=impressions,
            )
        self.report = harness.evaluate_results(cfg, universe, results, table.edges, table, model)
        harness.emit_report(self.report, report_dir)
        self.loaded = (table, model, results[cfg.control_name].log)

    def after(self) -> Outcome:
        table, model, control_log = self.loaded
        errors = check_report(self.report, self.name, self.seed)
        for name, want in self.artifact_bytes.items():
            if (self.out / "artifacts" / name).read_bytes() != want:
                errors.append(f"{name} fit after the JSONL handoff differs from the one fit before it")
        requests = Requests(control_log, REQUESTS, self.seed)
        by_mode = debias_policies(self.cfg, table, model)
        lat, seconds, mismatches = requests.probe(by_mode)
        return Outcome(
            rows=sum(len(r.log) for r in self.results.values()),
            latencies=lat,
            request_seconds=seconds,
            failed_requests=mismatches,
            errors=errors,
            digest=report_digest(self.out / "report" / "report.json"),
        )


WORKLOADS = {w.name: w for w in (ClosedLoop, OfflineFitEval)}
