"""End-to-end pipeline: simulate, fit, run arms paired, evaluate, report.

Every stage is a pure function of the experiment config (all seeds explicit),
so two runs of the same config produce byte-identical report bundles. Config
errors are raised before any stage runs. Stage failures abort with the stage
name; the partial outputs the run created are retained under a ``failed/``
directory inside the output directory.

The files one stage hands the next (manifest, artifacts, arm logs and
impression matrices) are named, written and read here alone.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics
from .bucketizer import AdjustmentTable, BucketEdges, check_table_settings, fit_edges, fit_table
from .core import ConfigError, FeatureSchema, InteractionLog, load, read_jsonl, write_jsonl
from .debias import DebiasConfig, debias_log, residual_correlation
from .estimator import RegressorModel, TrainConfig, train_xy
from .metrics import MetricsReport, experiment_report
from .policies import POLICY_PARAMS, build_policy
from .simulator import (
    ArmResult,
    InflationSpec,
    SessionConfig,
    Universe,
    UniverseConfig,
    expected_distinct,
    run_arm,  # re-exported: callers run a single arm through harness.run_arm
    run_paired_arms,
)

# A pool whose prior needs more draws than this per item is filled by the
# per-user fallback stream, which then costs about as much as the rest of a
# seven-arm session step or more: 0.6-0.9 ms per user at 8 draws per item,
# against 0.01-0.03 ms for the shared draws (2-core x86-64 host, catalogs of
# 800-20,000 items).
MAX_DRAWS_PER_POOL_ITEM = 8


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class BucketizerConfig:
    k: int = 5
    smoothing_prior_weight: float = 10.0
    clip_bounds: tuple[float, float] | None = None
    min_cell_count: int = 50

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k: must be at least 2, got {self.k}")
        check_table_settings(self.smoothing_prior_weight, self.clip_bounds)


@dataclass(frozen=True, kw_only=True)
class TrainSection(TrainConfig):
    """The ``train`` section: the trainer's settings plus its row sample."""

    seed: int = field()  # required here, unlike in TrainConfig
    max_samples: int = 300_000
    subsample_seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_samples < 1:
            raise ValueError(f"max_samples: must be at least 1, got {self.max_samples}")

    def trainer(self) -> TrainConfig:
        """The trainer's settings alone, as the fitted model records them."""
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


@dataclass(frozen=True)
class MetricsConfig:
    bootstrap_seed: int
    window_days: float = 14.0
    emerging_percentile: float = 10.0
    replicates: int = 1000
    calibration_feature: str = "creator_affinity"
    distribution_feature: str = "creator_affinity"
    calibration_buckets: int = 5

    def __post_init__(self) -> None:
        # one bootstrap replicate, like none, gives every delta a zero-width CI
        for name in ("replicates", "calibration_buckets"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name}: must be at least 2, got {getattr(self, name)}")
        if not (0.0 <= self.emerging_percentile <= 100.0):
            raise ValueError(
                f"emerging_percentile: must be in [0, 100], got {self.emerging_percentile}"
            )
        if not (np.isfinite(self.window_days) and self.window_days > 0):
            raise ValueError(f"window_days: must be finite and positive, got {self.window_days}")


@dataclass(frozen=True)
class Arm:
    """One arm as configured; ``params`` load into the policy's ``POLICY_PARAMS`` entry."""

    name: str
    policy: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name: must not be empty")
        if self.policy not in POLICY_PARAMS:
            raise ValueError(f"policy: {self.policy!r} is not one of {list(POLICY_PARAMS)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment file, one field per section.

    ``arms`` stay as written, for the report's echo; each is checked
    against ``Arm`` and its policy's parameters when the config loads.
    """

    universe: UniverseConfig
    inflation: InflationSpec
    experiment_seed: int
    arms: tuple[dict, ...]
    train: TrainSection
    metrics: MetricsConfig
    session: SessionConfig = SessionConfig()
    bucketizer: BucketizerConfig = BucketizerConfig()
    debias: DebiasConfig = DebiasConfig()
    write_logs: bool = True

    def __post_init__(self) -> None:
        if self.session.consume_top_k < 1:
            # the artifacts are fitted on the control arm's consumed records
            raise ConfigError(
                f"session.consume_top_k: must be at least 1 to fit the artifacts, "
                f"got {self.session.consume_top_k}"
            )
        session, items = self.session, self.universe.items
        if session.pool_size > items:
            raise ConfigError(
                f"session.pool_size: must be at most universe.items ({items}), "
                f"got {session.pool_size}"
            )
        draws = MAX_DRAWS_PER_POOL_ITEM * session.pool_size
        distinct = expected_distinct(items, session.pool_skew, draws)
        if distinct < session.pool_size:
            # E(D) grows with D, so the smallest D with E(D) >= pool_size is
            # above the bound exactly when E(bound) falls short
            raise ConfigError(
                f"session.pool_skew: {session.pool_skew} over {items} items needs more than "
                f"{MAX_DRAWS_PER_POOL_ITEM} draws per pool item to fill a pool of "
                f"{session.pool_size} (expected {distinct:.1f} distinct in {draws} draws)"
            )
        names = self.schema.names
        features = [
            (f"metrics.{key}", getattr(self.metrics, key))
            for key in ("calibration_feature", "distribution_feature")
        ]
        for i, raw in enumerate(self.arms):
            arm = load(Arm, raw, f"arms[{i}]")
            params = load(POLICY_PARAMS[arm.policy], arm.params, f"arms[{i}].params")
            if getattr(params, "feature", None) is not None:
                features.append((f"arms[{i}].params.feature", params.feature))
        for where, feature in features:
            if feature not in names:
                raise ConfigError(f"{where}: {feature!r} is not a schema feature {list(names)}")
        arm_names = [arm["name"] for arm in self.arms]
        if len(set(arm_names)) != len(arm_names):
            raise ConfigError(f"arms: arm names must be unique, got {arm_names}")
        if not any(arm["policy"] == "control" for arm in self.arms):
            raise ConfigError("arms: config needs a control arm")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return load(cls, raw)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def control_name(self) -> str:
        return next(arm["name"] for arm in self.arms if arm["policy"] == "control")

    @property
    def schema(self) -> FeatureSchema:
        return self.inflation.schema()


def build_universe(cfg: ExperimentConfig) -> Universe:
    return Universe.build(cfg.universe)


def fit_artifacts(
    log: InteractionLog, cfg: ExperimentConfig
) -> tuple[BucketEdges, AdjustmentTable, RegressorModel]:
    """Fit the discrete table and the continuous regressor on one log."""
    schema = cfg.schema
    bucketizer, train = cfg.bucketizer, cfg.train
    edges = fit_edges(log, schema, k=bucketizer.k)
    table = fit_table(
        log,
        edges,
        smoothing_prior_weight=bucketizer.smoothing_prior_weight,
        clip_bounds=bucketizer.clip_bounds,
        min_cell_count=bucketizer.min_cell_count,
    )
    n = len(log)
    if n > train.max_samples:
        rng = np.random.default_rng(train.subsample_seed)
        idx = np.sort(rng.choice(n, size=train.max_samples, replace=False))
        feats, targets = log.features[idx], log.urps[idx]
    else:
        feats, targets = log.features, log.urps
    model = train_xy(feats, targets, schema, train.trainer())
    model.metadata["schema"] = asdict(schema)
    return edges, table, model


def make_policies(
    cfg: ExperimentConfig,
    table: AdjustmentTable | None,
    model: RegressorModel | None,
    arm_names: list[str],
) -> dict:
    """Policy object per configured arm named in ``arm_names``, in config order."""
    known = [arm["name"] for arm in cfg.arms]
    unknown = [name for name in arm_names if name not in known]
    if unknown:
        raise ConfigError(f"unknown arm(s) {unknown}; the config's arms are {known}")
    return {
        arm["name"]: build_policy(
            arm["policy"],
            arm.get("params", {}),
            cfg.schema,
            cfg.session.slate_size,
            table=table,
            model=model,
            debias_config=cfg.debias,
        )
        for arm in cfg.arms
        if arm["name"] in arm_names
    }


def _populated_cell_mean_deviation(
    log: InteractionLog, edges: BucketEdges
) -> float:
    """Max |per-cell mean of corrected score - 1| with exact (unguarded) factors."""
    exact = fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None, min_cell_count=0)
    config = DebiasConfig(floor=1e-12, strength=1.0)
    debiased, _ = debias_log(log, exact, config)
    codes = edges.cell_codes(log.features)
    size = int(np.prod(edges.dims))
    sums = np.bincount(codes, weights=debiased, minlength=size)
    counts = np.bincount(codes, minlength=size)
    populated = counts > 0
    means = sums[populated] / counts[populated]
    return float(np.max(np.abs(means - 1.0)))


def _flattening_ratio(distribution: dict) -> float:
    raw_means, deb_means = [], []
    for entry in distribution.values():
        if entry.get("count", 0) > 0 and "mean_debiased" in entry:
            raw_means.append(entry["mean"])
            deb_means.append(entry["mean_debiased"])
    if len(raw_means) < 2:
        return float("nan")
    raw_var = float(np.var(raw_means))
    deb_var = float(np.var(deb_means))
    return deb_var / raw_var if raw_var > 0 else float("nan")


def _build_checks(
    cfg: ExperimentConfig,
    report: MetricsReport,
    diagnostics: dict,
) -> dict:
    checks: dict[str, dict] = {}

    mean_one = diagnostics["mean_one_max_abs_deviation"]
    checks["mean_one_per_cell"] = {
        "value": mean_one,
        "threshold": 1e-9,
        "pass": bool(mean_one <= 1e-9),
    }

    inflated = [
        f.name for f in cfg.inflation.features if f.effective_alpha() > 0
    ]
    for mode in ("discrete", "continuous"):
        rows = diagnostics["residual_correlation"][mode]
        worst = 0.0
        for row in rows:
            if row["name"] in inflated and not row["flags"]:
                worst = max(worst, row["attenuation"])
        checks[f"decorrelation_{mode}"] = {
            "value": worst,
            "threshold": 0.25,
            "pass": bool(worst < 0.25),
        }

    cal = diagnostics["calibration"]
    good = sum(1 for row in cal if 0.9 <= row["ratio"] <= 1.1)
    checks["calibration_buckets_within_10pct"] = {
        "value": good,
        "threshold": 3,
        "n_buckets": len(cal),
        "pass": bool(good >= 3),
    }

    flat = diagnostics["flattening_variance_ratio"]
    checks["distribution_flattening"] = {
        "value": flat,
        "threshold": 0.25,
        "pass": bool(flat < 0.25),
    }

    debias_arms = [a["name"] for a in cfg.arms if a["policy"] == "debias"]
    logpop_arms = [a["name"] for a in cfg.arms if a["policy"] == "log_pop"]
    for name in debias_arms:
        deltas = report.deltas.get(name)
        if deltas is None:
            continue
        fam, nov, wt = (
            deltas["familiar_wt_share"],
            deltas["novel_wt_share"],
            deltas["overall_wt"],
        )
        checks[f"direction_{name}"] = {
            "familiar_delta": fam.point,
            "familiar_ci": [fam.lo, fam.hi],
            "novel_delta": nov.point,
            "novel_ci": [nov.lo, nov.hi],
            "overall_wt_delta": wt.point,
            "overall_wt_ci": [wt.lo, wt.hi],
            "pass": bool(fam.hi < 0 and nov.lo > 0 and (wt.contains_zero() or wt.lo > 0)),
        }
        for lp in logpop_arms:
            lp_fam = report.deltas[lp]["familiar_wt_share"]
            checks[f"familiar_reduction_{name}_ge_{lp}"] = {
                "value": fam.point,
                "baseline": lp_fam.point,
                "pass": bool(fam.point <= lp_fam.point),
            }
    return checks


def evaluate_results(
    cfg: ExperimentConfig,
    universe: Universe,
    results: dict[str, ArmResult],
    edges: BucketEdges,
    table: AdjustmentTable,
    model: RegressorModel,
) -> dict:
    """Metrics report plus diagnostics and acceptance-style checks."""
    mc = cfg.metrics
    arms_data = {
        name: (res.log, res.user_creator_impressions) for name, res in results.items()
    }
    report = experiment_report(
        arms_data,
        recent_flags=universe.creator_recent,
        control=cfg.control_name,
        window_days=mc.window_days,
        percentile=mc.emerging_percentile,
        replicates=mc.replicates,
        seed=mc.bootstrap_seed,
    )

    control_log = results[cfg.control_name].log
    schema = cfg.schema

    corr = {}
    for mode, artifact in (("discrete", table), ("continuous", model)):
        rows = residual_correlation(control_log, artifact, cfg.debias)
        corr[mode] = [
            {
                "name": r.name,
                "before": r.before,
                "after": r.after,
                "attenuation": r.attenuation,
                "flags": list(r.flags),
            }
            for r in rows
        ]

    dist_feature = mc.distribution_feature
    j = schema.index_of(dist_feature)
    debiased_discrete, _ = debias_log(control_log, table, cfg.debias)
    distribution = metrics.score_distribution_by_bucket(
        control_log, edges.cuts[j], dist_feature, debiased=debiased_discrete
    )

    calibration = metrics.calibration_ratio(
        model, control_log, mc.calibration_feature, k=mc.calibration_buckets
    )

    shifts = {
        mode: metrics.label_prediction_shift(
            control_log, artifact, cfg.debias, mc.calibration_feature,
            k=mc.calibration_buckets,
        )
        for mode, artifact in (("discrete", table), ("continuous", model))
    }

    diagnostics = {
        "mean_one_max_abs_deviation": _populated_cell_mean_deviation(control_log, edges),
        "residual_correlation": corr,
        "calibration": calibration,
        "label_shift": shifts,
        "distribution": distribution,
        "flattening_variance_ratio": _flattening_ratio(distribution),
        "familiar_share_by_quartile": [
            float(x)
            for x in metrics.familiar_share_by_time_quartile(
                control_log, mc.window_days
            )
        ],
        "fitted": {
            "global_mean": table.global_mean,
            "effective_buckets": {
                name: int(d) for name, d in zip(schema.names, edges.dims)
            },
            "train_best_val_mse": model.metadata.get("best_val_mse"),
            "train_epochs_run": model.metadata.get("epochs_run"),
        },
    }

    return {
        "config": cfg.to_dict(),
        **report.to_dict(),
        "diagnostics": diagnostics,
        "checks": _build_checks(cfg, report, diagnostics),
    }


def _write_table(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_report(report: dict, outdir: str | Path) -> list[Path]:
    """Write report.json plus the table and figure CSVs; returns paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    nan = float("nan")
    diagnostics = report["diagnostics"]
    table1 = []
    for name in (a["name"] for a in report["config"]["arms"]):
        row = [name]
        deltas = report["deltas"].get(name, {})
        for m in metrics.METRIC_COLUMNS:
            ci = deltas.get(m)
            row += ["", "", ""] if ci is None else [
                repr(ci["point"]), repr(ci["ci_low"]), repr(ci["ci_high"])
            ]
        table1.append(row)
    dist_cols = ("mean", "variance", "mean_debiased", "variance_debiased")
    shift_cols = ("mean_label", "mean_label_debiased", "mean_prediction", "mean_prediction_debiased")
    cal_cols = ("mean_prediction", "mean_label", "ratio")
    return [
        report_path,
        _write_table(
            outdir / "table1.csv",
            ["arm"] + [
                f"{m}_{part}" for m in metrics.METRIC_COLUMNS
                for part in ("delta", "ci_low", "ci_high")
            ],
            table1,
        ),
        _write_table(
            outdir / "fig3_distribution.csv",
            ["level", "count", *dist_cols],
            (
                [level, entry.get("count", 0), *(repr(entry.get(c, nan)) for c in dist_cols)]
                for level, entry in diagnostics["distribution"].items()
            ),
        ),
        _write_table(
            outdir / "fig4_shift.csv",
            ["mode", "bucket", "count", *shift_cols],
            (
                [mode, row["bucket"], row["count"], *(repr(row[c]) for c in shift_cols)]
                for mode in ("discrete", "continuous")
                for row in diagnostics["label_shift"][mode]
            ),
        ),
        _write_table(
            outdir / "fig4_calibration.csv",
            ["bucket", "count", *cal_cols],
            (
                [row["bucket"], row["count"], *(repr(row[c]) for c in cal_cols)]
                for row in diagnostics["calibration"]
            ),
        ),
    ]


def write_manifest(universe: Universe, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(json.dumps(universe.manifest(), sort_keys=True) + "\n")


def save_artifacts(
    outdir: Path, schema: FeatureSchema, table: AdjustmentTable | None, model: RegressorModel | None
) -> list[Path]:
    """Save the table and model unless None, then the schema; returns the table and model paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    saved = []
    for artifact, name in ((table, "table.json"), (model, "model.json")):
        if artifact is not None:
            artifact.save(outdir / name)
            saved.append(outdir / name)
    schema.save(outdir / "schema.json")
    return saved


def load_artifacts(artifacts_dir: Path) -> tuple[AdjustmentTable, RegressorModel]:
    table = AdjustmentTable.load(artifacts_dir / "table.json")
    return table, RegressorModel.load(artifacts_dir / "model.json")


def write_arm_outputs(result: ArmResult, schema: FeatureSchema, logs_dir: Path) -> None:
    logs_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(result.log, logs_dir / f"{result.name}.jsonl")
    impressions = result.user_creator_impressions
    np.savetxt(logs_dir / f"{result.name}_impressions.csv", impressions, fmt="%d", delimiter=",")


def read_arm_outputs(name: str, schema: FeatureSchema, logs_dir: Path) -> tuple[InteractionLog, np.ndarray]:
    log = read_jsonl(logs_dir / f"{name}.jsonl", schema)
    return log, np.loadtxt(logs_dir / f"{name}_impressions.csv", np.int64, delimiter=",", ndmin=2)


def read_arm_results(
    cfg: ExperimentConfig, universe: Universe, logs_dir: Path
) -> dict[str, ArmResult]:
    """Every configured arm's outputs; ``item_impressions`` is zeros: evaluation never reads it."""
    results = {}
    for name in (arm["name"] for arm in cfg.arms):
        log, impressions = read_arm_outputs(name, cfg.schema, logs_dir)
        results[name] = ArmResult(name, log, np.zeros(universe.n_items, np.int64), impressions)
    return results


def run_pipeline(config: dict, outdir: str | Path) -> dict:
    """Execute the full pipeline; returns the report dict.

    Order: build universe, run the control arm, fit both artifacts on the
    control log, run the remaining arms against the same streams, evaluate,
    and write the report bundle. On a stage failure the entries this run
    created in ``outdir`` move to ``outdir/failed/``; anything that was
    there before stays in place.
    """
    cfg = ExperimentConfig.from_dict(config)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    existing = set(outdir.iterdir())
    stage = "universe"
    try:
        universe = build_universe(cfg)
        write_manifest(universe, outdir)

        stage = "simulate-control"
        control_name = cfg.control_name
        policies = make_policies(cfg, table=None, model=None, arm_names=[control_name])
        loop = (cfg.inflation, cfg.session, cfg.experiment_seed)
        results = {r.name: r for r in run_paired_arms(universe, policies, *loop)}

        stage = "fit"
        edges, table, model = fit_artifacts(results[control_name].log, cfg)
        save_artifacts(outdir / "artifacts", cfg.schema, table, model)

        stage = "simulate-arms"
        rest = [a["name"] for a in cfg.arms if a["name"] != control_name]
        arm_policies = make_policies(cfg, table=table, model=model, arm_names=rest)
        results.update((r.name, r) for r in run_paired_arms(universe, arm_policies, *loop))

        if cfg.write_logs:
            logs_dir = outdir / "logs"
            for result in results.values():
                write_arm_outputs(result, cfg.schema, logs_dir)

        stage = "evaluate"
        report = evaluate_results(cfg, universe, results, edges, table, model)

        stage = "report"
        emit_report(report, outdir)
        return report
    except Exception as exc:
        failed = outdir / "failed"
        failed.mkdir(exist_ok=True)
        for child in sorted(set(outdir.iterdir()) - existing - {failed}):
            shutil.move(str(child), str(failed / child.name))
        raise StageError(stage, exc) from exc
