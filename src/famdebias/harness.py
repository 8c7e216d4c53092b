"""End-to-end pipeline: simulate, fit, run arms paired, evaluate, report.

Every stage is a pure function of the experiment config (all seeds explicit),
so two runs of the same config produce byte-identical report bundles. Config
errors are raised before any stage runs. Stage failures abort with the stage
name; the partial outputs the run created are retained under a ``failed/``
directory inside the output directory.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .bucketizer import AdjustmentTable, BucketEdges, fit_edges, fit_table
from .core import FeatureSchema, InteractionLog, read_jsonl, write_jsonl
from .debias import DebiasConfig, debias_log, residual_correlation
from .estimator import RegressorModel, TrainConfig, train_xy
from .metrics import MetricsReport, experiment_report
from .policies import POLICY_NAMES, build_policy
from .simulator import (
    FEATURE_CATALOG,
    ArmResult,
    InflationSpec,
    SessionConfig,
    Universe,
    run_arm,  # re-exported: callers run a single arm through harness.run_arm
    run_paired_arms,
)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ExperimentConfig:
    universe: dict
    inflation: InflationSpec
    session: SessionConfig
    experiment_seed: int
    arms: list[dict]
    bucketizer: dict
    train: TrainConfig
    train_max_samples: int
    train_subsample_seed: int
    debias: DebiasConfig
    metric_cfg: dict
    write_logs: bool

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            universe = dict(raw["universe"])
            if "seed" not in universe:
                raise KeyError("universe.seed")
            if "experiment_seed" not in raw:
                raise KeyError("experiment_seed")
            inflation = InflationSpec.from_dict(raw["inflation"])
            session = SessionConfig.from_dict(raw.get("session", {}))
            arms = list(raw["arms"])
            train_raw = dict(raw.get("train", {}))
            if "seed" not in train_raw:
                raise KeyError("train.seed")
            metric_cfg = dict(raw.get("metrics", {}))
            if "bootstrap_seed" not in metric_cfg:
                raise KeyError("metrics.bootstrap_seed")
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc
        if not arms:
            raise ConfigError("config needs at least one arm")
        names = [a.get("name") for a in arms]
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ConfigError("arm names must be unique and non-empty")
        if not any(a.get("policy") == "control" for a in arms):
            raise ConfigError("config needs a control arm")
        for arm in arms:
            if arm.get("policy") not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {arm.get('policy')!r} in arm {arm.get('name')!r}")
        debias_raw = dict(raw.get("debias", {}))
        debias_cfg = DebiasConfig(
            mode="discrete",
            floor=debias_raw.get("floor"),
            floor_fraction=float(debias_raw.get("floor_fraction", 0.05)),
            strength=float(debias_raw.get("strength", 1.0)),
        )
        bucket_cfg = {
            "k": int(raw.get("bucketizer", {}).get("k", 5)),
            "smoothing_prior_weight": float(
                raw.get("bucketizer", {}).get("smoothing_prior_weight", 10.0)
            ),
            "clip_bounds": (
                tuple(raw["bucketizer"]["clip_bounds"])
                if raw.get("bucketizer", {}).get("clip_bounds") is not None
                else None
            ),
            "min_cell_count": int(raw.get("bucketizer", {}).get("min_cell_count", 50)),
        }
        metric_defaults = {
            "window_days": 14.0,
            "emerging_percentile": 10.0,
            "replicates": 1000,
            "calibration_feature": "creator_affinity",
            "distribution_feature": "creator_affinity",
            "calibration_buckets": 5,
        }
        metric_defaults.update(metric_cfg)
        _check_feature_names(inflation, arms, metric_defaults)
        # one bootstrap replicate, like none, gives every delta a zero-width CI
        for where, count in (
            ("bucketizer.k", bucket_cfg["k"]),
            ("metrics.calibration_buckets", int(metric_defaults["calibration_buckets"])),
            ("metrics.replicates", int(metric_defaults["replicates"])),
        ):
            if count < 2:
                raise ConfigError(f"{where} must be at least 2, got {count}")
        percentile = float(metric_defaults["emerging_percentile"])
        if not (0.0 <= percentile <= 100.0):
            raise ConfigError(f"metrics.emerging_percentile must be in [0, 100], got {percentile}")
        window = float(metric_defaults["window_days"])
        if not (np.isfinite(window) and window > 0):
            raise ConfigError(f"metrics.window_days must be finite and positive, got {window}")
        return cls(
            universe=universe,
            inflation=inflation,
            session=session,
            experiment_seed=int(raw["experiment_seed"]),
            arms=arms,
            bucketizer=bucket_cfg,
            train=TrainConfig.from_dict(train_raw),
            train_max_samples=int(train_raw.get("max_samples", 300_000)),
            train_subsample_seed=int(train_raw.get("subsample_seed", 0)),
            debias=debias_cfg,
            metric_cfg=metric_defaults,
            write_logs=bool(raw.get("write_logs", True)),
        )

    @property
    def control_name(self) -> str:
        for arm in self.arms:
            if arm["policy"] == "control":
                return arm["name"]
        raise ConfigError("no control arm")

    @property
    def schema(self) -> FeatureSchema:
        return self.inflation.schema()

    def to_dict(self) -> dict:
        return {
            "universe": self.universe,
            "inflation": asdict(self.inflation),
            "session": asdict(self.session),
            "experiment_seed": self.experiment_seed,
            "arms": self.arms,
            "bucketizer": {
                "k": self.bucketizer["k"],
                "smoothing_prior_weight": self.bucketizer["smoothing_prior_weight"],
                "clip_bounds": (
                    list(self.bucketizer["clip_bounds"])
                    if self.bucketizer["clip_bounds"]
                    else None
                ),
                "min_cell_count": self.bucketizer["min_cell_count"],
            },
            "train": {
                **asdict(self.train),
                "max_samples": self.train_max_samples,
                "subsample_seed": self.train_subsample_seed,
            },
            "debias": {
                "floor": self.debias.floor,
                "floor_fraction": self.debias.floor_fraction,
                "strength": self.debias.strength,
            },
            "metrics": self.metric_cfg,
            "write_logs": self.write_logs,
        }


def _check_feature_names(inflation: InflationSpec, arms: list[dict], metric_cfg: dict) -> None:
    """Reject feature names the simulator or the schema cannot resolve."""
    unknown = [f.name for f in inflation.features if f.name not in FEATURE_CATALOG]
    if unknown:
        raise ConfigError(
            f"inflation feature(s) {unknown} not in the simulator catalog {list(FEATURE_CATALOG)}"
        )
    names = inflation.schema().names
    named = [
        (f"metrics.{key}", metric_cfg[key])
        for key in ("calibration_feature", "distribution_feature")
    ] + [
        (f"feature of arm {arm['name']!r}", arm["params"]["feature"])
        for arm in arms
        if arm["policy"] in ("static_boost", "user_centric") and "feature" in arm.get("params", {})
    ]
    for where, feature in named:
        if feature not in names:
            raise ConfigError(f"{where} {feature!r} is not a schema feature {list(names)}")


def build_universe(cfg: ExperimentConfig) -> Universe:
    u = cfg.universe
    return Universe.build(
        users=int(u["users"]),
        items=int(u["items"]),
        creators=int(u["creators"]),
        latent_dim=int(u.get("latent_dim", 8)),
        creator_size_exponent=float(u.get("creator_size_exponent", 1.2)),
        recent_fraction=float(u.get("recent_fraction", 0.3)),
        seed=int(u["seed"]),
    )


def fit_artifacts(
    log: InteractionLog, cfg: ExperimentConfig
) -> tuple[BucketEdges, AdjustmentTable, RegressorModel]:
    """Fit the discrete table and the continuous regressor on one log."""
    schema = cfg.schema
    edges = fit_edges(log, schema, k=cfg.bucketizer["k"])
    table = fit_table(
        log,
        edges,
        smoothing_prior_weight=cfg.bucketizer["smoothing_prior_weight"],
        clip_bounds=cfg.bucketizer["clip_bounds"],
        min_cell_count=cfg.bucketizer["min_cell_count"],
    )
    n = len(log)
    if n > cfg.train_max_samples:
        rng = np.random.default_rng(cfg.train_subsample_seed)
        idx = np.sort(rng.choice(n, size=cfg.train_max_samples, replace=False))
        feats, targets = log.features[idx], log.urps[idx]
    else:
        feats, targets = log.features, log.urps
    model = train_xy(feats, targets, schema, cfg.train)
    model.metadata["schema"] = asdict(schema)
    return edges, table, model


def make_policies(
    cfg: ExperimentConfig,
    table: AdjustmentTable | None,
    model: RegressorModel | None,
    arm_names: list[str] | None = None,
) -> dict:
    """Policy object per configured arm, restricted to ``arm_names`` if given."""
    policies = {}
    for arm in cfg.arms:
        if arm_names is not None and arm["name"] not in arm_names:
            continue
        policies[arm["name"]] = build_policy(
            arm["policy"],
            dict(arm.get("params", {})),
            cfg.schema,
            cfg.session.slate_size,
            table=table,
            model=model,
            debias_config=cfg.debias,
        )
    return policies


def run_arms(
    cfg: ExperimentConfig, universe: Universe, policies: dict
) -> list[ArmResult]:
    """Run each policy through the closed loop against identical pools and streams.

    All arms step together, session by session, against one shared build of
    each session's draws; the results, one per arm in policy order, are
    returned when every arm has finished.
    """
    return run_paired_arms(
        universe, policies, cfg.inflation, cfg.session, cfg.experiment_seed
    )


def _populated_cell_mean_deviation(
    log: InteractionLog, edges: BucketEdges
) -> float:
    """Max |per-cell mean of corrected score - 1| with exact (unguarded) factors."""
    exact = fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None, min_cell_count=0)
    config = DebiasConfig(mode="discrete", floor=1e-12, strength=1.0)
    debiased, _ = debias_log(log, exact, config)
    cell_idx = edges.assign_many(log.features)
    codes = np.ravel_multi_index(cell_idx.T, edges.dims)
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
    good = sum(1 for row in cal if row["count"] > 0 and 0.9 <= row["ratio"] <= 1.1)
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
    mc = cfg.metric_cfg
    arms_data = {
        name: (res.log, res.user_creator_impressions) for name, res in results.items()
    }
    report = experiment_report(
        arms_data,
        recent_flags=universe.creator_recent,
        control=cfg.control_name,
        window_days=float(mc["window_days"]),
        percentile=float(mc["emerging_percentile"]),
        replicates=int(mc["replicates"]),
        seed=int(mc["bootstrap_seed"]),
    )

    control_log = results[cfg.control_name].log
    schema = cfg.schema

    discrete_cfg = DebiasConfig(
        mode="discrete",
        floor=cfg.debias.floor,
        floor_fraction=cfg.debias.floor_fraction,
        strength=cfg.debias.strength,
    )
    continuous_cfg = DebiasConfig(
        mode="continuous",
        floor=cfg.debias.floor,
        floor_fraction=cfg.debias.floor_fraction,
        strength=cfg.debias.strength,
    )

    corr = {}
    for mode, artifact, dcfg in (
        ("discrete", table, discrete_cfg),
        ("continuous", model, continuous_cfg),
    ):
        rows = residual_correlation(control_log, artifact, dcfg)
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

    dist_feature = mc["distribution_feature"]
    j = schema.index_of(dist_feature)
    debiased_discrete, _ = debias_log(control_log, table, discrete_cfg)
    distribution = metrics.score_distribution_by_bucket(
        control_log, edges.cuts[j], dist_feature, debiased=debiased_discrete, n_levels=3
    )

    calibration = metrics.calibration_ratio(
        model,
        control_log,
        mc["calibration_feature"],
        k=int(mc["calibration_buckets"]),
    )

    shifts = {
        "discrete": metrics.label_prediction_shift(
            control_log, table, discrete_cfg, mc["calibration_feature"],
            k=int(mc["calibration_buckets"]),
        ),
        "continuous": metrics.label_prediction_shift(
            control_log, model, continuous_cfg, mc["calibration_feature"],
            k=int(mc["calibration_buckets"]),
        ),
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
                control_log, float(mc["window_days"])
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
    with open(path, "w", newline="") as fh:
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


def _write_impressions(matrix: np.ndarray, path: Path) -> None:
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(",".join(map(str, row.tolist())) + "\n")


def read_impressions(path: str | Path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([int(x) for x in line.split(",")])
    return np.asarray(rows, dtype=np.int64)


def write_arm_outputs(result: ArmResult, schema: FeatureSchema, logs_dir: Path) -> None:
    logs_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(result.log, logs_dir / f"{result.name}.jsonl")
    _write_impressions(
        result.user_creator_impressions, logs_dir / f"{result.name}_impressions.csv"
    )


def read_arm_outputs(name: str, schema: FeatureSchema, logs_dir: Path) -> tuple[InteractionLog, np.ndarray]:
    log = read_jsonl(logs_dir / f"{name}.jsonl", schema)
    impressions = read_impressions(logs_dir / f"{name}_impressions.csv")
    return log, impressions


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
        (outdir / "manifest.json").write_text(
            json.dumps(universe.manifest(), sort_keys=True) + "\n"
        )

        stage = "simulate-control"
        control_name = cfg.control_name
        policies = make_policies(cfg, table=None, model=None, arm_names=[control_name])
        results = {r.name: r for r in run_arms(cfg, universe, policies)}

        stage = "fit"
        edges, table, model = fit_artifacts(results[control_name].log, cfg)
        artifacts_dir = outdir / "artifacts"
        artifacts_dir.mkdir(exist_ok=True)
        table.save(artifacts_dir / "table.json")
        model.save(artifacts_dir / "model.json")
        cfg.schema.save(artifacts_dir / "schema.json")

        stage = "simulate-arms"
        rest = [a["name"] for a in cfg.arms if a["name"] != control_name]
        arm_policies = make_policies(cfg, table=table, model=model, arm_names=rest)
        results.update((r.name, r) for r in run_arms(cfg, universe, arm_policies))

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
