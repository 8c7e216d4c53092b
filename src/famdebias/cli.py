"""Command-line entry point.

Subcommands mirror the pipeline stages (simulate, fit, debias, evaluate,
report, run) plus a gradient self-check. Exit codes: 0 success, 2 invalid
input or configuration, 3 stage failure, a failed arm worker process
included.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .bucketizer import AdjustmentTable
from .core import FeatureSchema, _number, load, read_jsonl, read_records
from .debias import DebiasConfig, debias_scores, factor_source
from .estimator import (
    RegressorModel,
    TrainConfig,
    gradient_check,
    train_xy,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    StageError,
    build_universe,
    emit_report,
    evaluate_results,
    fit_artifacts,
    load_artifacts,
    make_policies,
    read_arm_results,
    run_pipeline,
    save_artifacts,
    write_arm_outputs,
    write_manifest,
)
from .simulator import ArmWorkerError, InflationSpec, run_paired_arms

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_STAGE = 3


def _load_config(path: str, seed_override: int | None = None) -> dict:
    raw = json.loads(Path(path).read_bytes())
    if seed_override is not None and isinstance(raw, dict):
        raw["experiment_seed"] = seed_override
    return raw


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    report = run_pipeline(config, args.out)
    for name, check in sorted(report["checks"].items()):
        print(f"[{'PASS' if check.get('pass', True) else 'FAIL'}] {name}")
    print(f"report written to {Path(args.out) / 'report.json'}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args.config, args.seed))
    table = AdjustmentTable.load(args.table) if args.table else None
    model = RegressorModel.load(args.model) if args.model else None
    arm_names = args.arms.split(",") if args.arms else [a["name"] for a in cfg.arms]
    # an unknown arm or a missing artifact is rejected before anything is written
    policies = make_policies(cfg, table=table, model=model, arm_names=arm_names)
    universe = build_universe(cfg)
    outdir = Path(args.out)
    write_manifest(universe, outdir)
    save_artifacts(outdir, cfg.schema, None, None)
    results = run_paired_arms(universe, policies, cfg.inflation, cfg.session, cfg.experiment_seed)
    for result in results:
        write_arm_outputs(result, cfg.schema, outdir)
        print(f"wrote {result.name}: {len(result.log)} interactions")
    return EXIT_OK


def _cmd_fit(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args.config))
    log = read_jsonl(args.log, cfg.schema)
    if len(log) == 0:
        raise ConfigError("fitting log is empty")
    _, table, model = fit_artifacts(log, cfg)
    for path in save_artifacts(Path(args.out), cfg.schema, table, model):
        print(f"wrote {path}")
    return EXIT_OK


def _resolve_schema(args, table, model) -> FeatureSchema:
    """The ``--schema`` file, else the schema the artifacts were fitted on.

    A ``--schema`` that differs from an artifact's fitted schema is a
    configuration error: its features would be bucketed or normalized as
    the wrong columns.
    """
    fitted = []
    if table is not None:
        fitted.append(("table", table.edges.schema))
    if model is not None and "schema" in model.metadata:
        stored = load(FeatureSchema, model.metadata["schema"], "model.metadata.schema")
        fitted.append(("model", stored))
    if not args.schema:
        if not fitted:
            raise ConfigError("no schema available: pass --schema")
        return fitted[0][1]
    schema = FeatureSchema.load(args.schema)
    for artifact, other in fitted:
        if other.digest() != schema.digest():
            raise ConfigError(
                f"--schema {args.schema} (digest {schema.digest()}) is not the schema "
                f"the {artifact} was fitted on (digest {other.digest()})"
            )
    return schema


def _cmd_debias(args) -> int:
    table = AdjustmentTable.load(args.table) if args.table else None
    model = RegressorModel.load(args.model) if args.model else None
    if args.mode == "discrete" and table is None:
        raise ConfigError("discrete mode needs --table")
    if args.mode == "continuous" and model is None:
        raise ConfigError("continuous mode needs --model")
    artifact = table if args.mode == "discrete" else model
    schema = _resolve_schema(args, table, model)
    config = DebiasConfig(strength=args.strength)

    def candidate(row: dict) -> dict:
        """One slate line with its values converted, in output key order."""
        fam, signals = row["familiarity"], dict(row.get("quality_signals", {}))
        return {
            "item_id": row["item_id"],
            "creator_id": row.get("creator_id", ""),
            "urps": _number(row, "urps"),
            "familiarity": {n: _number(fam, n) for n in schema.names},
            "quality_signals": {k: _number(signals, k) for k in signals},
        }

    rows = [row for _, row in read_records(args.infile, candidate)]
    feats = np.asarray(
        [list(row["familiarity"].values()) for row in rows], dtype=np.float64
    ).reshape(len(rows), schema.arity)
    urps = np.asarray([row["urps"] for row in rows], dtype=np.float64)
    factors_of, ref_mean = factor_source(artifact)
    debiased = debias_scores(urps, factors_of(feats), config, ref_mean)
    # descending corrected score, ties broken by the string form of the item id
    order = np.lexsort((np.asarray([str(row["item_id"]) for row in rows]), -debiased))
    with open(args.outfile, "w") as fh:
        for i in order.tolist():
            score = float(debiased[i])
            record = {**rows[i], "debiased_score": score, "final_score": score}
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    print(f"ranked {len(rows)} candidates -> {args.outfile}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args.config))
    table, model = load_artifacts(Path(args.artifacts))
    universe = build_universe(cfg)
    results = read_arm_results(cfg, universe, Path(args.logs))
    report = evaluate_results(cfg, universe, results, table.edges, table, model)
    report_path = emit_report(report, args.out)[0]
    print(f"report written to {report_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    report = json.loads(Path(args.report).read_bytes())
    emit_report(report, args.out)
    print(f"CSV tables written to {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = 64
    feats = np.column_stack(
        [
            rng.integers(0, 20, n).astype(float),
            rng.integers(0, 10, n).astype(float),
            rng.uniform(0, 365, n),
            rng.uniform(0, 1, n),
        ]
    )
    targets = rng.uniform(0.5, 4.0, n)
    schema = InflationSpec.default().schema()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_xy(
            feats, targets, schema,
            TrainConfig(max_epochs=2, batch_size=16, seed=args.seed),
        )
    report = gradient_check(
        model, feats, targets, step=args.step, tolerance=args.tolerance, seed=args.seed
    )
    for entry in report.entries:
        print(
            f"param[{entry['parameter']}][{entry['offset']}] "
            f"analytic={entry['analytic']:.6e} numeric={entry['numeric']:.6e} "
            f"rel={entry['relative_error']:.2e}"
        )
    print(
        f"max relative error {report.max_relative_error:.3e} "
        f"(tolerance {report.tolerance:g}): {'PASS' if report.passed else 'FAIL'}"
    )
    return EXIT_OK if report.passed else EXIT_STAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famdebias",
        description="Familiarity debiasing toolkit: simulate, fit, correct, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override experiment seed")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("simulate", help="run experiment arms and write logs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arms", default=None, help="comma-separated arm names (default all)")
    p.add_argument("--table", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the adjustment table and regressor on a log")
    p.add_argument("--config", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("debias", help="rank a slate file with a fitted artifact")
    p.add_argument("--mode", choices=("discrete", "continuous"), required=True)
    p.add_argument("--table", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--schema", default=None)
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_debias)

    p = sub.add_parser("evaluate", help="compute metrics from logs and artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--logs", required=True)
    p.add_argument("--artifacts", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="re-emit CSV tables from a report.json")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (StageError, ArmWorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
