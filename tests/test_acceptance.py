"""Acceptance suite: every criterion at its stated tolerance.

Runs the bundled full-scale experiment once (session fixture), a second time
for the byte-determinism criterion, plus the dedicated noise-free and
open-loop recovery runs. Each test prints one pass/fail line; run with
``pytest -v -rP tests/test_acceptance.py`` to see them all.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from famdebias.bucketizer import AdjustmentTable, fit_edges, fit_table
from famdebias.debias import DebiasConfig, debias_scores, factor_source
from famdebias.estimator import TrainConfig, forward, gradient_check, train_xy
from famdebias.harness import run_pipeline
from famdebias.policies import DebiasPolicy
from famdebias.simulator import (
    ControlPolicy,
    FeatureSpec,
    InflationSpec,
    SessionConfig,
    Universe,
    UniverseConfig,
    run_arm,
)

from synthetic_log import synthetic_training_log

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
REPRO_CONFIG = json.loads((CONFIG_DIR / "repro.json").read_text())

BUNDLE_FILES = (
    "report.json",
    "table1.csv",
    "fig3_distribution.csv",
    "fig4_shift.csv",
    "fig4_calibration.csv",
    "manifest.json",
    "artifacts/table.json",
    "artifacts/model.json",
    "artifacts/schema.json",
)


def announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def repro_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("repro_run")
    report = run_pipeline(REPRO_CONFIG, outdir)
    return report, outdir


class TestCriterion1MeanOne:
    def test_per_cell_mean_of_corrected_scores_is_one(self, repro_run):
        report, _ = repro_run
        dev = report["diagnostics"]["mean_one_max_abs_deviation"]
        announce(
            "criterion 1: per-cell mean one",
            dev <= 1e-9,
            f"max |cell mean - 1| = {dev:.3e} (tolerance 1e-9, unguarded table)",
        )


class TestCriterion2DiscreteOracle:
    def test_noise_free_cell_factors_match_generator(self, tmp_path_factory):
        spec = InflationSpec(
            features=(
                FeatureSpec("item_watch_count", "count", 0.5),
                FeatureSpec("days_since_last_watch", "recency", 0.35),
                FeatureSpec("creator_affinity", "affinity", 0.0),
            ),
            noise_sigma=0.0,
        )
        universe = Universe.build(UniverseConfig(users=600, items=6000, creators=200, seed=901))
        cfg = SessionConfig(
            sessions=30, pool_size=120, slate_size=16, consume_top_k=8, pool_skew=0.8
        )
        res = run_arm(universe, ControlPolicy(), spec, cfg, seed=902)
        log = res.log
        edges = fit_edges(log, spec.schema(), k=5)
        table = fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None,
                          min_cell_count=0)

        codes = edges.cell_codes(log.features)
        size = int(np.prod(edges.dims))
        oracle_sum = np.bincount(codes, weights=log.true_quality * log.inflation,
                                 minlength=size)
        counts = np.bincount(codes, minlength=size)
        eligible = counts >= 200
        oracle = oracle_sum[eligible] / counts[eligible]
        fitted = table.factors[eligible]
        worst = float(np.max(np.abs(fitted / oracle - 1.0)))
        announce(
            "criterion 2: discrete oracle recovery",
            worst < 0.01,
            f"worst relative error {worst:.2e} over {int(eligible.sum())} cells "
            f"with >= 200 samples (tolerance 1%)",
        )


class TestCriterion3ContinuousOracle:
    def test_regressor_recovers_conditional_mean(self):
        spec = InflationSpec(
            features=(
                FeatureSpec("item_watch_count", "count", 0.5),
                FeatureSpec("days_since_last_watch", "recency", 0.35,
                            tau_days=12.0, cap_days=90.0),
                FeatureSpec("creator_affinity", "affinity", 0.3),
            ),
            noise_sigma=0.2,
        )
        universe = Universe.build(UniverseConfig(users=500, items=3000, creators=100, seed=911))
        log = synthetic_training_log(
            universe, spec, n=100_000, seed=912, recency_spread_days=90.0,
            fixed_quality=2.0,
        )
        model = train_xy(
            log.features, log.urps, spec.schema(),
            TrainConfig(learning_rate=3e-3, lr_decay=0.92, batch_size=256,
                        max_epochs=60, patience=60, seed=913),
        )
        target = log.true_quality.mean() * log.inflation * np.exp(
            spec.noise_sigma**2 / 2.0
        )
        pred = forward(model, log.features)
        lo = np.percentile(log.features, 5, axis=0)
        hi = np.percentile(log.features, 95, axis=0)
        central = np.all((log.features >= lo) & (log.features <= hi), axis=1)
        worst = float(np.max(np.abs(pred[central] / target[central] - 1.0)))
        announce(
            "criterion 3: continuous oracle recovery",
            worst < 0.05,
            f"max relative error {worst:.4f} on the central 90% of familiarity "
            f"mass, 100k training samples (tolerance 5%)",
        )


class TestCriterion4Gradients:
    def test_analytic_gradients_match_central_differences(self):
        rng = np.random.default_rng(921)
        worst = 0.0
        for setting in range(5):
            x = np.column_stack([
                rng.integers(0, 15, 32).astype(float),
                rng.uniform(0, 365, 32),
                rng.uniform(0, 1, 32),
            ])
            y = rng.uniform(0.5, 4.0, 32)
            schema = InflationSpec.default().schema()
            x4 = np.column_stack([x, rng.integers(0, 8, 32).astype(float)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                model = train_xy(
                    x4, y, schema,
                    TrainConfig(max_epochs=2, batch_size=16, seed=setting),
                )
            report = gradient_check(
                model, x4, y, step=1e-5, tolerance=1e-4, n_samples=8,
                seed=setting,
            )
            worst = max(worst, report.max_relative_error)
            assert report.passed
        announce(
            "criterion 4: gradient correctness",
            worst < 1e-4,
            f"max relative error {worst:.2e} across 5 parameter settings x 8 "
            f"sampled parameters (tolerance 1e-4)",
        )


class TestCriterion5Decorrelation:
    def test_both_modes_attenuate_inflated_features(self, repro_run):
        report, _ = repro_run
        ratios = {}
        for mode in ("discrete", "continuous"):
            check = report["checks"][f"decorrelation_{mode}"]
            ratios[mode] = check["value"]
        ok = all(v < 0.25 for v in ratios.values())
        announce(
            "criterion 5: decorrelation attenuation",
            ok,
            "worst |corr after|/|corr before| per mode: "
            + ", ".join(f"{m}={v:.3f}" for m, v in ratios.items())
            + " (threshold 0.25, every inflated feature)",
        )


class TestCriterion6OrderPreservation:
    def test_within_cell_pairs_never_swap(self, repro_run):
        _, outdir = repro_run
        table = AdjustmentTable.load(outdir / "artifacts" / "table.json")
        edges = table.edges
        rng = np.random.default_rng(931)
        config = DebiasConfig()
        policy = DebiasPolicy(table, config)
        factors_of, ref_mean = factor_source(table)
        pairs_checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 16))
            scores = rng.uniform(0.05, 50.0, n)
            counts = rng.integers(0, 7, n)
            rows = []
            for c in counts:
                recency = 365.0 if c == 0 else float(rng.uniform(0, 30))
                rows.append((float(c), recency, float(rng.uniform(0, 1))))
            feats = np.asarray(rows)
            order = policy.rank_batch(None, scores[None, :], feats[None, :, :], None)[0]
            position = np.empty(n, dtype=np.int64)
            position[order] = np.arange(n)
            debiased = debias_scores(scores, factors_of(feats), config, ref_mean)
            cells = edges.cell_codes(feats)
            for a in range(n):
                for b in range(n):
                    if a == b or cells[a] != cells[b]:
                        continue
                    assert np.sign(scores[a] - scores[b]) == np.sign(debiased[a] - debiased[b])
                    assert (position[a] < position[b]) == (scores[a] > scores[b])
                    pairs_checked += 1
        announce(
            "criterion 6: within-cell order preservation",
            pairs_checked > 1000,
            f"{pairs_checked} same-cell pairs over 300 random slates, "
            f"no relative order change after correction",
        )


class TestCriterion7Directional:
    def test_table1_directions_and_ordering(self, repro_run):
        report, _ = repro_run
        deltas = report["deltas"]
        details = []
        ok = True
        for arm in ("debias_discrete", "debias_continuous"):
            fam = deltas[arm]["familiar_wt_share"]
            nov = deltas[arm]["novel_wt_share"]
            wt = deltas[arm]["overall_wt"]
            fam_ok = fam["point"] < 0 and fam["ci_high"] < 0
            nov_ok = nov["point"] > 0 and nov["ci_low"] > 0
            wt_ok = (wt["ci_low"] <= 0 <= wt["ci_high"]) or wt["ci_low"] > 0
            ok = ok and fam_ok and nov_ok and wt_ok
            details.append(
                f"{arm}: familiar {fam['point']:+.2f}pp "
                f"[{fam['ci_high']:+.2f} hi], novel {nov['point']:+.2f}pp, "
                f"wt {wt['point']:+.2f}% [{wt['ci_low']:+.2f},{wt['ci_high']:+.2f}]"
            )
        logpop_fam = deltas["log_pop"]["familiar_wt_share"]["point"]
        for arm in ("debias_discrete", "debias_continuous"):
            fam = deltas[arm]["familiar_wt_share"]["point"]
            ok = ok and fam <= logpop_fam
        details.append(f"log_pop familiar {logpop_fam:+.2f}pp")
        announce(
            "criterion 7: directional A/B reproduction",
            ok,
            "; ".join(details),
        )


class TestCriterion8Calibration:
    def test_three_of_five_buckets_within_ten_percent(self, repro_run):
        report, _ = repro_run
        rows = report["diagnostics"]["calibration"]
        good = sum(1 for r in rows if r["count"] > 0 and 0.9 <= r["ratio"] <= 1.1)
        ratios = ", ".join(f"{r['ratio']:.3f}" for r in rows)
        announce(
            "criterion 8: calibration ratio",
            good >= 3 and len(rows) == 5,
            f"{good} of {len(rows)} equal-mass buckets within [0.9, 1.1]; "
            f"ratios: {ratios}",
        )


class TestCriterion9Flattening:
    def test_per_level_mean_variance_collapses(self, repro_run):
        report, _ = repro_run
        ratio = report["diagnostics"]["flattening_variance_ratio"]
        announce(
            "criterion 9: score-distribution flattening",
            ratio < 0.25,
            f"variance of per-level corrected means / raw means = {ratio:.2e} "
            f"(threshold 0.25)",
        )


class TestCriterion10Determinism:
    def test_two_executions_byte_identical(self, repro_run, tmp_path_factory):
        _, first_dir = repro_run
        second_dir = tmp_path_factory.mktemp("repro_repeat")
        run_pipeline(REPRO_CONFIG, second_dir)
        mismatched = [
            name
            for name in BUNDLE_FILES
            if (first_dir / name).read_bytes() != (second_dir / name).read_bytes()
        ]
        announce(
            "criterion 10: determinism",
            not mismatched,
            "report bundle byte-identical across two executions"
            if not mismatched
            else f"files differ: {mismatched}",
        )


class TestCriterion11AANullity:
    def test_duplicate_control_deltas_contain_zero(self, tmp_path_factory):
        config = json.loads((CONFIG_DIR / "aa.json").read_text())
        outdir = tmp_path_factory.mktemp("aa_run")
        report = run_pipeline(config, outdir)
        rows = report["deltas"]["duplicate_control"]
        violations = [
            metric for metric, ci in rows.items()
            if not (ci["ci_low"] <= 0.0 <= ci["ci_high"])
        ]
        announce(
            "criterion 11: A/A nullity",
            not violations,
            "all duplicate-control deltas have CIs containing 0"
            if not violations
            else f"CIs excluding 0: {violations}",
        )
