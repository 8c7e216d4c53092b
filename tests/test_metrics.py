"""Watch-time shares, exposure, distribution views, calibration, bootstrap."""

import numpy as np
import pytest

from famdebias.bucketizer import fit_edges, fit_table
from famdebias.core import FeatureSchema, InteractionLog
from famdebias.debias import DebiasConfig, debias_log
from famdebias.estimator import RegressorModel, Normalizer, TrainConfig, train_xy
from famdebias.metrics import (
    bootstrap_ratio_delta,
    calibration_ratio,
    emerging_creator_mask,
    emerging_share_from_impressions,
    experiment_report,
    label_prediction_shift,
    novelty_mask,
    per_user_wt_shares,
    score_distribution_by_bucket,
)
from famdebias.simulator import (
    DAY,
    ControlPolicy,
    FeatureSpec,
    InflationSpec,
    SessionConfig,
    Universe,
    UniverseConfig,
    run_arm,
)

from synthetic_log import synthetic_training_log

SCHEMA_1 = FeatureSchema(
    names=("x",), kinds=("affinity",), monotonicity=("increasing-with-familiarity",)
)


def build_log(rows, schema=SCHEMA_1):
    """rows: (user, item, creator, day, wt, urps, feature)."""
    rows = list(rows)
    n = len(rows)
    return InteractionLog(
        schema=schema,
        users=np.array([r[0] for r in rows]),
        items=np.array([r[1] for r in rows]),
        creators=np.array([r[2] for r in rows]),
        timestamps=np.array([r[3] * DAY for r in rows], dtype=np.float64),
        watch_times=np.array([r[4] for r in rows], dtype=np.float64),
        urps=np.array([r[5] for r in rows], dtype=np.float64),
        features=np.array([[r[6]] for r in rows], dtype=np.float64).reshape(n, 1),
    )


def novel_share(log, window_days):
    """Novel watch-time share of a log whose users are 0..n-1."""
    novel_wt, total_wt = per_user_wt_shares(log, window_days, int(log.users.max()) + 1)
    return novel_wt.sum() / total_wt.sum()


def arm_shares(log, window_days=14.0):
    """The single-arm report row: novel and familiar watch-time shares."""
    n_users = int(log.users.max()) + 1
    report = experiment_report(
        {"control": (log, np.ones((n_users, 1), dtype=np.int64))},
        recent_flags=np.zeros(1, dtype=bool), window_days=window_days, replicates=1,
    )
    arm = report.arms["control"]
    return arm.novel_wt_share, arm.familiar_wt_share


class TestNovelShare:
    def test_first_session_everything_novel(self):
        log = build_log([(u, i, 0, 30, 10.0, 1.0, 0.0) for u in range(3) for i in range(4)])
        assert novel_share(log, 14) == 1.0

    def test_window_rule_by_hand(self):
        # history watches carry zero watch time; the session watches carry it
        rows = [
            (0, "A", 0, 27.0, 0.0, 1.0, 0.0),   # A seen 3 days before
            (0, "C", 0, 10.0, 0.0, 1.0, 0.0),   # C seen 20 days before
            (0, "A", 0, 30.0, 70.0, 1.0, 0.0),  # familiar (3 <= 14)
            (0, "B", 0, 30.0, 10.0, 1.0, 0.0),  # never seen: novel
            (0, "C", 0, 30.0, 20.0, 1.0, 0.0),  # seen 20 days ago: novel
        ]
        novel, familiar = arm_shares(build_log(rows), 14)
        assert novel == pytest.approx(0.30)
        assert familiar == pytest.approx(0.70)

    def test_zero_window_everything_novel(self):
        rows = [
            (0, "A", 0, 29.0, 5.0, 1.0, 0.0),
            (0, "A", 0, 30.0, 5.0, 1.0, 0.0),
        ]
        assert novel_share(build_log(rows), 0) == 1.0

    def test_zero_watch_time_flagged_undefined(self):
        log = build_log([(0, "A", 0, 1.0, 0.0, 1.0, 0.0)])
        novel, familiar = arm_shares(log, 14)
        assert np.isnan(novel) and np.isnan(familiar)

    def test_complementarity_exact(self):
        rng = np.random.default_rng(1)
        rows = [
            (int(rng.integers(4)), int(rng.integers(10)), 0, float(d), float(rng.uniform(1, 5)), 1.0, 0.0)
            for d in rng.uniform(1, 60, 300)
        ]
        novel, familiar = arm_shares(build_log(rows), 14)
        assert novel + familiar == 1.0

    def test_record_order_invariance(self):
        rng = np.random.default_rng(2)
        rows = [
            (int(rng.integers(3)), int(rng.integers(6)), 0, float(d), float(rng.uniform(1, 5)), 1.0, 0.0)
            for d in rng.uniform(1, 40, 120)
        ]
        log = build_log(rows)
        perm = rng.permutation(len(log))
        shuffled = build_log([rows[i] for i in perm])
        assert novel_share(shuffled, 14) == pytest.approx(novel_share(log, 14))
        mask = novelty_mask(log, 14)
        assert np.array_equal(novelty_mask(shuffled, 14), mask[perm])

    def test_duplicate_timestamps_use_strictly_earlier_history(self):
        rows = [
            (0, "A", 0, 10.0, 1.0, 1.0, 0.0),
            (0, "A", 0, 12.0, 1.0, 1.0, 0.0),
            (0, "A", 0, 12.0, 1.0, 1.0, 0.0),
        ]
        mask = novelty_mask(build_log(rows), 14)
        assert mask.tolist() == [True, False, False]

    def test_per_user_decomposition_matches_total(self):
        rng = np.random.default_rng(3)
        rows = [
            (int(rng.integers(5)), int(rng.integers(8)), 0, float(d), float(rng.uniform(1, 5)), 1.0, 0.0)
            for d in rng.uniform(1, 50, 200)
        ]
        log = build_log(rows)
        novel_wt, total_wt = per_user_wt_shares(log, 14, 5)
        assert total_wt.sum() == pytest.approx(log.watch_times.sum())
        mask = novelty_mask(log, 14)
        assert novel_wt.sum() / total_wt.sum() == pytest.approx(
            log.watch_times[mask].sum() / log.watch_times.sum()
        )


def emerging_share(matrix, recent, percentile=10.0):
    """Share of all impressions that go to emerging creators."""
    emerging, total = emerging_share_from_impressions(
        np.asarray(matrix), np.asarray(recent), percentile
    )
    return emerging.sum() / total.sum()


class TestEmergingExposure:
    def test_no_emerging_creators(self):
        matrix = [[10, 20, 30]]
        assert emerging_share(matrix, [False, False, False]) == 0.0

    def test_all_impressions_to_one_emerging_creator(self):
        # user 0 sees only creator 2, which is recent and least exposed
        matrix = np.array([[0, 0, 5], [50, 60, 0]])
        emerging, total = emerging_share_from_impressions(
            matrix, np.array([False, False, True]), 10.0
        )
        assert emerging[0] / total[0] == 1.0
        assert emerging[1] == 0.0

    def test_two_of_ten_impressions(self):
        matrix = np.array([[0, 8, 0, 0, 0, 2], [40, 42, 60, 70, 80, 0]])
        recent = np.array([False] * 5 + [True])
        emerging, total = emerging_share_from_impressions(matrix, recent, 10.0)
        assert emerging[0] / total[0] == pytest.approx(0.2)

    def test_mask_requires_recent_join_and_low_exposure(self):
        exposure = np.array([0, 0, 100, 100])
        recent = np.array([True, False, True, False])
        mask = emerging_creator_mask(exposure, recent, 25)
        assert mask.tolist() == [True, False, False, False]

    def test_empty_log_rejected(self):
        # an experiment with no users has nothing to compare
        log = build_log([])
        with pytest.raises(ValueError):
            experiment_report(
                {"control": (log, np.zeros((0, 1), dtype=np.int64))},
                recent_flags=np.array([True]),
            )


def exact_mean_log_and_table(seed=29, n=20000):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0, 1, n)
    urps = rng.lognormal(0.2, 0.5, n) * (1.0 + 0.8 * feats)
    log = build_log(
        [(0, k, 0, 1.0 + k, 1.0, float(urps[k]), float(feats[k])) for k in range(n)]
    )
    edges = fit_edges(log, SCHEMA_1, k=6)
    table = fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None,
                      min_cell_count=1)
    return log, edges, table


class TestScoreDistribution:
    def test_exact_mean_setting_flattens_to_one(self):
        log, edges, table = exact_mean_log_and_table()
        debiased, _ = debias_log(log, table, DebiasConfig(floor=1e-12))
        dist = score_distribution_by_bucket(log, edges.cuts[0], "x", debiased)
        for entry in dist.values():
            if entry["count"]:
                assert entry["mean_debiased"] == pytest.approx(1.0, abs=1e-9)

    def test_inflated_scores_rank_levels(self):
        log, edges, _ = exact_mean_log_and_table()
        dist = score_distribution_by_bucket(log, edges.cuts[0], "x")
        assert dist["high"]["mean"] > dist["low"]["mean"]


def constant_prediction_model(value: float) -> RegressorModel:
    return RegressorModel(
        normalizer=Normalizer(np.zeros(1, dtype=bool), np.zeros(1), np.ones(1)),
        weights=[np.zeros((1, 1))],
        biases=[np.zeros(1)],
        activations=["softplus"],
        output_scale=value / np.log(2.0),
    )


class TestCalibration:
    def test_noise_free_overparameterized_fit_hits_one(self):
        uni = Universe.build(UniverseConfig(users=100, items=1000, creators=30, seed=61))
        spec = InflationSpec(
            features=(
                FeatureSpec("item_watch_count", "count", 0.5),
                FeatureSpec("days_since_last_watch", "recency", 0.35, tau_days=12.0, cap_days=90.0),
                FeatureSpec("creator_affinity", "affinity", 0.3),
            ),
            noise_sigma=0.0,
        )
        log = synthetic_training_log(uni, spec, n=60_000, seed=62,
                                     recency_spread_days=90.0, fixed_quality=2.0)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_xy(log.features, log.urps, spec.schema(),
                             TrainConfig(learning_rate=3e-3, lr_decay=0.92,
                                         max_epochs=40, patience=40, seed=63))
        rows = calibration_ratio(model, log, "creator_affinity", k=5)
        for row in rows:
            assert row["count"] > 0
            assert row["ratio"] == pytest.approx(1.0, abs=0.02)

    def test_constant_model_ratio_decreases_with_inflated_buckets(self):
        log, edges, _ = exact_mean_log_and_table()
        model = constant_prediction_model(np.log(2.0))
        rows = calibration_ratio(model, log, "x", k=5)
        ratios = [r["ratio"] for r in rows if r["count"] > 0]
        assert np.all(np.diff(ratios) < 0)


class TestLabelPredictionShift:
    def test_top_bucket_debiased_below_raw(self):
        log, edges, table = exact_mean_log_and_table()
        rows = label_prediction_shift(log, table, DebiasConfig(floor=1e-9), "x", k=5)
        top = rows[-1]
        assert top["mean_label_debiased"] < top["mean_label"]
        assert top["mean_prediction_debiased"] < top["mean_prediction"]

    def test_zero_strength_keeps_columns_equal(self):
        log, edges, table = exact_mean_log_and_table()
        rows = label_prediction_shift(log, table, DebiasConfig(strength=0.0), "x", k=5)
        for row in rows:
            assert row["mean_label_debiased"] == pytest.approx(row["mean_label"])
            assert row["mean_prediction_debiased"] == pytest.approx(row["mean_prediction"])

    def test_empty_log_rejected(self):
        log = build_log([])
        _, _, table = exact_mean_log_and_table(n=500)
        with pytest.raises(ValueError):
            label_prediction_shift(log, table, DebiasConfig(), "x")


def mean_delta(values_a, values_b, replicates=1000, seed=0):
    """Paired bootstrap of the difference in per-user means."""
    ones = np.ones(np.size(values_a))
    return bootstrap_ratio_delta(
        values_a, ones, values_b, np.ones(np.size(values_b)),
        replicates=replicates, seed=seed,
    )


class TestBootstrap:
    def test_identical_arms_give_zero_delta_and_ci(self):
        values = np.random.default_rng(3).uniform(0, 1, 50)
        ci = mean_delta(values, values, replicates=300, seed=1)
        assert ci.point == 0.0 and ci.lo == 0.0 and ci.hi == 0.0
        assert ci.contains_zero()

    def test_constant_metrics_give_degenerate_ci(self):
        a = np.full(40, 0.2)
        b = np.full(40, 0.5)
        ci = mean_delta(a, b, replicates=500, seed=2)
        assert ci.point == pytest.approx(0.3)
        assert ci.lo == pytest.approx(0.3) and ci.hi == pytest.approx(0.3)

    def test_single_replicate_ci_equals_point(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)
        ci = mean_delta(a, b, replicates=1, seed=3)
        assert ci.lo == ci.point == ci.hi

    def test_ratio_delta_units(self):
        num_a, den_a = np.full(20, 2.0), np.full(20, 10.0)
        num_b, den_b = np.full(20, 5.0), np.full(20, 10.0)
        pp = bootstrap_ratio_delta(num_a, den_a, num_b, den_b, replicates=100,
                                   seed=0, scale=100.0, unit="pp")
        assert pp.point == pytest.approx(30.0)
        rel = bootstrap_ratio_delta(den_a, np.ones(20), den_b, np.ones(20),
                                    replicates=100, seed=0, relative=True)
        assert rel.point == pytest.approx(0.0)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)
        c1 = mean_delta(a, b, replicates=200, seed=9)
        c2 = mean_delta(a, b, replicates=200, seed=9)
        assert (c1.point, c1.lo, c1.hi) == (c2.point, c2.lo, c2.hi)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            mean_delta(np.ones(3), np.ones(4))


class TestExperimentReport:
    def make_arms(self):
        spec = InflationSpec(
            features=(
                FeatureSpec("item_watch_count", "count", 0.5),
                FeatureSpec("days_since_last_watch", "recency", 0.35),
                FeatureSpec("creator_affinity", "affinity", 0.0),
            ),
            noise_sigma=0.2,
        )
        uni = Universe.build(UniverseConfig(users=60, items=600, creators=40, seed=71))
        cfg = SessionConfig(sessions=8, pool_size=50, slate_size=10,
                            consume_top_k=5, pool_skew=0.8)
        a = run_arm(uni, ControlPolicy(), spec, cfg, seed=72, name="control")
        b = run_arm(uni, ControlPolicy(), spec, cfg, seed=72, name="dup")
        return uni, a, b

    def test_duplicate_control_all_deltas_zero(self):
        uni, a, b = self.make_arms()
        report = experiment_report(
            {
                "control": (a.log, a.user_creator_impressions),
                "dup": (b.log, b.user_creator_impressions),
            },
            recent_flags=uni.creator_recent,
            replicates=200,
            seed=73,
        )
        for metric, ci in report.deltas["dup"].items():
            assert ci.point == pytest.approx(0.0, abs=1e-12), metric
            assert ci.contains_zero()

    def test_share_linkage_equal_and_opposite(self):
        uni, a, b = self.make_arms()
        report = experiment_report(
            {
                "control": (a.log, a.user_creator_impressions),
                "dup": (b.log, b.user_creator_impressions),
            },
            recent_flags=uni.creator_recent,
            replicates=50,
            seed=74,
        )
        for row in report.deltas.values():
            assert row["novel_wt_share"].point == pytest.approx(
                -row["familiar_wt_share"].point, abs=1e-9
            )

    def test_report_structure(self):
        uni, a, b = self.make_arms()
        report = experiment_report(
            {
                "control": (a.log, a.user_creator_impressions),
                "dup": (b.log, b.user_creator_impressions),
            },
            recent_flags=uni.creator_recent,
            replicates=10,
            seed=75,
        )
        d = report.to_dict()
        assert set(d["arms"]) == {"control", "dup"}
        arm = d["arms"]["control"]
        assert arm["novel_wt_share"] + arm["familiar_wt_share"] == pytest.approx(1.0)
        assert set(d["deltas"]["dup"]) == {
            "emerging_creator_exposure", "novel_wt_share",
            "familiar_wt_share", "overall_wt",
        }
