"""Baseline policies: popularity penalization, quota re-ranking, static boost."""

from types import SimpleNamespace

import numpy as np
import pytest

from famdebias.bucketizer import BucketEdges
from famdebias.core import FeatureSchema
from famdebias.policies import (
    BoostRule,
    QuotaRerankPolicy,
    StaticBoostPolicy,
    log_pop_penalize,
    popularity_terciles,
)
from famdebias.simulator import PolicyContext

SCHEMA = FeatureSchema(
    names=("watch_count",), kinds=("count",),
    monotonicity=("increasing-with-familiarity",),
)


def context(item_impressions) -> PolicyContext:
    """Policy context carrying only the live global item exposure."""
    state = SimpleNamespace(item_impressions=np.asarray(item_impressions))
    return PolicyContext(state=state, universe=None, now=0.0)


def boosted_order(rule: BoostRule, scores, feature_values) -> list:
    """Static-boost order of one slate with one feature column."""
    urps = np.asarray(scores, dtype=np.float64).reshape(1, -1)
    feats = np.asarray(feature_values, dtype=np.float64).reshape(1, -1, 1)
    pools = np.arange(urps.shape[1]).reshape(1, -1)
    return StaticBoostPolicy(rule, SCHEMA).rank_batch(pools, urps, feats, None)[0].tolist()


def item_quota_order(scores, item_impressions, quota) -> list:
    """Item-centric quota order of one slate; pool column k is item k."""
    urps = np.asarray(scores, dtype=np.float64).reshape(1, -1)
    n = urps.shape[1]
    policy = QuotaRerankPolicy(kind="item", quota=quota, slate_size=n)
    pools = np.arange(n).reshape(1, -1)
    out = policy.rank_batch(pools, urps, np.zeros((1, n, 1)), context(item_impressions))
    return out[0].tolist()


def user_quota_order(scores, feature_values, cuts, quota) -> list:
    """User-centric quota order of one slate over one bucketed feature."""
    urps = np.asarray(scores, dtype=np.float64).reshape(1, -1)
    n = urps.shape[1]
    edges = BucketEdges(schema=SCHEMA, cuts=[np.asarray(cuts, dtype=np.float64)], nominal_k=3)
    policy = QuotaRerankPolicy(
        kind="user", quota=quota, slate_size=n, edges=edges, feature="watch_count"
    )
    feats = np.asarray(feature_values, dtype=np.float64).reshape(1, n, 1)
    return policy.rank_batch(np.arange(n).reshape(1, -1), urps, feats, None)[0].tolist()


class TestLogPop:
    def test_zero_popularity_is_identity(self):
        assert log_pop_penalize(4.0, 0, 1.0) == 4.0

    def test_zero_lambda_is_identity(self):
        assert log_pop_penalize(4.0, 99, 0.0) == 4.0

    def test_hand_arithmetic(self):
        assert log_pop_penalize(4.0, 3, 1.0) == pytest.approx(1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            log_pop_penalize(1.0, 1, -0.1)

    def test_negative_popularity_rejected(self):
        with pytest.raises(ValueError):
            log_pop_penalize(1.0, -1, 0.5)

    def test_item_global_same_scores_for_any_user(self):
        # the penalty depends only on the item, never on who is served
        scores = np.array([4.0, 2.0, 1.0])
        pops = np.array([3, 0, 8])
        user_a = log_pop_penalize(scores, pops, 0.5)
        user_b = log_pop_penalize(scores, pops, 0.5)
        assert np.array_equal(user_a, user_b)

    def test_outputs_stay_positive(self):
        rng = np.random.default_rng(0)
        out = log_pop_penalize(rng.uniform(0.1, 5, 100), rng.integers(0, 1000, 100), 0.7)
        assert np.all(out > 0)


class TestStaticBoost:
    def test_unit_multiplier_is_identity(self):
        rule = BoostRule("watch_count", 1.0, 1.0)
        assert boosted_order(rule, [2.0, 2.1, 1.9], [0.0, 4.0, 0.0]) == [1, 0, 2]

    def test_below_threshold_boosted(self):
        # 2.0 * 1.3 = 2.6 overtakes the unboosted 2.5
        rule = BoostRule("watch_count", 1.0, 1.3)
        assert boosted_order(rule, [2.5, 2.0], [4.0, 0.0]) == [1, 0]
        assert boosted_order(rule, [2.7, 2.0], [4.0, 0.0]) == [0, 1]

    def test_at_or_above_threshold_unchanged(self):
        rule = BoostRule("watch_count", 1.0, 1.3)
        assert boosted_order(rule, [2.5, 2.0], [4.0, 1.0]) == [0, 1]
        assert boosted_order(rule, [2.5, 2.0], [4.0, 4.0]) == [0, 1]

    def test_vectorized_rows(self):
        rule = BoostRule("watch_count", 1.0, 2.0)
        urps = np.array([[1.0, 1.5], [1.0, 1.5]])
        feats = np.array([[[0.0], [3.0]], [[3.0], [3.0]]])
        pools = np.array([[0, 1], [0, 1]])
        order = StaticBoostPolicy(rule, SCHEMA).rank_batch(pools, urps, feats, None)
        assert order.tolist() == [[0, 1], [1, 0]]


class TestStrata:
    def test_bucket_thirds_mapping(self):
        # five buckets collapse into thirds: low, low, med, med, high
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        order = user_quota_order(
            [5.0, 4.0, 3.0, 2.0, 1.0], values, [1.0, 2.0, 3.0, 4.0],
            {"low": 0.0, "med": 0.0, "high": 1.0},
        )
        # only the high stratum (the last item) is admitted ahead of the rest
        assert order == [4, 0, 1, 2, 3]
        order = user_quota_order(
            [5.0, 4.0, 3.0, 2.0, 1.0], values, [1.0, 2.0, 3.0, 4.0],
            {"low": 0.0, "med": 1.0, "high": 0.0},
        )
        assert order == [2, 3, 0, 1, 4]

    def test_single_bucket_all_low(self):
        order = user_quota_order(
            [2.0, 1.0], [0.0, 9.0], [], {"low": 1.0, "med": 0.0, "high": 0.0}
        )
        assert order == [0, 1]

    def test_popularity_terciles_and_strata(self):
        counts = np.arange(30)
        t1, t2 = popularity_terciles(counts)
        assert t1 < 15 <= t2 < 29
        # items 0, 15 and 29 of a 30-item catalog are low, med and high;
        # a high-only quota admits item 29 first
        policy = QuotaRerankPolicy(
            kind="item", quota={"low": 0.0, "med": 0.0, "high": 1.0}, slate_size=3
        )
        order = policy.rank_batch(
            np.array([[0, 15, 29]]), np.array([[3.0, 2.0, 1.0]]), np.zeros((1, 3, 1)),
            context(counts),
        )
        assert order.tolist() == [[2, 0, 1]]


class TestQuotaRerank:
    def test_permissive_quota_is_identity(self):
        assert item_quota_order([5.0, 4.0, 3.0, 2.0], [9, 9, 9, 0], {"high": 1.0}) == [
            0, 1, 2, 3
        ]

    def test_all_high_familiarity_half_quota(self):
        # slate of 4, cap 0.5 * 4 = 2 admitted greedily, rest appended by score
        order = user_quota_order(
            [5.0, 4.0, 3.0, 2.0], [9.0] * 4, [1.0, 2.0], {"high": 0.5}
        )
        assert order == [0, 1, 2, 3]

    def test_capped_stratum_defers_to_other_strata(self):
        # cap 1: first high admitted, second deferred behind the lows
        order = user_quota_order(
            [5.0, 4.0, 3.0, 2.0], [9.0, 9.0, 0.0, 0.0], [1.0, 2.0], {"high": 0.25}
        )
        assert order == [0, 2, 3, 1]

    def test_empty_slate(self):
        policy = QuotaRerankPolicy(kind="item", quota={"high": 0.5}, slate_size=3)
        out = policy.rank_batch(
            np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 3, 1)),
            context(np.zeros(3, dtype=np.int64)),
        )
        assert out.shape == (0, 3)

    def test_item_centric_same_mechanics(self):
        # item 0 is the only high-exposure item; a 0.4 cap over 3 admits it
        assert item_quota_order([5.0, 4.0, 3.0], [9, 0, 1], {"high": 0.4}) == [0, 1, 2]

    def test_output_is_permutation(self):
        rng = np.random.default_rng(2)
        urps = rng.uniform(0, 5, (6, 30))
        pools = np.tile(np.arange(30), (6, 1))
        policy = QuotaRerankPolicy(kind="item", quota={"high": 0.3}, slate_size=10)
        out = policy.rank_batch(
            pools, urps, np.zeros((6, 30, 1)), context(rng.integers(0, 50, 30))
        )
        for row in out:
            assert sorted(row.tolist()) == list(range(30))

    def test_quotas_summing_below_one_rejected(self):
        with pytest.raises(ValueError):
            QuotaRerankPolicy(
                kind="item", quota={"low": 0.2, "med": 0.2, "high": 0.2}, slate_size=1
            )

    def test_score_ties_break_by_item_id(self):
        # pools are id-sorted, so tied scores keep ascending item id order
        assert item_quota_order([2.0, 2.0, 2.0], [0, 0, 0], {}) == [0, 1, 2]
