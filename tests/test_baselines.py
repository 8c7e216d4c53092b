"""Baseline policies: popularity penalization, quota re-ranking, static boost."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famdebias.bucketizer import BucketEdges
from famdebias.core import FeatureSchema
from famdebias.policies import (
    STRATA,
    BoostRule,
    Quota,
    QuotaRerankPolicy,
    StaticBoostPolicy,
    log_pop_penalize,
    popularity_terciles,
)

SCHEMA = FeatureSchema(
    names=("watch_count",), kinds=("count",),
    monotonicity=("increasing-with-familiarity",),
)


def greedy_quota_row(
    base_row: np.ndarray, level_row: np.ndarray, caps: np.ndarray, slate_size: int
) -> np.ndarray:
    """Oracle: one row of quota admission, scanned candidate by candidate."""
    counts = [0, 0, 0]
    admitted: list[int] = []
    deferred: list[int] = []
    scanned = 0
    for idx in base_row:
        scanned += 1
        st = level_row[idx]
        if counts[st] < caps[st]:
            admitted.append(idx)
            counts[st] += 1
            if len(admitted) >= slate_size:
                break
        else:
            deferred.append(idx)
    tail = base_row[scanned:]
    return np.concatenate(
        [np.asarray(admitted + deferred, dtype=np.int64), tail]
    )


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
    policy = QuotaRerankPolicy(kind="item", quota=Quota(**quota), slate_size=n)
    pools = np.arange(n).reshape(1, -1)
    out = policy.rank_batch(pools, urps, np.zeros((1, n, 1)), np.asarray(item_impressions))
    return out[0].tolist()


def user_quota_order(scores, feature_values, cuts, quota) -> list:
    """User-centric quota order of one slate over one bucketed feature."""
    urps = np.asarray(scores, dtype=np.float64).reshape(1, -1)
    n = urps.shape[1]
    edges = BucketEdges(schema=SCHEMA, cuts=[np.asarray(cuts, dtype=np.float64)], nominal_k=3)
    policy = QuotaRerankPolicy(
        kind="user", quota=Quota(**quota), slate_size=n, edges=edges, feature="watch_count"
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
            kind="item", quota=Quota(low=0.0, med=0.0, high=1.0), slate_size=3
        )
        order = policy.rank_batch(
            np.array([[0, 15, 29]]), np.array([[3.0, 2.0, 1.0]]), np.zeros((1, 3, 1)), counts
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
        policy = QuotaRerankPolicy(kind="item", quota=Quota(high=0.5), slate_size=3)
        out = policy.rank_batch(
            np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 3, 1)),
            np.zeros(3, dtype=np.int64),
        )
        assert out.shape == (0, 3)

    def test_item_centric_same_mechanics(self):
        # item 0 is the only high-exposure item; a 0.4 cap over 3 admits it
        assert item_quota_order([5.0, 4.0, 3.0], [9, 0, 1], {"high": 0.4}) == [0, 1, 2]

    def test_output_is_permutation(self):
        rng = np.random.default_rng(2)
        urps = rng.uniform(0, 5, (6, 30))
        pools = np.tile(np.arange(30), (6, 1))
        policy = QuotaRerankPolicy(kind="item", quota=Quota(high=0.3), slate_size=10)
        out = policy.rank_batch(pools, urps, np.zeros((6, 30, 1)), rng.integers(0, 50, 30))
        for row in out:
            assert sorted(row.tolist()) == list(range(30))

    def test_quotas_summing_below_one_rejected(self):
        with pytest.raises(ValueError):
            Quota(low=0.2, med=0.2, high=0.2)

    def test_score_ties_break_by_item_id(self):
        # pools are id-sorted, so tied scores keep ascending item id order
        assert item_quota_order([2.0, 2.0, 2.0], [0, 0, 0], {}) == [0, 1, 2]


SHARES = st.sampled_from([0.0, 0.1, 0.35, 0.5, 1.0])


@st.composite
def quota_batches(draw):
    """A quota policy and its rank_batch inputs, item or user strata, small batches."""
    rows = draw(st.integers(0, 6))
    pool = draw(st.integers(1, 24))
    slate_size = draw(st.integers(1, pool))
    shares = draw(
        st.tuples(SHARES, SHARES, SHARES).filter(lambda q: sum(q) >= 1.0)
    )
    quota = Quota(*shares)
    # few distinct score values force ties; all-equal exposure (item strata)
    # or no cut (user strata) puts every candidate in one stratum
    n_values = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    urps = rng.integers(1, n_values + 1, (rows, pool)).astype(np.float64)
    if draw(st.booleans()):
        counts = rng.integers(0, draw(st.sampled_from([1, 10])), 40)
        pools = np.sort(np.argsort(rng.random((rows, 40)), axis=1)[:, :pool], axis=1)
        policy = QuotaRerankPolicy(kind="item", quota=quota, slate_size=slate_size)
        return policy, pools, urps, np.zeros((rows, pool, 1)), counts
    n_cuts = draw(st.integers(0, 4))
    cuts = np.arange(1, n_cuts + 1, dtype=np.float64)
    edges = BucketEdges(schema=SCHEMA, cuts=[cuts], nominal_k=n_cuts + 1)
    policy = QuotaRerankPolicy(
        kind="user", quota=quota, slate_size=slate_size, edges=edges, feature="watch_count"
    )
    feats = rng.integers(0, n_cuts + 2, (rows, pool, 1)).astype(np.float64)
    return policy, np.tile(np.arange(pool), (rows, 1)), urps, feats, None


class TestQuotaOracle:
    @settings(max_examples=300, deadline=None)
    @given(batch=quota_batches())
    def test_rank_batch_equals_greedy_scan_row_by_row(self, batch):
        policy, pools, urps, feats, counts = batch
        out = policy.rank_batch(pools, urps, feats, counts)
        base = np.argsort(-urps, axis=1, kind="stable")
        levels = policy._levels(pools, feats, counts)
        caps = np.asarray([getattr(policy.quota, s) * policy.slate_size for s in STRATA])
        assert out.shape == urps.shape
        for u in range(urps.shape[0]):
            expected = greedy_quota_row(base[u], levels[u], caps, policy.slate_size)
            assert out[u].tolist() == expected.tolist()
