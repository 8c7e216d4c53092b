"""Closed-loop simulator: oracle identities, pairing, determinism, dynamics."""

import hashlib
import json
import os
import signal
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from famdebias import simulator
from famdebias.bucketizer import BucketEdges
from famdebias.core import load
from famdebias.harness import (
    ExperimentConfig,
    build_universe,
    fit_artifacts,
    run_pipeline,
)
from famdebias.metrics import experiment_report, familiar_share_by_time_quartile
from famdebias.policies import (
    BoostRule,
    LogPopPolicy,
    Quota,
    QuotaRerankPolicy,
    StaticBoostPolicy,
    build_policy,
)
from famdebias.simulator import (
    DAY,
    ArmWorkerError,
    ControlPolicy,
    FeatureSpec,
    InflationSpec,
    PoolPrior,
    SessionConfig,
    SessionState,
    SessionStreams,
    Universe,
    UniverseConfig,
    _user_rng,
    order_rows_by_key,
    run_arm,
    run_paired_arms,
    sample_pool,
    synthetic_training_log,
)

SPEC = InflationSpec(
    features=(
        FeatureSpec("item_watch_count", "count", 0.6),
        FeatureSpec("days_since_last_watch", "recency", 0.4),
        FeatureSpec("creator_affinity", "affinity", 0.3),
    ),
    noise_sigma=0.2,
)


def small_universe(seed=0, users=40, items=400, creators=30):
    return Universe.build(UniverseConfig(users=users, items=items, creators=creators, seed=seed))


def quality(uni, user, item):
    """Latent quality of one (user, item) pair, read through ``quality_batch``."""
    return float(uni.quality_batch(np.full((uni.n_users, 1), item))[user, 0])


def features_of(state, user, items, now):
    """Familiarity matrix (items, n_features) of one user's candidates."""
    pools = np.asarray(items, dtype=np.int64).reshape(1, -1)
    return state.features_batch(np.array([user]), pools, now)[0]


def consume(state, user, items, timestamps):
    state.consume_batch(
        np.array([user]),
        np.asarray(items, dtype=np.int64).reshape(1, -1),
        np.asarray(timestamps, dtype=np.float64).reshape(1, -1),
    )


@contextmanager
def workers(n):
    """Step paired arms in ``n`` worker processes whatever the host's CPU count."""
    saved = simulator._FORCED_WORKERS
    simulator._FORCED_WORKERS = n
    try:
        yield
    finally:
        simulator._FORCED_WORKERS = saved


def arm_results(uni, policies, spec, cfg, seed):
    """Every arm through the pipeline's shared arm loop, by name."""
    return {r.name: r for r in run_paired_arms(uni, policies, spec, cfg, seed)}


class TestTrueQuality:
    def test_orthogonal_vectors_give_one(self):
        uni = small_universe()
        uni.user_vectors[0] = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])
        uni.item_vectors[0] = np.array([0, 1.0, 0, 0, 0, 0, 0, 0])
        assert quality(uni, 0, 0) == pytest.approx(1.0)

    def test_unit_dot_over_sqrt_d_gives_e(self):
        uni = small_universe()
        # d = 8: dot product sqrt(8) makes the normalized exponent exactly 1
        v = np.zeros(8)
        v[0] = 8.0**0.25
        uni.user_vectors[1] = v
        uni.item_vectors[1] = v
        assert quality(uni, 1, 1) == pytest.approx(np.e)

    def test_depends_only_on_dot_product(self):
        uni = small_universe()
        uni.user_vectors[2] = np.array([2.0, 0, 0, 0, 0, 0, 0, 0])
        uni.item_vectors[2] = np.array([1.0, 3.0, 0, 0, 0, 0, 0, 0])
        uni.user_vectors[3] = np.array([0, 0, 0, 1.0, 0, 0, 0, 0])
        uni.item_vectors[3] = np.array([0, 0, 0, 2.0, 0, 0, 0, 0])
        assert quality(uni, 2, 2) == pytest.approx(quality(uni, 3, 3))

    def test_batch_matches_scalar(self):
        uni = small_universe(seed=5)
        pool = np.array([3, 7, 11])
        pools = np.tile(pool, (uni.n_users, 1))
        batch = uni.quality_batch(pools)[4]
        for j, item in enumerate(pool):
            dot = uni.user_vectors[4] @ uni.item_vectors[item]
            assert batch[j] == pytest.approx(np.exp(dot / np.sqrt(uni.latent_dim)))
            assert batch[j] == quality(uni, 4, int(item))


class TestInflation:
    def test_fresh_pair_gets_factor_one(self):
        # a never-interacted pair: no watches, recency at its cap, no affinity
        fresh = np.array([[0.0, SPEC.features[1].cap_days, 0.0]])
        assert SPEC.g_many(fresh)[0] == pytest.approx(1.0, abs=1e-15)

    def test_count_contribution_by_hand(self):
        spec = InflationSpec(
            features=(FeatureSpec("item_watch_count", "count", 0.6),), noise_sigma=0.0
        )
        assert spec.g_many(np.array([[np.e - 1.0]]))[0] == pytest.approx(1.6)

    def test_kind_must_match_the_catalog(self):
        # a count declared as recency would inflate a never-watched item by
        # 1 + alpha * exp(0) instead of 1
        with pytest.raises(ValueError, match="kind: 'item_watch_count' is a 'count' feature"):
            FeatureSpec("item_watch_count", "recency")

    def test_factor_at_least_one_for_nonnegative_alphas(self):
        rng = np.random.default_rng(1)
        feats = np.column_stack(
            [rng.integers(0, 30, 500), rng.uniform(0, 365, 500), rng.uniform(0, 1, 500)]
        )
        assert np.all(SPEC.g_many(feats) >= 1.0)

    def test_config_round_trip(self):
        back = load(InflationSpec, asdict(SPEC))
        assert back == SPEC

    def test_schema_derived_from_features(self):
        schema = SPEC.schema()
        assert schema.names == (
            "item_watch_count", "days_since_last_watch", "creator_affinity",
        )
        assert schema.kinds == ("count", "recency", "affinity")


class TestObserve:
    def test_fresh_pair_no_noise_returns_quality(self):
        uni = small_universe(seed=2)
        spec = InflationSpec(features=SPEC.features, noise_sigma=0.0)
        cfg = SessionConfig(sessions=1, pool_size=4, slate_size=2, consume_top_k=1)
        state = SessionState(uni, spec, cfg)
        b = features_of(state, 5, [9], cfg.start_day * DAY)[0]
        assert b[0] == 0.0 and b[2] == 0.0
        assert b[1] == 365.0
        # score = quality * g(b) * exp(0): a fresh pair carries no inflation
        urps = quality(uni, 5, 9) * spec.g_many(b[None])[0]
        assert urps == pytest.approx(quality(uni, 5, 9))

    def test_consumed_item_carries_inflation(self):
        uni = small_universe(seed=3)
        spec = InflationSpec(features=SPEC.features, noise_sigma=0.0)
        cfg = SessionConfig(sessions=1, pool_size=4, slate_size=2, consume_top_k=1)
        state = SessionState(uni, spec, cfg)
        now = 10 * DAY
        consume(state, 7, [3], [now - 2 * DAY])
        b = features_of(state, 7, [3], now)[0]
        assert b[0] == 1.0
        assert b[1] == pytest.approx(2.0)
        urps = quality(uni, 7, 3) * spec.g_many(b[None])[0]
        assert urps > quality(uni, 7, 3)

    def test_mean_of_repeated_draws_matches_lognormal_oracle(self):
        uni = small_universe(seed=4)
        cfg = SessionConfig(sessions=1, pool_size=4, slate_size=2, consume_top_k=1)
        state = SessionState(uni, SPEC, cfg)
        now = 5 * DAY
        consume(state, 2, [8], [now - 1 * DAY])
        rng = np.random.default_rng(11)
        # one state read, many draws: same layout as repeated observation
        b = features_of(state, 2, [8], now)[0]
        q = quality(uni, 2, 8)
        g = SPEC.g_many(b[None])[0]
        draws = q * g * np.exp(SPEC.noise_sigma * rng.standard_normal(100_000))
        expected = q * g * np.exp(SPEC.noise_sigma**2 / 2)
        assert draws.mean() == pytest.approx(expected, rel=0.01)


class TestAffinity:
    def test_share_bounded_and_accumulating(self):
        uni = small_universe(seed=6)
        cfg = SessionConfig(sessions=1, pool_size=4, slate_size=2, consume_top_k=1)
        state = SessionState(uni, SPEC, cfg)
        creator = int(uni.item_creator[0])
        same_creator = np.flatnonzero(uni.item_creator == creator)[:2]
        other = np.flatnonzero(uni.item_creator != creator)[:3]
        t = DAY
        consume(state, 0, same_creator, np.full(same_creator.size, t))
        consume(state, 0, other, np.full(other.size, 2 * DAY))
        feats = features_of(state, 0, np.concatenate([same_creator, other]), 3 * DAY)
        share = feats[:, 2]
        assert np.all(share > 0) and np.all(share <= 1)
        total = share[0] + share[same_creator.size]
        assert total <= 1.0 + 1e-12


class TestPoolsAndStreams:
    def test_sample_pool_is_sorted_unique_and_in_range(self):
        rng = np.random.default_rng(3)
        pool = sample_pool(rng, 500, 60)
        assert pool.size == 60
        assert np.all(np.diff(pool) > 0)
        assert pool.min() >= 0 and pool.max() < 500

    def test_pool_exceeding_catalog_rejected(self):
        with pytest.raises(ValueError):
            sample_pool(np.random.default_rng(0), 10, 11)

    def test_streams_identical_for_same_key(self):
        cfg = SessionConfig(sessions=2, pool_size=30, slate_size=8, consume_top_k=4)
        a = SessionStreams(9, 1, 12, 300, cfg)
        b = SessionStreams(9, 1, 12, 300, cfg)
        assert np.array_equal(a.pools, b.pools)
        assert np.array_equal(a.normals, b.normals)
        assert np.array_equal(a.exps, b.exps)

    def test_streams_differ_across_sessions(self):
        cfg = SessionConfig(sessions=2, pool_size=30, slate_size=8, consume_top_k=4)
        a = SessionStreams(9, 1, 12, 300, cfg)
        c = SessionStreams(9, 2, 12, 300, cfg)
        assert not np.array_equal(a.pools, c.pools)

    def test_skewed_pools_prefer_head_items(self):
        cfg = SessionConfig(
            sessions=1, pool_size=50, slate_size=8, consume_top_k=4, pool_skew=1.0
        )
        prior = PoolPrior.build(5000, cfg.pool_skew)
        streams = SessionStreams(1, 0, 200, 5000, cfg, prior=prior)
        assert np.median(streams.pools) < 2500 * 0.5


def sample_pool_oracle(rng, n_items, size, prior=None):
    """The ``np.unique`` over every draw so far, per round, that ``sample_pool`` replaced."""
    need = size
    chunks = []
    while True:
        n_draw = need + max(8, need // 2)
        if prior is None:
            draw = rng.integers(0, n_items, size=n_draw)
        else:
            draw = prior.draw(rng.random(n_draw))
        chunks.append(draw)
        allv = np.concatenate(chunks) if len(chunks) > 1 else draw
        uniq, first = np.unique(allv, return_index=True)
        if uniq.size >= size:
            return np.sort(allv[np.sort(first)[:size]])
        need = size - uniq.size


def dedupe_oracle(streams, pool_ints, size):
    """The sort, stable argsort and scatter that ``SessionStreams._dedupe`` replaced."""
    n_users, margin = pool_ints.shape
    sorted_vals = np.sort(pool_ints, axis=1)
    dup_sorted = np.zeros_like(pool_ints, dtype=bool)
    dup_sorted[:, 1:] = sorted_vals[:, 1:] == sorted_vals[:, :-1]
    n_unique = margin - dup_sorted.sum(axis=1)
    order = np.argsort(pool_ints, axis=1, kind="stable")
    dup_draw = np.zeros_like(dup_sorted)
    np.put_along_axis(dup_draw, order, dup_sorted, axis=1)
    keep = ~dup_draw
    sel = keep & (np.cumsum(keep, axis=1) <= size)
    pools = np.empty((n_users, size), dtype=np.int64)
    for u in range(n_users):
        if n_unique[u] >= size:
            pools[u] = pool_ints[u][sel[u]]
        else:
            rng = _user_rng(streams._seed, streams._session, u)
            pools[u] = sample_pool(rng, streams._n_items, size, prior=streams._prior)
    return np.sort(pools, axis=1)


@st.composite
def tied_keys(draw):
    """Key batches with forced ties: integer values and duplicated columns."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["integers", "duplicated", "floats"]))
    if style == "integers":
        return rng.integers(-3, 4, size=(rows, cols)).astype(np.float64)
    key = rng.standard_normal((rows, cols))
    if style == "duplicated":
        key = key[:, rng.integers(0, cols, size=cols)]
    return key


class TestKernelOracles:
    """The ordering, prior and dedupe kernels equal their plain numpy oracles."""

    @settings(max_examples=200, deadline=None)
    @given(key=tied_keys())
    def test_order_equals_stable_argsort(self, key):
        expected = np.argsort(-key, axis=1, kind="stable")
        assert np.array_equal(order_rows_by_key(key), expected)

    def test_order_takes_stable_path_on_nan_and_signed_zero(self):
        key = np.array([[1.0, np.nan, 0.5, np.nan], [0.0, -0.0, 2.0, 1.0]])
        assert np.array_equal(order_rows_by_key(key), np.argsort(-key, axis=1, kind="stable"))

    @settings(max_examples=60, deadline=None)
    @given(
        skew=st.floats(0.1, 3.0),
        n_items=st.integers(1, 50_000),
        bins=st.lists(st.integers(0, PoolPrior.BINS - 1), min_size=1, max_size=50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prior_draw_equals_searchsorted(self, skew, n_items, bins, seed):
        prior = PoolPrior.build(n_items, skew)
        u = np.concatenate([
            np.asarray(bins) / PoolPrior.BINS,  # exact bin edges
            [0.0, np.nextafter(1.0, 0.0)],
            prior.cdf[prior.cdf < 1.0][:20],  # exactly on cdf entries
            np.random.default_rng(seed).random(500),
        ])
        drawn = prior.draw(u)
        assert np.array_equal(drawn, np.searchsorted(prior.cdf, u, side="right"))
        assert drawn.min() >= 0 and drawn.max() < n_items

    def test_prior_draw_just_below_one_is_the_last_item(self):
        # the repro prior's rounded cdf ended at 0.9999999999999886, so the
        # top draws mapped to item n_items, past the catalog
        prior = PoolPrior.build(20_000, 0.8)
        assert prior.draw(np.array([np.nextafter(1.0, 0.0)]))[0] == 19_999

    def test_prior_guide_is_searchsorted_at_every_bin_edge(self):
        prior = PoolPrior.build(20_000, 0.8)
        edges = np.arange(PoolPrior.BINS + 1) / PoolPrior.BINS
        assert prior.guide.dtype == np.int32
        assert np.array_equal(prior.guide, np.searchsorted(prior.cdf, edges, side="right"))

    @settings(max_examples=80, deadline=None)
    @given(
        n_users=st.integers(1, 12),
        n_items=st.integers(1, 300),
        size_frac=st.floats(0.05, 1.0),
        spare=st.integers(1, 40),
        skew=st.sampled_from([0.0, 0.5, 1.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dedupe_equals_two_sort_oracle(self, n_users, n_items, size_frac, spare, skew, seed):
        # small catalogs leave some rows short of distinct values, which
        # sends them to the per-user fallback stream
        size = max(1, int(size_frac * n_items))
        cfg = SessionConfig(
            sessions=1, pool_size=size, slate_size=1, consume_top_k=0, pool_skew=skew
        )
        prior = PoolPrior.build(n_items, skew) if skew > 0 else None
        streams = SessionStreams(seed, 3, n_users, n_items, cfg, prior=prior)
        rng = np.random.default_rng(seed)
        pool_ints = rng.integers(0, n_items, size=(n_users, size + spare))
        deduped = streams._dedupe(pool_ints, size)
        assert deduped.dtype == np.int64
        assert np.array_equal(deduped, dedupe_oracle(streams, pool_ints, size))


    @settings(max_examples=150, deadline=None)
    @given(
        n_items=st.integers(1, 300),
        size=st.integers(0, 12),
        skew=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_pool_equals_unique_per_round_oracle(self, n_items, size, skew, seed):
        # a strong skew on a small catalog takes many rounds to fill a pool
        size = min(size, n_items)
        prior = PoolPrior.build(n_items, skew) if skew > 0 else None
        got = sample_pool(np.random.default_rng(seed), n_items, size, prior=prior)
        want = sample_pool_oracle(np.random.default_rng(seed), n_items, size, prior=prior)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


class TestStepAndConservation:
    def test_zero_consumption_leaves_state_unchanged(self):
        uni = small_universe(seed=7)
        cfg = SessionConfig(sessions=3, pool_size=20, slate_size=5, consume_top_k=0)
        res = run_arm(uni, ControlPolicy(), SPEC, cfg, seed=1)
        assert len(res.log) == 0
        assert res.item_impressions.sum() == uni.n_users * 3 * 5

    def test_conservation_users_sessions_k(self):
        uni = small_universe(seed=8)
        cfg = SessionConfig(sessions=4, pool_size=25, slate_size=8, consume_top_k=3)
        res = run_arm(uni, ControlPolicy(), SPEC, cfg, seed=2)
        assert len(res.log) == uni.n_users * 4 * 3
        assert res.item_impressions.sum() == uni.n_users * 4 * 8

    def test_pools_identical_sets_across_different_policies(self):
        uni = small_universe(seed=14)
        cfg = SessionConfig(
            sessions=4, pool_size=20, slate_size=6, consume_top_k=3, pool_skew=0.8
        )

        class Recording:
            """Wraps a policy and keeps a copy of every pool batch it ranks."""

            def __init__(self, inner):
                self.inner, self.pools = inner, []

            def rank_batch(self, pools, urps, features, item_impressions):
                self.pools.append(pools.copy())
                return self.inner.rank_batch(pools, urps, features, item_impressions)

        policies = {
            "control": Recording(ControlPolicy()),
            "log_pop": Recording(LogPopPolicy(0.4)),
            "item_centric": Recording(QuotaRerankPolicy("item", Quota(high=0.35), 6)),
        }
        with workers(1):  # the recordings live in the process that ranks
            results = arm_results(uni, policies, SPEC, cfg, seed=5)
        control, *others = policies.values()
        assert len(control.pools) == cfg.sessions
        for policy in others:
            for got, want in zip(policy.pools, control.pools, strict=True):
                assert np.array_equal(got, want)
        # the arms show different slates from the same pools
        for name in ("log_pop", "item_centric"):
            assert not np.array_equal(
                results[name].item_impressions, results["control"].item_impressions
            )

    def test_identical_policies_identical_streams(self):
        uni = small_universe(seed=9)
        cfg = SessionConfig(sessions=3, pool_size=20, slate_size=6, consume_top_k=3)
        results = arm_results(
            uni, {"a": ControlPolicy(), "b": ControlPolicy()}, SPEC, cfg, seed=3
        )
        a, b = results["a"].log, results["b"].log
        assert np.array_equal(a.urps, b.urps)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.watch_times, b.watch_times)
        assert np.array_equal(
            results["a"].user_creator_impressions, results["b"].user_creator_impressions
        )

    def test_full_run_bitwise_reproducible(self):
        uni = small_universe(seed=10)
        cfg = SessionConfig(sessions=3, pool_size=20, slate_size=6, consume_top_k=3)
        r1 = run_arm(uni, ControlPolicy(), SPEC, cfg, seed=4)
        r2 = run_arm(uni, ControlPolicy(), SPEC, cfg, seed=4)
        assert np.array_equal(r1.log.urps, r2.log.urps)
        assert np.array_equal(r1.log.features, r2.log.features)
        assert np.array_equal(r1.item_impressions, r2.item_impressions)

    def test_different_seed_different_stream(self):
        uni = small_universe(seed=10)
        cfg = SessionConfig(sessions=2, pool_size=20, slate_size=6, consume_top_k=3)
        r1 = run_arm(uni, ControlPolicy(), SPEC, cfg, seed=4)
        r2 = run_arm(uni, ControlPolicy(), SPEC, cfg, seed=5)
        assert not np.array_equal(r1.log.urps, r2.log.urps)

    def test_empty_policy_map_rejected(self):
        config_path = Path(__file__).resolve().parent.parent / "configs" / "quick.json"
        config = json.loads(config_path.read_text())
        config["arms"] = []
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(config)


LOG_COLUMNS = (
    "users", "items", "creators", "timestamps", "watch_times", "urps", "features",
    "true_quality", "inflation",
)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def log_digest(log):
    return digest(*(getattr(log, c) for c in LOG_COLUMNS))


def assert_same_result(a, b):
    for column in LOG_COLUMNS:
        x, y = getattr(a.log, column), getattr(b.log, column)
        assert x.dtype == y.dtype and np.array_equal(x, y), column
    assert np.array_equal(a.item_impressions, b.item_impressions)
    assert np.array_equal(a.user_creator_impressions, b.user_creator_impressions)


def policy_of(kind, slate_size):
    if kind == "control":
        return ControlPolicy()
    if kind == "log_pop":
        return LogPopPolicy(0.4)
    if kind == "static_boost":
        return StaticBoostPolicy(BoostRule("creator_affinity", 0.05, 1.3), SPEC.schema())
    return QuotaRerankPolicy("item", Quota(high=0.5), slate_size)


class TestPairedRunner:
    @settings(max_examples=25, deadline=None)
    @given(
        users=st.integers(1, 12),
        items=st.integers(40, 200),
        creators=st.integers(2, 12),
        sessions=st.integers(1, 3),
        pool_size=st.integers(2, 25),
        slate_frac=st.floats(0.0, 1.0),
        consume_frac=st.floats(0.0, 1.0),
        kinds=st.lists(
            st.sampled_from(["control", "log_pop", "static_boost", "item_centric"]),
            min_size=2, max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_paired_arm_equals_its_run_alone(
        self, users, items, creators, sessions, pool_size, slate_frac, consume_frac, kinds, seed,
    ):
        # the draws do not depend on the arm: stepping arms together against
        # one build of each session's draws changes no arm's result
        slate_size = max(1, round(slate_frac * pool_size))
        cfg = SessionConfig(
            sessions=sessions, pool_size=pool_size, slate_size=slate_size,
            consume_top_k=round(consume_frac * slate_size), pool_skew=0.5,
        )
        uni = Universe.build(
            UniverseConfig(users=users, items=items, creators=creators, seed=seed % 997)
        )
        policies = {f"{kind}_{i}": policy_of(kind, slate_size) for i, kind in enumerate(kinds)}
        paired = run_paired_arms(uni, policies, SPEC, cfg, seed)
        assert [r.name for r in paired] == list(policies)
        for result, kind in zip(paired, kinds):
            alone = run_arm(uni, policy_of(kind, slate_size), SPEC, cfg, seed, name=result.name)
            assert_same_result(result, alone)

    def test_pipeline_builds_session_streams_twice_per_session(self, monkeypatch, tmp_path):
        # the control arm runs alone before the fit, every other arm after it
        # against the same per-session draws
        config = json.loads(
            (Path(__file__).resolve().parent.parent / "configs" / "quick.json").read_text()
        )
        config["write_logs"] = False
        built = []
        original = SessionStreams.__init__

        def counting(self, seed, session, *args, **kwargs):
            built.append(session)
            original(self, seed, session, *args, **kwargs)

        monkeypatch.setattr(SessionStreams, "__init__", counting)
        with workers(1):  # ``built`` lives in the process that builds
            run_pipeline(config, tmp_path)
        sessions = config["session"]["sessions"]
        assert len(config["arms"]) > 2
        assert sorted(built) == sorted(list(range(sessions)) * 2)

    def test_each_worker_builds_the_sessions_after_the_first(self, monkeypatch, tmp_path):
        # session 0 is stepped before the fork; each worker then builds its
        # own draws for every later session
        record = tmp_path / "built"
        original = SessionStreams.__init__

        def counting(self, seed, session, *args, **kwargs):
            with open(record, "a") as fh:
                fh.write(f"{session}\n")
            original(self, seed, session, *args, **kwargs)

        monkeypatch.setattr(SessionStreams, "__init__", counting)
        cfg = SessionConfig(sessions=4, pool_size=15, slate_size=5, consume_top_k=2)
        policies = {f"{kind}_{i}": policy_of(kind, 5) for i, kind in enumerate(
            ["control", "log_pop", "item_centric"]
        )}
        with workers(2):
            run_paired_arms(small_universe(seed=3), policies, SPEC, cfg, seed=1)
        built = sorted(int(line) for line in record.read_text().split())
        assert built == sorted([0] + [1, 2, 3] * 2)

    KINDS = ["control", "log_pop", "static_boost", "item_centric",
             "debias_discrete", "debias_continuous"]

    @pytest.fixture(scope="class")
    def quick_artifacts(self):
        """The quick config's table and model, fitted on its control log."""
        config = json.loads(
            (Path(__file__).resolve().parent.parent / "configs" / "quick.json").read_text()
        )
        cfg = ExperimentConfig.from_dict(config)
        control = run_arm(
            build_universe(cfg), ControlPolicy(), cfg.inflation, cfg.session,
            cfg.experiment_seed,
        )
        assert cfg.schema == SPEC.schema()
        _, table, model = fit_artifacts(control.log, cfg)
        return cfg, table, model

    @settings(max_examples=25, deadline=None)
    @given(
        n_workers=st.integers(1, 4),
        users=st.integers(1, 10),
        sessions=st.integers(1, 3),
        pool_size=st.integers(2, 25),
        consume_frac=st.floats(0.0, 1.0),
        kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_workers=2, users=5, sessions=1, pool_size=10, consume_frac=0.5,
             kinds=["control", "log_pop", "item_centric"], seed=3)
    @example(n_workers=3, users=6, sessions=3, pool_size=10, consume_frac=0.0,
             kinds=["control", "log_pop", "static_boost"], seed=4)
    @example(n_workers=4, users=7, sessions=3, pool_size=12, consume_frac=0.5,
             kinds=["control", "log_pop"], seed=5)
    @example(n_workers=2, users=10, sessions=3, pool_size=25, consume_frac=0.4,
             kinds=["control", "debias_discrete", "debias_continuous"], seed=6)
    def test_any_worker_count_gives_the_serial_bits(
        self, quick_artifacts, n_workers, users, sessions, pool_size, consume_frac, kinds, seed,
    ):
        cfg_quick, table, model = quick_artifacts
        slate_size = max(1, pool_size // 2)
        cfg = SessionConfig(
            sessions=sessions, pool_size=pool_size, slate_size=slate_size,
            consume_top_k=round(consume_frac * slate_size), pool_skew=0.5,
        )
        uni = Universe.build(UniverseConfig(users=users, items=120, creators=8, seed=seed % 997))

        def policies():
            out = {}
            for i, kind in enumerate(kinds):
                if kind.startswith("debias_"):
                    out[f"{kind}_{i}"] = build_policy(
                        "debias", {"mode": kind.removeprefix("debias_")}, cfg_quick.schema,
                        slate_size, table=table, model=model, debias_config=cfg_quick.debias,
                    )
                else:
                    out[f"{kind}_{i}"] = policy_of(kind, slate_size)
            return out

        with workers(1):
            serial = run_paired_arms(uni, policies(), SPEC, cfg, seed)
        with workers(n_workers):
            forked = run_paired_arms(uni, policies(), SPEC, cfg, seed)
        assert [r.name for r in forked] == [r.name for r in serial]
        for a, b in zip(forked, serial):
            assert_same_result(a, b)
            assert log_digest(a.log) == log_digest(b.log)  # bit for bit

    def test_failed_worker_names_its_arms_and_leaves_no_child(self, monkeypatch, capfd):
        calls = []
        original = LogPopPolicy.rank_batch

        def failing(self, *args):
            calls.append(None)
            if len(calls) == 3:  # session 2: session 0 ran before the fork
                raise FloatingPointError("log_pop failed in session 2")
            return original(self, *args)

        monkeypatch.setattr(LogPopPolicy, "rank_batch", failing)
        cfg = SessionConfig(sessions=5, pool_size=15, slate_size=5, consume_top_k=2)
        policies = {"control": ControlPolicy(), "log_pop": LogPopPolicy(0.4),
                    "item_centric": policy_of("item_centric", 5)}
        with workers(2), pytest.raises(ArmWorkerError) as info:
            run_paired_arms(small_universe(seed=4), policies, SPEC, cfg, seed=2)
        assert "log_pop" in info.value.arms
        assert info.value.cause == "FloatingPointError: log_pop failed in session 2"
        assert f"arms {info.value.arms} failed: FloatingPointError" in str(info.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        err = capfd.readouterr().err
        assert "Traceback" in err and "log_pop failed in session 2" in err

    def test_worker_killed_by_a_signal_is_reported(self, monkeypatch):
        calls = []
        original = LogPopPolicy.rank_batch

        def dying(self, *args):
            calls.append(None)
            if len(calls) == 2:  # session 1, in the worker
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, *args)

        monkeypatch.setattr(LogPopPolicy, "rank_batch", dying)
        cfg = SessionConfig(sessions=3, pool_size=15, slate_size=5, consume_top_k=2)
        policies = {"control": ControlPolicy(), "log_pop": LogPopPolicy(0.4)}
        with workers(2), pytest.raises(ArmWorkerError, match="killed by signal 9") as info:
            run_paired_arms(small_universe(seed=4), policies, SPEC, cfg, seed=2)
        assert info.value.arms == ["log_pop"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_exits_0_early_is_a_failure(self, monkeypatch):
        # a clean exit status is not enough: the worker must report that it
        # stepped its arms
        calls = []
        original = LogPopPolicy.rank_batch

        def leaving(self, *args):
            calls.append(None)
            if len(calls) == 2:  # session 1, in the worker
                os._exit(0)
            return original(self, *args)

        monkeypatch.setattr(LogPopPolicy, "rank_batch", leaving)
        cfg = SessionConfig(sessions=3, pool_size=15, slate_size=5, consume_top_k=2)
        policies = {"control": ControlPolicy(), "log_pop": LogPopPolicy(0.4)}
        with workers(2), pytest.raises(ArmWorkerError, match="exit code 0") as info:
            run_paired_arms(small_universe(seed=4), policies, SPEC, cfg, seed=2)
        assert info.value.arms == ["log_pop"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_long_exception_message_arrives_whole(self, monkeypatch, capfd):
        # larger than a pipe's buffer, and multi-byte characters cross the
        # parent's read boundaries
        message = "".join(f"{i}é;" for i in range(60_000))
        assert len(message.encode()) >= 256 * 1024
        calls = []
        original = LogPopPolicy.rank_batch

        def failing(self, *args):
            calls.append(None)
            if len(calls) == 2:  # session 1, in the worker
                raise ValueError(message)
            return original(self, *args)

        monkeypatch.setattr(LogPopPolicy, "rank_batch", failing)
        cfg = SessionConfig(sessions=3, pool_size=15, slate_size=5, consume_top_k=2)
        policies = {"control": ControlPolicy(), "log_pop": LogPopPolicy(0.4),
                    "item_centric": policy_of("item_centric", 5)}
        with workers(2), pytest.raises(ArmWorkerError) as info:
            run_paired_arms(small_universe(seed=4), policies, SPEC, cfg, seed=2)
        assert "log_pop" in info.value.arms
        assert info.value.cause == f"ValueError: {message}"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        capfd.readouterr()  # the worker's traceback repeats the message

    def test_split_takes_the_longest_arm_first_to_the_lightest_share(self):
        # per-arm stepping cost (ms) of a seed-27 closed_loop arms call, in
        # config order; after 630 | 350 + 280 the loads tie, and the share
        # with fewer arms takes 250
        cost = [250, 630, 210, 200, 280, 350]
        assert simulator._split_by_cost(cost, 2) == [[0, 1], [2, 3, 4, 5]]
        assert simulator._split_by_cost(cost, 6) == [[1], [5], [4], [0], [2], [3]]
        # equal costs still give every share an arm
        assert simulator._split_by_cost([0.0] * 3, 3) == [[0], [1], [2]]

    # digests measured with the arm-by-arm runner that built every session's
    # draws once per arm (CPython 3.11.7, numpy 2.4.6, x86-64 Linux); the
    # paired runner must reproduce them exactly
    PINNED = {
        0: {
            "control": (
                "2b37b66ec918db56ad5be4c1da9cec36ed3d8333ba95d9d4bdd0e7ff4ed9eef0",
                "1947c810a6d9d6f37d578a173d6d77a346b0db09c1199737ac93a7fc72da4988",
            ),
            "log_pop": (
                "2b37b66ec918db56ad5be4c1da9cec36ed3d8333ba95d9d4bdd0e7ff4ed9eef0",
                "89c2b56e748602979bfb6f4cb33891a1b607e2b2d4c859e5057c5418d8e2e3de",
            ),
        },
        2: {
            "control": (
                "2e91f895993ae805d16226504de4e438ae08471d826b74f95f4f0e5527866528",
                "6e108a495d0f9ce1fc5f7bd46505db9ffd93714910c105308e34629dd8efc6c9",
            ),
            "log_pop": (
                "2e25d634733c726771a8f7eac822a1aab64f7ae90134705a4c357dc859b1421e",
                "be53eb4cfb6bb5c3ef98396575abfe70fc79bb572581009534241b0a259a3707",
            ),
        },
    }

    @pytest.mark.parametrize("consume_top_k", sorted(PINNED))
    def test_logs_unchanged_with_and_without_consumption(self, consume_top_k):
        uni = small_universe(seed=12)
        cfg = SessionConfig(sessions=3, pool_size=15, slate_size=5, consume_top_k=consume_top_k)
        results = run_paired_arms(
            uni, {"control": ControlPolicy(), "log_pop": LogPopPolicy(0.4)}, SPEC, cfg, seed=6
        )
        rows = uni.n_users * consume_top_k * 3
        for result in results:
            log = result.log
            assert len(log) == rows
            assert log.features.shape == (rows, SPEC.schema().arity)
            for column in ("users", "items", "creators"):
                assert getattr(log, column).dtype == np.int64
            for column in ("timestamps", "watch_times", "urps", "features",
                           "true_quality", "inflation"):
                assert getattr(log, column).dtype == np.float64
            assert (
                log_digest(log),
                digest(result.item_impressions, result.user_creator_impressions),
            ) == self.PINNED[consume_top_k][result.name]


class TestDefaultSpecPin:
    """Paired runs with every catalog feature, consumption on, over several sessions.

    The creator watch count and affinity read the creator state, and both
    quota re-rankers run with float caps (0.35 * 8 = 2.8), so a change to
    the state layout or the quota admission shows here.
    """

    UNIVERSES = {
        "u30": dict(users=30, items=300, creators=20, seed=3),
        "u12": dict(users=12, items=150, creators=6, seed=8),
        "u50": dict(users=50, items=600, creators=40, seed=21),
    }

    # the consumed logs and impressions, measured at ecead03, where this run's
    # pins from 6b7c7a1 still held; sampling candidates then left these
    # digests unchanged (CPython 3.11.7, numpy 2.4.6, x86-64 Linux)
    PINNED = {
        "u12": {
            "control": "415cbe506c1090e71e69c8781ac4277ee5754bbd71341acbadc45fbf1934c4c2",
            "log_pop": "d323e298ac0aef601af42315989d38e4556b54d66aea9400a5f0a1865b035013",
            "static_boost": "f6668e693e7ee97450b419fd1f5947c3d619fe8cf824e649eecaa4032201d982",
            "item_centric": "ea473291e0f745d37d5d3175d97fd151f8c85cdddefd8c55ae1a29814503e7bc",
            "user_centric": "1a9d0cb0bda7c00e6366339e529a0cb04f3a3acc5900ce8bd932e7231f010b34",
        },
        "u30": {
            "control": "76ec5f653cc410b38774b1f752ce3647c4df98ceaa0ff0316941ddbd6170b983",
            "log_pop": "25f891811d42c12e48b7fccdcdab7dc13d9f4debec4a6939c5e2f58984d0225a",
            "static_boost": "c12755b734cb3372f6a1ed8b8f80d50af8f4733f1f4a34c0814e578f3de5f11e",
            "item_centric": "e200450bc1226e152f8f10a0929d59356b83e08030c0b6b3d11901f4ca22efc7",
            "user_centric": "4ccb488926b61fc4d213d3846b71dab78257aa5cf3050568430e8006d880c3af",
        },
        "u50": {
            "control": "c1ed4c3f7f621ff810fabc0bf61a03a5c5532c2ab6774da833a828113a12e5fb",
            "log_pop": "bc6da7d203e35894f13d64a26cf43a17bc2402fd702c60ab9b7a8a01a7836ed6",
            "static_boost": "4b150cd47275ca4f09cce469ee265120172a41c31086908e6d0787fffc1ac3f9",
            "item_centric": "3a9e7a3b6d9b5bbb4b4b62cae9d1257cb0ccbc044a992b48d8c8d43da4918126",
            "user_centric": "4ce5c6330656ef5f64a333e2af509638700a6ff85821db503220598aacf707e0",
        },
    }

    @staticmethod
    def policies(spec, slate_size):
        schema = spec.schema()
        cuts = [np.array([0.5, 1.5, 2.5])] * schema.arity
        edges = BucketEdges(schema=schema, cuts=cuts, nominal_k=4)
        return {
            "control": ControlPolicy(),
            "log_pop": LogPopPolicy(0.3),
            "static_boost": StaticBoostPolicy(
                BoostRule("creator_watch_count", 1.0, 1.3), schema
            ),
            "item_centric": QuotaRerankPolicy("item", Quota(high=0.35), slate_size),
            "user_centric": QuotaRerankPolicy(
                "user", Quota(med=0.5, high=0.35), slate_size, edges=edges,
                feature="creator_watch_count",
            ),
        }

    @pytest.mark.parametrize("universe", sorted(UNIVERSES))
    def test_default_spec_runs_unchanged(self, universe):
        spec = InflationSpec.default()
        uni = Universe.build(UniverseConfig(**self.UNIVERSES[universe]))
        cfg = SessionConfig(
            sessions=5, pool_size=24, slate_size=8, consume_top_k=4, pool_skew=0.6,
            wt_familiarity_weight=0.5,
        )
        results = run_paired_arms(uni, self.policies(spec, 8), spec, cfg, seed=17)
        got = {
            r.name: digest(
                *(getattr(r.log, c) for c in LOG_COLUMNS),
                r.item_impressions,
                r.user_creator_impressions,
            )
            for r in results
        }
        assert got == self.PINNED[universe]


class TestAmplification:
    def test_familiar_share_rises_across_quartiles_under_control(self):
        # growth phase of the loop: history accrues, so familiar availability
        # and with it the consumed familiar share keep climbing
        uni = Universe.build(UniverseConfig(users=400, items=4000, creators=120, seed=41))
        cfg = SessionConfig(
            sessions=16, pool_size=100, slate_size=14, consume_top_k=7, pool_skew=0.8
        )
        res = run_arm(uni, ControlPolicy(), SPEC, cfg, seed=42)
        shares = familiar_share_by_time_quartile(res.log, window_days=14.0)
        assert np.all(np.diff(shares) > 0), shares


class TestExperimentReportSurface:
    def test_three_arms_give_three_delta_rows_with_zero_control(self):
        uni = small_universe(seed=51)
        cfg = SessionConfig(sessions=5, pool_size=30, slate_size=8, consume_top_k=4)
        policies = {
            "control": ControlPolicy(),
            "alt_a": ControlPolicy(),
            "alt_b": ControlPolicy(),
        }
        results = arm_results(uni, policies, SPEC, cfg, seed=52)
        report = experiment_report(
            {n: (r.log, r.user_creator_impressions) for n, r in results.items()},
            recent_flags=uni.creator_recent, replicates=50, seed=53,
        )
        assert set(results) == {"control", "alt_a", "alt_b"}
        assert set(report.deltas) == {"control", "alt_a", "alt_b"}
        for ci in report.deltas["control"].values():
            assert ci.point == 0.0 and ci.lo == 0.0 and ci.hi == 0.0

    def test_debias_arm_cuts_familiar_share_on_seeded_run(self):
        from famdebias.bucketizer import fit_edges, fit_table
        from famdebias.debias import DebiasConfig
        from famdebias.policies import DebiasPolicy

        uni = Universe.build(UniverseConfig(users=300, items=3000, creators=100, seed=55))
        spec = InflationSpec(
            features=(
                FeatureSpec("item_watch_count", "count", 0.5),
                FeatureSpec("days_since_last_watch", "recency", 0.35),
                FeatureSpec("creator_affinity", "affinity", 0.0),
            ),
            noise_sigma=0.2,
        )
        cfg = SessionConfig(sessions=20, pool_size=100, slate_size=14,
                            consume_top_k=7, pool_skew=0.8)
        warm = run_arm(uni, ControlPolicy(), spec, cfg, seed=56)
        edges = fit_edges(warm.log, spec.schema(), k=5)
        table = fit_table(warm.log, edges, 10.0, (0.5, 2.0), min_cell_count=25)
        policies = {
            "control": ControlPolicy(),
            "treated": DebiasPolicy(table, DebiasConfig()),
        }
        results = arm_results(uni, policies, spec, cfg, seed=56)
        report = experiment_report(
            {n: (r.log, r.user_creator_impressions) for n, r in results.items()},
            recent_flags=uni.creator_recent, replicates=300, seed=57,
        )
        fam = report.deltas["treated"]["familiar_wt_share"]
        nov = report.deltas["treated"]["novel_wt_share"]
        assert fam.point < 0 and fam.hi < 0
        assert nov.point > 0 and nov.lo > 0


class TestSyntheticSampler:
    def test_conditional_mean_identity(self):
        uni = small_universe(seed=20, users=200, items=2000)
        log = synthetic_training_log(uni, SPEC, n=60_000, seed=21)
        expected = log.true_quality.mean() * log.inflation * np.exp(
            SPEC.noise_sigma**2 / 2
        )
        # aggregate identity: mean urps over draws matches the oracle mean
        assert log.urps.mean() == pytest.approx(expected.mean(), rel=0.02)
        assert log.true_quality is not None and log.inflation is not None

    def test_fixed_quality_mode(self):
        uni = small_universe(seed=22)
        log = synthetic_training_log(uni, SPEC, n=500, seed=23, fixed_quality=2.0)
        assert np.all(log.true_quality == 2.0)

    def test_familiarity_independent_of_quality(self):
        uni = small_universe(seed=24, users=300, items=3000)
        log = synthetic_training_log(uni, SPEC, n=50_000, seed=25)
        corr = np.corrcoef(log.features[:, 0], log.true_quality)[0, 1]
        assert abs(corr) < 0.02
