"""Score correction, slate ranking, and decorrelation."""

import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from famdebias.bucketizer import fit_edges, fit_table
from famdebias.cli import main
from famdebias.core import FeatureSchema, InteractionLog
from famdebias.debias import (
    MODES,
    DebiasConfig,
    debias_log,
    debias_scores,
    factor_source,
    residual_correlation,
)
from famdebias.estimator import TrainConfig, train_xy
from famdebias.policies import DebiasPolicy
from famdebias.simulator import (
    ControlPolicy,
    FeatureSpec,
    InflationSpec,
    SessionConfig,
    Universe,
    UniverseConfig,
    run_arm,
    run_paired_arms,
)

from synthetic_log import synthetic_training_log

SCHEMA_1 = FeatureSchema(
    names=("x",), kinds=("count",), monotonicity=("increasing-with-familiarity",)
)


def make_log(features, urps, schema=SCHEMA_1):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    n = features.shape[0]
    return InteractionLog(
        schema=schema,
        users=np.zeros(n, dtype=np.int64),
        items=np.arange(n, dtype=np.int64),
        creators=np.zeros(n, dtype=np.int64),
        timestamps=np.arange(1, n + 1, dtype=np.float64),
        watch_times=np.ones(n),
        urps=np.asarray(urps, dtype=np.float64),
        features=features,
    )


def debias_one(s, adj, config, reference_mean=1.0):
    """Corrected score of a single (score, factor) pair."""
    (out,) = debias_scores(np.array([s]), np.array([adj]), config, reference_mean)
    return float(out)


class TestDebiasScore:
    def test_hand_arithmetic(self):
        cfg = DebiasConfig(floor=1e-9, strength=1.0)
        assert debias_one(3.0, 1.5, cfg) == pytest.approx(2.0)

    def test_uninformative_divisor_preserves_ranking(self):
        cfg = DebiasConfig(floor=1e-9)
        scores = np.array([4.0, 2.5, 1.0, 3.3])
        debiased = debias_scores(scores, np.full(4, 1.7), cfg)
        assert np.argsort(debiased).tolist() == np.argsort(scores).tolist()

    def test_strength_zero_is_identity(self):
        cfg = DebiasConfig(floor=0.5, strength=0.0)
        assert debias_one(3.0, 42.0, cfg) == 3.0

    def test_floor_prevents_explosion(self):
        cfg = DebiasConfig(floor=0.1)
        assert debias_one(2.0, 1e-12, cfg) == pytest.approx(20.0)

    def test_default_floor_scales_with_reference_mean(self):
        cfg = DebiasConfig()
        assert cfg.effective_floor(10.0) == pytest.approx(0.5)
        assert debias_one(2.0, 1e-9, cfg, reference_mean=10.0) == pytest.approx(4.0)

    def test_non_positive_inputs_rejected(self):
        cfg = DebiasConfig()
        with pytest.raises(ValueError):
            debias_one(0.0, 1.0, cfg)
        with pytest.raises(ValueError):
            debias_one(1.0, -2.0, cfg)

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError):
            debias_scores(np.array([1.0, np.nan]), np.array([1.0, 1.0]), DebiasConfig())

    def test_nan_factor_rejected(self):
        with pytest.raises(ValueError):
            debias_scores(np.array([1.0, 1.0]), np.array([np.nan, 1.0]), DebiasConfig())

    def test_continuous_policy_rejects_nan_feature(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 5.0, size=(200, 1))
        targets = 1.0 + 0.2 * x[:, 0]
        model = train_xy(x, targets, SCHEMA_1, TrainConfig(max_epochs=2, batch_size=16))
        policy = DebiasPolicy(model, DebiasConfig())
        features = np.array([[[1.0], [np.nan], [3.0]]])
        pools = np.array([[0, 1, 2]])
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            policy.rank_batch(pools, np.ones((1, 3)), features, None)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DebiasConfig(strength=1.5)
        with pytest.raises(ValueError):
            DebiasConfig(floor=-1.0)


def rank_slate_file(tmp_path, table, rows, strength=1.0):
    """Rank slate rows (item, urps, x, signals) with ``famdebias debias``."""
    table_path, slate_path, out_path = (
        tmp_path / "table.json", tmp_path / "slate.jsonl", tmp_path / "ranked.jsonl"
    )
    table.save(table_path)
    with open(slate_path, "w") as fh:
        for item, urps, x, signals in rows:
            fh.write(json.dumps({
                "item_id": item, "creator_id": "c", "urps": urps,
                "familiarity": {"x": x}, "quality_signals": signals,
            }) + "\n")
    assert main([
        "debias", "--mode", "discrete", "--table", str(table_path),
        "--strength", str(strength), "--in", str(slate_path), "--out", str(out_path),
    ]) == 0
    return [json.loads(line) for line in out_path.read_text().splitlines()]


class TestNonFiniteSlate:
    def test_discrete_policy_rejects_nan_feature(self):
        table = fit_simple_table({0.0: (1.0, 50), 5.0: (2.0, 50)})
        feats = np.array([[[0.0], [np.nan], [5.0]]])
        with pytest.raises(ValueError, match=r"feature 'x'.*row 1"):
            DebiasPolicy(table, DebiasConfig()).rank_batch(None, np.ones((1, 3)), feats, None)

    def test_discrete_cli_exits_2_on_nan_feature(self, tmp_path):
        table = fit_simple_table({0.0: (1.0, 50), 5.0: (2.0, 50)})
        table_path, slate_path = tmp_path / "table.json", tmp_path / "slate.jsonl"
        table.save(table_path)
        slate_path.write_text(
            '{"item_id": "a", "creator_id": "c", "urps": 2.0, "familiarity": {"x": 1.0}}\n'
            '{"item_id": "b", "creator_id": "c", "urps": 3.0, "familiarity": {"x": NaN}}\n'
        )
        out_path = tmp_path / "ranked.jsonl"
        assert main([
            "debias", "--mode", "discrete", "--table", str(table_path),
            "--in", str(slate_path), "--out", str(out_path),
        ]) == 2
        assert not out_path.exists()


class TestRankScore:
    def test_score_only_reduces_to_debiased_score(self, tmp_path):
        table = fit_simple_table({0.0: (1.0, 50), 5.0: (2.0, 50)})
        ranked = rank_slate_file(tmp_path, table, [("a", 4.0, 5.0, {}), ("b", 3.0, 0.0, {})])
        assert [r["final_score"] for r in ranked] == [r["debiased_score"] for r in ranked]
        assert [r["debiased_score"] for r in ranked] == pytest.approx([3.0, 2.0])

    def test_common_signal_scaling_keeps_argmax(self, tmp_path):
        # quality signals are passed through unchanged and carry no weight
        table = fit_simple_table({0.0: (1.0, 50), 5.0: (2.0, 50)})
        rows = [("a", 4.0, 5.0, {"q": 1.0}), ("b", 3.0, 0.0, {"q": 3.0})]
        base = rank_slate_file(tmp_path, table, rows)
        scaled_rows = [(i, s, x, {"q": q["q"] * 13.7}) for i, s, x, q in rows]
        scaled = rank_slate_file(tmp_path, table, scaled_rows)
        assert [r["item_id"] for r in base] == [r["item_id"] for r in scaled] == ["b", "a"]
        assert [r["quality_signals"]["q"] for r in scaled] == [3.0 * 13.7, 13.7]


def fit_simple_table(cell_means: dict):
    """One count feature, cells {0} and {>=1} with chosen means."""
    feats, urps = [], []
    for value, (mean, n) in cell_means.items():
        feats += [value] * n
        urps += [mean] * n
    log = make_log(feats, urps)
    edges = fit_edges(log, SCHEMA_1, k=2)
    return fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None,
                     min_cell_count=1)


def rank_one_slate(table, spec, config):
    """(order, debiased scores) of one (item, urps, x) slate under DebiasPolicy."""
    urps = np.array([[s for _, s, _ in spec]], dtype=np.float64)
    feats = np.array([[[b] for _, _, b in spec]], dtype=np.float64).reshape(1, len(spec), 1)
    order = DebiasPolicy(table, config).rank_batch(None, urps, feats, None)[0]
    factors_of, ref_mean = factor_source(table)
    debiased = debias_scores(urps[0], factors_of(feats[0]), config, ref_mean)
    return [spec[i][0] for i in order.tolist()], debiased


class TestDebiasSlate:
    def test_same_cell_keeps_relative_order(self):
        table = fit_simple_table({0.0: (2.0, 50), 5.0: (4.0, 50)})
        order, _ = rank_one_slate(table, [("a", 4.0, 0.0), ("b", 2.0, 0.0)],
                                  DebiasConfig(floor=1e-9))
        assert order == ["a", "b"]

    def test_cross_cell_order_can_flip(self):
        table = fit_simple_table({0.0: (1.0, 50), 5.0: (2.0, 50)})
        order, debiased = rank_one_slate(table, [("a", 4.0, 5.0), ("b", 2.5, 0.0)],
                                         DebiasConfig(floor=1e-9))
        assert order == ["b", "a"]
        assert debiased.tolist() == pytest.approx([2.0, 2.5])

    def test_empty_slate(self, tmp_path):
        table = fit_simple_table({0.0: (1.0, 5)})
        assert rank_slate_file(tmp_path, table, []) == []

    def test_tie_break_is_lexicographic_on_item_id(self, tmp_path):
        table = fit_simple_table({0.0: (1.0, 50)})
        ranked = rank_slate_file(
            tmp_path, table, [("z", 2.0, 0.0, {}), ("a", 2.0, 0.0, {}), ("m", 2.0, 0.0, {})]
        )
        assert [r["item_id"] for r in ranked] == ["a", "m", "z"]

    def test_strength_zero_reproduces_raw_ranking(self):
        table = fit_simple_table({0.0: (1.0, 50), 5.0: (3.0, 50)})
        order, debiased = rank_one_slate(
            table, [("a", 4.0, 5.0), ("b", 2.5, 0.0), ("c", 3.0, 5.0)],
            DebiasConfig(strength=0.0),
        )
        assert order == ["a", "c", "b"]
        assert debiased.tolist() == [4.0, 2.5, 3.0]

    def test_rank_score_continuous_in_strength(self):
        table = fit_simple_table({0.0: (1.0, 50), 5.0: (3.0, 50)})

        def final_at(lam, steps):
            outs = []
            for v in np.linspace(0.0, lam, steps):
                config = DebiasConfig(floor=1e-9, strength=float(v))
                _, debiased = rank_one_slate(table, [("a", 4.0, 5.0)], config)
                outs.append(debiased[0])
            return np.asarray(outs)

        coarse = final_at(1.0, 11)
        fine = final_at(1.0, 101)
        # refining the grid shrinks the largest jump: no discontinuity
        assert np.abs(np.diff(fine)).max() < 0.2 * np.abs(np.diff(coarse)).max()
        assert coarse[0] == pytest.approx(4.0)
        assert coarse[-1] == pytest.approx(4.0 / 3.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 100.0, allow_nan=False),
                st.integers(0, 4),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_within_cell_order_preserved_any_slate(self, rows):
        rng = np.random.default_rng(0)
        feats = rng.integers(0, 5, 500).astype(float)
        log = make_log(feats, rng.uniform(0.5, 3.0, 500))
        edges = fit_edges(log, SCHEMA_1, k=3)
        table = fit_table(log, edges, 1.0, (0.5, 2.0), min_cell_count=5)
        spec = [(k, s, float(b)) for k, (s, b) in enumerate(rows)]
        order, debiased = rank_one_slate(table, spec, DebiasConfig())
        position = {k: pos for pos, k in enumerate(order)}
        cells = edges.cell_codes(np.array([[b] for _, _, b in spec]))
        for a, sa, _ in spec:
            for b, sb, _ in spec:
                if a == b or cells[a] != cells[b]:
                    continue
                assert np.sign(sa - sb) == pytest.approx(np.sign(debiased[a] - debiased[b]))
                if sa > sb:
                    assert position[a] < position[b]


class TestMeanOnePerCell:
    def test_populated_cells_average_to_one(self):
        rng = np.random.default_rng(19)
        feats = rng.integers(0, 8, 20000).astype(float)
        urps = rng.lognormal(0.3, 0.7, 20000) * (1.0 + 0.2 * feats)
        log = make_log(feats, urps)
        edges = fit_edges(log, SCHEMA_1, k=4)
        table = fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None,
                          min_cell_count=50)
        debiased, _ = debias_log(log, table, DebiasConfig(floor=1e-12))
        cells = edges.cell_codes(log.features)
        for cell in np.unique(cells):
            sel = cells == cell
            assert abs(debiased[sel].mean() - 1.0) <= 1e-9


SIM_SPEC = InflationSpec(
    features=(
        FeatureSpec("item_watch_count", "count", 0.6),
        FeatureSpec("days_since_last_watch", "recency", 0.4),
        FeatureSpec("creator_affinity", "affinity", 0.3),
    ),
    noise_sigma=0.2,
)

small_universes = st.fixed_dictionaries({
    "users": st.integers(2, 12),
    "items": st.integers(40, 200),
    "creators": st.integers(2, 12),
    "sessions": st.integers(2, 4),
    "seed": st.integers(0, 2**32 - 1),
})


def small_run(users, items, creators, sessions, seed):
    """(universe, session config, control log) of a random small closed loop."""
    uni = Universe.build(
        UniverseConfig(users=users, items=items, creators=creators, seed=seed % 997)
    )
    cfg = SessionConfig(sessions=sessions, pool_size=20, slate_size=8, consume_top_k=4)
    return uni, cfg, run_arm(uni, ControlPolicy(), SIM_SPEC, cfg, seed).log


class TestPaperInvariants:
    @settings(max_examples=30, deadline=None)
    @given(universe=small_universes, k=st.integers(2, 6))
    def test_exact_factors_give_mean_one_per_cell_and_keep_cell_order(self, universe, k):
        _, _, log = small_run(**universe)
        edges = fit_edges(log, SIM_SPEC.schema(), k=k)
        exact = fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None,
                          min_cell_count=0)
        debiased, _ = debias_log(log, exact, DebiasConfig(floor=1e-12))
        codes = edges.cell_codes(log.features)
        sums = np.bincount(codes, weights=debiased)
        counts = np.bincount(codes)
        populated = counts > 0
        assert np.abs(sums[populated] / counts[populated] - 1.0).max() <= 1e-9
        # within a cell, a higher raw score never gets a lower corrected score
        order = np.lexsort((log.urps, codes))
        same_cell = codes[order][1:] == codes[order][:-1]
        raw, corrected = log.urps[order], debiased[order]
        rises = same_cell & (raw[1:] > raw[:-1])
        assert np.all(corrected[1:][rises] >= corrected[:-1][rises])

    @settings(max_examples=15, deadline=None)
    @given(universe=small_universes, floor_fraction=st.floats(1e-3, 100.0))
    def test_strength_zero_is_the_identity_in_both_modes(self, universe, floor_fraction):
        uni, cfg, log = small_run(**universe)
        schema = SIM_SPEC.schema()
        table = fit_table(log, fit_edges(log, schema, k=3), 10.0, (0.5, 2.0), min_cell_count=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_xy(log.features, log.urps, schema,
                             TrainConfig(max_epochs=2, batch_size=16))
        artifacts = {"discrete": table, "continuous": model}
        policies = {"control": ControlPolicy()}
        for mode in MODES:
            config = DebiasConfig(floor_fraction=floor_fraction, strength=0.0)
            debiased, _ = debias_log(log, artifacts[mode], config)
            assert np.array_equal(debiased, log.urps)
            policies[mode] = DebiasPolicy(artifacts[mode], config)
        control, *treated = run_paired_arms(uni, policies, SIM_SPEC, cfg, universe["seed"])
        for result in treated:
            for column in ("users", "items", "timestamps", "watch_times", "urps", "features"):
                assert np.array_equal(getattr(result.log, column), getattr(control.log, column))
            assert np.array_equal(result.item_impressions, control.item_impressions)


@functools.cache
def default_spec_table():
    """(table, log): a table fitted like the configs' on a synthetic three-feature log."""
    spec = InflationSpec.default()
    uni = Universe.build(UniverseConfig(users=20, items=200, creators=10, seed=3))
    log = synthetic_training_log(uni, spec, n=4000, seed=4)
    edges = fit_edges(log, spec.schema(), k=5)
    return fit_table(log, edges, 10.0, (0.5, 2.0), min_cell_count=50), log


class TestRowCountIndependence:
    # a discrete request's order does not depend on how many rows or requests
    # share its call; the continuous mode's forward pass does not promise this
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 300),
        requests=st.integers(2, 5),
        tied=st.booleans(),
        strength=st.sampled_from([1.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(size=1, requests=3, tied=False, strength=1.0, seed=0)
    @example(size=5, requests=4, tied=True, strength=1.0, seed=1)
    @example(size=299, requests=2, tied=False, strength=0.5, seed=2)
    def test_discrete_request_ranks_alone_as_in_a_batch(
        self, size, requests, tied, strength, seed
    ):
        table, log = default_spec_table()
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, len(log), (requests, size))
        # drawn from 40 distinct scores, most requests hold ties
        urps = rng.choice(log.urps[:40], rows.shape) if tied else log.urps[rows]
        features = log.features[rows]
        pools = np.tile(np.arange(size), (requests, 1))
        policy = DebiasPolicy(table, DebiasConfig(strength=strength))
        batched = policy.rank_batch(pools, urps, features, None)
        for i in range(requests):
            alone = policy.rank_batch(pools[i : i + 1], urps[i : i + 1], features[i : i + 1], None)
            assert np.array_equal(alone[0], batched[i])


class TestResidualCorrelation:
    def test_independent_score_gives_near_zero_both_sides(self):
        rng = np.random.default_rng(23)
        n = 20000
        feats = rng.integers(0, 6, n).astype(float)
        urps = rng.lognormal(0.0, 0.4, n)
        log = make_log(feats, urps)
        edges = fit_edges(log, SCHEMA_1, k=3)
        table = fit_table(log, edges, 0.0, None, min_cell_count=1)
        rows = residual_correlation(log, table, DebiasConfig())
        bound = 3.0 / np.sqrt(n)
        assert abs(rows[0].before) < bound
        assert abs(rows[0].after) < bound

    def test_simulator_inflation_strongly_attenuated(self):
        uni = Universe.build(UniverseConfig(users=300, items=3000, creators=80, seed=31))
        spec = InflationSpec(
            features=(
                FeatureSpec("item_watch_count", "count", 0.5),
                FeatureSpec("days_since_last_watch", "recency", 0.35),
                FeatureSpec("creator_affinity", "affinity", 0.0),
            ),
            noise_sigma=0.2,
        )
        cfg = SessionConfig(sessions=25, pool_size=100, slate_size=14,
                            consume_top_k=7, pool_skew=0.8)
        res = run_arm(uni, ControlPolicy(), spec, cfg, seed=32)
        edges = fit_edges(res.log, spec.schema(), k=5)
        table = fit_table(res.log, edges, 10.0, (0.5, 2.0), min_cell_count=30)
        rows = residual_correlation(res.log, table, DebiasConfig())
        by_name = {r.name: r for r in rows}
        for name in ("item_watch_count", "days_since_last_watch"):
            assert by_name[name].attenuation < 0.25

    def test_two_point_log_flagged_low_sample(self):
        log = make_log([0.0, 5.0], [1.0, 3.0])
        edges = fit_edges(log, SCHEMA_1, k=2)
        table = fit_table(log, edges, 0.0, None, min_cell_count=1)
        rows = residual_correlation(log, table, DebiasConfig())
        assert "low_sample" in rows[0].flags
        assert abs(abs(rows[0].before) - 1.0) < 1e-9

    def test_constant_feature_flagged_not_crashed(self):
        log = make_log([2.0] * 50, np.linspace(1, 2, 50))
        edges = fit_edges(log, SCHEMA_1, k=2)
        table = fit_table(log, edges, 0.0, None, min_cell_count=1)
        rows = residual_correlation(log, table, DebiasConfig())
        assert "constant" in rows[0].flags
        assert np.isnan(rows[0].before)

    def test_single_record_rejected(self):
        log = make_log([1.0], [1.0])
        edges = fit_edges(log, SCHEMA_1, k=2)
        table = fit_table(log, edges, 1.0, None, min_cell_count=50)
        with pytest.raises(ValueError):
            residual_correlation(log, table, DebiasConfig())
