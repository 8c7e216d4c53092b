"""Quantile edges, adjustment-table fitting, and back-off lookup."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famdebias.bucketizer import (
    AdjustmentTable,
    BucketEdges,
    fit_edges,
    fit_table,
    lookup_many,
    quantile_cuts,
)
from famdebias.core import FeatureSchema, InteractionLog
from famdebias.simulator import InflationSpec, Universe, UniverseConfig

from synthetic_log import synthetic_training_log

SCHEMA_1 = FeatureSchema(
    names=("x",), kinds=("count",), monotonicity=("increasing-with-familiarity",)
)
SCHEMA_2 = FeatureSchema(
    names=("x", "y"),
    kinds=("count", "affinity"),
    monotonicity=("increasing-with-familiarity", "increasing-with-familiarity"),
)


def cell_of(vector, edges):
    """Multi-index of the bucket cell holding one familiarity vector."""
    (code,) = edges.cell_codes(np.asarray([vector], dtype=np.float64))
    return tuple(int(i) for i in np.unravel_index(code, edges.dims))


def factor_of(table, vector):
    """Looked-up factor of one familiarity vector (a one-row batch)."""
    (factor,) = lookup_many(table, np.asarray([vector], dtype=np.float64))
    return float(factor)


def make_log(features, urps, schema):
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


class TestQuantileCuts:
    def test_uniform_1_to_100_five_buckets(self):
        values = np.arange(1.0, 101.0)
        cuts, constant = quantile_cuts(values, 5)
        assert not constant
        # cuts land just above the 20/40/60/80 quantiles
        assert np.allclose(cuts, [21, 41, 61, 81])
        bucket = np.searchsorted(cuts, values, side="right")
        assert np.bincount(bucket, minlength=5).tolist() == [20, 20, 20, 20, 20]

    def test_constant_feature_single_bucket(self):
        cuts, constant = quantile_cuts(np.full(50, 7.0), 5)
        assert constant and cuts.size == 0

    def test_tied_values_collapse(self):
        values = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 3.0])
        cuts, constant = quantile_cuts(values, 3)
        assert not constant
        assert cuts.size + 1 <= 3
        # assignment stays total
        bucket = np.searchsorted(cuts, values, side="right")
        assert bucket.min() >= 0 and bucket.max() <= cuts.size

    def test_zero_inflated_counts_split_zero_from_positive(self):
        rng = np.random.default_rng(3)
        values = np.where(rng.random(1000) < 0.9, 0.0, rng.integers(1, 9, 1000)).astype(float)
        cuts, _ = quantile_cuts(values, 5)
        bucket = np.searchsorted(cuts, values, side="right")
        assert set(bucket[values == 0]) == {0}
        assert 0 not in set(bucket[values > 0])

    def test_balance_on_tie_free_data(self):
        rng = np.random.default_rng(1)
        for n, k in ((100, 5), (97, 4), (1000, 7), (23, 3)):
            values = rng.standard_normal(n)
            cuts, _ = quantile_cuts(values, k)
            counts = np.bincount(
                np.searchsorted(cuts, values, side="right"), minlength=k
            )
            assert counts.min() >= n // k - 1
            assert counts.max() <= -(-n // k) + 1

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60),
        k=st.integers(2, 10),
    )
    def test_no_bucket_is_empty(self, values, k):
        # calibration and shift rows rely on it: every cut is a data value
        # above the minimum, so each of the cuts.size + 1 buckets holds a value
        values = np.asarray(values)
        cuts, _ = quantile_cuts(values, k)
        counts = np.bincount(np.searchsorted(cuts, values, side="right"), minlength=cuts.size + 1)
        assert counts.size == cuts.size + 1 and counts.min() > 0

    def test_empty_and_bad_k(self):
        with pytest.raises(ValueError):
            quantile_cuts(np.array([]), 3)
        with pytest.raises(ValueError):
            quantile_cuts(np.array([1.0]), 1)


class TestAssignCell:
    def edges(self):
        return BucketEdges(
            schema=SCHEMA_2,
            cuts=[np.array([20.0, 40.0]), np.array([2.0, 5.0])],
            nominal_k=3,
        )

    def test_below_first_cut(self):
        assert cell_of((5.0, 0.0), self.edges()) == (0, 0)

    def test_value_equal_to_cut_goes_up(self):
        assert cell_of((20.0, 0.0), self.edges())[0] == 1

    def test_two_feature_cell(self):
        assert cell_of((25.0, 3.0), self.edges()) == (1, 1)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match=r"\(n, arity\) with arity 2"):
            self.edges().cell_codes(np.array([[1.0, 2.0, 3.0]]))

    def test_one_vector_is_not_a_batch(self):
        # a single familiarity vector must come as a (1, arity) batch
        with pytest.raises(ValueError, match=r"\(n, arity\)"):
            self.edges().cell_codes(np.array([25.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected_with_name_and_first_row(self, bad):
        feats = np.array([[5.0, 0.0], [25.0, 3.0], [25.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match=r"feature 'y'.*row 2"):
            self.edges().cell_codes(feats)

    def test_nan_lookup_rejected_instead_of_top_bucket(self):
        log = make_log(
            np.column_stack([np.arange(40.0), np.arange(40.0) % 7]), np.ones(40), SCHEMA_2
        )
        table = fit_table(log, fit_edges(log, SCHEMA_2, k=3), 10.0, (0.5, 2.0), min_cell_count=1)
        with pytest.raises(ValueError, match=r"feature 'x'.*row 0"):
            lookup_many(table, np.array([[np.nan, 1.0]]))

    def test_fit_edges_records_constant_features(self):
        log = make_log(
            np.column_stack([np.arange(40.0), np.full(40, 3.3)]),
            np.ones(40),
            SCHEMA_2,
        )
        edges = fit_edges(log, SCHEMA_2, k=4)
        assert edges.constant_features == ("y",)
        assert edges.dims[1] == 1


class TestFitTable:
    def test_cell_factor_is_exact_mean_without_guardrails(self):
        log = make_log([0.0, 0.0, 0.0, 9.0], [2.0, 2.0, 2.0, 8.0], SCHEMA_1)
        edges = fit_edges(log, SCHEMA_1, k=2)
        table = fit_table(
            log, edges, smoothing_prior_weight=0.0, clip_bounds=None, min_cell_count=0
        )
        assert factor_of(table, [0.0]) == pytest.approx(2.0, abs=0)

    def test_empty_cell_with_prior_returns_global_mean(self):
        log = make_log([0.0, 0.0, 9.0], [2.0, 2.0, 5.0], SCHEMA_1)
        edges = BucketEdges(schema=SCHEMA_1, cuts=[np.array([5.0, 8.0])], nominal_k=3)
        table = fit_table(
            log, edges, smoothing_prior_weight=1.0, clip_bounds=None, min_cell_count=0
        )
        gm = table.global_mean
        # middle bucket (5 <= x < 8) saw no data: prior-only factor
        assert cell_of([6.0], edges) == (1,) and table.counts[1] == 0
        assert factor_of(table, [6.0]) == pytest.approx(gm)

    def test_clip_bounds_cap_extreme_cells(self):
        log = make_log([0.0] * 10 + [9.0], [1.0] * 10 + [100.0], SCHEMA_1)
        edges = fit_edges(log, SCHEMA_1, k=2)
        table = fit_table(
            log, edges, smoothing_prior_weight=0.0, clip_bounds=(0.5, 2.0), min_cell_count=0
        )
        gm = table.global_mean
        assert factor_of(table, [9.0]) == pytest.approx(2.0 * gm)
        assert np.all(table.factors >= 0.5 * gm - 1e-12)
        assert np.all(table.factors <= 2.0 * gm + 1e-12)

    def test_smoothing_shrinks_toward_global_mean(self):
        log = make_log([0.0, 0.0, 9.0, 9.0], [1.0, 1.0, 3.0, 3.0], SCHEMA_1)
        edges = fit_edges(log, SCHEMA_1, k=2)
        raw = fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None, min_cell_count=0)
        smoothed = fit_table(
            log, edges, smoothing_prior_weight=10.0, clip_bounds=None, min_cell_count=0
        )
        gm = raw.global_mean
        assert abs(factor_of(smoothed, [0.0]) - gm) < abs(factor_of(raw, [0.0]) - gm)

    def test_empty_log_rejected(self):
        log = make_log(np.zeros((0, 1)), [], SCHEMA_1)
        with pytest.raises(ValueError):
            fit_edges(log, SCHEMA_1, 3)

    def test_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        log = make_log(rng.integers(0, 6, 500).astype(float), rng.uniform(1, 3, 500), SCHEMA_1)
        edges = fit_edges(log, SCHEMA_1, k=3)
        table = fit_table(log, edges, 2.0, (0.5, 2.0), min_cell_count=5)
        path = tmp_path / "table.json"
        table.save(path)
        back = AdjustmentTable.load(path)
        assert np.array_equal(back.factors, table.factors)
        assert np.array_equal(back.counts, table.counts)
        queries = rng.uniform(-1, 8, size=(50, 1))
        assert np.array_equal(lookup_many(back, queries), lookup_many(table, queries))

    def test_schema_digest_checked_on_load(self):
        log = make_log(np.arange(40.0), np.ones(40), SCHEMA_1)
        table = fit_table(log, fit_edges(log, SCHEMA_1, k=2), 2.0, None, min_cell_count=5)
        d = table.to_dict()
        assert AdjustmentTable.from_dict(d).schema_digest == SCHEMA_1.digest()
        d["schema_digest"] = SCHEMA_2.digest()
        with pytest.raises(ValueError, match="schema digest"):
            AdjustmentTable.from_dict(d)
        d["schema_digest"] = ""
        assert AdjustmentTable.from_dict(d).schema_digest == ""


def _manual_table(marginal_factors, marginal_counts, gm=1.0, cells=()):
    """Two-feature table for exercising the back-off chain.

    Each of ``cells`` is (vector, factor, count) for the cell holding the
    vector; every other cell is empty.
    """
    schema = SCHEMA_2
    edges = BucketEdges(
        schema=schema, cuts=[np.array([1.0]), np.array([1.0])], nominal_k=2
    )
    factors, counts = np.full(4, gm), np.zeros(4, dtype=np.int64)
    for vector, factor, count in cells:
        code = np.ravel_multi_index(cell_of(vector, edges), edges.dims)
        factors[code], counts[code] = factor, count
    return AdjustmentTable(
        edges=edges,
        global_mean=gm,
        smoothing_prior_weight=0.0,
        clip_bounds=None,
        factors=factors,
        counts=counts,
        marginal_factors=[np.asarray(m, dtype=np.float64) for m in marginal_factors],
        marginal_counts=[np.asarray(c, dtype=np.int64) for c in marginal_counts],
        min_cell_count=10,
    )


class TestFitRejectsBadLogs:
    SPEC = InflationSpec.default()

    @pytest.fixture
    def log(self):
        uni = Universe.build(UniverseConfig(users=20, items=200, creators=10, seed=3))
        return synthetic_training_log(uni, self.SPEC, n=2000, seed=4)

    def test_nan_feature_rejected_by_fit_edges(self, log):
        # unchecked, a NaN leaves the feature without cuts: one bucket, silently
        log.features[5, 1] = np.nan
        with pytest.raises(ValueError, match="feature"):
            fit_edges(log, self.SPEC.schema(), k=5)

    def test_nan_feature_rejected_by_fit_table(self, log):
        edges = fit_edges(log, self.SPEC.schema(), k=5)
        log.features[5, 1] = np.nan
        with pytest.raises(ValueError, match="feature"):
            fit_table(log, edges, 10.0, (0.5, 2.0), min_cell_count=50)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_urps_rejected_by_fit_edges_and_fit_table(self, log, bad):
        edges = fit_edges(log, self.SPEC.schema(), k=5)
        log.urps[7] = bad
        with pytest.raises(ValueError, match="URPS"):
            fit_edges(log, self.SPEC.schema(), k=5)
        with pytest.raises(ValueError, match="URPS"):
            fit_table(log, edges, 10.0, (0.5, 2.0), min_cell_count=50)


class TestLookup:
    def test_trusted_cell_returns_cell_factor(self):
        table = _manual_table(
            [[1.0, 1.0], [1.0, 1.0]], [[1, 1], [1, 1]], cells=[([2.0, 2.0], 3.5, 100)]
        )
        assert factor_of(table, [2.0, 2.0]) == 3.5

    def test_sparse_cell_backs_off_to_marginal_geometric_mean(self):
        table = _manual_table(
            [[9.0, 1.5], [9.0, 2.0]], [[5, 5], [5, 5]], cells=[([2.0, 2.0], 1.0, 2)]
        )
        assert factor_of(table, [2.0, 2.0]) == pytest.approx(
            np.sqrt(3.0)
        )

    def test_unseen_cell_with_empty_marginals_returns_global_mean(self):
        table = _manual_table([[2.0, 2.0], [2.0, 2.0]], [[3, 0], [3, 0]], gm=7.0)
        assert factor_of(table, [5.0, 5.0]) == 7.0

    def test_one_vector_is_not_a_batch(self):
        table = _manual_table([[1.0, 1.0], [1.0, 1.0]], [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match=r"\(n, arity\)"):
            lookup_many(table, np.array([2.0, 2.0]))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        log = make_log(
            np.column_stack(
                [rng.integers(0, 5, 400).astype(float), rng.uniform(0, 1, 400)]
            ),
            rng.uniform(0.5, 4, 400),
            SCHEMA_2,
        )
        edges = fit_edges(log, SCHEMA_2, k=3)
        table = fit_table(log, edges, 1.0, (0.5, 2.0), min_cell_count=20)
        queries = np.column_stack([rng.uniform(-2, 8, 50), rng.uniform(-1, 2, 50)])
        batch = lookup_many(table, queries)
        # each row's factor does not depend on the rest of the batch
        for i in range(50):
            assert batch[i] == factor_of(table, queries[i])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_coverage_any_finite_vector_gets_positive_factor(self, vectors):
        rng = np.random.default_rng(11)
        log = make_log(
            np.column_stack(
                [rng.integers(0, 4, 300).astype(float), rng.uniform(0, 1, 300)]
            ),
            rng.uniform(0.5, 4, 300),
            SCHEMA_2,
        )
        edges = fit_edges(log, SCHEMA_2, k=3)
        table = fit_table(log, edges, 5.0, (0.5, 2.0), min_cell_count=40)
        out = lookup_many(table, np.asarray(vectors, dtype=np.float64))
        assert np.all(out > 0) and np.all(np.isfinite(out))


def lookup_oracle(table, features):
    """The per-row back-off chain: each row's cell, then its marginals, then the global mean."""
    features = np.asarray(features, dtype=np.float64)
    cell_idx = np.empty(features.shape, dtype=np.int64)
    for j, c in enumerate(table.edges.cuts):
        cell_idx[:, j] = np.searchsorted(c, features[:, j], side="right")
    codes = np.ravel_multi_index(cell_idx.T, table.dims)
    result = table.factors[codes]
    need = ~(table.counts[codes] >= table.min_cell_count)
    if np.any(need):
        n_feat = table.edges.schema.arity
        log_sum = np.zeros(int(need.sum()))
        all_pop = np.ones(int(need.sum()), dtype=bool)
        sub_idx = cell_idx[need]
        for j in range(n_feat):
            mf = table.marginal_factors[j][sub_idx[:, j]]
            mc = table.marginal_counts[j][sub_idx[:, j]]
            pop = mc > 0
            all_pop &= pop
            log_sum += np.where(pop, np.log(np.maximum(mf, 1e-300)), 0.0)
        backoff = np.where(all_pop, np.exp(log_sum / n_feat), table.global_mean)
        result = result.copy()
        result[need] = backoff
    return result


@st.composite
def random_tables(draw):
    """(table, features): a table of 1-4 features with 1-6 buckets each, and a query batch."""
    arity = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 6), min_size=arity, max_size=arity))
    min_cell_count = draw(st.sampled_from([0, 1, 3, 50]))
    empty_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    n = draw(st.sampled_from([0, 1, 5, 200, 20_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema = FeatureSchema(
        names=tuple(f"f{j}" for j in range(arity)),
        kinds=("count",) * arity,
        monotonicity=("increasing-with-familiarity",) * arity,
    )
    cuts = [np.sort(rng.choice(np.arange(-20.0, 20.0), k - 1, replace=False)) for k in dims]
    edges = BucketEdges(schema=schema, cuts=cuts, nominal_k=max(dims))
    size = int(np.prod(dims))
    # cell counts on both sides of min_cell_count
    around = [0, max(min_cell_count - 1, 0), min_cell_count, min_cell_count + 1]
    marginal_factors, marginal_counts = [], []
    for k in dims:
        # log-uniform down to 1e-300, with some at exactly 1e-300
        mf = np.exp(rng.uniform(np.log(1e-300), np.log(1e3), k))
        mf[rng.random(k) < 0.2] = 1e-300
        marginal_factors.append(mf)
        marginal_counts.append(np.where(rng.random(k) < empty_share, 0, rng.integers(1, 9, k)))
    table = AdjustmentTable(
        edges=edges,
        global_mean=float(rng.lognormal()),
        smoothing_prior_weight=0.0,
        clip_bounds=None,
        factors=rng.lognormal(size=size),
        counts=rng.choice(around, size),
        marginal_factors=marginal_factors,
        marginal_counts=marginal_counts,
        min_cell_count=min_cell_count,
    )
    # values on the cuts, between and beyond them
    points = [np.concatenate([c, c - 0.5, c + 0.5, [-25.0, 25.0]]) for c in cuts]
    features = np.column_stack([rng.choice(pts, n) for pts in points]).reshape(n, arity)
    return table, features


class TestPerCellBackoff:
    @settings(max_examples=150, deadline=None)
    @given(random_tables())
    def test_lookup_equals_the_per_row_chain_bit_for_bit(self, table_and_features):
        table, features = table_and_features
        got = lookup_many(table, features)
        want = lookup_oracle(table, features)
        assert got.shape == want.shape == (features.shape[0],) and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_arrays_are_read_only_and_fields_frozen(self):
        table = _manual_table([[2.0, 2.0], [2.0, 2.0]], [[3, 0], [3, 0]])
        arrays = [table.factors, table.counts, table.served]
        for arr in arrays + list(table.marginal_factors) + list(table.marginal_counts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.factors = np.ones(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.min_cell_count = 0

    def test_table_keeps_its_own_copies(self):
        factors, counts = np.full(4, 1.0), np.full(4, 100, dtype=np.int64)
        table = dataclasses.replace(
            _manual_table([[2.0, 2.0]] * 2, [[5, 5]] * 2), factors=factors, counts=counts
        )
        factors[:] = 3.0
        counts[:] = 0
        assert factors.flags.writeable and factor_of(table, [2.0, 2.0]) == 1.0

    def test_mismatched_array_shapes_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            _manual_table([[1.0, 1.0, 1.0], [1.0, 1.0]], [[1, 1, 1], [1, 1]])


class TestTableProperties:
    def test_exact_mean_one_within_every_populated_cell(self):
        rng = np.random.default_rng(13)
        feats = np.column_stack(
            [rng.integers(0, 10, 5000).astype(float), rng.uniform(0, 1, 5000)]
        )
        urps = rng.lognormal(0.5, 0.6, 5000)
        log = make_log(feats, urps, SCHEMA_2)
        edges = fit_edges(log, SCHEMA_2, k=4)
        table = fit_table(
            log, edges, smoothing_prior_weight=0.0, clip_bounds=None, min_cell_count=1
        )
        factors = lookup_many(table, feats)
        debiased = urps / factors
        codes = edges.cell_codes(feats)
        for code in np.unique(codes):
            sel = codes == code
            assert abs(debiased[sel].mean() - 1.0) <= 1e-9

    def test_monotone_data_gives_monotone_factors(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 10, 4000)
        log = make_log(x, 1.0 + 0.7 * x, SCHEMA_1)
        edges = fit_edges(log, SCHEMA_1, k=5)
        table = fit_table(log, edges, smoothing_prior_weight=0.0, clip_bounds=None,
                          min_cell_count=50)
        populated = table.counts > 0
        factors = table.factors[populated]
        assert np.all(np.diff(factors) >= 0)
