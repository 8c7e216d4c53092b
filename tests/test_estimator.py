"""Regressor: normalization, forward/backward exactness, training, gradcheck."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from famdebias.core import FeatureSchema
from famdebias.estimator import (
    GradientCheckReport,
    Normalizer,
    RegressorModel,
    TrainConfig,
    _forward_pass,
    _init_model,
    _sigmoid,
    _softplus,
    backward,
    forward,
    gradient_check,
    mse_loss,
    train_xy,
)

SCHEMA = FeatureSchema(
    names=("count", "days", "share"),
    kinds=("count", "recency", "affinity"),
    monotonicity=(
        "increasing-with-familiarity",
        "decreasing-with-familiarity",
        "increasing-with-familiarity",
    ),
)
SCHEMA_2A = FeatureSchema(
    names=("b1", "b2"),
    kinds=("affinity", "affinity"),
    monotonicity=("increasing-with-familiarity",) * 2,
)


def identity_normalizer(n: int) -> Normalizer:
    return Normalizer(
        log1p_mask=np.zeros(n, dtype=bool), mean=np.zeros(n), std=np.ones(n)
    )


def constant_model(n_inputs: int, value_over_ln2: float = 1.0) -> RegressorModel:
    """All-zero weights emit softplus(0); output_scale tunes the constant."""
    return RegressorModel(
        normalizer=identity_normalizer(n_inputs),
        weights=[np.zeros((n_inputs, 4)), np.zeros((4, 1))],
        biases=[np.zeros(4), np.zeros(1)],
        activations=["softplus", "softplus"],
        output_scale=value_over_ln2,
    )


def random_model(n_inputs: int, seed: int) -> RegressorModel:
    rng = np.random.default_rng(seed)
    sizes = [n_inputs, 8, 5, 1]
    weights = [rng.normal(0, 0.6, (sizes[i], sizes[i + 1])) for i in range(3)]
    biases = [rng.normal(0, 0.3, sizes[i + 1]) for i in range(3)]
    return RegressorModel(
        identity_normalizer(n_inputs), weights, biases,
        ["softplus", "softplus", "softplus"],
    )


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Reference: the boolean-mask scatter form of the logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]
kernel_inputs = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
    elements=st.one_of(
        st.floats(-745.0, 745.0), st.floats(-40.0, 40.0), st.sampled_from(SPECIAL)
    ),
)


# Row counts on both sides of forward's block edges (blocks of 1,024 rows, the
# last one taking the remainder). Past one block, hidden widths are drawn from
# multiples of 8: for widths such as (19, 26) OpenBLAS's bits depend on the
# row count of the product, so no split into blocks keeps them, and no config
# uses such widths.
BLOCK_EDGE_ROWS = st.one_of(
    st.sampled_from([1023, 1024, 1025, 1026, 2047, 2048, 2049, 3073]),
    st.integers(1024, 3 * 1024 + 7),
)


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs)
    def test_softplus_matches_logaddexp(self, x):
        got = _softplus(x)
        with np.errstate(invalid="ignore"):
            want = np.logaddexp(0.0, x)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)])
        finite = np.isfinite(want)
        # 4.5e-16 relative; below the smallest normal float the spacing is
        # absolute, and the two may differ in the last subnormal bit
        tol = np.maximum(4.5e-16 * want[finite], np.spacing(0.0))
        assert np.all(np.abs(got[finite] - want[finite]) <= tol)

    def test_softplus_special_values(self):
        x = np.array([0.0, -0.0, 700.0, -700.0, np.inf, -np.inf])
        got = _softplus(x)
        assert got[:2].tolist() == [np.log(2.0)] * 2
        assert got[2] == 700.0 and got[4] == np.inf and got[5] == 0.0
        assert abs(got[3] - np.logaddexp(0.0, -700.0)) <= 4.5e-16 * got[3]

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs)
    def test_softplus_in_place_equals_out_of_place(self, x):
        fresh = _softplus(x)
        buf = x.copy()
        assert _softplus(buf, out=buf) is buf
        assert np.array_equal(bits(buf), bits(fresh))

    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs)
    def test_sigmoid_equals_masked_reference(self, x):
        assert np.array_equal(bits(_sigmoid(x)), bits(masked_sigmoid(x)))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.one_of(
            st.tuples(st.integers(1, 300), st.lists(st.integers(1, 40), min_size=0, max_size=3)),
            st.tuples(BLOCK_EDGE_ROWS, st.lists(st.sampled_from([8, 16, 24, 32, 40]), max_size=3)),
        ),
        activation=st.sampled_from(["softplus", "tanh", "identity"]),
    )
    @example(seed=0, shape=(1025, []), activation="softplus")
    def test_inference_pass_equals_training_pass(self, seed, shape, activation):
        # forward runs in row blocks; the one-batch training pass is the reference
        rows, hidden = shape
        rng = np.random.default_rng(seed)
        sizes = [3, *hidden, 1]
        model = RegressorModel(
            Normalizer(log1p_mask=np.array([True, False, False]),
                       mean=rng.normal(size=3), std=rng.uniform(0.5, 2.0, 3)),
            [rng.normal(0, 1.5, (a, b)) for a, b in zip(sizes, sizes[1:])],
            [rng.normal(0, 1.0, b) for b in sizes[1:]],
            [activation] * len(hidden) + ["softplus"],
            output_scale=float(rng.uniform(0.1, 5.0)),
        )
        feats = np.column_stack([
            rng.integers(0, 50, rows), rng.uniform(0, 365, rows), rng.uniform(0, 1, rows)
        ]).astype(np.float64)
        x = model.normalizer.apply(feats)
        out, pre, post = _forward_pass(model, x)
        assert len(pre) == len(sizes) - 1 and len(post) == len(sizes)
        want = np.maximum(out * model.output_scale, 1e-300)
        assert np.array_equal(bits(forward(model, feats)), bits(want))


class TestNormalize:
    def test_count_zero_with_unit_standardization(self):
        norm = Normalizer(
            log1p_mask=np.array([True]), mean=np.zeros(1), std=np.ones(1)
        )
        assert norm.apply(np.array([[0.0]]))[0, 0] == 0.0

    def test_count_e_minus_one_maps_to_one_in_log_space(self):
        norm = Normalizer(
            log1p_mask=np.array([True]), mean=np.zeros(1), std=np.ones(1)
        )
        assert norm.apply(np.array([[np.e - 1.0]]))[0, 0] == pytest.approx(1.0)

    def test_training_set_means_standardize_to_zero(self):
        rng = np.random.default_rng(2)
        feats = rng.uniform(0, 5, size=(200, 2))
        norm = Normalizer.fit(feats, SCHEMA_2A)
        out = norm.apply(feats.mean(axis=0, keepdims=True))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_count_features_fit_in_log_space(self):
        feats = np.array([[0.0], [np.e - 1.0]])
        schema = FeatureSchema(
            ("c",), ("count",), ("increasing-with-familiarity",)
        )
        norm = Normalizer.fit(feats, schema)
        assert norm.mean[0] == pytest.approx(0.5)

    def test_constant_feature_std_guard(self):
        feats = np.full((50, 2), 3.0)
        norm = Normalizer.fit(feats, SCHEMA_2A)
        assert np.all(np.isfinite(norm.apply(feats)))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match=r"\(n, arity\) with arity 2"):
            identity_normalizer(2).apply(np.array([[1.0, 2.0, 3.0]]))

    def test_one_vector_is_not_a_batch(self):
        # a single familiarity vector must come as a (1, arity) batch
        with pytest.raises(ValueError, match=r"\(n, arity\)"):
            identity_normalizer(2).apply(np.array([1.0, 2.0]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40),
           mask=st.lists(st.booleans(), min_size=1, max_size=5))
    def test_bitwise_equal_to_reference_formula(self, seed, rows, mask):
        rng = np.random.default_rng(seed)
        arity = len(mask)
        norm = Normalizer(log1p_mask=np.array(mask), mean=rng.normal(size=arity),
                          std=rng.uniform(0.1, 3.0, arity))
        feats = rng.uniform(0, 100, (rows, arity)) * rng.integers(0, 2, (rows, arity))
        x = feats.copy()
        x[:, norm.log1p_mask] = np.log1p(x[:, norm.log1p_mask])
        want = (x - norm.mean) / norm.std
        before = feats.copy()
        assert np.array_equal(bits(norm.apply(feats)), bits(want))
        assert np.array_equal(feats, before)
        if rows:
            assert np.array_equal(bits(norm.apply(feats[:1])), bits(want[:1]))


class TestForward:
    def test_all_zero_weights_give_ln2(self):
        model = constant_model(3)
        out = forward(model, np.array([[5.0, -2.0, 0.3]]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_deterministic(self):
        model = random_model(3, seed=9)
        x = np.array([[0.5, -1.0, 2.0]])
        assert np.array_equal(forward(model, x), forward(model, x))

    def test_one_vector_is_not_a_batch(self):
        with pytest.raises(ValueError, match=r"\(n, arity\)"):
            forward(random_model(3, seed=9), np.array([0.5, -1.0, 2.0]))

    def test_empty_batch_checks_arity(self):
        model = random_model(3, seed=9)
        assert forward(model, np.zeros((0, 3))).shape == (0,)
        with pytest.raises(ValueError, match=r"\(n, arity\) with arity 3, got \(0, 2\)"):
            forward(model, np.zeros((0, 2)))

    def test_memory_bounded_by_the_block_not_the_batch(self):
        # repro's shape: 3 features, hidden (32, 16); one pass over the whole
        # batch would hold two (n, 32) float64 arrays, about 49 MiB here
        rng = np.random.default_rng(0)
        norm = Normalizer(log1p_mask=np.array([True, False, False]),
                          mean=rng.normal(size=3), std=rng.uniform(0.5, 2.0, 3))
        model = _init_model(3, norm, TrainConfig(hidden_sizes=(32, 16)), rng)
        feats = rng.uniform(0, 50, (100_000, 3))
        tracemalloc.start()
        try:
            out = forward(model, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 4 * 2**20

    def test_strictly_positive_on_fuzz(self):
        model = random_model(3, seed=10)
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, size=(1_000_000, 3))
        out = forward(model, x)
        assert np.all(out > 0)

    def test_dimension_chain_validated(self):
        with pytest.raises(ValueError):
            RegressorModel(
                identity_normalizer(2),
                weights=[np.zeros((2, 4)), np.zeros((3, 1))],
                biases=[np.zeros(4), np.zeros(1)],
                activations=["softplus", "softplus"],
            )

    def test_zero_parameter_model_rejected(self):
        with pytest.raises(ValueError):
            RegressorModel(identity_normalizer(2), [], [], [])


class TestMseLoss:
    def test_perfect_predictions(self):
        model = constant_model(2)
        x = np.zeros((4, 2))
        y = np.full(4, np.log(2.0))
        assert mse_loss(model, x, y) == pytest.approx(0.0, abs=1e-30)

    def test_hand_arithmetic_two_samples(self):
        # predictions held at exactly 1.0 via the output scale
        model = constant_model(2, value_over_ln2=1.0 / np.log(2.0))
        x = np.zeros((2, 2))
        assert mse_loss(model, x, np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_hand_arithmetic_single_sample(self):
        model = constant_model(2, value_over_ln2=3.0 / np.log(2.0))
        assert mse_loss(model, np.zeros((1, 2)), np.array([1.0])) == pytest.approx(4.0)

    def test_empty_batch_rejected(self):
        model = constant_model(2)
        with pytest.raises(ValueError):
            mse_loss(model, np.zeros((0, 2)), np.array([]))


class TestBackward:
    def test_zero_residual_gives_zero_gradients(self):
        model = random_model(2, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 2))
        y = forward(model, x)
        grads = backward(model, x, y)
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-14)

    def test_finite_difference_agreement_over_random_settings(self):
        rng = np.random.default_rng(6)
        for setting in range(5):
            model = random_model(3, seed=100 + setting)
            x = rng.normal(size=(16, 3))
            y = rng.uniform(0.5, 3.0, size=16)
            report = gradient_check(
                model, x, y, step=1e-5, tolerance=1e-4, n_samples=8,
                seed=setting,
            )
            assert report.passed, f"setting {setting}: {report.max_relative_error}"

    def test_doubling_residual_doubles_output_bias_gradient(self):
        model = random_model(2, seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 2))
        pred = forward(model, x)
        y1 = pred - rng.uniform(0.1, 0.5, size=12)
        y2 = 2.0 * y1 - pred  # residual pred - y2 = 2 (pred - y1)
        g1 = backward(model, x, y1)
        g2 = backward(model, x, y2)
        # parameters() order is [W0, b0, W1, b1, ...]; last entry is the output bias
        assert np.allclose(g2[-1], 2.0 * g1[-1], rtol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            backward(constant_model(2), np.zeros((0, 2)), np.array([]))


class TestGradientCheck:
    def test_zero_tolerance_always_fails_on_nontrivial_model(self):
        model = random_model(2, seed=12)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 2))
        y = rng.uniform(0.5, 2.0, 8)
        report = gradient_check(model, x, y, tolerance=0.0)
        assert not report.passed

    def test_report_lists_sampled_parameters(self):
        model = random_model(2, seed=14)
        rng = np.random.default_rng(15)
        report = gradient_check(
            model, rng.normal(size=(8, 2)), rng.uniform(1, 2, 8), n_samples=6
        )
        assert isinstance(report, GradientCheckReport)
        assert len(report.entries) == 6
        assert report.max_relative_error == max(
            e["relative_error"] for e in report.entries
        )


class TestTrain:
    def test_constant_targets_recovered_within_one_percent(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, size=(30_000, 2))
        y = np.full(30_000, 3.7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_xy(
                x, y, SCHEMA_2A,
                TrainConfig(learning_rate=5e-3, lr_decay=0.95, max_epochs=50,
                            patience=50, seed=1),
            )
        grid = rng.uniform(0, 1, size=(5000, 2))
        assert np.abs(forward(model, grid) / 3.7 - 1.0).max() < 0.01

    def test_linear_generator_recovered_within_two_percent(self):
        schema = FeatureSchema(
            ("b1",), ("affinity",), ("increasing-with-familiarity",)
        )
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(50_000, 1))
        y = 1.0 + 0.5 * x[:, 0]
        model = train_xy(
            x, y, schema,
            TrainConfig(learning_rate=3e-3, lr_decay=0.92, max_epochs=40,
                        patience=40, seed=6),
        )
        grid = np.linspace(0, 1, 201).reshape(-1, 1)
        target = 1.0 + 0.5 * grid[:, 0]
        assert np.abs(forward(model, grid) / target - 1.0).max() < 0.02

    def test_smooth_generator_heldout_mse_below_1e_minus_3(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, size=(100_000, 2))
        bump = 1.0 / (1.0 + np.exp(-4.0 * (x[:, 0] - 0.5)))
        y = (1.0 + 1.5 * bump) * (1.0 - 0.3 * x[:, 1])
        model = train_xy(
            x[:80_000], y[:80_000], SCHEMA_2A,
            TrainConfig(learning_rate=3e-3, lr_decay=0.92, batch_size=256,
                        max_epochs=40, patience=40, seed=5),
        )
        pred = forward(model, x[80_000:])
        mse = float(np.mean((pred - y[80_000:]) ** 2))
        assert mse < 1e-3
        # noise-free generators recover within 2 percent relative
        assert np.abs(pred / y[80_000:] - 1.0).max() < 0.02

    def test_same_seed_same_data_bitwise_identical(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0, 2, size=(4000, 2))
        y = 1.0 + x[:, 0] * 0.5 + rng.normal(0, 0.05, 4000) ** 2
        cfg = TrainConfig(max_epochs=4, seed=77)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m1 = train_xy(x, y, SCHEMA_2A, cfg)
            m2 = train_xy(x, y, SCHEMA_2A, cfg)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p1, p2)
        assert m1.output_scale == m2.output_scale

    def test_small_training_set_warns(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(100, 2))
        y = np.ones(100)
        with pytest.warns(UserWarning):
            train_xy(x, y, SCHEMA_2A, TrainConfig(max_epochs=1, batch_size=64))

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            train_xy(np.zeros((0, 2)), np.array([]), SCHEMA_2A)

    def test_best_so_far_validation_loss_non_increasing(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 1, size=(8000, 2))
        y = 1.0 + x[:, 0] + 0.1 * rng.standard_normal(8000) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_xy(x, y, SCHEMA_2A, TrainConfig(max_epochs=12, patience=12, seed=3))
        vals = [h["val_mse"] for h in model.metadata["history"]]
        best = np.minimum.accumulate(vals)
        assert np.all(np.diff(best) <= 0)

    def test_positivity_after_training(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(0, 3, size=(5000, 2))
        y = rng.uniform(0.2, 5.0, size=5000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_xy(x, y, SCHEMA_2A, TrainConfig(max_epochs=3, seed=2))
        fuzz = rng.uniform(-100, 100, size=(1_000_000, 2))
        assert np.all(forward(model, fuzz) > 0)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(51)
        x = rng.uniform(0, 4, size=(3000, 3))
        y = 1.0 + 0.3 * x[:, 0] + rng.uniform(0, 0.1, 3000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_xy(x, y, SCHEMA, TrainConfig(max_epochs=3, seed=8))
        path = tmp_path / "model.json"
        model.save(path)
        back = RegressorModel.load(path)
        grid = rng.uniform(0, 4, size=(500, 3))
        assert np.array_equal(forward(back, grid), forward(model, grid))
        assert back.output_scale == model.output_scale
        assert back.metadata["seed"] == model.metadata["seed"]
