"""Continuous familiarity modeling.

A small feed-forward regressor maps normalized familiarity vectors to the
expected score, trained with mean squared error. Written directly on numpy
so gradients are exact analytic expressions (verified against central finite
differences) and training is bit-for-bit deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import FeatureSchema


def _softplus(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)); ``out`` may be ``x``.

    Chained from numpy's vectorized ufuncs; ``np.logaddexp(0, x)`` computes
    the same function with a scalar libm call per element, several times
    slower. The two agree to within 4.5e-16 relative (one ulp where the
    result is subnormal) and exactly at 0, +-inf and nan.
    """
    tail = np.abs(x)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    out = np.maximum(x, 0.0, out=out)
    out += tail
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # min(x, -x) is -|x| that keeps a NaN's sign, as the masked form did
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _identity(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return x


# name -> (activation accepting out=, derivative)
_ACTIVATIONS = {
    "softplus": (_softplus, _sigmoid),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    "identity": (_identity, np.ones_like),
}


@dataclass(frozen=True)
class TrainConfig:
    hidden_sizes: tuple[int, ...] = (32, 16)
    activation: str = "softplus"
    learning_rate: float = 1e-3
    lr_decay: float = 1.0
    batch_size: int = 256
    max_epochs: int = 50
    patience: int = 5
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if min(self.hidden_sizes, default=1) <= 0:
            raise ValueError("hidden sizes must be positive")
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.max_epochs <= 0:
            raise ValueError("learning rate, batch size and epochs must be positive")
        if not (0 < self.lr_decay <= 1.0):
            raise ValueError("lr decay must be in (0, 1]")
        if self.patience <= 0:
            raise ValueError("patience must be positive")
        if not (0 < self.validation_fraction <= 0.5):
            raise ValueError("validation fraction must be in (0, 0.5]")


@dataclass
class Normalizer:
    """Per-feature input transform: log1p for count features, then standardize."""

    log1p_mask: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    count_columns: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.count_columns = tuple(np.flatnonzero(self.log1p_mask).tolist())

    @classmethod
    def fit(cls, features: np.ndarray, schema: FeatureSchema) -> "Normalizer":
        mask = np.array([k == "count" for k in schema.kinds])
        x = features.astype(np.float64).copy()
        x[:, mask] = np.log1p(x[:, mask])
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std == 0] = 1.0
        return cls(log1p_mask=mask, mean=mean, std=std)

    def check(self, features: np.ndarray) -> None:
        """Reject anything but an (n, arity) batch, a single 1-D vector included."""
        if features.ndim != 2 or features.shape[1] != self.mean.size:
            raise ValueError(
                f"features must be (n, arity) with arity {self.mean.size}, got {features.shape}"
            )

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Normalized copy of an (n, arity) feature batch."""
        features = np.asarray(features)
        self.check(features)
        return self._normalized(features)

    def _normalized(self, features: np.ndarray) -> np.ndarray:
        # a checked batch; in place on one copy, the same operations as
        # (log1p(x) - mean) / std
        x = np.array(features, dtype=np.float64, order="C")
        for j in self.count_columns:
            np.log1p(x[:, j], out=x[:, j])
        x -= self.mean
        x /= self.std
        return x


class RegressorModel:
    """Weights, normalizers and metadata of the fitted score regressor.

    The output head is softplus, so ``forward`` is strictly positive and the
    downstream division is always safe.
    """

    def __init__(
        self,
        normalizer: Normalizer,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        activations: list[str],
        metadata: dict | None = None,
        output_scale: float = 1.0,
    ):
        if not weights:
            raise ValueError("model must have at least one layer")
        if not (len(weights) == len(biases) == len(activations)):
            raise ValueError("weights, biases and activations must align")
        for i in range(1, len(weights)):
            if weights[i - 1].shape[1] != weights[i].shape[0]:
                raise ValueError(
                    f"layer {i - 1} output dim {weights[i - 1].shape[1]} != "
                    f"layer {i} input dim {weights[i].shape[0]}"
                )
        if weights[-1].shape[1] != 1:
            raise ValueError("output layer must have a single unit")
        for w, b in zip(weights, biases):
            if b.shape != (w.shape[1],):
                raise ValueError("bias shape must match layer output dim")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        if output_scale <= 0:
            raise ValueError("output scale must be positive")
        self.normalizer = normalizer
        self.weights = weights
        self.biases = biases
        self.activations = activations
        self.metadata = metadata or {}
        # fixed positive multiplier on the softplus head; training sets it to
        # the mean target so the head works near unit scale
        self.output_scale = float(output_scale)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]

    @property
    def target_mean(self) -> float:
        return float(self.metadata.get("target_mean", 1.0))

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_parameters(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def set_parameters(self, params: list[np.ndarray]) -> None:
        for target, source in zip(self.parameters(), params):
            target[...] = source

    def to_dict(self) -> dict:
        return {
            "normalizer": {
                "log1p_mask": self.normalizer.log1p_mask.astype(int).tolist(),
                "mean": self.normalizer.mean.tolist(),
                "std": self.normalizer.std.tolist(),
            },
            "layers": [
                {
                    "weights": w.tolist(),
                    "bias": b.tolist(),
                    "activation": a,
                }
                for w, b, a in zip(self.weights, self.biases, self.activations)
            ],
            "output_scale": self.output_scale,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressorModel":
        norm = Normalizer(
            log1p_mask=np.asarray(d["normalizer"]["log1p_mask"], dtype=bool),
            mean=np.asarray(d["normalizer"]["mean"], dtype=np.float64),
            std=np.asarray(d["normalizer"]["std"], dtype=np.float64),
        )
        weights = [np.asarray(layer["weights"], dtype=np.float64) for layer in d["layers"]]
        biases = [np.asarray(layer["bias"], dtype=np.float64) for layer in d["layers"]]
        acts = [layer["activation"] for layer in d["layers"]]
        return cls(
            norm, weights, biases, acts,
            metadata=d.get("metadata", {}),
            output_scale=float(d.get("output_scale", 1.0)),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RegressorModel":
        return cls.from_dict(json.loads(Path(path).read_bytes()))


def _forward_pass(
    model: RegressorModel, x: np.ndarray, keep: bool = True
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Returns (output, pre-activations per layer, post-activations incl. input).

    With ``keep=False`` (inference) each layer's activation is applied in
    place and its intermediates are dropped once the next layer has used
    them; the two lists come back empty. The output bits are the same.
    """
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x] if keep else []
    h = x
    for w, b, a in zip(model.weights, model.biases, model.activations):
        z = h @ w
        z += b
        act = _ACTIVATIONS[a][0]
        if keep:
            pre.append(z)
            h = act(z)
            post.append(h)
        else:
            h = act(z, out=z)
    return h[:, 0], pre, post


# Inference runs over row blocks of this size, so its working set is a few
# (block x width) arrays however many rows a batch has. The last block takes
# the remainder (1,024-2,047 rows): a short tail, one row at worst, would take
# a different BLAS kernel than the one-batch pass and change the last bits.
_BLOCK_ROWS = 1024


def _scaled_head(model: RegressorModel, x: np.ndarray, normalize: bool) -> np.ndarray:
    """``output_scale`` times the head over the rows of ``x``, block by block.

    ``normalize`` applies the model's normalizer to each block first, with
    the shape checked by the caller; without it ``x`` is already normalized.
    A batch under two blocks is one pass.
    """
    norm = model.normalizer._normalized if normalize else (lambda block: block)
    n = x.shape[0]
    n_blocks = max(n // _BLOCK_ROWS, 1)
    if n_blocks == 1:
        out = _forward_pass(model, norm(x), keep=False)[0]
    else:
        out = np.empty(n)
        for i in range(n_blocks):
            start = i * _BLOCK_ROWS
            stop = n if i == n_blocks - 1 else start + _BLOCK_ROWS
            block = norm(x[start:stop])
            out[start:stop] = _forward_pass(model, block, keep=False)[0]
    out *= model.output_scale
    return out


def forward(model: RegressorModel, features: np.ndarray) -> np.ndarray:
    """Predicted conditional mean score per row of an (n, arity) batch.

    Strictly positive and deterministic. Memory beyond the output is bounded
    by the block size, not by the batch.
    """
    features = np.asarray(features)
    model.normalizer.check(features)
    out = _scaled_head(model, features, normalize=True)
    np.maximum(out, 1e-300, out=out)
    return out


def mse_loss(model: RegressorModel, features: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error of the model on one batch."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.size == 0:
        raise ValueError("batch must be non-empty")
    pred = forward(model, features)
    return float(np.mean((pred - targets) ** 2))


def _gradients(
    model: RegressorModel, x: np.ndarray, targets: np.ndarray
) -> list[np.ndarray]:
    """Exact MSE gradients over already-normalized inputs, in parameter order."""
    out, pre, post = _forward_pass(model, x)
    # dL/d(head) for L = mean((scale * head - y)^2)
    scale = model.output_scale
    delta = (2.0 * scale / targets.size) * (out * scale - targets)[:, None]
    grads: list[np.ndarray] = []
    for layer in range(len(model.weights) - 1, -1, -1):
        act_deriv = _ACTIVATIONS[model.activations[layer]][1](pre[layer])
        dz = delta * act_deriv
        grads.append(dz.sum(axis=0))
        grads.append(post[layer].T @ dz)
        if layer > 0:
            delta = dz @ model.weights[layer].T
    grads.reverse()
    return grads


def backward(
    model: RegressorModel, features: np.ndarray, targets: np.ndarray
) -> list[np.ndarray]:
    """Exact gradients of ``mse_loss`` for every weight and bias.

    Returned in the same order as ``model.parameters()``:
    [W0, b0, W1, b1, ...].
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.size == 0:
        raise ValueError("batch must be non-empty")
    return _gradients(model, model.normalizer.apply(features), targets)


def _init_model(
    n_inputs: int, normalizer: Normalizer, config: TrainConfig, rng: np.random.Generator
) -> RegressorModel:
    sizes = [n_inputs, *config.hidden_sizes, 1]
    weights, biases, acts = [], [], []
    for i in range(len(sizes) - 1):
        fan_in = sizes[i]
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(sizes[i], sizes[i + 1])))
        biases.append(np.zeros(sizes[i + 1]))
        acts.append(config.activation if i < len(sizes) - 2 else "softplus")
    return RegressorModel(normalizer, weights, biases, acts)


def train_xy(
    features: np.ndarray,
    targets: np.ndarray,
    schema: FeatureSchema,
    config: TrainConfig = TrainConfig(),
) -> RegressorModel:
    """Fit the regressor on raw feature/target arrays.

    Deterministic given (data order, seed): seeded shuffling, fixed batch
    order, Adam updates in a fixed parameter order, and the returned weights
    are the snapshot at the best validation loss.
    """
    x_raw = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x_raw.ndim != 2 or x_raw.shape[1] != schema.arity:
        raise ValueError(f"features must be (n, {schema.arity})")
    n = y.size
    if n == 0:
        raise ValueError("cannot train on an empty log")
    if n < 10 * config.batch_size:
        warnings.warn(
            f"training set of {n} rows is small for batch size {config.batch_size}",
            stacklevel=2,
        )
    normalizer = Normalizer.fit(x_raw, schema)
    x = normalizer.apply(x_raw)

    rng = np.random.default_rng(config.seed)
    model = _init_model(schema.arity, normalizer, config, rng)
    scale = float(np.mean(np.abs(y)))
    model.output_scale = scale if scale > 0 else 1.0

    perm = rng.permutation(n)
    n_val = max(1, int(round(n * config.validation_fraction))) if n > 1 else 0
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        train_idx = perm
        val_idx = perm
    xv, yv = x[val_idx], y[val_idx]
    xt, yt = x[train_idx], y[train_idx]

    params = model.parameters()
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def eval_loss(xs: np.ndarray, ys: np.ndarray) -> float:
        return float(np.mean((_scaled_head(model, xs, normalize=False) - ys) ** 2))

    # epoch-end train loss is tracked on a capped slice; the validation loss
    # driving early stopping is always exact
    train_eval_cap = 65536

    best_val = np.inf
    best_params = model.copy_parameters()
    best_epoch = 0
    since_best = 0
    history: list[dict] = []
    n_train = yt.size

    for epoch in range(config.max_epochs):
        lr = config.learning_rate * config.lr_decay**epoch
        order = rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            idx = order[start : start + config.batch_size]
            grads = _gradients(model, xt[idx], yt[idx])
            step += 1
            lr_t = lr * np.sqrt(1 - beta2**step) / (1 - beta1**step)
            for p, g, m_buf, v_buf in zip(params, grads, adam_m, adam_v):
                m_buf *= beta1
                m_buf += (1 - beta1) * g
                v_buf *= beta2
                v_buf += (1 - beta2) * g * g
                p -= lr_t * m_buf / (np.sqrt(v_buf) + eps)

        train_loss = eval_loss(xt[:train_eval_cap], yt[:train_eval_cap])
        val_loss = eval_loss(xv, yv)
        history.append({"epoch": epoch, "train_mse": train_loss, "val_mse": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_params = model.copy_parameters()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    model.set_parameters(best_params)
    model.metadata = {
        "seed": config.seed,
        "epochs_run": len(history),
        "best_epoch": best_epoch,
        "best_val_mse": best_val,
        "final_train_mse": history[-1]["train_mse"] if history else None,
        "target_mean": float(np.mean(y)),
        "config": asdict(config),
        "history": history,
    }
    return model


@dataclass
class GradientCheckReport:
    max_relative_error: float
    tolerance: float
    entries: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance


def gradient_check(
    model: RegressorModel,
    features: np.ndarray,
    targets: np.ndarray,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    n_samples: int = 8,
    seed: int = 0,
) -> GradientCheckReport:
    """Compare analytic gradients to central finite differences.

    Samples ``n_samples`` scalar parameters uniformly across all layers and
    perturbs each by ``step`` in both directions through the full loss.
    """
    params = model.parameters()
    analytic = backward(model, features, targets)
    sizes = [p.size for p in params]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    flat_choices = rng.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.cumsum([0, *sizes])
    entries = []
    max_rel = 0.0
    for flat in sorted(int(f) for f in flat_choices):
        p_idx = int(np.searchsorted(offsets, flat, side="right") - 1)
        local = flat - offsets[p_idx]
        param = params[p_idx]
        original = param.flat[local]
        param.flat[local] = original + step
        loss_plus = mse_loss(model, features, targets)
        param.flat[local] = original - step
        loss_minus = mse_loss(model, features, targets)
        param.flat[local] = original
        numeric = (loss_plus - loss_minus) / (2 * step)
        exact = analytic[p_idx].flat[local]
        denom = max(abs(numeric), abs(exact), 1e-12)
        rel = abs(numeric - exact) / denom
        max_rel = max(max_rel, rel)
        entries.append(
            {
                "parameter": p_idx,
                "offset": int(local),
                "analytic": float(exact),
                "numeric": float(numeric),
                "relative_error": float(rel),
            }
        )
    return GradientCheckReport(
        max_relative_error=max_rel, tolerance=tolerance, entries=entries
    )
