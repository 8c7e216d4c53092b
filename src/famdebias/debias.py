"""Core score correction.

Divides each score by its estimated conditional mean (from the discrete
adjustment table or the continuous regressor) and reports the before/after
feature-score correlations the correction is supposed to remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bucketizer import AdjustmentTable, lookup_many
from .core import InteractionLog
from .estimator import RegressorModel, forward

MODES = ("discrete", "continuous")


@dataclass(frozen=True)
class DebiasConfig:
    """Correction policy: divisor floor and strength.

    ``floor`` is the absolute floor on the estimated mean ``adj``; when
    None it resolves to ``floor_fraction`` of the fitted artifact's global
    mean. ``strength`` in [0, 1] divides by max(adj, floor)**strength; 0
    disables the correction exactly, whatever the floor. The estimator
    mode is the fitted artifact's type (see ``factor_source``).
    """

    floor: float | None = None
    floor_fraction: float = 0.05
    strength: float = 1.0

    def __post_init__(self) -> None:
        if self.floor is not None and self.floor <= 0:
            raise ValueError(f"floor: must be positive, got {self.floor}")
        if self.floor_fraction <= 0:
            raise ValueError(f"floor_fraction: must be positive, got {self.floor_fraction}")
        if not (0.0 <= self.strength <= 1.0):
            raise ValueError(f"strength: must be in [0, 1], got {self.strength}")

    def effective_floor(self, reference_mean: float) -> float:
        return self.floor if self.floor is not None else self.floor_fraction * reference_mean


def factor_source(artifact) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """(vectorized feature-matrix -> factors, global mean) for a fitted artifact."""
    if isinstance(artifact, AdjustmentTable):
        return (lambda feats: lookup_many(artifact, feats)), artifact.global_mean
    if isinstance(artifact, RegressorModel):
        return (lambda feats: forward(artifact, feats)), artifact.target_mean
    raise TypeError(f"unsupported adjustment source {type(artifact).__name__}")


def debias_scores(
    scores: np.ndarray,
    factors: np.ndarray,
    config: DebiasConfig,
    reference_mean: float = 1.0,
) -> np.ndarray:
    """Corrected scores s / max(adj, floor)**strength; strictly positive."""
    scores = np.asarray(scores, dtype=np.float64)
    factors = np.asarray(factors, dtype=np.float64)
    # (x > 0).all() also rejects NaN, for which every comparison is False
    if not (scores > 0).all():
        raise ValueError("scores must be positive")
    if not (factors > 0).all():
        raise ValueError("adjustment factors must be positive")
    eps = config.effective_floor(reference_mean)
    return scores / np.maximum(factors, eps) ** config.strength


def debias_log(
    log: InteractionLog, artifact, config: DebiasConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(debiased scores, factors) for every record of a log."""
    factors_of, ref_mean = factor_source(artifact)
    factors = factors_of(log.features)
    return debias_scores(log.urps, factors, config, ref_mean), factors


@dataclass
class FeatureCorrelation:
    name: str
    before: float
    after: float
    flags: tuple[str, ...] = ()

    @property
    def attenuation(self) -> float:
        """|after| / |before|; inf when the raw correlation is zero."""
        if self.before == 0:
            return float("inf") if self.after != 0 else 0.0
        return abs(self.after) / abs(self.before)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return float("nan")
    return float((xc * yc).sum() / denom)


def residual_correlation(
    log: InteractionLog, artifact, config: DebiasConfig
) -> list[FeatureCorrelation]:
    """Per-feature Pearson correlation with the score, before and after correction."""
    if len(log) < 2:
        raise ValueError("correlation needs at least 2 records")
    debiased, _ = debias_log(log, artifact, config)
    report = []
    low_sample = len(log) < 30
    for j, name in enumerate(log.schema.names):
        col = log.features[:, j]
        flags: list[str] = []
        if np.all(col == col[0]):
            flags.append("constant")
            before = after = float("nan")
        else:
            before = _pearson(col, log.urps)
            after = _pearson(col, debiased)
        if low_sample:
            flags.append("low_sample")
        report.append(
            FeatureCorrelation(name=name, before=before, after=after, flags=tuple(flags))
        )
    return report
