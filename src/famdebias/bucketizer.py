"""Discrete familiarity modeling.

Fits per-feature equal-mass bucket edges, then an adjustment table whose
cell factors are smoothed, clipped empirical means of the score within each
multi-feature bucket cell. Lookup backs off cell -> per-feature marginals ->
global mean so every finite familiarity vector maps to a positive factor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import FeatureSchema, InteractionLog, load


def quantile_cuts(values: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """Interior cut points for ``k`` equal-mass buckets of ``values``.

    Cuts start from the linear empirical quantiles at i/k and are snapped to
    the smallest data value strictly above each quantile, so tied masses stay
    whole under the left-closed assignment convention (value == cut goes to
    the upper bucket). Duplicate cuts collapse; the effective bucket count
    may shrink. Every cut is a data value above the minimum, so no bucket
    of ``values`` is empty. Returns (cuts, constant_flag).
    """
    if k < 2:
        raise ValueError("bucket count must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot fit edges on an empty sample")
    vmin, vmax = values.min(), values.max()
    if vmin == vmax:
        return np.empty(0), True
    sorted_vals = np.sort(values)
    raw = np.quantile(sorted_vals, np.arange(1, k) / k, method="linear")
    # snap each raw cut up to the next distinct data value; a cut above the
    # maximum would create an empty top bucket and is dropped
    pos = np.searchsorted(sorted_vals, raw, side="right")
    keep = pos < sorted_vals.size
    cuts = np.unique(sorted_vals[pos[keep]])
    return cuts, False


@dataclass
class BucketEdges:
    """Per-feature sorted interior cut points fit on one log."""

    schema: FeatureSchema
    cuts: list[np.ndarray]
    nominal_k: int
    constant_features: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for c in self.cuts:
            if c.size and np.any(np.diff(c) <= 0):
                raise ValueError("cut points must be strictly increasing")

    @property
    def dims(self) -> tuple[int, ...]:
        """Effective bucket count per feature."""
        return tuple(c.size + 1 for c in self.cuts)

    def cell_codes(self, features: np.ndarray) -> np.ndarray:
        """Mixed-radix cell code per row of an (n, arity) batch; left-closed buckets.

        The code is the C-order ``np.ravel_multi_index`` of the per-feature
        bucket indices. Raises ValueError on a non-finite feature value,
        which would otherwise land in the top (NaN, +inf) or bottom (-inf)
        bucket.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.schema.arity:
            raise ValueError(
                f"features must be (n, arity) with arity {self.schema.arity}, got {features.shape}"
            )
        finite = np.isfinite(features)
        # count_nonzero is cheaper than all() on a one-request batch
        if np.count_nonzero(finite) != finite.size:
            row, col = np.argwhere(~finite)[0]
            raise ValueError(
                f"non-finite value of feature {self.schema.names[col]!r}, first in row {row}"
            )
        codes = np.zeros(features.shape[0], dtype=np.int64)
        for j, c in enumerate(self.cuts):
            codes *= c.size + 1
            codes += np.searchsorted(c, features[:, j], side="right")
        return codes

    def to_dict(self) -> dict:
        return {
            "schema": asdict(self.schema),
            "cuts": [c.tolist() for c in self.cuts],
            "nominal_k": self.nominal_k,
            "constant_features": list(self.constant_features),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BucketEdges":
        return cls(
            schema=load(FeatureSchema, d["schema"], "edges.schema"),
            cuts=[np.asarray(c, dtype=np.float64) for c in d["cuts"]],
            nominal_k=int(d["nominal_k"]),
            constant_features=tuple(d["constant_features"]),
        )


def _require_fittable(log: InteractionLog) -> None:
    """Reject non-finite features and non-finite or non-positive scores."""
    for bad, what in (
        (~np.isfinite(log.features).all(axis=1), "non-finite feature value"),
        (~(np.isfinite(log.urps) & (log.urps > 0)), "non-finite or non-positive URPS"),
    ):
        if bad.any():
            rows = np.flatnonzero(bad)
            raise ValueError(f"{what} in {rows.size} row(s), first row {rows[0]}")


def bucket_thirds(cuts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Familiarity level 0, 1 or 2 per value: the thirds of its bucket index under ``cuts``."""
    bucket = np.searchsorted(cuts, values, side="right")
    return np.minimum((3 * bucket) // (len(cuts) + 1), 2)


def fit_edges(log: InteractionLog, schema: FeatureSchema, k: int) -> BucketEdges:
    """Fit equal-mass bucket edges per feature; constants yield one bucket."""
    if len(log) == 0:
        raise ValueError("cannot fit edges on an empty log")
    _require_fittable(log)
    cuts = []
    constant = []
    for j, name in enumerate(schema.names):
        c, is_const = quantile_cuts(log.features[:, j], k)
        cuts.append(c)
        if is_const:
            constant.append(name)
    return BucketEdges(
        schema=schema, cuts=cuts, nominal_k=k, constant_features=tuple(constant)
    )


@dataclass(frozen=True, eq=False)
class AdjustmentTable:
    """Per-cell conditional-mean factors with smoothing, clipping and back-off.

    ``factors``/``counts`` are dense over the cell code space (mixed-radix
    encoding of the per-feature bucket indices); cells never seen in fitting
    carry count 0 and the prior-only factor. Marginal per-feature tables use
    the same smoothing and clipping and feed the back-off chain.

    The table keeps read-only copies of its arrays, and at construction
    resolves the back-off chain once per cell into ``served``, the factor
    ``lookup_many`` returns for every row in that cell: the cell factor when
    the cell holds at least ``min_cell_count`` fitted records; else the
    geometric mean of the cell's per-feature marginal factors when every one
    of those marginal buckets is populated; else the global mean.
    """

    edges: BucketEdges
    global_mean: float
    smoothing_prior_weight: float
    clip_bounds: tuple[float, float] | None
    factors: np.ndarray
    counts: np.ndarray
    marginal_factors: tuple[np.ndarray, ...]
    marginal_counts: tuple[np.ndarray, ...]
    min_cell_count: int = 50
    schema_digest: str = ""
    served: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dims = self.edges.dims
        size = int(np.prod(dims))
        factors = _read_only(self.factors, np.float64)
        counts = _read_only(self.counts, np.int64)
        marginal_factors = tuple(_read_only(m, np.float64) for m in self.marginal_factors)
        marginal_counts = tuple(_read_only(m, np.int64) for m in self.marginal_counts)
        got = [a.shape for a in (factors, counts, *marginal_factors, *marginal_counts)]
        want = [(size,)] * 2 + [(k,) for k in dims] * 2
        if got != want:
            raise ValueError(f"table arrays have shapes {got}, expected {want}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "marginal_factors", marginal_factors)
        object.__setattr__(self, "marginal_counts", marginal_counts)

        # the back-off chain over the cells: the same element-wise formula a
        # per-row chain runs, so a looked-up factor has the same bits
        cell_idx = np.unravel_index(np.arange(size), dims)
        n_feat = len(dims)
        log_sum = np.zeros(size)
        all_pop = np.ones(size, dtype=bool)
        for j in range(n_feat):
            mf = marginal_factors[j][cell_idx[j]]
            pop = marginal_counts[j][cell_idx[j]] > 0
            all_pop &= pop
            log_sum += np.where(pop, np.log(np.maximum(mf, 1e-300)), 0.0)
        backoff = np.where(all_pop, np.exp(log_sum / n_feat), self.global_mean)
        served = np.where(counts >= self.min_cell_count, factors, backoff)
        served.flags.writeable = False
        object.__setattr__(self, "served", served)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.edges.dims

    def to_dict(self) -> dict:
        populated = np.flatnonzero(self.counts > 0)
        cells = {}
        for code in populated:
            idx = np.unravel_index(code, self.dims)
            key = ",".join(str(int(i)) for i in idx)
            cells[key] = {
                "factor": float(self.factors[code]),
                "count": int(self.counts[code]),
            }
        return {
            "edges": self.edges.to_dict(),
            "global_mean": self.global_mean,
            "smoothing_prior_weight": self.smoothing_prior_weight,
            "clip_bounds": list(self.clip_bounds) if self.clip_bounds else None,
            "min_cell_count": self.min_cell_count,
            "schema_digest": self.schema_digest,
            "cells": cells,
            "marginal_factors": [m.tolist() for m in self.marginal_factors],
            "marginal_counts": [m.tolist() for m in self.marginal_counts],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AdjustmentTable":
        """Rebuild a table; a stored schema digest must match its edges' schema."""
        edges = BucketEdges.from_dict(d["edges"])
        digest = d.get("schema_digest", "")
        if digest and digest != edges.schema.digest():
            raise ValueError(
                f"table schema digest {digest} does not match its edges' schema "
                f"({edges.schema.digest()})"
            )
        dims = edges.dims
        gm = float(d["global_mean"])
        m = float(d["smoothing_prior_weight"])
        clip = tuple(d["clip_bounds"]) if d["clip_bounds"] else None
        size = int(np.prod(dims))
        factors = np.full(size, _prior_factor(gm, clip))
        counts = np.zeros(size, dtype=np.int64)
        for key, cell in d["cells"].items():
            idx = tuple(int(x) for x in key.split(","))
            code = int(np.ravel_multi_index(idx, dims))
            factors[code] = float(cell["factor"])
            counts[code] = int(cell["count"])
        return cls(
            edges=edges,
            global_mean=gm,
            smoothing_prior_weight=m,
            clip_bounds=clip,
            factors=factors,
            counts=counts,
            marginal_factors=tuple(d["marginal_factors"]),
            marginal_counts=tuple(d["marginal_counts"]),
            min_cell_count=int(d["min_cell_count"]),
            schema_digest=digest,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "AdjustmentTable":
        return cls.from_dict(json.loads(Path(path).read_bytes()))


def _read_only(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _prior_factor(gm: float, clip: tuple[float, float] | None) -> float:
    # factor an unstored cell carries: the prior-only (global) mean, clipped
    if clip is not None:
        return min(max(gm, clip[0] * gm), clip[1] * gm)
    return gm


def _smooth_and_clip(
    sums: np.ndarray,
    counts: np.ndarray,
    gm: float,
    m: float,
    clip: tuple[float, float] | None,
) -> np.ndarray:
    if m > 0:
        factors = (sums + m * gm) / (counts + m)
    else:
        factors = np.full_like(sums, gm)
        seen = counts > 0
        factors[seen] = sums[seen] / counts[seen]
    if clip is not None:
        np.clip(factors, clip[0] * gm, clip[1] * gm, out=factors)
    return factors


def check_table_settings(
    smoothing_prior_weight: float, clip_bounds: tuple[float, float] | None
) -> None:
    """The table's smoothing and clipping ranges, checked at config load and at fit."""
    if smoothing_prior_weight < 0:
        raise ValueError(f"smoothing_prior_weight: must be >= 0, got {smoothing_prior_weight}")
    if clip_bounds is not None and not (0 < clip_bounds[0] <= clip_bounds[1]):
        raise ValueError(f"clip_bounds: must satisfy 0 < low <= high, got {list(clip_bounds)}")


def fit_table(
    log: InteractionLog,
    edges: BucketEdges,
    smoothing_prior_weight: float,
    clip_bounds: tuple[float, float] | None,
    min_cell_count: int,
) -> AdjustmentTable:
    """Fit the per-cell adjustment table on a log of finite features and positive scores.

    Cell factor = (sum of scores + m * global_mean) / (count + m), clipped
    into clip_bounds * global_mean; marginal per-feature tables use the same
    formula. With m = 0 and no clipping a populated cell's factor is the
    exact arithmetic mean of the scores in that cell.
    """
    if len(log) == 0:
        raise ValueError("cannot fit a table on an empty log")
    _require_fittable(log)
    check_table_settings(smoothing_prior_weight, clip_bounds)
    gm = float(np.mean(log.urps))
    m = float(smoothing_prior_weight)
    codes = edges.cell_codes(log.features)
    dims = edges.dims
    cell_idx = np.unravel_index(codes, dims)
    size = int(np.prod(dims))
    sums = np.bincount(codes, weights=log.urps, minlength=size)
    counts = np.bincount(codes, minlength=size).astype(np.int64)
    factors = _smooth_and_clip(sums, counts.astype(np.float64), gm, m, clip_bounds)

    marginal_factors, marginal_counts = [], []
    for j in range(edges.schema.arity):
        k_eff = dims[j]
        msums = np.bincount(cell_idx[j], weights=log.urps, minlength=k_eff)
        mcounts = np.bincount(cell_idx[j], minlength=k_eff).astype(np.int64)
        marginal_factors.append(
            _smooth_and_clip(msums, mcounts.astype(np.float64), gm, m, clip_bounds)
        )
        marginal_counts.append(mcounts)

    return AdjustmentTable(
        edges=edges,
        global_mean=gm,
        smoothing_prior_weight=m,
        clip_bounds=clip_bounds,
        factors=factors,
        counts=counts,
        marginal_factors=marginal_factors,
        marginal_counts=marginal_counts,
        min_cell_count=min_cell_count,
        schema_digest=edges.schema.digest(),
    )


def lookup_many(table: AdjustmentTable, features: np.ndarray) -> np.ndarray:
    """Factor per row of an (n, arity) batch, with back-off; always positive and finite.

    Each row gets the factor its cell serves (``AdjustmentTable.served``),
    where the table resolved the cell -> marginal -> global back-off chain.
    """
    return table.served[table.edges.cell_codes(features)]
