"""Ranking policies for experiment arms.

Each policy turns observed candidate scores into a deterministic slate
ordering; treatment policies wrap the fitted correction artifacts, baseline
policies are the deployable popularity-oriented comparators (global
popularity penalty, static boost, quota re-ranking). Policies rank all
users' pools at once (rows of the input matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bucketizer import AdjustmentTable
from .core import FeatureSchema
from .debias import DebiasConfig, debias_scores, factor_source
from .simulator import ControlPolicy, PolicyContext, order_rows_by_key

__all__ = [
    "ControlPolicy",
    "DebiasPolicy",
    "LogPopPolicy",
    "StaticBoostPolicy",
    "QuotaRerankPolicy",
    "build_policy",
]

# policy names an arm may use; build_policy constructs each of them
POLICY_NAMES = ("control", "debias", "log_pop", "static_boost", "user_centric", "item_centric")

STRATA = ("low", "med", "high")


def log_pop_penalize(s, item_popularity, lambda_pop: float):
    """Penalized score s / (1 + popularity) ** lambda_pop; item-global."""
    if lambda_pop < 0:
        raise ValueError("lambda_pop must be >= 0")
    if np.any(np.asarray(item_popularity) < 0):
        raise ValueError("popularity must be >= 0")
    return s / (1.0 + item_popularity) ** lambda_pop


def popularity_terciles(all_counts: np.ndarray) -> tuple[float, float]:
    """Global popularity tercile thresholds (low <= t1 < med <= t2 < high)."""
    t1, t2 = np.quantile(np.asarray(all_counts, dtype=np.float64), [1 / 3, 2 / 3])
    return float(t1), float(t2)


@dataclass(frozen=True)
class BoostRule:
    """Fixed multiplier applied when one feature sits below a threshold."""

    feature: str
    threshold: float
    multiplier: float


class DebiasPolicy:
    """Rank by the corrected score from a fitted table or regressor."""

    def __init__(self, artifact, config: DebiasConfig):
        self.artifact = artifact
        self.config = config
        self._factors_of, self._ref_mean = factor_source(artifact)

    def rank_batch(self, pools, urps, features, ctx: PolicyContext):
        flat = features.reshape(-1, features.shape[-1])
        factors = self._factors_of(flat).reshape(urps.shape)
        key = debias_scores(urps, factors, self.config, self._ref_mean)
        return order_rows_by_key(key)


class LogPopPolicy:
    """Rank by the score divided by (1 + live global exposure) ** lambda."""

    def __init__(self, lambda_pop: float):
        if lambda_pop < 0:
            raise ValueError("lambda_pop must be >= 0")
        self.lambda_pop = lambda_pop

    def rank_batch(self, pools, urps, features, ctx: PolicyContext):
        pop = ctx.state.item_impressions[pools]
        key = log_pop_penalize(urps, pop, self.lambda_pop)
        return order_rows_by_key(key)


class StaticBoostPolicy:
    """Fixed multiplier for candidates below a familiarity threshold."""

    def __init__(self, rule: BoostRule, schema: FeatureSchema):
        self.rule = rule
        self.schema = schema
        self._j = schema.index_of(rule.feature)

    def rank_batch(self, pools, urps, features, ctx: PolicyContext):
        boosted = np.where(
            features[..., self._j] < self.rule.threshold, self.rule.multiplier, 1.0
        )
        return order_rows_by_key(urps * boosted)


def _greedy_quota_row(
    base_row: np.ndarray, level_row: np.ndarray, caps: np.ndarray, slate_size: int
) -> np.ndarray:
    """One row of quota admission; only the first slate_size entries matter."""
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


class QuotaRerankPolicy:
    """Greedy quota admission over the raw-score order.

    ``kind`` selects the strata source: "user" buckets the user's own
    familiarity feature through the fitted edges, "item" uses live global
    item-popularity terciles. Stratum caps are quota * slate_size; strata
    missing from the quota dict are uncapped, and the effective quotas must
    sum to at least 1.
    """

    def __init__(
        self,
        kind: str,
        quota: dict,
        slate_size: int,
        edges=None,
        feature: str | None = None,
    ):
        if kind not in ("user", "item"):
            raise ValueError("kind must be 'user' or 'item'")
        if kind == "user" and (edges is None or feature is None):
            raise ValueError("user-centric rerank needs fitted edges and a feature")
        effective = {s: 1.0 for s in STRATA}
        effective.update(quota)
        if sum(effective.values()) < 1.0:
            raise ValueError("stratum quotas must sum to at least 1")
        self.kind = kind
        self.quota = effective
        self.slate_size = slate_size
        self.edges = edges
        self.feature = feature

    def _levels(self, pools, features, ctx: PolicyContext) -> np.ndarray:
        if self.kind == "user":
            j = self.edges.schema.index_of(self.feature)
            cuts = self.edges.cuts[j]
            bucket = np.searchsorted(cuts, features[..., j], side="right")
            return np.minimum((3 * bucket) // max(cuts.size + 1, 1), 2)
        thresholds = popularity_terciles(ctx.state.item_impressions)
        pop = ctx.state.item_impressions[pools]
        return np.minimum(np.searchsorted(np.asarray(thresholds), pop, side="left"), 2)

    def rank_batch(self, pools, urps, features, ctx: PolicyContext):
        base = order_rows_by_key(urps)
        levels = self._levels(pools, features, ctx)
        caps = np.asarray(
            [self.quota[s] * self.slate_size for s in STRATA], dtype=np.float64
        )
        out = np.empty_like(base)
        for u in range(base.shape[0]):
            out[u] = _greedy_quota_row(base[u], levels[u], caps, self.slate_size)
        return out


def build_policy(
    name: str,
    params: dict,
    schema: FeatureSchema,
    slate_size: int,
    table: AdjustmentTable | None = None,
    model=None,
    debias_config: DebiasConfig | None = None,
):
    """Instantiate a policy from its config entry.

    Raises KeyError for unknown policies and ValueError when a policy needs
    a fitted artifact that was not supplied.
    """
    if name not in POLICY_NAMES:
        raise KeyError(f"unknown policy {name!r}")
    if name == "control":
        return ControlPolicy()
    if name == "debias":
        mode = params.get("mode", "discrete")
        base = debias_config or DebiasConfig()
        config = DebiasConfig(
            mode=mode,
            floor=base.floor,
            floor_fraction=base.floor_fraction,
            strength=float(params.get("strength", base.strength)),
        )
        artifact = table if mode == "discrete" else model
        if artifact is None:
            raise ValueError(f"debias policy in {mode} mode needs a fitted artifact")
        return DebiasPolicy(artifact, config)
    if name == "log_pop":
        return LogPopPolicy(float(params.get("lambda_pop", 0.1)))
    if name == "static_boost":
        rule = BoostRule(
            feature=params.get("feature", schema.names[0]),
            threshold=float(params.get("threshold", 1.0)),
            multiplier=float(params.get("multiplier", 1.25)),
        )
        return StaticBoostPolicy(rule, schema)
    if name == "user_centric":
        if table is None:
            raise ValueError("user-centric rerank needs a fitted table for strata")
        return QuotaRerankPolicy(
            kind="user",
            quota=dict(params.get("quota", {"high": 0.35})),
            slate_size=slate_size,
            edges=table.edges,
            feature=params.get("feature", schema.names[0]),
        )
    # the one name left in POLICY_NAMES is item_centric
    return QuotaRerankPolicy(
        kind="item",
        quota=dict(params.get("quota", {"high": 0.35})),
        slate_size=slate_size,
    )
