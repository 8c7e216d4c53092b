"""Ranking policies for experiment arms.

Each policy turns observed candidate scores into a deterministic slate
ordering; treatment policies wrap the fitted correction artifacts, baseline
policies are the deployable popularity-oriented comparators (global
popularity penalty, static boost, quota re-ranking). Policies rank all
users' pools at once (rows of the input matrices).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bucketizer import AdjustmentTable, bucket_thirds
from .core import FeatureSchema, load
from .debias import MODES, DebiasConfig, debias_scores, factor_source
from .simulator import ControlPolicy, order_rows_by_key

__all__ = [
    "ControlPolicy",
    "DebiasPolicy",
    "LogPopPolicy",
    "StaticBoostPolicy",
    "QuotaRerankPolicy",
    "build_policy",
]

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
class DebiasParams:
    mode: str = "discrete"
    strength: float | None = None  # None: the experiment's debias.strength

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if self.strength is not None:
            DebiasConfig(strength=self.strength)  # its range check


@dataclass(frozen=True)
class BoostRule:
    """Fixed multiplier applied when one feature sits below a threshold.

    It is also the ``static_boost`` arm's parameters; ``feature`` None is
    the schema's first feature.
    """

    feature: str | None = None
    threshold: float = 1.0
    multiplier: float = 1.25


@dataclass(frozen=True)
class Quota:
    """Largest share of the slate per stratum; a share of 1 leaves it uncapped."""

    low: float = 1.0
    med: float = 1.0
    high: float = 1.0

    def __post_init__(self) -> None:
        for stratum in STRATA:
            share = getattr(self, stratum)
            if not (0.0 <= share <= 1.0):
                raise ValueError(f"{stratum}: share must be in [0, 1], got {share}")
        if self.low + self.med + self.high < 1.0:
            raise ValueError("stratum quotas must sum to at least 1")


@dataclass(frozen=True)
class ItemQuotaParams:
    quota: Quota = Quota(high=0.35)


@dataclass(frozen=True)
class UserQuotaParams(ItemQuotaParams):
    feature: str | None = None  # None: the schema's first feature


class DebiasPolicy:
    """Rank by the corrected score from a fitted table or regressor."""

    def __init__(self, artifact, config: DebiasConfig):
        self.artifact = artifact
        self.config = config
        self._factors_of, self._ref_mean = factor_source(artifact)

    def rank_batch(self, pools, urps, features, item_impressions):
        flat = features.reshape(-1, features.shape[-1])
        factors = self._factors_of(flat).reshape(urps.shape)
        key = debias_scores(urps, factors, self.config, self._ref_mean)
        return order_rows_by_key(key)


@dataclass(frozen=True)
class LogPopPolicy:
    """Rank by the score divided by (1 + live global exposure) ** lambda."""

    lambda_pop: float = 0.1

    def __post_init__(self) -> None:
        if self.lambda_pop < 0:
            raise ValueError(f"lambda_pop: must be >= 0, got {self.lambda_pop}")

    def rank_batch(self, pools, urps, features, item_impressions):
        pop = item_impressions[pools]
        key = log_pop_penalize(urps, pop, self.lambda_pop)
        return order_rows_by_key(key)


class StaticBoostPolicy:
    """Fixed multiplier for candidates below a familiarity threshold."""

    def __init__(self, rule: BoostRule, schema: FeatureSchema):
        self.rule = rule
        self.schema = schema
        self._j = 0 if rule.feature is None else schema.index_of(rule.feature)

    def rank_batch(self, pools, urps, features, item_impressions):
        boosted = np.where(
            features[..., self._j] < self.rule.threshold, self.rule.multiplier, 1.0
        )
        return order_rows_by_key(urps * boosted)


class QuotaRerankPolicy:
    """Greedy quota admission over the raw-score order.

    ``kind`` selects the strata source: "user" buckets the user's own
    familiarity feature through the fitted edges, "item" uses live global
    item-popularity terciles. Stratum caps are quota * slate_size. Scanning
    the raw-score order, a candidate is admitted while its stratum is under
    its cap, else deferred; the scan stops at the slate_size-th admission.
    The order is the admitted, then the deferred, then the unscanned
    candidates, each in raw-score order.
    """

    def __init__(
        self,
        kind: str,
        quota: Quota,
        slate_size: int,
        edges=None,
        feature: str | None = None,
    ):
        if kind not in ("user", "item"):
            raise ValueError("kind must be 'user' or 'item'")
        if kind == "user" and (edges is None or feature is None):
            raise ValueError("user-centric rerank needs fitted edges and a feature")
        self.kind = kind
        self.quota = quota
        self.slate_size = slate_size
        self.edges = edges
        self.feature = feature

    def _levels(self, pools, features, item_impressions) -> np.ndarray:
        if self.kind == "user":
            j = self.edges.schema.index_of(self.feature)
            return bucket_thirds(self.edges.cuts[j], features[..., j])
        thresholds = popularity_terciles(item_impressions)
        pop = item_impressions[pools]
        return np.minimum(np.searchsorted(np.asarray(thresholds), pop, side="left"), 2)

    def rank_batch(self, pools, urps, features, item_impressions):
        base = order_rows_by_key(urps)
        strata = np.take_along_axis(self._levels(pools, features, item_impressions), base, axis=1)
        caps = np.asarray([getattr(self.quota, s) for s in STRATA]) * self.slate_size
        # the k-th candidate of a stratum (from 0) is admitted iff k < its cap
        earlier = np.zeros(base.shape, dtype=np.int64)
        for s in range(len(STRATA)):
            in_s = strata == s
            earlier[in_s] = (np.cumsum(in_s, axis=1) - 1)[in_s]
        admitted = earlier < caps[strata]
        scanned = np.cumsum(admitted, axis=1) - admitted < self.slate_size
        # int8 keys: numpy's stable sort of small integers is a radix sort
        group = np.where(scanned, np.where(admitted, 0, 1), 2).astype(np.int8)
        return np.take_along_axis(base, np.argsort(group, axis=1, kind="stable"), axis=1)


# the parameters of each policy an arm may use; build_policy constructs each of
# them, and the parameters of control and log_pop are the policies themselves
POLICY_PARAMS = {
    "control": ControlPolicy,
    "debias": DebiasParams,
    "log_pop": LogPopPolicy,
    "static_boost": BoostRule,
    "user_centric": UserQuotaParams,
    "item_centric": ItemQuotaParams,
}


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

    ``params`` load into the policy's entry of ``POLICY_PARAMS``, so a bad
    key or value raises ``ConfigError``. Raises KeyError for unknown
    policies and ValueError when a policy needs a fitted artifact that was
    not supplied.
    """
    if name not in POLICY_PARAMS:
        raise KeyError(f"unknown policy {name!r}")
    p = load(POLICY_PARAMS[name], params, "params")
    if name in ("control", "log_pop"):
        return p
    if name == "debias":
        base = debias_config or DebiasConfig()
        config = base if p.strength is None else replace(base, strength=p.strength)
        artifact = table if p.mode == "discrete" else model
        if artifact is None:
            raise ValueError(f"debias policy in {p.mode} mode needs a fitted artifact")
        return DebiasPolicy(artifact, config)
    if name == "static_boost":
        return StaticBoostPolicy(p, schema)
    if name == "item_centric":
        return QuotaRerankPolicy("item", p.quota, slate_size)
    # the one name left is user_centric, whose strata need the fitted table's edges
    edges = None if table is None else table.edges
    feature = schema.names[0] if p.feature is None else p.feature
    return QuotaRerankPolicy("user", p.quota, slate_size, edges=edges, feature=feature)
