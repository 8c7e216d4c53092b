"""Ranking policies for experiment arms.

Each policy turns observed candidate scores into a deterministic slate
ordering; treatment policies wrap the fitted correction artifacts, baseline
policies are the deployable popularity-oriented comparators (global
popularity penalty, static boost, quota re-ranking). Policies rank all
users' pools at once (rows of the input matrices).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .bucketizer import AdjustmentTable
from .core import FeatureSchema, load
from .debias import MODES, DebiasConfig, debias_scores, factor_source
from .simulator import ControlPolicy, PolicyContext, order_rows_by_key

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

    def rank_batch(self, pools, urps, features, ctx: PolicyContext):
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

    def rank_batch(self, pools, urps, features, ctx: PolicyContext):
        pop = ctx.state.item_impressions[pools]
        key = log_pop_penalize(urps, pop, self.lambda_pop)
        return order_rows_by_key(key)


class StaticBoostPolicy:
    """Fixed multiplier for candidates below a familiarity threshold."""

    def __init__(self, rule: BoostRule, schema: FeatureSchema):
        self.rule = rule
        self.schema = schema
        self._j = 0 if rule.feature is None else schema.index_of(rule.feature)

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
    item-popularity terciles. Stratum caps are quota * slate_size; the
    quota dict holds ``Quota``'s fields, and strata missing from it are
    uncapped.
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
        self.kind = kind
        self.quota = Quota(**quota)
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
            [getattr(self.quota, s) * self.slate_size for s in STRATA], dtype=np.float64
        )
        out = np.empty_like(base)
        for u in range(base.shape[0]):
            out[u] = _greedy_quota_row(base[u], levels[u], caps, self.slate_size)
        return out


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
        return QuotaRerankPolicy("item", asdict(p.quota), slate_size)
    # the one name left is user_centric, whose strata need the fitted table's edges
    edges = None if table is None else table.edges
    feature = schema.names[0] if p.feature is None else p.feature
    return QuotaRerankPolicy("user", asdict(p.quota), slate_size, edges=edges, feature=feature)
