"""Synthetic user-item universe with a known familiarity-inflation process.

The generator is the oracle: observed scores are built as
``true_quality * g(familiarity) * lognormal_noise`` with a declared
inflation surface g, so every recovery test can compare a fitted estimator
against the exact conditional mean. Sessions form a closed loop (consumed
recommendations update familiarity state), and experiment arms share the
candidate pools, the score noise and the watch-time draws, so comparisons
are paired (common random numbers). The draws depend only on (seed,
session), so ``run_paired_arms`` builds each session's draws once and
steps every arm against them; each arm keeps its own state and log, and its
result equals a run of that policy alone, so worker processes can step
disjoint sets of arms without changing any output. The arrays a worker
fills are allocated in shared memory before the fork and filled in place,
never replaced, so its writes land in the calling process's arrays. Users
advance independently within a session; the implementation batches them
for speed without changing any per-user result.
"""

from __future__ import annotations

import mmap
import os
import selectors
import signal
import traceback
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, NoReturn, Protocol

import numpy as np

from .core import FeatureSchema, InteractionLog

DAY = 86400.0

FEATURE_CATALOG = {
    "item_watch_count": "count",
    "creator_watch_count": "count",
    "days_since_last_watch": "recency",
    "creator_affinity": "affinity",
}

DEFAULT_ALPHAS = {"count": 0.6, "recency": 0.4, "affinity": 0.3}

_KIND_MONOTONICITY = {
    "count": "increasing-with-familiarity",
    "recency": "decreasing-with-familiarity",
    "affinity": "increasing-with-familiarity",
}


@dataclass(frozen=True)
class FeatureSpec:
    """One familiarity feature and its contribution to the inflation surface."""

    name: str
    kind: str
    alpha: float | None = None
    tau_days: float = 7.0
    cap_days: float = 365.0

    def __post_init__(self) -> None:
        if self.name not in FEATURE_CATALOG:
            raise ValueError(
                f"name: {self.name!r} is not in the simulator catalog {list(FEATURE_CATALOG)}"
            )
        kind = FEATURE_CATALOG[self.name]
        if self.kind != kind:
            raise ValueError(f"kind: {self.name!r} is a {kind!r} feature, got {self.kind!r}")

    def effective_alpha(self) -> float:
        return DEFAULT_ALPHAS[self.kind] if self.alpha is None else self.alpha

    def transform(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "count":
            return np.log1p(values)
        if self.kind == "recency":
            return np.exp(-values / self.tau_days)
        return values  # affinity: identity


@dataclass(frozen=True)
class InflationSpec:
    """Multiplicative rating inflation g(b) = prod_i (1 + alpha_i * h_i(b_i)).

    h is log1p for count features, exp(-b/tau) for recency, identity for
    affinity. A never-interacted pair (counts 0, recency at cap, affinity 0)
    receives a factor of 1 up to float rounding.
    """

    features: tuple[FeatureSpec, ...]
    noise_sigma: float = 0.2

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("inflation spec needs at least one feature")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")

    @classmethod
    def default(cls, noise_sigma: float = 0.2) -> "InflationSpec":
        return cls(
            features=tuple(
                FeatureSpec(name=n, kind=k) for n, k in FEATURE_CATALOG.items()
            ),
            noise_sigma=noise_sigma,
        )

    def schema(self) -> FeatureSchema:
        return FeatureSchema(
            names=tuple(f.name for f in self.features),
            kinds=tuple(f.kind for f in self.features),
            monotonicity=tuple(_KIND_MONOTONICITY[f.kind] for f in self.features),
        )

    def g_many(self, features: np.ndarray) -> np.ndarray:
        """Inflation factor per row of a (..., arity) array."""
        features = np.asarray(features, dtype=np.float64)
        out = np.ones(features.shape[:-1])
        for j, f in enumerate(self.features):
            out = out * (1.0 + f.effective_alpha() * f.transform(features[..., j]))
        return out


@dataclass(frozen=True)
class UniverseConfig:
    """The ``universe`` section: ``Universe.build``'s argument, size-checked."""

    users: int
    items: int
    creators: int
    seed: int
    latent_dim: int = 8
    creator_size_exponent: float = 1.2
    recent_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.users < 1 or self.items < 1 or self.creators < 1:
            raise ValueError("universe dimensions must be positive")
        if self.items < self.creators:
            raise ValueError("need at least one item per creator")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim: must be at least 1, got {self.latent_dim}")
        if not (0.0 <= self.recent_fraction <= 1.0):
            raise ValueError(f"recent_fraction: must be in [0, 1], got {self.recent_fraction}")


class Universe:
    """Latent user/item vectors, creator ownership, and emerging-creator flags."""

    def __init__(
        self,
        user_vectors: np.ndarray,
        item_vectors: np.ndarray,
        item_creator: np.ndarray,
        creator_recent: np.ndarray,
        config: UniverseConfig,
    ):
        self.user_vectors = user_vectors
        self.item_vectors = item_vectors
        self.item_creator = item_creator
        self.creator_recent = creator_recent
        self.config = config

    @classmethod
    def build(cls, config: UniverseConfig) -> "Universe":
        users, items, creators = config.users, config.items, config.creators
        rng = np.random.default_rng(config.seed)
        user_vectors = rng.standard_normal((users, config.latent_dim))
        item_vectors = rng.standard_normal((items, config.latent_dim))
        # power-law creator catalog sizes; every creator owns at least one
        # item (coverage block sits at the tail indices so a head-heavy pool
        # prior leaves the creator-size structure intact)
        weights = np.arange(1, creators + 1, dtype=np.float64) ** (-config.creator_size_exponent)
        probs = weights / weights.sum()
        item_creator = np.concatenate(
            [
                rng.choice(creators, size=items - creators, p=probs).astype(np.int64),
                np.arange(creators, dtype=np.int64),
            ]
        )
        # recent joiners are drawn from the smaller-catalog tail
        tail_start = int(0.4 * creators)
        tail = np.arange(tail_start, creators)
        n_recent = min(int(round(config.recent_fraction * creators)), tail.size)
        recent = np.zeros(creators, dtype=bool)
        if n_recent > 0:
            recent[rng.choice(tail, size=n_recent, replace=False)] = True
        return cls(
            user_vectors=user_vectors,
            item_vectors=item_vectors,
            item_creator=item_creator,
            creator_recent=recent,
            config=config,
        )

    @property
    def n_users(self) -> int:
        return self.user_vectors.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_vectors.shape[0]

    @property
    def n_creators(self) -> int:
        return self.creator_recent.size

    @property
    def latent_dim(self) -> int:
        return self.user_vectors.shape[1]

    def quality_batch(self, pools: np.ndarray) -> np.ndarray:
        """Quality matrix for per-user pools of shape (n_users, pool)."""
        gathered = self.item_vectors[pools]  # (U, P, d)
        dots = np.einsum("ud,upd->up", self.user_vectors, gathered)
        return np.exp(dots / np.sqrt(self.latent_dim))

    def manifest(self) -> dict:
        params = asdict(self.config)
        return {
            "seed": params.pop("seed"),
            "params": params,
            "creator_recent": self.creator_recent.astype(int).tolist(),
            "creator_item_counts": np.bincount(
                self.item_creator, minlength=self.n_creators
            ).tolist(),
        }


@dataclass(frozen=True)
class SessionConfig:
    """Closed-loop schedule: one session per user per simulated day.

    ``pool_skew`` > 0 draws candidate pools from a static head-heavy item
    prior (``PoolPrior``, weight (index+1)**-skew) instead of uniformly; the
    prior is independent of run state, so arms still see identical pools, and
    item quality is independent of index, so the skew carries no quality
    signal.
    """

    sessions: int = 50
    pool_size: int = 200
    slate_size: int = 20
    consume_top_k: int = 10
    pool_skew: float = 0.0
    wt_scale: float = 60.0
    wt_familiarity_weight: float = 0.0
    affinity_half_life_days: float = 14.0
    start_day: float = 1.0

    def __post_init__(self) -> None:
        if self.slate_size < 1:
            raise ValueError(f"slate_size: must be at least 1, got {self.slate_size}")
        if self.consume_top_k < 0:
            raise ValueError(f"consume_top_k: must be >= 0, got {self.consume_top_k}")
        if self.slate_size > self.pool_size:
            raise ValueError("slate size cannot exceed pool size")
        if self.consume_top_k > self.slate_size:
            raise ValueError("consume_top_k cannot exceed slate size")
        if self.sessions < 1 or self.pool_size < 1:
            raise ValueError("sessions and pool size must be positive")
        if self.pool_skew < 0:
            raise ValueError("pool skew must be >= 0")
        if self.wt_scale <= 0 or self.affinity_half_life_days <= 0:
            raise ValueError("wt scale and affinity half-life must be positive")
        if self.start_day <= 0:
            # log timestamps must be positive, and the session's time is
            # (start_day + session) days
            raise ValueError(f"start_day: must be positive, got {self.start_day}")


@dataclass(frozen=True, eq=False)
class PoolPrior:
    """Static head-heavy item prior, weight (index+1)**-skew, drawn by inversion.

    ``draw`` equals ``np.searchsorted(cdf, u, side="right")`` for every u in
    [0, 1). A guide table (Chen and Asau, 1974; Devroye, 1986, III.2.4) holds
    that search's answer at each bin edge b / 2**18. A u whose bin holds no
    cdf entry takes its answer from the table, and only the others are
    searched. Scaling by a power of two is exact, so the table is exact.
    """

    cdf: np.ndarray
    guide: np.ndarray  # guide[b] = searchsorted(cdf, b / 2**18, side="right")

    BINS = 1 << 18

    @classmethod
    def build(cls, n_items: int, skew: float) -> "PoolPrior":
        weights = np.arange(1, n_items + 1, dtype=np.float64) ** (-skew)
        # the rounded running sum may pass 1 or end short of it, which maps
        # the top draws past the catalog; no draw reaches 1, so clipping at 1
        # and ending at exactly 1 moves only those draws
        cdf = np.minimum(np.cumsum(weights / weights.sum()), 1.0)
        cdf[-1] = 1.0
        # cdf[i] <= b / BINS iff ceil(cdf[i] * BINS) <= b
        edges = np.ceil(cdf * cls.BINS).astype(np.int64)
        guide = np.cumsum(np.bincount(edges, minlength=cls.BINS + 1)).astype(np.int32)
        return cls(cdf=cdf, guide=guide)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Item index per uniform u in [0, 1), any shape."""
        b = (u * self.BINS).astype(np.intp)
        lo = self.guide[b]
        out = lo.astype(np.int64)
        split = lo != self.guide[b + 1]
        out[split] = np.searchsorted(self.cdf, u[split], side="right")
        return out


def expected_distinct(n_items: int, skew: float, draws: int) -> float:
    """Expected number of distinct items in ``draws`` draws from the pool prior.

    E(D) = sum_i 1 - (1 - p_i)**D over the item weights (i + 1)**-skew (the
    unequal-probability coupon collector; Flajolet, Gardy and Thimonier,
    1992); skew 0 is the uniform draw. E grows with D, and over more than
    one item it stays below ``n_items`` for every D.
    """
    weights = np.arange(1, n_items + 1, dtype=np.float64) ** (-skew)
    with np.errstate(divide="ignore"):  # a one-item catalog has p = 1
        log_miss = np.log1p(-weights / weights.sum())
    return float(-np.expm1(draws * log_miss).sum())


class SessionState:
    """Per-user familiarity bookkeeping plus global exposure counters.

    (user, item) state, a watch count and the last watch timestamp, lives in
    arrays parallel to the sorted keys user * n_items + item, because users x
    items is too large to hold densely. A sentinel key above every real key
    keeps the keys non-empty, so each search lands on a valid slot.
    (user, creator) state is three dense (users, creators) float64 arrays:
    the watch count, the decayed interaction mass and the mass timestamp. An
    untouched cell is all zeros, so its mass reads 0.0 at any session time.
    Creator affinity is the decayed share: creator mass over the user's
    total decayed mass, always in [0, 1]. ``item_impressions`` (per item)
    and ``user_creator_impressions`` (users x creators) count slate
    exposure.
    """

    def __init__(self, universe: Universe, inflation: InflationSpec, cfg: SessionConfig):
        self.universe = universe
        self.inflation = inflation
        self._item_keys = np.array([np.iinfo(np.int64).max])
        self._item_count = np.zeros(1)
        self._item_ts = np.zeros(1)
        shape = (universe.n_users, universe.n_creators)
        self._creator_count = np.zeros(shape)
        self._creator_mass = np.zeros(shape)
        self._creator_mass_ts = np.zeros(shape)
        self._total_mass = np.zeros(universe.n_users)
        self._total_mass_ts = np.zeros(universe.n_users)
        self.item_impressions = np.zeros(universe.n_items, dtype=np.int64)
        self.user_creator_impressions = np.zeros(shape, dtype=np.int32)
        self._tau_seconds = cfg.affinity_half_life_days * DAY / np.log(2.0)

    def features_batch(self, user_ids: np.ndarray, pools: np.ndarray, now: float) -> np.ndarray:
        """Familiarity tensor (n_rows, pool, n_features) read at observation time."""
        rows = user_ids[:, None]
        ikeys = rows * self.universe.n_items + pools
        ipos = np.searchsorted(self._item_keys, ikeys)
        ifound = self._item_keys[ipos] == ikeys
        watch_count = np.where(ifound, self._item_count[ipos], 0.0)
        last_ts = np.where(ifound, self._item_ts[ipos], 0.0)

        creators = self.universe.item_creator[pools]
        total = self._total_mass[user_ids]
        total_ts = self._total_mass_ts[user_ids]
        with np.errstate(divide="ignore", invalid="ignore"):
            total_now = total * np.exp(-(now - total_ts) / self._tau_seconds)
            mass_now = self._creator_mass[rows, creators] * np.exp(
                -(now - self._creator_mass_ts[rows, creators]) / self._tau_seconds
            )
            affinity = np.where(
                total_now[:, None] > 0, mass_now / np.maximum(total_now[:, None], 1e-300), 0.0
            )

        cols = []
        for f in self.inflation.features:
            if f.name == "item_watch_count":
                cols.append(watch_count)
            elif f.name == "creator_watch_count":
                cols.append(self._creator_count[rows, creators])
            elif f.name == "days_since_last_watch":
                days = np.where(ifound, (now - last_ts) / DAY, f.cap_days)
                cols.append(np.minimum(days, f.cap_days))
            else:  # creator_affinity, the one catalog feature left
                cols.append(affinity)
        return np.stack(cols, axis=-1)

    def consume_batch(self, user_ids: np.ndarray, items: np.ndarray, timestamps: np.ndarray) -> None:
        """Record consumptions for many users at once.

        ``items`` holds distinct items per row; (user, item) keys are unique
        across the batch. Counts bump, recency refreshes, and creator mass
        decays to ``now`` before the new events are added.
        """
        rows = user_ids[:, None]
        now = float(timestamps.max())
        ikeys = (rows * self.universe.n_items + items).ravel()
        order = np.argsort(ikeys)
        ikeys_s = ikeys[order]
        ts_s = timestamps.ravel()[order]
        pos = np.searchsorted(self._item_keys, ikeys_s)
        found = self._item_keys[pos] == ikeys_s
        self._item_count[pos[found]] += 1.0
        self._item_ts[pos[found]] = ts_s[found]
        if not found.all():
            # new keys go in sorted, at the slots the search found
            miss = ~found
            at = pos[miss]
            self._item_keys = np.insert(self._item_keys, at, ikeys_s[miss])
            self._item_count = np.insert(self._item_count, at, 1.0)
            self._item_ts = np.insert(self._item_ts, at, ts_s[miss])

        cells = (rows * self.universe.n_creators + self.universe.item_creator[items]).ravel()
        cells, events = np.unique(cells, return_counts=True)
        count, mass, mass_ts = (
            a.reshape(-1) for a in (self._creator_count, self._creator_mass, self._creator_mass_ts)
        )
        count[cells] += events
        decay = np.exp(-(now - mass_ts[cells]) / self._tau_seconds)
        mass[cells] = mass[cells] * decay + events
        mass_ts[cells] = now

        k = items.shape[1]
        decay_total = np.exp(
            -(now - self._total_mass_ts[user_ids]) / self._tau_seconds
        )
        self._total_mass[user_ids] = self._total_mass[user_ids] * decay_total + k
        self._total_mass_ts[user_ids] = now

    def record_impressions_batch(self, user_ids: np.ndarray, slate_items: np.ndarray) -> None:
        flat = slate_items.ravel()
        # np.add.at stays for the item counts, where bincount over every item is slower
        np.add.at(self.item_impressions, flat, 1)
        matrix = self.user_creator_impressions
        cells = (
            np.repeat(user_ids, slate_items.shape[1]) * matrix.shape[1]
            + self.universe.item_creator[flat]
        )
        matrix += np.bincount(cells, minlength=matrix.size).reshape(matrix.shape)


class Policy(Protocol):
    def rank_batch(
        self,
        pools: np.ndarray,
        urps: np.ndarray,
        features: np.ndarray,
        item_impressions: np.ndarray | None,
    ) -> np.ndarray:
        """Per-row ordering of pool columns, best first; must be deterministic.

        ``item_impressions`` is the live global exposure per item; policies
        that do not read it accept None.
        """
        ...


def order_rows_by_key(key: np.ndarray) -> np.ndarray:
    """Row-wise descending stable order; pools are id-sorted so ties go to lower ids.

    Without ties every correct sort gives the stable order, so a batch whose
    sorted rows are strictly increasing (no equal keys, no NaN) takes
    numpy's faster default argsort; any other batch takes the stable one.
    """
    neg = -key
    s = np.sort(neg, axis=1)
    if (s[:, 1:] > s[:, :-1]).all():
        return neg.argsort(axis=1)
    return neg.argsort(axis=1, kind="stable")


@dataclass(frozen=True)
class ControlPolicy:
    """Rank by the raw observed score; it takes no parameters."""

    def rank_batch(self, pools, urps, features, item_impressions):
        return order_rows_by_key(urps)


def _stream_key(seed: int, session: int, user: int) -> int:
    return ((seed & ((1 << 64) - 1)) << 64) | ((session & 0xFFFFFFFF) << 32) | (
        user & 0xFFFFFFFF
    )


def _user_rng(seed: int, session: int, user: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, session, user)))


def sample_pool(
    rng: np.random.Generator,
    n_items: int,
    size: int,
    prior: PoolPrior | None = None,
) -> np.ndarray:
    """Without-replacement candidate pool from one stream.

    Draws with replacement (uniformly, or from the static prior when one is
    given) in rounds and keeps first occurrences, so the realized set
    depends only on the stream. Each round dedupes only its own draws
    against a mask of the values seen so far. The returned ids are sorted
    ascending.
    """
    if size > n_items:
        raise ValueError("pool size exceeds catalog size")
    seen = np.zeros(n_items, dtype=bool)
    chunks: list[np.ndarray] = []
    need = size
    while True:
        n_draw = need + max(8, need // 2)
        if prior is None:
            draw = rng.integers(0, n_items, size=n_draw)
        else:
            draw = prior.draw(rng.random(n_draw))
        uniq, first = np.unique(draw, return_index=True)
        new = draw[np.sort(first[~seen[uniq]])]  # this round's new values, in draw order
        seen[new] = True
        chunks.append(new[:need])
        need -= chunks[-1].size
        if need == 0:
            return np.sort(np.concatenate(chunks))


class SessionStreams:
    """Bulk per-session random draws, sliced per user.

    One counter-based stream is keyed by (seed, session) and drawn in a fixed
    layout independent of any policy or state, so every arm sees identical
    pools, score noise, and watch-time draws. Pool draws are uniform, or
    from ``prior`` when one is given; each user keeps the first
    ``pool_size`` distinct items of its row of draws (``_dedupe``).
    """

    _BULK_TAG = 0xFFFFFFFF  # reserved user slot for the session-level stream

    def __init__(
        self,
        seed: int,
        session: int,
        n_users: int,
        n_items: int,
        cfg: SessionConfig,
        prior: PoolPrior | None = None,
    ):
        rng = np.random.Generator(
            np.random.Philox(key=_stream_key(seed, session, self._BULK_TAG))
        )
        extra = int(cfg.pool_size * (0.15 + 0.55 * cfg.pool_skew))
        margin = cfg.pool_size + max(16, extra)
        if prior is None:
            pool_ints = rng.integers(0, n_items, size=(n_users, margin))
        else:
            pool_ints = prior.draw(rng.random((n_users, margin)))
        self.normals = rng.standard_normal((n_users, cfg.pool_size))
        self.exps = rng.exponential(1.0, size=(n_users, cfg.consume_top_k))
        self._seed = seed
        self._session = session
        self._n_items = n_items
        self._prior = prior
        self.pools = self._dedupe(pool_ints, cfg.pool_size)

    def _dedupe(self, pool_ints: np.ndarray, size: int) -> np.ndarray:
        """First ``size`` distinct draws per row, returned id-sorted.

        One sort of the keys value * margin + position orders each row by
        value, then by draw position: the quotient is the sorted values, the
        remainder the positions, and the first key of each run of equal
        values is that value's first draw. A row keeps the values whose
        first draw is among its ``size`` earliest first draws.
        """
        n_users, margin = pool_ints.shape
        keys = np.sort(pool_ints * margin + np.arange(margin), axis=1)
        values, positions = np.divmod(keys, margin)
        first = np.ones(keys.shape, dtype=bool)
        first[:, 1:] = values[:, 1:] != values[:, :-1]
        first_draw = np.where(first, positions, margin)
        # the size-th earliest first draw; margin when a row has too few values
        cutoff = np.partition(first_draw, size - 1, axis=1)[:, size - 1 : size]
        enough = cutoff[:, 0] < margin
        pools = np.empty((n_users, size), dtype=np.int64)
        pools[enough] = values[(first_draw <= cutoff) & enough[:, None]].reshape(-1, size)
        for u in np.flatnonzero(~enough):
            # shared draws fell short of `size` distinct items (tiny
            # catalogs or strong skew); fall back to this user's own
            # keyed stream, which is still identical across arms
            rng = _user_rng(self._seed, self._session, int(u))
            pools[u] = sample_pool(rng, self._n_items, size, prior=self._prior)
        return pools


@dataclass(frozen=True)
class SessionDraws:
    """One session's draws and quality, shared read-only by every arm.

    Nothing here depends on a policy or on familiarity state, so one build
    per (seed, session) serves all arms of a paired run.
    """

    session: int
    now: float
    pools: np.ndarray
    quality: np.ndarray
    noise: np.ndarray  # multiplicative score noise exp(noise_sigma * normal)
    exps: np.ndarray

    @classmethod
    def build(
        cls,
        universe: Universe,
        inflation: InflationSpec,
        cfg: SessionConfig,
        session: int,
        seed: int,
        prior: PoolPrior | None = None,
    ) -> "SessionDraws":
        streams = SessionStreams(
            seed, session, universe.n_users, universe.n_items, cfg, prior=prior
        )
        return cls(
            session=session,
            now=(cfg.start_day + session) * DAY,
            pools=streams.pools,
            quality=universe.quality_batch(streams.pools),
            noise=np.exp(inflation.noise_sigma * streams.normals),
            exps=streams.exps,
        )


@dataclass
class ArmResult:
    name: str
    log: InteractionLog
    item_impressions: np.ndarray
    user_creator_impressions: np.ndarray


class _LogColumns:
    """Log columns preallocated for a whole run, one block of rows per session.

    ``empty(shape, dtype)`` allocates them (``_shared_zeros`` if workers
    step the arms); ``put`` fills them in place, and nothing replaces them.
    """

    def __init__(self, rows_per_session: int, sessions: int, arity: int, empty: Callable):
        n = rows_per_session * sessions
        self.block = rows_per_session
        self.users = empty(n, np.int64)
        self.items = empty(n, np.int64)
        self.timestamps = empty(n, np.float64)
        self.watch_times = empty(n, np.float64)
        self.urps = empty(n, np.float64)
        self.features = empty((n, arity), np.float64)
        self.quality = empty(n, np.float64)
        self.inflation = empty(n, np.float64)

    def put(self, session: int, **columns: np.ndarray) -> None:
        rows = slice(session * self.block, (session + 1) * self.block)
        for name, values in columns.items():
            target = getattr(self, name)
            target[rows] = np.reshape(values, target[rows].shape)

    def to_log(self, universe: Universe, schema: FeatureSchema) -> InteractionLog:
        return InteractionLog(
            schema=schema,
            users=self.users,
            items=self.items,
            creators=universe.item_creator[self.items],
            timestamps=self.timestamps,
            watch_times=self.watch_times,
            urps=self.urps,
            features=self.features,
            true_quality=self.quality,
            inflation=self.inflation,
        )


def step_session(
    universe: Universe,
    state: SessionState,
    policy: Policy,
    inflation: InflationSpec,
    cfg: SessionConfig,
    draws: SessionDraws,
    log: _LogColumns,
) -> None:
    """Advance every user of one arm by one session against the shared draws.

    Pools are scored with the session's noise, ranked by the policy, the top
    of the slate is consumed with satisfaction-proportional watch time, and
    the consumed items update familiarity state and the exposure counters.
    """
    n_users = universe.n_users
    now = draws.now
    user_ids = np.arange(n_users, dtype=np.int64)
    pools = draws.pools

    feats = state.features_batch(user_ids, pools, now)
    q = draws.quality
    g = inflation.g_many(feats)
    urps = q * g * draws.noise

    order = policy.rank_batch(pools, urps, feats, state.item_impressions)
    slate = order[:, : cfg.slate_size]
    slate_items = np.take_along_axis(pools, slate, axis=1)
    state.record_impressions_batch(user_ids, slate_items)

    k = cfg.consume_top_k
    if k == 0:
        return
    consumed = slate[:, :k]
    items = np.take_along_axis(pools, consumed, axis=1)
    q_c = np.take_along_axis(q, consumed, axis=1)
    g_c = np.take_along_axis(g, consumed, axis=1)
    # realized engagement follows true satisfaction, not the rating signal:
    # the inflation carries into watch time only through wt_familiarity_weight
    satisfaction = q_c * g_c**cfg.wt_familiarity_weight
    wt = cfg.wt_scale * satisfaction * draws.exps
    ts = now + np.broadcast_to(np.arange(k, dtype=np.float64), (n_users, k))

    log.put(
        draws.session,
        users=np.repeat(user_ids, k),
        items=items,
        timestamps=ts,
        watch_times=wt,
        urps=np.take_along_axis(urps, consumed, axis=1),
        features=np.take_along_axis(feats, consumed[:, :, None], axis=1),
        quality=q_c,
        inflation=g_c,
    )

    state.consume_batch(user_ids, items, np.ascontiguousarray(ts))


def run_paired_arms(
    universe: Universe,
    policies: dict[str, Policy],
    inflation: InflationSpec,
    cfg: SessionConfig,
    seed: int,
) -> list[ArmResult]:
    """Run every policy through the closed loop, all arms stepping together.

    Each session's draws are built once and every arm steps against them in
    policy order. Arms share nothing else, so each result equals a run of
    that policy alone; one result per policy, in policy order.

    With at least two arms and sessions, ``os.fork`` and at least two usable
    CPUs, the arms step session 0 here, timed, and are then split by those
    times into one share per worker process (``_split_by_cost``); each
    worker steps its share through the remaining sessions against its own
    builds of the draws (``_step_in_workers``). The arrays a worker fills,
    log columns and impression counts (copied after session 0), are in
    shared memory, allocated before the fork and filled in place, never
    replaced. The results do not depend on the number of workers.
    """
    if not policies:
        return []
    schema = inflation.schema()
    names = list(policies)
    workers = _worker_count(len(names)) if cfg.sessions > 1 else 1
    states = [SessionState(universe, inflation, cfg) for _ in names]
    empty = np.empty if workers < 2 else _shared_zeros
    logs = [
        _LogColumns(universe.n_users * cfg.consume_top_k, cfg.sessions, schema.arity, empty)
        for _ in names
    ]
    prior = PoolPrior.build(universe.n_items, cfg.pool_skew) if cfg.pool_skew > 0 else None

    def step(session: int, arms: list[int]) -> list[float]:
        """Step the arms at ``arms`` through one session; seconds per arm."""
        draws = SessionDraws.build(universe, inflation, cfg, session, seed, prior)
        seconds = []
        for i in arms:
            start = perf_counter()
            step_session(universe, states[i], policies[names[i]], inflation, cfg, draws, logs[i])
            seconds.append(perf_counter() - start)
        return seconds

    every = list(range(len(names)))
    if workers < 2:
        for session in range(cfg.sessions):
            step(session, every)
    else:
        shares = _split_by_cost(step(0, every), workers)
        for state in states:
            for field in ("item_impressions", "user_creator_impressions"):
                counts = getattr(state, field)
                shared = _shared_zeros(counts.shape, counts.dtype)
                shared[...] = counts
                setattr(state, field, shared)

        def run_share(share: list[int]) -> None:
            for session in range(1, cfg.sessions):
                step(session, share)

        _step_in_workers(shares, names, run_share)
    return [
        ArmResult(
            name=name,
            log=log.to_log(universe, schema),
            item_impressions=state.item_impressions,
            user_creator_impressions=state.user_creator_impressions,
        )
        for name, state, log in zip(names, states, logs)
    ]


# worker count set only by tests, so that the forked path runs on any host;
# None takes one worker per usable CPU
_FORCED_WORKERS: int | None = None


class ArmWorkerError(RuntimeError):
    """A worker process stepping some arms of a paired run failed."""

    def __init__(self, arms: list[str], cause: str):
        super().__init__(f"worker process stepping arms {arms} failed: {cause}")
        self.arms = arms
        self.cause = cause


def _worker_count(n_arms: int) -> int:
    """Worker processes for ``n_arms`` arms: one per usable CPU, at most one per arm."""
    if _FORCED_WORKERS is not None:
        cpus = _FORCED_WORKERS
    elif hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = 1
    return min(n_arms, cpus)


def _split_by_cost(seconds: list[float], shares: int) -> list[list[int]]:
    """Arm indices in ``shares`` lists of similar total cost, each in arm order.

    Longest first, each arm to the share with the least cost so far (the
    one with fewer arms on a tie), so with at least ``shares`` arms no
    share is empty.
    """
    load = [0.0] * shares
    out: list[list[int]] = [[] for _ in range(shares)]
    for i in sorted(range(len(seconds)), key=lambda i: -seconds[i]):
        j = min(range(shares), key=lambda j: (load[j], len(out[j])))
        out[j].append(i)
        load[j] += seconds[i]
    return [sorted(share) for share in out]


def _shared_zeros(shape: int | tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Zeros in anonymous shared memory, which a forked worker writes into."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, max(nbytes, 1)))


_DONE = b"\x00"  # all a worker writes when its share is stepped


def _work(fd: int, inherited: list[int], run: Callable[[], None]) -> NoReturn:
    """Body of a forked worker; never returns and runs no exit handler.

    Steps its share, then writes ``_DONE``, or its traceback to fd 2 and the
    exception's type and message to ``fd``. An interrupt or exit ends it
    with status 1 and nothing written.
    """
    status = 1
    try:
        for other in inherited:
            os.close(other)
        try:
            run()
        except Exception as exc:
            os.write(2, traceback.format_exc().encode())
            report = f"{type(exc).__name__}: {exc}".encode()
        else:
            report, status = _DONE, 0
        with open(fd, "wb") as pipe:  # a buffered write loops until every byte is in the pipe
            pipe.write(report)
    finally:
        os._exit(status)


def _failure(report: bytes, status: int) -> str | None:
    """Why a worker failed, from what it wrote and its wait status; None if it did not."""
    code = os.waitstatus_to_exitcode(status)
    if report not in (b"", _DONE):
        return report.decode(errors="replace")
    if report == _DONE and code == 0:
        return None
    ended = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
    return f"it ended ({ended}) before reporting that its arms were stepped"


def _step_in_workers(
    shares: list[list[int]], names: list[str], run_share: Callable[[list[int]], None]
) -> None:
    """Run ``run_share(share)`` in one forked worker per share.

    Outputs land in shared arrays, so a worker's pipe carries only ``_DONE``
    or its exception. When one fails, the others are killed and
    ``ArmWorkerError`` names its arms and exception. No worker outlives
    this call.
    """
    running: dict[int, tuple[int, list[str]]] = {}  # pipe -> (pid, arms) of unreaped workers
    try:
        for share in shares:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(w, [r, *running], lambda: run_share(share))
            os.close(w)
            running[r] = (pid, [names[i] for i in share])
        reports = dict.fromkeys(running, b"")
        with selectors.DefaultSelector() as selector:
            for fd in running:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                for key, _ in selector.select():
                    data = os.read(key.fd, 1 << 16)
                    reports[key.fd] += data
                    if data:
                        continue
                    selector.unregister(key.fd)
                    os.close(key.fd)
                    pid, arms = running.pop(key.fd)
                    cause = _failure(reports[key.fd], os.waitpid(pid, 0)[1])
                    if cause is not None:
                        raise ArmWorkerError(arms, cause)
    finally:
        # an unreaped worker keeps its pid, so the kill is safe
        for fd, (pid, _) in running.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_arm(
    universe: Universe,
    policy: Policy,
    inflation: InflationSpec,
    cfg: SessionConfig,
    seed: int,
    name: str = "arm",
) -> ArmResult:
    """Run one policy through the full closed loop from a fresh state."""
    return run_paired_arms(universe, {name: policy}, inflation, cfg, seed)[0]
