"""An open-loop training log for the estimator and metric tests."""

import numpy as np

from famdebias.core import InteractionLog
from famdebias.simulator import DAY, InflationSpec, Universe

NEVER_SEEN_FRACTION = 0.3  # share of recency features at the cap: never watched
COUNT_GEOMETRIC_P = 0.45  # count features are geometric(p) - 1


def synthetic_training_log(
    universe: Universe,
    inflation: InflationSpec,
    n: int,
    seed: int = 0,
    recency_spread_days: float = 60.0,
    fixed_quality: float | None = None,
) -> InteractionLog:
    """Open-loop sample with familiarity independent of quality.

    Draws (user, item) uniformly and familiarity features from fixed
    marginals, so E[score | b] = E[q] * g(b) * exp(sigma^2 / 2) exactly;
    used by estimator recovery tests where the closed loop's selection
    effects would confound the target. With ``fixed_quality`` the latent
    quality is pinned to a constant and the lognormal term is the only
    noise around the conditional mean.
    """
    rng = np.random.default_rng(seed)
    users = rng.integers(0, universe.n_users, size=n)
    items = rng.integers(0, universe.n_items, size=n)
    if fixed_quality is not None:
        q = np.full(n, float(fixed_quality))
    else:
        dots = np.einsum(
            "ij,ij->i", universe.user_vectors[users], universe.item_vectors[items]
        )
        q = np.exp(dots / np.sqrt(universe.latent_dim))

    cols = []
    for f in inflation.features:
        if f.kind == "count":
            cols.append((rng.geometric(COUNT_GEOMETRIC_P, size=n) - 1).astype(np.float64))
        elif f.kind == "recency":
            days = rng.uniform(0.0, min(recency_spread_days, f.cap_days), size=n)
            never = rng.random(n) < NEVER_SEEN_FRACTION
            days[never] = f.cap_days
            cols.append(days)
        else:
            cols.append(rng.beta(1.2, 4.0, size=n))
    feats = np.column_stack(cols)
    g = inflation.g_many(feats)
    noise = np.exp(inflation.noise_sigma * rng.standard_normal(n))
    urps = q * g * noise
    ts = DAY + np.arange(n, dtype=np.float64)
    return InteractionLog(
        schema=inflation.schema(),
        users=users.astype(np.int64),
        items=items.astype(np.int64),
        creators=universe.item_creator[items],
        timestamps=ts,
        watch_times=np.zeros(n),
        urps=urps,
        features=feats,
        true_quality=q,
        inflation=g,
    )
