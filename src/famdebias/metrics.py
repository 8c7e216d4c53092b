"""Watch-time and diversity metrics with paired bootstrap confidence intervals.

Novel/familiar watch-time shares against a per-user trailing window, emerging
creator exposure, the per-familiarity-level score distribution view, the
calibration ratio, and before/after label and prediction shifts. Deltas are
user-level paired bootstrap estimates, deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bucketizer import bucket_thirds, quantile_cuts
from .core import InteractionLog
from .debias import DebiasConfig, debias_log, debias_scores, factor_source
from .estimator import RegressorModel, forward

LEVELS = ("low", "medium", "high")


def novelty_mask(log: InteractionLog, window_days: float = 14.0) -> np.ndarray:
    """True where the user had no interaction with the item in the window.

    The per-record decision uses only that user's strictly earlier
    interactions, so it is invariant to record order.
    """
    n = len(log)
    if n == 0:
        return np.zeros(0, dtype=bool)
    u_codes = np.unique(log.users, return_inverse=True)[1]
    i_codes = np.unique(log.items, return_inverse=True)[1]
    ts = log.timestamps
    order = np.lexsort((ts, i_codes, u_codes))
    us, is_, tss = u_codes[order], i_codes[order], ts[order]

    same = np.zeros(n, dtype=bool)
    same[1:] = (us[1:] == us[:-1]) & (is_[1:] == is_[:-1])
    # latest strictly earlier timestamp in the same (user, item) group:
    # rows inside an equal-timestamp run inherit the run head's predecessor
    prev_consecutive = np.full(n, -np.inf)
    prev_consecutive[1:] = np.where(same[1:], tss[:-1], -np.inf)
    eq_run = np.zeros(n, dtype=bool)
    eq_run[1:] = same[1:] & (tss[1:] == tss[:-1])
    head_idx = np.flatnonzero(~eq_run)
    run_id = np.cumsum(~eq_run) - 1
    prev_distinct = prev_consecutive[head_idx][run_id]

    window_seconds = window_days * 86400.0
    familiar_sorted = (tss - prev_distinct) <= window_seconds
    novel = np.empty(n, dtype=bool)
    novel[order] = ~familiar_sorted
    return novel


def per_user_wt_shares(
    log: InteractionLog, window_days: float, n_users: int
) -> tuple[np.ndarray, np.ndarray]:
    """(novel watch time, total watch time) per user id in [0, n_users)."""
    novel = novelty_mask(log, window_days)
    users = log.users.astype(np.int64)
    novel_wt = np.bincount(users, weights=log.watch_times * novel, minlength=n_users)
    total_wt = np.bincount(users, weights=log.watch_times, minlength=n_users)
    return novel_wt, total_wt


def familiar_share_by_time_quartile(log: InteractionLog, window_days: float = 14.0) -> np.ndarray:
    """Familiar watch-time share within each quarter of the run clock."""
    out = np.full(4, np.nan)
    if len(log) == 0:
        return out
    ts = log.timestamps
    lo, hi = ts.min(), ts.max()
    span = max(hi - lo, 1e-9)
    q = np.minimum((4 * (ts - lo) / span).astype(np.int64), 3)
    familiar = ~novelty_mask(log, window_days)
    for i in range(4):
        sel = q == i
        total = log.watch_times[sel].sum()
        if total > 0:
            out[i] = log.watch_times[sel & familiar].sum() / total
    return out


def emerging_creator_mask(
    creator_exposure: np.ndarray, recent_flags: np.ndarray, percentile: float = 10.0
) -> np.ndarray:
    """Creators at or below the exposure percentile that also joined recently."""
    exposure = np.asarray(creator_exposure, dtype=np.float64)
    threshold = np.percentile(exposure, percentile)
    return (exposure <= threshold) & np.asarray(recent_flags, dtype=bool)


def emerging_share_from_impressions(
    user_creator_impressions: np.ndarray,
    recent_flags: np.ndarray,
    percentile: float = 10.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(emerging impressions, total impressions) per user from a U x C matrix."""
    matrix = np.asarray(user_creator_impressions)
    exposure = matrix.sum(axis=0)
    mask = emerging_creator_mask(exposure, recent_flags, percentile)
    emerging = matrix[:, mask].sum(axis=1).astype(np.float64)
    total = matrix.sum(axis=1).astype(np.float64)
    return emerging, total


def score_distribution_by_bucket(
    log: InteractionLog,
    cuts: np.ndarray,
    feature: str,
    debiased: np.ndarray | None = None,
) -> dict:
    """Score summary per coarse familiarity level of one feature.

    The feature's buckets under ``cuts`` collapse into the thirds of
    ``LEVELS``; each level reports count, mean, variance and deciles of the
    raw score and, when provided, of the debiased score.
    """
    level = bucket_thirds(cuts, log.feature_column(feature))
    deciles = np.arange(10, 100, 10)
    out = {}
    for i, label in enumerate(LEVELS):
        sel = level == i
        if not np.any(sel):
            out[label] = {"count": 0}
            continue
        s = log.urps[sel]
        entry = {
            "count": int(sel.sum()),
            "mean": float(s.mean()),
            "variance": float(s.var()),
            "deciles": [float(x) for x in np.percentile(s, deciles)],
        }
        if debiased is not None:
            d = np.asarray(debiased)[sel]
            entry["mean_debiased"] = float(d.mean())
            entry["variance_debiased"] = float(d.var())
            entry["deciles_debiased"] = [float(x) for x in np.percentile(d, deciles)]
        out[label] = entry
    return out


def calibration_ratio(
    model: RegressorModel, log: InteractionLog, feature: str, k: int = 5
) -> list[dict]:
    """Per-bucket mean predicted factor over mean observed score; ideal 1.

    Buckets are ``k`` equal-mass segments of the chosen feature, none empty.
    """
    values = log.feature_column(feature)
    cuts, _ = quantile_cuts(values, k)
    bucket = np.searchsorted(cuts, values, side="right")
    preds = forward(model, log.features)
    rows = []
    for b in range(cuts.size + 1):
        sel = bucket == b
        mp = float(preds[sel].mean())
        ml = float(log.urps[sel].mean())
        rows.append(
            {"bucket": b, "count": int(sel.sum()), "mean_prediction": mp, "mean_label": ml,
             "ratio": mp / ml}
        )
    return rows


def label_prediction_shift(
    log: InteractionLog,
    artifact,
    config: DebiasConfig,
    feature: str,
    k: int = 5,
) -> list[dict]:
    """Per-bucket mean label and prediction, before and after the correction.

    The prediction is the artifact's factor. Buckets are ``k`` equal-mass
    segments of the chosen feature, none empty.
    """
    if len(log) == 0:
        raise ValueError("cannot compute shifts on an empty log")
    values = log.feature_column(feature)
    cuts, _ = quantile_cuts(values, k)
    bucket = np.searchsorted(cuts, values, side="right")
    debiased, preds = debias_log(log, artifact, config)
    _, ref_mean = factor_source(artifact)
    preds_debiased = debias_scores(preds, preds, config, ref_mean)
    rows = []
    for b in range(cuts.size + 1):
        sel = bucket == b
        rows.append(
            {
                "bucket": b,
                "count": int(sel.sum()),
                "mean_label": float(log.urps[sel].mean()),
                "mean_label_debiased": float(debiased[sel].mean()),
                "mean_prediction": float(preds[sel].mean()),
                "mean_prediction_debiased": float(preds_debiased[sel].mean()),
            }
        )
    return rows


@dataclass(frozen=True)
class DeltaCI:
    point: float
    lo: float
    hi: float
    unit: str = ""

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def to_dict(self) -> dict:
        return {"point": self.point, "ci_low": self.lo, "ci_high": self.hi, "unit": self.unit}


def _resample_indices(n: int, replicates: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(replicates, n))


def bootstrap_ratio_delta(
    num_a: np.ndarray,
    den_a: np.ndarray,
    num_b: np.ndarray,
    den_b: np.ndarray,
    replicates: int = 1000,
    seed: int = 0,
    relative: bool = False,
    scale: float = 1.0,
    unit: str = "",
) -> DeltaCI:
    """Paired bootstrap of a ratio-of-sums metric delta between two arms.

    Metric per arm is sum(num)/sum(den) over resampled users; the delta is
    (b - a) * scale, or percent change (b - a) / a * 100 when relative.
    """
    num_a, den_a = np.asarray(num_a, np.float64), np.asarray(den_a, np.float64)
    num_b, den_b = np.asarray(num_b, np.float64), np.asarray(den_b, np.float64)
    n = num_a.size
    if not (den_a.size == n == num_b.size == den_b.size) or n == 0:
        raise ValueError("per-user arrays must share one positive length")

    def metric(num: np.ndarray, den: np.ndarray, axis=None) -> np.ndarray:
        ns = num.sum(axis=axis)
        ds = den.sum(axis=axis)
        return np.where(ds > 0, ns / np.where(ds > 0, ds, 1.0), np.nan)

    def delta(ma, mb):
        if relative:
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(ma != 0, (mb - ma) / np.where(ma != 0, ma, 1.0) * 100.0, np.nan)
        return (mb - ma) * scale

    point = float(delta(metric(num_a, den_a), metric(num_b, den_b)))
    if replicates < 2:
        return DeltaCI(point=point, lo=point, hi=point, unit=unit)
    idx = _resample_indices(n, replicates, seed)
    ma = metric(num_a[idx], den_a[idx], axis=1)
    mb = metric(num_b[idx], den_b[idx], axis=1)
    deltas = delta(ma, mb)
    lo, hi = np.nanpercentile(deltas, [2.5, 97.5])
    return DeltaCI(point=point, lo=float(lo), hi=float(hi), unit=unit)


@dataclass
class ArmMetrics:
    overall_wt: float
    novel_wt_share: float
    familiar_wt_share: float
    emerging_share: float
    n_interactions: int

    def to_dict(self) -> dict:
        return {
            "overall_wt": self.overall_wt,
            "novel_wt_share": self.novel_wt_share,
            "familiar_wt_share": self.familiar_wt_share,
            "emerging_creator_exposure_share": self.emerging_share,
            "n_interactions": self.n_interactions,
        }


@dataclass
class MetricsReport:
    control: str
    arms: dict = field(default_factory=dict)
    deltas: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "control": self.control,
            "arms": {name: m.to_dict() for name, m in self.arms.items()},
            "deltas": {
                name: {metric: ci.to_dict() for metric, ci in row.items()}
                for name, row in self.deltas.items()
            },
        }


METRIC_COLUMNS = (
    "emerging_creator_exposure",
    "novel_wt_share",
    "familiar_wt_share",
    "overall_wt",
)


def experiment_report(
    arms: dict[str, tuple[InteractionLog, np.ndarray]],
    recent_flags: np.ndarray,
    control: str = "control",
    window_days: float = 14.0,
    percentile: float = 10.0,
    replicates: int = 1000,
    seed: int = 0,
) -> MetricsReport:
    """Per-arm metrics and paired deltas vs the control arm.

    ``arms`` maps arm name to (interaction log, per-user-by-creator
    impression matrix). Novel and familiar shares move in pp, overall watch
    time and emerging exposure as percent change.
    """
    if control not in arms:
        raise ValueError(f"control arm {control!r} missing")
    n_users = arms[control][1].shape[0]

    per_user: dict[str, dict[str, np.ndarray]] = {}
    report = MetricsReport(control=control)
    for name, (log, impressions) in arms.items():
        novel_wt, total_wt = per_user_wt_shares(log, window_days, n_users)
        emerging, total_imp = emerging_share_from_impressions(
            impressions, recent_flags, percentile
        )
        per_user[name] = {
            "novel_wt": novel_wt,
            "total_wt": total_wt,
            "emerging": emerging,
            "impressions": total_imp,
        }
        total = total_wt.sum()
        novel_share = float(novel_wt.sum() / total) if total > 0 else float("nan")
        imp_total = total_imp.sum()
        report.arms[name] = ArmMetrics(
            overall_wt=float(total),
            novel_wt_share=novel_share,
            familiar_wt_share=1.0 - novel_share,
            emerging_share=float(emerging.sum() / imp_total) if imp_total > 0 else float("nan"),
            n_interactions=len(log),
        )

    ctrl = per_user[control]
    ones = np.ones(n_users)
    for name, stats in per_user.items():
        novel = bootstrap_ratio_delta(
            ctrl["novel_wt"], ctrl["total_wt"], stats["novel_wt"], stats["total_wt"],
            replicates=replicates, seed=seed, scale=100.0, unit="pp",
        )
        familiar_wt_a = ctrl["total_wt"] - ctrl["novel_wt"]
        familiar_wt_b = stats["total_wt"] - stats["novel_wt"]
        familiar = bootstrap_ratio_delta(
            familiar_wt_a, ctrl["total_wt"], familiar_wt_b, stats["total_wt"],
            replicates=replicates, seed=seed, scale=100.0, unit="pp",
        )
        overall = bootstrap_ratio_delta(
            ctrl["total_wt"], ones, stats["total_wt"], ones,
            replicates=replicates, seed=seed, relative=True, unit="%",
        )
        emerging = bootstrap_ratio_delta(
            ctrl["emerging"], ctrl["impressions"], stats["emerging"], stats["impressions"],
            replicates=replicates, seed=seed, relative=True, unit="%",
        )
        report.deltas[name] = {
            "emerging_creator_exposure": emerging,
            "novel_wt_share": novel,
            "familiar_wt_share": familiar,
            "overall_wt": overall,
        }
    return report
