"""Domain data model, log validation, and JSON Lines i/o.

Everything downstream (bucketing, regression, correction, metrics) consumes
the types defined here. The columnar ``InteractionLog`` is the one
representation used for fitting and evaluation, with lossless conversion to
and from JSON Lines files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

FEATURE_KINDS = ("count", "recency", "affinity")
MONOTONICITY_HINTS = ("increasing-with-familiarity", "decreasing-with-familiarity")


class LogValidationError(ValueError):
    """Raised when a log fails validation and the caller required it valid."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        preview = "; ".join(f"[{i}] {msg}" for i, msg in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        super().__init__(f"{len(errors)} invalid record(s): {preview}{more}")


@dataclass(frozen=True, slots=True)
class FeatureSchema:
    """Names, kinds, and monotonicity hints for the familiarity features.

    Feature order is fixed by this schema, not by map iteration, so bucket
    cells and regressor inputs are reproducible across runs.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    monotonicity: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) < 1:
            raise ValueError("schema needs at least one feature")
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")
        if len(self.kinds) != len(self.names) or len(self.monotonicity) != len(self.names):
            raise ValueError("names, kinds and monotonicity must have equal length")
        for k in self.kinds:
            if k not in FEATURE_KINDS:
                raise ValueError(f"unknown feature kind {k!r}")
        for m in self.monotonicity:
            if m not in MONOTONICITY_HINTS:
                raise ValueError(f"unknown monotonicity hint {m!r}")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"feature {name!r} not in schema") from None

    def digest(self) -> str:
        """Stable hash binding fitted artifacts to the schema they were fit on."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        return cls(
            names=tuple(d["names"]),
            kinds=tuple(d["kinds"]),
            monotonicity=tuple(d["monotonicity"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FeatureSchema":
        return cls.from_dict(json.loads(Path(path).read_text()))


class InteractionLog:
    """Column-oriented interaction log.

    Holds one numpy column per record field plus the familiarity matrix
    ``features`` of shape (n_records, schema.arity). The simulator attaches
    two oracle columns, ``true_quality`` and ``inflation``, recording the
    generative ground truth per record; they are optional and preserved
    through JSONL round-trips when present.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        users: np.ndarray,
        items: np.ndarray,
        creators: np.ndarray,
        timestamps: np.ndarray,
        watch_times: np.ndarray,
        urps: np.ndarray,
        features: np.ndarray,
        true_quality: np.ndarray | None = None,
        inflation: np.ndarray | None = None,
    ):
        n = len(urps)
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (n, schema.arity):
            raise ValueError(
                f"features shape {features.shape} != ({n}, {schema.arity})"
            )
        self.schema = schema
        self.users = np.asarray(users)
        self.items = np.asarray(items)
        self.creators = np.asarray(creators)
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.watch_times = np.asarray(watch_times, dtype=np.float64)
        self.urps = np.asarray(urps, dtype=np.float64)
        self.features = features
        self.true_quality = None if true_quality is None else np.asarray(true_quality, dtype=np.float64)
        self.inflation = None if inflation is None else np.asarray(inflation, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.urps)

    @property
    def has_oracle(self) -> bool:
        return self.true_quality is not None and self.inflation is not None

    def feature_column(self, name: str) -> np.ndarray:
        return self.features[:, self.schema.index_of(name)]

    def user_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Factorize user ids into dense codes; returns (unique_users, codes)."""
        return np.unique(self.users, return_inverse=True)

    def subset(self, mask_or_index: np.ndarray) -> "InteractionLog":
        sel = mask_or_index
        return InteractionLog(
            schema=self.schema,
            users=self.users[sel],
            items=self.items[sel],
            creators=self.creators[sel],
            timestamps=self.timestamps[sel],
            watch_times=self.watch_times[sel],
            urps=self.urps[sel],
            features=self.features[sel],
            true_quality=None if self.true_quality is None else self.true_quality[sel],
            inflation=None if self.inflation is None else self.inflation[sel],
        )


def validate_log(log: InteractionLog) -> InteractionLog:
    """Return the log unchanged, raising ``LogValidationError`` on any bad row.

    Each bad row is reported once, with its first violation, as a
    ``(row index, message)`` pair in row order; rows are never dropped.
    """
    finite_features = np.isfinite(log.features)
    checks = (
        (~np.isfinite(log.urps), "non-finite URPS {!r}", log.urps),
        (log.urps <= 0, "non-positive URPS {!r}", log.urps),
        (~(np.isfinite(log.timestamps) & (log.timestamps > 0)),
         "non-positive timestamp {!r}", log.timestamps),
        (~(np.isfinite(log.watch_times) & (log.watch_times >= 0)),
         "negative watch_time {!r}", log.watch_times),
        (~finite_features.all(axis=1), "non-finite feature value at position {}",
         np.argmax(~finite_features, axis=1)),
    )
    first = np.full(len(log), len(checks))
    for k in reversed(range(len(checks))):
        first[checks[k][0]] = k
    errors = []
    for i in np.flatnonzero(first < len(checks)).tolist():
        _, message, column = checks[first[i]]
        errors.append((i, message.format(column[i].item())))
    if errors:
        raise LogValidationError(errors)
    return log


def write_jsonl(log: InteractionLog, path: str | Path) -> None:
    """Write one JSON object per record; oracle columns included when present."""
    schema = log.schema
    names = schema.names
    with open(path, "w") as fh:
        for i in range(len(log)):
            obj = {
                "user_id": log.users[i].item() if hasattr(log.users[i], "item") else log.users[i],
                "item_id": log.items[i].item() if hasattr(log.items[i], "item") else log.items[i],
                "creator_id": log.creators[i].item() if hasattr(log.creators[i], "item") else log.creators[i],
                "timestamp": float(log.timestamps[i]),
                "watch_time": float(log.watch_times[i]),
                "urps": float(log.urps[i]),
                "familiarity": {n: float(v) for n, v in zip(names, log.features[i])},
            }
            if log.true_quality is not None:
                obj["true_quality"] = float(log.true_quality[i])
            if log.inflation is not None:
                obj["inflation"] = float(log.inflation[i])
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def read_jsonl(path: str | Path, schema: FeatureSchema) -> InteractionLog:
    users, items, creators = [], [], []
    ts, wt, urps = [], [], []
    feats: list[tuple] = []
    quality: list[float] = []
    inflation: list[float] = []
    names = schema.names
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            users.append(obj["user_id"])
            items.append(obj["item_id"])
            creators.append(obj["creator_id"])
            ts.append(float(obj["timestamp"]))
            wt.append(float(obj["watch_time"]))
            urps.append(float(obj["urps"]))
            fam = obj["familiarity"]
            feats.append(tuple(float(fam[n]) for n in names))
            if "true_quality" in obj:
                quality.append(float(obj["true_quality"]))
            if "inflation" in obj:
                inflation.append(float(obj["inflation"]))
    n = len(urps)
    has_oracle = len(quality) == n and len(inflation) == n and n > 0
    return validate_log(InteractionLog(
        schema=schema,
        users=np.asarray(users),
        items=np.asarray(items),
        creators=np.asarray(creators),
        timestamps=np.asarray(ts, dtype=np.float64),
        watch_times=np.asarray(wt, dtype=np.float64),
        urps=np.asarray(urps, dtype=np.float64),
        features=np.asarray(feats, dtype=np.float64).reshape(n, schema.arity),
        true_quality=np.asarray(quality) if has_oracle else None,
        inflation=np.asarray(inflation) if has_oracle else None,
    ))
