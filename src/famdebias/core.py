"""Domain data model, log validation, JSON Lines i/o and the config loader.

Everything downstream (bucketing, regression, correction, metrics) consumes
the types defined here. The columnar ``InteractionLog`` is the one
representation used for fitting and evaluation, with lossless conversion to
and from JSON Lines files. ``load`` builds any frozen config dataclass from
a JSON object, strictly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path

import numpy as np

FEATURE_KINDS = ("count", "recency", "affinity")
MONOTONICITY_HINTS = ("increasing-with-familiarity", "decreasing-with-familiarity")


class ConfigError(ValueError):
    """Invalid or incomplete configuration; the message names the dotted path."""


# what a JSON value must be to load into a field of each scalar type
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", dict: "a JSON object"}


def load(cls, raw, where: str = ""):
    """Build the frozen dataclass ``cls`` from the JSON object ``raw``, strictly.

    Fields load by their type hints: nested dataclasses, ``X | None``,
    ``tuple[...]`` from an array, int, float (an int is accepted), bool, str
    and dict. Unknown keys, missing required keys and wrong types raise
    ``ConfigError`` naming the dotted path (``inflation.features[0].kind``),
    as does a ``__post_init__`` ``ValueError``; one whose message starts
    "<field>: " is reported at that field.
    """
    if type(raw) is not dict:
        raise _mismatch(where or "config", "a JSON object", raw)
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = [key for key in raw if key not in fields]
    if unknown:
        raise ConfigError(f"{_join(where, unknown[0])}: unknown key")
    kwargs = {}
    for name, f in fields.items():
        if name in raw:
            kwargs[name] = _convert(hints[name], raw[name], _join(where, name))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_join(where, name)}: missing required key")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        name, sep, problem = str(exc).partition(": ")
        if sep and name in fields:
            raise ConfigError(f"{_join(where, name)}: {problem}") from None
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _mismatch(where: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{where}: expected {expected}, got {json.dumps(value, default=repr)}")


def _convert(hint, value, where: str):
    if dataclasses.is_dataclass(hint):
        return load(hint, value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _convert(hint, value, where)
    if origin is tuple:
        if type(value) not in (list, tuple):
            raise _mismatch(where, "a JSON array", value)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} entries, got {len(value)}")
        return tuple(_convert(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise _mismatch(where, _EXPECTED[hint], value)
    return value


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

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FeatureSchema":
        return load(cls, json.loads(Path(path).read_text()))


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

    def feature_column(self, name: str) -> np.ndarray:
        return self.features[:, self.schema.index_of(name)]


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


# Rows per block of the JSONL codec: the writer formats and writes one block
# per call, and the reader turns one block of parsed lines into arrays.
_BLOCK_ROWS = 1024

_ORACLE = ("true_quality", "inflation")

# The writer's compact encoder: the bytes of json.dumps(obj, separators=(",", ":")).
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _encode_column(column: np.ndarray) -> list[str]:
    """The JSON token of every entry of one block of a column.

    Numbers and booleans go through one encoder call for the whole block,
    which writes floats with ``float.__repr__`` and non-finite values as
    ``NaN``/``Infinity``/``-Infinity``; none of these tokens holds a comma.
    Other ids are encoded one by one.
    """
    if column.dtype.kind in "biuf":
        return _encode(column.tolist())[1:-1].split(",")
    values = column.tolist()
    if column.dtype.kind == "O":
        values = [v.item() if hasattr(v, "item") else v for v in values]
    return list(map(_encode, values))


def write_jsonl(log: InteractionLog, path: str | Path) -> None:
    """Write one JSON object per record; oracle columns included when present.

    Each line is exactly ``json.dumps(record, separators=(",", ":"))``; the
    records are formatted column by column, one block of rows at a time.
    """
    def field(name: str) -> str:
        return _encode(name).replace("%", "%%") + ":%s"

    optional = [(name, column) for name, column in
                zip(_ORACLE, (log.true_quality, log.inflation)) if column is not None]
    row_format = "{%s}\n" % ",".join([
        *map(field, ("user_id", "item_id", "creator_id", "timestamp", "watch_time", "urps")),
        _encode("familiarity") + ":{" + ",".join(map(field, log.schema.names)) + "}",
        *(field(name) for name, _ in optional),
    ])
    columns = [log.users, log.items, log.creators, log.timestamps, log.watch_times, log.urps,
               *log.features.T, *(column for _, column in optional)]
    with open(path, "w") as fh:
        for start in range(0, len(log), _BLOCK_ROWS):
            tokens = [_encode_column(c[start:start + _BLOCK_ROWS]) for c in columns]
            fh.write("".join(map(row_format.__mod__, zip(*tokens))))


def _join_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """One array from per-block arrays, typed as if converted in one call."""
    if len({b.dtype.kind for b in blocks}) > 1:
        return np.asarray([v for b in blocks for v in b.tolist()])
    return np.concatenate(blocks)


def read_records(path: str | Path, parse: typing.Callable[[dict], object]):
    """Yield ``(line number, parse(obj))`` for each non-blank line of a JSON Lines file.

    A line that is not a JSON object, or that ``parse`` cannot convert,
    raises ``ValueError`` naming the file and the 1-based line; a missing
    key raises ``KeyError`` the same way.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if type(obj) is not dict:
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                record = parse(obj)
            except KeyError as exc:
                raise KeyError(f"{path}: line {lineno}: missing key {exc.args[0]!r}") from None
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: invalid JSON: {exc.msg} (column {exc.colno})"
                ) from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            yield lineno, record


def read_jsonl(path: str | Path, schema: FeatureSchema) -> InteractionLog:
    """Read a log written by ``write_jsonl`` (or by hand) and validate it.

    Lines go through ``read_records`` and into column arrays one block at a
    time. The oracle columns come as a pair on every record or on none.
    """
    names = schema.names

    def parse(obj: dict) -> tuple:
        fam = obj["familiarity"]
        ids = (obj["user_id"], obj["item_id"], obj["creator_id"])
        values = (float(obj["timestamp"]), float(obj["watch_time"]), float(obj["urps"]),
                  *[float(fam[n]) for n in names])
        if "true_quality" in obj and "inflation" in obj:
            return ids, values, (float(obj["true_quality"]), float(obj["inflation"])), ()
        return ids, values, None, [k for k in _ORACLE if k not in obj]

    id_blocks: tuple[list, list, list] = ([], [], [])
    value_blocks, oracle_blocks = [], []
    rows = 0
    first_bare = None   # (row, line, missing keys) of the first record without the oracle pair
    one_sided = False   # some record carries only one of the oracle columns
    records = read_records(path, parse)
    while chunk := list(islice(records, _BLOCK_ROWS)):
        linenos, parsed = zip(*chunk)
        ids, values, oracle, missing = zip(*parsed)
        for blocks, column in zip(id_blocks, zip(*ids)):
            blocks.append(np.asarray(column))
        value_blocks.append(np.asarray(values, dtype=np.float64))
        if None in oracle:
            one_sided = one_sided or any(len(keys) == 1 for keys in missing)
            if first_bare is None:
                i = oracle.index(None)
                first_bare = (rows + i, linenos[i], missing[i])
            oracle = [pair for pair in oracle if pair is not None]
        if oracle:
            oracle_blocks.append(np.asarray(oracle, dtype=np.float64))
        rows += len(chunk)
    if first_bare is not None and (oracle_blocks or one_sided):
        row, lineno, missing = first_bare
        raise LogValidationError([(row, (
            f"line {lineno}: no {' or '.join(missing)}; the oracle columns "
            "true_quality and inflation must be on every record or on none"
        ))])
    values = (np.concatenate(value_blocks) if value_blocks
              else np.empty((0, 3 + schema.arity)))
    oracle = np.concatenate(oracle_blocks) if oracle_blocks else None
    users, items, creators = (
        _join_blocks(blocks) if blocks else np.asarray([]) for blocks in id_blocks
    )
    return validate_log(InteractionLog(
        schema=schema,
        users=users,
        items=items,
        creators=creators,
        timestamps=values[:, 0].copy(),
        watch_times=values[:, 1].copy(),
        urps=values[:, 2].copy(),
        features=values[:, 3:].copy(),
        true_quality=None if oracle is None else oracle[:, 0].copy(),
        inflation=None if oracle is None else oracle[:, 1].copy(),
    ))
