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
import io
import json
import re
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
        return load(cls, json.loads(Path(path).read_bytes()))


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


def _row_format(names: tuple[str, ...], oracle: list[str]) -> str:
    """The %-format of one ``write_jsonl`` line: one ``%s`` per value, in column order."""
    def field(name: str) -> str:
        return _encode(name).replace("%", "%%") + ":%s"

    return "{%s}\n" % ",".join([
        *map(field, ("user_id", "item_id", "creator_id", "timestamp", "watch_time", "urps")),
        _encode("familiarity") + ":{" + ",".join(map(field, names)) + "}",
        *map(field, oracle),
    ])


def write_jsonl(log: InteractionLog, path: str | Path) -> None:
    """Write one JSON object per record; oracle columns included when present.

    Each line is exactly ``json.dumps(record, separators=(",", ":"))``; the
    records are formatted column by column, one block of rows at a time.
    """
    optional = [(name, column) for name, column in
                zip(_ORACLE, (log.true_quality, log.inflation)) if column is not None]
    row_format = _row_format(log.schema.names, [name for name, _ in optional])
    columns = [log.users, log.items, log.creators, log.timestamps, log.watch_times, log.urps,
               *log.features.T, *(column for _, column in optional)]
    with open(path, "w", encoding="utf-8") as fh:
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

    The file is UTF-8 and its lines end at ``\\n``. A line that is not
    UTF-8 or not a JSON object, or that ``parse`` cannot convert, raises
    ``ValueError`` naming the file and the 1-based line; a missing key raises
    ``KeyError`` the same way.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
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
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            yield lineno, record


def _number(obj: dict, key: str) -> float:
    """``obj[key]`` as a float; a JSON boolean, string or null raises ``TypeError``."""
    value = obj[key]
    if type(value) is float or type(value) is int:
        return float(value)
    raise TypeError(f"{key}: expected a number, got {json.dumps(value)}")


def _read_lines(path: str | Path, schema: FeatureSchema) -> tuple:
    """``read_jsonl``'s columns from any JSON Lines log, one parsed line at a time.

    Lines go through ``read_records`` and into column arrays one block at a
    time. The oracle columns come as a pair on every record or on none.
    """
    names = schema.names

    def parse(obj: dict) -> tuple:
        fam = obj["familiarity"]
        ids = (obj["user_id"], obj["item_id"], obj["creator_id"])
        values = (_number(obj, "timestamp"), _number(obj, "watch_time"), _number(obj, "urps"),
                  *[_number(fam, n) for n in names])
        if "true_quality" in obj and "inflation" in obj:
            return ids, values, (_number(obj, "true_quality"), _number(obj, "inflation")), ()
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
    ids = [_join_blocks(blocks) if blocks else np.asarray([]) for blocks in id_blocks]
    return ids, values, oracle


# The writer's tokens, in a pattern of possessive quantifiers and atomic
# groups, which never backtrack: int64 ids, and floats as float.__repr__ writes
# them, with no leading zero, no -0 without a fraction (float(-0) is 0.0,
# np.loadtxt reads -0.0), an exponent only as e-05 or e+16 and at most 16
# integer digits (float() refuses a 400-digit integer; np.loadtxt reads inf)
_ID = rb"-?+(?:0|[1-9][0-9]{0,18}+)"
_NUMBER = rb"(?>-?[1-9][0-9]{0,15}+|-0(?=\.)|0)(?:\.[0-9]++)?+(?:e[-+][0-9]++)?+"
# the bytes of the CSV that np.loadtxt parses: numbers, commas and line ends
_CSV = b"0123456789.-+E,\n"
_NOT_CSV = bytes(sorted(set(range(256)) - set(_CSV)))


def _read_bulk(path: str | Path, schema: FeatureSchema) -> tuple | None:
    """``read_jsonl``'s columns from a log in exactly ``write_jsonl``'s layout, or None.

    The file is read in binary one block of lines at a time. A block is taken
    only when it matches the writer's line, with integer ids and the writer's
    own number tokens, once per line; its keys are then deleted and
    ``np.loadtxt`` parses the rest as CSV, where an id past int64 raises.
    None for any other file, and for a schema name whose JSON form holds a
    CSV byte, which deleting the keys would leave in the CSV.
    """
    if any(set(_encode(n).encode()) & set(_CSV) for n in schema.names):
        return None
    layouts = []  # (pattern of a block, structured dtype) without and with the oracle columns
    for oracle in ([], list(_ORACLE)):
        n_values = 3 + schema.arity + len(oracle)
        # _encode escapes every control and non-ASCII character, so the
        # markers \0 (an id) and \1 (a number) appear only as values
        line = _row_format(schema.names, oracle) % (("\0",) * 3 + ("\1",) * n_values)
        line = re.escape(line.encode("ascii")).replace(b"\0", _ID).replace(b"\1", _NUMBER)
        layouts.append((re.compile(b"(?:%s)++" % line),
                        np.dtype([("ids", np.int64, (3,)), ("values", np.float64, (n_values,))])))
    blocks = []
    with open(path, "rb") as fh:
        while block := b"".join(islice(fh, _BLOCK_ROWS)):
            if not blocks:
                # the oracle columns are on every line or on none: the first says which
                lines, dtype = layouts[b'"inflation":' in block[:block.find(b"\n")]]
            if not lines.fullmatch(block):
                return None
            # no name holds a - or a +, so these pairs are exponents, which the CSV keeps as E
            if b"e-" in block or b"e+" in block:
                block = block.replace(b"e-", b"E-").replace(b"e+", b"E+")
            try:
                blocks.append(np.loadtxt(io.StringIO(block.translate(None, _NOT_CSV).decode()),
                                         dtype, delimiter=",", comments=None, ndmin=1))
            except (ValueError, OverflowError):
                return None
    if not blocks:
        return None
    ids = np.concatenate([b["ids"] for b in blocks])
    values = np.concatenate([b["values"] for b in blocks])
    oracle = values[:, 3 + schema.arity:] if values.shape[1] > 3 + schema.arity else None
    return [ids[:, k].copy() for k in range(3)], values[:, :3 + schema.arity], oracle


def read_jsonl(path: str | Path, schema: FeatureSchema) -> InteractionLog:
    """Read a log written by ``write_jsonl`` (or by hand) and validate it.

    A file in exactly the writer's layout, with integer ids, is parsed in
    bulk by ``_read_bulk``; any other file, or one that fails a check part
    way, is read from the start by ``_read_lines``, so the arrays, their
    dtypes and every error are the per-line reader's either way.
    """
    (users, items, creators), values, oracle = _read_bulk(path, schema) or _read_lines(path, schema)
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
