"""Core types, validation, exposure counting, and JSONL round-trips."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famdebias import core
from famdebias.core import (
    ConfigError,
    FeatureSchema,
    InteractionLog,
    LogValidationError,
    load,
    read_jsonl,
    validate_log,
    write_jsonl,
)
from famdebias.harness import ExperimentConfig, run_pipeline
from famdebias.simulator import (
    InflationSpec,
    SessionConfig,
    SessionState,
    Universe,
    UniverseConfig,
)

SCHEMA = FeatureSchema(
    names=("watch_count", "days_since", "affinity"),
    kinds=("count", "recency", "affinity"),
    monotonicity=(
        "increasing-with-familiarity",
        "decreasing-with-familiarity",
        "increasing-with-familiarity",
    ),
)


def make_log(rows, schema=SCHEMA):
    """Columnar log from per-row overrides of one well-formed row."""
    base = dict(user="u1", item="i1", creator="c1", ts=1000.0, wt=10.0, urps=2.0,
                fam=(1.0, 3.0, 0.5))
    rows = [{**base, **row} for row in rows]
    return InteractionLog(
        schema=schema,
        users=np.asarray([r["user"] for r in rows]),
        items=np.asarray([r["item"] for r in rows]),
        creators=np.asarray([r["creator"] for r in rows]),
        timestamps=np.asarray([r["ts"] for r in rows], dtype=np.float64),
        watch_times=np.asarray([r["wt"] for r in rows], dtype=np.float64),
        urps=np.asarray([r["urps"] for r in rows], dtype=np.float64),
        features=np.asarray([r["fam"] for r in rows], dtype=np.float64).reshape(
            len(rows), schema.arity
        ),
    )


def validation_errors(log):
    try:
        validate_log(log)
    except LogValidationError as exc:
        return exc.errors
    return []


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(("a", "a"), ("count", "count"),
                          ("increasing-with-familiarity",) * 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(("a",), ("weird",), ("increasing-with-familiarity",))

    def test_digest_stable_and_order_sensitive(self):
        other = FeatureSchema(
            names=("days_since", "watch_count", "affinity"),
            kinds=("recency", "count", "affinity"),
            monotonicity=(
                "decreasing-with-familiarity",
                "increasing-with-familiarity",
                "increasing-with-familiarity",
            ),
        )
        assert SCHEMA.digest() == SCHEMA.digest()
        assert SCHEMA.digest() != other.digest()

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        SCHEMA.save(path)
        assert FeatureSchema.load(path) == SCHEMA


class TestValidateLog:
    def test_three_well_formed_records(self):
        log = make_log([{"item": f"i{k}"} for k in range(3)])
        assert validate_log(log) is log

    def test_zero_urps_reported_with_index(self):
        errors = validation_errors(make_log([{}, {"urps": 0.0}, {}]))
        assert errors == [(1, "non-positive URPS 0.0")]

    def test_arity_mismatch_reported(self):
        # a columnar log cannot hold rows of the wrong arity: the constructor
        # names the expected shape
        with pytest.raises(ValueError, match=r"features shape \(1, 2\) != \(1, 3\)"):
            InteractionLog(
                schema=SCHEMA, users=np.array([0]), items=np.array([0]),
                creators=np.array([0]), timestamps=np.array([1.0]),
                watch_times=np.array([1.0]), urps=np.array([1.0]),
                features=np.zeros((1, 2)),
            )

    def test_non_finite_feature_reported(self):
        errors = validation_errors(make_log([{"fam": (1.0, math.inf, 0.1)}]))
        assert errors == [(0, "non-finite feature value at position 1")]

    def test_negative_urps_and_timestamp(self):
        errors = validation_errors(make_log([{"urps": -1.0}, {"ts": 0.0}]))
        assert [i for i, _ in errors] == [0, 1]
        assert errors[1][1] == "non-positive timestamp 0.0"

    def test_require_valid_raises_with_all_errors(self):
        log = make_log([{"urps": 0.0}, {"wt": -1.0}, {"urps": math.nan, "ts": -1.0}])
        with pytest.raises(LogValidationError) as exc:
            validate_log(log)
        # one entry per bad row, its first violation, in row order
        assert exc.value.errors == [
            (0, "non-positive URPS 0.0"),
            (1, "negative watch_time -1.0"),
            (2, "non-finite URPS nan"),
        ]


def impressions_state(slate_items, creators_of_items, n_users=1):
    """Session state after recording one slate per user."""
    items = np.asarray(creators_of_items)
    universe = Universe(
        user_vectors=np.zeros((n_users, 2)),
        item_vectors=np.zeros((items.size, 2)),
        item_creator=items,
        creator_recent=np.zeros(int(items.max()) + 1, dtype=bool),
        config=UniverseConfig(
            users=n_users, items=items.size, creators=int(items.max()) + 1, seed=0, latent_dim=2
        ),
    )
    state = SessionState(universe, InflationSpec.default(), SessionConfig())
    slates = np.asarray(slate_items, dtype=np.int64).reshape(n_users, -1)
    state.record_impressions_batch(np.arange(n_users), slates)
    return state


class TestPopularity:
    """Exposure counts per item and per creator, as the simulator keeps them."""

    def test_counts_by_hand(self):
        state = impressions_state([0, 0, 0, 1], creators_of_items=[0, 0, 0])
        assert state.item_impressions.tolist() == [3, 1, 0]

    def test_empty_log(self):
        state = impressions_state(np.zeros((1, 0)), creators_of_items=[0, 1])
        assert state.item_impressions.sum() == 0
        assert state.user_creator_impressions.sum() == 0

    def test_creator_count_sums_over_items(self):
        # items 0 and 1 both belong to creator 2
        state = impressions_state([0, 0, 1], creators_of_items=[2, 2, 0])
        assert state.user_creator_impressions[0].tolist() == [0, 0, 3]

    def test_totals_match_log_length(self):
        rng = np.random.default_rng(0)
        slate = rng.integers(0, 5, 40)
        state = impressions_state(slate, creators_of_items=[0, 1, 1, 2, 2])
        assert state.item_impressions.sum() == slate.size
        assert state.user_creator_impressions.sum() == slate.size

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_users=st.integers(1, 6),
        slate_len=st.integers(0, 8),
        # every creator owns an item, as the universe requires
        creators_of_items=st.lists(st.integers(0, 4), min_size=1, max_size=6).map(
            lambda c: [*range(max(c) + 1), *c]
        ),
    )
    def test_user_creator_counts_equal_add_at(self, seed, n_users, slate_len, creators_of_items):
        # few creators per slot, so (user, creator) cells repeat within a slate
        rng = np.random.default_rng(seed)
        creators = np.asarray(creators_of_items)
        slates = rng.integers(0, creators.size, (n_users, slate_len))
        state = impressions_state(slates, creators_of_items, n_users=n_users)
        users = rng.permutation(n_users)[: rng.integers(1, n_users + 1)]
        state.record_impressions_batch(users, slates[users])
        want = np.zeros((n_users, creators.max() + 1), dtype=np.int32)
        for ids in (np.arange(n_users), users):
            np.add.at(want, (np.repeat(ids, slate_len), creators[slates[ids].ravel()]), 1)
        assert state.user_creator_impressions.dtype == np.int32
        assert np.array_equal(state.user_creator_impressions, want)


finite_positive = st.floats(
    min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
)
finite_feature = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def row_strategy(draw):
    return {
        "user": draw(st.integers(0, 50)),
        "item": draw(st.integers(0, 50)),
        "creator": draw(st.integers(0, 10)),
        "ts": draw(finite_positive),
        "wt": draw(st.floats(0, 1e6, allow_nan=False)),
        "urps": draw(finite_positive),
        "fam": tuple(draw(st.lists(finite_feature, min_size=3, max_size=3))),
    }


class TestJsonlRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(row_strategy(), min_size=1, max_size=12))
    def test_bitwise_round_trip(self, tmp_path_factory, rows):
        log = validate_log(make_log(rows))
        path = tmp_path_factory.mktemp("rt") / "log.jsonl"
        write_jsonl(log, path)
        back = read_jsonl(path, SCHEMA)
        assert np.array_equal(back.timestamps, log.timestamps)
        assert np.array_equal(back.watch_times, log.watch_times)
        assert np.array_equal(back.urps, log.urps)
        assert np.array_equal(back.features, log.features)
        assert list(back.users) == list(log.users)
        assert list(back.items) == list(log.items)

    def test_record_json_round_trip(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_jsonl(make_log([{"urps": 2.7182818284590455}]), path)
        obj = json.loads(path.read_text())
        assert obj == {
            "user_id": "u1", "item_id": "i1", "creator_id": "c1",
            "timestamp": 1000.0, "watch_time": 10.0, "urps": 2.7182818284590455,
            "familiarity": {"watch_count": 1.0, "days_since": 3.0, "affinity": 0.5},
        }
        assert read_jsonl(path, SCHEMA).urps[0] == 2.7182818284590455

    def test_missing_feature_key_rejected(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_jsonl(make_log([{}]), path)
        obj = json.loads(path.read_text())
        del obj["familiarity"]["affinity"]
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(KeyError):
            read_jsonl(path, SCHEMA)

    def test_read_rejects_invalid_rows(self, tmp_path):
        rows = [
            {"urps": 0, "familiarity": {"watch_count": 1.0, "days_since": 3.0, "affinity": 0.5}},
            {"urps": 2.0, "familiarity": {"watch_count": 1.0, "days_since": float("nan"),
                                          "affinity": 0.5}},
            {"urps": 2.0, "familiarity": {"watch_count": 1.0, "days_since": 3.0, "affinity": 0.5}},
        ]
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as fh:
            for row in rows:
                row.update(user_id=0, item_id=1, creator_id=2, timestamp=1.0, watch_time=1.0)
                fh.write(json.dumps(row) + "\n")
        with pytest.raises(LogValidationError) as exc:
            read_jsonl(path, SCHEMA)
        assert exc.value.errors == [
            (0, "non-positive URPS 0.0"),
            (1, "non-finite feature value at position 1"),
        ]

    def test_oracle_columns_preserved(self, tmp_path):
        log = InteractionLog(
            schema=SCHEMA,
            users=np.array([0, 1]),
            items=np.array([5, 6]),
            creators=np.array([1, 1]),
            timestamps=np.array([1.0, 2.0]),
            watch_times=np.array([3.0, 4.0]),
            urps=np.array([1.5, 2.5]),
            features=np.array([[0.0, 365.0, 0.0], [1.0, 2.0, 0.4]]),
            true_quality=np.array([1.1, 1.2]),
            inflation=np.array([1.0, 1.4]),
        )
        path = tmp_path / "log.jsonl"
        write_jsonl(log, path)
        back = read_jsonl(path, SCHEMA)
        assert back.true_quality is not None and back.inflation is not None
        assert np.array_equal(back.true_quality, log.true_quality)
        assert np.array_equal(back.inflation, log.inflation)


def per_row_write_jsonl(log, path):
    """Reference encoder: one ``json.dumps`` call per record.

    ``write_jsonl`` formats whole blocks of rows at once; its output must be
    byte-for-byte what this per-row encoder writes.
    """
    names = log.schema.names
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


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                  1e16, 1e-5, 0.1, 1.7976931348623157e308]
tricky_text = st.one_of(
    st.sampled_from(['%', '%s', '%%', '"', 'a"b', '\\', 'back\\slash', 'é', '汉字', '\n', '\x00x']),
    st.text(),
)
id_values = {
    "int": st.integers(-(2**63), 2**63 - 1),
    "str": tricky_text,
    "float": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
    "bool": st.booleans(),
}
BLOCK = core._BLOCK_ROWS


@st.composite
def any_log(draw):
    """Logs of every id dtype and float value the encoder must reproduce.

    Values are drawn into small pools and spread over up to two blocks of rows
    by a seeded generator, so row counts on both sides of the block size stay
    cheap to draw.
    """
    n = draw(st.sampled_from([0, 1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    arity = draw(st.integers(1, 3))
    names = tuple(draw(st.lists(tricky_text, min_size=arity, max_size=arity, unique=True)))
    schema = FeatureSchema(names, ("count",) * arity, ("increasing-with-familiarity",) * arity)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    float_pool = np.asarray(
        draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                      min_size=1, max_size=12)), dtype=np.float64
    )

    def floats(*shape):
        return rng.choice(float_pool, size=(n, *shape))

    def ids():
        kind = draw(st.sampled_from(sorted(id_values)))
        pool = draw(st.lists(id_values[kind], min_size=1, max_size=8))
        return np.asarray(pool)[rng.integers(0, len(pool), n)]

    oracle = draw(st.sampled_from(["none", "both", "true_quality", "inflation"]))
    return InteractionLog(
        schema=schema, users=ids(), items=ids(), creators=ids(),
        timestamps=floats(), watch_times=floats(), urps=floats(),
        features=floats(arity),
        true_quality=floats() if oracle in ("both", "true_quality") else None,
        inflation=floats() if oracle in ("both", "inflation") else None,
    )


class TestBlockEncoder:
    @settings(max_examples=120, deadline=None)
    @given(log=any_log())
    def test_bytes_equal_per_row_encoder(self, tmp_path_factory, log):
        directory = tmp_path_factory.mktemp("enc")
        write_jsonl(log, directory / "block.jsonl")
        per_row_write_jsonl(log, directory / "row.jsonl")
        assert (directory / "block.jsonl").read_bytes() == (directory / "row.jsonl").read_bytes()

    def test_object_ids_and_numpy_scalars(self, tmp_path):
        ids = np.empty(3, dtype=object)
        ids[:] = [np.int64(4), "x%s", [1, {"a": 2}]]
        log = make_log([{}, {}, {}])
        log.users = ids
        write_jsonl(log, tmp_path / "block.jsonl")
        per_row_write_jsonl(log, tmp_path / "row.jsonl")
        assert (tmp_path / "block.jsonl").read_bytes() == (tmp_path / "row.jsonl").read_bytes()


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def good_line(**overrides):
    row = dict(user_id=0, item_id=1, creator_id=2, timestamp=1.0, watch_time=1.0, urps=2.0,
               familiarity={"watch_count": 1.0, "days_since": 3.0, "affinity": 0.5})
    row.update(overrides)
    return json.dumps(row)


class TestReadErrors:
    def test_partial_oracle_columns_rejected(self, tmp_path):
        path = write_lines(tmp_path / "log.jsonl", [
            good_line(true_quality=1.0, inflation=1.0),
            good_line(true_quality=1.0, inflation=1.0),
            good_line(),
            good_line(true_quality=1.0, inflation=1.0),
        ])
        with pytest.raises(LogValidationError) as exc:
            read_jsonl(path, SCHEMA)
        assert [i for i, _ in exc.value.errors] == [2]
        assert "true_quality" in exc.value.errors[0][1]

    def test_one_oracle_column_rejected(self, tmp_path):
        path = write_lines(tmp_path / "log.jsonl", [
            good_line(true_quality=1.0), good_line(true_quality=1.0),
        ])
        with pytest.raises(LogValidationError) as exc:
            read_jsonl(path, SCHEMA)
        assert exc.value.errors[0][0] == 0
        assert "inflation" in exc.value.errors[0][1]

    def test_oracle_rows_across_blocks(self, tmp_path):
        rows = [good_line(true_quality=1.5, inflation=2.0)] * (BLOCK + 5)
        back = read_jsonl(write_lines(tmp_path / "log.jsonl", rows), SCHEMA)
        assert len(back) == BLOCK + 5
        assert np.all(back.true_quality == 1.5) and np.all(back.inflation == 2.0)
        bare = rows + [good_line()]
        with pytest.raises(LogValidationError) as exc:
            read_jsonl(write_lines(tmp_path / "bare.jsonl", bare), SCHEMA)
        assert [i for i, _ in exc.value.errors] == [BLOCK + 5]

    def test_non_object_line_names_file_and_line(self, tmp_path):
        path = write_lines(tmp_path / "log.jsonl", [good_line(), "", "[1,2]"])
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3:")):
            read_jsonl(path, SCHEMA)

    def test_invalid_json_names_its_line(self, tmp_path):
        path = write_lines(tmp_path / "log.jsonl", [good_line(), good_line(), '{"user_id": 0,'])
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3:")):
            read_jsonl(path, SCHEMA)

    def test_bad_value_names_its_line(self, tmp_path):
        path = write_lines(tmp_path / "log.jsonl", [good_line(), good_line(urps=None)])
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2:")):
            read_jsonl(path, SCHEMA)

    def test_empty_file_reads_as_empty_log(self, tmp_path):
        back = read_jsonl(write_lines(tmp_path / "log.jsonl", []), SCHEMA)
        assert len(back) == 0 and back.features.shape == (0, 3)
        assert back.true_quality is None and back.inflation is None

    def test_mixed_id_types_match_whole_file_conversion(self, tmp_path):
        rows = [good_line(user_id=k) for k in range(BLOCK)] + [good_line(user_id="u")]
        back = read_jsonl(write_lines(tmp_path / "log.jsonl", rows), SCHEMA)
        assert back.users.dtype == np.asarray([*range(BLOCK), "u"]).dtype
        assert back.users.tolist() == np.asarray([*range(BLOCK), "u"]).tolist()

    @pytest.mark.parametrize("field", ["timestamp", "true_quality"])
    def test_huge_integer_in_a_float_field_names_its_line(self, tmp_path, field):
        lines = [good_line(true_quality=1.0, inflation=1.0)] * 2
        lines.append(good_line(**{"true_quality": 1.0, "inflation": 1.0, field: 10**400}))
        path = write_lines(tmp_path / "log.jsonl", lines)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3:")):
            read_jsonl(path, SCHEMA)

    @pytest.mark.parametrize("value", [True, "2.5", None])
    @pytest.mark.parametrize("field", ["timestamp", "watch_time", "urps", "days_since",
                                       "true_quality", "inflation"])
    def test_non_number_in_a_numeric_field_names_its_line(self, tmp_path, field, value):
        row = json.loads(good_line(true_quality=1.0, inflation=1.0))
        (row["familiarity"] if field in SCHEMA.names else row)[field] = value
        path = write_lines(tmp_path / "log.jsonl", [good_line(true_quality=1.0, inflation=1.0),
                                                    json.dumps(row)])
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: {field}: expected a number")):
            read_jsonl(path, SCHEMA)

    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        lines = [good_line()] * 3 + [good_line(item_id="x")]
        path.write_bytes("\n".join(lines).encode().replace(b'"x"', b'"\xff"') + b"\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: 'utf-8' codec")):
            read_jsonl(path, SCHEMA)

    def test_ids_keep_any_json_type(self, tmp_path):
        rows = [good_line(user_id=True, item_id="2.5", creator_id=1.5)]
        back = read_jsonl(write_lines(tmp_path / "log.jsonl", rows), SCHEMA)
        assert (back.users.tolist(), back.items.tolist(), back.creators.tolist()) == (
            [True], ["2.5"], [1.5])

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # a raw non-ASCII id, as a hand-written log may hold; the writer escapes it
        path = tmp_path / "log.jsonl"
        path.write_bytes(good_line(user_id="é", item_id="x").replace("\\u00e9", "é")
                         .encode() + b"\n")
        script = (
            "import json, sys; from famdebias.core import FeatureSchema, read_jsonl, write_jsonl; "
            "schema = FeatureSchema(*json.loads(sys.argv[3])); "
            "log = read_jsonl(sys.argv[1], schema); write_jsonl(log, sys.argv[2]); "
            "print(log.users.tolist() == ['\\xe9'], read_jsonl(sys.argv[2], schema).users[0] == '\\xe9')"
        )
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": str(Path(core.__file__).parent.parent)}
        env.pop("PYTHONUTF8", None)
        schema = json.dumps([SCHEMA.names, SCHEMA.kinds, SCHEMA.monotonicity])
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", script, str(path), str(tmp_path / "back.jsonl"),
             schema], env=env, capture_output=True, text=True, encoding="utf-8",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "True"]
        assert b"\\u00e9" in (tmp_path / "back.jsonl").read_bytes()


def read_outcome(path, schema, bulk=True):
    """What ``read_jsonl`` returns, column by column, or the type and message it raises.

    ``bulk=False`` disables the bulk path, leaving the per-line reader. Each
    column comes with its dtype, shape, contiguity and ownership, and its
    values as bytes (object columns as the repr of their values).
    """
    with pytest.MonkeyPatch.context() as patch:
        if not bulk:
            patch.setattr(core, "_read_bulk", lambda path, schema: None)
        try:
            log = read_jsonl(path, schema)
        except Exception as exc:
            return type(exc), str(exc)
    columns = (log.users, log.items, log.creators, log.timestamps, log.watch_times, log.urps,
               log.features, log.true_quality, log.inflation)
    return [None if a is None else (
        a.dtype, a.shape, a.flags.c_contiguous, a.flags.owndata,
        repr(a.tolist()) if a.dtype.kind == "O" else a.tobytes(),
    ) for a in columns]


# finite floats, which float.__repr__ writes with an exponent below 1e-4 and from 1e16
finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-4, 9.5e-5, 1e16, -1e22, 5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(1e-4, 1e15), st.floats(-1e15, -1e-4), st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def writer_log(draw, min_rows=0):
    """Logs the bulk path takes: int64 ids, finite floats, names without CSV bytes."""
    n = draw(st.sampled_from([1, 2, 7, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    n = max(n, min_rows)
    arity = draw(st.integers(1, 3))
    names = tuple(draw(st.lists(st.text("abz_%\"\\ \n\uabcd:{}[]", min_size=1, max_size=4),
                                min_size=arity, max_size=arity, unique=True)))
    schema = FeatureSchema(names, ("count",) * arity, ("increasing-with-familiarity",) * arity)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    float_pool = np.asarray(draw(st.lists(finite_floats, min_size=1, max_size=12)))
    id_pool = np.asarray(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8)),
                         dtype=np.int64)

    def floats(*shape):
        return rng.choice(float_pool, size=(n, *shape))

    oracle = draw(st.booleans())
    return InteractionLog(
        schema=schema, users=rng.choice(id_pool, n), items=rng.choice(id_pool, n),
        creators=rng.choice(id_pool, n), timestamps=floats(), watch_times=floats(),
        urps=floats(), features=floats(arity),
        true_quality=floats() if oracle else None, inflation=floats() if oracle else None,
    )


# bytes that make or break a number token or the line around it
EDIT_BYTES = [*b"0123456789.-+eE,:{}\"\n\r\t ", 0xC3, 0xFF]


class TestBulkRead:
    """The bulk path returns and raises exactly what the per-line reader does."""

    @settings(max_examples=120, deadline=None)
    @given(log=any_log())
    def test_any_log_reads_as_per_line(self, tmp_path_factory, log):
        path = tmp_path_factory.mktemp("bulk") / "log.jsonl"
        write_jsonl(log, path)
        assert read_outcome(path, log.schema) == read_outcome(path, log.schema, bulk=False)

    @settings(max_examples=60, deadline=None)
    @given(log=writer_log())
    def test_writer_logs_take_the_bulk_path(self, tmp_path_factory, log):
        path = tmp_path_factory.mktemp("bulk") / "log.jsonl"
        write_jsonl(log, path)
        assert core._read_bulk(path, log.schema) is not None
        assert read_outcome(path, log.schema) == read_outcome(path, log.schema, bulk=False)

    @settings(max_examples=300, deadline=None)
    @given(log=writer_log(), edit=st.sampled_from(["flip", "insert", "delete"]),
           where=st.floats(0, 1, exclude_max=True), byte=st.sampled_from(EDIT_BYTES))
    def test_one_byte_edit_reads_as_per_line(self, tmp_path_factory, log, edit, where, byte):
        path = tmp_path_factory.mktemp("bulk") / "log.jsonl"
        write_jsonl(log, path)
        data = path.read_bytes()
        # edit the first line, or one near the end of the first block
        at = int(where * min(len(data), 600)) + (len(data) // 2 if len(data) > 2000 else 0)
        tail = data[at + 1:] if edit in ("flip", "delete") else data[at:]
        path.write_bytes(data[:at] + (b"" if edit == "delete" else bytes([byte])) + tail)
        assert read_outcome(path, log.schema) == read_outcome(path, log.schema, bulk=False)

    @pytest.mark.parametrize("case", ["blank line", "crlf", "no final newline", "exponent"])
    def test_other_layouts_fall_back(self, tmp_path, case):
        log = make_log([{"user": k, "item": 2 * k, "creator": 1} for k in range(5)])
        path = tmp_path / "log.jsonl"
        write_jsonl(log, path)
        data = path.read_bytes()
        path.write_bytes({
            "blank line": data.replace(b"\n", b"\n\n", 1),
            "crlf": data.replace(b"\n", b"\r\n"),
            "no final newline": data[:-1],
            # JSON allows it; the writer writes e-05 and e+16, not e0
            "exponent": data.replace(b'"urps":2.0', b'"urps":2e0', 1),
        }[case])
        assert core._read_bulk(path, SCHEMA) is None
        outcome = read_outcome(path, SCHEMA)
        assert outcome == read_outcome(path, SCHEMA, bulk=False)
        assert outcome[5][-1] == np.full(5, 2.0).tobytes()

    def test_a_name_with_a_digit_takes_the_per_line_reader(self, tmp_path):
        schema = FeatureSchema(("f1", "f2"), ("count",) * 2, ("increasing-with-familiarity",) * 2)
        log = InteractionLog(schema, np.arange(3), np.arange(3), np.arange(3), np.ones(3),
                             np.ones(3), np.ones(3), np.arange(6.0).reshape(3, 2))
        path = tmp_path / "log.jsonl"
        write_jsonl(log, path)
        assert core._read_bulk(path, schema) is None
        assert np.array_equal(read_jsonl(path, schema).features, log.features)

    @pytest.mark.parametrize("field, token", [
        *(("urps", t) for t in ["+2.0", "02.0", "2.", ".5", "1.2.3", "2.0 ", "1" * 33]),
        ("watch_time", "-0"),  # float(-0) is 0.0; np.loadtxt reads -0.0
        ("user_id", str(2**63)),  # past int64, which np.loadtxt refuses
    ])
    def test_a_bad_block_after_good_ones_reads_the_file_from_the_start(self, tmp_path, field,
                                                                       token):
        log = make_log([{"user": k, "item": k, "creator": 0} for k in range(BLOCK + 9)])
        path = tmp_path / "log.jsonl"
        write_jsonl(log, path)
        lines = path.read_bytes().splitlines(keepends=True)
        good = {"urps": b'"urps":2.0', "watch_time": b'"watch_time":10.0',
                "user_id": b'"user_id":%d' % (BLOCK + 4)}[field]
        lines[BLOCK + 4] = lines[BLOCK + 4].replace(good, f'"{field}":{token}'.encode())
        path.write_bytes(b"".join(lines))
        assert core._read_bulk(path, SCHEMA) is None
        outcome = read_outcome(path, SCHEMA)
        assert outcome == read_outcome(path, SCHEMA, bulk=False)
        if isinstance(outcome, tuple):
            assert f"{path}: line {BLOCK + 5}:" in outcome[1]

    @pytest.mark.parametrize("good, bad", [
        # a value moved past its closing brace: a colon must lead each token
        (b'"affinity":0.5}}', b'"affinity":}0.5}'),
        # a value moved before the brace that opens the familiarity object
        (b'"familiarity":{"watch_count":1.0', b'"familiarity":1.0{"watch_count":'),
    ])
    def test_a_token_out_of_its_slot_takes_the_per_line_reader(self, tmp_path, good, bad):
        path = tmp_path / "log.jsonl"
        write_jsonl(make_log([{"user": 1, "item": 2, "creator": 3}] * 3), path)
        path.write_bytes(path.read_bytes().replace(good, bad, 1))
        assert core._read_bulk(path, SCHEMA) is None
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: invalid JSON")):
            read_jsonl(path, SCHEMA)

    def test_a_value_moved_inside_a_name_is_refused(self, tmp_path):
        # the name "x:}" takes the bulk path; a number moved inside it leaves a name the
        # schema does not have
        schema = FeatureSchema(("x:}",), ("count",), ("increasing-with-familiarity",))
        path = tmp_path / "log.jsonl"
        write_jsonl(InteractionLog(schema, [1], [2], [3], [1.0], [1.0], [1.0], [[5.0]]), path)
        path.write_bytes(path.read_bytes().replace(b'{"x:}":5.0}', b'{"x:5.0}":}'))
        assert core._read_bulk(path, schema) is None
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: invalid JSON")):
            read_jsonl(path, schema)

    @pytest.mark.parametrize("token", ["2.", ".5", "-.5", "02", "-02", "+2", "-", "--2", "2-1",
                                       "", "2..5", "-0", "1" * 33, "2e5", "2E", "2E+", "E5",
                                       "2.E5", "2E+-5", "2+5", "2e-+5", "2E5", "1E-05",
                                       "1.5E+16", "12345678901234567.0"])
    def test_bad_tokens_never_reach_the_csv_parser(self, tmp_path, monkeypatch, token):
        path = tmp_path / "log.jsonl"
        write_jsonl(make_log([{"user": 1, "item": 2, "creator": 3}] * 3), path)
        path.write_bytes(path.read_bytes().replace(b'"urps":2.0', f'"urps":{token}'.encode(), 1))

        def loadtxt(*args, **kwargs):
            raise AssertionError(f"{token!r} reached np.loadtxt")

        monkeypatch.setattr(core.np, "loadtxt", loadtxt)
        assert core._read_bulk(path, SCHEMA) is None

    def test_the_pipelines_own_logs_take_the_bulk_path(self, tmp_path, monkeypatch):
        config = json.loads((Path(__file__).resolve().parent.parent / "configs" / "quick.json")
                            .read_text())
        run_pipeline(config, tmp_path)
        logs = sorted((tmp_path / "logs").glob("*.jsonl"))
        assert len(logs) == 4
        schema = ExperimentConfig.from_dict(config).schema
        per_line = [read_outcome(path, schema, bulk=False) for path in logs]

        def no_per_line_reads(*args):
            raise AssertionError("a pipeline log fell back to the per-line reader")

        monkeypatch.setattr(core, "read_records", no_per_line_reads)
        assert [read_outcome(path, schema) for path in logs] == per_line


class TestInteractionLog:
    def test_feature_column_lookup(self):
        log = make_log([{}])
        assert log.feature_column("days_since")[0] == 3.0
        with pytest.raises(KeyError):
            log.feature_column("nope")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InteractionLog(
                schema=SCHEMA,
                users=np.array([0]),
                items=np.array([0]),
                creators=np.array([0]),
                timestamps=np.array([1.0]),
                watch_times=np.array([1.0]),
                urps=np.array([1.0]),
                features=np.zeros((1, 2)),
            )

    def test_round_trip_through_records(self, tmp_path):
        # string ids and per-row values survive the JSON Lines record form
        log = make_log([{"item": f"i{k}", "urps": 1.0 + k} for k in range(4)])
        path = tmp_path / "log.jsonl"
        write_jsonl(log, path)
        back = read_jsonl(path, SCHEMA)
        assert back.items.tolist() == ["i0", "i1", "i2", "i3"]
        assert back.users.tolist() == ["u1"] * 4
        assert np.array_equal(back.urps, log.urps)
        assert np.array_equal(back.features, log.features)
        assert back.true_quality is None and back.inflation is None


@dataclass(frozen=True)
class Inner:
    n: int
    x: float = 0.5
    tags: tuple[str, ...] = ()
    pair: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n: must be >= 0, got {self.n}")
        if self.x > 10:
            raise ValueError("x too large")


@dataclass(frozen=True)
class Outer:
    inner: Inner
    name: str | None = None
    flag: bool = False


class TestLoad:
    def test_builds_nested_dataclasses(self):
        got = load(Outer, {"inner": {"n": 2, "x": 3, "tags": ["a", "b"], "pair": [1, 2]},
                           "name": "o", "flag": True})
        assert got == Outer(Inner(2, 3.0, ("a", "b"), (1, 2)), "o", True)
        assert type(got.inner.x) is float and type(got.inner.tags) is tuple
        assert load(Outer, asdict(got)) == got

    @pytest.mark.parametrize("raw, path", [
        ({"inner": {"n": True}}, "inner.n"),          # a bool is not an int
        ({"inner": {"n": 1.5}}, "inner.n"),           # nor is 1.5
        ({"inner": {"n": 1, "x": False}}, "inner.x"),  # nor a number
        ({"inner": {"n": None}}, "inner.n"),          # null only where optional
        ({"inner": {"n": 1}, "flag": "no"}, "flag"),
        ({"inner": {"n": 1, "tags": "ab"}}, "inner.tags"),   # a tuple loads from an array
        ({"inner": {"n": 1, "tags": ["a", 2]}}, "inner.tags[1]"),
        ({"inner": {"n": 1, "pair": [1, 2, 3]}}, "inner.pair"),
        ({"inner": 3}, "inner"),
    ])
    def test_wrong_type_names_its_path(self, raw, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected"):
            load(Outer, raw)

    def test_null_loads_into_optional_fields(self):
        got = load(Outer, {"inner": {"n": 1, "pair": None}, "name": None})
        assert got.name is None and got.inner.pair is None

    def test_unknown_and_missing_keys_name_their_path(self):
        with pytest.raises(ConfigError, match=r"^inner\.m: unknown key"):
            load(Outer, {"inner": {"n": 1, "m": 2}})
        with pytest.raises(ConfigError, match=r"^inner\.n: missing required key"):
            load(Outer, {"inner": {}})
        with pytest.raises(ConfigError, match=r"^cfg\.inner: missing required key"):
            load(Outer, {}, "cfg")

    def test_post_init_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match=r"^inner\.n: must be >= 0, got -1"):
            load(Outer, {"inner": {"n": -1}})
        with pytest.raises(ConfigError, match=r"^inner: x too large"):
            load(Outer, {"inner": {"n": 1, "x": 11}})

    def test_schema_file_loads_strictly(self, tmp_path):
        path = tmp_path / "schema.json"
        SCHEMA.save(path)
        assert FeatureSchema.load(path) == SCHEMA
        path.write_text(json.dumps({**asdict(SCHEMA), "nmaes": []}))
        with pytest.raises(ConfigError, match="nmaes: unknown key"):
            FeatureSchema.load(path)
