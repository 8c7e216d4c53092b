"""The benchmark and the README must match the package.

``perfbench/spans.py`` skips a missing (owner, attribute) with a warning, so a
renamed function would silently move its time into the caller's self time.
The smoke test runs each ``perfbench/workloads.py`` workload once, so a call
the benchmark makes, or a per-arm report metric past its reference
tolerance, fails here too. Neither test changes the benchmark's files. The
README's configuration table must name every field of each section's
dataclass, and no key that the dataclass lacks. Each recorded ``BENCH_*.json``
must hold every end-to-end metric of ``BENCHMARK.json`` for both sides. No
module of the package imports a name it never uses, so a deletion leaves
no import behind.
"""

import ast
import dataclasses
import importlib.util
import json
import re
import statistics
import sys
import typing
from pathlib import Path
from types import SimpleNamespace

import pytest

from famdebias import bucketizer, core, debias, estimator, harness, metrics, policies, simulator

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
MODULES = {
    "bucketizer": bucketizer, "core": core, "debias": debias, "estimator": estimator,
    "harness": harness, "metrics": metrics, "policies": policies, "simulator": simulator,
}


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_module("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def test_every_traced_name_exists():
    fd = SimpleNamespace(**MODULES)
    table = load_module("perfbench_spans", SPANS).patch_table(fd)
    assert table
    # the tracer looks names up in the owner's own namespace, not inherited ones
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in table
        if attr not in vars(owner)
    ]
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_runs_clean(name, tmp_path):
    workload = workloads.WORKLOADS[name](ROOT, 1, tmp_path)
    workload.setup()
    workload.main(None)
    outcome = workload.after()
    assert outcome.errors == []
    assert outcome.failed_requests == 0


def config_table_rows():
    """(section, dataclass or None, backticked names past the first two cells) per row."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| Section | Dataclass | Required keys | Defaults and checks |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        section, kind, *rest = (cell.strip() for cell in line.strip("|").split(" | "))
        named = [
            getattr(MODULES[module], name)
            for module, name in re.findall(r"`(\w+)\.(\w+)`", kind)
            if module in MODULES
        ]
        cls = next((c for c in named if dataclasses.is_dataclass(c)), None)
        rows.append((section.strip("`"), cls, re.findall(r"`([^`]+)`", " ".join(rest))))
    return rows


def nested_dataclasses(cls):
    """``cls`` and every dataclass its field types hold, however deeply."""
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current in found:
            continue
        found.append(current)
        types = list(typing.get_type_hints(current).values())
        while types:
            t = types.pop()
            if dataclasses.is_dataclass(t):
                todo.append(t)
            types.extend(typing.get_args(t))
    return found


def test_readme_config_table_matches_the_dataclasses():
    rows = config_table_rows()
    assert sorted(section for section, _, _ in rows) == sorted(
        f.name for f in dataclasses.fields(harness.ExperimentConfig)
    )
    problems = []
    for section, cls, names in rows:
        if cls is None:
            continue
        keys = {n for n in names if re.fullmatch(r"[a-z][a-z0-9_]*", n)}
        own = {f.name for f in dataclasses.fields(cls)}
        known = {f.name for c in nested_dataclasses(cls) for f in dataclasses.fields(c)}
        problems += [f"{section}: field {name!r} not in the row" for name in sorted(own - keys)]
        problems += [f"{section}: {name!r} is not a field" for name in sorted(keys - known)]
    assert problems == []


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_is_well_formed(path):
    record = json.loads(path.read_text())
    for key in ("command", "host", "protocol", "parent", "change"):
        assert key in record, f"{path.name} does not name {key!r}"
    for workload in BENCHMARK["workloads"]:
        for side in ("parent", "change"):
            metrics = record[workload["name"]][side]["metrics"]
            runs = set()
            for metric in BENCHMARK["end_to_end"]:
                where = f"{path.name}: {workload['name']}.{side}.{metric['name']}"
                assert metric["name"] in metrics, f"{where} is missing"
                values = metrics[metric["name"]]["values"]
                runs.add(len(values))
                assert values and metrics[metric["name"]]["median"] == pytest.approx(
                    statistics.median(values), rel=1e-12
                ), where
            assert len(runs) == 1, f"{path.name}: {workload['name']}.{side} run counts {runs}"


# names a module imports only for callers to reach through it
REEXPORTS = {("harness", "run_arm")}  # perfbench/workloads.py calls harness.run_arm


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((ROOT / "src" / "famdebias").glob("*.py")):
        if path.name == "__init__.py":  # the package namespace re-exports its imports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}: {name}" for name in imported_names(tree)
            if name not in used and (path.stem, name) not in REEXPORTS
        ]
    assert unused == []
