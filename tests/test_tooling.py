"""The benchmark's tracer and workloads must run against the package.

``perfbench/spans.py`` skips a missing (owner, attribute) with a warning, so a
renamed function would silently move its time into the caller's self time.
The smoke test runs each ``perfbench/workloads.py`` workload once, so a call
the benchmark makes, or a per-arm report metric past its reference
tolerance, fails here too. Neither test changes the benchmark's files.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from famdebias import bucketizer, core, debias, estimator, harness, metrics, policies, simulator

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_module("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def test_every_traced_name_exists():
    fd = SimpleNamespace(
        bucketizer=bucketizer, core=core, debias=debias, estimator=estimator,
        harness=harness, metrics=metrics, policies=policies, simulator=simulator,
    )
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
