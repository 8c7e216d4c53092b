"""The benchmark's tracer must find every name it wraps in the package.

``perfbench/spans.py`` skips a missing (owner, attribute) with a warning, so a
renamed function would silently move its time into the caller's self time.
This test reads the tracer's table without changing it.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from famdebias import bucketizer, core, debias, estimator, harness, metrics, policies, simulator

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    fd = SimpleNamespace(
        bucketizer=bucketizer, core=core, debias=debias, estimator=estimator,
        harness=harness, metrics=metrics, policies=policies, simulator=simulator,
    )
    table = load_spans().patch_table(fd)
    assert table
    # the tracer looks names up in the owner's own namespace, not inherited ones
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in table
        if attr not in vars(owner)
    ]
    assert missing == []
