"""Write ``references.json``: the report summary of every input variant.

    python3 perfbench/capture_references.py

Run at the commit whose outputs later commits are gated against. For each
of the ``VARIANTS`` variants it runs one ``closed_loop`` pipeline and one
``offline_fit_eval`` handoff and keeps the checks' pass/fail set and the
per-arm metrics that ``workloads.check_report`` compares.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    from famdebias import harness

    work = run.OUT / "work"
    refs = {
        "captured_at": {
            "git_revision": run.git_revision(run.ROOT),
            "source_sha256": run.source_digest(run.ROOT),
        },
        "closed_loop": {},
        "offline_fit_eval": {},
    }
    for variant in range(workloads.VARIANTS):
        report = harness.run_pipeline(
            workloads.experiment_config(run.ROOT, variant), work / "capture"
        )
        refs["closed_loop"][str(variant)] = workloads.report_summary(report)
        offline = workloads.OfflineFitEval(run.ROOT, variant, work)
        offline.setup()
        offline.main(None)
        refs["offline_fit_eval"][str(variant)] = workloads.report_summary(offline.report)
        print(f"variant {variant} captured", flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
