"""Behaviour lock: pinned sha256 digests of report bundles and ranked slates.

The pinned values were measured at commit d2eed20 with CPython 3.11.7 and
numpy 2.4.6 on x86-64 Linux; two runs gave the same values each time. A
refactor must leave every value unchanged. A change that alters numerics on
purpose re-pins the affected values and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from famdebias.cli import main
from famdebias.harness import run_pipeline

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
DOCS_DIR = ROOT / "docs"


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_config(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


def quick_with_repro_arms() -> dict:
    # the only fast config that runs static_boost, user_centric and item_centric
    config = load_config("quick.json")
    config["arms"] = load_config("repro.json")["arms"]
    return config


REPORT_DIGESTS = {
    "aa": (
        lambda: load_config("aa.json"),
        "686f9c8bf9b5e4ffa583075809d7faaa1f77156238157c098f0ef2b6b8a6daf1",
    ),
    "quick_repro_arms": (
        quick_with_repro_arms,
        "ff614c56e1159ba447429b573ff70fbd704dfe80b9b6aee702b7d61e33802084",
    ),
}

QUICK_DIGESTS = {
    "report.json": "e1bd9cd1be0471cd12d5fc87073bc3888782a3f95af60e0683de56a592221479",
    "artifacts/model.json": "f9b7311a9b64f34a9a0707a37d11ad5698b8542c78d4a7798a323920a4d12433",
    "artifacts/table.json": "5606bcf1cd4b27b0139e02ff68a68453f6ab2b39f534b535dfd29ceb0000fa96",
}

SLATE_DIGESTS = {
    "discrete": "472d020103e548d3cb17951c87a72839d34187b5b8db2b33f97c82fc2d4071b0",
    "continuous": "c981516037c7dec1b6befba9bc766820c63c1cb51f3cb5ffb5a31fc3a1f6cb7f",
}


@pytest.fixture(scope="module")
def quick_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("digest_quick")
    run_pipeline(load_config("quick.json"), outdir)
    return outdir


@pytest.mark.parametrize("name", sorted(QUICK_DIGESTS))
def test_quick_bundle_digest(quick_dir, name):
    assert sha256_of(quick_dir / name) == QUICK_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digest(tmp_path, name):
    make_config, expected = REPORT_DIGESTS[name]
    run_pipeline(make_config(), tmp_path / name)
    assert sha256_of(tmp_path / name / "report.json") == expected


@pytest.mark.parametrize("mode", sorted(SLATE_DIGESTS))
def test_ranked_slate_digest(quick_dir, tmp_path, mode):
    artifact = ["--table", str(quick_dir / "artifacts" / "table.json")]
    if mode == "continuous":
        artifact = ["--model", str(quick_dir / "artifacts" / "model.json")]
    out_path = tmp_path / f"ranked_{mode}.jsonl"
    code = main([
        "debias", "--mode", mode, *artifact,
        "--schema", str(DOCS_DIR / "example_schema.json"),
        "--in", str(DOCS_DIR / "example_slate.jsonl"), "--out", str(out_path),
    ])
    assert code == 0
    assert sha256_of(out_path) == SLATE_DIGESTS[mode]
