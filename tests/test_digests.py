"""Behaviour lock: pinned sha256 digests of report bundles and ranked slates.

The pinned values were measured at commit d2eed20 with CPython 3.11.7 and
numpy 2.4.6 on x86-64 Linux; two runs gave the same values each time. A
refactor must leave every value unchanged. A change that alters numerics on
purpose re-pins the affected values and says why in CHANGES.md.

The five values that depend on the fitted MLP (quick ``model.json`` and
``report.json``, ``aa``, ``quick_repro_arms`` and the continuous ranked
slate) were re-pinned, in the same environment, by the commit that
follows 417afe1: it computes softplus as max(x, 0) + log1p(exp(-|x|))
instead of ``np.logaddexp(0, x)``. The two differ in the last bit or two,
which moves the trained weights and everything ranked with them. The
table, the discrete slate and the simulator's own digests did not move.

The three ``report.json`` values (quick, ``aa``, ``quick_repro_arms``) were
re-pinned again when ``session.candidate_sample_users`` was removed. Each new
report equals the one from ecead03 with that key deleted from its config
echo and re-serialized with the same ``json.dumps`` options; every other
file of the bundles stayed byte-identical.

``LOG_DIGESTS`` pins the stage handoff: the arm logs and impression
matrices that ``run_pipeline`` writes to ``logs/`` for ``quick.json``. They
were measured at commit 3d80cee, before the column-wise JSONL encoder, and
lock its output to the bytes of the per-row ``json.dumps`` encoder.
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
        "3d2a6763c41571960664eb48eedf99f221becd65f1169ed25d6578798a99770b",
    ),
    "quick_repro_arms": (
        quick_with_repro_arms,
        "3d40cafda90746d653a02297a9c0cbd25cb0ed7f120185ccb0846fc7ca045738",
    ),
}

QUICK_DIGESTS = {
    "report.json": "023816ec0bc781a08765db86fec2ce83b65f86cbe9aa0c1b20e035f84ebea073",
    "artifacts/model.json": "b20a8860083253864944142c9739dac46054f8b73d1b2320c8e4c6b44da65b40",
    "artifacts/table.json": "5606bcf1cd4b27b0139e02ff68a68453f6ab2b39f534b535dfd29ceb0000fa96",
}

LOG_DIGESTS = {
    "control.jsonl": "9c57ba904353e8198ab5b994c980a153a5821ec9625e7284d3989a626613f8a2",
    "control_impressions.csv": "33dfb8b31146096adb06dd0589f6cb85b26eea610375bda112045c71d38c830d",
    "debias_continuous.jsonl": "6ae351a045499af085840abbcd1947d1569d61dab2053c3062963cc77aa05eb3",
    "debias_continuous_impressions.csv": "d320721a0c184c4062b65420ce41678f91ec7400d11db7ff462183a5caf4373a",
    "debias_discrete.jsonl": "85ed1b6ee0e1fc85daab536251fab689820950cedfc65f1d8309777994d7791d",
    "debias_discrete_impressions.csv": "9999e8117483c6f85f67b1cd07a00407239f14803a5c7f6320c5d8f1a9f678b1",
    "log_pop.jsonl": "b604d0ab23b9a2c4b0c84faf50415049aea17cc3a84d84d4aaa7dae2cdbd8221",
    "log_pop_impressions.csv": "411ebdb0234ec0bfdbffc581fa08edbe08fdcae7bf7beaa6ee640a1d6f9dee35",
}

SLATE_DIGESTS = {
    "discrete": "472d020103e548d3cb17951c87a72839d34187b5b8db2b33f97c82fc2d4071b0",
    "continuous": "b37b37846c1ef7aba4c7df59aafee34e5b6e7fcbd1591f726c91422c96bf2fa7",
}


@pytest.fixture(scope="module")
def quick_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("digest_quick")
    run_pipeline(load_config("quick.json"), outdir)
    return outdir


@pytest.mark.parametrize("name", sorted(QUICK_DIGESTS))
def test_quick_bundle_digest(quick_dir, name):
    assert sha256_of(quick_dir / name) == QUICK_DIGESTS[name]


def test_quick_logs_are_exactly_the_pinned_files(quick_dir):
    assert sorted(p.name for p in (quick_dir / "logs").iterdir()) == sorted(LOG_DIGESTS)


@pytest.mark.parametrize("name", sorted(LOG_DIGESTS))
def test_quick_log_digest(quick_dir, name):
    assert sha256_of(quick_dir / "logs" / name) == LOG_DIGESTS[name]


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
