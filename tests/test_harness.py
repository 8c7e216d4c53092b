"""Pipeline wiring, configuration validation, CLI surface, stage isolation."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from famdebias import harness, simulator
from famdebias.cli import main
from famdebias.core import FeatureSchema
from famdebias.harness import (
    ConfigError,
    ExperimentConfig,
    StageError,
    emit_report,
    make_policies,
    run_pipeline,
)
from famdebias.policies import LogPopPolicy, build_policy

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def quick_config():
    return json.loads((CONFIG_DIR / "quick.json").read_text())


@pytest.fixture(scope="module")
def quick_run(quick_config, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("quick_run")
    report = run_pipeline(quick_config, outdir)
    return report, outdir


REPORT_FILES = (
    "report.json",
    "table1.csv",
    "fig3_distribution.csv",
    "fig4_shift.csv",
    "fig4_calibration.csv",
)


def bundle_bytes(outdir: Path) -> dict:
    names = [
        *REPORT_FILES,
        "manifest.json",
        "artifacts/table.json",
        "artifacts/model.json",
        "artifacts/schema.json",
    ]
    return {name: (outdir / name).read_bytes() for name in names}


DELETE = object()


class Merge(dict):
    """A BAD_KEYS value whose keys are set inside the section the path names."""


# case -> (key path in quick.json, value to put there, DELETE or a Merge, dotted path the error names)
BAD_KEYS = {
    "typo-top-level": (("trian",), {"seed": 1}, "trian"),
    "typo-universe": (("universe", "userz"), 80, "universe.userz"),
    "typo-inflation": (("inflation", "noise_sigm"), 0.2, "inflation.noise_sigm"),
    "typo-feature": (("inflation", "features", 0, "knd"), "count", "inflation.features[0].knd"),
    "missing-feature-kind": (("inflation", "features", 0, "kind"), DELETE,
                             "inflation.features[0].kind"),
    "typo-session": (("session", "pool_skw"), 0.8, "session.pool_skw"),
    "typo-arm": (("arms", 3, "parms"), {}, "arms[3].parms"),
    "typo-bucketizer": (("bucketizer", "min_cell_cnt"), 10, "bucketizer.min_cell_cnt"),
    "typo-train": (("train", "hiden_sizes"), [8], "train.hiden_sizes"),
    "debias-mode": (("debias", "mode"), "discrete", "debias.mode"),
    "typo-metrics": (("metrics", "replicatse"), 200, "metrics.replicatse"),
    "seed-float": (("experiment_seed",), 1.5, "experiment_seed"),
    "write-logs-string": (("write_logs",), "no", "write_logs"),
    "users-bool": (("universe", "users"), True, "universe.users"),
    "null-replicates": (("metrics", "replicates"), None, "metrics.replicates"),
    "sessions-string": (("session", "sessions"), "12", "session.sessions"),
    "hidden-sizes-int": (("train", "hidden_sizes"), 16, "train.hidden_sizes"),
    "clip-bounds-short": (("bucketizer", "clip_bounds"), [0.5], "bucketizer.clip_bounds"),
    "arm-param-typo": (("arms", 3, "params", "lamda_pop"), 0.1, "arms[3].params.lamda_pop"),
    "arm-mode": (("arms", 1, "params", "mode"), "discret", "arms[1].params.mode"),
    "arm-strength": (("arms", 1, "params", "strength"), 2, "arms[1].params.strength"),
    "arm-lambda-pop": (("arms", 3, "params", "lambda_pop"), -1, "arms[3].params.lambda_pop"),
    "arm-quota-share": (("arms", 3), {"name": "q", "policy": "item_centric",
                                      "params": {"quota": {"high": 2}}},
                        "arms[3].params.quota.high"),
    "users-0": (("universe", "users"), 0, "universe"),
    "items-below-creators": (("universe", "items"), 10, "universe"),
    "latent-dim-0": (("universe", "latent_dim"), 0, "universe.latent_dim"),
    "recent-fraction-2": (("universe", "recent_fraction"), 2.0, "universe.recent_fraction"),
    "max-samples-0": (("train", "max_samples"), 0, "train.max_samples"),
    "clip-bounds-inverted": (("bucketizer", "clip_bounds"), [2.0, 0.5],
                             "bucketizer.clip_bounds"),
    "smoothing-negative": (("bucketizer", "smoothing_prior_weight"), -1,
                           "bucketizer.smoothing_prior_weight"),
    "start-day-0": (("session", "start_day"), 0, "session.start_day"),
    "start-day-negative": (("session", "start_day"), -20, "session.start_day"),
    "slate-size-0": (("session",), Merge(slate_size=0, consume_top_k=0), "session.slate_size"),
    "slate-size-negative": (("session",), Merge(slate_size=-1, consume_top_k=-2),
                            "session.slate_size"),
    "consume-top-k-negative": (("session", "consume_top_k"), -1, "session.consume_top_k"),
    # a valid simulator setting, but a run would have no records to fit on
    "consume-top-k-0": (("session", "consume_top_k"), 0, "session.consume_top_k"),
    # a count declared as recency would inflate never-watched items
    "feature-kind-mismatch": (("inflation", "features", 0, "kind"), "recency",
                              "inflation.features[0].kind"),
    # 45 draws per pool item at quick's shape: the per-user fallback stalls
    "pool-skew-steep": (("session", "pool_skew"), 2.0, "session.pool_skew"),
    # quick has 800 items
    "pool-size-above-items": (("session", "pool_size"), 801, "session.pool_size"),
    # the candidate log and its key were removed
    "candidate-sample-users": (("session", "candidate_sample_users"), 0,
                               "session.candidate_sample_users"),
}

MALFORMED_CONFIGS = (
    "not-json",
    "calibration-feature",
    "inflation-feature",
    "boost-feature",
    "bucketizer-k-0",
    "bucketizer-k-1",
    "calibration-buckets-1",
    "replicates-0",
    "replicates-1",
    "emerging-percentile-150",
    "window-days--1",
    "window-days-inf",
    *BAD_KEYS,
)


def malformed_config_text(case: str, config: dict) -> str:
    """Config file text that must be rejected before any stage runs."""
    if case == "not-json":
        return "{not json"
    config = json.loads(json.dumps(config))
    if case == "calibration-feature":
        config["metrics"]["calibration_feature"] = "nope"
    elif case == "inflation-feature":
        config["inflation"]["features"][0]["name"] = "nope"
    elif case == "boost-feature":
        config["arms"].append(
            {"name": "boost", "policy": "static_boost", "params": {"feature": "nope"}}
        )
    elif case.startswith("bucketizer-k-"):
        config.setdefault("bucketizer", {})["k"] = int(case.rsplit("-", 1)[1])
    elif case == "calibration-buckets-1":
        config["metrics"]["calibration_buckets"] = 1
    elif case.startswith("replicates-"):
        config["metrics"]["replicates"] = int(case.rsplit("-", 1)[1])
    elif case == "emerging-percentile-150":
        config["metrics"]["emerging_percentile"] = 150
    elif case.startswith("window-days-"):
        config["metrics"]["window_days"] = float(case.split("-", 2)[2])
    elif case in BAD_KEYS:
        (*parents, key), value, _ = BAD_KEYS[case]
        target = config
        for step in parents:
            target = target[step]
        if value is DELETE:
            del target[key]
        elif isinstance(value, Merge):
            target[key].update(value)
        else:
            target[key] = value
    return json.dumps(config)


def fail_in_evaluate(*args, **kwargs):
    """Stand-in for ``evaluate_results``: a failure after arms and artifacts exist."""
    raise ValueError("evaluation failed")


class TestConfigValidation:
    def test_bundled_configs_parse(self):
        for name in ("quick.json", "repro.json", "aa.json"):
            cfg = ExperimentConfig.from_dict(json.loads((CONFIG_DIR / name).read_text()))
            assert cfg.control_name == "control"

    def test_missing_seed_rejected(self, quick_config):
        broken = json.loads(json.dumps(quick_config))
        del broken["universe"]["seed"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)
        broken = json.loads(json.dumps(quick_config))
        del broken["train"]["seed"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)
        broken = json.loads(json.dumps(quick_config))
        del broken["metrics"]["bootstrap_seed"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)

    def test_unknown_policy_rejected(self, quick_config):
        broken = json.loads(json.dumps(quick_config))
        broken["arms"].append({"name": "x", "policy": "mystery"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)

    def test_missing_control_rejected(self, quick_config):
        broken = json.loads(json.dumps(quick_config))
        broken["arms"] = [a for a in broken["arms"] if a["policy"] != "control"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)

    def test_duplicate_arm_names_rejected(self, quick_config):
        broken = json.loads(json.dumps(quick_config))
        broken["arms"].append(dict(broken["arms"][0]))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)

    @pytest.mark.parametrize("policy, params, path", [
        ("debias", {"mode": "other"}, "params.mode"),
        ("debias", {"strength": -0.5}, "params.strength"),
        ("log_pop", {"lamda_pop": 0.1}, "params.lamda_pop"),
        ("item_centric", {"quota": {"top": 0.5}}, "params.quota.top"),
        ("control", {"mode": "discrete"}, "params.mode"),
    ])
    def test_build_policy_checks_params_like_the_loader(self, quick_config, policy, params,
                                                        path):
        cfg = ExperimentConfig.from_dict(quick_config)
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            build_policy(policy, params, cfg.schema, cfg.session.slate_size,
                         debias_config=cfg.debias)
        broken = json.loads(json.dumps(quick_config))
        broken["arms"].append({"name": "x", "policy": policy, "params": params})
        with pytest.raises(ConfigError, match=re.escape(f"arms[4].{path}: ")):
            ExperimentConfig.from_dict(broken)

    def test_make_policies_rejects_an_unknown_arm(self, quick_config):
        cfg = ExperimentConfig.from_dict(quick_config)
        with pytest.raises(ConfigError, match="'ghost'"):
            make_policies(cfg, None, None, ["control", "ghost"])

    def test_config_echo_round_trips(self, quick_config):
        cfg = ExperimentConfig.from_dict(quick_config)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestPipeline:
    def test_report_structure_and_files(self, quick_run):
        report, outdir = quick_run
        assert set(report["arms"]) == {
            "control", "debias_discrete", "debias_continuous", "log_pop",
        }
        for name in ("report.json", "table1.csv", "fig3_distribution.csv",
                     "fig4_shift.csv", "fig4_calibration.csv", "manifest.json"):
            assert (outdir / name).exists(), name
        for name in ("table.json", "model.json", "schema.json"):
            assert (outdir / "artifacts" / name).exists()
        for arm in report["arms"]:
            assert (outdir / "logs" / f"{arm}.jsonl").exists()
            assert (outdir / "logs" / f"{arm}_impressions.csv").exists()

    def test_control_deltas_are_exact_zeros(self, quick_run):
        report, _ = quick_run
        for metric, ci in report["deltas"]["control"].items():
            assert ci["point"] == 0.0, metric
            assert ci["ci_low"] == 0.0 and ci["ci_high"] == 0.0

    def test_checks_present_with_measured_values(self, quick_run):
        report, _ = quick_run
        checks = report["checks"]
        assert "mean_one_per_cell" in checks
        assert checks["mean_one_per_cell"]["value"] <= 1e-9
        assert "decorrelation_discrete" in checks
        assert "direction_debias_discrete" in checks

    def test_byte_identical_rerun(self, quick_config, quick_run, tmp_path):
        _, first_dir = quick_run
        second_dir = tmp_path / "again"
        run_pipeline(quick_config, second_dir)
        first = bundle_bytes(first_dir)
        second = bundle_bytes(second_dir)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_single_arm_config_gives_one_zero_row(self, quick_config, tmp_path):
        cfg = json.loads(json.dumps(quick_config))
        cfg["arms"] = [{"name": "control", "policy": "control"}]
        report = run_pipeline(cfg, tmp_path / "solo")
        assert list(report["deltas"]) == ["control"]
        for ci in report["deltas"]["control"].values():
            assert ci["point"] == 0.0

    def test_duplicate_control_deltas_contain_zero(self, tmp_path):
        config = json.loads((CONFIG_DIR / "aa.json").read_text())
        config["universe"]["users"] = 120
        config["universe"]["items"] = 1200
        config["session"]["sessions"] = 8
        report = run_pipeline(config, tmp_path / "aa")
        for metric, ci in report["deltas"]["duplicate_control"].items():
            assert ci["ci_low"] <= 0.0 <= ci["ci_high"], metric

    def test_stage_failure_keeps_partial_outputs(self, quick_config, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "evaluate_results", fail_in_evaluate)
        outdir = tmp_path / "broken"
        with pytest.raises(StageError) as exc:
            run_pipeline(quick_config, outdir)
        assert exc.value.stage == "evaluate"
        failed = outdir / "failed"
        assert failed.is_dir()
        assert (failed / "artifacts" / "table.json").exists()
        assert not (outdir / "artifacts").exists()

    def test_stage_failure_leaves_user_files_in_place(self, quick_config, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "evaluate_results", fail_in_evaluate)
        outdir = tmp_path / "broken"
        outdir.mkdir()
        (outdir / "my_notes.txt").write_text("kept\n")
        with pytest.raises(StageError):
            run_pipeline(quick_config, outdir)
        assert (outdir / "my_notes.txt").read_text() == "kept\n"
        assert not (outdir / "failed" / "my_notes.txt").exists()
        assert (outdir / "failed" / "manifest.json").exists()


class TestEmitReport:
    def test_table_csv_layout(self, quick_run):
        report, outdir = quick_run
        lines = (outdir / "table1.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "arm"
        assert header[1:4] == [
            "emerging_creator_exposure_delta",
            "emerging_creator_exposure_ci_low",
            "emerging_creator_exposure_ci_high",
        ]
        arms = [line.split(",")[0] for line in lines[1:]]
        assert arms == [a["name"] for a in report["config"]["arms"]]

    def test_reemit_is_stable(self, quick_run, tmp_path):
        report, outdir = quick_run
        emit_report(report, tmp_path / "again")
        for name in ("report.json", "table1.csv", "fig4_calibration.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (outdir / name).read_bytes()


class TestStageIsolation:
    def test_staged_cli_flow_matches_pipeline(self, quick_config, quick_run, tmp_path):
        """simulate, fit, simulate, evaluate write the bytes run writes, every file."""
        report, outdir = quick_run
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(quick_config))
        logs_dir = tmp_path / "stage_logs"
        fit_dir = tmp_path / "stage_fit"
        eval_dir = tmp_path / "stage_eval"

        assert main([
            "simulate", "--config", str(cfg_path), "--out", str(logs_dir),
            "--arms", "control",
        ]) == 0
        assert main([
            "fit", "--config", str(cfg_path),
            "--log", str(logs_dir / "control.jsonl"), "--out", str(fit_dir),
        ]) == 0
        assert main([
            "simulate", "--config", str(cfg_path), "--out", str(logs_dir),
            "--arms", "debias_discrete,debias_continuous,log_pop",
            "--table", str(fit_dir / "table.json"),
            "--model", str(fit_dir / "model.json"),
        ]) == 0
        assert main([
            "evaluate", "--config", str(cfg_path), "--logs", str(logs_dir),
            "--artifacts", str(fit_dir), "--out", str(eval_dir),
        ]) == 0

        # staged file -> the file run_pipeline wrote with the same contents
        same = {eval_dir / name: outdir / name for name in REPORT_FILES}
        same.update(
            (fit_dir / name, outdir / "artifacts" / name)
            for name in ("table.json", "model.json", "schema.json")
        )
        same[logs_dir / "schema.json"] = outdir / "artifacts" / "schema.json"
        same[logs_dir / "manifest.json"] = outdir / "manifest.json"
        for arm in report["arms"]:
            for name in (f"{arm}.jsonl", f"{arm}_impressions.csv"):
                same[logs_dir / name] = outdir / "logs" / name

        def files(*dirs):
            return {p for d in dirs for p in d.rglob("*") if p.is_file()}

        assert files(logs_dir, fit_dir, eval_dir) == set(same)
        assert files(outdir) == set(same.values())
        for staged, piped in same.items():
            assert staged.read_bytes() == piped.read_bytes(), staged.relative_to(tmp_path)


class TestCli:
    def test_run_subcommand(self, quick_config, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        quick = json.loads(json.dumps(quick_config))
        quick["arms"] = quick["arms"][:2]
        cfg_path.write_text(json.dumps(quick))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "report written" in out
        assert "[PASS]" in out or "[FAIL]" in out

    def test_failed_arm_worker_exits_3(self, quick_config, quick_run, tmp_path, monkeypatch,
                                       capsys):
        _, outdir = quick_run
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(quick_config))
        calls = []
        original = LogPopPolicy.rank_batch

        def failing(self, *args):
            calls.append(None)
            if len(calls) == 3:  # session 2: session 0 ran before the fork
                raise FloatingPointError("log_pop failed in session 2")
            return original(self, *args)

        monkeypatch.setattr(LogPopPolicy, "rank_batch", failing)
        monkeypatch.setattr(simulator, "_FORCED_WORKERS", 2)
        cause = "FloatingPointError: log_pop failed in session 2"
        assert main([
            "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "logs"),
            "--arms", "debias_discrete,debias_continuous,log_pop",
            "--table", str(outdir / "artifacts" / "table.json"),
            "--model", str(outdir / "artifacts" / "model.json"),
        ]) == 3
        err = capsys.readouterr().err
        assert "'log_pop'" in err and cause in err
        calls.clear()
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "stage 'simulate-arms' failed" in err and cause in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("case", MALFORMED_CONFIGS)
    def test_malformed_config_exits_2(self, quick_config, tmp_path, capsys, case):
        bad = tmp_path / "bad.json"
        bad.write_text(malformed_config_text(case, quick_config))
        outdir = tmp_path / "o"
        assert main(["run", "--config", str(bad), "--out", str(outdir)]) == 2
        # rejected before any stage ran: nothing written, not even failed/
        assert not outdir.exists()
        if case in BAD_KEYS:
            assert f"error: {BAD_KEYS[case][2]}" in capsys.readouterr().err

    def test_non_object_config_with_seed_override_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        outdir = tmp_path / "o"
        assert main(["run", "--config", str(bad), "--out", str(outdir), "--seed", "3"]) == 2
        assert "error: config: expected a JSON object" in capsys.readouterr().err
        assert not outdir.exists()

    def test_unknown_arm_exits_2(self, quick_config, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(quick_config))
        outdir = tmp_path / "logs"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(outdir), "--arms", "ghost"]) == 2
        assert "ghost" in capsys.readouterr().err
        assert not outdir.exists()

    def test_arm_needing_artifacts_without_them_exits_2(self, quick_config, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(quick_config))
        outdir = tmp_path / "logs"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(outdir), "--arms", "debias_discrete"]) == 2
        assert not outdir.exists()

    @pytest.mark.parametrize("bad_line", ["[1,2]", '{"user_id": 0,'])
    def test_malformed_log_line_exits_2_naming_the_line(self, quick_config, quick_run,
                                                        tmp_path, capsys, bad_line):
        _, outdir = quick_run
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(quick_config))
        logs = tmp_path / "logs"
        logs.mkdir()
        good = (outdir / "logs" / "control.jsonl").read_text().splitlines(keepends=True)
        (logs / "control.jsonl").write_text("".join(good[:4]) + bad_line + "\n")
        assert main(["fit", "--config", str(cfg_path), "--log", str(logs / "control.jsonl"),
                     "--out", str(tmp_path / "fit")]) == 2
        assert f"control.jsonl: line 5:" in capsys.readouterr().err
        assert main(["evaluate", "--config", str(cfg_path), "--logs", str(logs),
                     "--artifacts", str(outdir / "artifacts"),
                     "--out", str(tmp_path / "eval")]) == 2
        assert f"control.jsonl: line 5:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["timestamp", "true_quality"])
    def test_huge_integer_in_a_log_exits_2_naming_the_line(self, quick_config, quick_run,
                                                           tmp_path, capsys, field):
        _, outdir = quick_run
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(quick_config))
        good = (outdir / "logs" / "control.jsonl").read_text().splitlines(keepends=True)
        row = json.loads(good[4])
        row[field] = 10**400
        log = tmp_path / "control.jsonl"
        log.write_text("".join(good[:4]) + json.dumps(row) + "\n")
        assert main(["fit", "--config", str(cfg_path), "--log", str(log),
                     "--out", str(tmp_path / "fit")]) == 2
        assert "control.jsonl: line 5:" in capsys.readouterr().err

    def test_invalid_utf8_in_a_log_exits_2_naming_the_line(self, quick_config, quick_run,
                                                          tmp_path, capsys):
        _, outdir = quick_run
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(quick_config))
        good = (outdir / "logs" / "control.jsonl").read_bytes().splitlines(keepends=True)
        log = tmp_path / "control.jsonl"
        log.write_bytes(b"".join(good[:3]) + good[3][:20] + b"\xff" + good[3][20:])
        assert main(["fit", "--config", str(cfg_path), "--log", str(log),
                     "--out", str(tmp_path / "fit")]) == 2
        assert f"{log}: line 4: 'utf-8' codec" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_debias_with_another_schema_exits_2(self, quick_run, tmp_path, capsys, mode):
        _, outdir = quick_run
        schema = json.loads((outdir / "artifacts" / "schema.json").read_text())
        schema["kinds"][2] = "count"
        other = tmp_path / "schema.json"
        other.write_text(json.dumps(schema))
        artifact = {"discrete": ["--table", str(outdir / "artifacts" / "table.json")],
                    "continuous": ["--model", str(outdir / "artifacts" / "model.json")]}[mode]
        slate_path = Path(__file__).resolve().parent.parent / "docs" / "example_slate.jsonl"
        out_path = tmp_path / "ranked.jsonl"
        assert main(["debias", "--mode", mode, *artifact, "--schema", str(other),
                     "--in", str(slate_path), "--out", str(out_path)]) == 2
        assert "schema" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("bad_line", ["[1,2]", '{"item_id": "x",', '{"item_id": "x"}',
                                          '{"item_id": "x", "urps": 1.0, "familiarity": [1]}'])
    def test_malformed_slate_line_exits_2_naming_the_line(self, quick_run, tmp_path, capsys,
                                                          bad_line):
        _, outdir = quick_run
        good = (Path(__file__).resolve().parent.parent / "docs" / "example_slate.jsonl")
        slate = tmp_path / "slate.jsonl"
        slate.write_text(good.read_text().splitlines(keepends=True)[0] + bad_line + "\n")
        out_path = tmp_path / "ranked.jsonl"
        assert main(["debias", "--mode", "discrete",
                     "--table", str(outdir / "artifacts" / "table.json"),
                     "--in", str(slate), "--out", str(out_path)]) == 2
        assert f"slate.jsonl: line 2:" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["2.5", True, None])
    @pytest.mark.parametrize("field", ["urps", "item_watch_count", "freshness"])
    def test_non_number_in_a_slate_exits_2_naming_the_line(self, quick_run, tmp_path, capsys,
                                                           field, value):
        _, outdir = quick_run
        good = (Path(__file__).resolve().parent.parent / "docs" / "example_slate.jsonl")
        lines = good.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        where = {"urps": row, "item_watch_count": row["familiarity"],
                 "freshness": row["quality_signals"]}[field]
        where[field] = value
        slate = tmp_path / "slate.jsonl"
        slate.write_text(lines[0] + json.dumps(row) + "\n" + "".join(lines[2:]))
        out_path = tmp_path / "ranked.jsonl"
        assert main(["debias", "--mode", "discrete",
                     "--table", str(outdir / "artifacts" / "table.json"),
                     "--in", str(slate), "--out", str(out_path)]) == 2
        assert f"slate.jsonl: line 2: {field}: expected a number" in capsys.readouterr().err
        assert not out_path.exists()

    def test_json_inputs_are_utf8_whatever_the_locale(self, quick_config, quick_run, tmp_path):
        _, outdir = quick_run
        # an arm (its name only, in the config) and a feature renamed
        arm, feature = ('"log_pop"', '"log_pop_é"'), ("item_watch_count", "item_watch_é")

        def write_raw(name, text, rename):
            # raw UTF-8, as a hand-edited file may hold; the writers escape it
            (tmp_path / name).write_bytes(text.replace(*rename).encode())
            return str(tmp_path / name)

        arts, docs = outdir / "artifacts", Path(__file__).resolve().parent.parent / "docs"
        schema = write_raw("schema.json", (arts / "schema.json").read_text(), feature)
        table = json.loads((arts / "table.json").read_text())
        table["schema_digest"] = FeatureSchema.load(schema).digest()
        files = {name.partition(".")[0]: write_raw(name, text, rename) for name, text, rename in [
            ("config.json", json.dumps(quick_config), [f'"name": {a}' for a in arm]),
            ("report.json", (outdir / "report.json").read_text(), arm),
            ("table.json", json.dumps(table), feature),
            ("model.json", (arts / "model.json").read_text(), feature),
            ("slate.jsonl", (docs / "example_slate.jsonl").read_text(), feature),
        ]}
        ranked = ["--schema", schema, "--in", files["slate"], "--out"]
        commands = [
            ["simulate", "--config", files["config"], "--out", str(tmp_path / "sim"),
             "--arms", "control"],
            ["report", "--report", files["report"], "--out", str(tmp_path / "rep")],
            ["debias", "--mode", "discrete", "--table", files["table"], *ranked,
             str(tmp_path / "d.jsonl")],
            ["debias", "--mode", "continuous", "--model", files["model"], *ranked,
             str(tmp_path / "c.jsonl")],
        ]
        script = ("import json, sys; from famdebias.cli import main; "
                  "print(*[main(args) for args in json.loads(sys.argv[1])])")
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": str(Path(harness.__file__).parent.parent)}
        env.pop("PYTHONUTF8", None)
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script,
                               json.dumps(commands)], env=env, capture_output=True, text=True,
                              encoding="utf-8")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-4:] == ["0"] * 4, done.stderr
        assert "log_pop_é" in (tmp_path / "rep" / "table1.csv").read_text(encoding="utf-8")
        assert feature[1] in json.loads((tmp_path / "d.jsonl").read_bytes().splitlines()[0])[
            "familiarity"]

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_debias_slate_file_round_trip(self, quick_config, tmp_path, quick_run):
        _, outdir = quick_run
        slate_path = Path(__file__).resolve().parent.parent / "docs" / "example_slate.jsonl"
        out_path = tmp_path / "ranked.jsonl"
        code = main([
            "debias", "--mode", "discrete",
            "--table", str(outdir / "artifacts" / "table.json"),
            "--in", str(slate_path), "--out", str(out_path),
        ])
        assert code == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(rows) == 6
        finals = [r["final_score"] for r in rows]
        assert finals == sorted(finals, reverse=True)
        for r in rows:
            assert r["debiased_score"] > 0

    def test_report_subcommand_reemits(self, quick_run, tmp_path):
        _, outdir = quick_run
        assert main(["report", "--report", str(outdir / "report.json"),
                     "--out", str(tmp_path / "csv")]) == 0
        assert (tmp_path / "csv" / "table1.csv").read_bytes() == (
            outdir / "table1.csv"
        ).read_bytes()
