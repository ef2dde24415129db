"""Flag resolution, exit codes, run manifests, and the command bodies."""

import builtins
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from flowsentry import cli, flowdata, monitor, pipeline, synth

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_ANOMALIES = 2
EXIT_USAGE = 64


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# flag resolution


class TestParseArgs:
    def test_defaults_when_nothing_given(self):
        cfg = cli.parse_args(["monitor", "--model", "m.nidm", "--input", "in.csv"])
        assert cfg.subcommand == "monitor"
        assert cfg.params["out-dir"] == "."
        assert cfg.params["threshold"] == 0.5
        assert cfg.params["stage"] == "monitor"
        assert cfg.warnings == []

    def test_config_file_overrides_defaults(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 5\nepochs = 3\n# comment\n\n", encoding="utf-8")
        cfg = cli.parse_args(["train", "--data", "d.csv", "--config", str(conf)])
        assert cfg.params["seed"] == 5
        assert cfg.params["epochs"] == 3
        assert cfg.warnings == []

    def test_flag_overrides_config_with_warning(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 5\n", encoding="utf-8")
        cfg = cli.parse_args(["train", "--data", "d.csv",
                              "--config", str(conf), "--seed", "7"])
        assert cfg.params["seed"] == 7
        assert len(cfg.warnings) == 1
        assert "--seed" in cfg.warnings[0] and "5" in cfg.warnings[0]

    def test_unknown_config_key_warned_and_ignored(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate = 1\n", encoding="utf-8")
        cfg = cli.parse_args(["train", "--data", "d.csv", "--config", str(conf)])
        assert any("frobnicate" in w for w in cfg.warnings)
        assert "frobnicate" not in cfg.params

    def test_comma_separated_flags_parse_to_lists(self):
        cfg = cli.parse_args([
            "train", "--data", "d.csv",
            "--conv-filters", "8,16", "--dropout", "0.1,0.2",
            "--lstm", "8", "--epochs", "4",
        ])
        assert cfg.params["conv-filters"] == [8, 16]
        assert cfg.params["dropout"] == [0.1, 0.2]
        assert cfg.params["lstm"] == [8]
        assert cfg.params["epochs"] == 4

    def test_flag_style_booleans(self):
        cfg = cli.parse_args(["train", "--data", "d.csv", "--no-resample"])
        assert cfg.params["no-resample"] is True
        cfg = cli.parse_args(["train", "--data", "d.csv"])
        assert cfg.params["no-resample"] is False

    def test_one_parser_per_process_matches_fresh_parsers(self, capsys, monkeypatch):
        sequence = [
            ["monitor", "--model", "m.nidm", "--input", "in.csv", "--follow"],
            ["monitor", "--model", "m.nidm", "--input", "in.csv"],
            ["train", "--data", "d.csv", "--epochs", "3", "--no-resample"],
            ["train", "--data", "d.csv"],
            ["train"],
            ["--help"],
            ["stage-run", "--help"],
            ["frobnicate"],
            ["train", "--data", "d.csv", "--epochs", "x"],
            ["stage-run", "--model", "m", "--build-input", "b", "--test-input", "t",
             "--deploy-input", "d", "--monitor-input", "m", "--threshold", "0.9"],
            ["monitor", "--model", "m.nidm", "--input", "in.csv", "--stage", "deploy"],
            ["train", "--data", "d.csv"],
        ]
        built = cli._build_parser
        assert built() is built()

        def drive(build_parser):
            monkeypatch.setattr(cli, "_build_parser", build_parser)
            configs = []
            monkeypatch.setattr(cli, "run", lambda cfg: configs.append(cfg) or EXIT_OK)
            seen = []
            for argv in sequence:
                code = cli.main(argv)
                out, err = capsys.readouterr()
                seen.append((code, configs.pop() if configs else None, out, err))
            return seen

        fresh = drive(built.__wrapped__)
        once = drive(built)
        assert once == fresh
        assert [code for code, *_ in once] == [0, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 0]
        assert once[0][1].params["follow"] is True and once[1][1].params["follow"] is False

    def test_usage_errors_exit_64(self, capsys):
        assert cli.main([]) == EXIT_USAGE
        assert cli.main(["train"]) == EXIT_USAGE
        assert "--data" in capsys.readouterr().err
        assert cli.main(["train", "--data", "d.csv", "--epochs", "abc"]) == EXIT_USAGE
        assert cli.main(["train", "--frobnicate"]) == EXIT_USAGE
        assert cli.main(["no-such-command"]) == EXIT_USAGE

    def test_unreadable_config_file_exits_64(self, tmp_path):
        assert cli.main(["train", "--data", "d.csv",
                         "--config", str(tmp_path / "absent.conf")]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == EXIT_OK
        assert "SUBCOMMAND" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the options each subcommand takes


class _ReadRecorder(dict):
    """Effective params that note every key a command body reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path):
    """{subcommand: its flags for a small run that exits 0}, but --out-dir."""
    model, prepared = ["--model", str(tiny_model["path"])], str(prep_dir / "prepared.csv")
    gate = str(monitor_fixtures["clean"])
    runs = {
        "preprocess": ["--data", str(raw_csv_path)],
        "select-features": ["--data", prepared, "--target-k", "10", "--trees", "5",
                            "--max-depth", "4", "--step", "4"],
        "resample": ["--data", prepared],
        "train": ["--data", prepared, "--conv-filters", "8", "--dropout", "0.1",
                  "--lstm", "8", "--epochs", "1"],
        "evaluate": [*model, "--data", str(raw_csv_path)],
        "predict": [*model, "--data", str(raw_csv_path)],
        "monitor": [*model, "--input", gate],
        "stage-run": [*model, *(a for s in monitor.STAGES for a in (f"--{s}-input", gate))],
    }
    assert set(runs) == set(cli._SPECS)
    return runs


class TestOptionSurface:
    def test_every_accepted_option_is_read(self, tiny_model, monitor_fixtures, prep_dir,
                                           raw_csv_path, tmp_path, monkeypatch):
        runs = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)

        parse, recorders = cli.parse_args, []

        def recording_parse(argv):
            cfg = parse(argv)
            cfg.params = _ReadRecorder(cfg.params)
            recorders.append(cfg.params)
            return cfg

        monkeypatch.setattr(cli, "parse_args", recording_parse)
        # the manifest copies every param; that is not a read
        monkeypatch.setattr(cli, "_write_manifest", lambda *args: None)
        unread = {}
        for command, args in runs.items():
            argv = [command, *args, "--out-dir", str(tmp_path / command)]
            assert cli.main(argv) == EXIT_OK, command
            accepted = {o.name for o in cli._COMMON + cli._SPECS[command]} - {"config"}
            if accepted - recorders[-1].read:
                unread[command] = sorted(accepted - recorders[-1].read)
        assert unread == {}

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--model", "m.nidm", "--data", "d.csv", "--seed", "1"],
        ["monitor", "--model", "m.nidm", "--input", "in.csv", "--profile", "ids2018"],
    ])
    def test_an_option_the_subcommand_does_not_read_is_a_usage_error(self, argv, capsys):
        assert cli.main(argv) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_shared_config_key_is_warned_and_ignored(self, tiny_model, monitor_fixtures,
                                                     tmp_path, capsys):
        conf = tmp_path / "shared.conf"
        conf.write_text("seed = 3\n", encoding="utf-8")
        argv = ["monitor", "--model", str(tiny_model["path"]),
                "--input", str(monitor_fixtures["clean"])]
        assert cli.main([*argv, "--out-dir", str(tmp_path / "plain")]) == EXIT_OK
        plain = capsys.readouterr()
        assert cli.main([*argv, "--out-dir", str(tmp_path / "conf"),
                         "--config", str(conf)]) == EXIT_OK
        shared = capsys.readouterr()
        assert shared.out == plain.out
        assert "warning: config key 'seed' not used by monitor; ignored" in shared.err
        manifest = json.loads((tmp_path / "conf" / "run-manifest.json").read_text("utf-8"))
        assert manifest["seed"] is None and "seed" not in manifest["effective_config"]
        assert str(conf) not in manifest["inputs"]

    def test_each_subcommand_has_its_own_summary(self, capsys):
        summaries = [cli._SUMMARIES[name] for name in cli._SPECS]
        assert len(set(summaries)) == len(cli._SPECS) == 8
        helps = {o.help for opts in cli._SPECS.values() for o in cli._COMMON + opts}
        assert not helps & set(summaries)
        assert cli.main(["--help"]) == EXIT_OK
        listing = " ".join(capsys.readouterr().out.split())
        for name, summary in zip(cli._SPECS, summaries):
            assert f"{name} {summary}" in listing


class TestManifestRule:
    """`run` writes the manifest of every subcommand: one per run that
    returns, naming exactly what the run wrote, and none after `error:`."""

    @pytest.mark.parametrize("command", list(cli._SPECS))
    def test_a_returning_run_lists_every_file_it_wrote(self, command, tiny_model,
                                                       monitor_fixtures, prep_dir,
                                                       raw_csv_path, tmp_path):
        args = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)[command]
        out = tmp_path / "out"
        assert cli.main([command, *args, "--out-dir", str(out)]) == EXIT_OK
        written = {str(p) for p in out.rglob("*") if p.is_file()}
        manifest = out / "run-manifest.json"
        assert str(manifest) in written
        outputs = json.loads(manifest.read_text("utf-8"))["outputs"]
        assert sorted(written - {str(manifest)}) == outputs

    @pytest.mark.parametrize("command, option", [("train", "--model-out"),
                                                 ("monitor", "--log")])
    def test_a_named_output_in_a_new_directory(self, command, option, tiny_model,
                                               monitor_fixtures, prep_dir, raw_csv_path,
                                               tmp_path):
        """`run` makes the directory of every file it writes, not only --out-dir."""
        args = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)[command]
        named, out = tmp_path / "new" / "dir" / "named", tmp_path / "out"
        assert cli.main([command, *args, option, str(named), "--out-dir", str(out)]) == EXIT_OK
        assert named.is_file()
        outputs = json.loads((out / "run-manifest.json").read_text("utf-8"))["outputs"]
        assert outputs[0] == str(named)

    @pytest.mark.parametrize("command", list(cli._SPECS))
    def test_an_error_exit_leaves_the_out_dir_without_a_manifest(
            self, command, tiny_model, monitor_fixtures, prep_dir, raw_csv_path, tmp_path,
            capsys):
        args = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)[command]
        missing = str(tmp_path / "missing")
        args[args.index("--data" if "--data" in args else "--model") + 1] = missing
        out = tmp_path / "out"
        _fails_cleanly(capsys, [command, *args, "--out-dir", str(out)], missing)
        assert out.is_dir() and list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# command bodies against the fixture corpus


class TestEvaluateCommand:
    def test_writes_reports_and_manifest(self, tiny_model, raw_csv_path, tmp_path):
        out = tmp_path / "eval"
        rc = cli.main(["evaluate", "--model", str(tiny_model["path"]),
                       "--data", str(raw_csv_path), "--out-dir", str(out)])
        assert rc == EXIT_OK
        for name in ("metrics.txt", "metrics.json", "confusion.csv",
                     "run-manifest.json"):
            assert (out / name).is_file()
        assert (out / "confusion.csv").read_text(encoding="utf-8").startswith("true\\pred,")
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert set(metrics["class_names"]) == set(tiny_model["tm"].class_names)

    def test_manifest_contents(self, tiny_model, raw_csv_path, tmp_path):
        out = tmp_path / "eval"
        cli.main(["evaluate", "--model", str(tiny_model["path"]),
                  "--data", str(raw_csv_path), "--out-dir", str(out)])
        manifest = json.loads((out / "run-manifest.json").read_text(encoding="utf-8"))
        assert manifest["subcommand"] == "evaluate"
        assert manifest["seed"] is None
        assert manifest["package_version"]
        assert manifest["model_format_version"] == pipeline.MODEL_VERSION
        assert "config" not in manifest["effective_config"]
        assert manifest["effective_config"]["data"] == str(raw_csv_path)
        assert manifest["inputs"][str(raw_csv_path)] == _sha256(raw_csv_path)
        assert manifest["inputs"][str(tiny_model["path"])] == _sha256(tiny_model["path"])
        assert manifest["outputs"] == sorted(manifest["outputs"])
        assert any(o.endswith("metrics.json") for o in manifest["outputs"])

    def test_missing_input_exits_one_with_path(self, tiny_model, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        rc = cli.main(["evaluate", "--model", str(tiny_model["path"]),
                       "--data", str(missing), "--out-dir", str(tmp_path)])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "error" in err and "absent.csv" in err


class TestPredictCommand:
    def test_predictions_csv_shape(self, tiny_model, raw_csv_path, tmp_path):
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--model", str(tiny_model["path"]),
                       "--data", str(raw_csv_path), "--out-dir", str(out)])
        assert rc == EXIT_OK
        lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,verdict,confidence"
        assert len(lines) > 500
        names = set(tiny_model["tm"].class_names)
        for line in lines[1:]:
            _, verdict, conf = line.split(",")
            assert verdict in names
            assert 0.0 <= float(conf) <= 1.0


class TestDropNotice:
    @pytest.mark.parametrize("subcommand", ["evaluate", "predict"])
    def test_prefix_is_the_subcommand(self, subcommand, tiny_model, tmp_path, capsys):
        header, *rows = synth.flow_csv(40, profile="ids2017", seed=3, missing_fraction=0.0).splitlines()
        col = header.split(",").index(tiny_model["tm"].feature_names[0])
        cells = rows[0].split(",")
        cells[col] = "NaN"
        data = tmp_path / "one-missing.csv"
        data.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n", encoding="utf-8")
        rc = cli.main([subcommand, "--model", str(tiny_model["path"]),
                       "--data", str(data), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK
        assert f"[{subcommand}] dropped 1 row(s) with missing values" in capsys.readouterr().out


class TestOfflineRowPolicy:
    def test_only_a_missing_selected_value_drops_a_row(self, tiny_model, tmp_path, capsys):
        tm = tiny_model["tm"]
        header, *rows = synth.flow_csv(40, profile="ids2017", seed=3,
                                       missing_fraction=0.0).splitlines()
        names = header.split(",")
        other = names.index(next(n for n in names[6:-1] if n not in tm.feature_names))
        for i, col in ((5, other), (10, names.index(tm.feature_names[0]))):
            cells = rows[i].split(",")
            cells[col] = "NaN"
            rows[i] = ",".join(cells)
        data = tmp_path / "two-missing.csv"
        data.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--model", str(tiny_model["path"]),
                       "--data", str(data), "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert "[predict] dropped 1 row(s) with missing values" in capsys.readouterr().out
        lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [int(l.split(",")[0]) for l in lines] == [i for i in range(40) if i != 10]
        row5 = tmp_path / "row5.csv"
        row5.write_text(f"{header}\n{rows[5]}\n", encoding="utf-8")
        record = flowdata.parse_flow_csv(row5)[0]
        verdict, confidence, _ = monitor.score_flow(tm, record)
        assert lines[5] == f"5,{verdict},{confidence:.6f}"

        rc = cli.main(["evaluate", "--model", str(tiny_model["path"]),
                       "--data", str(data), "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_OK
        confusion = (tmp_path / "eval" / "confusion.csv").read_text(encoding="utf-8")
        assert sum(int(c) for l in confusion.splitlines()[1:] for c in l.split(",")[1:]) == 39


def _clean_flows():
    """A 40-row flow CSV with no missing or malformed cell: its header and rows."""
    header, *rows = synth.flow_csv(40, profile="ids2017", seed=3,
                                   missing_fraction=0.0).splitlines()
    return header, rows


class TestOfflineReader:
    """evaluate and predict read rows with the monitor's reader, but strictly."""

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_non_numeric_cell_exits_one(self, command, tiny_model, tmp_path, capsys):
        header, rows = _clean_flows()
        names = header.split(",")
        name = next(n for n in names[6:-1] if n not in tiny_model["tm"].feature_names)
        cells = rows[4].split(",")
        cells[names.index(name)] = "12abc"
        rows[4] = ",".join(cells)
        data = tmp_path / "non-numeric.csv"
        data.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        _fails_cleanly(capsys, [command, "--model", str(tiny_model["path"]),
                                "--data", str(data), "--out-dir", str(tmp_path / "out")],
                       f"error: row 5: non-numeric value '12abc' in column {name!r}")

    @pytest.mark.parametrize("command", ["evaluate", "predict", "preprocess", "select-features",
                                         "resample", "train"])
    def test_clean_input_builds_no_record(self, command, tiny_model, prep_dir, tmp_path,
                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("record built for a clean row")

        header, rows = _clean_flows()
        data = tmp_path / "clean.csv"
        data.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        model, prepared = ["--model", str(tiny_model["path"])], str(prep_dir / "prepared.csv")
        args = {
            "evaluate": [*model, "--data", str(data)],
            "predict": [*model, "--data", str(data)],
            "preprocess": ["--data", str(data)],
            "select-features": ["--data", prepared, "--target-k", "10", "--trees", "5",
                                "--max-depth", "4", "--step", "4"],
            "resample": ["--data", prepared],
            "train": ["--data", prepared, "--conv-filters", "8", "--dropout", "0.1",
                      "--lstm", "8", "--epochs", "1"],
        }[command]
        monkeypatch.setattr(flowdata, "FlowRecord", refuse)
        assert cli.main([command, *args, "--out-dir", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("command", ["monitor", "stage-run", "preprocess", "evaluate",
                                         "predict"])
    def test_damaged_input_builds_no_record(self, command, tiny_model, tmp_path, monkeypatch,
                                            capsys):
        gate = command in ("monitor", "stage-run")
        header, rows = _clean_flows()
        names = header.split(",")
        tm = tiny_model["tm"]
        selected = names.index(tm.feature_names[0])
        other = names.index(next(n for n in names[6:-1] if n not in tm.feature_names))
        damage = {3: (selected, "NaN"), 8: (other, "Infinity"), 13: (other, "")}
        if gate:                       # the strict reads would stop at these rows
            damage.update({18: (other, "n/a"), 23: (selected, "1.2.3")})
            rows[30] = rows[30][:20]
        for i, (col, cell) in damage.items():
            cells = rows[i].split(",")
            cells[col] = cell
            rows[i] = ",".join(cells)
        data = tmp_path / "damaged.csv"
        data.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        model = ["--model", str(tiny_model["path"])]
        args = {
            "monitor": [*model, "--input", str(data)],
            "stage-run": [*model] + [a for stage in monitor.STAGES
                                     for a in (f"--{stage}-input", str(data))],
            "preprocess": ["--data", str(data)],
            "evaluate": [*model, "--data", str(data)],
            "predict": [*model, "--data", str(data)],
        }[command]
        out = tmp_path / "out"

        def outcome():
            rc = cli.main([command, *args, "--out-dir", str(out)])
            files = {path.name: re.sub(r"elapsed_ms=\d+", "", path.read_text("utf-8"))
                     for path in sorted(out.iterdir())}
            return rc, capsys.readouterr(), files

        def refuse(*_, **__):
            raise AssertionError("record built for a damaged row")

        want = outcome()
        monkeypatch.setattr(flowdata, "FlowRecord", refuse)
        assert outcome() == want
        rc, _, files = want
        if gate:
            assert rc in (EXIT_OK, EXIT_ANOMALIES)
            assert all("# total=40 " in text and " skipped=4 " in text
                       for name, text in files.items() if name.endswith(".log"))
        else:
            assert rc == EXIT_OK


class TestMonitorCommand:
    def test_gate_trips_on_anomaly(self, tiny_model, monitor_fixtures, tmp_path):
        log = tmp_path / "deploy.log"
        rc = cli.main(["monitor", "--model", str(tiny_model["path"]),
                       "--input", str(monitor_fixtures["three_flow"]),
                       "--stage", "deploy", "--log", str(log),
                       "--out-dir", str(tmp_path)])
        assert rc == EXIT_ANOMALIES
        text = log.read_text(encoding="utf-8")
        assert "stage=deploy" in text
        assert "# summary stage=deploy" in text

    def test_gate_passes_clean_input(self, tiny_model, monitor_fixtures, tmp_path):
        rc = cli.main(["monitor", "--model", str(tiny_model["path"]),
                       "--input", str(monitor_fixtures["clean"]),
                       "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        log_lines = (tmp_path / "monitor.log").read_text(encoding="utf-8").splitlines()
        assert all(l.startswith("#") for l in log_lines)

    def test_missing_model_exits_one(self, monitor_fixtures, tmp_path, capsys):
        rc = cli.main(["monitor", "--model", str(tmp_path / "none.nidm"),
                       "--input", str(monitor_fixtures["three_flow"]),
                       "--out-dir", str(tmp_path)])
        assert rc == EXIT_FAILURE
        assert "none.nidm" in capsys.readouterr().err


class TestStageRunCommand:
    def test_four_logs_and_gate(self, tiny_model, monitor_fixtures, tmp_path):
        out = tmp_path / "pipeline"
        rc = cli.main(["stage-run", "--model", str(tiny_model["path"]),
                       "--build-input", str(monitor_fixtures["clean"]),
                       "--test-input", str(monitor_fixtures["clean"]),
                       "--deploy-input", str(monitor_fixtures["three_flow"]),
                       "--monitor-input", str(monitor_fixtures["clean"]),
                       "--out-dir", str(out)])
        assert rc == EXIT_ANOMALIES
        for stage in ("build", "test", "deploy", "monitor"):
            assert (out / f"{stage}.log").is_file()
        assert (out / "run-manifest.json").is_file()

    def test_missing_stage_input_still_writes_the_manifest(self, tiny_model, monitor_fixtures,
                                                           tmp_path, capsys):
        out = tmp_path / "pipeline"
        absent = tmp_path / "absent.csv"
        inputs = {"build": monitor_fixtures["clean"], "test": absent,
                  "deploy": monitor_fixtures["three_flow"], "monitor": monitor_fixtures["clean"]}
        rc = cli.main(["stage-run", "--model", str(tiny_model["path"])]
                      + [a for stage, path in inputs.items()
                         for a in (f"--{stage}-input", str(path))]
                      + ["--out-dir", str(out)])
        assert rc == EXIT_FAILURE
        captured = capsys.readouterr()
        reason = f"[Errno 2] No such file or directory: '{absent}'"
        assert captured.err == f"error: stage test: {reason}\n"   # the log's reason, once
        assert captured.out.count("operational failure") == 1
        assert "[stage-run] test: operational failure" in captured.out
        assert (out / "test.log").read_text(encoding="utf-8").splitlines()[-1] == \
            f"# error stage=test {reason}"
        manifest = json.loads((out / "run-manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {
            str(tiny_model["path"]): _sha256(tiny_model["path"]),
            str(monitor_fixtures["clean"]): _sha256(monitor_fixtures["clean"]),
            str(absent): None,
            str(monitor_fixtures["three_flow"]): _sha256(monitor_fixtures["three_flow"]),
        }
        assert manifest["outputs"] == [str(out / "build.log"), str(out / "test.log")]


class TestLogThatIsAnInput:
    """A run whose log is one of its inputs is refused before any log is
    opened: exit 1 naming the file, whose bytes stay as they were."""

    @pytest.mark.parametrize("link", [None, os.symlink, os.link],
                             ids=["same-path", "symlink", "hard-link"])
    def test_monitor(self, link, tiny_model, monitor_fixtures, tmp_path, capsys):
        flows = tmp_path / "in.csv"
        flows.write_bytes(monitor_fixtures["three_flow"].read_bytes())
        log = flows
        if link is not None:
            log = tmp_path / "linked.log"
            link(flows, log)
        out = tmp_path / "out"
        _fails_cleanly(capsys, ["monitor", "--model", str(tiny_model["path"]),
                                "--input", str(flows), "--log", str(log),
                                "--out-dir", str(out)],
                       f"error: {flows}: input is also a file this run writes")
        assert flows.read_bytes() == monitor_fixtures["three_flow"].read_bytes()
        assert list(out.iterdir()) == []                 # and no manifest

    def test_stage_run(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        out = tmp_path / "pipeline"
        out.mkdir()
        earlier = out / "build.log"             # a log an earlier run left, given as input
        earlier.write_bytes(monitor_fixtures["clean"].read_bytes())
        inputs = {"build": monitor_fixtures["clean"], "test": earlier,
                  "deploy": monitor_fixtures["three_flow"], "monitor": monitor_fixtures["clean"]}
        _fails_cleanly(capsys, _stage_argv(tiny_model["path"], inputs, out),
                       f"error: {earlier}: input is also a file this run writes")
        assert earlier.read_bytes() == monitor_fixtures["clean"].read_bytes()
        assert list(out.iterdir()) == [earlier]


# One file each subcommand writes into --out-dir.
_ONE_OUTPUT = {"preprocess": "prepared.csv", "select-features": "selected_features.txt",
               "resample": "resampled.csv", "train": "model.nidm", "evaluate": "metrics.json",
               "predict": "predictions.csv", "monitor": "monitor.log", "stage-run": "deploy.log"}
_OVER_INPUT = "input is also a file this run writes; refused"
_TWICE = "this run would write it twice; refused"


class TestRunThatWritesOverAFile:
    """`run` refuses, before any body runs, a run of any subcommand that
    would write over a file it reads, or write one file twice: exit 1 naming
    the file, whose bytes stay as they were, and no manifest."""

    @staticmethod
    def _refused(capsys, argv, victim, needle):
        before = victim.read_bytes() if victim.exists() else None
        _fails_cleanly(capsys, argv, f"error: {victim}: {needle}")
        assert (victim.read_bytes() if victim.exists() else None) == before
        out = pathlib.Path(argv[argv.index("--out-dir") + 1])
        assert not (out / "run-manifest.json").exists()

    @pytest.mark.parametrize("command", list(cli._SPECS))
    def test_an_output_given_as_an_input(self, command, tiny_model, monitor_fixtures,
                                         prep_dir, raw_csv_path, tmp_path, capsys):
        assert set(_ONE_OUTPUT) == set(cli._SPECS)
        args = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)[command]
        at = args.index("--data" if "--data" in args else "--model") + 1
        out = tmp_path / "out"
        out.mkdir()
        victim = out / _ONE_OUTPUT[command]
        victim.write_bytes(pathlib.Path(args[at]).read_bytes())
        args[at] = str(victim)
        self._refused(capsys, [command, *args, "--out-dir", str(out)], victim, _OVER_INPUT)
        assert list(out.iterdir()) == [victim]

    def test_log_over_model(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        model = tmp_path / "m.nidm"
        model.write_bytes(tiny_model["path"].read_bytes())
        self._refused(capsys, ["monitor", "--model", str(model),
                               "--input", str(monitor_fixtures["clean"]), "--log", str(model),
                               "--out-dir", str(tmp_path / "out")], model, _OVER_INPUT)

    def test_model_over_build_log(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        model = out / "build.log"
        model.write_bytes(tiny_model["path"].read_bytes())
        inputs = {stage: monitor_fixtures["clean"] for stage in monitor.STAGES}
        self._refused(capsys, _stage_argv(model, inputs, out), model, _OVER_INPUT)

    def test_model_out_over_data(self, tiny_model, monitor_fixtures, prep_dir, raw_csv_path,
                                 tmp_path, capsys):
        args = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)["train"]
        data = tmp_path / "data.csv"
        data.write_bytes((prep_dir / "prepared.csv").read_bytes())
        args[args.index("--data") + 1] = str(data)
        self._refused(capsys, ["train", *args, "--model-out", str(data),
                               "--out-dir", str(tmp_path / "out")], data, _OVER_INPUT)

    def test_model_out_over_metrics(self, tiny_model, monitor_fixtures, prep_dir,
                                    raw_csv_path, tmp_path, capsys):
        args = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)["train"]
        out = tmp_path / "out"
        out.mkdir()
        metrics = out / "metrics.json"
        metrics.write_text('{"from": "an earlier run"}\n', encoding="utf-8")
        self._refused(capsys, ["train", *args, "--model-out", str(metrics),
                               "--out-dir", str(out)], metrics, _TWICE)
        assert list(out.iterdir()) == [metrics]

    def test_log_over_config(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        config = tmp_path / "c.conf"
        config.write_text("threshold = 0.9\n", encoding="utf-8")
        self._refused(capsys, ["monitor", "--model", str(tiny_model["path"]),
                               "--input", str(monitor_fixtures["clean"]),
                               "--config", str(config), "--log", str(config),
                               "--out-dir", str(tmp_path / "out")], config, _OVER_INPUT)

    def test_build_log_over_config(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        config = out / "build.log"
        config.write_text("threshold = 0.9\n", encoding="utf-8")
        inputs = {stage: monitor_fixtures["clean"] for stage in monitor.STAGES}
        self._refused(capsys, [*_stage_argv(tiny_model["path"], inputs, out),
                               "--config", str(config)], config, _OVER_INPUT)
        assert list(out.iterdir()) == [config]

    def test_log_over_manifest(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        out = tmp_path / "out"
        manifest = out / "run-manifest.json"
        self._refused(capsys, ["monitor", "--model", str(tiny_model["path"]),
                               "--input", str(monitor_fixtures["clean"]),
                               "--log", str(manifest), "--out-dir", str(out)],
                      manifest, _TWICE)
        assert list(out.iterdir()) == []


class TestNonFiniteSetting:
    """A learning rate, poll interval or idle timeout that is NaN, infinite
    or out of range exits 1 with an `error:` line, before any training
    starts or any input is followed."""

    @pytest.mark.parametrize("flags, needle", [
        (["--learning-rate", "nan"], "learning_rate must be a finite number > 0"),
        (["--learning-rate", "inf"], "learning_rate must be a finite number > 0"),
        (["--poll-interval", "nan"], "poll interval must be a finite number > 0"),
        (["--poll-interval", "inf"], "poll interval must be a finite number > 0"),
        (["--idle-timeout", "nan"], "idle timeout must be >= 0"),
        (["--idle-timeout", "-1"], "idle timeout must be >= 0"),
    ])
    def test_is_refused(self, flags, needle, tiny_model, monitor_fixtures, prep_dir,
                        raw_csv_path, tmp_path, capsys, monkeypatch):
        runs = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)
        command = "train" if flags[0] == "--learning-rate" else "monitor"
        extra = [] if command == "train" else ["--follow"]

        def no_follow(*args):
            raise AssertionError("a follow loop started")

        monkeypatch.setattr(monitor, "_follow_lines", no_follow)
        out = tmp_path / "out"
        _fails_cleanly(capsys, [command, *runs[command], *extra, *flags, "--out-dir", str(out)],
                       needle)
        assert list(out.iterdir()) == []


class TestDivergedTraining:
    def test_exits_one_and_writes_no_model_or_manifest(self, tiny_model, monitor_fixtures,
                                                       prep_dir, raw_csv_path, tmp_path,
                                                       capsys):
        runs = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):             # the overflows on the way there
            _fails_cleanly(capsys, ["train", *runs["train"], "--epochs", "2",
                                    "--learning-rate", "1e308", "--out-dir", str(out)],
                           "error: training diverged at epoch ",
                           ": the loss is not finite (try a smaller --learning-rate)")
        assert list(out.iterdir()) == []

    def test_prints_only_its_error_line(self, tiny_model, monitor_fixtures, prep_dir,
                                        raw_csv_path, tmp_path):
        """numpy's overflow warnings on the way to the divergence check stay
        unprinted.  Run as a process: pytest would capture the warnings."""
        runs = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentry", "train", *runs["train"], "--epochs", "2",
             "--learning-rate", "1e308", "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_FAILURE
        assert re.fullmatch(r"error: training diverged at epoch \d+: the loss is not finite "
                            r"\(try a smaller --learning-rate\)\n", proc.stderr), proc.stderr


class TestNonFiniteModel:
    """A model whose checksum holds but which stores a NaN or an infinity in
    a weight or a scaler bound is refused by every command that loads it."""

    @pytest.mark.parametrize("command", ["evaluate", "predict", "monitor", "stage-run"])
    def test_exits_one(self, command, non_finite_model, tiny_model, monitor_fixtures, prep_dir,
                       raw_csv_path, tmp_path, capsys):
        path, name = non_finite_model
        argv = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)[command]
        argv[argv.index("--model") + 1] = str(path)
        _fails_cleanly(capsys, [command, *argv, "--out-dir", str(tmp_path / "out")],
                       f"error: stored array {name} holds a non-finite value")


class TestEmptyAnomalousList:
    """An --anomalous that names no class, given as a flag or as a config
    line, is a usage error, not a gate on every class but Benign."""

    @pytest.mark.parametrize("command", ["monitor", "stage-run"])
    @pytest.mark.parametrize("source", ["flag", "flag-commas", "config"])
    def test_exits_64(self, command, source, tiny_model, monitor_fixtures, prep_dir,
                      raw_csv_path, tmp_path, capsys):
        argv = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)[command]
        if source == "config":
            config = tmp_path / "gate.conf"
            config.write_text("anomalous =\n", encoding="utf-8")
            argv += ["--config", str(config)]
        else:
            argv += ["--anomalous", "" if source == "flag" else " , "]
        out = tmp_path / "out"
        assert cli.main([command, *argv, "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad value for anomalous" in err and "name at least one class" in err
        assert "Traceback" not in err
        assert not out.exists()


def _stage_argv(model, inputs, out):
    """stage-run's argv for a model, a {stage: input} mapping and an out-dir."""
    return (["stage-run", "--model", str(model)]
            + [a for stage, path in inputs.items() for a in (f"--{stage}-input", str(path))]
            + ["--out-dir", str(out)])


def _big_input(source, path, rows=300, seed=31):
    """`source`'s header over `rows` fresh synthetic rows: well past one
    64 KB read."""
    header = source.read_text(encoding="utf-8").split("\n", 1)[0]
    body = synth.flow_csv(rows, profile="ids2017", seed=seed, missing_fraction=0.0,
                          separation=1.8).split("\n", 1)[1]
    path.write_text(header + "\n" + body, encoding="utf-8")
    assert path.stat().st_size > 65536
    return path


def _crlf(source, path):
    """A copy of `source` with CRLF line endings."""
    path.write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
    return path


def _manifest_inputs(out):
    """The manifest's input checksums, each checked against the oracle: the
    SHA-256 of the file's bytes as they are now, or None for a missing file."""
    inputs = json.loads((out / "run-manifest.json").read_text("utf-8"))["inputs"]
    for path, digest in inputs.items():
        path = pathlib.Path(path)
        assert digest == (_sha256(path) if path.exists() else None), path
    return inputs


class TestManifestDigests:
    """Every manifest checksum is the SHA-256 of the whole input file,
    whether its reader hashed it through its own descriptor, stopped part
    way, or never opened it."""

    @pytest.mark.parametrize("case", ["not-utf8", "schema", "missing", "shared", "crlf",
                                      "large"])
    def test_stage_run(self, tiny_model, monitor_fixtures, tmp_path, case):
        clean, three = monitor_fixtures["clean"], monitor_fixtures["three_flow"]
        inputs = {"build": clean, "test": clean, "deploy": three, "monitor": clean}
        if case == "not-utf8":          # a bad byte past the first 64 KB read
            big = _big_input(clean, tmp_path / "big.csv")
            data = big.read_bytes()
            cut = data.index(b"\n", 70000) + 5
            big.write_bytes(data[:cut] + b"\xff" + data[cut:])
            inputs["test"] = big
        elif case == "schema":
            inputs["test"] = _lowercase_header(three, tmp_path / "lower.csv")
        elif case == "missing":
            inputs["deploy"] = tmp_path / "absent.csv"
        elif case == "crlf":
            inputs = {stage: _crlf(path, tmp_path / f"{stage}.csv")
                      for stage, path in inputs.items()}
        elif case == "large":
            inputs["monitor"] = _big_input(clean, tmp_path / "big.csv")
        out = tmp_path / "out"
        rc = cli.main(_stage_argv(tiny_model["path"], inputs, out))
        assert rc == (EXIT_ANOMALIES if case in ("shared", "crlf", "large") else EXIT_FAILURE)
        got = _manifest_inputs(out)
        assert set(got) == {str(tiny_model["path"])} | {str(p) for p in inputs.values()}
        if case in ("not-utf8", "schema"):
            assert not (out / "deploy.log").exists()    # deploy and monitor were never read
        if case == "missing":
            assert got[str(inputs["deploy"])] is None

    @pytest.mark.parametrize("command", ["preprocess", "select-features", "resample", "train"])
    def test_training_commands_hash_through_their_reader(self, tiny_model, monitor_fixtures,
                                                         prep_dir, raw_csv_path, tmp_path,
                                                         monkeypatch, command):
        """The training-side commands read --data once: its digest is taken
        through the descriptor that parsed it, so the manifest never opens
        the file again."""
        def reopened(fh):
            raise AssertionError(f"{fh.name} was opened again for its digest")

        monkeypatch.setattr(cli, "sha256_file", reopened)
        argv = _one_run_each(tiny_model, monitor_fixtures, prep_dir, raw_csv_path)[command]
        out = tmp_path / "out"
        assert cli.main([command, *argv, "--out-dir", str(out)]) == EXIT_OK
        assert set(_manifest_inputs(out)) == {argv[argv.index("--data") + 1]}

    @pytest.mark.parametrize("case", ["crlf", "large"])
    @pytest.mark.parametrize("command", ["monitor", "evaluate", "predict"])
    def test_single_input_commands(self, tiny_model, raw_csv_path, monitor_fixtures, tmp_path,
                                   command, case):
        source = raw_csv_path if command != "monitor" else monitor_fixtures["three_flow"]
        data = (_crlf(source, tmp_path / "crlf.csv") if case == "crlf"
                else _big_input(source, tmp_path / "big.csv"))
        flag = "--input" if command == "monitor" else "--data"
        out = tmp_path / "out"
        rc = cli.main([command, "--model", str(tiny_model["path"]), flag, str(data),
                       "--out-dir", str(out)])
        assert rc in (EXIT_OK, EXIT_ANOMALIES)
        assert set(_manifest_inputs(out)) == {str(tiny_model["path"]), str(data)}


def _feed_fifo(path, data, deadline):
    """Write `data` into the FIFO at `path` for the first reader that opens
    it, then close it, as one writer would.  Gives up at `deadline`
    (`time.monotonic`), so the thread never waits on a reader that never
    comes; a reader that leaves early ends the write too."""
    while time.monotonic() < deadline:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as err:
            if err.errno != errno.ENXIO:            # ENXIO: no reader yet
                raise
            time.sleep(0.01)
            continue
        os.set_blocking(fd, True)
        with open(fd, "wb") as fh, contextlib.suppress(BrokenPipeError):
            fh.write(data)
        return


def _run_on_fifo(argv, fifo, data, timeout=60):
    """`python -m flowsentry` with `argv`, while one writer thread feeds
    `data` into a new FIFO at `fifo`.  Both are bounded by `timeout`
    seconds: a command that opens the FIFO a second time waits for a writer
    that never comes, and that fails the test instead of hanging it."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=_feed_fifo, args=(fifo, data, time.monotonic() + timeout))
    writer.start()
    try:
        return subprocess.run([sys.executable, "-m", "flowsentry", *argv],
                              capture_output=True, text=True, timeout=timeout)
    finally:
        writer.join(timeout + 5)
        assert not writer.is_alive()


def _ends_in_summary(log, stage, total, class_names):
    """`log` ends in its stage's summary block, counting `total` rows."""
    lines = log.read_text(encoding="utf-8").splitlines()
    block = lines[-2 - len(class_names):]
    assert block[0] == f"# summary stage={stage}"
    assert block[1].startswith(f"# total={total} ")
    assert [line.split("=")[0] for line in block[2:]] == [
        f"# class {monitor._token(name)}" for name in class_names]


def _fifo_flows(rows=40):
    """A small flow CSV text, well inside one pipe buffer."""
    text = synth.flow_csv(rows, profile="ids2017", seed=13, missing_fraction=0.0,
                          separation=1.8)
    assert len(text.encode()) < 65536
    return text.encode()


class TestFifoInputs:
    """An input that is not a regular file (a FIFO, `/dev/stdin`, `<(...)`)
    is read once, in the reading process, and gets a null checksum: nothing
    seeks it or opens it a second time."""

    def test_monitor(self, tiny_model, monitor_fixtures, tmp_path):
        fifo, out = tmp_path / "flows.fifo", tmp_path / "out"
        proc = _run_on_fifo(["monitor", "--model", str(tiny_model["path"]), "--input",
                             str(fifo), "--stage", "deploy", "--out-dir", str(out)],
                            fifo, monitor_fixtures["three_flow"].read_bytes())
        assert (proc.returncode, proc.stderr) == (EXIT_ANOMALIES, "")
        _ends_in_summary(out / "deploy.log", "deploy", 3, tiny_model["tm"].class_names)
        inputs = json.loads((out / "run-manifest.json").read_text("utf-8"))["inputs"]
        assert inputs == {str(tiny_model["path"]): _sha256(tiny_model["path"]),
                          str(fifo): None}

    def test_stage_run(self, tiny_model, monitor_fixtures, tmp_path):
        fifo, out = tmp_path / "deploy.fifo", tmp_path / "out"
        clean = monitor_fixtures["clean"]
        inputs = {"build": clean, "test": clean, "deploy": fifo, "monitor": clean}
        proc = _run_on_fifo(_stage_argv(tiny_model["path"], inputs, out), fifo,
                            monitor_fixtures["three_flow"].read_bytes())
        assert (proc.returncode, proc.stderr) == (EXIT_ANOMALIES, "")
        assert "operational failure" not in proc.stdout
        n_clean = len(clean.read_text(encoding="utf-8").splitlines()) - 1
        for stage in monitor.STAGES:
            _ends_in_summary(out / f"{stage}.log", stage, 3 if stage == "deploy" else n_clean,
                             tiny_model["tm"].class_names)
        digests = json.loads((out / "run-manifest.json").read_text("utf-8"))["inputs"]
        assert digests == {str(tiny_model["path"]): _sha256(tiny_model["path"]),
                           str(clean): _sha256(clean), str(fifo): None}

    def test_preprocess(self, tmp_path):
        fifo, out = tmp_path / "raw.fifo", tmp_path / "out"
        proc = _run_on_fifo(["preprocess", "--data", str(fifo), "--out-dir", str(out)],
                            fifo, _fifo_flows())
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert "[preprocess] 40 rows in, 40 out" in proc.stdout
        assert (out / "prepared.csv").is_file()
        inputs = json.loads((out / "run-manifest.json").read_text("utf-8"))["inputs"]
        assert inputs == {str(fifo): None}

    def test_evaluate(self, tiny_model, tmp_path):
        fifo, out = tmp_path / "flows.fifo", tmp_path / "out"
        proc = _run_on_fifo(["evaluate", "--model", str(tiny_model["path"]), "--data",
                             str(fifo), "--out-dir", str(out)], fifo, _fifo_flows())
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        metrics = json.loads((out / "metrics.json").read_text("utf-8"))
        assert sum(metrics["support"]) == 40
        inputs = json.loads((out / "run-manifest.json").read_text("utf-8"))["inputs"]
        assert inputs == {str(tiny_model["path"]): _sha256(tiny_model["path"]),
                          str(fifo): None}


class TestQuotedClassNames:
    def test_predictions_and_confusion_parse_as_csv(self, tiny_model, raw_csv_path, tmp_path):
        """Class names holding a comma or a quote are quoted, so every row of
        both files parses to its columns."""
        tm = tiny_model["tm"]
        renamed = {name: f'{name}, "{i}"' for i, name in enumerate(tm.class_names)}
        names = tuple(renamed.values())
        tm = dataclasses.replace(tm, label_map=dataclasses.replace(
            tm.label_map, profile="custom", class_names=names,
            rules=tuple((p, renamed[c]) for p, c in tm.label_map.rules)))
        model = tmp_path / "renamed.nidm"
        pipeline.save_model(tm, model)
        for command in ("predict", "evaluate"):
            rc = cli.main([command, "--model", str(model), "--data", str(raw_csv_path),
                           "--out-dir", str(tmp_path / command)])
            assert rc == EXIT_OK
        with open(tmp_path / "predict" / "predictions.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["row", "verdict", "confidence"] and len(rows) > 100
        assert all(len(row) == 3 and row[1] in names for row in rows)
        with open(tmp_path / "evaluate" / "confusion.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["true\\pred", *names]
        assert [row[0] for row in rows] == list(names)
        assert all(len(row) == 1 + len(names) for row in rows)
        assert sum(int(c) for row in rows for c in row[1:]) == len(
            (tmp_path / "predict" / "predictions.csv").read_text("utf-8").splitlines()) - 1


class TestOneOpenPerFile:
    def test_stage_run_opens_the_model_once_and_each_input_once_per_stage(
            self, tiny_model, monitor_fixtures, tmp_path, monkeypatch):
        """Counted at `builtins.open` and `io.open`, which `Path.open` calls
        (before Python 3.11 it goes through pathlib's accessor)."""
        clean, three = monitor_fixtures["clean"], monitor_fixtures["three_flow"]
        argv = _stage_argv(tiny_model["path"],
                           {"build": clean, "test": clean, "deploy": three, "monitor": clean},
                           tmp_path / "out")
        assert cli.main(argv) == EXIT_ANOMALIES    # first-call imports open nothing later
        opened = []
        real = io.open

        def counting(file, *args, **kwargs):
            opened.append(str(file))
            return real(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting)
        monkeypatch.setattr(io, "open", counting)
        accessor = getattr(pathlib, "_NormalAccessor", None)
        if accessor is not None:
            monkeypatch.setattr(accessor, "open", staticmethod(counting))
        rc = cli.main(argv)
        monkeypatch.undo()
        assert rc == EXIT_ANOMALIES
        assert opened.count(str(tiny_model["path"])) == 1
        assert opened.count(str(clean)) == 3 and opened.count(str(three)) == 1
        logs = [str(tmp_path / "out" / f"{stage}.log") for stage in monitor.STAGES]
        assert sorted(p for p in opened if p in logs) == sorted(logs)
        assert opened.count(str(tmp_path / "out" / "run-manifest.json")) == 1
        assert len(opened) == 10


_RENAMED = {"BENIGN": "normal-traffic", "DoS Hulk": "attack:dos", "DoS slowloris": "attack:dos",
            "DDoS": "attack:ddos", "PortScan": "attack:scan",
            "Web Attack - Brute Force": "attack:web", "Web Attack - XSS": "attack:web",
            "Bot": "attack:bot", "FTP-Patator": "attack:guess", "SSH-Patator": "attack:guess"}
# no class name below matches a rule, so a prepared CSV's labels map by name
_CUSTOM_RULES = [["normal-traffic", "Normal"], ["attack:dos", "Flood"],
                 ["attack:ddos", "Flood"], ["attack:scan", "Probe"], ["attack:web", "Intrusion"],
                 ["attack:bot", "Intrusion"], ["attack:guess", "Intrusion"]]


class TestCustomLabelProfile:
    def test_renamed_labels_reach_a_model_and_a_gate(self, tmp_path):
        header, *rows = synth.flow_csv(400, profile="ids2017", seed=5, missing_fraction=0.0,
                                       separation=1.8).splitlines()
        rows = [f"{cells},{_RENAMED[label]}" for cells, label in (r.rsplit(",", 1) for r in rows)]
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(_CUSTOM_RULES), encoding="utf-8")
        custom = ["--profile", "custom", "--label-rules", str(rules)]
        prepared = str(tmp_path / "prep" / "prepared.csv")

        assert cli.main(["preprocess", "--data", str(raw), *custom,
                         "--out-dir", str(tmp_path / "prep")]) == EXIT_OK
        assert cli.main(["select-features", "--data", prepared, *custom, "--target-k", "10",
                         "--trees", "5", "--max-depth", "4", "--step", "4",
                         "--out-dir", str(tmp_path / "sel")]) == EXIT_OK
        assert cli.main(["resample", "--data", prepared, *custom,
                         "--out-dir", str(tmp_path / "res")]) == EXIT_OK
        assert cli.main(["train", "--data", prepared, *custom,
                         "--features", str(tmp_path / "sel" / "selected_features.txt"),
                         "--encodings", str(tmp_path / "prep" / "encodings.json"),
                         "--conv-filters", "8", "--dropout", "0.1", "--lstm", "8",
                         "--epochs", "2", "--batch-size", "64",
                         "--out-dir", str(tmp_path / "train")]) == EXIT_OK
        model = tmp_path / "train" / "model.nidm"
        tm = pipeline.load_model(model)
        assert tm.label_map.profile == "custom"
        assert tm.class_names == ("Normal", "Flood", "Probe", "Intrusion")

        assert cli.main(["evaluate", "--model", str(model), "--data", str(raw),
                         "--out-dir", str(tmp_path / "ev")]) == EXIT_OK
        metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text("utf-8"))
        assert metrics["class_names"] == list(tm.class_names)
        assert sum(metrics["support"]) == len(rows)

        out = tmp_path / "gate"
        rc = cli.main(_stage_argv(model, {s: raw for s in monitor.STAGES}, out)
                      + ["--anomalous", "Flood,Probe,Intrusion"])
        assert rc in (EXIT_OK, EXIT_ANOMALIES)
        for stage in monitor.STAGES:
            log = (out / f"{stage}.log").read_text("utf-8")
            assert f"# total={len(rows)} " in log and "# class Intrusion=" in log


    def test_rules_file_is_a_manifest_input(self, tmp_path):
        header, *rows = synth.flow_csv(400, profile="ids2017", seed=5, missing_fraction=0.0,
                                       separation=1.8).splitlines()
        rows = [f"{cells},{_RENAMED[label]}" for cells, label in (r.rsplit(",", 1) for r in rows)]
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        rules = tmp_path / "rules.json"
        # the same labels, grouped two ways, in one rules file rewritten between runs
        regrouped = [[label, "Flood" if label == "attack:bot" else cls]
                     for label, cls in _CUSTOM_RULES]
        runs = {}
        for version, table in enumerate((_CUSTOM_RULES, regrouped)):
            rules.write_text(json.dumps(table), encoding="utf-8")
            prepared = str(tmp_path / f"v{version}" / "preprocess" / "prepared.csv")
            for command, args in {
                "preprocess": ["--data", str(raw)],
                "select-features": ["--data", prepared, "--target-k", "10", "--trees", "5",
                                    "--max-depth", "4", "--step", "4"],
                "resample": ["--data", prepared],
                "train": ["--data", prepared, "--conv-filters", "8", "--dropout", "0.1",
                          "--lstm", "8", "--epochs", "1"],
            }.items():
                out = tmp_path / f"v{version}" / command
                assert cli.main([command, *args, "--profile", "custom", "--label-rules",
                                 str(rules), "--out-dir", str(out)]) == EXIT_OK
                inputs = _manifest_inputs(out)
                assert inputs[str(rules)] == hashlib.sha256(rules.read_bytes()).hexdigest()
                runs.setdefault(command, []).append(inputs)
        for command, (first, second) in runs.items():
            assert first[str(rules)] != second[str(rules)], command
        first, second = runs["preprocess"]
        assert {path for path in first if first[path] != second[path]} == {str(rules)}


class TestPreprocessCommand:
    def test_outputs_and_report(self, raw_csv_path, tmp_path):
        out = tmp_path / "prep"
        rc = cli.main(["preprocess", "--data", str(raw_csv_path),
                       "--out-dir", str(out)])
        assert rc == EXIT_OK
        report = (out / "clean_report.txt").read_text(encoding="utf-8")
        assert "DROP-ROW" in report and "reason=missing" in report
        encodings = json.loads((out / "encodings.json").read_text(encoding="utf-8"))
        assert "Protocol" in encodings
        ds = flowdata.read_prepared_csv(out / "prepared.csv",
                                        flowdata.label_map_for("ids2017"))
        assert ds.n_rows > 500
        assert "Timestamp" not in ds.columns and "Flow ID" not in ds.columns


class TestTrainChain:
    def test_preprocess_select_train_evaluate(self, raw_csv_path, tmp_path):
        prep = tmp_path / "prep"
        assert cli.main(["preprocess", "--data", str(raw_csv_path),
                         "--out-dir", str(prep)]) == EXIT_OK

        sel = tmp_path / "sel"
        assert cli.main(["select-features", "--data", str(prep / "prepared.csv"),
                         "--out-dir", str(sel), "--target-k", "10",
                         "--trees", "5", "--max-depth", "4", "--step", "4"]) == EXIT_OK
        selected = [
            ln for ln in
            (sel / "selected_features.txt").read_text(encoding="utf-8").splitlines()
            if ln
        ]
        assert len(selected) == 10
        ranks = (sel / "feature_importance.txt").read_text(encoding="utf-8").splitlines()
        assert ranks[0].startswith("1 ")

        train = tmp_path / "train"
        rc = cli.main(["train", "--data", str(prep / "prepared.csv"),
                       "--features", str(sel / "selected_features.txt"),
                       "--encodings", str(prep / "encodings.json"),
                       "--out-dir", str(train),
                       "--conv-filters", "8", "--dropout", "0.1", "--lstm", "8",
                       "--epochs", "2", "--batch-size", "64",
                       "--learning-rate", "0.01"])
        assert rc == EXIT_OK
        model_path = train / "model.nidm"
        tm = pipeline.load_model(model_path)
        assert list(tm.feature_names) == selected
        assert len(tm.history) == 2

        ev = tmp_path / "ev"
        assert cli.main(["evaluate", "--model", str(model_path),
                         "--data", str(raw_csv_path), "--out-dir", str(ev)]) == EXIT_OK

    def test_resample_command(self, raw_csv_path, tmp_path):
        prep = tmp_path / "prep"
        cli.main(["preprocess", "--data", str(raw_csv_path), "--out-dir", str(prep)])
        out = tmp_path / "res"
        rc = cli.main(["resample", "--data", str(prep / "prepared.csv"),
                       "--out-dir", str(out)])
        assert rc == EXIT_OK
        before = flowdata.read_prepared_csv(prep / "prepared.csv",
                                            flowdata.label_map_for("ids2017"))
        after = flowdata.read_prepared_csv(out / "resampled.csv",
                                           flowdata.label_map_for("ids2017"))
        assert after.n_rows >= before.n_rows * 0.8
        report = (out / "resample_report.txt").read_text(encoding="utf-8")
        assert "Before" in report and "After" in report


class TestRepeatBuild:
    """Two `train` calls in one process, on the same inputs and seed, write
    byte-identical models.  Criterion 7 compares separate processes, so only
    a repeat in one process catches state that one build leaves for the
    next, as a benchmark set-up that builds its model twice would."""

    @pytest.mark.parametrize("last_batch", ["resampled", "one-row"])
    def test_second_build_is_byte_identical(self, prep_dir, tmp_path, last_batch):
        argv = ["train", "--data", str(prep_dir / "prepared.csv"),
                "--encodings", str(prep_dir / "encodings.json"),
                "--seed", "5", "--epochs", "2"]
        if last_batch == "one-row":
            ds = flowdata.read_prepared_csv(prep_dir / "prepared.csv",
                                            flowdata.label_map_for("ids2017"))
            train, _ = pipeline.split_dataset(ds, seed=5)
            # two batches per epoch: all rows but one, then that one row
            argv += ["--no-resample", "--batch-size", str(len(train.labels) - 1)]
        outputs = []
        for run in ("a", "b"):
            assert cli.main(argv + ["--out-dir", str(tmp_path / run)]) == EXIT_OK
            outputs.append([(tmp_path / run / name).read_bytes()
                            for name in ("model.nidm", "metrics.json")])
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def prep_dir(raw_csv_path, tmp_path_factory):
    """preprocess output (prepared.csv, encodings.json) for the fixture corpus."""
    out = tmp_path_factory.mktemp("prep")
    assert cli.main(["preprocess", "--data", str(raw_csv_path),
                     "--out-dir", str(out)]) == EXIT_OK
    return out


def _fails_cleanly(capsys, argv, *needles):
    """The command exits 1 with an `error:` line naming every needle, no traceback."""
    assert cli.main(argv) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    for needle in needles:
        assert needle in err


class TestMalformedModel:
    def test_evaluate_exits_one(self, malformed_model, raw_csv_path, tmp_path, capsys):
        _fails_cleanly(capsys, ["evaluate", "--model", str(malformed_model),
                                "--data", str(raw_csv_path), "--out-dir", str(tmp_path / "out")],
                       "error: malformed model section")

    def test_stage_run_exits_one(self, malformed_model, monitor_fixtures, tmp_path, capsys):
        _fails_cleanly(capsys, ["stage-run", "--model", str(malformed_model)]
                       + [a for stage in monitor.STAGES
                          for a in (f"--{stage}-input", str(monitor_fixtures["clean"]))]
                       + ["--out-dir", str(tmp_path / "out")],
                       "error: malformed model section")

    def test_monitor_exits_one(self, malformed_model, monitor_fixtures, tmp_path, capsys):
        _fails_cleanly(capsys, ["monitor", "--model", str(malformed_model),
                                "--input", str(monitor_fixtures["three_flow"]),
                                "--out-dir", str(tmp_path / "out")],
                       "error: malformed model section")

    def test_miscounted_model_monitor_exits_one(self, miscounted_model, monitor_fixtures,
                                                 tmp_path, capsys):
        _fails_cleanly(capsys, ["monitor", "--model", str(miscounted_model),
                                "--input", str(monitor_fixtures["three_flow"]),
                                "--out-dir", str(tmp_path)],
                       "error: model stores")


class TestMalformedJsonInputs:
    @pytest.mark.parametrize("text", ['[["BENIGN", "Benign"]', '{"a": 1}',
                                      '[["BENIGN"]]', '[["BENIGN", 1]]'],
                             ids=["syntax", "object", "short-pair", "non-string"])
    def test_label_rules(self, raw_csv_path, tmp_path, capsys, text):
        rules = tmp_path / "rules.json"
        rules.write_text(text, encoding="utf-8")
        _fails_cleanly(capsys, ["preprocess", "--data", str(raw_csv_path),
                                "--profile", "custom", "--label-rules", str(rules),
                                "--out-dir", str(tmp_path / "out")], str(rules))

    @pytest.mark.parametrize("text", ['{"Protocol": [6.0, 17.0', '["Protocol"]',
                                      '{"Protocol": 6}', '{"Protocol": ["tcp"]}'],
                             ids=["syntax", "list", "scalar-table", "non-number"])
    def test_encodings(self, prep_dir, tmp_path, capsys, text):
        encodings = tmp_path / "encodings.json"
        encodings.write_text(text, encoding="utf-8")
        _fails_cleanly(capsys, ["train", "--data", str(prep_dir / "prepared.csv"),
                                "--encodings", str(encodings),
                                "--out-dir", str(tmp_path / "out")], str(encodings))


def _not_utf8(source, path):
    """A copy of `source` with one 0xFF byte in its first data row."""
    header, first, rest = source.read_bytes().split(b"\n", 2)
    path.write_bytes(header + b"\n" + first[:5] + b"\xff" + first[5:] + b"\n" + rest)
    return path


class TestNonUtf8Input:
    def test_monitor(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        bad = _not_utf8(monitor_fixtures["three_flow"], tmp_path / "bad.csv")
        _fails_cleanly(capsys, ["monitor", "--model", str(tiny_model["path"]),
                                "--input", str(bad), "--out-dir", str(tmp_path / "out")],
                       f"error: {bad}: not UTF-8 text")

    def test_stage_run_fails_that_stage(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        bad = _not_utf8(monitor_fixtures["three_flow"], tmp_path / "bad.csv")
        out = tmp_path / "pipeline"
        rc = cli.main(["stage-run", "--model", str(tiny_model["path"]),
                       "--build-input", str(monitor_fixtures["clean"]),
                       "--test-input", str(bad),
                       "--deploy-input", str(monitor_fixtures["three_flow"]),
                       "--monitor-input", str(monitor_fixtures["clean"]),
                       "--out-dir", str(out)])
        assert rc == EXIT_FAILURE
        captured = capsys.readouterr()
        reason = f"{bad}: not UTF-8 text (invalid start byte)"
        assert captured.err == f"error: stage test: {reason}\n"
        assert "[stage-run] test: operational failure" in captured.out
        last = (out / "test.log").read_text(encoding="utf-8").splitlines()[-1]
        assert last == f"# error stage=test {reason}"
        assert not (out / "deploy.log").exists()          # a failure stops the run

    def test_preprocess_data(self, raw_csv_path, tmp_path, capsys):
        bad = _not_utf8(raw_csv_path, tmp_path / "bad.csv")
        _fails_cleanly(capsys, ["preprocess", "--data", str(bad),
                                "--out-dir", str(tmp_path / "out")],
                       f"error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_offline_scoring_data(self, command, tiny_model, raw_csv_path, tmp_path, capsys):
        bad = _not_utf8(raw_csv_path, tmp_path / "bad.csv")
        _fails_cleanly(capsys, [command, "--model", str(tiny_model["path"]),
                                "--data", str(bad), "--out-dir", str(tmp_path / "out")],
                       f"error: {bad}: not UTF-8 text")


    def test_config_file_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_bytes(b"seed = 5\n\xff\n")
        assert cli.main(["train", "--data", "d.csv", "--config", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {bad}: not UTF-8 text (invalid start byte)" in err
        assert "Traceback" not in err

    def test_label_rules(self, raw_csv_path, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_bytes(b'[["BENIGN", "Benign"]]\xff')
        _fails_cleanly(capsys, ["preprocess", "--data", str(raw_csv_path),
                                "--profile", "custom", "--label-rules", str(rules),
                                "--out-dir", str(tmp_path / "out")],
                       f"error: {rules}: not UTF-8 text (invalid start byte)")

    def test_encodings(self, prep_dir, tmp_path, capsys):
        encodings = tmp_path / "encodings.json"
        encodings.write_bytes(b'{"Protocol": [6.0]}\xff')
        _fails_cleanly(capsys, ["train", "--data", str(prep_dir / "prepared.csv"),
                                "--encodings", str(encodings),
                                "--out-dir", str(tmp_path / "out")],
                       f"error: {encodings}: not UTF-8 text (invalid start byte)")

    def test_train_features_list(self, prep_dir, tmp_path, capsys):
        columns = (prep_dir / "prepared.csv").read_text(encoding="utf-8").splitlines()[0]
        features = tmp_path / "features.txt"
        features.write_bytes(b"\n".join(c.encode() for c in columns.split(",")[:22])
                             + b"\n\xff\n")
        _fails_cleanly(capsys, ["train", "--data", str(prep_dir / "prepared.csv"),
                                "--features", str(features), "--no-resample",
                                "--out-dir", str(tmp_path / "out")],
                       f"error: {features}: not UTF-8 text (invalid start byte)")


def _over_field_limit(source, path, header=False):
    """A copy of `source` with its first data row's (or, with `header`, its
    header row's) first cell grown past the csv module's field size limit."""
    header_row, first, rest = source.read_text(encoding="utf-8").split("\n", 2)
    row = header_row if header else first
    row = "x" * (csv.field_size_limit() + 1) + row[row.index(","):]
    path.write_text("\n".join([row, first, rest] if header else [header_row, row, rest]),
                    encoding="utf-8")
    return path


class TestCsvFieldOverLimit:
    """A row the csv module cannot read is one malformed row: the gate skips
    and counts it, the strict readers exit 1 naming it."""

    ERROR = f"row 1: not readable as CSV: field larger than field limit ({csv.field_size_limit()})"

    def test_monitor_skips_it(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        bad = _over_field_limit(monitor_fixtures["three_flow"], tmp_path / "bad.csv")
        out = tmp_path / "out"
        rc = cli.main(["monitor", "--model", str(tiny_model["path"]), "--input", str(bad),
                       "--stage", "deploy", "--out-dir", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        assert rc == EXIT_ANOMALIES
        assert "# total=3 anomalies=1 skipped=1 " in (out / "deploy.log").read_text("utf-8")

    def test_stage_run_skips_it(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        bad = _over_field_limit(monitor_fixtures["clean"], tmp_path / "bad.csv")
        out = tmp_path / "out"
        rc = cli.main(_stage_argv(tiny_model["path"], {
            "build": monitor_fixtures["clean"], "test": bad,
            "deploy": monitor_fixtures["three_flow"], "monitor": monitor_fixtures["clean"]},
            out))
        assert "Traceback" not in capsys.readouterr().err
        assert rc == EXIT_ANOMALIES
        rows = len(monitor_fixtures["clean"].read_text("utf-8").splitlines()) - 1
        assert f"# total={rows} anomalies=0 skipped=1 " in (out / "test.log").read_text("utf-8")

    def test_preprocess_exits_one(self, raw_csv_path, tmp_path, capsys):
        bad = _over_field_limit(raw_csv_path, tmp_path / "bad.csv")
        _fails_cleanly(capsys, ["preprocess", "--data", str(bad),
                                "--out-dir", str(tmp_path / "out")], f"error: {self.ERROR}")

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_offline_scoring_exits_one(self, command, tiny_model, raw_csv_path, tmp_path,
                                       capsys):
        bad = _over_field_limit(raw_csv_path, tmp_path / "bad.csv")
        _fails_cleanly(capsys, [command, "--model", str(tiny_model["path"]),
                                "--data", str(bad), "--out-dir", str(tmp_path / "out")],
                       f"error: {self.ERROR}")

    def test_header_is_a_schema_error(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        bad = _over_field_limit(monitor_fixtures["three_flow"], tmp_path / "bad.csv",
                                header=True)
        _fails_cleanly(capsys, ["monitor", "--model", str(tiny_model["path"]),
                                "--input", str(bad), "--out-dir", str(tmp_path / "out")],
                       "error: header row not readable as CSV: field larger than field limit")


def _lowercase_header(source, path):
    """A copy of `source` whose header names are lower-cased."""
    header, rest = source.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(header.lower() + "\n" + rest, encoding="utf-8")
    return path


class TestRespelledFeatureNames:
    """The model's features are looked up by exact header name, so an input
    that spells them differently is a schema mismatch, not a clean pass."""

    def test_monitor_exits_one(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        lower = _lowercase_header(monitor_fixtures["three_flow"], tmp_path / "lower.csv")
        _fails_cleanly(capsys, ["monitor", "--model", str(tiny_model["path"]),
                                "--input", str(lower), "--out-dir", str(tmp_path / "out")],
                       "error: input lacks selected feature(s)")

    def test_stage_run_fails_that_stage(self, tiny_model, monitor_fixtures, tmp_path, capsys):
        lower = _lowercase_header(monitor_fixtures["three_flow"], tmp_path / "lower.csv")
        out = tmp_path / "pipeline"
        rc = cli.main(["stage-run", "--model", str(tiny_model["path"]),
                       "--build-input", str(monitor_fixtures["clean"]),
                       "--test-input", str(monitor_fixtures["clean"]),
                       "--deploy-input", str(lower),
                       "--monitor-input", str(monitor_fixtures["clean"]),
                       "--out-dir", str(out)])
        assert rc == EXIT_FAILURE
        assert "Traceback" not in capsys.readouterr().err
        last = (out / "deploy.log").read_text(encoding="utf-8").splitlines()[-1]
        assert last.startswith("# error stage=deploy input lacks selected feature(s)")
        assert not (out / "monitor.log").exists()         # a failure stops the run


class TestAbsentFeature:
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_offline_scoring_exits_one(self, tiny_model, raw_csv_path, tmp_path, capsys,
                                       command):
        name = tiny_model["tm"].feature_names[0]
        rows = [line.split(",") for line in
                raw_csv_path.read_text(encoding="utf-8").splitlines()]
        j = rows[0].index(name)
        short = tmp_path / "short.csv"
        short.write_text("".join(",".join(r[:j] + r[j + 1:]) + "\n" for r in rows),
                         encoding="utf-8")
        _fails_cleanly(capsys, [command, "--model", str(tiny_model["path"]),
                                "--data", str(short), "--out-dir", str(tmp_path / "out")],
                       f"error: input lacks selected feature(s) [{name!r}]")


class TestUnknownLabel:
    def test_only_evaluate_needs_a_grouping_rule(self, tiny_model, tmp_path, capsys):
        header, *rows = synth.flow_csv(40, profile="ids2017", seed=3,
                                       missing_fraction=0.0).splitlines()
        data = tmp_path / "mystery.csv"
        data.write_text("\n".join([header] + [r.rsplit(",", 1)[0] + ",Mystery"
                                              for r in rows]) + "\n", encoding="utf-8")
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--model", str(tiny_model["path"]),
                       "--data", str(data), "--out-dir", str(out)])
        assert rc == EXIT_OK
        lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 41
        _fails_cleanly(capsys, ["evaluate", "--model", str(tiny_model["path"]),
                                "--data", str(data), "--out-dir", str(tmp_path / "eval")],
                       "error: no grouping rule for label(s): 'Mystery'")


class TestTrainingReadErrors:
    """The strict training reads report a malformed row first, then an
    unknown label, then a bad threshold."""

    def _data(self, tmp_path, edits):
        header, rows = _clean_flows()
        names = header.split(",")
        for i, name, cell in edits:
            cells = rows[i].split(",")
            cells[names.index(name)] = cell
            rows[i] = ",".join(cells)
        data = tmp_path / "data.csv"
        data.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        return data

    @pytest.mark.parametrize("threshold", ["0.3", "5"])
    def test_unknown_label_on_a_dropped_row(self, threshold, tmp_path, capsys):
        data = self._data(tmp_path, [(3, "Flow Duration", "NaN"), (3, "Label", "Mystery")])
        _fails_cleanly(capsys, ["preprocess", "--data", str(data), "--zero-threshold", threshold,
                                "--out-dir", str(tmp_path / "out")],
                       "error: no grouping rule for label(s): 'Mystery'")

    @pytest.mark.parametrize("threshold", ["0.3", "5"])
    def test_later_malformed_row_wins(self, threshold, tmp_path, capsys):
        data = self._data(tmp_path, [(3, "Label", "Mystery"), (30, "Flow Duration", "abc")])
        _fails_cleanly(capsys, ["preprocess", "--data", str(data), "--zero-threshold", threshold,
                                "--out-dir", str(tmp_path / "out")],
                       "error: row 31: non-numeric value 'abc' in column 'Flow Duration'")


class TestOutOfMemory:
    def test_memory_error_exits_one(self, raw_csv_path, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "clean", exhausted)
        _fails_cleanly(capsys, ["preprocess", "--data", str(raw_csv_path),
                                "--out-dir", str(tmp_path / "out")],
                       "error: preprocess: out of memory")


class TestNetworkSizes:
    @pytest.mark.parametrize("flags, message", [
        (["--lstm", "0"], "every recurrent layer needs at least 1 unit"),
        (["--lstm", "-3"], "every recurrent layer needs at least 1 unit"),
        (["--conv-filters", "0,8"], "every conv block needs at least 1 filter"),
    ], ids=["lstm-0", "lstm-negative", "filters-0"])
    def test_below_one_exits_one(self, flags, message, prep_dir, tmp_path, capsys):
        out = tmp_path / "out"
        _fails_cleanly(capsys, ["train", "--data", str(prep_dir / "prepared.csv"),
                                "--dropout", "0.1", "--epochs", "1", *flags,
                                "--out-dir", str(out)], f"error: {message}")
        assert list(out.iterdir()) == []


class TestDefaultModelFeatureFloor:
    def test_train_with_21_features_fails_cleanly(self, prep_dir, tmp_path, capsys):
        columns = (prep_dir / "prepared.csv").read_text(encoding="utf-8").splitlines()[0]
        features = tmp_path / "features.txt"
        features.write_text("\n".join(columns.split(",")[:21]) + "\n", encoding="utf-8")
        _fails_cleanly(capsys, ["train", "--data", str(prep_dir / "prepared.csv"),
                                "--features", str(features), "--no-resample",
                                "--out-dir", str(tmp_path / "out")],
                       "shorter than pool")
        # 22 features is the floor of the default architecture
        pipeline.CnnLstmModel(pipeline.ModelConfig(), n_features=22, n_classes=7)


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentry", "monitor"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert "--model" in proc.stderr
        proc = subprocess.run(
            [sys.executable, "-m", "flowsentry", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "flowsentry" in proc.stdout
