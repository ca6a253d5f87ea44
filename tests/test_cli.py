import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import conftest
import lossadapt
from conftest import replay, scale_rows
from lossadapt.cli import build_parser, main
from lossadapt.config import load_config
from lossadapt.experiment import TRACE_CSV_COLUMNS, run_experiment
from lossadapt.walkers import WalkerConfig, expected_increment_probability

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, **overrides):
    payload = {
        "dataset": {"kind": "blobs", "n_per_class": 30, "n_test_per_class": 8},
        "model": {"layer_widths": [2, 8, 3]},
        "optimizer": {"learning_rate": 0.01},
        "lap": {"history_length": 4},
        "sources": {"n_sources": 4, "n_corrupt": 1, "mode": "random_label"},
        "training": {"epochs": 2, "batch_size": 4},
        "seeds": [0],
    }
    for key, value in overrides.items():
        if key == "dataset" and value.get("kind", "blobs") != "blobs":
            # a file dataset takes none of the blob keys
            payload[key] = value
        elif isinstance(value, dict) and key in payload:
            payload[key] = {**payload[key], **value}
        else:
            payload[key] = value
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["run", "--config", "c.json"],
            ["sweep", "--config", "c.json"],
            ["walkers", "--config", "w.json"],
            ["inspect-trace", "t.csv"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_run_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        text = capsys.readouterr().out
        for key in (
            "dataset.kind",
            "model.layer_widths",
            "optimizer.learning_rate",
            "lap.leniency",
            "lap.depression_strength",
            "lap.history_length",
            "lap.hold_off",
            "sources.n_corrupt",
            "sources.reliability_flip_step",
            "training.batch_size",
            "seeds",
            "output_dir",
        ):
            assert key in text

    def test_walkers_help_lists_every_key(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["walkers", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert json.dumps(asdict(WalkerConfig())) in text

    @pytest.mark.parametrize("flag", ["--seed", "--lap", "--out"])
    def test_run_takes_no_override_of_a_config_key(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--config", "c", flag, "0"])

    @pytest.mark.parametrize("flag", [
        "--out", "--leniency", "--depression-strength", "--history-length",
        "--corruption-rate"])
    def test_sweep_takes_only_its_config(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--config", "c", flag, "0"])

    @pytest.mark.parametrize("flag", [
        "--shift", "--leniency", "--walkers", "--steps", "--depression-strength",
        "--seed", "--out"])
    def test_walkers_takes_only_its_config(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["walkers", "--config", "w", flag, "0"])


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, output_dir=str(out))
        code = main(["run", "--config", str(config)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "seed 0:" in stdout
        assert stdout.splitlines()[-1] == f"wrote {out / 'metrics.csv'}"
        assert (out / "metrics.csv").exists()
        assert (out / "trace_seed0.csv").exists()
        assert (out / "config.json").exists()

    def test_lap_off_override(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, lap={"enabled": False},
                              output_dir=str(out))
        code = main(["run", "--config", str(config)])
        assert code == 0
        with open(out / "trace_seed0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["gradient_scale"] == "1" for r in rows)

    def test_written_config_reruns_into_its_own_directory(self, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, seeds=[0, 2], output_dir=str(out))
        assert main(["run", "--config", str(config)]) == 0
        first = capsys.readouterr().out
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(written) == ["config.json", "metrics.csv",
                                   "trace_seed0.csv", "trace_seed2.csv"]
        assert main(["run", "--config", str(out / "config.json")]) == 0
        assert capsys.readouterr().out == first
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    @pytest.mark.parametrize(
        "kind, splits",
        [("idx_files", "train val test"), ("csv", "train val")],
    )
    def test_line_names_the_splits_the_files_give(self, kind, splits,
                                                  tmp_path, capsys):
        dataset = conftest.file_dataset_sections(tmp_path)[kind]
        config = write_config(tmp_path, dataset=dataset,
                              model={"layer_widths": [4, 8, 3]})
        assert main(["run", "--config", str(config)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        shown = re.findall(r"(train|val|test) \d\.\d{4}", line)
        assert shown == splits.split()

    def test_excluded_corrupt_sources_have_no_scales(self, tmp_path, capsys):
        # the excluded sources are corrupt but have no trace column
        config = write_config(tmp_path, sources={
            "n_corrupt": 2, "exclude_corrupt_from_training": True})
        assert main(["run", "--config", str(config)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert "corrupt=" not in line
        assert re.search(r" flagged=\[[\d, ]*\]$", line)

    def test_line_reports_the_trace(self, tmp_path, capsys):
        # strong depression flags sources inside the short run, and the
        # flip lets a corrupt source's lowest scale differ from its last
        config = write_config(
            tmp_path,
            lap={"depression_strength": 50},
            sources={"n_corrupt": 2, "reliability_flip_step": 60},
            training={"epochs": 6},
            seeds=[1, 2],
        )
        runs = run_experiment(load_config(config))
        assert main(["run", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(runs)
        flagged_any = recovered_any = False
        for run, line in zip(runs, lines):
            trace = run.trace
            scales = np.array(scale_rows(trace))
            final, lowest = scales[-1], scales.min(axis=0)
            ids = np.array(trace.source_ids)
            corrupt = trace.corrupt
            flagged = ids[final < 0.5].tolist()
            assert line.endswith(
                f" corrupt={ids[corrupt].tolist()}"
                f" scales=[{' '.join(f'{v:.3f}' for v in final[corrupt])}]"
                f" lowest=[{' '.join(f'{v:.3f}' for v in lowest[corrupt])}]"
                f" flagged={flagged}"
            )
            flagged_any |= bool(flagged)
            recovered_any |= bool((lowest[corrupt] < final[corrupt] - 0.5).any())
        assert flagged_any and recovered_any

    @pytest.mark.parametrize("sources, message", [
        ({"mode": "chunk_shuffle"},
         "sources.n_chunks 4 exceeds the 2 features of an input"),
        ({"n_corrupt": 3, "exclude_corrupt_from_training": True},
         "sources.exclude_corrupt_from_training leaves fewer than 2 sources: "
         "3 of 4 are corrupt"),
        ({"n_sources": 69},
         "sources.n_sources: cannot split 68 items into 69 sources"),
    ], ids=["too-many-chunks", "exclusion-leaves-one-source", "too-many-sources"])
    def test_config_that_cannot_run_makes_no_output_dir(self, sources, message,
                                                       tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, sources=sources, output_dir=str(out))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_config_error_is_reported_not_raised(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"sources": {"n_sources": 3, "n_corrupt": 3}}))
        code = main(["run", "--config", str(p)])
        assert code == 1
        assert "n_corrupt" in capsys.readouterr().err


def _run_args(tmp_path, **overrides):
    return ["run", "--config", str(write_config(tmp_path, **overrides))]


def _sweep_args(tmp_path, grid, **overrides):
    """A sweep of the test config over ``grid`` (no ``grid`` key if None)."""
    if grid is not None:
        overrides["grid"] = grid
    return ["sweep", "--config", str(write_config(tmp_path, **overrides))]


def _walkers_args(tmp_path, **keys):
    """`walkers` on a file holding ``keys``."""
    p = tmp_path / "walkers.json"
    p.write_text(json.dumps(keys))
    return ["walkers", "--config", str(p)]


def _file_dataset_args(tmp_path, kind, key, target):
    dataset = conftest.file_dataset_sections(tmp_path)[kind]
    dataset[key] = str(target)
    return _run_args(tmp_path, dataset=dataset,
                     model={"layer_widths": [4, 8, 3]})


def _written(path, data):
    path.write_bytes(data)
    return path


def _trace_args(row):
    """inspect-trace on a file of the trace header and the one ``row``."""
    def make_args(tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text(",".join(TRACE_CSV_COLUMNS) + "\n" + row + "\n")
        return ["inspect-trace", str(p)]
    return make_args


@pytest.mark.parametrize("make_args, code, message", [
    pytest.param(lambda tmp: ["run", "--config", str(tmp)], 1,
                 "Is a directory", id="config-is-a-directory"),
    pytest.param(lambda tmp: ["run", "--config",
                              str(_written(tmp / "config.json", b"\xff\xfe{"))],
                 1, "config.json: not valid JSON", id="config-is-not-text"),
    pytest.param(lambda tmp: _file_dataset_args(tmp, "csv", "path",
                                                tmp / "none.csv"),
                 1, "No such file", id="csv-path-missing"),
    pytest.param(lambda tmp: _file_dataset_args(tmp, "csv", "path", tmp), 1,
                 "Is a directory", id="csv-path-is-a-directory"),
    pytest.param(lambda tmp: _file_dataset_args(tmp, "csv", "path", _written(
                     tmp / "binary.csv", b"1,2,3,4,0\n\xff\xfe,2,3,4,1\n")),
                 1, "binary.csv: bad row 2", id="csv-path-is-not-text"),
    pytest.param(lambda tmp: _file_dataset_args(tmp, "idx_files",
                                                "train_images", tmp / "none"),
                 1, "No such file", id="idx-images-missing"),
    pytest.param(lambda tmp: _file_dataset_args(tmp, "idx_files",
                                                "train_images", tmp),
                 1, "Is a directory", id="idx-images-is-a-directory"),
    pytest.param(lambda tmp: _run_args(
                     tmp, output_dir=str(_written(tmp / "taken", b""))),
                 1, "File exists", id="out-is-a-file"),
    pytest.param(lambda tmp: _walkers_args(
                     tmp, n_walkers=5, n_steps=10,
                     output_dir=str(_written(tmp / "taken", b""))),
                 1, "File exists", id="walkers-out-is-a-file"),
    pytest.param(lambda tmp: ["inspect-trace", str(tmp)], 2,
                 "is not a trace CSV", id="trace-is-a-directory"),
    pytest.param(_trace_args("x,0,0,0,0"), 2, "is not a trace CSV",
                 id="trace-step-does-not-parse"),
    pytest.param(_trace_args("0,0,1"), 2, "is not a trace CSV",
                 id="trace-row-too-short"),
    pytest.param(_trace_args("0,0,0,1,0,7"), 2, "is not a trace CSV",
                 id="trace-row-too-long"),
])
def test_unreadable_file_is_an_error_line(make_args, code, message, tmp_path,
                                          capsys):
    assert main(make_args(tmp_path)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("make_args, message", [
    pytest.param(lambda tmp: _run_args(tmp, seeds=[0, -1]), "seeds",
                 id="run-negative-seed"),
    pytest.param(lambda tmp: _sweep_args(tmp, {"lap.leniency": [0.8]},
                                         seeds=[-1]),
                 "seeds", id="sweep-negative-seed"),
    pytest.param(lambda tmp: _sweep_args(tmp, None), "grid: expected",
                 id="sweep-without-grid"),
    pytest.param(lambda tmp: _sweep_args(tmp, [0.8]), "grid: expected",
                 id="sweep-grid-not-an-object"),
    pytest.param(lambda tmp: _sweep_args(tmp, {"lap.leniency": 0.8}),
                 "grid.lap.leniency: expected a nonempty list",
                 id="sweep-value-not-a-list"),
    pytest.param(lambda tmp: _sweep_args(tmp, {"seeds.x": [0]}),
                 "grid.seeds.x: seeds is not a section",
                 id="sweep-key-through-a-value"),
    pytest.param(lambda tmp: _sweep_args(tmp, {"lap.lenency": [0.8]}),
                 "lap.lenency: unknown key", id="sweep-typo"),
    pytest.param(lambda tmp: _run_args(tmp, grid={"lap.leniency": [0.8]}),
                 "grid: unknown key", id="run-on-a-sweep-file"),
    pytest.param(lambda tmp: _sweep_args(tmp, {"sources.n_chunks": [1, 4]},
                                         sources={"mode": "chunk_shuffle",
                                                  "n_chunks": 1}),
                 "error: grid point sources.n_chunks=4: sources.n_chunks 4 "
                 "exceeds the 2 features of an input",
                 id="sweep-point-cannot-run"),
    pytest.param(lambda tmp: _walkers_args(tmp, seed=-1, n_steps=10),
                 "seed", id="walkers-negative-seed"),
    pytest.param(lambda tmp: _walkers_args(tmp, mean_shifts=[float("nan")],
                                           n_steps=10),
                 "mean_shifts", id="walkers-nan-shift"),
    pytest.param(lambda tmp: _walkers_args(tmp, mean_shifts=[]),
                 "mean_shifts must be a nonempty list",
                 id="walkers-empty-shifts"),
    pytest.param(lambda tmp: _walkers_args(tmp, n_walker=5),
                 "config.n_walker: unknown key", id="walkers-unknown-key"),
    pytest.param(lambda tmp: _walkers_args(tmp, n_steps=2.5),
                 "n_steps: expected int, got 2.5", id="walkers-wrong-type"),
    pytest.param(lambda tmp: _walkers_args(tmp, output_dir=""),
                 "output_dir", id="walkers-empty-output-dir"),
    pytest.param(lambda tmp: _walkers_args(tmp, n_walkers=1001),
                 "n_walkers * n_steps must be <= 10000000, got 1001 * 10000",
                 id="walkers-too-many-cells"),
    pytest.param(lambda tmp: _run_args(tmp, output_dir=""), "output_dir",
                 id="run-empty-output-dir"),
])
def test_bad_value_is_an_error_line(make_args, message, tmp_path, capsys):
    assert main(make_args(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


class TestSweepCommand:
    def sweep(self, tmp_path, grid, **overrides):
        """Run `sweep` over ``grid`` on a one-epoch config."""
        code = main(_sweep_args(tmp_path, grid, **overrides,
                                training={"epochs": 1, "batch_size": 4}))
        assert code == 0

    def test_sweep_csv_written(self, tmp_path, capsys):
        out = tmp_path / "sweepout"
        self.sweep(tmp_path, {"lap.leniency": [0.4, 0.8]}, output_dir=str(out))
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[-1] == f"wrote {out / 'sweep.csv'}"
        assert os.listdir(out) == ["sweep.csv"]
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert rows[0][0] == "lap.leniency"

    def test_every_old_axis_reaches_the_row(self, tmp_path, capsys):
        out = tmp_path / "sweepout"
        self.sweep(tmp_path, {"lap.leniency": [0.4],
                              "lap.depression_strength": [2],
                              "lap.history_length": [3],
                              "sources.corruption_rate": [0.5]},
                   output_dir=str(out))
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lap.leniency", "lap.depression_strength",
                           "lap.history_length", "sources.corruption_rate",
                           "n_seeds", "mean_accuracy", "std_accuracy"]
        assert rows[1][:5] == ["0.4", "2", "3", "0.5", "1"]

    def test_close_axis_values_keep_distinct_labels(self, tmp_path, capsys):
        out = tmp_path / "sweepout"
        self.sweep(tmp_path, {"lap.leniency": [0.8000001, 0.8000002]},
                   output_dir=str(out))
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:2]] == [
            "lap.leniency=0.8000001", "lap.leniency=0.8000002"]
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0.8000001", "0.8000002"]

    def test_values_print_as_the_file_writes_them(self, tmp_path, capsys):
        self.sweep(tmp_path, {"lap.enabled": [True, False],
                              "sources.mode": ["random_label"]})
        lines = capsys.readouterr().out.splitlines()
        # no output_dir, so no `wrote` line
        assert [line.split()[:2] for line in lines] == [
            ["lap.enabled=true", "sources.mode=random_label"],
            ["lap.enabled=false", "sources.mode=random_label"]]


class TestWalkersCommand:
    def test_walker_csv_written(self, tmp_path, capsys):
        out = tmp_path / "walkout"
        code = main(_walkers_args(tmp_path, mean_shifts=[0, 3],
                                  leniencies=[1.0], n_walkers=5, n_steps=100,
                                  output_dir=str(out)))
        assert code == 0
        with open(out / "walkers.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["leniency", "mean_shift", "mean_distrust",
                           "mean_depression"]
        assert len(rows) == 3
        lines = capsys.readouterr().out.splitlines()
        for shift, line in zip((0.0, 3.0), lines):
            p_up = expected_increment_probability(1.0, shift)
            assert f"shift={shift:g} leniency=1 p_up={p_up:.4f} " in line
        assert lines[-1] == f"wrote {out / 'walkers.csv'}"

    def test_defaults_are_the_ensemble_defaults(self):
        # the committed file spells out every default and writes out/walkers
        config = load_config(REPO_ROOT / "configs" / "walkers.json", WalkerConfig)
        assert config == WalkerConfig(output_dir="out/walkers")


class TestInspectCommand:
    def test_summarizes_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, output_dir=str(out))
        main(["run", "--config", str(config)])
        capsys.readouterr()
        code = main(["inspect-trace", str(out / "trace_seed0.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "4 sources" in text
        assert "source 0:" in text
        assert "corrupt" in text

    def test_last_n_averages_match_trace_arrays(self, tmp_path, capsys):
        out = tmp_path / "out"
        (run,) = run_experiment(load_config(write_config(tmp_path)), out_dir=out)
        trace = run.trace
        code = main(["inspect-trace", str(out / "trace_seed0.csv"), "--last", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        steps = len(trace.level)
        assert lines[0] == f"steps 0..{steps - 1}, 4 sources, averaging last 3 step(s)"
        means = zip(
            trace.source_ids,
            np.mean(replay(trace)[-3:], axis=0),
            np.mean(scale_rows(trace)[-3:], axis=0),
            trace.corrupt & (steps - 1 < trace.clean_from),
        )
        assert lines[1:] == [
            f"source {s}: distrust {d:.1f} scale {g:.4f}" + (" corrupt" if c else "")
            for s, d, g, c in means
        ]

    def test_last_beyond_the_run_averages_the_whole_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        (run,) = run_experiment(load_config(write_config(tmp_path)), out_dir=out)
        steps = len(run.trace.level)
        sources = []
        for last in (steps, steps + 1, 10**6):
            code = main(["inspect-trace", str(out / "trace_seed0.csv"),
                         "--last", str(last)])
            assert code == 0
            header, *lines = capsys.readouterr().out.splitlines()
            # the header reports the window asked for, even past the run
            assert header == (
                f"steps 0..{steps - 1}, 4 sources, averaging last {last} step(s)"
            )
            sources.append(lines)
        assert len(sources[0]) == 4
        assert sources[1:] == sources[:1] * 2

    @pytest.mark.parametrize("last", ["0", "-1", "two"])
    def test_last_must_be_a_positive_integer(self, last, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["inspect-trace", str(tmp_path / "none.csv"), "--last", last])
        assert exc.value.code == 2
        assert (f"argument --last: expected an integer >= 1, got '{last}'"
                in capsys.readouterr().err)

    def test_missing_file(self, tmp_path, capsys):
        code = main(["inspect-trace", str(tmp_path / "none.csv")])
        assert code == 2
        assert "no such trace" in capsys.readouterr().err

    def test_wrong_schema(self, tmp_path, capsys):
        p = tmp_path / "other.csv"
        p.write_text("a,b\n1,2\n")
        code = main(["inspect-trace", str(p)])
        assert code == 2
        assert "not a trace" in capsys.readouterr().err


class TestEntryPoints:
    @staticmethod
    def checkout_env():
        """Environment whose PYTHONPATH puts the imported package first, so a
        child process runs this code rather than some other installed copy."""
        package_root = str(Path(lossadapt.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        path = package_root + (os.pathsep + inherited if inherited else "")
        return {**os.environ, "PYTHONPATH": path}

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "lossadapt",
             *_walkers_args(tmp_path, mean_shifts=[0], leniencies=[2.0],
                            n_walkers=3, n_steps=50)],
            capture_output=True,
            text=True,
            env=self.checkout_env(),
        )
        assert proc.returncode == 0
        assert "mean_distrust" in proc.stdout

    def test_console_script(self):
        """The script declared in pyproject.toml resolves to a working CLI,
        called the way the generated wrapper calls it."""
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["lossadapt"]
        module, attr = target.split(":")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {attr}; sys.exit({attr}())",
             "--help"],
            capture_output=True,
            text=True,
            env=self.checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "run" in proc.stdout
        assert "inspect-trace" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("lossadapt") is None,
        reason="lossadapt console script not installed",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["lossadapt", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout
        assert "inspect-trace" in proc.stdout
