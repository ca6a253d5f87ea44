import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lossadapt
from lossadapt.cli import build_parser, main
from lossadapt.config import load_config
from lossadapt.experiment import run_experiment
from lossadapt.walkers import expected_increment_probability

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
        if isinstance(value, dict) and key in payload:
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
            ["sweep", "--config", "c.json", "--leniency", "0.8"],
            ["walkers", "--steps", "10"],
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

    def test_lap_flag_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--config", "c", "--lap", "maybe"])


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "seed 0:" in stdout
        assert (out / "metrics.csv").exists()
        assert (out / "trace_seed0.csv").exists()
        assert (out / "config.json").exists()

    def test_seed_override(self, tmp_path, capsys):
        config = write_config(tmp_path, seeds=[0, 1, 2])
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        assert "seed 7:" in capsys.readouterr().out
        assert (out / "trace_seed7.csv").exists()
        assert not (out / "trace_seed0.csv").exists()

    def test_lap_off_override(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--lap", "off",
                     "--out", str(out)])
        assert code == 0
        with open(out / "trace_seed0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["gradient_scale"] == "1" for r in rows)

    def test_config_error_is_reported_not_raised(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"sources": {"n_sources": 3, "n_corrupt": 3}}))
        code = main(["run", "--config", str(p)])
        assert code == 1
        assert "n_corrupt" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_csv_written(self, tmp_path, capsys):
        config = write_config(tmp_path, training={"epochs": 1, "batch_size": 4})
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", str(config),
                     "--leniency", "0.4", "0.8", "--out", str(out)])
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert rows[0][0] == "leniency"

    def test_every_axis_flag_reaches_the_grid(self, tmp_path, capsys):
        config = write_config(tmp_path, training={"epochs": 1, "batch_size": 4})
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--leniency", "0.4", "--depression-strength", "2",
                     "--history-length", "3", "--corruption-rate", "0.5"])
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][:4] == ["0.4", "2", "3", "0.5"]


class TestWalkersCommand:
    def test_walker_csv_written(self, tmp_path, capsys):
        out = tmp_path / "walkout"
        code = main(["walkers", "--shift", "0", "3", "--leniency", "1.0",
                     "--walkers", "5", "--steps", "100", "--out", str(out)])
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


class TestInspectCommand:
    def test_summarizes_trace(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out)])
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
        steps = len(trace.distrust)
        assert lines[0] == f"steps 0..{steps - 1}, 4 sources, averaging last 3 step(s)"
        means = zip(
            trace.source_ids,
            trace.distrust[-3:].mean(axis=0),
            trace.gradient_scales()[-3:].mean(axis=0),
            trace.is_corrupt[-1],
        )
        assert lines[1:] == [
            f"source {s}: distrust {d:.1f} scale {g:.4f}" + (" corrupt" if c else "")
            for s, d, g, c in means
        ]

    def test_last_beyond_the_run_averages_the_whole_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        (run,) = run_experiment(load_config(write_config(tmp_path)), out_dir=out)
        steps = len(run.trace.distrust)
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

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lossadapt", "walkers", "--shift", "0",
             "--leniency", "2.0", "--walkers", "3", "--steps", "50"],
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
