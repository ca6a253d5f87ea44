import csv
import filecmp
import hashlib
import importlib.util
import io
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import (
    UNSHUFFLED_CHUNK_CASES,
    fit_overhead_linear,
    overhead_scaling_table,
    planned_steps,
    replay,
    scale_rows,
)

from lossadapt import cli, experiment, optim
from lossadapt.config import config_from_dict, load_config, serialize_config
from lossadapt.errors import ConfigError, DataError, NumericError
from lossadapt.experiment import (
    METRICS_CSV_COLUMNS,
    TRACE_BLOCK,
    TRACE_CSV_COLUMNS,
    Trace,
    prepare_run,
    run_experiment,
    run_single,
    sweep,
    write_trace_csv,
)
from lossadapt.models import evaluate
from lossadapt.rng import child_rng
from lossadapt.trust import SourceRegistry
from test_acceptance import _identification_config


def small_config(**overrides):
    base = {
        "dataset": {"kind": "blobs", "n_per_class": 40, "n_test_per_class": 10},
        "model": {"layer_widths": [2, 8, 3]},
        "optimizer": {"kind": "adam", "learning_rate": 0.01},
        "lap": {"history_length": 5},
        "sources": {"n_sources": 5, "n_corrupt": 2, "mode": "random_label"},
        "training": {"epochs": 2, "batch_size": 4},
        "seeds": [0],
    }
    for key, value in overrides.items():
        if key == "dataset" and value.get("kind", "blobs") != "blobs":
            # a file dataset takes none of the blob keys
            base[key] = value
        elif isinstance(value, dict) and key in base:
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return config_from_dict(base)


class TestRunSingle:
    def test_records_cover_all_epochs_and_splits(self):
        result = run_single(small_config(), 0)
        keys = {(r.epoch, r.split) for r in result.records}
        assert keys == {(e, s) for e in (0, 1) for s in ("train", "val", "test")}
        for r in result.records:
            assert 0.0 <= r.accuracy <= 1.0
            assert r.mean_loss >= 0.0

    def test_trace_has_row_per_source_per_step(self):
        config = small_config()
        result = run_single(config, 0)
        steps = planned_steps(config)
        trace = result.trace
        assert trace.source_ids == (0, 1, 2, 3, 4)
        assert trace.column.shape == trace.level.shape == (steps,)
        assert ((trace.column >= 0) & (trace.column < 5)).all()
        assert trace.corrupt.shape == (5,)
        assert trace.clean_from == steps
        assert 0 <= trace.depressed_from <= steps
        scales = np.array(scale_rows(trace))
        assert ((scales > 0.0) & (scales <= 1.0)).all()
        assert (trace.level >= 0).all()
        planned = prepare_run(config, 0).corrupt_source_ids
        corrupt = [s in planned for s in trace.source_ids]
        assert trace.corrupt.tolist() == corrupt

    def test_round_robin_fairness(self):
        # without upsampling each source trains on exactly its own items, so
        # near-equal sources step a near-equal number of times per epoch,
        # and the run takes exactly the planned steps
        config = small_config(
            dataset={"n_per_class": 40},
            sources={"n_sources": 5, "n_corrupt": 0, "mode": "original"},
        )
        prep = prepare_run(config, 3)
        dealt, _ = conftest.assignment_dealing(
            len(prep.train), 5, child_rng(3, experiment._STREAM_SOURCES)
        )
        for s, items in zip(prep.source_ids, prep.items, strict=True):
            np.testing.assert_array_equal(items, dealt[s])
        batch = config.training.batch_size
        per_epoch = [-(-len(v) // batch) for v in prep.items]
        assert max(per_epoch) - min(per_epoch) <= 1
        assert prep.steps_per_epoch == sum(per_epoch)
        result = run_single(config, 3)
        steps = len(result.trace.level)
        assert steps == config.training.epochs * prep.steps_per_epoch

    def test_exhausted_sources_are_skipped(self, monkeypatch):
        # 93 training items in 5 sources hold 19, 19, 19, 18 and 18, so at
        # batch 3 each epoch's last round steps only the three larger ones
        config = small_config(
            dataset={"n_per_class": 41}, training={"batch_size": 3}
        )
        prep = prepare_run(config, 0)
        assert [len(v) for v in prep.items] == [19, 19, 19, 18, 18]
        assert prep.steps_per_epoch == 33
        steps = Counter()
        record_loss = SourceRegistry.record_loss

        def counting(registry, source, loss):
            steps[source] += 1
            record_loss(registry, source, loss)

        monkeypatch.setattr(SourceRegistry, "record_loss", counting)
        result = run_single(config, 0)
        assert len(result.trace.level) == config.training.epochs * 33
        assert [steps[s] for s in prep.source_ids] == [14, 14, 14, 12, 12]

    def test_evaluation_uses_clean_splits(self, monkeypatch):
        # recompute every final-epoch metric from the stored clean arrays,
        # with the parameters the run trained in place
        config = small_config(
            sources={"n_sources": 5, "n_corrupt": 4, "mode": "replace_gaussian_noise"}
        )
        made = []
        init_params = experiment.init_params

        def recording(*args):
            made.append(init_params(*args))
            return made[-1]

        monkeypatch.setattr(experiment, "init_params", recording)
        result = run_single(config, 1)
        (params,) = made
        prep = prepare_run(config, 1)
        for split_name, data in (
            ("train", prep.train), ("val", prep.val), ("test", prep.test)
        ):
            loss, acc = evaluate(params, config.model, data.x, data.y)
            record = [
                r for r in result.records
                if r.split == split_name and r.epoch == 1
            ][0]
            assert record.accuracy == acc
            assert record.mean_loss == loss

    def test_corrupt_ids_deterministic_per_seed(self):
        config = small_config()
        a = run_single(config, 5)
        b = run_single(config, 5)
        assert a.trace.corrupt.tolist() == b.trace.corrupt.tolist()
        assert (a.trace.final_and_lowest_scales()[0].tolist()
                == b.trace.final_and_lowest_scales()[0].tolist())
        assert [r.accuracy for r in a.records] == [r.accuracy for r in b.records]

    def test_nan_aborts_with_context(self):
        config = small_config(
            optimizer={"kind": "sgd", "learning_rate": 1e12},
            sources={"n_sources": 5, "n_corrupt": 0, "mode": "original"},
        )
        with pytest.raises(NumericError, match=r"^seed 0, epoch \d+, step \d+, "
                                                r"source \d+: "):
            run_single(config, 0)

    def test_model_dataset_mismatch_rejected(self):
        config = small_config(model={"layer_widths": [3, 8, 3]})
        with pytest.raises(ConfigError, match="features"):
            run_single(config, 0)
        config = small_config(model={"layer_widths": [2, 8, 4]})
        with pytest.raises(ConfigError, match="classes"):
            run_single(config, 0)

    def test_too_many_chunks_refused_before_step_0(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step trained")

        monkeypatch.setattr(experiment, "loss_and_backward", no_step)
        with pytest.raises(ConfigError, match="^sources.n_chunks 4 exceeds "
                                              "the 2 features of an input$"):
            config = small_config(sources={"mode": "chunk_shuffle"})
            run_single(config, 0)

    @pytest.mark.parametrize("sources", UNSHUFFLED_CHUNK_CASES.values(),
                             ids=UNSHUFFLED_CHUNK_CASES)
    def test_too_many_chunks_run_when_no_batch_is_shuffled(self, sources):
        config = small_config(
            sources={"mode": "chunk_shuffle", "n_chunks": 4, **sources}
        )
        result = run_single(config, 0)
        assert len(result.trace.level) == planned_steps(config)


class TestFlipAndFlags:
    def test_reliability_flip_column(self):
        config = small_config(
            sources={
                "n_sources": 5,
                "n_corrupt": 2,
                "mode": "random_label",
                "reliability_flip_step": 10,
            }
        )
        result = run_single(config, 0)
        trace = result.trace
        steps = np.arange(len(trace.level))
        is_corrupt = trace.corrupt & (steps[:, None] < trace.clean_from)
        before_flip = steps < 10
        planned = prepare_run(config, 0).corrupt_source_ids
        for column, source in enumerate(trace.source_ids):
            expected = before_flip & (source in planned)
            np.testing.assert_array_equal(is_corrupt[:, column], expected)
        corrupt = [s in planned for s in trace.source_ids]
        assert trace.corrupt.tolist() == corrupt
        assert trace.clean_from == 10
        assert (is_corrupt[:10] == corrupt).all()
        assert not is_corrupt[10:].any()

    @pytest.mark.parametrize("flip", [0, 10, 10**6], ids=["at_0", "at_10", "beyond"])
    @pytest.mark.parametrize(
        "lap",
        [{"hold_off": 0}, {"hold_off": 20}, {"enabled": False}],
        ids=["hold_off_0", "hold_off_20", "lap_off"],
    )
    def test_schedule_thresholds_are_the_steps_that_switch(
        self, lap, flip, monkeypatch
    ):
        # what the optimizer reports after each step, and the steps whose
        # batch is corrupted, recorded beside the run
        applied, sources, corrupted = [], [], []
        optimizer_step = optim.LapOptimizer.step
        corrupt_batch = experiment.apply_corruption

        def recording_step(optimizer, params, grads, loss, source):
            scale = optimizer_step(optimizer, params, grads, loss, source)
            applied.append(optimizer.depression_applied)
            sources.append(source)
            return scale

        def recording_corruption(*args):
            corrupted.append(len(applied))
            return corrupt_batch(*args)

        monkeypatch.setattr(optim.LapOptimizer, "step", recording_step)
        monkeypatch.setattr(experiment, "apply_corruption", recording_corruption)
        config = small_config(
            lap=lap,
            sources={"n_corrupt": 3, "reliability_flip_step": flip},
        )
        result = run_single(config, 0)
        trace = result.trace
        steps = len(trace.level)
        assert len(applied) == steps

        np.testing.assert_array_equal(
            applied, np.arange(steps) >= trace.depressed_from
        )
        if lap.get("enabled", True):
            # depression switches on inside the run, so the test sees both sides
            assert 0 < trace.depressed_from < steps
        else:
            assert trace.depressed_from == steps

        assert trace.clean_from == flip
        planned = prepare_run(config, 0).corrupt_source_ids
        is_corrupt = [s in planned for s in sources]
        assert corrupted == [
            i for i, c in enumerate(is_corrupt) if c and i < trace.clean_from
        ]
        # the steps on both sides of the flip at 10 belong to corrupt sources
        assert is_corrupt[9] and is_corrupt[10]

    def test_flip_lets_distrust_recover(self):
        config = small_config(
            dataset={"n_per_class": 60},
            lap={"history_length": 4},
            training={"epochs": 10, "batch_size": 4},
            sources={
                "n_sources": 4,
                "n_corrupt": 1,
                "mode": "random_label",
                "reliability_flip_step": 120,
            },
        )
        result = run_single(config, 2)
        (corrupt,) = prepare_run(config, 2).corrupt_source_ids
        trace = result.trace
        peak = trace.level[trace.column == trace.source_ids.index(corrupt)].max()
        final = result.final_distrust[corrupt]
        assert peak > 20.0
        assert final < peak / 2

    def test_exclude_corrupt_drops_sources(self):
        config = small_config(
            sources={
                "n_sources": 5,
                "n_corrupt": 2,
                "mode": "random_label",
                "exclude_corrupt_from_training": True,
            }
        )
        result = run_single(config, 0)
        traced = result.trace.source_ids
        assert len(traced) == 3
        planned = prepare_run(config, 0).corrupt_source_ids
        assert len(planned) == 2
        assert set(traced).isdisjoint(planned)
        assert set(result.trace.column.tolist()) == {0, 1, 2}
        assert result.trace.final_and_lowest_scales()[0].shape == (3,)
        assert set(traced) == set(result.final_distrust)

    def test_upsample_equalizes_step_counts(self):
        # batch size 1, so one step per item and unequal sources would step
        # unequally often without upsampling
        config = small_config(
            dataset={"n_per_class": 41},  # train size not divisible
            sources={"n_sources": 5, "n_corrupt": 0, "mode": "original",
                     "upsample": True},
            training={"epochs": 1, "batch_size": 1},
        )
        prep = prepare_run(config, 0)
        # the split and the upsampling draw from separate substreams, so the
        # same config without upsampling deals the same sources
        own_items = prepare_run(
            config.replace(sources=dc_replace(config.sources, upsample=False)), 0
        ).items
        sizes = [len(own) for own in own_items]
        assert len(set(sizes)) > 1
        target = max(sizes)
        for items, own in zip(prep.items, own_items, strict=True):
            # the source's own items first, then draws from them
            assert len(items) == target
            np.testing.assert_array_equal(items[: len(own)], own)
            assert set(items.tolist()) == set(own.tolist())
        assert prep.steps_per_epoch == len(prep.source_ids) * target
        result = run_single(config, 0)
        assert len(result.trace.level) == prep.steps_per_epoch
        assert result.trace.source_ids == prep.source_ids


class TestTrace:
    def test_last_step_matches_final_state(self):
        result = run_single(small_config(), 0)
        trace = result.trace
        assert replay(trace)[-1] == [
            result.final_distrust[s] for s in trace.source_ids
        ]
        final, _ = trace.final_and_lowest_scales()
        assert scale_rows(trace)[-1] == final.tolist()
        assert final.min() < 1.0

    def test_scales_are_one_until_depression_applies(self, tmp_path):
        trace = run_single(small_config(lap={"hold_off": 20}), 0).trace
        first = trace.depressed_from
        assert 0 < first < len(trace.level)
        scales = written_scales(trace, tmp_path / "on.csv")
        # distrust walks during warm-up and hold-off; the scales stay 1.0
        assert (trace.level[:first] > 0).any()
        assert (scales[:first] == 1.0).all()
        assert (scales[first:] < 1.0).any()

        off = run_single(small_config(lap={"enabled": False}), 0).trace
        assert (off.level > 0).any()
        assert off.depressed_from == len(off.level)
        assert (written_scales(off, tmp_path / "off.csv") == 1.0).all()

    def test_log_replays_to_the_registry_final_levels(self, monkeypatch,
                                                      tmp_path):
        registries = []

        class Recording(SourceRegistry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                registries.append(self)

        monkeypatch.setattr(experiment, "SourceRegistry", Recording)
        trace = run_single(small_config(), 0).trace
        (registry,) = registries
        assert (registry.distrust_levels > 0).any()
        assert replay(trace)[-1] == registry.distrust_levels.tolist()
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_rendering(trace)

    def test_final_and_lowest_scales_build_no_whole_trace_array(self):
        def peak_bytes(steps):
            trace = Trace(range(40), steps, 4.0, frozenset(), None)
            random_walk(trace, seed=0)
            trace.depressed_from = steps // 20
            tracemalloc.start()
            try:
                trace.final_and_lowest_scales()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(TRACE_BLOCK)  # the first call's one-off imports and caches
        short, long = peak_bytes(20_000), peak_bytes(40_000)
        # the (steps, 40) float64 scales would take 6.4 and 12.8 MB
        assert short < 2**20
        assert long < 1.1 * short


class TestFileDatasets:
    """The ``idx_files`` and ``csv`` dataset kinds, on files written under
    the test's own directory."""

    @staticmethod
    def config(tmp_path, kind):
        dataset = conftest.file_dataset_sections(tmp_path)[kind]
        return small_config(dataset=dataset, model={"layer_widths": [4, 8, 3]})

    @pytest.mark.parametrize(
        "kind, splits",
        [("idx_files", ["train", "val", "test"]), ("csv", ["train", "val"])],
    )
    def test_metrics_cover_the_splits_the_files_give(self, kind, splits,
                                                      tmp_path):
        config = self.config(tmp_path, kind)
        run_experiment(config, out_dir=tmp_path / "out")
        with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["epoch"]), r["split"]) for r in rows] == [
            (epoch, split)
            for epoch in range(config.training.epochs)
            for split in splits
        ]

    def test_too_many_sources_for_the_file_refused_before_step_0(
        self, tmp_path, monkeypatch
    ):
        # a file's size is known only once it is read, so the config loads
        def no_step(*args):
            raise AssertionError("a step trained")

        monkeypatch.setattr(experiment, "loss_and_backward", no_step)
        config = self.config(tmp_path, "csv")
        config = config.replace(sources=dc_replace(config.sources, n_sources=37))
        with pytest.raises(ConfigError, match="^sources.n_sources: cannot split "
                                              "36 items into 37 sources$"):
            run_single(config, 0)

    def test_sweep_without_test_split_reads_val_accuracy(self, tmp_path):
        config = self.config(tmp_path, "csv")
        (row,) = sweep(config, {"lap.leniency": [config.lap.leniency]})
        (run,) = run_experiment(config)
        assert row["mean_accuracy"] == run.final_accuracy("val")


class TestPersistence:
    def test_files_written_and_deterministic(self, tmp_path):
        config = small_config(seeds=[0, 1])
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_experiment(config, out_dir=a_dir)
        run_experiment(config, out_dir=b_dir)
        for name in ("metrics.csv", "trace_seed0.csv", "trace_seed1.csv",
                     "config.json"):
            assert (a_dir / name).exists()
            assert filecmp.cmp(a_dir / name, b_dir / name, shallow=False), name

    def test_metrics_csv_schema(self, tmp_path):
        config = small_config()
        run_experiment(config, out_dir=tmp_path)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(METRICS_CSV_COLUMNS)
        assert len(rows) == 1 + 2 * 3  # epochs * splits
        for row in rows[1:]:
            assert row[2] in ("train", "val", "test")
            assert 0.0 <= float(row[3]) <= 1.0

    def test_trace_csv_schema(self, tmp_path):
        config = small_config()
        run_experiment(config, out_dir=tmp_path)
        with open(tmp_path / "trace_seed0.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRACE_CSV_COLUMNS)
        assert len(rows) == 1 + planned_steps(config) * 5
        for row in rows[1:4]:
            assert row[4] in ("0", "1")

    def test_output_dir_is_made_before_the_first_seed(self, tmp_path,
                                                      monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")

        def train(config, seed):
            raise AssertionError("trained before the output dir was made")

        monkeypatch.setattr(experiment, "run_single", train)
        with pytest.raises(FileExistsError):
            run_experiment(small_config(), out_dir=taken)

    def test_config_sidecar_round_trips(self, tmp_path):
        config = small_config()
        run_experiment(config, out_dir=tmp_path)
        again = load_config(tmp_path / "config.json")
        assert again == config.replace(output_dir=None) or again == config


class TestParity:
    def test_no_corruption_parity_quick(self):
        config = small_config(
            dataset={"n_per_class": 60},
            sources={"n_sources": 5, "n_corrupt": 0, "mode": "original"},
            training={"epochs": 4, "batch_size": 4},
        )
        lap_off = config.replace(lap=config.lap.__class__(enabled=False))
        acc_on = run_single(config, 0).final_accuracy("test")
        acc_off = run_single(lap_off, 0).final_accuracy("test")
        assert abs(acc_on - acc_off) <= 0.05

    def test_disabled_lap_scales_are_one(self):
        config = small_config(lap={"enabled": False, "history_length": 5})
        result = run_single(config, 0)
        final, lowest = result.trace.final_and_lowest_scales()
        assert (final == 1.0).all() and (lowest == 1.0).all()
        assert result.trace.depressed_from == len(result.trace.level)

    def test_hold_off_past_the_run_equals_lap_off(self, tmp_path):
        # while depression is held off, LAP only watches: every gradient
        # and so every output file is the LAP-off run's
        config = small_config(seeds=[0, 1])
        steps = max(planned_steps(config, seed) for seed in config.seeds)
        held = config.replace(lap=dc_replace(config.lap, hold_off=steps))
        off = config.replace(lap=dc_replace(config.lap, enabled=False))
        run_experiment(held, out_dir=tmp_path / "held")
        run_experiment(off, out_dir=tmp_path / "off")
        for name in ("metrics.csv", "trace_seed0.csv", "trace_seed1.csv"):
            assert filecmp.cmp(
                tmp_path / "held" / name, tmp_path / "off" / name, shallow=False
            ), name


def no_training(config, seed):
    raise AssertionError("trained before the sweep was checked")


class TestSweep:
    def test_grid_of_one_matches_single_run(self):
        config = small_config(training={"epochs": 1, "batch_size": 4})
        rows = sweep(config, {"lap.leniency": [0.8]})
        assert len(rows) == 1
        (direct,) = run_experiment(config)
        assert rows[0]["mean_accuracy"] == pytest.approx(
            direct.final_accuracy("test"))
        assert rows[0]["n_seeds"] == 1
        assert rows[0]["std_accuracy"] == 0.0

    def test_cartesian_product(self):
        config = small_config(training={"epochs": 1, "batch_size": 4})
        rows = sweep(
            config, {"lap.leniency": [0.4, 0.8], "lap.history_length": [3, 5]}
        )
        # in grid order, the last key varying fastest
        assert [(r["lap.leniency"], r["lap.history_length"]) for r in rows] == [
            (0.4, 3), (0.4, 5), (0.8, 3), (0.8, 5)]
        assert [list(r) for r in rows] == [[
            "lap.leniency", "lap.history_length",
            "n_seeds", "mean_accuracy", "std_accuracy"]] * 4

    def test_rejects_bad_grid(self):
        config = small_config()
        with pytest.raises(ConfigError, match="grid"):
            sweep(config, {})
        with pytest.raises(ConfigError, match="learning_rate"):
            sweep(config, {"learning_rate": [0.1]})
        with pytest.raises(ConfigError, match="empty"):
            sweep(config, {"lap.leniency": []})

    @pytest.mark.parametrize("grid, message", [
        pytest.param(None, "grid: expected a nonempty object", id="none"),
        pytest.param([0.4], "grid: expected a nonempty object", id="list"),
        pytest.param({"lap.leniency": 0.4},
                     "grid.lap.leniency: expected a nonempty list",
                     id="value-not-a-list"),
        pytest.param({"seeds.x": [1]}, "grid.seeds.x: seeds is not a section",
                     id="through-a-list"),
        pytest.param({"lap.leniency.x": [1]},
                     "grid.lap.leniency.x: lap.leniency is not a section",
                     id="through-a-value"),
        pytest.param({"lap.lenency": [0.4]}, "lap.lenency: unknown key",
                     id="typo"),
        pytest.param({"lab.leniency": [0.4]}, "lab: unknown key",
                     id="unknown-section"),
        pytest.param({"lap.leniency": [0.4, "high"]},
                     "lap.leniency: expected float, got 'high'",
                     id="wrong-type-at-the-second-point"),
        pytest.param({"sources.mode": ["chunk_shuffle"],
                      "sources.n_chunks": [1, 2, 4]},
                     "^grid point sources.mode=chunk_shuffle sources.n_chunks=4: "
                     "sources.n_chunks 4 exceeds the 2 features of an input$",
                     id="too-many-chunks-at-the-third-point"),
        pytest.param({"sources.exclude_corrupt_from_training": [True],
                      "sources.n_corrupt": [2, 3, 4]},
                     "^grid point sources.exclude_corrupt_from_training=true "
                     "sources.n_corrupt=4: sources.exclude_corrupt_from_training "
                     "leaves fewer than 2 sources: 4 of 5 are corrupt$",
                     id="exclusion-leaves-one-source-at-the-third-point"),
        pytest.param({"dataset.n_per_class": [4], "sources.n_corrupt": [0],
                      "sources.n_sources": [2, 4, 12]},
                     "^grid point dataset.n_per_class=4 sources.n_corrupt=0 "
                     "sources.n_sources=12: sources.n_sources: cannot split 9 "
                     "items into 12 sources$",
                     id="too-many-sources-at-the-third-point"),
    ])
    def test_bad_grid_is_refused_by_name_before_training(self, grid, message,
                                                         monkeypatch):
        monkeypatch.setattr(experiment, "run_single", no_training)
        with pytest.raises(ConfigError, match=message):
            sweep(small_config(), grid)

    def test_grid_over_a_key_outside_the_old_axes(self, monkeypatch):
        config = small_config(training={"epochs": 1, "batch_size": 4},
                              seeds=[0, 1])
        trained = []

        def recording(config, seed):
            trained.append((config.lap.enabled, seed))
            return run_single(config, seed)

        monkeypatch.setattr(experiment, "run_single", recording)
        rows = sweep(config, {"lap.enabled": [True, False]})
        assert trained == [(True, 0), (True, 1), (False, 0), (False, 1)]
        expected = []
        for enabled in (True, False):
            runs = run_experiment(
                config.replace(lap=dc_replace(config.lap, enabled=enabled)))
            accs = [run.final_accuracy("test") for run in runs]
            expected.append({
                "lap.enabled": enabled,
                "n_seeds": 2,
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
            })
        assert rows == expected

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "out"
        config = small_config(training={"epochs": 1, "batch_size": 4},
                              output_dir=str(out))
        rows = sweep(config, {"sources.corruption_rate": [0.0, 1.0]})
        # the points write no files of their own
        assert os.listdir(out) == ["sweep.csv"]
        with open(out / "sweep.csv", newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["sources.corruption_rate", "n_seeds",
                             "mean_accuracy", "std_accuracy"]
        assert len(parsed) == 3
        assert parsed[1] == ["0", "1", f"{rows[0]['mean_accuracy']:.10g}", "0"]

    def test_no_output_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sweep(small_config(training={"epochs": 1, "batch_size": 4}),
              {"lap.leniency": [0.8]})
        assert os.listdir(tmp_path) == []

    def test_output_dir_is_made_before_the_first_point(self, tmp_path,
                                                       monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(experiment, "run_single", no_training)
        with pytest.raises(FileExistsError):
            sweep(small_config(output_dir=str(taken)), {"lap.leniency": [0.8]})


class TestOverhead:
    def test_table_covers_grid(self):
        table = overhead_scaling_table(
            source_grid=(3, 5), history_grid=(5, 10), n_steps=30, repeats=1
        )
        assert len(table) == 4
        assert {(s, h) for s, h, _ in table} == {(3, 5), (3, 10), (5, 5), (5, 10)}
        assert all(0.0 < t < 0.01 for _, _, t in table)

    def test_fit_recovers_perfect_line(self):
        table = [(s, h, 1e-6 + 2e-9 * s * h) for s in (5, 10) for h in (25, 50)]
        slope, intercept, r2 = fit_overhead_linear(table)
        assert slope == pytest.approx(2e-9, rel=1e-6)
        assert intercept == pytest.approx(1e-6, rel=1e-4)
        assert r2 == pytest.approx(1.0, abs=1e-12)


# SHA-256 of every output file of tiny runs that cover each branch of the
# training loop; any change to these bytes must be deliberate. Taken with
# numpy 2.4.6 on x86-64.
GOLDEN_VARIANTS = {
    "default": {},
    "lap_off": {"lap": {"enabled": False}},
    "upsample": {"sources": {"upsample": True}},
    "flip": {"sources": {"reliability_flip_step": 60}},
    "exclude_corrupt": {"sources": {"exclude_corrupt_from_training": True}},
    "hold_off": {"lap": {"hold_off": 20}},
    "sgd_momentum": {"optimizer": {"kind": "sgd", "momentum": 0.5}},
}
# metrics.csv, trace_seed0.csv, trace_seed1.csv
GOLDEN_HASHES = {
    "default": (
        "b4686d63b9d19a04fed5395af6774b4009329dd168ceb9eaafb710624d041361",
        "ccef9421b647ece3ced5ce09295afa3657e9df681f910fd5ff7e3b3a493e9f9b",
        "58cdd3155c544fa8735223078f92b7aa06a888a4abd4b310e1feee21ba2da7ee",
    ),
    "lap_off": (
        "fa323c62f35688e58d0df75924aac91bf0345ec9989c95af5c5183752d251802",
        "91fae58b71214e0500b6402d63830f771cad327cc5685a5fb34c1743af337a08",
        "baa2a493467e6d9b9325ae7e06f9b5200c0f8abe10dd7d4e27924fb1f23307f0",
    ),
    "upsample": (
        "9127ffbc499f34cb883727240f92094fd80436141d9bb2711c5e07e6d13e446d",
        "3e073c12f3bcd51871b9c65e08f5d4caa9d2c91f2c461dbeca76719c247fb048",
        "73d3226df8a760605119fa8215468de05f1697773b965e4d55389cd56eb8d06a",
    ),
    "flip": (
        "10760a86f666fe014fcd37bf53d0d28ddea9808dd690303298f03d4391a0dac2",
        "92995bea63ce1fd43c98982d5849114b2806ceeb21a8babd4e8bc800bc0488a9",
        "eac8856c48b0d48ab13b5bf1103c79efbd33c224aee139b176cc1838c1f802fa",
    ),
    "exclude_corrupt": (
        "6f1ad6fc4f382b112f04f40e67aa865fe4bb90a057274f751c09536690f88aad",
        "c3adedd4a80221011ea9abc058ef6a78c946061a6963a9a3827571f31c35d501",
        "612713367ef7253450e31f272e074c14c1bf8b30ce7ce326f7ed1493d6828c99",
    ),
    "hold_off": (
        "1608af26ebd864f3397ef020de0277d32ae47c53dafad2b0488185c205c41d06",
        "af25e198af40ffe21d48a2e7b549206754dd17638fbe867c265111de158a1ef5",
        "c7e16a8a7d08d4e46e593d3e967f30f62ae1abba443dff28d0e76169c909160f",
    ),
    "sgd_momentum": (
        "ba99d2bcf33457ede8aeeaad7bd92bb8dfbc82e099ff192aa660c47306ae2a1f",
        "8ffd5dd9922cdf9c2f807bfdcb44f4646467c082ba8a37dc46f14da142adba2b",
        "58cdd3155c544fa8735223078f92b7aa06a888a4abd4b310e1feee21ba2da7ee",
    ),
}


def golden_config(variant):
    overrides = {
        "dataset": {"n_per_class": 41},
        "training": {"epochs": 6, "batch_size": 4},
        "seeds": [0, 1],
    }
    for key, value in GOLDEN_VARIANTS[variant].items():
        overrides[key] = {**overrides.get(key, {}), **value}
    return small_config(**overrides)


@pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS))
def test_outputs_match_golden_hashes(variant, tmp_path):
    run_experiment(golden_config(variant), out_dir=tmp_path)
    hashes = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "trace_seed0.csv", "trace_seed1.csv")
    )
    assert hashes == GOLDEN_HASHES[variant]


@pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS))
def test_final_trust_state_is_the_trace_last_row(variant):
    for run in run_experiment(golden_config(variant)):
        trace = run.trace
        last_distrust = replay(trace)[-1]
        assert run.final_distrust == dict(zip(trace.source_ids, last_distrust))


def test_registry_snapshot_is_its_distrust(monkeypatch):
    snapshot = SourceRegistry.snapshot
    seen = []

    def record(registry):
        seen.append((registry, snapshot(registry)))
        return seen[-1][1]

    monkeypatch.setattr(SourceRegistry, "snapshot", record)
    run = run_single(small_config(), 0)
    [(registry, snap)] = seen
    assert snap == dict(
        zip(registry.source_ids, registry.distrust_levels.tolist())
    )
    assert run.final_distrust == snap
    assert max(snap.values()) > 0


def test_golden_runs_make_no_distrust_ties(monkeypatch):
    # the rule steps +1 when mean_own >= mean_others + leniency * std_others,
    # so where the peer std is 0 or mean_own lies on the threshold, the step
    # hangs on how the sums round (ROADMAP item 4). No golden run comes near
    # one, so a tie policy cannot move their hashes; a config change that
    # makes a tie shows here first.
    updates, zero_std, on_threshold = Counter(), [], []
    update_distrust = SourceRegistry.update_distrust

    def checking(registry, source):
        mean_others, std_others = registry.weighted_other_stats(source)
        threshold = mean_others + registry.params.leniency * std_others
        mean_own = registry.source_mean(source)
        updates[variant] += 1
        if std_others == 0:
            zero_std.append((variant, source, mean_own))
        if abs(mean_own - threshold) <= 1e-12 * abs(threshold):
            on_threshold.append((variant, source, mean_own, threshold))
        return update_distrust(registry, source)

    monkeypatch.setattr(SourceRegistry, "update_distrust", checking)
    for variant in GOLDEN_VARIANTS:
        run_experiment(golden_config(variant))
    assert updates == {
        variant: 152 if variant == "exclude_corrupt" else 252
        for variant in GOLDEN_VARIANTS
    }
    assert sum(updates.values()) == 1664
    assert zero_std == []
    assert on_threshold == []


# SHA-256 of metrics.csv and trace_seed0.csv of the full identification run
# (acceptance criterion 4, benchmark workload W1) at seed 0, with numpy 2.4.6
# on x86-64
IDENTIFICATION_HASHES = (
    "678eb9fcb27ca187796bef6b5e03435e419c8df42bc2fb35d53192e9ee4043da",
    "8c4e848cd0e15b1b22bb30c7d6558d1486f50ac70e28ddc9c7ffe90aaf418119",
)


def test_identification_outputs_match_golden_hashes(tmp_path):
    config = _identification_config().replace(seeds=(0,))
    (run,) = run_experiment(config, out_dir=tmp_path)
    assert (len(run.trace.level), len(run.trace.source_ids)) == (4500, 10)
    hashes = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "trace_seed0.csv")
    )
    assert hashes == IDENTIFICATION_HASHES


# SHA-256 of the config.json that run_experiment writes beside those files
GOLDEN_CONFIG_HASHES = {
    "default": "d68fbd8e610d54312df913678b217ef96d2a26a755b5177da08e4fd8ee470c40",
    "exclude_corrupt": "420e10c74e26d98b19b64de938aa1d3b6165740539d86166cf08565f6a21ac77",
    "flip": "6567afd8c9347534cdcf2e61c15a789fabb09fd380bcf318fc560def6784eba7",
    "hold_off": "ddc6b5faab3cc38d4d3b2e9706936c19fb9ffcd35c53c0d16924e7aeba58512c",
    "lap_off": "bd32d79c210a291f3c838f299b5ba185ab87517fbb1279edf107a85e666875d4",
    "sgd_momentum": "12b6ae8849baf7193160134a5f5fa56ba248ecb6d344460394ce19ce67c54062",
    "upsample": "589291060413a38766f0a29e387ea6a404473dae7d0dda8cd81c25c1b8eec504",
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS))
def test_config_sidecar_matches_golden_hashes(variant, tmp_path):
    path = tmp_path / "config.json"
    serialize_config(golden_config(variant), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_CONFIG_HASHES[variant]


@pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS))
def test_final_and_lowest_scales_are_the_scale_matrix_summary(variant):
    for run in run_experiment(golden_config(variant)):
        scales = np.array(scale_rows(run.trace))
        final, lowest = run.trace.final_and_lowest_scales()
        assert final.tolist() == scales[-1].tolist()
        assert lowest.tolist() == scales.min(axis=0).tolist()


@pytest.mark.parametrize("variant", ["lap_off", "hold_off", "flip"])
def test_trace_csv_matches_csv_writer_rendering(variant, tmp_path):
    trace = run_single(golden_config(variant), 0).trace
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == csv_writer_rendering(trace)


def csv_writer_rendering(trace):
    """The trace file as ``csv.writer`` renders :func:`conftest.replay` and
    :func:`conftest.scale_rows` cell by cell, without the trace's fill or its
    level lookup."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRACE_CSV_COLUMNS)
    corrupt = trace.corrupt.tolist()
    for step, (distrust, scales) in enumerate(zip(replay(trace),
                                                  scale_rows(trace))):
        for source, d, scale, flag in zip(trace.source_ids, distrust, scales,
                                          corrupt):
            c = flag and step < trace.clean_from
            writer.writerow([step, source, f"{d:g}", f"{scale:.10g}", int(c)])
    return buf.getvalue().encode()


def written_scales(trace, path):
    """The ``gradient_scale`` column of the trace's CSV, as a ``(steps,
    n_sources)`` array."""
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        scales = [float(row["gradient_scale"]) for row in csv.DictReader(fh)]
    return np.array(scales).reshape(len(trace.level), len(trace.source_ids))


def random_walk(trace, seed):
    """Fill the trace's step log with a walk from 0 that climbs: each step
    picks a column at random and moves its level by -1, 0, +1 or +1, held at
    0, so that many levels occur."""
    rng = np.random.default_rng(seed)
    steps, n = len(trace.level), len(trace.source_ids)
    columns = rng.integers(n, size=steps).tolist()
    moves = rng.choice([-1, 0, 1, 1], size=steps).tolist()
    row = [0] * n
    levels = []
    for column, move in zip(columns, moves):
        row[column] = max(row[column] + move, 0)
        levels.append(row[column])
    trace.column[:] = columns
    trace.level[:] = levels


def hand_built_trace(steps, lap, flip_step, seed=0):
    """A random walk of 4 sources, two of them corrupt."""
    trace = Trace((3, 7, 11, 12), steps, 1.5, frozenset({7, 12}), flip_step)
    random_walk(trace, seed)
    if lap:
        # off during a hold-off, then on
        trace.depressed_from = steps // 3
    return trace


def assert_refused(trace, match, tmp_path):
    """Every reader of the log refuses it, and the CSV writer before it
    creates the file."""
    with pytest.raises(DataError, match=match):
        trace.final_and_lowest_scales()
    with pytest.raises(DataError, match=match):
        write_trace_csv(trace, tmp_path / "trace.csv")
    assert not (tmp_path / "trace.csv").exists()


class TestTraceWriter:
    @pytest.mark.parametrize("flip", [False, True], ids=["no_flip", "flip"])
    @pytest.mark.parametrize("lap", [True, False], ids=["lap_on", "lap_off"])
    @pytest.mark.parametrize(
        "steps",
        [0, 1, TRACE_BLOCK - 1, TRACE_BLOCK, 2 * TRACE_BLOCK + 7],
        ids=["empty", "one", "block-1", "block", "2block+7"],
    )
    def test_bytes_match_csv_writer(self, steps, lap, flip, tmp_path):
        flip_step = steps // 2 + 1 if flip else None
        trace = hand_built_trace(steps, lap, flip_step, seed=steps)
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_rendering(trace)

    @pytest.mark.parametrize("n_sources", [4, TRACE_BLOCK + 44])
    @pytest.mark.parametrize(
        "steps",
        [1, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1, 3 * TRACE_BLOCK + 5],
        ids=["one", "block-1", "block", "block+1", "3block+5"],
    )
    def test_distrust_matches_a_step_by_step_replay(self, steps, n_sources,
                                                    tmp_path):
        # with more sources than steps in a block, most columns take no
        # event in a block and carry the row before it
        trace = Trace(range(n_sources), steps, 1.5, frozenset(), None)
        random_walk(trace, seed=steps)
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_rendering(trace)

    @pytest.mark.parametrize("lap", [True, False], ids=["lap_on", "lap_off"])
    @pytest.mark.parametrize("steps", [1, TRACE_BLOCK, 1031])
    def test_final_and_lowest_scales_match_the_scale_matrix(self, steps, lap):
        # depression switches on a third of the way in, inside a block
        trace = hand_built_trace(steps, lap=lap, flip_step=None, seed=steps)
        scales = np.array(scale_rows(trace))
        final, lowest = trace.final_and_lowest_scales()
        assert final.tolist() == scales[-1].tolist()
        assert lowest.tolist() == scales.min(axis=0).tolist()

    def test_an_empty_trace_applied_no_scale(self):
        trace = Trace((3, 7, 11, 12), 0, 1.5, frozenset({7}), None)
        final, lowest = trace.final_and_lowest_scales()
        assert final.tolist() == lowest.tolist() == [1.0] * 4

    @pytest.mark.parametrize("steps", [1, 1031])
    @pytest.mark.parametrize("bad", ["below", "above"])
    def test_levels_outside_the_walk_are_refused(self, steps, bad, tmp_path):
        trace = hand_built_trace(steps, lap=True, flip_step=None, seed=steps)
        # the first event of a block, whose column's level before it is
        # carried from the block before
        step = min(steps - 1, 2 * TRACE_BLOCK)
        column = int(trace.column[step])
        before = replay(trace)[step - 1][column] if step else 0
        level = -1 if bad == "below" else before + 2
        trace.level[step] = level
        assert_refused(
            trace,
            rf"step {step}, column {column}: distrust moves from {before} "
            rf"to {level}, but a step moves it by at most 1 and never below 0",
            tmp_path,
        )

    @pytest.mark.parametrize("steps", [1, 1031])
    @pytest.mark.parametrize("column", [-1, 4])
    def test_columns_outside_the_trace_are_refused(self, steps, column, tmp_path):
        trace = hand_built_trace(steps, lap=True, flip_step=None, seed=steps)
        trace.column[steps // 2] = column
        assert_refused(
            trace,
            rf"step {steps // 2}: column {column} lies outside \[0, 4\)",
            tmp_path,
        )

    def test_the_first_bad_step_is_named(self, tmp_path):
        # a bad level at step 5 and a bad column at step 9, in one block
        trace = Trace((3, 7, 11, 12), 20, 1.5, frozenset(), None)
        trace.level[5] = 2
        trace.column[9] = 4
        assert_refused(
            trace,
            r"step 5, column 0: distrust moves from 0 to 2, but a step "
            r"moves it by at most 1 and never below 0",
            tmp_path,
        )

    def test_memory_does_not_grow_with_steps(self):
        def peak_bytes(steps):
            trace = Trace(range(40), steps, 4.0, frozenset(range(12)), None)
            random_walk(trace, seed=steps)
            trace.depressed_from = steps // 10
            tracemalloc.start()
            try:
                write_trace_csv(trace, os.devnull)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(TRACE_BLOCK)  # the first call's one-off imports and caches
        short, long = peak_bytes(20_000), peak_bytes(40_000)
        assert short < 4 * 2**20
        assert long < 1.1 * short

    def test_memory_does_not_grow_with_the_highest_level(self):
        # one source whose level climbs every step: each block holds 257
        # levels, and the trace's highest is its number of steps
        def peak_bytes(steps):
            trace = Trace((0,), steps, 4.0, frozenset(), None)
            trace.level[:] = np.arange(1, steps + 1)
            trace.depressed_from = 0
            tracemalloc.start()
            try:
                write_trace_csv(trace, os.devnull)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(TRACE_BLOCK)  # the first call's one-off imports and caches
        short, long = peak_bytes(20_000), peak_bytes(40_000)
        assert long < 1.1 * short


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_hooks_exist(tmp_path, monkeypatch):
    # perfbench/run.py --trace 1 wraps package functions by name; a rename
    # or removal must fail here first
    monkeypatch.setattr(sys, "path", list(sys.path))  # worker.py extends it
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", PERFBENCH / "worker.py"
    )
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    owners = (
        experiment, optim, optim.LapOptimizer, optim.Adam, optim.SGD,
        experiment.SourceRegistry,
    )
    before = [dict(vars(owner)) for owner in owners]
    tracer = worker.Tracer()
    worker._install_tracer(tracer)
    try:
        run_experiment(small_config(), out_dir=tmp_path)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before
    calls = Counter(name for name, _, _, _ in tracer.spans())
    assert set(calls) == set(tracer.names)
    # the trace is recorded as arrays; only the final state is snapshotted
    assert calls["trust.snapshot"] == 1


def mnist_shaped_config():
    """One short epoch at 784-256-128-10: more than 4 * CHUNK parameters, so
    on two CPUs the optimizer update takes two spans."""
    centers = [[((c + 1) * i % 11 - 5) / 10 for i in range(784)] for c in range(10)]
    config = small_config(
        dataset={"n_classes": 10, "n_per_class": 8, "centers": centers},
        model={"layer_widths": [784, 256, 128, 10]},
        training={"epochs": 1, "batch_size": 16},
    )
    widths = config.model.layer_widths
    assert sum((a + 1) * b for a, b in zip(widths, widths[1:])) > 4 * optim.CHUNK
    return config


def record_update_threads(monkeypatch) -> set:
    """The threads that run ``Adam._update`` from now on."""
    threads = set()
    update = optim.Adam._update

    def recording(self, *args):
        threads.add(threading.get_ident())
        update(self, *args)

    monkeypatch.setattr(optim.Adam, "_update", recording)
    return threads


def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    config = mnist_shaped_config()
    threads = record_update_threads(monkeypatch)
    for cpus in (1, 2):
        monkeypatch.setattr(optim, "_cpu_count", lambda: cpus)
        run_experiment(config, out_dir=tmp_path / str(cpus))
    assert len(threads) == 2  # the two-CPU run split its updates
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        one, two = (tmp_path / "1" / name), (tmp_path / "2" / name)
        assert one.read_bytes() == two.read_bytes(), name


def test_benchmark_tracer_spans_stay_on_the_main_thread(tmp_path, monkeypatch):
    # the tracer keeps one stack of open spans, so no function it wraps may
    # run on another thread, also where the optimizer update splits
    monkeypatch.setattr(sys, "path", list(sys.path))  # worker.py extends it
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", PERFBENCH / "worker.py"
    )
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    # every span reads the tracer's clock at its start and end
    clock_threads = set()

    def clock():
        clock_threads.add(threading.get_ident())
        return time.perf_counter()

    monkeypatch.setattr(sys.modules[worker.Tracer.__module__], "perf_counter", clock)
    monkeypatch.setattr(optim, "_cpu_count", lambda: 2)
    update_threads = record_update_threads(monkeypatch)
    tracer = worker.Tracer()
    worker._install_tracer(tracer)
    try:
        run_experiment(mnist_shaped_config(), out_dir=tmp_path)
    finally:
        tracer.restore()
    assert len(update_threads) == 2
    assert clock_threads == {threading.main_thread().ident}
    assert worker.summarize(tracer.spans())["min_self_s"] >= 0


def test_flag_threshold_matches_the_benchmark(monkeypatch):
    # `run` and perfbench's flag_f1 each say "flagged" below a scale; until
    # the package owns the one definition, the two thresholds must agree
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", PERFBENCH / "checks.py"
    )
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.FLAG_SCALE == cli.FLAG_BELOW
