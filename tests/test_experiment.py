import csv
import filecmp
import hashlib
import importlib.util
import io
import os
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import conftest

from lossadapt import experiment, optim
from lossadapt.config import config_from_dict, load_config, serialize_config
from lossadapt.errors import ConfigError, NumericError
from lossadapt.experiment import (
    METRICS_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    TRACE_BLOCK,
    TRACE_CSV_COLUMNS,
    Trace,
    prepare_run,
    run_experiment,
    run_single,
    sweep,
    total_steps,
    write_sweep_csv,
    write_trace_csv,
)
from lossadapt.models import evaluate
from lossadapt.trust import depression_value
from test_acceptance import _identification_config

overhead = conftest.load_script("run_overhead_scaling")


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
        if isinstance(value, dict) and key in base:
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
        steps = total_steps(config)
        trace = result.trace
        assert trace.source_ids == (0, 1, 2, 3, 4)
        assert trace.distrust.shape == trace.is_corrupt.shape == (steps, 5)
        assert trace.depression_applied.shape == (steps,)
        scales = trace.gradient_scales()
        assert ((scales > 0.0) & (scales <= 1.0)).all()
        assert (trace.distrust >= 0.0).all()
        corrupt = [s in result.corrupt_source_ids for s in trace.source_ids]
        assert (trace.is_corrupt == corrupt).all()

    def test_round_robin_fairness(self):
        # without upsampling each source trains on exactly its own items, so
        # near-equal sources step a near-equal number of times per epoch,
        # and the run takes exactly the planned steps
        config = small_config(
            dataset={"n_per_class": 40},
            sources={"n_sources": 5, "n_corrupt": 0, "mode": "original"},
        )
        prep = prepare_run(config, 3)
        for s in prep.source_ids:
            np.testing.assert_array_equal(
                prep.items_by_source[s], prep.plan.items_of(s)
            )
        batch = config.training.batch_size
        per_epoch = [-(-len(v) // batch) for v in prep.items_by_source.values()]
        assert max(per_epoch) - min(per_epoch) <= 1
        assert prep.steps_per_epoch == sum(per_epoch)
        result = run_single(config, 3)
        steps = len(result.trace.distrust)
        assert steps == config.training.epochs * prep.steps_per_epoch

    def test_total_steps_builds_no_model_or_optimizer(self, monkeypatch):
        config = small_config()
        steps = len(run_single(config, 0).trace.distrust)

        def refuse(*args, **kwargs):
            raise AssertionError("total_steps built a model or an optimizer")

        monkeypatch.setattr(experiment, "init_params", refuse)
        monkeypatch.setattr(experiment, "LapOptimizer", refuse)
        assert total_steps(config) == steps

    def test_evaluation_uses_clean_splits(self):
        # recompute every final-epoch metric from the stored clean arrays
        config = small_config(
            sources={"n_sources": 5, "n_corrupt": 4, "mode": "replace_gaussian_noise"}
        )
        result = run_single(config, 1)
        prep = prepare_run(config, 1)
        for split_name, data in (
            ("train", prep.train), ("val", prep.val), ("test", prep.test)
        ):
            loss, acc = evaluate(result.params, config.model, data.x, data.y)
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
        assert a.corrupt_source_ids == b.corrupt_source_ids
        assert a.final_scales == b.final_scales
        assert [r.accuracy for r in a.records] == [r.accuracy for r in b.records]

    def test_nan_aborts_with_context(self):
        config = small_config(
            optimizer={"kind": "sgd", "learning_rate": 1e12},
            sources={"n_sources": 5, "n_corrupt": 0, "mode": "original"},
        )
        with pytest.raises(NumericError, match="seed 0, epoch"):
            run_single(config, 0)

    def test_model_dataset_mismatch_rejected(self):
        config = small_config(model={"layer_widths": [3, 8, 3]})
        with pytest.raises(ConfigError, match="features"):
            run_single(config, 0)
        config = small_config(model={"layer_widths": [2, 8, 4]})
        with pytest.raises(ConfigError, match="classes"):
            run_single(config, 0)


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
        before_flip = np.arange(len(trace.is_corrupt)) < 10
        for column, source in enumerate(trace.source_ids):
            expected = before_flip & (source in result.corrupt_source_ids)
            np.testing.assert_array_equal(trace.is_corrupt[:, column], expected)
        corrupt = [s in result.corrupt_source_ids for s in trace.source_ids]
        assert (trace.is_corrupt[:10] == corrupt).all()
        assert not trace.is_corrupt[10:].any()

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
        corrupt = next(iter(result.corrupt_source_ids))
        trace = result.trace
        peak = trace.distrust[:, trace.source_ids.index(corrupt)].max()
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
        assert set(traced).isdisjoint(result.corrupt_source_ids)
        assert result.trace.distrust.shape[1] == 3
        assert set(traced) == set(result.final_scales)

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
        sizes = {s: len(prep.plan.items_of(s)) for s in prep.source_ids}
        assert len(set(sizes.values())) > 1
        target = max(sizes.values())
        for s in prep.source_ids:
            items = prep.items_by_source[s]
            # the source's own items first, then draws from them
            assert len(items) == target
            np.testing.assert_array_equal(items[: sizes[s]], prep.plan.items_of(s))
            assert set(items.tolist()) == set(prep.plan.items_of(s).tolist())
        assert prep.steps_per_epoch == len(prep.source_ids) * target
        assert total_steps(config) == prep.steps_per_epoch
        result = run_single(config, 0)
        assert result.trace.distrust.shape == (
            prep.steps_per_epoch, len(prep.source_ids)
        )


class TestTrace:
    def test_last_step_matches_final_state(self):
        result = run_single(small_config(), 0)
        trace = result.trace
        assert trace.distrust[-1].tolist() == [
            result.final_distrust[s] for s in trace.source_ids
        ]
        assert trace.gradient_scales()[-1].tolist() == [
            result.final_scales[s] for s in trace.source_ids
        ]
        assert min(result.final_scales.values()) < 1.0

    def test_scales_are_one_until_depression_applies(self):
        trace = run_single(small_config(lap={"hold_off": 20}), 0).trace
        applied = trace.depression_applied
        first = int(np.argmax(applied))
        assert first > 0 and applied[first:].all()
        scales = trace.gradient_scales()
        # distrust walks during warm-up and hold-off; the scales stay 1.0
        assert (trace.distrust[:first] > 0.0).any()
        assert (scales[:first] == 1.0).all()
        assert (scales[first:] < 1.0).any()

        off = run_single(small_config(lap={"enabled": False}), 0).trace
        assert (off.distrust > 0.0).any()
        assert not off.depression_applied.any()
        assert (off.gradient_scales() == 1.0).all()

    def test_gradient_scales_allocates_only_its_result(self):
        trace = Trace(range(40), 20_000, 4.0, frozenset(), None)
        rng = np.random.default_rng(0)
        trace.distrust[:] = rng.integers(0, 200, size=trace.distrust.shape)
        trace.depression_applied[1000:] = True
        trace.gradient_scales()  # the first call's one-off imports and caches
        tracemalloc.start()
        try:
            scales = trace.gradient_scales()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < scales.nbytes + 2**20


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
        assert len(rows) == 1 + total_steps(config) * 5
        for row in rows[1:4]:
            assert row[4] in ("0", "1")

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
        assert all(v == 1.0 for v in result.final_scales.values())
        assert (result.trace.gradient_scales() == 1.0).all()


class TestSweep:
    def test_grid_of_one_matches_single_run(self):
        config = small_config(training={"epochs": 1, "batch_size": 4})
        rows = sweep(config, {"leniency": [0.8]})
        assert len(rows) == 1
        (direct,) = run_experiment(config)
        assert rows[0].mean_accuracy == pytest.approx(direct.final_accuracy("test"))
        assert rows[0].n_seeds == 1
        assert rows[0].std_accuracy == 0.0

    def test_cartesian_product(self):
        config = small_config(training={"epochs": 1, "batch_size": 4})
        rows = sweep(
            config, {"leniency": [0.4, 0.8], "history_length": [3, 5]}
        )
        assert len(rows) == 4
        combos = {(r.leniency, r.history_length) for r in rows}
        assert combos == {(0.4, 3), (0.4, 5), (0.8, 3), (0.8, 5)}

    def test_rejects_bad_grid(self):
        config = small_config()
        with pytest.raises(ConfigError, match="sweep"):
            sweep(config, {})
        with pytest.raises(ConfigError, match="learning_rate"):
            sweep(config, {"learning_rate": [0.1]})
        with pytest.raises(ConfigError, match="empty"):
            sweep(config, {"leniency": []})

    def test_sweep_csv(self, tmp_path):
        config = small_config(training={"epochs": 1, "batch_size": 4})
        rows = sweep(config, {"corruption_rate": [0.0, 1.0]})
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == list(SWEEP_CSV_COLUMNS)
        assert len(parsed) == 3


class TestOverhead:
    def test_table_covers_grid(self):
        table = overhead.overhead_scaling_table(
            source_grid=(3, 5), history_grid=(5, 10), n_steps=30, repeats=1
        )
        assert len(table) == 4
        assert {(s, h) for s, h, _ in table} == {(3, 5), (3, 10), (5, 5), (5, 10)}
        assert all(0.0 < t < 0.01 for _, _, t in table)

    def test_fit_recovers_perfect_line(self):
        table = [(s, h, 1e-6 + 2e-9 * s * h) for s in (5, 10) for h in (25, 50)]
        slope, intercept, r2 = overhead.fit_overhead_linear(table)
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
        last_scales = trace.gradient_scales()[-1].tolist()
        last_distrust = trace.distrust[-1].tolist()
        assert run.final_scales == dict(zip(trace.source_ids, last_scales))
        assert run.final_distrust == dict(zip(trace.source_ids, last_distrust))


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
    assert run.trace.distrust.shape == (4500, 10)
    hashes = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "trace_seed0.csv")
    )
    assert hashes == IDENTIFICATION_HASHES


# SHA-256 of the config.json that run_experiment writes beside those files
GOLDEN_CONFIG_HASHES = {
    "default": "5712d0e0d20e93a06f3c2e8de6f8fbe416b63e397f0006b2e0a51df07a471a85",
    "exclude_corrupt": "f1962983a13f880c6237c39e8947673b70e7425cf40165a5084fe893981d2eb2",
    "flip": "8379c181c6213acf48d4272c80da84377e9fef38a5bf9fefe3c17a58eae7812f",
    "hold_off": "fa1a2aa355fe45ddb8400c49a52cd3025c097335c7330044f53e06fee970ca29",
    "lap_off": "4125fffa664cf564b0eb5ef796440b629bd08593add974fd54a4847b09882cf4",
    "sgd_momentum": "f58756e1ee1f8cd449208dfb5cd96b98cdbde9dfdd574b35da6ecf1ac8dcc9c8",
    "upsample": "be1c408c70148ce943125e20e04bfab8ca9f1fa6c5de013e9a8ba5081aa57a13",
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS))
def test_config_sidecar_matches_golden_hashes(variant, tmp_path):
    path = tmp_path / "config.json"
    serialize_config(golden_config(variant), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_CONFIG_HASHES[variant]


@pytest.mark.parametrize("variant", ["lap_off", "hold_off", "flip"])
def test_trace_csv_matches_csv_writer_rendering(variant, tmp_path):
    trace = run_single(golden_config(variant), 0).trace
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == csv_writer_rendering(trace)


def csv_writer_rendering(trace):
    """The trace file as ``csv.writer`` renders the arrays cell by cell, each
    scale computed from its own distrust, without the trace's level lookup."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRACE_CSV_COLUMNS)
    rows = zip(
        trace.distrust.tolist(),
        trace.depression_applied.tolist(),
        trace.is_corrupt.tolist(),
    )
    for step, (distrust, applied, corrupt) in enumerate(rows):
        for source, d, c in zip(trace.source_ids, distrust, corrupt):
            scale = 1.0 - depression_value(d, trace.depression_strength)
            writer.writerow([
                step,
                source,
                f"{d:g}",
                f"{scale if applied else 1.0:.10g}",
                int(c),
            ])
    return buf.getvalue().encode()


# non-integer levels, and levels that %g writes with an exponent
HAND_LEVELS = (0.0, 1.0, 2.5, 3.0, 0.1 + 0.2, 1e-05, 123456789.5, 4e20)


def hand_built_trace(steps, lap, flip_step, seed=0):
    rng = np.random.default_rng(seed)
    trace = Trace((3, 7, 11, 12), steps, 1.5, frozenset({7, 12}), flip_step)
    trace.distrust[:] = rng.choice(HAND_LEVELS, size=trace.distrust.shape)
    if lap:
        # off during a hold-off, then on
        trace.depression_applied[steps // 3:] = True
    return trace


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

    @pytest.mark.parametrize("steps", [0, 1, 2 * TRACE_BLOCK + 7])
    def test_gradient_scales_match_each_cell(self, steps):
        trace = hand_built_trace(steps, lap=True, flip_step=None, seed=steps)
        strength = trace.depression_strength
        expected = [
            [1.0 - depression_value(d, strength) if applied else 1.0 for d in row]
            for row, applied in zip(
                trace.distrust.tolist(), trace.depression_applied.tolist()
            )
        ]
        assert trace.gradient_scales().tolist() == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_levels_match_unique_with_inverse(self, seed):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(0, 3 * TRACE_BLOCK))
        n_sources = int(rng.integers(1, 9))
        trace = Trace(range(n_sources), steps, float(rng.uniform(0.5, 4.0)),
                      frozenset({0}), None)
        pool = np.concatenate([rng.integers(0, 60, 40), rng.normal(5, 20, 40)])
        trace.distrust[:] = rng.choice(pool, size=trace.distrust.shape)
        values, scales, index_of = trace.levels()
        index = index_of(trace.distrust)

        expected, inverse = np.unique(trace.distrust.ravel(), return_inverse=True)
        assert values == expected.tolist()
        assert scales == [
            1.0 - depression_value(v, trace.depression_strength) for v in values
        ]
        np.testing.assert_array_equal(index, inverse.reshape(trace.distrust.shape))

    def test_memory_does_not_grow_with_steps(self):
        def peak_bytes(steps):
            trace = Trace(range(40), steps, 4.0, frozenset(range(12)), None)
            rng = np.random.default_rng(steps)
            trace.distrust[:] = rng.integers(0, 200, size=trace.distrust.shape)
            trace.depression_applied[steps // 10:] = True
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
