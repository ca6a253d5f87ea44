"""Seeded end-to-end experiment runner.

One run = one seed: build (or load) the dataset, split train/val 3:1, carve
the training set into mutually exclusive sources, mark some sources corrupt,
then train with per-epoch shuffled round-robin over sources. Every batch
holds data from a single source and triggers exactly one optimizer step.
Corruption happens at batch-assembly time, so a reliability flip mid-run is
just a schedule toggle. Validation/test metrics always come from clean data.

All randomness flows through named substreams of the run seed (data, split,
sources, init, schedule, corrupt), which makes outputs byte-identical across
repeats of the same config + seed.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_from_dict, config_to_dict
from .config import serialize_config
from .corruption import apply_corruption, split_into_sources
from .datasets import (
    Dataset,
    load_csv_dataset,
    load_idx,
    make_blobs,
    split_train_val,
)
from .errors import ConfigError, DataError, NumericError
from .models import evaluate, init_params, loss_and_backward
from .optim import LapOptimizer
from .rng import child_rng
from .trust import SourceRegistry, depression_value

METRICS_CSV_COLUMNS = ("seed", "epoch", "split", "accuracy", "mean_loss")
TRACE_CSV_COLUMNS = ("step", "source_id", "distrust", "gradient_scale", "is_corrupt")
# steps of the trace rebuilt, and rendered by the CSV writer, at a time: their
# memory depends on this and the number of sources, not on the number of
# steps or the highest distrust level
TRACE_BLOCK = 256

# substream keys under the run seed
_STREAM_DATA = 0
_STREAM_SPLIT = 1
_STREAM_SOURCES = 2
_STREAM_INIT = 3
_STREAM_SCHEDULE = 4
_STREAM_CORRUPT = 5


@dataclass(frozen=True)
class MetricsRecord:
    seed: int
    epoch: int
    split: str
    accuracy: float
    mean_loss: float


class Trace:
    """One run's step log: for each optimizer step, the column of the source
    that stepped and that source's distrust after the step; and the step
    where each of the run's two schedules switches.

    A step moves only the stepping source's distrust, and by at most 1:
    distrust is a count, a ±1 walk from 0 held at 0. So the log alone gives
    every source's level, and the gradient scale the run applied, at every
    step. The log is read through :meth:`final_and_lowest_scales` and
    :func:`write_trace_csv`, which rebuild it a :data:`TRACE_BLOCK` of steps
    at a time. Every reader first replays the log in step order
    (:meth:`check`), then rebuilds each block once. A log that no such walk
    makes (a column outside ``source_ids``, a negative level, or a level
    more than 1 from its column's previous level) raises :class:`DataError`,
    naming its first bad step and that step's column. Columns follow
    ``source_ids``, in registration order. A trace holds only the schedules
    of the paper: a corrupt source turns clean at most once, and
    depression, once on, stays on.

    column          int32 (steps,): the stepping source's column
    level           int32 (steps,): that source's distrust after the step
    corrupt         bool (n_sources,): the source's data is corrupt before
                    ``clean_from``, the reliability flip (``steps`` if none)
    depressed_from  the first step whose gradients were scaled by 1 -
                    depression (``steps`` if none); before it, scales are 1.0
    """

    def __init__(
        self,
        source_ids,
        steps: int,
        depression_strength: float,
        corrupt_source_ids,
        flip_step: int | None,
    ):
        self.source_ids = tuple(source_ids)
        self.depression_strength = depression_strength
        self.column = np.zeros(steps, dtype=np.int32)
        self.level = np.zeros(steps, dtype=np.int32)
        self.corrupt = np.isin(self.source_ids, list(corrupt_source_ids))
        self.clean_from = steps if flip_step is None else flip_step
        self.depressed_from = steps

    def check(self) -> None:
        """Replay the log in step order, raising :class:`DataError` at the
        first step whose event no walk makes, naming the step and the
        column."""
        n = len(self.source_ids)
        row = [0] * n
        for start in range(0, len(self.level), TRACE_BLOCK):
            stop = start + TRACE_BLOCK
            events = zip(self.column[start:stop].tolist(),
                         self.level[start:stop].tolist())
            for step, (column, level) in enumerate(events, start):
                if not 0 <= column < n:
                    raise DataError(
                        f"step {step}: column {column} lies outside "
                        f"[0, {n}), the trace's {n} sources"
                    )
                if level < 0 or abs(level - row[column]) > 1:
                    raise DataError(
                        f"step {step}, column {column}: distrust moves "
                        f"from {row[column]} to {level}, but a step moves it "
                        f"by at most 1 and never below 0"
                    )
                row[column] = level

    def _blocks(self):
        """Yield ``(start, values, index)`` for each :data:`TRACE_BLOCK` of
        steps of a checked log: ``values[index]`` is the block's ``(rows,
        n_sources)`` distrust, and ``values`` holds the row before the block
        and then the block's levels, so every level in the block is one of
        them."""
        n = len(self.source_ids)
        last = np.zeros(n, dtype=np.int32)
        for start in range(0, len(self.level), TRACE_BLOCK):
            column = self.column[start:start + TRACE_BLOCK]
            rows = np.arange(len(column))
            values = np.concatenate([last, self.level[start:start + TRACE_BLOCK]])
            # each cell's index into values: its column's last event so far
            # in the block (event i is at n + i), else the row before
            index = np.tile(np.arange(n), (len(column), 1))
            index[rows, column] = n + rows
            np.maximum.accumulate(index, axis=0, out=index)
            yield start, values, index
            last = values[index[-1]]

    def final_and_lowest_scales(self) -> tuple[np.ndarray, np.ndarray]:
        """Each source's gradient scale at the last step, and its lowest over
        the run: the last row and the column minima of the applied scales
        (1.0 before ``depressed_from``), without building the whole matrix."""
        self.check()
        final = np.ones(len(self.source_ids))
        lowest = final.copy()
        for start, values, index in self._blocks():
            depressed = index[max(self.depressed_from - start, 0):]
            if len(depressed):
                levels, inverse = _distinct(values)
                scales = np.array(_scales(levels, self.depression_strength))
                block = scales[inverse[depressed]]
                np.minimum(lowest, block.min(axis=0), out=lowest)
                final = block[-1]
        return final, lowest


def _distinct(values: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The distinct levels in ``values``, ascending, and the index of each
    value among them (``np.unique`` touches more memory on its first call)."""
    levels = sorted(set(values.tolist()))
    return levels, np.searchsorted(levels, values)


def _scales(levels, depression_strength: float) -> list[float]:
    """The gradient scale of each distrust level while depression applies."""
    return [1.0 - depression_value(v, depression_strength) for v in levels]


@dataclass
class RunResult:
    seed: int
    records: list[MetricsRecord]
    trace: Trace
    final_distrust: dict[int, float]

    def final_accuracy(self, split: str) -> float:
        for record in reversed(self.records):
            if record.split == split:
                return record.accuracy
        raise KeyError(f"no records for split {split!r}")


@dataclass
class PreparedRun:
    """A run's data and step plan, exposed for inspection and tests; the
    model and optimizer are built by :func:`run_single`."""

    train: Dataset
    val: Dataset
    test: Dataset | None
    corrupt_source_ids: frozenset[int]
    source_ids: tuple[int, ...]
    # each source's training items in source_ids order, upsampled when on
    items: tuple[np.ndarray, ...]
    steps_per_epoch: int


def _build_datasets(
    config: ExperimentConfig, seed: int
) -> tuple[Dataset, Dataset | None]:
    ds = config.dataset
    if ds.kind == "blobs":
        train = make_blobs(ds, child_rng(seed, _STREAM_DATA, 0))
        test = make_blobs(ds.test_blob_spec(), child_rng(seed, _STREAM_DATA, 1))
        return train, test
    if ds.kind == "idx_files":
        train = load_idx(ds.train_images, ds.train_labels)
        test = None
        if ds.test_images:
            test = load_idx(ds.test_images, ds.test_labels, train.n_classes)
        return train, test
    train = load_csv_dataset(ds.path)
    test = load_csv_dataset(ds.test_path, train.n_classes) if ds.test_path else None
    return train, test


def _check_model_fits(config: ExperimentConfig, dataset: Dataset) -> None:
    if config.model.n_features != dataset.n_features:
        raise ConfigError(
            f"model.layer_widths starts at {config.model.n_features} features "
            f"but the dataset has {dataset.n_features}"
        )
    if config.model.n_classes != dataset.n_classes:
        raise ConfigError(
            f"model.layer_widths ends at {config.model.n_classes} classes "
            f"but the dataset has {dataset.n_classes}"
        )


def prepare_run(config: ExperimentConfig, seed: int) -> PreparedRun:
    full, test = _build_datasets(config, seed)
    _check_model_fits(config, full)
    train, val = split_train_val(
        full, child_rng(seed, _STREAM_SPLIT), config.training.train_val_ratio
    )
    dealt, corrupt = split_into_sources(
        len(train),
        config.sources.n_sources,
        child_rng(seed, _STREAM_SOURCES),
        n_corrupt=config.sources.n_corrupt,
    )
    source_ids = tuple(range(len(dealt)))
    if config.sources.exclude_corrupt_from_training:
        source_ids = tuple(s for s in source_ids if s not in corrupt)

    items = [dealt[s] for s in source_ids]
    if config.sources.upsample:
        upsample_rng = child_rng(seed, _STREAM_SOURCES, 1)
        target = max(map(len, items))
        for i, own in enumerate(items):
            if len(own) < target:
                extra = upsample_rng.choice(own, size=target - len(own))
                items[i] = np.concatenate([own, extra])
    return PreparedRun(
        train=train,
        val=val,
        test=test,
        corrupt_source_ids=corrupt,
        source_ids=source_ids,
        items=tuple(items),
        steps_per_epoch=sum(
            math.ceil(len(v) / config.training.batch_size) for v in items
        ),
    )


def run_single(config: ExperimentConfig, seed: int) -> RunResult:
    prep = prepare_run(config, seed)
    train, val, test = prep.train, prep.val, prep.test
    registry = SourceRegistry(prep.source_ids, params=config.lap)
    optimizer = LapOptimizer(
        config.optimizer.build(), registry, enabled=config.lap.enabled
    )
    params = init_params(config.model, child_rng(seed, _STREAM_INIT))
    schedule_rng = child_rng(seed, _STREAM_SCHEDULE)
    corrupt_rng = child_rng(seed, _STREAM_CORRUPT)
    trace = Trace(
        prep.source_ids,
        config.training.epochs * prep.steps_per_epoch,
        registry.params.depression_strength,
        prep.corrupt_source_ids,
        config.sources.reliability_flip_step,
    )
    # the trace's schedules are the ones the batches follow
    corrupt = trace.corrupt.tolist()
    levels = registry.distrust_levels
    batch_size = config.training.batch_size

    records: list[MetricsRecord] = []
    step = 0
    for epoch in range(config.training.epochs):
        # a random source order, then each source's items shuffled; each
        # round, every source in that order takes its next batch, if any
        order = schedule_rng.permutation(len(prep.items)).tolist()
        shuffled = [v[schedule_rng.permutation(len(v))] for v in prep.items]
        for lo in range(0, max(map(len, shuffled)), batch_size):
            for col in order:
                idx = shuffled[col][lo:lo + batch_size]
                if not len(idx):
                    continue
                x, y = train.x[idx], train.y[idx]
                if corrupt[col] and step < trace.clean_from:
                    x, y = apply_corruption(
                        x, y, config.sources, train.n_classes, corrupt_rng
                    )
                try:
                    loss, grads = loss_and_backward(params, config.model, x, y)
                except NumericError as exc:
                    raise NumericError(
                        f"seed {seed}, epoch {epoch}, step {step}, "
                        f"source {prep.source_ids[col]}: {exc}"
                    ) from exc
                optimizer.step(params, grads, loss, prep.source_ids[col])
                trace.column[step] = col
                trace.level[step] = levels[col]
                if step < trace.depressed_from and optimizer.depression_applied:
                    trace.depressed_from = step
                step += 1

        for split_name, split_data in (("train", train), ("val", val), ("test", test)):
            if split_data is None:
                continue
            loss, acc = evaluate(params, config.model, split_data.x, split_data.y)
            records.append(
                MetricsRecord(
                    seed=seed,
                    epoch=epoch,
                    split=split_name,
                    accuracy=acc,
                    mean_loss=loss,
                )
            )

    return RunResult(
        seed=seed,
        records=records,
        trace=trace,
        final_distrust=registry.snapshot(),
    )


def write_metrics_csv(records: list[MetricsRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [r.seed, r.epoch, r.split, f"{r.accuracy:.10g}", f"{r.mean_loss:.10g}"]
            )


def write_trace_csv(trace: Trace, path) -> None:
    """The trace as CSV, in the ``csv.writer`` dialect: ``%g`` distrust,
    ``.10g`` scale, 0/1 corrupt flag, ``\\r\\n`` line ends.

    Lines are rendered and written :data:`TRACE_BLOCK` steps at a time, so
    the memory this takes does not grow with the number of steps or with
    the highest distrust level. A log that no walk makes is refused before
    the file is created."""
    trace.check()
    strength = trace.depression_strength
    # a block's lines as (step, source, part): step text, ",source_id,", tail
    cells = np.empty(
        (min(len(trace.level), TRACE_BLOCK), len(trace.source_ids), 3), dtype=object
    )
    cells[:, :, 1] = np.array([f",{s}," for s in trace.source_ids], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_CSV_COLUMNS) + "\r\n")
        for start, values, index in trace._blocks():
            stop = start + len(index)
            # each line after "step,source_id," is one of four texts per
            # level in the block, picked by whether the step is depressed and
            # the cell corrupt; a level is written with :g, never str(), so
            # that 10**6 reads 1e+06
            levels, inverse = _distinct(values)
            n = len(levels)
            tails = np.array([
                f"{v:g},{s:.10g},{corrupt}\r\n"
                for level_scales in ([1.0] * n, _scales(levels, strength))
                for corrupt in (0, 1)
                for v, s in zip(levels, level_scales)
            ], dtype=object)
            at = np.arange(start, stop)[:, None]
            codes = inverse[index]
            codes += n * (
                2 * (at >= trace.depressed_from)
                + (trace.corrupt & (at < trace.clean_from))
            )
            block = cells[: stop - start]
            steps_text = np.array([str(i) for i in range(start, stop)], dtype=object)
            block[:, :, 0] = steps_text[:, None]
            block[:, :, 2] = tails[codes]
            fh.write("".join(block.ravel().tolist()))


def run_experiment(config: ExperimentConfig, out_dir=None) -> list[RunResult]:
    """Run every seed in the config, in order; optionally persist metrics,
    per-seed traces, and the resolved config under ``out_dir``."""
    target = out_dir if out_dir is not None else config.output_dir
    if target is not None:
        # made before the first seed runs, so a path that cannot be a
        # directory fails before any training, not after all of it
        target = Path(target)
        target.mkdir(parents=True, exist_ok=True)
    runs = [run_single(config, seed) for seed in config.seeds]

    if target is not None:
        serialize_config(config, target / "config.json")
        all_records = [r for run in runs for r in run.records]
        write_metrics_csv(all_records, target / "metrics.csv")
        for run in runs:
            write_trace_csv(run.trace, target / f"trace_seed{run.seed}.csv")
    return runs


# -- parameter sweeps -----------------------------------------------------


def _set_key(raw: dict, key: str, value) -> None:
    """Set the dotted config ``key`` (``"lap.leniency"``) of ``raw``."""
    *sections, name = key.split(".")
    for i, section in enumerate(sections):
        # a section the config lacks is made, so that the loader names it
        raw = raw.setdefault(section, {})
        if not isinstance(raw, dict):
            path = ".".join(sections[: i + 1])
            raise ConfigError(f"grid.{key}: {path} is not a section")
    raw[name] = value


def sweep(config: ExperimentConfig, grid) -> list[dict]:
    """Run ``config`` at every point of the Cartesian product of ``grid``, a
    map of dotted config keys to lists of values, in grid order. Every point
    is loaded by :func:`config_from_dict` before any trains, so a key, a
    value or a config that cannot run is refused by name, after the point's
    ``key=value`` pairs. A row maps each grid key to the point's value, then
    gives ``n_seeds`` and the mean and std over the seeds of the final test
    accuracy (val without a test split). The rows are written to
    ``sweep.csv`` in ``config.output_dir`` when that is set."""
    if not isinstance(grid, dict) or not grid:
        raise ConfigError(f"grid: expected a nonempty object, got {grid!r}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{key}: expected a nonempty list, got {values!r}")
    base = config_to_dict(config)
    base["output_dir"] = None
    points = []
    for combo in itertools.product(*grid.values()):
        raw = copy.deepcopy(base)
        for key, value in zip(grid, combo):
            _set_key(raw, key, value)
        values = dict(zip(grid, combo))
        try:
            point = config_from_dict(raw)
        except ConfigError as exc:
            raise ConfigError(
                f"grid point {point_text(values, grid)}: {exc}"
            ) from None
        points.append((values, point))
    if config.output_dir is not None:
        # made before the first point runs, as run_experiment does
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)

    rows = []
    for values, point in points:
        accs = []
        for run in run_experiment(point):
            try:
                accs.append(run.final_accuracy("test"))
            except KeyError:
                accs.append(run.final_accuracy("val"))
        rows.append({
            **values,
            "n_seeds": len(accs),
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),
        })
    if config.output_dir is not None:
        write_sweep_csv(rows, out / "sweep.csv")
    return rows


def sweep_text(value) -> str:
    """A sweep value as text: a float with ``.10g``, a string as itself,
    anything else as JSON (``true``, ``3``, ``[2, 8, 3]``)."""
    if isinstance(value, float):
        return f"{value:.10g}"
    return value if isinstance(value, str) else json.dumps(value)


def point_text(row: dict, keys) -> str:
    """The grid point of a sweep row as ``key=value`` pairs, in ``keys``
    order: ``lap.leniency=0.4 lap.enabled=true``."""
    return " ".join(f"{key}={sweep_text(row[key])}" for key in keys)


def write_sweep_csv(rows: list[dict], path) -> None:
    """The rows of :func:`sweep` as CSV, headed by their keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([sweep_text(v) for v in row.values()] for row in rows)
