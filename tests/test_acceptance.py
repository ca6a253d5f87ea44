"""End-to-end acceptance gates for the package.

Ten numbered checks covering gradient correctness, the reference-statistics
oracle, walker ensemble behaviour, source identification, accuracy
protection, no-corruption parity, recovery after a reliability flip,
overhead scaling, run determinism, and an optional Fashion-MNIST
comparison. Each test emits one line

    [criterion N] PASS - <measurements>

(or FAIL / SKIP). The lines print as the tests run and are repeated in an
"acceptance verdicts" section at the end of the session, where they stay
visible under pytest's output capture. The heavyweight blob experiments
are shared between tests through module fixtures, so the whole file runs
in a couple of minutes on a laptop.

Criterion 10 needs Fashion-MNIST IDX files on disk and is skipped unless
``LOSSADAPT_FMNIST_DIR`` points at a directory containing them.
"""

import filecmp
import glob
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import conftest
from conftest import fit_overhead_linear, full_registry, overhead_scaling_table
from lossadapt.config import config_from_dict
from lossadapt.experiment import (
    prepare_run,
    run_experiment,
    run_single,
)
from lossadapt.models import (
    ModelSpec,
    init_params,
    loss_and_backward,
)
from lossadapt.rng import make_rng
from lossadapt.trust import LapParams
from lossadapt.walkers import WalkerConfig, simulate_walkers

SEEDS = tuple(range(10))


def _line(n: int, verdict: str, detail: str) -> None:
    text = f"[criterion {n}] {verdict} - {detail}"
    print(text)
    conftest.VERDICT_LINES.append(text)


def _check(n: int, ok: bool, detail: str) -> None:
    _line(n, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# shared experiment arms


def _identification_config():
    """Blobs run where distrust must single out the bad sources: 10 sources,
    4 of them fully label-randomised, default trust parameters."""
    return config_from_dict(
        {
            "dataset": {
                "kind": "blobs",
                "n_per_class": 400,
                "n_test_per_class": 100,
            },
            "model": {"layer_widths": [2, 32, 32, 3]},
            "optimizer": {"kind": "adam", "learning_rate": 0.01},
            "lap": {
                "leniency": 0.8,
                "depression_strength": 1.0,
                "history_length": 25,
            },
            "sources": {
                "n_sources": 10,
                "n_corrupt": 4,
                "mode": "random_label",
                "corruption_rate": 1.0,
            },
            "training": {"epochs": 30, "batch_size": 6},
        }
    )


@pytest.fixture(scope="module")
def lap_runs():
    cfg = _identification_config()
    return [run_single(cfg, seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def standard_runs():
    cfg = _identification_config()
    cfg = cfg.replace(lap=replace(cfg.lap, enabled=False))
    return [run_single(cfg, seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def clean_only_runs():
    cfg = _identification_config()
    cfg = cfg.replace(
        lap=replace(cfg.lap, enabled=False),
        sources=replace(cfg.sources, exclude_corrupt_from_training=True),
    )
    return [run_single(cfg, seed) for seed in SEEDS]


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_01_gradient_finite_difference():
    start = time.time()
    spec = ModelSpec(layer_widths=(20, 16, 8, 4))
    rng = make_rng(11)
    params = init_params(spec, rng)
    batch = rng.normal(size=(8, 20)), rng.integers(0, 4, size=8)
    _, grads = loss_and_backward(params, spec, *batch)

    eps = 1e-6
    worst = 0.0
    for k, array in enumerate(params.arrays):
        flat = array.reshape(-1)
        analytic = grads.arrays[k].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + eps
            up, _ = loss_and_backward(params, spec, *batch)
            flat[j] = keep - eps
            down, _ = loss_and_backward(params, spec, *batch)
            flat[j] = keep
            fd = (up - down) / (2 * eps)
            rel = abs(analytic[j] - fd) / max(abs(analytic[j]), abs(fd), 1e-8)
            worst = max(worst, rel)
    elapsed = time.time() - start
    _check(
        1,
        worst < 1e-4 and elapsed < 5.0,
        f"max relative error {worst:.3e} over {params.flat.size} coordinates "
        f"(bound 1e-4), {elapsed:.1f}s (bound 5s)",
    )


# ---------------------------------------------------------------------------
# 2. reference statistics against a naive double summation


def _naive_other_stats(histories, distrust, target):
    others = [s for s in histories if s != target]
    weights = {s: 1.0 / (1.0 + distrust[s]) for s in others}
    denom = len(next(iter(histories.values()))) * sum(weights.values())
    mean = sum(weights[s] * v for s in others for v in histories[s]) / denom
    var = (
        sum(weights[s] * (v - mean) ** 2 for s in others for v in histories[s])
        / denom
    )
    return mean, np.sqrt(var)


def test_criterion_02_weighted_statistics_oracle():
    start = time.time()
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(1000):
        n_sources = int(rng.integers(2, 6))
        h = int(rng.integers(2, 11))
        histories = {
            s: list(rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), h))
            for s in range(n_sources)
        }
        distrust = {s: float(rng.integers(0, 50)) for s in range(n_sources)}
        registry = full_registry(
            histories,
            params=LapParams(history_length=h),
            distrust=distrust,
        )
        for target in range(n_sources):
            mean, std = registry.weighted_other_stats(target)
            ref_mean, ref_std = _naive_other_stats(histories, distrust, target)
            worst = max(worst, abs(mean - ref_mean), abs(std - ref_std))
    elapsed = time.time() - start
    _check(
        2,
        worst < 1e-10 and elapsed < 10.0,
        f"max |difference| {worst:.2e} over 1000 registries (bound 1e-10), "
        f"{elapsed:.1f}s (bound 10s)",
    )


# ---------------------------------------------------------------------------
# 3. walker ensemble: separation by mean shift, monotone in leniency


def test_criterion_03_walker_separation():
    start = time.time()
    grid = (0.5, 1.0, 1.5, 2.0, 3.0)
    rows_by_shift = {}
    for shift in (0.0, 1.0, 2.0, 3.0):
        cfg = WalkerConfig(
            mean_shifts=(shift,),
            n_walkers=100,
            n_steps=10_000,
            leniencies=grid,
            seed=0,
        )
        rows_by_shift[shift] = simulate_walkers(cfg)

    d_flat = next(
        r.mean_depression for r in rows_by_shift[0.0] if r.leniency == 1.0
    )
    d_shifted = next(
        r.mean_depression for r in rows_by_shift[3.0] if r.leniency == 1.0
    )
    monotone = True
    for rows in rows_by_shift.values():
        ordered = sorted(rows, key=lambda r: r.leniency)
        values = [r.mean_distrust for r in ordered]
        monotone &= all(a >= b for a, b in zip(values, values[1:]))
    elapsed = time.time() - start
    _check(
        3,
        d_flat < 0.01 and d_shifted > 0.9 and monotone and elapsed < 60.0,
        f"depression {d_flat:.2e} at shift 0 (bound 0.01), "
        f"{d_shifted:.4f} at shift 3 (bound 0.9), "
        f"distrust monotone in leniency at every shift: {monotone}, "
        f"{elapsed:.1f}s (bound 60s)",
    )


# ---------------------------------------------------------------------------
# 4. the most-depressed sources are exactly the corrupted ones


def test_criterion_04_source_identification(lap_runs):
    start = time.time()
    good_seeds = 0
    details = []
    for result in lap_runs:
        final_scales = dict(zip(result.trace.source_ids,
                                result.trace.final_and_lowest_scales()[0].tolist()))
        ids = sorted(final_scales)
        scales = np.array([final_scales[s] for s in ids])
        bottom = {ids[i] for i in np.argsort(scales)[:4]}
        corrupt = set(prepare_run(_identification_config(), result.seed)
                      .corrupt_source_ids)
        corrupt_scales = [final_scales[s] for s in corrupt]
        clean_scales = [
            final_scales[s] for s in ids if s not in corrupt
        ]
        ok = (
            bottom == corrupt
            and max(corrupt_scales) < 0.1
            and min(clean_scales) > 0.9
        )
        good_seeds += ok
        details.append(
            f"{max(corrupt_scales):.3f}/{min(clean_scales):.3f}"
        )
    elapsed = time.time() - start
    _check(
        4,
        good_seeds >= 9 and elapsed < 300.0,
        f"{good_seeds}/10 seeds identified all 4 corrupt sources "
        f"(worst corrupt/clean scales per seed: {' '.join(details)}), "
        f"{elapsed:.1f}s (bound 300s)",
    )


# ---------------------------------------------------------------------------
# 5. accuracy protection against a standard and a clean-data-only run


def test_criterion_05_accuracy_protection(
    lap_runs, standard_runs, clean_only_runs
):
    lap_acc = np.array([r.final_accuracy("test") for r in lap_runs])
    std_acc = np.array([r.final_accuracy("test") for r in standard_runs])
    clean_acc = np.array([r.final_accuracy("test") for r in clean_only_runs])
    wins = int((lap_acc >= std_acc).sum())
    gap = abs(float(lap_acc.mean()) - float(clean_acc.mean()))
    _check(
        5,
        wins >= 9 and gap <= 0.03,
        f"adaptive >= standard in {wins}/10 seeds "
        f"(means {lap_acc.mean():.4f} vs {std_acc.mean():.4f}), "
        f"gap to clean-data-only baseline {gap * 100:.2f}pp (bound 3pp)",
    )


# ---------------------------------------------------------------------------
# 6. parity when nothing is corrupted


def test_criterion_06_no_corruption_parity():
    cfg = _identification_config()
    cfg = cfg.replace(
        sources=replace(cfg.sources, n_corrupt=0, mode="original")
    )
    off = cfg.replace(lap=replace(cfg.lap, enabled=False))
    on_acc = np.mean([run_single(cfg, s).final_accuracy("test") for s in SEEDS])
    off_acc = np.mean([run_single(off, s).final_accuracy("test") for s in SEEDS])
    gap = abs(float(on_acc) - float(off_acc))
    _check(
        6,
        gap <= 0.01,
        f"mean accuracy {on_acc:.4f} adaptive vs {off_acc:.4f} standard, "
        f"gap {gap * 100:.2f}pp (bound 1pp)",
    )


# ---------------------------------------------------------------------------
# 7. recovery after sources turn reliable mid-run


def test_criterion_07_recovery_after_flip():
    # Overlapping blobs keep per-source losses spread out for the whole run,
    # so a recovered source can re-enter the tolerated band; the shorter
    # history and the looser leniency keep the walk-down inside the second
    # half of training.
    base = _identification_config()
    cfg = base.replace(
        dataset=replace(base.dataset, spread=2.5),
        lap=replace(base.lap, leniency=1.3, history_length=10),
    )
    flip = conftest.planned_steps(cfg) // 2
    cfg = cfg.replace(sources=replace(cfg.sources, reliability_flip_step=flip))

    good_seeds = 0
    troughs = []
    finals = []
    for seed in SEEDS:
        result = run_single(cfg, seed)
        flipped = prepare_run(cfg, seed).corrupt_source_ids
        final_scales = dict(zip(result.trace.source_ids,
                                result.trace.final_and_lowest_scales()[0].tolist()))
        mean_scale = float(
            np.mean([final_scales[s] for s in flipped])
        )
        columns = [result.trace.source_ids.index(s) for s in flipped]
        trough = float(result.trace.final_and_lowest_scales()[1][columns].min())
        finals.append(mean_scale)
        troughs.append(trough)
        good_seeds += mean_scale > 0.99
    deep = max(troughs) < 0.5
    _check(
        7,
        good_seeds >= 9 and deep,
        f"{good_seeds}/10 seeds ended above 0.99 "
        f"(worst final scale {min(finals):.4f}); depression was real first "
        f"(trough scale <= {max(troughs):.3f} in every seed, bound 0.5)",
    )


# ---------------------------------------------------------------------------
# 8. bookkeeping cost grows linearly with history x sources


def test_criterion_08_overhead_scaling():
    # Wall-clock measurement: transient machine load can wreck one pass, so
    # up to three independent measurements are allowed. A genuinely
    # nonlinear cost would fail all of them.
    best = (-1.0, 0.0, 0.0)
    attempts = 0
    for repeats in (9, 13, 17):
        attempts += 1
        table = overhead_scaling_table(repeats=repeats)
        slope, intercept, r2 = fit_overhead_linear(table)
        if r2 > best[0]:
            best = (r2, slope, intercept)
        if r2 >= 0.9:
            break
    r2, slope, intercept = best
    _check(
        8,
        r2 >= 0.9,
        f"R^2 {r2:.4f} (bound 0.9, best of {attempts} measurement(s)) for "
        f"overhead ~ h*|S| over |S| in (5,10,20,40) x h in (25,50,100); "
        f"slope {slope * 1e9:.1f} ns per history cell, "
        f"base {intercept * 1e6:.1f} us",
    )


# ---------------------------------------------------------------------------
# 9. byte-identical reruns


def test_criterion_09_determinism(tmp_path):
    cfg = _identification_config().replace(seeds=SEEDS)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    run_experiment(cfg, out_dir=dir_a)
    run_experiment(cfg, out_dir=dir_b)
    names = ["metrics.csv"] + [f"trace_seed{s}.csv" for s in SEEDS]
    identical = [
        n for n in names if filecmp.cmp(dir_a / n, dir_b / n, shallow=False)
    ]
    _check(
        9,
        len(identical) == len(names),
        f"{len(identical)}/{len(names)} output files byte-identical "
        f"across two runs of the 10-seed identification experiment",
    )


# ---------------------------------------------------------------------------
# 10. optional larger check on Fashion-MNIST


def _find_idx(directory: str, stem: str) -> str | None:
    hits = sorted(glob.glob(os.path.join(directory, stem + "*")))
    return hits[0] if hits else None


def test_criterion_10_fashion_mnist():
    directory = os.environ.get("LOSSADAPT_FMNIST_DIR")
    if not directory:
        _line(10, "SKIP", "LOSSADAPT_FMNIST_DIR not set")
        pytest.skip("LOSSADAPT_FMNIST_DIR not set")
    paths = {
        "train_images": _find_idx(directory, "train-images-idx3-ubyte"),
        "train_labels": _find_idx(directory, "train-labels-idx1-ubyte"),
        "test_images": _find_idx(directory, "t10k-images-idx3-ubyte"),
        "test_labels": _find_idx(directory, "t10k-labels-idx1-ubyte"),
    }
    missing = [k for k, v in paths.items() if v is None]
    if missing:
        _line(10, "SKIP", f"missing IDX files: {', '.join(missing)}")
        pytest.skip(f"missing IDX files in {directory}")

    cfg = config_from_dict(
        {
            "dataset": {"kind": "idx_files", **paths},
            "model": {"layer_widths": [784, 256, 128, 10]},
            "optimizer": {"kind": "adam", "learning_rate": 0.001},
            "lap": {"history_length": 25},
            "sources": {
                "n_sources": 10,
                "n_corrupt": 6,
                "mode": "batch_label_shuffle",
                "corruption_rate": 1.0,
            },
            "training": {"epochs": 40, "batch_size": 32},
        }
    )
    lap_acc = run_single(cfg, 0).final_accuracy("test")
    std_cfg = cfg.replace(lap=replace(cfg.lap, enabled=False))
    std_acc = run_single(std_cfg, 0).final_accuracy("test")
    _check(
        10,
        lap_acc > std_acc,
        f"test accuracy {lap_acc:.4f} adaptive vs {std_acc:.4f} standard",
    )
