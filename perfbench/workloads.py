"""The benchmark's workloads, each a `lossadapt` experiment config built from
a workload seed.

The seed picks the experiment's run seed and, for ``mnist_shaped``, the
class centres; the program sees nothing but the resulting config. Each
workload also states its expected optimizer steps per epoch, worked out from
the data sizes by hand, so the trace row count can be checked against a
number the program did not produce. Only the standard library is imported
here: the benchmark's parent process never loads numpy or the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], dict]  # seed -> config without epochs and seeds
    epochs: int
    # ceil(per-source train items / batch) summed over sources; the train
    # split is 3/4 of n_classes * n_per_class and sources differ by <= 1 item
    steps_per_epoch: int

    def config(self, seed: int, epochs: int | None = None) -> dict:
        """The experiment config (as `config_from_dict` takes it)."""
        raw = self.build(seed)
        raw["training"]["epochs"] = epochs or self.epochs
        raw["seeds"] = [seed]
        return raw


def _identification(seed: int) -> dict:
    # acceptance criteria 4, 5 and 9 use this configuration
    return {
        "dataset": {"kind": "blobs", "n_per_class": 400, "n_test_per_class": 100},
        "model": {"layer_widths": [2, 32, 32, 3]},
        "optimizer": {"kind": "adam", "learning_rate": 0.01},
        "lap": {"leniency": 0.8, "depression_strength": 1.0, "history_length": 25},
        "sources": {"n_sources": 10, "n_corrupt": 4, "mode": "random_label"},
        "training": {"batch_size": 6},
    }


MNIST_DIM = 784
MNIST_CLASSES = 10


def _mnist_shaped(seed: int) -> dict:
    # stand-in for Fashion-MNIST: centres N(0, 0.1^2) per dimension put the
    # classes about 4 apart at spread 1, so they overlap a little
    rng = random.Random(f"mnist_shaped-centres-{seed}")
    centres = [
        [rng.gauss(0.0, 0.1) for _ in range(MNIST_DIM)]
        for _ in range(MNIST_CLASSES)
    ]
    return {
        "dataset": {
            "kind": "blobs",
            "n_classes": MNIST_CLASSES,
            "n_per_class": 400,
            "centers": centres,
            "spread": 1.0,
        },
        "model": {"layer_widths": [MNIST_DIM, 256, 128, MNIST_CLASSES]},
        "optimizer": {"kind": "adam", "learning_rate": 1e-3},
        # strength 4 moves the 0.5-scale crossing from distrust 177 to 45,
        # which the 5 steps per source per epoch reach inside the run
        "lap": {"depression_strength": 4.0, "history_length": 25},
        "sources": {"n_sources": 10, "n_corrupt": 3, "mode": "random_label"},
        "training": {"batch_size": 64},
    }


def _many_sources(seed: int) -> dict:
    return {
        "dataset": {"kind": "blobs", "n_per_class": 800},
        "model": {"layer_widths": [2, 16, 3]},
        "optimizer": {"kind": "sgd", "learning_rate": 0.02, "momentum": 0.5},
        "lap": {"history_length": 50, "depression_strength": 4.0},
        "sources": {"n_sources": 40, "n_corrupt": 12, "mode": "random_label"},
        "training": {"batch_size": 4},
    }


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload was chosen is in BENCHMARK.json
        # 900 train items / 10 sources = 90 each, ceil(90 / 6) = 15
        Workload("identification", _identification, epochs=30, steps_per_epoch=150),
        # 3000 train items / 10 sources = 300 each, ceil(300 / 64) = 5
        Workload("mnist_shaped", _mnist_shaped, epochs=16, steps_per_epoch=50),
        # 1800 train items / 40 sources = 45 each, ceil(45 / 4) = 12
        Workload("many_sources", _many_sources, epochs=12, steps_per_epoch=480),
    )
}
