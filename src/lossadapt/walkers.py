"""Ensemble random-walk model of the distrust update.

Strips the trust mechanism down to its core: a walker's "loss" is a draw
from N(shift, 1) against reference statistics fixed at mean 0, std 1,
so distrust steps +1 when the draw exceeds the leniency and -1 otherwise,
clamped at 0. Sweeping leniency for ensembles of walkers maps out how the
per-step exceedance probability 1 - Phi(leniency - shift) turns into
long-run distrust and depression.

Each walker draws one sample path from its own derived stream and every
leniency in the grid is evaluated against the same paths. Sharing paths
keeps the sweep deterministic under any parallel schedule and makes mean
distrust exactly non-increasing in leniency sample-by-sample, since raising
the threshold can only turn +1 steps into -1 steps.

The clamped walk is computed in closed form from cumulative sums:
R_t = C_t - min(0, min_{j<=t} C_j) with C the unclamped partial sums.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import child_rng
from .trust import depression_value

WALKER_CSV_COLUMNS = ("leniency", "mean_shift", "mean_distrust", "mean_depression")
# n_walkers * n_steps: each leniency's buffers hold about 58 bytes per cell,
# so the bound is about 0.6 GB; the default ensemble is 10**6 cells
MAX_CELLS = 10**7


@dataclass(frozen=True)
class WalkerConfig:
    """One ensemble per loss-mean shift, each swept over a leniency grid;
    ``walkers.csv`` lands in ``output_dir`` when that is set."""

    mean_shifts: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    n_walkers: int = 100
    n_steps: int = 10_000
    leniencies: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 3.0)
    depression_strength: float = 1.0
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        for key in ("mean_shifts", "leniencies"):
            object.__setattr__(self, key, tuple(map(float, getattr(self, key))))
        if self.n_walkers < 1:
            raise ConfigError(f"n_walkers must be >= 1, got {self.n_walkers}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_walkers * self.n_steps > MAX_CELLS:
            raise ConfigError(
                f"n_walkers * n_steps must be <= {MAX_CELLS}, got "
                f"{self.n_walkers} * {self.n_steps}"
            )
        if len(self.leniencies) == 0:
            raise ConfigError("leniencies grid must be nonempty")
        if any(math.isnan(v) for v in self.leniencies):
            raise ConfigError(f"leniencies contain NaN: {self.leniencies}")
        if not self.mean_shifts or not all(map(math.isfinite, self.mean_shifts)):
            raise ConfigError(f"mean_shifts must be a nonempty list of finite "
                              f"values, got {self.mean_shifts}")
        if not self.depression_strength > 0:
            raise ConfigError(
                f"depression_strength must be > 0, got {self.depression_strength}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.output_dir == "":
            raise ConfigError("output_dir must be a path or null, not ''")


@dataclass(frozen=True)
class WalkerRow:
    """Ensemble summary at one (leniency, shift) grid point.

    ``mean_distrust``/``mean_depression`` average the final-step values over
    walkers.
    """

    leniency: float
    mean_shift: float
    mean_distrust: float
    mean_depression: float


def clamped_walk(steps: np.ndarray) -> np.ndarray:
    """Trajectory of R_t = max(R_{t-1} + step_t, 0), R_0 = 0, vectorized
    along the last axis via the prefix-minimum identity."""
    c = np.cumsum(steps, axis=-1)
    running_min = np.minimum.accumulate(c, axis=-1)
    return c - np.minimum(running_min, 0)


def expected_increment_probability(leniency: float, mean_shift: float) -> float:
    """P[N(shift, 1) > leniency] = 1 - Phi(leniency - shift)."""
    return 0.5 * math.erfc((leniency - mean_shift) / math.sqrt(2.0))


def simulate_walkers(config: WalkerConfig) -> list[WalkerRow]:
    """Run one ensemble per shift, in order, and summarize each leniency grid
    point; walker ``w`` draws from the same stream under every shift."""
    samples = np.empty((config.n_walkers, config.n_steps))
    rows = []
    for shift in config.mean_shifts:
        for w in range(config.n_walkers):
            samples[w] = child_rng(config.seed, w).normal(shift, 1.0, config.n_steps)
        for lam in config.leniencies:
            steps = np.where(samples > lam, 1, -1)
            final_r = clamped_walk(steps)[:, -1].astype(np.float64)
            final_d = np.array(
                [depression_value(r, config.depression_strength) for r in final_r]
            )
            rows.append(
                WalkerRow(
                    leniency=float(lam),
                    mean_shift=shift,
                    mean_distrust=float(final_r.mean()),
                    mean_depression=float(final_d.mean()),
                )
            )
    return rows


def write_walker_csv(rows: list[WalkerRow], path) -> None:
    """Plot-ready CSV, one row per (shift, leniency) grid point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WALKER_CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    f"{row.leniency:g}",
                    f"{row.mean_shift:g}",
                    f"{row.mean_distrust:.6f}",
                    f"{row.mean_depression:.6f}",
                ]
            )
