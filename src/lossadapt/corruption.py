"""Seeded data-corruption modes and source assignment.

Seven corruption modes cover the usual ways a data provider goes bad:

    original               identity, the reliable baseline
    chunk_shuffle          each affected input is cut into chunks which are
                           then permuted (structure destroyed, values kept)
    random_label           affected labels replaced by uniform draws from the
                           label domain
    batch_label_shuffle    the whole batch's label vector is permuted
    batch_label_flip       every label in the batch set to one label drawn
                           from the batch's own labels
    add_gaussian_noise     x += N(0, 1) per element
    replace_gaussian_noise x = N(0, 1) per element (missing-data stand-in)

``corruption_rate`` is the probability a given batch is corrupted for the two
batch_* modes, and the per-observation Bernoulli probability for the rest.
Rate 0 always degenerates to identity. All functions are pure: they take an
explicit rng and never mutate their input arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

ORIGINAL = "original"
CHUNK_SHUFFLE = "chunk_shuffle"
RANDOM_LABEL = "random_label"
BATCH_LABEL_SHUFFLE = "batch_label_shuffle"
BATCH_LABEL_FLIP = "batch_label_flip"
ADD_GAUSSIAN_NOISE = "add_gaussian_noise"
REPLACE_GAUSSIAN_NOISE = "replace_gaussian_noise"

MODES = (
    ORIGINAL,
    CHUNK_SHUFFLE,
    RANDOM_LABEL,
    BATCH_LABEL_SHUFFLE,
    BATCH_LABEL_FLIP,
    ADD_GAUSSIAN_NOISE,
    REPLACE_GAUSSIAN_NOISE,
)

# whole-batch coin flip; everything else draws per observation
BATCH_LEVEL_MODES = (BATCH_LABEL_SHUFFLE, BATCH_LABEL_FLIP)
LABEL_MODES = (RANDOM_LABEL, BATCH_LABEL_SHUFFLE, BATCH_LABEL_FLIP)
FEATURE_MODES = (CHUNK_SHUFFLE, ADD_GAUSSIAN_NOISE, REPLACE_GAUSSIAN_NOISE)


@dataclass(frozen=True)
class CorruptionSpec:
    """What an unreliable source does to its data.

    ``n_chunks`` only matters for chunk_shuffle, which cuts each input along
    its feature axis. Noise modes use mean 0 and std 1, fixed.
    """

    mode: str = ORIGINAL
    corruption_rate: float = 1.0
    n_chunks: int = 4

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(
                f"sources.mode: {self.mode!r} is not one of {MODES}"
            )
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ConfigError(
                f"sources.corruption_rate must lie in [0, 1], "
                f"got {self.corruption_rate}"
            )
        if self.n_chunks < 1:
            raise ConfigError(
                f"sources.n_chunks must be >= 1, got {self.n_chunks}"
            )


@dataclass(frozen=True)
class SourcePlan:
    """A partition of dataset indices into sources, plus which sources are
    marked unreliable. Assignment covers every index exactly once."""

    n_sources: int
    corrupt_source_ids: frozenset[int]
    assignment: np.ndarray = field(repr=False)

    def items_of(self, source: int) -> np.ndarray:
        """Dataset indices belonging to ``source``."""
        return np.flatnonzero(self.assignment == source)


def split_into_sources(
    n_items: int,
    n_sources: int,
    rng: np.random.Generator,
    n_corrupt: int = 0,
) -> SourcePlan:
    """Randomly partition ``n_items`` indices into ``n_sources`` near-equal
    sources (sizes differ by at most 1) and draw ``n_corrupt`` of the sources
    to be the unreliable ones.
    """
    if n_sources < 2:
        raise ConfigError(f"n_sources must be >= 2, got {n_sources}")
    if n_sources > n_items:
        raise ConfigError(
            f"cannot split {n_items} items into {n_sources} sources"
        )
    if not 0 <= n_corrupt < n_sources:
        raise ConfigError(
            f"n_corrupt must lie in [0, n_sources), got {n_corrupt} "
            f"of {n_sources}"
        )
    perm = rng.permutation(n_items)
    assignment = np.empty(n_items, dtype=np.int64)
    assignment[perm] = np.arange(n_items) % n_sources
    corrupt = frozenset(
        int(s) for s in rng.choice(n_sources, size=n_corrupt, replace=False)
    )
    return SourcePlan(
        n_sources=n_sources,
        corrupt_source_ids=corrupt,
        assignment=assignment,
    )


def check_chunks_fit(n_chunks: int, n_features: int) -> None:
    """Refuse to cut an input of ``n_features`` into more chunks than that."""
    if n_chunks > n_features:
        raise ConfigError(
            f"sources.n_chunks {n_chunks} exceeds the {n_features} "
            "features of an input"
        )


def _shuffle_chunks(x_item: np.ndarray, spec: CorruptionSpec,
                    rng: np.random.Generator) -> np.ndarray:
    check_chunks_fit(spec.n_chunks, len(x_item))
    chunks = np.array_split(x_item, spec.n_chunks)
    order = rng.permutation(spec.n_chunks)
    return np.concatenate([chunks[i] for i in order])


def apply_corruption(
    x: np.ndarray,
    y: np.ndarray,
    spec: CorruptionSpec,
    label_domain: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Return a copy of the batch ``(x, y)`` corrupted per ``spec.mode`` at
    ``spec.corruption_rate``.

    Label modes leave features untouched and feature modes leave labels
    untouched. The input is never modified: the array a mode writes is
    always a new one, and the array it leaves alone is the input's own, not a
    copy. Identity (``original``, or rate 0) returns copies of both. The
    loss that reads the labels checks their range, so this does not.
    """
    n = len(y)
    if n == 0:
        raise DataError("cannot corrupt an empty batch")
    mode, rate = spec.mode, spec.corruption_rate
    if mode == ORIGINAL or rate == 0.0:
        return x.copy(), y.copy()
    if mode in LABEL_MODES:
        y = y.copy()
    else:
        x = x.copy()

    if mode in BATCH_LEVEL_MODES:
        if rng.random() >= rate:
            return x, y
        if mode == BATCH_LABEL_SHUFFLE:
            y = y[rng.permutation(n)]
        else:  # one label from the batch's own labels, applied to all
            y[:] = y[rng.integers(n)]
        return x, y

    hit = (rng.random(n) < rate).nonzero()[0]
    if mode == RANDOM_LABEL:
        y[hit] = rng.integers(0, label_domain, size=len(hit))
    elif mode == CHUNK_SHUFFLE:
        for i in hit:
            x[i] = _shuffle_chunks(x[i], spec, rng)
    elif mode == ADD_GAUSSIAN_NOISE:
        x[hit] += rng.normal(0.0, 1.0, size=x[hit].shape)
    elif mode == REPLACE_GAUSSIAN_NOISE:
        x[hit] = rng.normal(0.0, 1.0, size=x[hit].shape)
    return x, y
