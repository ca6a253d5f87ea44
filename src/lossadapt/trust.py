"""Per-source trust tracking and gradient depression.

Each registered source keeps a ring buffer of its last ``history_length``
training losses and a non-negative distrust level. Every time a loss is
recorded for a source, and all buffers are full, that source's recent mean
loss is compared against a weighted mean/std of every *other* source's cached
losses, where a source's entries are weighted 1/(1 + distrust) so that
already-distrusted sources influence the reference statistics less. The
comparison steps distrust by ±1 (a clamped random walk):

    distrust += -1  if mean_own < mean_others + leniency * std_others
    distrust += +1  otherwise, then clamp distrust at 0.

Distrust converts to a gradient attenuation ("depression")

    d = tanh²(0.005 * depression_strength * distrust),    0 <= d < 1,

and gradients for that source's batches are scaled by (1 - d), so updates
from sources whose losses run persistently high are progressively frozen out
while everyone else trains normally. A source whose losses return to normal
walks its distrust back down and regains full plasticity.

Depression stays 0 during warm-up (until every buffer is full) and for the
first ``hold_off`` steps afterwards; losses are recorded throughout.

The registry keeps each source's weight 1/(1 + distrust) beside its distrust,
refreshed whenever ``update_distrust`` writes a level. The peer statistics
take two passes over the peers' histories, which are gathered into scratch
the registry allocates once; the weighted products are formed in place there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, StateError, UnknownSourceError
from .models import GradientSet

# Fixed internal scale applied to depression_strength inside the tanh; with
# the default strength of 1.0 a distrust on the order of 1000 drives the
# gradient scale 1 - d to ~0.
DEPRESSION_SCALE = 0.005


@dataclass(frozen=True)
class LapParams:
    """Hyperparameter surface of the trust mechanism.

    leniency            threshold multiplier on the reference std; larger
                        values make it less likely a well-behaved source is
                        penalized.
    depression_strength rate at which distrust converts to depression.
    history_length      losses cached per source.
    hold_off            optimizer steps after all histories fill before
                        depression activates (distrust still updates).
    """

    leniency: float = 0.8
    depression_strength: float = 1.0
    history_length: int = 25
    hold_off: int = 0

    def __post_init__(self):
        if not self.leniency > 0:
            raise ConfigError(f"lap.leniency must be > 0, got {self.leniency}")
        if not self.depression_strength > 0:
            raise ConfigError(
                f"lap.depression_strength must be > 0, got {self.depression_strength}"
            )
        if self.history_length < 2:
            raise ConfigError(
                f"lap.history_length must be >= 2, got {self.history_length}"
            )
        if self.hold_off < 0:
            raise ConfigError(f"lap.hold_off must be >= 0, got {self.hold_off}")


def depression_value(distrust: float, depression_strength: float) -> float:
    """tanh²(0.005 * strength * distrust); increasing in distrust, bounded in
    [0, 1). Clamped below 1.0 where float tanh saturates, so the resulting
    gradient scale never reaches exactly zero."""
    t = math.tanh(DEPRESSION_SCALE * depression_strength * distrust)
    return min(t * t, math.nextafter(1.0, 0.0))


class SourceRegistry:
    """Loss histories plus distrust levels for a fixed set of sources.

    The registry is the algorithm's entire mutable state. It is single-writer:
    one training loop owns it and calls :meth:`record_loss` once per optimizer
    step with the stepping source's pre-depression loss.
    """

    def __init__(self, source_ids, params: LapParams | None = None):
        self.params = params or LapParams()
        ids = [int(s) for s in source_ids]
        if len(ids) == 0:
            raise ConfigError("registry needs at least one source")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate source ids in {ids}")
        if min(ids) < 0:
            raise ConfigError("source ids must be non-negative")
        self._ids = tuple(ids)
        self._row = {s: i for i, s in enumerate(ids)}
        h = self.params.history_length
        n = len(ids)
        self._losses = np.zeros((n, h))
        # ring-buffer bookkeeping as Python ints: numpy scalar arithmetic
        # costs more than the update it serves
        self._counts = [0] * n
        self._next = [0] * n
        self._distrust = np.zeros(n)
        self._distrust_view = self._distrust.view()
        self._distrust_view.flags.writeable = False
        # 1 / (1 + distrust) per source; _set_level writes both arrays
        self._weights = np.ones(n)
        # each row's peers, in row order, for the reference statistics, and
        # scratch the statistics gather the peers' losses into
        self._peers = [
            np.array([j for j in range(n) if j != row], dtype=np.intp)
            for row in range(n)
        ]
        self._peer_losses = np.empty((n - 1, h))
        self._peer_products = np.empty((n - 1, h))
        # latched by record_loss when the last history fills; never unset
        self.all_full = False
        self.steps_since_full = 0

    # -- bookkeeping ------------------------------------------------------

    @property
    def source_ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def n_sources(self) -> int:
        return len(self._ids)

    def _require(self, source: int) -> int:
        try:
            return self._row[source]
        except KeyError:
            raise UnknownSourceError(
                f"source {source} is not registered (known: {self._ids})"
            ) from None

    @property
    def distrust_levels(self) -> np.ndarray:
        """Every source's distrust, in registration order, as a read-only
        view that follows the registry's updates."""
        return self._distrust_view

    def _set_level(self, row: int, level: float) -> None:
        self._distrust[row] = level
        self._weights[row] = 1.0 / (1.0 + level)

    # -- the update step --------------------------------------------------

    def record_loss(self, source: int, loss: float) -> None:
        """Append a loss to ``source``'s history; once every history is full,
        also update that source's distrust.

        Call with the pre-depression forward-pass loss: depression alters
        gradients, never the recorded loss.
        """
        row = self._require(source)
        loss = float(loss)
        if not math.isfinite(loss):
            raise DataError(f"loss for source {source} is not finite: {loss}")
        h = self.params.history_length
        nxt = self._next[row]
        self._losses[row, nxt] = loss
        self._next[row] = (nxt + 1) % h
        if self.all_full:
            self.steps_since_full += 1
        elif self._counts[row] < h:
            self._counts[row] += 1
            if self._counts[row] == h:
                self.all_full = all(c == h for c in self._counts)
        # a lone source has no reference statistics; its distrust stays 0
        if self.all_full and self.n_sources >= 2:
            self.update_distrust(source)

    def weighted_other_stats(self, source: int) -> tuple[float, float]:
        """Weighted mean and std of all cached losses of every other source.

        Each entry of source s is weighted 1/(1 + distrust_s); the mean is a
        convex combination of loss values (weights normalized over all
        (source, step) entries).
        """
        row = self._require(source)
        if self.n_sources < 2:
            raise ConfigError(
                "reference statistics need at least 2 sources; registry has 1"
            )
        if not self.all_full:
            raise StateError("all histories must be full before computing stats")
        peers = self._peers[row]
        weights = self._weights[peers]
        # the indices are the registry's own, so "clip" never clips; it lets
        # take write straight into out= instead of through a buffer
        losses = self._losses.take(peers, axis=0, out=self._peer_losses,
                                   mode="clip")
        products = self._peer_products
        denom = self.params.history_length * np.add.reduce(weights)
        column = weights[:, None]
        np.multiply(column, losses, out=products)
        mean = float(np.add.reduce(products, axis=None) / denom)
        dev = np.subtract(losses, mean, out=losses)
        np.multiply(column, dev, out=products)
        products *= dev
        var = float(np.add.reduce(products, axis=None) / denom)
        return mean, math.sqrt(max(var, 0.0))

    def source_mean(self, source: int) -> float:
        """Arithmetic mean of the source's full history."""
        row = self._require(source)
        h = self.params.history_length
        if self._counts[row] < h:
            raise StateError(
                f"history for source {source} holds {self._counts[row]} of "
                f"{h} entries"
            )
        # np.mean's own operations: the sum, then a true divide by the count
        return float(np.add.reduce(self._losses[row]) / h)

    def update_distrust(self, source: int) -> float:
        """One ±1 distrust step for ``source`` against the other sources'
        weighted statistics; returns the new level.

        ``record_loss`` calls this automatically once histories are full;
        call it directly only when driving the registry by hand.
        """
        row = self._require(source)
        mean_others, std_others = self.weighted_other_stats(source)
        mean_own = self.source_mean(source)
        level = float(self._distrust[row])
        if mean_own < mean_others + self.params.leniency * std_others:
            level = max(level - 1.0, 0.0)
        else:
            level += 1.0
        self._set_level(row, level)
        return level

    # -- depression -------------------------------------------------------

    @property
    def depression_active(self) -> bool:
        return self.all_full and self.steps_since_full >= self.params.hold_off

    def depression(self, source: int) -> float:
        """Gradient attenuation for ``source`` in [0, 1); 0 during warm-up
        and hold-off."""
        row = self._require(source)
        if not self.depression_active:
            return 0.0
        return depression_value(
            float(self._distrust[row]), self.params.depression_strength
        )

    def snapshot(self) -> dict[int, float]:
        """Every source's distrust, by source id. The scale a run applied is
        its trace's: :meth:`experiment.Trace.final_and_lowest_scales`."""
        return dict(zip(self._ids, self._distrust.tolist()))


def scale_gradients(grads: GradientSet, depression: float) -> GradientSet:
    """Scale every gradient entry by (1 - depression).

    ``depression`` must lie in [0, 1), so gradients are only ever reduced or
    maintained, never flipped or amplified.
    """
    if not 0.0 <= depression < 1.0:
        raise ValueError(f"depression must lie in [0, 1), got {depression}")
    scale = 1.0 - depression
    return grads.with_flat(scale * grads.flat)
