"""First-order optimizers plus the source-aware wrapper.

``SGD`` and ``Adam`` update a :class:`~lossadapt.models.ParameterSet` in
place from a congruent gradient set. Both run on the sets' ``flat`` vectors,
a block of :data:`CHUNK` values at a time: every operation of the update
rule runs over one block, into preallocated block-sized scratch, before the
next block starts, so the working set stays in cache and no step allocates
temporary arrays.
The floating-point operations and their order are those of the textbook
per-array rule, so the updates are bit-identical to it. Optimizer state
(momentum, moments) is one vector of the same layout.

``LapOptimizer`` wraps either one: each step it records the batch loss into
the source registry, looks up the recording source's depression, scales the
raw gradients by (1 - depression), and hands them to the inner optimizer.
Scaling happens before the inner rule sees the gradients, so Adam's moment
estimates accumulate the attenuated values rather than being bypassed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .models import GradientSet, ParameterSet, check_congruent
from .trust import SourceRegistry, scale_gradients

# Values per block of the fused update loops. Adam touches six blocks per
# pass (parameters, gradients, two moments, two scratch): 6 x 128 KiB, which
# fits in a 1-2 MiB per-core L2 cache.
CHUNK = 16384


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    With momentum m > 0 keeps a velocity vector: v = m*v + g; p -= lr*v.
    Weight decay adds wd*p to the gradient first.
    """

    def __init__(self, learning_rate: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        if not learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def step(self, params: ParameterSet, grads: GradientSet) -> None:
        check_congruent(params, grads)
        p, g = params.flat, grads.flat
        if self._scratch is None:
            self._scratch = np.empty(min(p.size, CHUNK))
            if self.momentum > 0.0:
                self._velocity = np.zeros_like(p)
        lr, momentum, decay = self.learning_rate, self.momentum, self.weight_decay
        for start in range(0, p.size, CHUNK):
            stop = start + CHUNK
            pc, gc = p[start:stop], g[start:stop]
            tmp = self._scratch[: pc.size]
            if decay > 0.0:
                np.multiply(pc, decay, out=tmp)
                tmp += gc
                gc = tmp
            if momentum > 0.0:
                vc = self._velocity[start:stop]
                vc *= momentum
                vc += gc
                np.multiply(vc, lr, out=tmp)
            else:
                np.multiply(gc, lr, out=tmp)
            pc -= tmp


class Adam:
    """Adam with bias-corrected first and second moment estimates.

    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g²;  t += 1
    p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """

    def __init__(self, learning_rate: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0:
            raise ConfigError(f"beta1 must lie in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"beta2 must lie in [0, 1), got {beta2}")
        if not eps > 0:
            raise ConfigError(f"eps must be > 0, got {eps}")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._flat_m: np.ndarray | None = None
        self._flat_v: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def step(self, params: ParameterSet, grads: GradientSet) -> None:
        check_congruent(params, grads)
        p, g = params.flat, grads.flat
        if self._flat_m is None:
            self._flat_m, self._flat_v = np.zeros_like(p), np.zeros_like(p)
            self._scratch = np.empty((2, min(p.size, CHUNK)))
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.learning_rate, self.eps
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for start in range(0, p.size, CHUNK):
            stop = start + CHUNK
            pc, gc = p[start:stop], g[start:stop]
            mc, vc = self._flat_m[start:stop], self._flat_v[start:stop]
            num, den = self._scratch[:, : pc.size]
            mc *= b1
            np.multiply(gc, 1.0 - b1, out=num)
            mc += num
            vc *= b2
            np.multiply(gc, 1.0 - b2, out=num)
            num *= gc
            vc += num
            np.divide(mc, c1, out=num)
            num *= lr
            np.divide(vc, c2, out=den)
            np.sqrt(den, out=den)
            den += eps
            num /= den
            pc -= num


class LapOptimizer:
    """Source-aware wrapper around a base optimizer.

    ``step`` takes the batch loss and the integer id of the source the batch
    came from. The loss is recorded into the registry (driving that source's
    distrust walk), the source's current depression d is read back, gradients
    are scaled by (1 - d), and the inner optimizer applies its usual rule to
    the scaled gradients.

    With ``enabled=False`` the wrapper still records losses, so distrust
    walks exactly as it would with the wrapper on, but it always applies
    unscaled gradients; this is the switch a baseline run flips.
    """

    def __init__(self, inner, registry: SourceRegistry, enabled: bool = True):
        self.inner = inner
        self.registry = registry
        self.enabled = bool(enabled)

    def step(self, params: ParameterSet, grads: GradientSet, loss: float,
             source: int) -> float:
        """Run one update; returns the gradient scale that was applied."""
        self.registry.record_loss(source, loss)
        d = self.registry.depression(source) if self.enabled else 0.0
        if d > 0.0:
            grads = scale_gradients(grads, d)
        self.inner.step(params, grads)
        return 1.0 - d

    @property
    def depression_applied(self) -> bool:
        """Whether ``step`` scales gradients now: the wrapper is enabled and
        the registry is past warm-up and hold-off."""
        return self.enabled and self.registry.depression_active

    def snapshot(self) -> list[tuple[int, float, float]]:
        """The registry's (source_id, distrust, gradient_scale) rows, with
        the scale this wrapper applies: 1.0 for every source while disabled."""
        rows = self.registry.snapshot()
        if self.enabled:
            return rows
        return [(s, distrust, 1.0) for s, distrust, _ in rows]
