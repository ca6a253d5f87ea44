"""First-order optimizers plus the source-aware wrapper.

``SGD`` and ``Adam`` update a :class:`~lossadapt.models.ParameterSet` in
place from a congruent gradient set. Both run on the sets' ``flat`` vectors,
a block of :data:`CHUNK` values at a time: every operation of the update
rule runs over one block, into preallocated block-sized scratch, before the
next block starts, so the working set stays in cache and no step allocates
temporary arrays.
A vector long enough to give every span at least two blocks is cut into one
contiguous span per CPU the process may use, and the spans run at the same
time, each with its own scratch: the calling thread takes the first, and a
pool of threads, made at the first such step, the rest (numpy's ufuncs
release the GIL). Every value still goes through the same operations in the
same order, whichever span holds it, so the outputs do not depend on the
number of CPUs.
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

import os

import numpy as np

from .errors import ConfigError
from .models import GradientSet, ParameterSet, check_congruent
from .trust import SourceRegistry, scale_gradients

# Values per block of the fused update loops. Adam touches six blocks per
# pass (parameters, gradients, two moments, two scratch): 6 x 256 KiB, which
# fits in a 2 MiB per-core L2 cache. Shorter blocks make each ufunc call so
# short that two spans spend the step handing the GIL back and forth.
CHUNK = 32768

# the threads that run every span but the first, as many as the first step
# that splits needs (a later step with more spans queues the extra ones); a
# forked child drops the pool, since its threads are not there
_pool = None


def _drop_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


class _FusedUpdate:
    """The span split shared by the fused optimizers: a subclass's
    ``_update(p, g, lo, hi, scratch)`` runs its block loop over
    ``p[lo:hi]`` and ``g[lo:hi]``, with scratch of ``_SCRATCH_SHAPE``
    followed by one block."""

    _SCRATCH_SHAPE: tuple[int, ...] = ()
    _scratch: tuple[np.ndarray, ...] = ()  # one array per span

    def _run(self, p: np.ndarray, g: np.ndarray) -> None:
        size = p.size
        # one span per CPU, but more than one only if each gets two blocks
        blocks = size // (2 * CHUNK)
        n = min(blocks, _cpu_count()) if blocks > 1 else 1
        if len(self._scratch) != n:
            shape = (*self._SCRATCH_SHAPE, min(size, CHUNK))
            self._scratch = tuple(np.empty(shape) for _ in range(n))
        if n == 1:
            self._update(p, g, 0, size, self._scratch[0])
            return
        from concurrent.futures import ThreadPoolExecutor, wait

        global _pool
        if _pool is None:
            _pool = ThreadPoolExecutor(n - 1, "lossadapt-span")
        edges = [size * i // n for i in range(n + 1)]
        futures = [
            _pool.submit(self._update, p, g, edges[i], edges[i + 1], self._scratch[i])
            for i in range(1, n)
        ]
        try:
            self._update(p, g, 0, edges[1], self._scratch[0])
        finally:
            # no span may still write p once the step returns or raises
            wait(futures)
        for future in futures:
            future.result()  # re-raises a worker's exception here


class SGD(_FusedUpdate):
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

    def step(self, params: ParameterSet, grads: GradientSet) -> None:
        check_congruent(params, grads)
        p, g = params.flat, grads.flat
        if self.momentum > 0.0 and self._velocity is None:
            self._velocity = np.zeros_like(p)
        self._run(p, g)

    def _update(self, p: np.ndarray, g: np.ndarray, lo: int, hi: int,
                scratch: np.ndarray) -> None:
        lr, momentum, decay = self.learning_rate, self.momentum, self.weight_decay
        for start in range(lo, hi, CHUNK):
            stop = min(start + CHUNK, hi)
            pc, gc = p[start:stop], g[start:stop]
            tmp = scratch[: pc.size]
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


class Adam(_FusedUpdate):
    """Adam with bias-corrected first and second moment estimates.

    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g²;  t += 1
    p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """

    _SCRATCH_SHAPE = (2,)  # numerator and denominator

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

    def step(self, params: ParameterSet, grads: GradientSet) -> None:
        check_congruent(params, grads)
        p, g = params.flat, grads.flat
        if self._flat_m is None:
            self._flat_m, self._flat_v = np.zeros_like(p), np.zeros_like(p)
        self.t += 1
        self._run(p, g)

    def _update(self, p: np.ndarray, g: np.ndarray, lo: int, hi: int,
                scratch: np.ndarray) -> None:
        b1, b2, lr, eps = self.beta1, self.beta2, self.learning_rate, self.eps
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for start in range(lo, hi, CHUNK):
            stop = min(start + CHUNK, hi)
            pc, gc = p[start:stop], g[start:stop]
            mc, vc = self._flat_m[start:stop], self._flat_v[start:stop]
            num, den = scratch[:, : pc.size]
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
