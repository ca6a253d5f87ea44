"""First-order optimizers plus the source-aware wrapper.

``SGD`` and ``Adam`` update a :class:`~lossadapt.models.ParameterSet` in
place from a congruent gradient set. ``LapOptimizer`` wraps either one: each
step it records the batch loss into the source registry, looks up the
recording source's depression, scales the raw gradients by (1 - depression),
and hands them to the inner optimizer. Scaling happens before the inner rule
sees the gradients, so Adam's moment estimates accumulate the attenuated
values rather than being bypassed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .models import GradientSet, ParameterSet, check_congruent
from .trust import SourceRegistry, scale_gradients


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    With momentum m > 0 keeps one velocity buffer per parameter:
    v = m*v + g; p -= lr*v. Weight decay adds wd*p to the gradient first.
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
        self._velocity: list[np.ndarray] | None = None

    def step(self, params: ParameterSet, grads: GradientSet) -> None:
        check_congruent(params, grads)
        gs = grads.arrays
        if self.weight_decay > 0.0:
            gs = [g + self.weight_decay * p for g, p in zip(gs, params.arrays)]
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = [np.zeros_like(p) for p in params.arrays]
            for v, g, p in zip(self._velocity, gs, params.arrays):
                v *= self.momentum
                v += g
                p -= self.learning_rate * v
        else:
            for g, p in zip(gs, params.arrays):
                p -= self.learning_rate * g


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
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, params: ParameterSet, grads: GradientSet) -> None:
        check_congruent(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params.arrays]
            self._v = [np.zeros_like(p) for p in params.arrays]
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for m, v, g, p in zip(self._m, self._v, grads.arrays, params.arrays):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)


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
