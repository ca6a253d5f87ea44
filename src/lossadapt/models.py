"""Dense differentiable models: MLPs, with multinomial logistic regression as
the one-layer case.

Everything is float64 and built on 2-D row-major numpy arrays. Parameters and
gradients live in :class:`ParameterSet`: one contiguous vector ``flat`` with
an ordered, named list of reshaped views into it (``arrays``). The layout,
each parameter's shape and offset, is computed once per model and shared by
the parameters and every gradient set, so optimizers work on whole vectors
and layers on matrices; the views are built on first use, so a set that is
only ever read through ``flat`` never builds them.

One forward pass serves evaluation and training: each layer computes
``z = h @ w``, adds the bias and activates ``z`` in place, so only the
activations are kept. Evaluation takes its input :data:`FORWARD_BLOCK`
rows at a time. The backward pass reads the activation derivative off the
activations (ReLU: ``act > 0``; tanh: ``1 - act²``) and writes each call's
gradients into a new vector of the parameters' layout. It is hand-derived
for the dense/relu/softmax stack; no general autodiff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError

_ACTIVATIONS = ("relu", "tanh")
# rows taken at a time by forward: its activations depend on this and the
# layer widths, not on the number of rows
FORWARD_BLOCK = 512


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description.

    ``layer_widths`` runs from the feature dimension to the class count, so a
    3-layer MLP on 784 features with 10 classes is ``[784, 256, 128, 10]``.
    Two widths, ``[features, classes]``, is multinomial logistic regression.
    """

    layer_widths: tuple[int, ...] = (784, 256, 128, 10)
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(
            self, "layer_widths", tuple(int(w) for w in self.layer_widths)
        )
        if len(self.layer_widths) < 2:
            raise ConfigError("model.layer_widths: need at least [features, classes]")
        if any(int(w) <= 0 for w in self.layer_widths):
            raise ConfigError(f"model.layer_widths: zero-width layer in {self.layer_widths}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(
                f"model.activation: {self.activation!r} not in {_ACTIVATIONS}"
            )

    @property
    def n_features(self) -> int:
        return int(self.layer_widths[0])

    @property
    def n_classes(self) -> int:
        return int(self.layer_widths[-1])

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1


class _Layout:
    """Shapes of a parameter list and the slice of the flat vector each one
    occupies. Computed once per model: every set derived with
    :meth:`ParameterSet.with_flat` shares the object, so their congruence
    check is an identity test."""

    def __init__(self, shapes: list[tuple[int, ...]]):
        self.shapes = [tuple(int(d) for d in shape) for shape in shapes]
        self.bounds: list[tuple[int, int]] = []
        end = 0
        for shape in self.shapes:
            start, end = end, end + math.prod(shape)
            self.bounds.append((start, end))
        self.size = end

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """One reshaped view of ``flat`` per parameter, in order."""
        return [
            flat[start:end].reshape(shape)
            for (start, end), shape in zip(self.bounds, self.shapes)
        ]


class ParameterSet:
    """Ordered, named collection of float64 matrices stored in one vector.

    Order is fixed at construction (``w0, b0, w1, b1, ...``) and is the
    contract between models and optimizers. ``flat`` is one contiguous
    float64 vector holding every entry in that order, and ``arrays`` are
    reshaped views into it, built on first access, so a write through either
    shows in both. The constructor copies the caller's arrays into a new
    vector. The same container carries gradients; see :data:`GradientSet`.
    """

    def __init__(self, names, arrays):
        layout = _Layout([np.shape(a) for a in arrays])
        self._bind(tuple(names), layout, np.empty(layout.size))
        for view, a in zip(self.arrays, arrays):
            view[...] = a

    def _bind(self, names: tuple[str, ...], layout: _Layout,
              flat: np.ndarray) -> None:
        self.names = names
        self._layout = layout
        self.flat = flat
        self._arrays: list[np.ndarray] | None = None

    @property
    def arrays(self) -> list[np.ndarray]:
        if self._arrays is None:
            self._arrays = self._layout.views(self.flat)
        return self._arrays

    def with_flat(self, flat: np.ndarray) -> "ParameterSet":
        """A set with these names and this layout whose values live in
        ``flat`` itself, not in a copy of it."""
        out = object.__new__(ParameterSet)
        out._bind(self.names, self._layout, flat)
        return out

    def __len__(self) -> int:
        return len(self.names)

    def copy(self) -> "ParameterSet":
        return self.with_flat(self.flat.copy())

    def shapes(self) -> list[tuple[int, ...]]:
        return list(self._layout.shapes)


# Gradients use the same container as parameters, shape-congruent entry by
# entry and in the same order.
GradientSet = ParameterSet


def check_congruent(params: ParameterSet, grads: GradientSet) -> None:
    """Raise ShapeError unless grads matches params entry for entry."""
    if grads._layout is params._layout:
        return
    if params.shapes() != grads.shapes():
        raise ShapeError(
            f"gradient shapes {grads.shapes()} do not match parameter shapes "
            f"{params.shapes()}"
        )


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericError(f"{what} contains non-finite values")
    return a


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParameterSet:
    """Initialize parameters for ``spec``.

    Weights are uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)); biases
    are zero rows. Drawing order is layer by layer, so a fixed seed gives
    bit-identical parameters on every call.
    """
    names: list[str] = []
    shapes: list[tuple[int, int]] = []
    fans = list(zip(spec.layer_widths[:-1], spec.layer_widths[1:]))
    for i, (fan_in, fan_out) in enumerate(fans):
        names += [f"w{i}", f"b{i}"]
        shapes += [(fan_in, fan_out), (1, fan_out)]
    layout = _Layout(shapes)
    params = object.__new__(ParameterSet)
    params._bind(tuple(names), layout, np.zeros(layout.size))
    # each weight is drawn straight into its view of the flat vector, as
    # Generator.uniform(-a, a) computes it: low + (high - low) * u
    for w, (fan_in, fan_out) in zip(params.arrays[::2], fans):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        rng.random(out=w)
        w *= a - (-a)
        w += -a
    return params


def _check_input(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.n_features:
        raise ShapeError(
            f"input has shape {x.shape}, model expects (*, {spec.n_features})"
        )
    return x


def _forward(params: ParameterSet, spec: ModelSpec,
             x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output, the input first and the logits last. Each layer
    computes ``z = h @ w``, adds the bias to ``z`` and activates it in place,
    so a hidden layer's pre-activation is never kept."""
    n_layers = spec.n_layers
    if len(params) != 2 * n_layers:
        raise ShapeError(
            f"parameter count {len(params)} does not match {n_layers}-layer model"
        )
    arrays = params.arrays
    relu = spec.activation == "relu"
    acts = [x]
    # divergence is reported as NumericError by the finite checks, not as
    # numpy overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_layers):
            w, b = arrays[2 * i], arrays[2 * i + 1]
            if w.shape != (spec.layer_widths[i], spec.layer_widths[i + 1]):
                raise ShapeError(
                    f"w{i} has shape {w.shape}, expected "
                    f"{(spec.layer_widths[i], spec.layer_widths[i + 1])}"
                )
            z = acts[i] @ w
            z += b
            if i < n_layers - 1:
                if relu:
                    np.maximum(z, 0.0, out=z)
                else:
                    np.tanh(z, out=z)
            acts.append(z)
    return acts


def forward(params: ParameterSet, spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Class logits for each input row; shape (n_rows, n_classes).

    The rows run through the model :data:`FORWARD_BLOCK` at a time. No block
    has one row unless the input has: numpy sends a one-row product to gemv,
    whose sums can differ from gemm's in the last bit, so a lone last row
    joins the block before it."""
    x = _check_input(spec, x)
    n = len(x)
    cuts = list(range(FORWARD_BLOCK, n, FORWARD_BLOCK))
    if cuts and n - cuts[-1] == 1:
        cuts.pop()
    bounds = [0, *cuts, n]
    logits = np.empty((n, spec.n_classes))
    for start, stop in zip(bounds, bounds[1:]):
        logits[start:stop] = _forward(params, spec, x[start:stop])[-1]
    return _require_finite(logits, "logits")


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stabilized by max subtraction."""
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    total = np.add.reduce(np.exp(shifted), axis=1, keepdims=True)
    shifted -= np.log(total, out=total)
    return shifted


def _label_entries(n_classes: int, y: np.ndarray) -> np.ndarray:
    """Flat index of each row's label entry in a C-contiguous
    (len(y), n_classes) array."""
    return np.arange(0, len(y) * n_classes, n_classes) + y


def _mean_nll(logp: np.ndarray, entries: np.ndarray) -> float:
    """Mean of ``-logp`` at the flat indices ``entries``: the sum divided by
    the count, which is what ``np.mean`` computes."""
    return float(-(np.add.reduce(logp.ravel()[entries]) / len(entries)))


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels ``y`` under ``logits``."""
    y = _check_labels(y, logits.shape[1])
    return _mean_nll(log_softmax(logits), _label_entries(logits.shape[1], y))


def _check_labels(y: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise ShapeError(f"labels must be a 1-D vector, got shape {y.shape}")
    if y.dtype.kind not in "iu":
        raise DataError(f"labels must be integers, got dtype {y.dtype}")
    # viewed as unsigned, a negative label wraps to 2**(bits - 1) or above,
    # past every non-negative label, so one maximum tests both ends
    bound = n_classes
    if y.dtype.kind == "i":
        bound = min(bound, 1 << (8 * y.dtype.itemsize - 1))
    unsigned = y.view(y.dtype.str.replace("i", "u"))
    if len(y) and np.maximum.reduce(unsigned) >= bound:
        raise DataError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    return y.astype(np.int64, copy=False)


def loss_and_backward(
    params: ParameterSet, spec: ModelSpec, x: np.ndarray, y: np.ndarray
) -> tuple[float, GradientSet]:
    """Mean cross-entropy of ``(x, y)`` and its gradient w.r.t. every parameter.

    The softmax is applied internally, so the model's forward output stays in
    logit space. Returned gradients are shape-congruent with ``params``.
    """
    x = _check_input(spec, x)
    y = _check_labels(y, spec.n_classes)
    n = x.shape[0]
    if n != y.shape[0]:
        raise ShapeError(f"batch has {n} rows but {y.shape[0]} labels")
    if n == 0:
        raise DataError("empty batch")

    acts = _forward(params, spec, x)
    logp = log_softmax(_require_finite(acts[-1], "logits"))
    entries = _label_entries(spec.n_classes, y)
    loss = _mean_nll(logp, entries)
    if not math.isfinite(loss):
        raise NumericError("loss is non-finite")

    # d loss / d logits = (softmax - onehot) / n
    delta = np.exp(logp, out=logp)
    # the logits come from a matmul, so logp is C-contiguous and ravel() a view
    delta.ravel()[entries] -= 1.0
    delta /= n

    arrays = params.arrays
    relu = spec.activation == "relu"
    # a new vector per call, so gradients already handed out stay intact
    grads = params.with_flat(np.empty(params.flat.size))
    out = grads.arrays
    for i in range(spec.n_layers - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=out[2 * i])
        np.add.reduce(delta, axis=0, keepdims=True, out=out[2 * i + 1])
        if i > 0:
            delta = delta @ arrays[2 * i].T
            if relu:
                delta *= acts[i] > 0.0
            else:
                delta *= 1.0 - acts[i] * acts[i]
    return loss, grads


def evaluate(
    params: ParameterSet, spec: ModelSpec, x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) of the model on ``(x, y)``."""
    logits = forward(params, spec, x)
    loss = cross_entropy(logits, y)
    accuracy = float((logits.argmax(axis=1) == y).mean())
    return loss, accuracy
