import math
import tracemalloc

import numpy as np
import pytest

from lossadapt import models
from lossadapt.errors import ConfigError, DataError, NumericError, ShapeError
from lossadapt.models import (
    FORWARD_BLOCK,
    GradientSet,
    ModelSpec,
    ParameterSet,
    check_congruent,
    cross_entropy,
    evaluate,
    forward,
    init_params,
    log_softmax,
    loss_and_backward,
)
from lossadapt.rng import make_rng

# the W1 model, the reference kernel's 784-feature model and a tanh model
BLOCKED_SHAPES = pytest.mark.parametrize(
    "widths, activation",
    [((2, 32, 32, 3), "relu"), ((784, 16, 10), "relu"), ((4, 3, 2), "tanh")],
    ids=["relu_w1", "relu_784", "tanh"],
)


def reference_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_activate(z, activation):
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def reference_activate_grad(z, activation):
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def reference_forward_cached(params, spec, x):
    """The forward pass as first written: pre-activations and activations
    kept as separate arrays."""
    n_layers = spec.n_layers
    pre, act = [], [x]
    h = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_layers):
            w, b = params.arrays[2 * i], params.arrays[2 * i + 1]
            z = h @ w + b
            pre.append(z)
            h = reference_activate(z, spec.activation) if i < n_layers - 1 else z
            act.append(h)
    return pre, act


def reference_loss_and_backward(params, spec, x, y):
    """Loss and gradients as first written, without the input checks: the
    reference the lean kernel must match bit for bit."""
    pre, act = reference_forward_cached(params, spec, x)
    logp = reference_log_softmax(act[-1])
    n = x.shape[0]
    loss = float(-logp[np.arange(n), y].mean())
    delta = np.exp(logp)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads = params.with_flat(np.empty(params.flat.size))
    for i in range(spec.n_layers - 1, -1, -1):
        np.matmul(act[i].T, delta, out=grads.arrays[2 * i])
        delta.sum(axis=0, keepdims=True, out=grads.arrays[2 * i + 1])
        if i > 0:
            delta = (delta @ params.arrays[2 * i].T) * reference_activate_grad(
                pre[i - 1], spec.activation
            )
    return loss, grads


def finite_difference_grads(params, spec, x, y, eps=1e-6):
    """Central differences on every parameter entry."""
    out = []
    for arr in params.arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = cross_entropy(forward(params, spec, x), y)
            arr[idx] = orig - eps
            lm = cross_entropy(forward(params, spec, x), y)
            arr[idx] = orig
            g[idx] = (lp - lm) / (2 * eps)
        out.append(g)
    return GradientSet(params.names, out)


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec()
        assert spec.layer_widths == (784, 256, 128, 10)
        assert spec.activation == "relu"
        assert spec.n_features == 784
        assert spec.n_classes == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"layer_widths": ()},
            {"layer_widths": (4,)},
            {"layer_widths": (4, -3, 2)},
            {"layer_widths": (4, 0, 2)},
            {"activation": "gelu"},
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ConfigError):
            ModelSpec(**kwargs)


class TestInit:
    def test_shapes_and_names(self):
        spec = ModelSpec(layer_widths=(4, 3, 2))
        params = init_params(spec, make_rng(0))
        assert params.names == ("w0", "b0", "w1", "b1")
        assert params.shapes() == [(4, 3), (1, 3), (3, 2), (1, 2)]
        np.testing.assert_array_equal(params.arrays[1], 0.0)
        np.testing.assert_array_equal(params.arrays[3], 0.0)

    def test_weight_range(self):
        spec = ModelSpec(layer_widths=(50, 40))
        params = init_params(spec, make_rng(0))
        bound = math.sqrt(6.0 / 90.0)
        w = params.arrays[0]
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound

    def test_deterministic(self):
        spec = ModelSpec(layer_widths=(6, 4, 2))
        a = init_params(spec, make_rng(123))
        b = init_params(spec, make_rng(123))
        for x, y in zip(a.arrays, b.arrays):
            np.testing.assert_array_equal(x, y)

    def test_copy_is_independent(self):
        spec = ModelSpec(layer_widths=(3, 2))
        params = init_params(spec, make_rng(0))
        dup = params.copy()
        dup.arrays[0][0, 0] = 99.0
        assert params.arrays[0][0, 0] != 99.0

    @pytest.mark.parametrize(
        "widths",
        [
            (2, 32, 32, 3),
            (784, 256, 128, 10),
            (5, 3),
        ],
        ids=["w1", "mnist_shaped", "logistic"],
    )
    def test_matches_uniform_draws_bit_for_bit(self, widths):
        # the construction as first written: one Generator.uniform matrix per
        # layer, then copied into the flat vector
        spec = ModelSpec(layer_widths=widths)
        for seed in (0, 1, 7):
            rng = make_rng(seed)
            names, arrays = [], []
            for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
                a = math.sqrt(6.0 / (fan_in + fan_out))
                names += [f"w{i}", f"b{i}"]
                arrays += [
                    rng.uniform(-a, a, size=(fan_in, fan_out)),
                    np.zeros((1, fan_out)),
                ]
            reference = ParameterSet(tuple(names), arrays)
            params = init_params(spec, make_rng(seed))
            assert params.names == reference.names
            assert params.shapes() == reference.shapes()
            np.testing.assert_array_equal(params.flat, reference.flat)


class TestLayout:
    def test_arrays_are_views_of_flat(self):
        params = init_params(ModelSpec(layer_widths=(4, 3, 2)), make_rng(0))
        assert params.flat.dtype == np.float64
        assert params.flat.flags.c_contiguous
        params.flat[:] = np.arange(params.flat.size)
        np.testing.assert_array_equal(
            np.concatenate([a.ravel() for a in params.arrays]), params.flat
        )
        params.arrays[2][1, 0] = -7.0
        assert -7.0 in params.flat

    def test_constructor_copies_callers_arrays(self):
        src = [np.ones((2, 3)), np.zeros((1, 3))]
        params = ParameterSet(("w0", "b0"), src)
        src[0][0, 0] = 5.0
        params.arrays[1][0, 0] = 9.0
        assert params.arrays[0][0, 0] == 1.0
        assert src[1][0, 0] == 0.0
        assert not any(np.shares_memory(a, params.flat) for a in src)

    def test_copy_has_its_own_flat(self):
        params = init_params(ModelSpec(layer_widths=(3, 2)), make_rng(0))
        before = params.flat.copy()
        dup = params.copy()
        dup.flat[:] = 99.0
        np.testing.assert_array_equal(params.flat, before)
        np.testing.assert_array_equal(dup.arrays[0], 99.0)

    def test_returned_gradients_survive_the_next_call(self):
        spec = ModelSpec(layer_widths=(4, 3, 2))
        rng = make_rng(3)
        params = init_params(spec, rng)
        first_batch = rng.normal(size=(5, 4)), rng.integers(0, 2, 5)
        second_batch = rng.normal(size=(5, 4)), rng.integers(0, 2, 5)
        _, first = loss_and_backward(params, spec, *first_batch)
        kept = first.flat.copy()
        _, second = loss_and_backward(params, spec, *second_batch)
        np.testing.assert_array_equal(first.flat, kept)
        assert not np.shares_memory(first.flat, second.flat)
        assert not np.array_equal(first.flat, second.flat)

    def test_congruence_compares_shapes_not_sizes(self):
        params = ParameterSet(("w0",), [np.ones((2, 3))])
        transposed = GradientSet(("w0",), [np.ones((3, 2))])
        with pytest.raises(ShapeError):
            check_congruent(params, transposed)


class TestForward:
    def test_hand_computed_logistic_regression(self):
        spec = ModelSpec(layer_widths=(2, 2))
        params = init_params(spec, make_rng(0))
        params.arrays[0][:] = [[1.0, 0.0], [0.0, 1.0]]
        params.arrays[1][:] = [[0.5, -0.5]]
        x = np.array([[2.0, 3.0]])
        logits = forward(params, spec, x)
        np.testing.assert_allclose(logits, [[2.5, 2.5]])

    def test_relu_kills_negative_path(self):
        spec = ModelSpec(layer_widths=(1, 1, 1), activation="relu")
        params = init_params(spec, make_rng(0))
        params.arrays[0][:] = [[-1.0]]
        params.arrays[2][:] = [[5.0]]
        logits = forward(params, spec, np.array([[3.0]]))
        np.testing.assert_allclose(logits, [[0.0]])

    def test_tanh_path(self):
        spec = ModelSpec(layer_widths=(1, 1, 1), activation="tanh")
        params = init_params(spec, make_rng(0))
        params.arrays[0][:] = [[1.0]]
        params.arrays[2][:] = [[1.0]]
        logits = forward(params, spec, np.array([[0.5]]))
        np.testing.assert_allclose(logits, [[math.tanh(0.5)]])

    def test_feature_mismatch_raises(self):
        spec = ModelSpec(layer_widths=(4, 2))
        params = init_params(spec, make_rng(0))
        with pytest.raises(ShapeError):
            forward(params, spec, np.ones((5, 3)))

    def test_congruence_check(self):
        spec = ModelSpec(layer_widths=(3, 2))
        params = init_params(spec, make_rng(0))
        bad = GradientSet(params.names, [np.ones((3, 2)), np.ones((1, 3))])
        with pytest.raises(ShapeError):
            check_congruent(params, bad)


class TestBlockedForward:
    """forward runs its input FORWARD_BLOCK rows at a time."""

    @BLOCKED_SHAPES
    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025])
    def test_equals_one_whole_input_pass_bit_for_bit(self, widths, activation,
                                                     n):
        spec = ModelSpec(layer_widths=widths, activation=activation)
        rng = make_rng(5)
        params = init_params(spec, rng)
        for b in params.arrays[1::2]:
            b[...] = rng.normal(0.0, 0.5, b.shape)
        x = rng.normal(0.0, 1.5, (n, widths[0]))
        whole = models._forward(params, spec, x)[-1]
        assert forward(params, spec, x).tobytes() == whole.tobytes()

    @pytest.mark.parametrize(
        "n", [0, 1, 2, 512, 513, 514, 1024, 1025, 1537, 3000]
    )
    def test_no_block_has_one_row_unless_the_input_does(self, n, monkeypatch):
        sizes = []
        whole = models._forward

        def recording(params, spec, x):
            sizes.append(len(x))
            return whole(params, spec, x)

        monkeypatch.setattr(models, "_forward", recording)
        spec = ModelSpec(layer_widths=(3, 2))
        forward(init_params(spec, make_rng(0)), spec, np.ones((n, 3)))
        assert sum(sizes) == n
        assert max(sizes) <= FORWARD_BLOCK + 1
        assert min(sizes) > 1 or n < 2

    def test_memory_does_not_grow_with_rows(self):
        spec = ModelSpec(layer_widths=(64, 256, 128, 10))
        params = init_params(spec, make_rng(0))

        def peak_bytes(n):
            x = make_rng(n).normal(size=(n, 64))
            tracemalloc.start()
            try:
                logits = forward(params, spec, x)
                return tracemalloc.get_traced_memory()[1] - logits.nbytes
            finally:
                tracemalloc.stop()

        peak_bytes(FORWARD_BLOCK)  # the first call's one-off imports and caches
        short, long = peak_bytes(4 * FORWARD_BLOCK), peak_bytes(16 * FORWARD_BLOCK)
        assert short < 4 * 2**20
        assert long < 1.1 * short


class TestLoss:
    def test_uniform_logits_give_log_c(self):
        # all-equal logits over C classes: loss = ln(C) exactly
        for c in (2, 3, 10):
            logits = np.zeros((4, c))
            y = np.zeros(4, dtype=np.int64)
            assert cross_entropy(logits, y) == pytest.approx(
                math.log(c), abs=1e-12
            )
        assert cross_entropy(np.zeros((1, 3)), np.array([2])) == pytest.approx(
            1.0986122886681098, abs=1e-12
        )

    def test_log_softmax_shift_invariant(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        a = log_softmax(logits)
        b = log_softmax(logits + 500.0)
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(np.exp(a).sum(), 1.0)

    def test_extreme_logits_stable(self):
        logits = np.array([[1000.0, -1000.0]])
        val = cross_entropy(logits, np.array([0]))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_two_class(self):
        logits = np.array([[1.0, -1.0]])
        y = np.array([1])
        expected = math.log(1.0 + math.exp(2.0))
        assert cross_entropy(logits, y) == pytest.approx(expected, rel=1e-12)


class TestBackward:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("widths", [(3, 4, 2), (5, 3), (4, 6, 5, 3)])
    def test_matches_finite_differences(self, activation, widths):
        if len(widths) == 2:
            spec = ModelSpec(layer_widths=widths)
        else:
            spec = ModelSpec(layer_widths=widths, activation=activation)
        rng = make_rng(5)
        params = init_params(spec, rng)
        x = rng.normal(0, 1, (7, widths[0]))
        y = rng.integers(0, widths[-1], 7)
        loss, grads = loss_and_backward(params, spec, x, y)
        ref = finite_difference_grads(params, spec, x, y)
        for g, r in zip(grads.arrays, ref.arrays):
            np.testing.assert_allclose(g, r, atol=1e-7)

    def test_loss_matches_forward(self):
        spec = ModelSpec(layer_widths=(4, 3, 2))
        rng = make_rng(9)
        params = init_params(spec, rng)
        x = rng.normal(0, 1, (5, 4))
        y = rng.integers(0, 2, 5)
        loss, _ = loss_and_backward(params, spec, x, y)
        direct = cross_entropy(forward(params, spec, x), y)
        assert loss == pytest.approx(direct, rel=1e-12)

    def test_label_out_of_range(self):
        spec = ModelSpec(layer_widths=(4, 2))
        params = init_params(spec, make_rng(0))
        with pytest.raises(DataError):
            loss_and_backward(params, spec, np.ones((2, 4)), np.array([0, 2]))

    def test_empty_batch(self):
        spec = ModelSpec(layer_widths=(4, 2))
        params = init_params(spec, make_rng(0))
        with pytest.raises(DataError):
            loss_and_backward(
                params, spec, np.ones((0, 4)), np.zeros(0, dtype=int)
            )

    def test_row_count_mismatch(self):
        spec = ModelSpec(layer_widths=(4, 2))
        params = init_params(spec, make_rng(0))
        with pytest.raises(ShapeError):
            loss_and_backward(
                params, spec, np.ones((3, 4)), np.zeros(2, dtype=int)
            )

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"y": np.array([True, False])}, DataError),
            ({"y": np.array([0.0, 1.0])}, DataError),
            ({"y": np.array([0, -1])}, DataError),
            ({"y": np.array([[0], [1]])}, ShapeError),
            ({"x": np.ones((2, 5))}, ShapeError),
            ({"spec": ModelSpec(layer_widths=(4, 3, 2))}, ShapeError),
            ({"spec": ModelSpec(layer_widths=(4, 5, 3, 2))}, ShapeError),
        ],
        ids=["bool_labels", "float_labels", "negative_label", "2d_labels",
             "feature_width", "layer_width", "layer_count"],
    )
    def test_rejects_bad_input(self, change, error):
        spec = ModelSpec(layer_widths=(4, 6, 2))
        params = init_params(spec, make_rng(0))
        x = change.get("x", np.ones((2, 4)))
        y = change.get("y", np.array([0, 1]))
        with pytest.raises(error):
            loss_and_backward(params, change.get("spec", spec), x, y)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_rejects_negative_labels_of_any_width(self, dtype):
        spec = ModelSpec(layer_widths=(4, 6, 2))
        params = init_params(spec, make_rng(0))
        for y in ([0, -1], [-128, 1], [1, 0, -1]):
            x = np.ones((len(y), 4))
            with pytest.raises(DataError, match="range"):
                loss_and_backward(params, spec, x, np.array(y, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16])
    def test_label_range_past_the_signed_range(self, dtype):
        # more classes than an int8 can count: its negative labels must
        # still fail, and every label in [0, 300) pass
        logits = np.zeros((2, 300))
        top = min(np.iinfo(dtype).max, 299)
        assert cross_entropy(logits, np.array([0, top], dtype=dtype)) > 0.0
        if np.iinfo(dtype).min < 0:
            with pytest.raises(DataError):
                cross_entropy(logits, np.array([0, -1], dtype=dtype))

    def test_unsigned_labels_out_of_range(self):
        with pytest.raises(DataError, match=r"\[0, 3\)"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 255], dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
    def test_accepts_any_integer_labels(self, dtype):
        spec = ModelSpec(layer_widths=(4, 6, 2))
        params = init_params(spec, make_rng(0))
        x = make_rng(1).normal(size=(3, 4))
        y = np.array([1, 0, 1])
        loss, grads = loss_and_backward(params, spec, x, y)
        loss_t, grads_t = loss_and_backward(params, spec, x, y.astype(dtype))
        assert loss_t == loss
        np.testing.assert_array_equal(grads_t.flat, grads.flat)

    def test_nonfinite_input_raises(self):
        spec = ModelSpec(layer_widths=(2, 2))
        params = init_params(spec, make_rng(0))
        x = np.array([[np.nan, 1.0]])
        with pytest.raises(NumericError):
            loss_and_backward(params, spec, x, np.array([0]))


class TestEvaluate:
    def test_accuracy_counts_argmax_hits(self):
        spec = ModelSpec(layer_widths=(2, 2))
        params = init_params(spec, make_rng(0))
        params.arrays[0][:] = [[1.0, 0.0], [0.0, 1.0]]
        params.arrays[1][:] = 0.0
        x = np.array([[3.0, 0.0], [0.0, 3.0], [3.0, 0.0]])
        y = np.array([0, 1, 1])  # last one wrong
        loss, acc = evaluate(params, spec, x, y)
        assert acc == pytest.approx(2.0 / 3.0)
        assert loss > 0.0

    def test_matches_cross_entropy_and_argmax_bit_for_bit(self):
        for widths in ((2, 32, 32, 3), (5, 3)):
            spec = ModelSpec(layer_widths=widths)
            rng = make_rng(3)
            params = init_params(spec, rng)
            x = rng.normal(0, 1, (97, widths[0]))
            y = rng.integers(0, widths[-1], 97)
            logits = forward(params, spec, x)
            loss, acc = evaluate(params, spec, x, y)
            assert loss == cross_entropy(logits, y)
            assert acc == float((logits.argmax(axis=1) == y).mean())

    @pytest.mark.parametrize(
        "y, error",
        [
            (np.array([0, -1, 1]), DataError),
            (np.array([0, 3, 1]), DataError),
            (np.array([0.0, 1.0, 1.0]), DataError),
            (np.array([[0], [1], [1]]), ShapeError),
        ],
        ids=["negative", "out_of_range", "float", "2d"],
    )
    def test_rejects_bad_labels(self, y, error):
        spec = ModelSpec(layer_widths=(4, 6, 3))
        params = init_params(spec, make_rng(0))
        with pytest.raises(error):
            evaluate(params, spec, np.ones((3, 4)), y)


class TestReferenceKernel:
    """The lean forward and backward against the kernel as first written:
    same floating-point operations in the same order, so equal bit for bit."""

    @pytest.mark.parametrize(
        "widths, activation, batch_size",
        [
            ((2, 32, 32, 3), "relu", 6),
            ((4, 3, 2), "tanh", 1),
            ((5, 3), "relu", 7),
            ((784, 16, 10), "relu", 64),
        ],
        ids=["relu_w1", "tanh_batch1", "logistic", "relu_784"],
    )
    def test_matches_reference_bit_for_bit(self, widths, activation,
                                           batch_size):
        spec = ModelSpec(layer_widths=widths, activation=activation)
        rng = make_rng(17)
        params = init_params(spec, rng)
        for b in params.arrays[1::2]:
            b[...] = rng.normal(0.0, 0.5, b.shape)
        for trial in range(50):
            x = rng.normal(0.0, 1.5, (batch_size, widths[0]))
            if trial % 5 == 0:
                # a zero row against zero biases: hidden pre-activations
                # that are exactly zero, where the ReLU mask must read 0
                x[0] = 0.0
                params.arrays[1][0, ::2] = 0.0
            y = rng.integers(0, widths[-1], batch_size)
            loss, grads = loss_and_backward(params, spec, x, y)
            ref_loss, ref_grads = reference_loss_and_backward(params, spec, x, y)
            assert loss == ref_loss
            np.testing.assert_array_equal(grads.flat, ref_grads.flat)
            _, act = reference_forward_cached(params, spec, x)
            np.testing.assert_array_equal(forward(params, spec, x), act[-1])
            params.flat -= 0.1 * grads.flat
