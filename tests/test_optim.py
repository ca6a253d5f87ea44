import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from conftest import full_registry, registry_history
from lossadapt import optim
from lossadapt.errors import ConfigError, ShapeError
from lossadapt.models import GradientSet, ParameterSet
from lossadapt.optim import CHUNK, SGD, Adam, LapOptimizer
from lossadapt.trust import LapParams, SourceRegistry


def params_of(*arrays):
    names = tuple(f"w{i}" for i in range(len(arrays)))
    return ParameterSet(names, [np.array(a, dtype=np.float64) for a in arrays])


def grads_like(params, value):
    return GradientSet(
        params.names, [np.full_like(a, value) for a in params.arrays]
    )


class TestSGD:
    def test_single_step(self):
        p = params_of([[1.0, 2.0]])
        g = GradientSet(p.names, [np.array([[0.5, -1.0]])])
        SGD(learning_rate=0.1).step(p, g)
        np.testing.assert_allclose(p.arrays[0], [[0.95, 2.1]])

    def test_momentum_accumulates(self):
        p = params_of([0.0])
        g = GradientSet(p.names, [np.array([1.0])])
        opt = SGD(learning_rate=1.0, momentum=0.5)
        opt.step(p, g)  # v=1, p=-1
        opt.step(p, g)  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.arrays[0], [-2.5])

    def test_weight_decay(self):
        p = params_of([10.0])
        g = GradientSet(p.names, [np.array([0.0])])
        SGD(learning_rate=0.1, weight_decay=0.01).step(p, g)
        np.testing.assert_allclose(p.arrays[0], [10.0 - 0.1 * 0.01 * 10.0])

    def test_shape_mismatch_rejected(self):
        p = params_of([[1.0, 2.0]])
        g = GradientSet(p.names, [np.array([1.0])])
        with pytest.raises(ShapeError):
            SGD(learning_rate=0.1).step(p, g)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"learning_rate": 0.1, "momentum": 1.0},
            {"learning_rate": 0.1, "momentum": -0.1},
            {"learning_rate": 0.1, "weight_decay": -0.1},
        ],
    )
    def test_rejects_bad_hyperparams(self, kwargs):
        with pytest.raises(ConfigError):
            SGD(**kwargs)


class TestAdam:
    def test_defaults(self):
        opt = Adam()
        assert opt.learning_rate == 0.001
        assert opt.beta1 == 0.9
        assert opt.beta2 == 0.999
        assert opt.eps == 1e-8

    def test_first_step_is_signed_lr(self):
        # bias correction makes mhat=g, vhat=g^2 on step 1, so the update is
        # lr * g/(|g| + eps') ~ lr*sign(g) for any gradient magnitude
        p = params_of([1.0, 1.0, 1.0])
        g = GradientSet(p.names, [np.array([100.0, -0.001, 3.0])])
        Adam(learning_rate=0.01).step(p, g)
        np.testing.assert_allclose(
            p.arrays[0], [0.99, 1.01, 0.99], atol=1e-6
        )

    def test_matches_scalar_recurrence(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        gs = [0.3, -0.7, 0.2, 0.9]
        p = params_of([2.0])
        opt = Adam(learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
        ref_p, m, v = 2.0, 0.0, 0.0
        for t, g in enumerate(gs, start=1):
            opt.step(p, GradientSet(p.names, [np.array([g])]))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            ref_p -= lr * mhat / (math.sqrt(vhat) + eps)
        np.testing.assert_allclose(p.arrays[0], [ref_p], rtol=1e-12)

    def test_state_per_parameter(self):
        p = params_of([0.0], [[0.0, 0.0]])
        opt = Adam(learning_rate=0.1)
        g = GradientSet(p.names, [np.array([1.0]), np.array([[1.0, -1.0]])])
        opt.step(p, g)
        assert opt.t == 1
        m = p.with_flat(opt._flat_m).arrays
        assert len(m) == 2
        assert m[1].shape == (1, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"eps": 0.0},
        ],
    )
    def test_rejects_bad_hyperparams(self, kwargs):
        with pytest.raises(ConfigError):
            Adam(**kwargs)


# two full histories of constant loss 1.0, at history length 2
FLAT = {0: [1.0, 1.0], 1: [1.0, 1.0]}
H2 = LapParams(history_length=2)


class TestLapOptimizer:
    def test_records_loss_into_registry(self):
        reg = SourceRegistry([0, 1], params=LapParams(history_length=3))
        opt = LapOptimizer(SGD(learning_rate=0.1), reg)
        p = params_of([1.0])
        opt.step(p, grads_like(p, 1.0), loss=0.42, source=0)
        assert registry_history(reg, 0) == [0.42]

    def test_depressed_source_moves_less(self):
        # spread in the reference histories so a low recorded loss decrements
        reg = full_registry(
            {0: [2.0, 2.0], 1: [1.0, 3.0], 2: [2.0, 2.0]},
            params=LapParams(history_length=2),
            distrust={2: 500.0},
        )
        p_clean = params_of([1.0])
        p_depr = params_of([1.0])
        opt = LapOptimizer(SGD(learning_rate=0.1), reg)
        scale_clean = opt.step(p_clean, grads_like(p_clean, 1.0), 1.0, 0)
        scale_depr = opt.step(p_depr, grads_like(p_depr, 1.0), 9.0, 2)
        assert scale_clean == 1.0
        assert scale_depr < 0.05
        moved_clean = 1.0 - p_clean.arrays[0][0]
        moved_depr = 1.0 - p_depr.arrays[0][0]
        assert moved_depr < 0.05 * moved_clean

    def test_disabled_wrapper_matches_bare_optimizer(self):
        reg = full_registry(FLAT, H2, distrust={0: 500.0})
        p_wrapped = params_of([[1.0, -2.0]])
        p_bare = params_of([[1.0, -2.0]])
        g = GradientSet(p_wrapped.names, [np.array([[0.3, 0.7]])])
        wrapped = LapOptimizer(Adam(learning_rate=0.01), reg, enabled=False)
        bare = Adam(learning_rate=0.01)
        scale = wrapped.step(p_wrapped, g, 5.0, 0)
        bare.step(p_bare, g)
        assert scale == 1.0
        np.testing.assert_array_equal(p_wrapped.arrays[0], p_bare.arrays[0])
        # losses were still recorded
        assert registry_history(reg, 0)[-1] == 5.0

    def test_zero_depression_bit_identical_to_bare(self):
        # during warm-up the scale path is skipped entirely, so the update
        # equals the bare optimizer's bit for bit
        reg = SourceRegistry([0, 1], params=LapParams(history_length=50))
        p_wrapped = params_of([[0.123456789, -0.987654321]])
        p_bare = params_of([[0.123456789, -0.987654321]])
        g = GradientSet(p_wrapped.names, [np.array([[1e-7, 3e4]])])
        wrapped = LapOptimizer(Adam(learning_rate=0.003), reg)
        bare = Adam(learning_rate=0.003)
        for _ in range(5):
            wrapped.step(p_wrapped, g, 1.0, 0)
            bare.step(p_bare, g)
        np.testing.assert_array_equal(p_wrapped.arrays[0], p_bare.arrays[0])

    def test_adam_moments_see_scaled_gradients(self):
        reg_hot = full_registry(FLAT, H2, distrust={0: 2000.0})
        reg_cold = full_registry(FLAT, H2)
        inner_hot = Adam(learning_rate=0.01)
        inner_cold = Adam(learning_rate=0.01)
        p1 = params_of([0.0])
        p2 = params_of([0.0])
        g = GradientSet(p1.names, [np.array([1.0])])
        LapOptimizer(inner_hot, reg_hot).step(p1, g, 9.0, 0)
        LapOptimizer(inner_cold, reg_cold).step(p2, g, 1.0, 0)
        # the moment buffer itself carries the attenuation
        hot_m = p1.with_flat(inner_hot._flat_m).arrays
        cold_m = p2.with_flat(inner_cold._flat_m).arrays
        assert abs(hot_m[0][0]) < 0.01 * abs(cold_m[0][0])

    def test_returned_scale_matches_registry(self):
        reg = full_registry(FLAT, H2, distrust={0: 200.0})
        opt = LapOptimizer(SGD(learning_rate=0.1), reg)
        p = params_of([1.0])
        # record_loss moves distrust by one step before depression is read
        scale = opt.step(p, grads_like(p, 1.0), 9.0, 0)
        assert scale == pytest.approx(1.0 - reg.depression(0))


# -- fused optimizers against the per-array rule ----------------------------


class ReferenceSGD:
    """The per-array SGD loop the fused SGD must reproduce bit for bit."""

    def __init__(self, learning_rate, momentum=0.0, weight_decay=0.0):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = None

    def step(self, params, grads):
        gs = grads
        if self.weight_decay > 0.0:
            gs = [g + self.weight_decay * p for g, p in zip(gs, params)]
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = [np.zeros_like(p) for p in params]
            for v, g, p in zip(self._velocity, gs, params):
                v *= self.momentum
                v += g
                p -= self.learning_rate * v
        else:
            for g, p in zip(gs, params):
                p -= self.learning_rate * g


class ReferenceAdam:
    """The per-array Adam loop the fused Adam must reproduce bit for bit."""

    def __init__(self, learning_rate=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = None
        self._v = None

    def step(self, params, grads):
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for m, v, g, p in zip(self._m, self._v, grads, params):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)


# 2 full blocks and an uneven tail; no parameter boundary on a block edge
LAYOUT_SHAPES = [(260, 200), (1, 200), (200, 67), (1, 67)]
# over 4 blocks, so two CPUs take two spans, with an uneven tail; no
# parameter boundary on a block edge or on the span edge
SPLIT_LAYOUT_SHAPES = [(300, 400), (1, 400), (400, 37), (1, 37)]
# each layout with the CPU count the update sees
LAYOUTS = [(LAYOUT_SHAPES, 1), (SPLIT_LAYOUT_SHAPES, 2)]
N_STEPS = 6


def random_arrays(rng, shapes=LAYOUT_SHAPES):
    return [rng.normal(size=shape) for shape in shapes]


def gradient_stream(seed, shapes=LAYOUT_SHAPES):
    # magnitudes from 1e-6 to 1e3 exercise eps and the square root
    rng = np.random.default_rng(seed)
    return [
        [g * 10.0 ** rng.uniform(-6, 3) for g in random_arrays(rng, shapes)]
        for _ in range(N_STEPS)
    ]


def test_layout_crosses_block_edges():
    n = sum(math.prod(shape) for shape in LAYOUT_SHAPES)
    assert n > 2 * CHUNK and n % CHUNK


def test_split_layout_crosses_span_and_block_edges():
    sizes = [math.prod(shape) for shape in SPLIT_LAYOUT_SHAPES]
    n = sum(sizes)
    assert n > 4 * CHUNK and n % CHUNK
    assert n // 2 not in np.cumsum(sizes)


@pytest.mark.parametrize(
    "fused, reference, kwargs",
    [
        (SGD, ReferenceSGD, {"learning_rate": 0.05}),
        (SGD, ReferenceSGD, {"learning_rate": 0.05, "momentum": 0.9}),
        (SGD, ReferenceSGD, {"learning_rate": 0.05, "weight_decay": 0.01}),
        (
            SGD,
            ReferenceSGD,
            {"learning_rate": 0.05, "momentum": 0.5, "weight_decay": 0.003},
        ),
        (Adam, ReferenceAdam, {"learning_rate": 0.003, "beta1": 0.8, "beta2": 0.99}),
    ],
    ids=["sgd", "sgd_momentum", "sgd_weight_decay", "sgd_momentum_weight_decay", "adam"],
)
def test_fused_update_is_bit_identical_to_per_array_rule(
    fused, reference, kwargs, monkeypatch
):
    for shapes, cpus in LAYOUTS:
        monkeypatch.setattr(optim, "_cpu_count", lambda: cpus)
        start = random_arrays(np.random.default_rng(0), shapes)
        params = ParameterSet(tuple(f"w{i}" for i in range(len(start))), start)
        ref_params = [a.copy() for a in start]
        opt, ref = fused(**kwargs), reference(**kwargs)
        for grads in gradient_stream(1, shapes):
            opt.step(params, GradientSet(params.names, grads))
            ref.step(ref_params, grads)
            for got, want in zip(params.arrays, ref_params):
                np.testing.assert_array_equal(got, want)


def test_lap_adam_is_bit_identical_to_scaled_per_array_rule(monkeypatch):
    for shapes, cpus in LAYOUTS:
        monkeypatch.setattr(optim, "_cpu_count", lambda: cpus)
        start = random_arrays(np.random.default_rng(2), shapes)
        params = ParameterSet(tuple(f"w{i}" for i in range(len(start))), start)
        ref_params = [a.copy() for a in start]
        lap = LapOptimizer(
            Adam(0.01), full_registry(FLAT, H2, distrust={0: 200.0})
        )
        ref = ReferenceAdam(0.01)
        for grads in gradient_stream(3, shapes):
            scale = lap.step(params, GradientSet(params.names, grads), 9.0, 0)
            assert 0.0 < scale < 1.0
            ref.step(ref_params, [scale * g for g in grads])
            for got, want in zip(params.arrays, ref_params):
                np.testing.assert_array_equal(got, want)


# -- the span split ---------------------------------------------------------


def split_step_inputs():
    """A parameter and gradient set of the split layout."""
    rng = np.random.default_rng(4)
    start = random_arrays(rng, SPLIT_LAYOUT_SHAPES)
    params = ParameterSet(tuple(f"w{i}" for i in range(len(start))), start)
    return params, GradientSet(params.names, random_arrays(rng, SPLIT_LAYOUT_SHAPES))


def test_small_vectors_take_one_span_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(optim, "_cpu_count", lambda: 8)
    threads = set()
    update = Adam._update

    def recording(self, *args):
        threads.add(threading.current_thread())
        update(self, *args)

    monkeypatch.setattr(Adam, "_update", recording)
    n = 4 * CHUNK - 1  # each of two spans would get less than two blocks
    params = params_of(np.zeros(n))
    opt = Adam()
    opt.step(params, grads_like(params, 1.0))
    assert threads == {threading.main_thread()}
    assert [s.shape for s in opt._scratch] == [(2, CHUNK)]


def test_more_spans_than_cores_under_a_short_switch_interval(monkeypatch):
    # eight spans on seven pool threads, switching threads every microsecond:
    # a span that wrote outside its own values would lose or repeat updates
    monkeypatch.setattr(optim, "_cpu_count", lambda: 8)
    monkeypatch.setattr(optim, "_pool", None)  # the old pool comes back after
    rng = np.random.default_rng(5)
    shapes = [(16 * CHUNK + 123,)]
    start = random_arrays(rng, shapes)
    params = ParameterSet(("w",), start)
    ref_params = [a.copy() for a in start]
    opt, ref = Adam(0.01), ReferenceAdam(0.01)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            grads = random_arrays(rng, shapes)
            opt.step(params, GradientSet(params.names, grads))
            ref.step(ref_params, grads)
    finally:
        sys.setswitchinterval(interval)
    assert len(opt._scratch) == 8
    np.testing.assert_array_equal(params.arrays[0], ref_params[0])


def test_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(optim, "_cpu_count", lambda: 2)
    raised_on = []

    class Failing(Adam):
        def _update(self, p, g, lo, hi, scratch):
            if lo > 0:
                raised_on.append(threading.current_thread())
                raise RuntimeError(f"span from {lo} failed")
            super()._update(p, g, lo, hi, scratch)

    params, grads = split_step_inputs()
    with pytest.raises(RuntimeError, match="span from 67618 failed"):
        Failing().step(params, grads)
    assert raised_on and raised_on[0] is not threading.main_thread()


def test_step_that_raises_returns_after_every_span(monkeypatch):
    # a step that raises on the calling thread still waits for the other
    # spans, so nothing writes the parameters after it returns
    monkeypatch.setattr(optim, "_cpu_count", lambda: 2)
    finished = threading.Event()

    class Failing(Adam):
        def _update(self, p, g, lo, hi, scratch):
            if lo == 0:
                raise RuntimeError("first span failed")
            time.sleep(0.2)
            super()._update(p, g, lo, hi, scratch)
            finished.set()

    params, grads = split_step_inputs()
    with pytest.raises(RuntimeError, match="first span failed"):
        Failing().step(params, grads)
    assert finished.is_set()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
def test_forked_child_can_take_a_split_step(monkeypatch):
    # the child inherits the pool object but not its thread; a step that
    # queued its span there would wait for ever, so the alarm kills it
    monkeypatch.setattr(optim, "_cpu_count", lambda: 2)
    params, grads = split_step_inputs()
    opt = Adam()
    opt.step(params, grads)
    assert optim._pool is not None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child exits here
        code = 1
        try:
            signal.alarm(5)
            opt.step(params, grads)
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
