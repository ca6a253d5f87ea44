import math

import numpy as np
import pytest

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
        assert len(opt._m) == 2
        assert opt._m[1].shape == (1, 2)

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


def full_registry(n_sources, h, distrust=None):
    histories = {s: [1.0] * h for s in range(n_sources)}
    return SourceRegistry.from_histories(
        histories, params=LapParams(history_length=h), distrust=distrust
    )


class TestLapOptimizer:
    def test_records_loss_into_registry(self):
        reg = SourceRegistry([0, 1], params=LapParams(history_length=3))
        opt = LapOptimizer(SGD(learning_rate=0.1), reg)
        p = params_of([1.0])
        opt.step(p, grads_like(p, 1.0), loss=0.42, source=0)
        np.testing.assert_allclose(reg.history(0), [0.42])

    def test_depressed_source_moves_less(self):
        # spread in the reference histories so a low recorded loss decrements
        reg = SourceRegistry.from_histories(
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
        h = 2
        reg = full_registry(2, h, distrust={0: 500.0})
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
        assert reg.history(0)[-1] == 5.0

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
        h = 2
        reg_hot = full_registry(2, h, distrust={0: 2000.0})
        reg_cold = full_registry(2, h)
        inner_hot = Adam(learning_rate=0.01)
        inner_cold = Adam(learning_rate=0.01)
        p1 = params_of([0.0])
        p2 = params_of([0.0])
        g = GradientSet(p1.names, [np.array([1.0])])
        LapOptimizer(inner_hot, reg_hot).step(p1, g, 9.0, 0)
        LapOptimizer(inner_cold, reg_cold).step(p2, g, 1.0, 0)
        # the moment buffer itself carries the attenuation
        assert abs(inner_hot._m[0][0]) < 0.01 * abs(inner_cold._m[0][0])

    def test_returned_scale_matches_registry(self):
        h = 2
        reg = full_registry(2, h, distrust={0: 200.0})
        opt = LapOptimizer(SGD(learning_rate=0.1), reg)
        p = params_of([1.0])
        # record_loss moves distrust by one step before depression is read
        scale = opt.step(p, grads_like(p, 1.0), 9.0, 0)
        assert scale == pytest.approx(1.0 - reg.depression(0))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_snapshot_reports_applied_scales(self, enabled):
        reg = SourceRegistry.from_histories(
            {0: [1.0, 1.0], 1: [1.0, 3.0], 2: [1.0, 1.0]},
            params=LapParams(history_length=2),
            distrust={1: 300.0},
        )
        opt = LapOptimizer(SGD(learning_rate=0.1), reg, enabled=enabled)
        p = params_of([1.0])
        for _ in range(3):
            opt.step(p, grads_like(p, 1.0), 9.0, 1)
        snap = opt.snapshot()
        # distrust walks with the wrapper on or off
        assert [(s, r) for s, r, _ in snap] == [(0, 0.0), (1, 303.0), (2, 0.0)]
        if enabled:
            assert snap == reg.snapshot()
            assert snap[1][2] < 0.5
        else:
            assert [scale for _, _, scale in snap] == [1.0, 1.0, 1.0]


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
LAYOUT_SHAPES = [(130, 200), (1, 200), (200, 37), (1, 37)]
N_STEPS = 6


def random_arrays(rng):
    return [rng.normal(size=shape) for shape in LAYOUT_SHAPES]


def gradient_stream(seed):
    # magnitudes from 1e-6 to 1e3 exercise eps and the square root
    rng = np.random.default_rng(seed)
    return [
        [g * 10.0 ** rng.uniform(-6, 3) for g in random_arrays(rng)]
        for _ in range(N_STEPS)
    ]


def test_layout_crosses_block_edges():
    n = sum(math.prod(shape) for shape in LAYOUT_SHAPES)
    assert n > 2 * CHUNK and n % CHUNK


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
def test_fused_update_is_bit_identical_to_per_array_rule(fused, reference, kwargs):
    start = random_arrays(np.random.default_rng(0))
    params = ParameterSet(tuple(f"w{i}" for i in range(len(start))), start)
    ref_params = [a.copy() for a in start]
    opt, ref = fused(**kwargs), reference(**kwargs)
    for grads in gradient_stream(1):
        opt.step(params, GradientSet(params.names, grads))
        ref.step(ref_params, grads)
        for got, want in zip(params.arrays, ref_params):
            np.testing.assert_array_equal(got, want)


def test_lap_adam_is_bit_identical_to_scaled_per_array_rule():
    start = random_arrays(np.random.default_rng(2))
    params = ParameterSet(tuple(f"w{i}" for i in range(len(start))), start)
    ref_params = [a.copy() for a in start]
    lap = LapOptimizer(Adam(0.01), full_registry(2, 2, distrust={0: 200.0}))
    ref = ReferenceAdam(0.01)
    for grads in gradient_stream(3):
        scale = lap.step(params, GradientSet(params.names, grads), 9.0, 0)
        assert 0.0 < scale < 1.0
        ref.step(ref_params, [scale * g for g in grads])
        for got, want in zip(params.arrays, ref_params):
            np.testing.assert_array_equal(got, want)
