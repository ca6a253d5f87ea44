import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_registry, registry_history
from lossadapt.errors import (
    ConfigError,
    DataError,
    StateError,
    UnknownSourceError,
)
from lossadapt.models import GradientSet
from lossadapt.trust import (
    DEPRESSION_SCALE,
    LapParams,
    SourceRegistry,
    depression_value,
    scale_gradients,
)


def brute_force_other_stats(histories, distrust, exclude, leniency=None):
    """Direct double-sum over every (source, step) entry of the others."""
    num_mean = 0.0
    denom = 0.0
    for s, losses in histories.items():
        if s == exclude:
            continue
        w = 1.0 / (1.0 + distrust.get(s, 0.0))
        for v in losses:
            num_mean += w * v
            denom += w
    mean = num_mean / denom
    num_var = 0.0
    for s, losses in histories.items():
        if s == exclude:
            continue
        w = 1.0 / (1.0 + distrust.get(s, 0.0))
        for v in losses:
            num_var += w * (v - mean) ** 2
    return mean, math.sqrt(num_var / denom)


class TestLapParams:
    def test_defaults(self):
        p = LapParams()
        assert p.leniency == 0.8
        assert p.depression_strength == 1.0
        assert p.history_length == 25
        assert p.hold_off == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"leniency": 0.0},
            {"leniency": -1.0},
            {"depression_strength": 0.0},
            {"history_length": 1},
            {"hold_off": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            LapParams(**kwargs)


class TestRegistryBookkeeping:
    def test_ring_buffer_keeps_most_recent(self):
        reg = SourceRegistry([0], params=LapParams(history_length=3))
        for v in [1.0, 2.0, 3.0, 4.0]:
            reg.record_loss(0, v)
        # 2, 3 and 4 are the only three of the four that sum to 9
        assert reg.source_mean(0) == 3.0

    def test_partial_history_in_order(self):
        reg = SourceRegistry([0, 1], params=LapParams(history_length=4))
        reg.record_loss(0, 5.0)
        reg.record_loss(0, 6.0)
        assert registry_history(reg, 0) == [5.0, 6.0]
        with pytest.raises(StateError, match="source 0 holds 2 of 4 entries"):
            reg.source_mean(0)
        with pytest.raises(StateError, match="source 1 holds 0 of 4 entries"):
            reg.source_mean(1)

    def test_unknown_source_rejected(self):
        reg = SourceRegistry([0, 1])
        with pytest.raises(UnknownSourceError):
            reg.record_loss(7, 1.0)
        with pytest.raises(UnknownSourceError):
            reg.depression(7)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            SourceRegistry([0, 1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            SourceRegistry([])

    def test_nonfinite_loss_rejected(self):
        reg = SourceRegistry([0, 1])
        with pytest.raises(DataError):
            reg.record_loss(0, float("nan"))
        with pytest.raises(DataError):
            reg.record_loss(0, float("inf"))

    def test_stats_need_full_histories(self):
        reg = SourceRegistry([0, 1], params=LapParams(history_length=2))
        reg.record_loss(0, 1.0)
        with pytest.raises(StateError):
            reg.weighted_other_stats(0)
        with pytest.raises(StateError):
            reg.source_mean(0)

    def test_stats_need_two_sources(self):
        reg = SourceRegistry([0], params=LapParams(history_length=2))
        reg.record_loss(0, 1.0)
        reg.record_loss(0, 2.0)
        with pytest.raises(ConfigError):
            reg.weighted_other_stats(0)


class TestWeightedStats:
    def test_equal_weights_match_plain_pooled_stats(self):
        h = 4
        histories = {
            0: [1.0, 2.0, 3.0, 4.0],
            1: [2.0, 2.0, 2.0, 2.0],
            2: [0.0, 1.0, 0.0, 1.0],
        }
        reg = full_registry(histories, params=LapParams(history_length=h))
        mean, std = reg.weighted_other_stats(0)
        pooled = np.array(histories[1] + histories[2])
        assert mean == pytest.approx(pooled.mean())
        assert std == pytest.approx(pooled.std())

    def test_matches_brute_force_with_mixed_weights(self):
        rng = np.random.default_rng(42)
        h = 6
        histories = {s: list(rng.normal(s, 1.0, h)) for s in range(5)}
        distrust = {0: 0.0, 1: 3.0, 2: 0.0, 3: 17.0, 4: 1.0}
        reg = full_registry(
            histories, params=LapParams(history_length=h), distrust=distrust
        )
        for s in range(5):
            mean, std = reg.weighted_other_stats(s)
            bmean, bstd = brute_force_other_stats(histories, distrust, s)
            assert mean == pytest.approx(bmean, rel=1e-12)
            assert std == pytest.approx(bstd, rel=1e-12)

    def test_distrusted_source_pulls_stats_less(self):
        # source 1 has high losses; when it is distrusted the reference mean
        # for source 0 moves toward source 2's clean losses
        h = 3
        histories = {0: [1.0] * h, 1: [9.0] * h, 2: [1.0] * h}
        low = full_registry(histories, params=LapParams(history_length=h))
        high = full_registry(
            histories, params=LapParams(history_length=h), distrust={1: 50.0}
        )
        mean_low, _ = low.weighted_other_stats(0)
        mean_high, _ = high.weighted_other_stats(0)
        assert mean_low == pytest.approx(5.0)
        assert mean_high < mean_low
        assert mean_high == pytest.approx((9.0 / 51.0 + 1.0) / (1.0 / 51.0 + 1.0))

    @given(
        data=st.lists(
            st.lists(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=3,
                max_size=3,
            ),
            min_size=2,
            max_size=6,
        ),
        levels=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=2,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_is_convex_combination(self, data, levels):
        n = min(len(data), len(levels))
        if n < 2:
            return
        histories = {s: data[s] for s in range(n)}
        distrust = {s: levels[s] for s in range(n)}
        reg = full_registry(
            histories, params=LapParams(history_length=3), distrust=distrust
        )
        mean, std = reg.weighted_other_stats(0)
        others = np.array([histories[s] for s in range(1, n)])
        assert others.min() - 1e-9 <= mean <= others.max() + 1e-9
        assert std >= 0.0


class TestDistrustWalk:
    def make(self, own, others, leniency=0.8, distrust=None):
        h = len(own)
        histories = {0: own, 1: others}
        return full_registry(
            histories,
            params=LapParams(leniency=leniency, history_length=h),
            distrust=distrust,
        )

    def test_low_loss_decrements(self):
        reg = self.make([1.0, 1.0], [2.0, 2.0], distrust={0: 5.0})
        assert reg.update_distrust(0) == 4.0

    def test_high_loss_increments(self):
        reg = self.make([3.0, 3.0], [2.0, 2.0])
        assert reg.update_distrust(0) == 1.0

    def test_tie_increments(self):
        # mean_own exactly equals mean_others + leniency*std (std=0) -> not <
        reg = self.make([2.0, 2.0], [2.0, 2.0])
        assert reg.update_distrust(0) == 1.0

    def test_clamped_at_zero(self):
        reg = self.make([1.0, 1.0], [2.0, 2.0])
        assert reg.update_distrust(0) == 0.0
        assert reg.update_distrust(0) == 0.0

    def test_leniency_widens_tolerance(self):
        # own mean 2.5 vs others mean 2.0, std 1.0: flagged at leniency 0.3,
        # tolerated at leniency 0.8
        own = [2.5, 2.5]
        others = [1.0, 3.0]
        strict = self.make(own, others, leniency=0.3, distrust={0: 2.0})
        lenient = self.make(own, others, leniency=0.8, distrust={0: 2.0})
        assert strict.update_distrust(0) == 3.0
        assert lenient.update_distrust(0) == 1.0

    def test_record_loss_updates_only_recording_source(self):
        h = 2
        reg = full_registry(
            {0: [1.0] * h, 1: [1.0] * h, 2: [9.0] * h},
            params=LapParams(history_length=h),
        )
        reg.record_loss(2, 9.0)
        assert reg.distrust_levels.tolist() == [0.0, 0.0, 1.0]

    def test_no_update_until_all_full(self):
        reg = SourceRegistry([0, 1], params=LapParams(history_length=2))
        reg.record_loss(0, 9.0)
        reg.record_loss(0, 9.0)
        reg.record_loss(0, 9.0)  # source 1 still empty
        assert reg.distrust_levels[0] == 0.0
        reg.record_loss(1, 1.0)
        reg.record_loss(1, 1.0)  # buffers now full -> update fires for 1
        assert reg.distrust_levels[1] == 0.0
        reg.record_loss(0, 9.0)
        assert reg.distrust_levels[0] == 1.0

    @given(
        k=st.integers(min_value=1, max_value=30),
        start=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_decrements_reverse_prior_increments(self, k, start):
        # k consecutive decrements from level `start` land at max(start-k, 0)
        reg = self.make([1.0, 1.0], [5.0, 5.0], distrust={0: float(start)})
        for _ in range(k):
            reg.update_distrust(0)
        assert reg.distrust_levels[0] == float(max(start - k, 0))


class TestDepression:
    def test_frozen_tanh_values(self):
        # tanh(1)^2 and tanh(5)^2 at strength 1.0: distrust 200 and 1000
        assert depression_value(200.0, 1.0) == pytest.approx(
            0.5800256583859739, abs=1e-15
        )
        assert depression_value(1000.0, 1.0) == pytest.approx(
            0.9998184167690562, abs=1e-15
        )
        assert depression_value(0.0, 1.0) == 0.0

    def test_scale_constant(self):
        assert DEPRESSION_SCALE == 0.005

    @given(
        r1=st.floats(min_value=0, max_value=5000),
        r2=st.floats(min_value=0, max_value=5000),
        strength=st.floats(min_value=0.01, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_and_bounded(self, r1, r2, strength):
        # strictly below 1 even where float tanh saturates; non-decreasing
        d1 = depression_value(r1, strength)
        d2 = depression_value(r2, strength)
        assert 0.0 <= d1 < 1.0
        if r1 < r2:
            assert d1 <= d2

    def test_strictly_increasing_below_saturation(self):
        vals = [depression_value(r, 1.0) for r in (0.0, 50.0, 200.0, 1000.0)]
        assert vals == sorted(vals)
        assert len(set(vals)) == 4

    def test_zero_until_all_full(self):
        reg = SourceRegistry([0, 1], params=LapParams(history_length=2))
        reg._set_level(0, 300.0)
        assert reg.depression(0) == 0.0
        assert 1.0 - reg.depression(0) == 1.0

    def test_hold_off_delays_activation(self):
        params = LapParams(history_length=2, hold_off=3)
        reg = full_registry(
            {0: [9.0, 9.0], 1: [1.0, 1.0]}, params=params, distrust={0: 300.0}
        )
        assert reg.steps_since_full == 0
        assert reg.depression(0) == 0.0
        for _ in range(3):
            reg.record_loss(0, 9.0)
        assert reg.steps_since_full == 3
        assert reg.depression(0) > 0.5

    def test_active_once_full_with_zero_hold_off(self):
        reg = full_registry(
            {0: [9.0, 9.0], 1: [1.0, 1.0]},
            params=LapParams(history_length=2),
            distrust={0: 200.0},
        )
        assert reg.depression(0) == pytest.approx(0.5800256583859739)
        assert 1.0 - reg.depression(0) == pytest.approx(1.0 - 0.5800256583859739)

    def test_snapshot_rows(self):
        reg = full_registry(
            {0: [1.0, 1.0], 1: [1.0, 1.0]},
            params=LapParams(history_length=2),
            distrust={1: 200.0},
        )
        assert reg.snapshot() == {0: 0.0, 1: 200.0}


class TestScaleGradients:
    def test_scales_every_array(self):
        g = GradientSet(("w0", "b0"), [np.ones((2, 2)), np.full((1, 2), 4.0)])
        out = scale_gradients(g, 0.75)
        np.testing.assert_allclose(out.arrays[0], 0.25)
        np.testing.assert_allclose(out.arrays[1], 1.0)
        # input untouched
        np.testing.assert_allclose(g.arrays[0], 1.0)

    def test_zero_depression_is_identity(self):
        g = GradientSet(("w0",), [np.arange(6.0).reshape(2, 3)])
        out = scale_gradients(g, 0.0)
        np.testing.assert_array_equal(out.arrays[0], g.arrays[0])

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        g = GradientSet(("w0",), [np.ones(3)])
        with pytest.raises(ValueError):
            scale_gradients(g, bad)


class TestSeparation:
    def test_corrupt_source_diverges_clean_stays_low(self):
        # 10 sources, 2 with losses ~N(4,1), 8 with ~N(1,1); after a few
        # hundred recorded losses per source the corrupted pair's distrust
        # grows near-linearly while clean sources hug zero
        rng = np.random.default_rng(7)
        n, h, steps = 10, 25, 300
        corrupt = {3, 8}
        reg = SourceRegistry(range(n), params=LapParams(history_length=h))
        for t in range(steps):
            for s in range(n):
                mu = 4.0 if s in corrupt else 1.0
                reg.record_loss(s, rng.normal(mu, 1.0))
        warm = h  # rounds spent filling buffers, no updates
        updates = steps - warm
        for s in range(n):
            if s in corrupt:
                assert reg.distrust_levels[s] > 0.9 * updates
            else:
                assert reg.distrust_levels[s] < 10.0

    def test_recovered_source_walks_back_down(self):
        rng = np.random.default_rng(11)
        h = 10
        reg = SourceRegistry(range(4), params=LapParams(history_length=h))
        for t in range(120):
            for s in range(4):
                mu = 4.0 if s == 0 else 1.0
                reg.record_loss(s, rng.normal(mu, 1.0))
        peak = float(reg.distrust_levels[0])
        assert peak > 80.0
        for t in range(150):
            for s in range(4):
                reg.record_loss(s, rng.normal(1.0, 1.0))
        assert reg.distrust_levels[0] == 0.0



class NaiveRegistry:
    """The paper's rule over plain Python lists, with no caching: keep each
    source's last h losses; once every history is full, step the recording
    source's distrust -1 if its mean is below the 1/(1 + distrust)-weighted
    mean + leniency * std of every other source's losses, else +1, floored
    at 0. The gradient scale is 1 - tanh²(0.005 * strength * distrust), or 1
    until hold_off steps have passed since the histories filled."""

    def __init__(self, n, h, hold_off, leniency, strength=1.0):
        self.h, self.hold_off = h, hold_off
        self.leniency, self.strength = leniency, strength
        self.losses = [[] for _ in range(n)]
        self.distrust = [0.0] * n
        self.steps_since_full = 0

    def full(self):
        return all(len(row) == self.h for row in self.losses)

    def record(self, s, loss):
        if self.full():
            self.steps_since_full += 1
        self.losses[s] = (self.losses[s] + [loss])[-self.h:]
        if not self.full() or len(self.losses) < 2:
            return
        pairs = [
            (1.0 / (1.0 + self.distrust[j]), v)
            for j, row in enumerate(self.losses) if j != s for v in row
        ]
        total = sum(w for w, _ in pairs)
        mean = sum(w * v for w, v in pairs) / total
        std = math.sqrt(sum(w * (v - mean) ** 2 for w, v in pairs) / total)
        own = sum(self.losses[s]) / self.h
        step = -1.0 if own < mean + self.leniency * std else 1.0
        self.distrust[s] = max(self.distrust[s] + step, 0.0)

    def scale(self, s):
        if not self.full() or self.steps_since_full < self.hold_off:
            return 1.0
        t = math.tanh(0.005 * self.strength * self.distrust[s])
        return 1.0 - min(t * t, math.nextafter(1.0, 0.0))


@st.composite
def loss_streams(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    step = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=40).map(lambda k: k / 8),
    )
    return n, draw(st.lists(step, max_size=120))


class TestNaiveOracle:
    @given(
        stream=loss_streams(),
        h=st.integers(min_value=2, max_value=6),
        hold_off=st.integers(min_value=0, max_value=4),
        leniency=st.sampled_from([0.1, 0.5, 0.8, 1.3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_registry_matches_naive_rule(self, stream, h, hold_off, leniency):
        n, steps = stream
        params = LapParams(leniency=leniency, history_length=h, hold_off=hold_off)
        reg = SourceRegistry(range(n), params=params)
        naive = NaiveRegistry(n, h, hold_off, leniency)
        for s, loss in steps:
            reg.record_loss(s, loss)
            naive.record(s, loss)
            assert tuple(reg.distrust_levels.tolist()) == tuple(naive.distrust)
            assert 1.0 - reg.depression(s) == naive.scale(s)


class TestLossScaleInvariance:
    """Scaling every loss by a power of two scales every sum, mean, std and
    threshold exactly, so the ±1 comparisons, ties included, come out the
    same and every distrust walk is bit-identical."""

    @pytest.mark.parametrize("k", [3, -5])
    def test_walks_ignore_power_of_two_loss_scale(self, k):
        moved = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            params = LapParams(
                leniency=float(rng.choice([0.1, 0.5, 0.8, 1.3])),
                history_length=int(rng.integers(2, 8)),
            )
            sources = rng.integers(0, n, 300)
            # exact eighths on even seeds, so peers tie; continuous otherwise
            if seed % 2 == 0:
                losses = rng.integers(0, 41, 300) / 8
            else:
                losses = rng.lognormal(0.0, 0.5, 300) + rng.uniform(0, 1, n)[sources]
            reg = SourceRegistry(range(n), params=params)
            scaled = SourceRegistry(range(n), params=params)
            for s, loss in zip(sources.tolist(), losses.tolist()):
                reg.record_loss(s, loss)
                scaled.record_loss(s, math.ldexp(loss, k))
                assert reg.distrust_levels.tobytes() == scaled.distrust_levels.tobytes()
            moved += int(reg.distrust_levels.any())
        assert moved > 20


def assert_stats_match_levels(reg):
    """Every source's weighted_other_stats and source_mean equal the
    expressions recomputed from the registry's loss buffer and distrust
    levels, with fresh 1/(1 + distrust) weights."""
    if not reg.all_full:
        return
    h = reg.params.history_length
    for row, source in enumerate(reg.source_ids):
        peers = np.arange(reg.n_sources) != row
        losses = reg._losses[peers]
        weights = 1.0 / (1.0 + reg.distrust_levels[peers])
        denom = h * weights.sum()
        mean = float((weights[:, None] * losses).sum() / denom)
        dev = losses - mean
        var = float((weights[:, None] * dev * dev).sum() / denom)
        assert reg.weighted_other_stats(source) == (
            mean, math.sqrt(max(var, 0.0))
        )
        assert reg.source_mean(source) == float(reg._losses[row].mean())


@st.composite
def registry_calls(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    h = draw(st.integers(min_value=2, max_value=5))
    source = st.integers(min_value=0, max_value=n - 1)
    loss = st.floats(min_value=-20, max_value=20, allow_nan=False)
    level = st.integers(min_value=0, max_value=200).map(lambda k: k / 4)
    if draw(st.booleans()):
        histories = {
            s: draw(st.lists(loss, min_size=h, max_size=h)) for s in range(n)
        }
        distrust = draw(st.dictionaries(source, level, max_size=n))
    else:
        histories = distrust = None
    call = st.one_of(
        st.tuples(st.just("record_loss"), source, loss),
        st.tuples(st.just("_set_level"), source, level),
    )
    return n, h, histories, distrust, draw(st.lists(call, max_size=60))


class TestCachedWeights:
    @given(calls=registry_calls())
    @settings(max_examples=200, deadline=None)
    def test_stats_follow_every_distrust_write(self, calls):
        n, h, histories, distrust, steps = calls
        params = LapParams(history_length=h)
        if histories is None:
            reg = SourceRegistry(range(n), params=params)
        else:
            reg = full_registry(histories, params=params, distrust=distrust)
        assert_stats_match_levels(reg)
        for name, source, value in steps:
            # the ids are range(n), so a source id is also its row
            getattr(reg, name)(source, value)
            assert_stats_match_levels(reg)


class TestFullRegistryOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_is_the_state_a_warmed_registry_reaches(self, seed):
        # warm a registry through record_loss with exactly history_length
        # losses per source, in a random order; the oracle built from the
        # same histories and levels must answer and walk as it does
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        h = int(rng.integers(2, 9))
        params = LapParams(history_length=h)
        centres = rng.uniform(0.0, 3.0, n)
        warmed = SourceRegistry(range(n), params=params)
        for s in rng.permutation(np.repeat(np.arange(n), h)).tolist():
            warmed.record_loss(s, rng.normal(centres[s], 0.5))
        assert warmed.all_full
        histories = {s: registry_history(warmed, s) for s in range(n)}
        oracle = full_registry(
            histories, params,
            dict(enumerate(warmed.distrust_levels.tolist())),
        )
        assert oracle.distrust_levels.tolist() == warmed.distrust_levels.tolist()
        for s in range(n):
            assert oracle.weighted_other_stats(s) == warmed.weighted_other_stats(s)
            assert oracle.source_mean(s) == warmed.source_mean(s)
            assert oracle.depression(s) == warmed.depression(s)
        for _ in range(300):
            s = int(rng.integers(n))
            loss = float(rng.normal(centres[s], 0.5))
            warmed.record_loss(s, loss)
            oracle.record_loss(s, loss)
            assert (oracle.distrust_levels.tobytes()
                    == warmed.distrust_levels.tobytes())
            assert oracle.depression(s) == warmed.depression(s)
        assert warmed.distrust_levels.any()
