import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossadapt.errors import ConfigError
from lossadapt.rng import child_rng
from lossadapt.walkers import (
    WALKER_CSV_COLUMNS,
    WalkerConfig,
    clamped_walk,
    expected_increment_probability,
    simulate_walkers,
    write_walker_csv,
)


def walker_steps(config, shift, leniency):
    """Each walker's ±1 steps, from the draws its documented stream gives."""
    samples = np.array([
        child_rng(config.seed, w).normal(shift, 1.0, config.n_steps)
        for w in range(config.n_walkers)
    ])
    return np.where(samples > leniency, 1, -1)


def naive_walk(steps):
    r, out = 0, []
    for s in steps:
        r = max(r + s, 0)
        out.append(r)
    return out


class TestClampedWalk:
    def test_hand_case(self):
        steps = np.array([1, 1, -1, -1, -1, 1])
        np.testing.assert_array_equal(clamped_walk(steps), [1, 2, 1, 0, 0, 1])

    def test_all_decrements_pinned_at_zero(self):
        np.testing.assert_array_equal(clamped_walk(np.full(10, -1)), np.zeros(10))

    @given(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_recurrence(self, steps):
        got = clamped_walk(np.array(steps))
        np.testing.assert_array_equal(got, naive_walk(steps))

    def test_batched_axis(self):
        steps = np.array([[1, -1, -1], [-1, 1, 1]])
        got = clamped_walk(steps)
        np.testing.assert_array_equal(got, [[1, 0, 0], [0, 1, 2]])


class TestIncrementProbability:
    def test_matches_normal_cdf(self):
        # Phi(2) frozen to 15 digits
        assert expected_increment_probability(2.0, 0.0) == pytest.approx(
            1.0 - 0.9772498680518208, rel=1e-12
        )
        assert expected_increment_probability(0.0, 0.0) == 0.5
        assert expected_increment_probability(1.0, 3.0) == pytest.approx(
            0.9772498680518208, rel=1e-12
        )

    def test_simulated_fraction_matches(self):
        config = WalkerConfig(
            mean_shifts=(1.0,), n_walkers=50, n_steps=2000,
            leniencies=(0.5, 1.0, 2.0), seed=3,
        )
        rows = simulate_walkers(config)
        for row in rows:
            steps = walker_steps(config, 1.0, row.leniency)
            final = clamped_walk(steps)[:, -1]
            assert row.mean_distrust == float(final.astype(np.float64).mean())
            p = expected_increment_probability(row.leniency, 1.0)
            # 100k samples: 5 sigma of a Bernoulli mean
            tol = 5 * math.sqrt(p * (1 - p) / (50 * 2000))
            assert (steps == 1).mean() == pytest.approx(p, abs=tol)


class TestEnsembleBehavior:
    def test_high_leniency_pins_walk(self):
        rows = simulate_walkers(
            WalkerConfig(mean_shifts=(0.0,), n_walkers=50, n_steps=2000,
                         leniencies=(3.0,), seed=0)
        )
        assert rows[0].mean_distrust < 1.0
        assert rows[0].mean_depression < 1e-4

    def test_infinite_leniency_exact_zero(self):
        rows = simulate_walkers(
            WalkerConfig(mean_shifts=(3.0,), n_walkers=10, n_steps=500,
                         leniencies=(math.inf,), seed=0)
        )
        assert rows[0].mean_distrust == 0.0
        assert rows[0].mean_depression == 0.0

    def test_shifted_walkers_accumulate_distrust(self):
        rows = simulate_walkers(
            WalkerConfig(mean_shifts=(3.0,), n_walkers=50, n_steps=2000,
                         leniencies=(1.0,), seed=0)
        )
        assert rows[0].mean_depression > 0.9

    def test_drift_oracle(self):
        # positive drift 2p-1 dominates the clamp; mean final R ~ drift * steps
        shift, lam, steps = 2.0, 0.5, 4000
        p = expected_increment_probability(lam, shift)
        drift = 2 * p - 1
        rows = simulate_walkers(
            WalkerConfig(mean_shifts=(shift,), n_walkers=50, n_steps=steps,
                         leniencies=(lam,), seed=1)
        )
        assert rows[0].mean_distrust == pytest.approx(drift * steps, rel=0.02)

    def test_monotone_in_leniency_every_time(self):
        # same sample paths for every leniency: monotone without MC slack
        for seed in range(5):
            rows = simulate_walkers(
                WalkerConfig(mean_shifts=(1.0,), n_walkers=20, n_steps=1000,
                             leniencies=(0.5, 1.0, 1.5, 2.0, 3.0), seed=seed)
            )
            values = [r.mean_distrust for r in rows]
            assert values == sorted(values, reverse=True)

    def test_monotone_in_shift(self):
        finals = []
        for shift in (0.0, 1.0, 2.0, 3.0):
            rows = simulate_walkers(
                WalkerConfig(mean_shifts=(shift,), n_walkers=50, n_steps=2000,
                             leniencies=(1.5,), seed=7)
            )
            finals.append(rows[0].mean_distrust)
        assert finals == sorted(finals)

    def test_time_average_at_most_peakish(self):
        config = WalkerConfig(mean_shifts=(2.0,), n_walkers=20, n_steps=1000,
                              leniencies=(0.5,), seed=0)
        rows = simulate_walkers(config)
        walks = clamped_walk(walker_steps(config, 2.0, 0.5))
        final = walks[:, -1].astype(np.float64)
        assert rows[0].mean_distrust == float(final.mean())
        # steady positive drift: time average is about half the final value
        assert 0.0 < walks.mean() < rows[0].mean_distrust

    def test_deterministic(self):
        config = WalkerConfig(mean_shifts=(1.0,), n_walkers=10, n_steps=500,
                              seed=5)
        assert simulate_walkers(config) == simulate_walkers(config)

    def test_shifts_are_single_shift_ensembles_in_order(self):
        # each shift redraws walker w's path from the same stream, so one
        # config's rows are its single-shift configs' rows, concatenated
        config = WalkerConfig(mean_shifts=(2.0, 0.5), n_walkers=6, n_steps=300,
                              leniencies=(1.0, 0.5), seed=4)
        first, second = (simulate_walkers(replace(config, mean_shifts=(s,)))
                         for s in config.mean_shifts)
        rows = simulate_walkers(config)
        assert rows == first + second
        assert [r.mean_shift for r in rows] == [2.0, 2.0, 0.5, 0.5]


class TestConfigAndCsv:
    def test_defaults(self):
        c = WalkerConfig()
        assert c.n_walkers == 100
        assert c.n_steps == 10_000
        assert c.depression_strength == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_walkers": 0},
            {"n_steps": 0},
            {"leniencies": ()},
            {"leniencies": (1.0, math.nan)},
            {"depression_strength": 0.0},
            {"mean_shifts": (math.nan,)},
            {"mean_shifts": (math.inf,)},
            {"seed": -1},
            {"mean_shifts": ()},
            {"output_dir": ""},
            {"n_walkers": 1001, "n_steps": 10_000},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            WalkerConfig(**kwargs)

    def test_csv_schema(self, tmp_path):
        rows = simulate_walkers(
            WalkerConfig(mean_shifts=(1.0,), n_walkers=5, n_steps=200,
                         leniencies=(0.5, 1.5), seed=0)
        )
        rows += simulate_walkers(
            WalkerConfig(mean_shifts=(2.0,), n_walkers=5, n_steps=200,
                         leniencies=(0.5, 1.5), seed=0)
        )
        path = tmp_path / "walkers.csv"
        write_walker_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == list(WALKER_CSV_COLUMNS)
        assert len(parsed) == 5
        shifts = {row[1] for row in parsed[1:]}
        assert shifts == {"1", "2"}
        for row in parsed[1:]:
            assert float(row[2]) >= 0.0
            assert 0.0 <= float(row[3]) < 1.0
