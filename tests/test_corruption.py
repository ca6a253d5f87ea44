import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossadapt.corruption import (
    BATCH_LEVEL_MODES,
    FEATURE_MODES,
    LABEL_MODES,
    MODES,
    ORIGINAL,
    CorruptionSpec,
    SourcePlan,
    apply_corruption,
    split_into_sources,
)
from lossadapt.errors import ConfigError, DataError
from lossadapt.models import ModelSpec, init_params, loss_and_backward
from lossadapt.rng import make_rng


def demo_batch(n=12, d=8, n_classes=4, seed=0):
    rng = make_rng(seed)
    return rng.normal(0, 1, (n, d)), rng.integers(0, n_classes, n)


class TestSplitIntoSources:
    def test_even_split(self):
        plan = split_into_sources(100, 10, make_rng(0))
        np.testing.assert_array_equal(np.bincount(plan.assignment), [10] * 10)

    def test_remainder_lands_on_one_source(self):
        plan = split_into_sources(101, 10, make_rng(0))
        sizes = sorted(np.bincount(plan.assignment))
        assert sizes == [10] * 9 + [11]

    def test_exclusive_and_exhaustive(self):
        plan = split_into_sources(57, 7, make_rng(3))
        assert plan.assignment.shape == (57,)
        assert plan.assignment.min() >= 0
        assert plan.assignment.max() < 7
        all_items = np.concatenate([plan.items_of(s) for s in range(7)])
        assert sorted(all_items) == list(range(57))

    def test_same_seed_identical(self):
        a = split_into_sources(100, 10, make_rng(5), n_corrupt=4)
        b = split_into_sources(100, 10, make_rng(5), n_corrupt=4)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.corrupt_source_ids == b.corrupt_source_ids

    def test_assignment_is_randomized(self):
        a = split_into_sources(100, 10, make_rng(1))
        b = split_into_sources(100, 10, make_rng(2))
        assert (a.assignment != b.assignment).any()

    def test_corrupt_ids_count_and_range(self):
        plan = split_into_sources(60, 6, make_rng(0), n_corrupt=3)
        assert len(plan.corrupt_source_ids) == 3
        assert all(0 <= s < 6 for s in plan.corrupt_source_ids)

    @pytest.mark.parametrize(
        "n_items,n_sources,n_corrupt",
        [(5, 10, 0), (10, 1, 0), (10, 5, 5), (10, 5, -1)],
    )
    def test_rejects_bad_arguments(self, n_items, n_sources, n_corrupt):
        with pytest.raises(ConfigError):
            split_into_sources(n_items, n_sources, make_rng(0), n_corrupt)


class TestSpecValidation:
    def test_mode_vocabulary(self):
        assert len(MODES) == 7
        for m in MODES:
            CorruptionSpec(mode=m)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "label_smoothing"},
            {"corruption_rate": -0.1},
            {"corruption_rate": 1.1},
            {"n_chunks": 0},
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ConfigError):
            CorruptionSpec(**kwargs)


class TestModeSemantics:
    def test_original_is_identity(self):
        x, y = demo_batch()
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode="original"), 4, make_rng(1)
        )
        np.testing.assert_array_equal(out_x, x)
        np.testing.assert_array_equal(out_y, y)

    def test_batch_label_shuffle_permutes(self):
        x, y = demo_batch(n=40)
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode="batch_label_shuffle"), 4, make_rng(1)
        )
        np.testing.assert_array_equal(out_x, x)
        assert sorted(out_y) == sorted(y)
        assert (out_y != y).any()

    def test_batch_label_flip_uses_batch_label(self):
        x, y = demo_batch(n=30)
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode="batch_label_flip"), 4, make_rng(1)
        )
        np.testing.assert_array_equal(out_x, x)
        assert len(set(out_y)) == 1
        assert out_y[0] in set(y)

    def test_random_label_draws_from_domain(self):
        x, y = demo_batch(n=4000, n_classes=4)
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode="random_label"), 4, make_rng(1)
        )
        np.testing.assert_array_equal(out_x, x)
        counts = np.bincount(out_y, minlength=4)
        # uniform over 4 labels at n=4000: each count within 5 sigma of 1000
        assert counts.min() > 1000 - 5 * np.sqrt(1000 * 0.75)
        assert counts.max() < 1000 + 5 * np.sqrt(1000 * 0.75)

    def test_add_noise_moments(self):
        # sample-moment oracle at 10,000 elements
        x, y = demo_batch(n=100, d=100)
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode="add_gaussian_noise"), 4, make_rng(1)
        )
        np.testing.assert_array_equal(out_y, y)
        diff = out_x - x
        assert abs(diff.mean()) < 0.05
        assert abs(diff.std() - 1.0) < 0.05

    def test_replace_noise_forgets_input(self):
        x, y = demo_batch(n=100, d=100)
        x += 50.0
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode="replace_gaussian_noise"), 4, make_rng(1)
        )
        np.testing.assert_array_equal(out_y, y)
        assert abs(out_x.mean()) < 0.05
        assert abs(out_x.std() - 1.0) < 0.05

    def test_chunk_shuffle_preserves_multiset_per_input(self):
        x, y = demo_batch(n=20, d=8)
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode="chunk_shuffle", n_chunks=4), 4, make_rng(1)
        )
        np.testing.assert_array_equal(out_y, y)
        np.testing.assert_array_equal(np.sort(out_x, 1), np.sort(x, 1))
        assert (out_x != x).any()

    def test_chunk_shuffle_moves_whole_chunks(self):
        x = np.arange(8.0)[None, :]
        y = np.array([0])
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode="chunk_shuffle", n_chunks=4), 1, make_rng(0)
        )
        got = out_x[0].reshape(4, 2)
        expect_chunks = {(0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0)}
        assert {tuple(c) for c in got} == expect_chunks

    def test_chunk_count_exceeding_axis_rejected(self):
        x, y = np.ones((2, 3)), np.zeros(2, dtype=int)
        with pytest.raises(ConfigError):
            apply_corruption(
                x, y, CorruptionSpec(mode="chunk_shuffle", n_chunks=5), 1, make_rng(0)
            )


class TestRateSemantics:
    def test_batch_level_rate_is_per_batch_probability(self):
        spec = CorruptionSpec(mode="batch_label_shuffle", corruption_rate=0.3)
        rng = make_rng(0)
        hits = 0
        trials = 2000
        for _ in range(trials):
            x, y = demo_batch(n=20, seed=1)
            out_x, out_y = apply_corruption(x, y, spec, 4, rng)
            hits += int((out_y != y).any())
        assert hits / trials == pytest.approx(0.3, abs=0.04)

    def test_per_observation_rate_is_fraction_of_items(self):
        spec = CorruptionSpec(mode="replace_gaussian_noise", corruption_rate=0.5)
        x, y = demo_batch(n=10000, d=3)
        out_x, out_y = apply_corruption(x, y, spec, 4, make_rng(0))
        changed = (out_x != x).any(axis=1).mean()
        assert changed == pytest.approx(0.5, abs=0.03)

    @pytest.mark.parametrize("mode", MODES)
    def test_rate_zero_is_identity(self, mode):
        x, y = demo_batch()
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode=mode, corruption_rate=0.0), 4, make_rng(1)
        )
        np.testing.assert_array_equal(out_x, x)
        np.testing.assert_array_equal(out_y, y)


class TestInvariants:
    @pytest.mark.parametrize("mode", MODES)
    def test_input_batch_never_mutated(self, mode):
        x, y = demo_batch()
        x0, y0 = x.copy(), y.copy()
        apply_corruption(x, y, CorruptionSpec(mode=mode), 4, make_rng(1))
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(y, y0)

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    @pytest.mark.parametrize("mode", [m for m in MODES if m != ORIGINAL])
    def test_copies_only_the_array_it_writes(self, mode, rate):
        x, y = demo_batch()
        for seed in range(6):
            spec = CorruptionSpec(mode=mode, corruption_rate=rate)
            out_x, out_y = apply_corruption(x, y, spec, 4, make_rng(seed))
            if mode in LABEL_MODES:
                assert not np.shares_memory(out_y, y)
                assert out_x is x
            else:
                assert not np.shares_memory(out_x, x)
                assert out_y is y

    @pytest.mark.parametrize(
        "mode, rate", [(ORIGINAL, 1.0)] + [(m, 0.0) for m in MODES]
    )
    def test_identity_copies_both_arrays(self, mode, rate):
        x, y = demo_batch()
        out_x, out_y = apply_corruption(
            x, y, CorruptionSpec(mode=mode, corruption_rate=rate), 4, make_rng(1)
        )
        assert not np.shares_memory(out_x, x)
        assert not np.shares_memory(out_y, y)

    @pytest.mark.parametrize("mode", MODES)
    def test_fixed_seed_reproducible(self, mode):
        x, y = demo_batch()
        spec = CorruptionSpec(mode=mode, corruption_rate=0.7)
        a_x, a_y = apply_corruption(x, y, spec, 4, make_rng(9))
        c_x, c_y = apply_corruption(x, y, spec, 4, make_rng(9))
        np.testing.assert_array_equal(a_x, c_x)
        np.testing.assert_array_equal(a_y, c_y)

    @given(
        mode=st.sampled_from(MODES),
        rate=st.floats(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_label_and_feature_exclusivity(self, mode, rate, seed):
        x, y = demo_batch(n=8, d=6)
        spec = CorruptionSpec(mode=mode, corruption_rate=rate)
        out_x, out_y = apply_corruption(x, y, spec, 4, make_rng(seed))
        if mode in LABEL_MODES:
            np.testing.assert_array_equal(out_x, x)
        if mode in FEATURE_MODES:
            np.testing.assert_array_equal(out_y, y)
        if mode in BATCH_LEVEL_MODES:
            # whole batch or nothing: labels changed rows are 0 or a batch event
            assert sorted(out_y) == sorted(y) or len(set(out_y)) == 1
        assert out_x.shape == x.shape
        assert out_y.shape == y.shape


# First 16 hex digits of the SHA-256 of each corrupted batch's x bytes, its y
# bytes and the generator's next float64 draw, for rng seeds 0, 1, 2; taken
# from the code as it stood before any rewrite of apply_corruption, so the
# hit rows, the draws and their order are pinned.
CORRUPTED_BATCH_HASHES = {
    ("original", 0.5): ('321abb19296f98b1', '03880dfddd16ba90', '5967fad2c03d84b3'),
    ("original", 1.0): ('321abb19296f98b1', '03880dfddd16ba90', '5967fad2c03d84b3'),
    ("chunk_shuffle", 0.5): ('31b7ec7fd78fd96a', 'a28403c8bef71811', '9150de3f2cc57269'),
    ("chunk_shuffle", 1.0): ('a8fb16eb88bd9562', 'baa182a2e7a9bebd', 'dac69e76cffab28e'),
    ("random_label", 0.5): ('4e0e152ce90eac70', '17321e23805a399d', 'ea75ade1f8b07edf'),
    ("random_label", 1.0): ('40ffedc045ca17ef', 'f134e45962d627e6', '1d3196ff270822f1'),
    ("batch_label_shuffle", 0.5): ('6dcfd94b5abfb53e', '4959aaead4765cc5', '284d6af815533aa6'),
    ("batch_label_shuffle", 1.0): ('08022086519b20f6', '7c504e8def524e33', '284d6af815533aa6'),
    ("batch_label_flip", 0.5): ('6dcfd94b5abfb53e', '4959aaead4765cc5', '83319f5c07ecf4c6'),
    ("batch_label_flip", 1.0): ('013dff2b6ac5adfb', '1a639252c15cdcac', '83319f5c07ecf4c6'),
    ("add_gaussian_noise", 0.5): ('3ea1a0e4111d2e12', '41cd107dc0609c39', '9a142e3dde4d8ecd'),
    ("add_gaussian_noise", 1.0): ('900dcc3a330016db', 'cd3030c4a1b75b7e', 'b679417434e22137'),
    ("replace_gaussian_noise", 0.5): ('2e6541c87615ab16', '9763ca25c763bfd3', 'd5fd23ac82231c6e'),
    ("replace_gaussian_noise", 1.0): ('01d6f462702064b8', 'b9efb3a8590a7715', '1f4c594f3ceaea4e'),
}


@pytest.mark.parametrize("mode, rate", sorted(CORRUPTED_BATCH_HASHES))
def test_corrupted_batches_match_pinned_hashes(mode, rate):
    spec = CorruptionSpec(mode=mode, corruption_rate=rate)
    hashes = []
    for seed in range(3):
        rng = make_rng(seed)
        out_x, out_y = apply_corruption(*demo_batch(), spec, 4, rng)
        digest = hashlib.sha256(
            out_x.tobytes() + out_y.tobytes() + np.float64(rng.random()).tobytes()
        )
        hashes.append(digest.hexdigest()[:16])
    assert tuple(hashes) == CORRUPTED_BATCH_HASHES[mode, rate]


class TestErrors:
    def test_empty_batch_rejected(self):
        x, y = np.zeros((0, 3)), np.zeros(0, dtype=int)
        with pytest.raises(DataError):
            apply_corruption(x, y, CorruptionSpec(), 4, make_rng(0))

    def test_labels_out_of_domain_rejected(self):
        # apply_corruption leaves the range check to the loss that reads them
        spec = ModelSpec(layer_widths=(3, 4))
        params = init_params(spec, make_rng(0))
        for y in (
            np.array([0, 4]),
            np.array([-1, 2], dtype=np.int8),
            np.array([3, 4], dtype=np.int8),
        ):
            x, rng = np.ones((2, 3)), make_rng(0)
            with pytest.raises(DataError):
                loss_and_backward(
                    params, spec, *apply_corruption(x, y, CorruptionSpec(), 4, rng)
                )
