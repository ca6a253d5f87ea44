import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from lossadapt.datasets import (
    BlobSpec,
    Dataset,
    _permute_rows,
    load_csv_dataset,
    load_idx,
    make_blobs,
    split_train_val,
)
from lossadapt.errors import ConfigError, DataError, FormatError
from lossadapt.models import ModelSpec, evaluate, init_params, loss_and_backward
from lossadapt.optim import SGD
from lossadapt.rng import make_rng


def idx_images(arrays):
    arr = np.asarray(arrays, dtype=np.uint8)
    n, rows, cols = arr.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + arr.tobytes()


def idx_labels(values):
    arr = np.asarray(values, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(arr)) + arr.tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    def write(images, labels, gz=False):
        img_bytes = idx_images(images)
        lab_bytes = idx_labels(labels)
        if gz:
            img_bytes = gzip.compress(img_bytes)
            lab_bytes = gzip.compress(lab_bytes)
        ip = tmp_path / "images.idx"
        lp = tmp_path / "labels.idx"
        ip.write_bytes(img_bytes)
        lp.write_bytes(lab_bytes)
        return ip, lp

    return write


class TestDataset:
    def test_validates_shapes_and_labels(self):
        with pytest.raises(DataError):
            Dataset(np.ones((3, 2, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(DataError):
            Dataset(np.ones((3, 2)), np.zeros(4, dtype=int), 2)
        with pytest.raises(DataError):
            Dataset(np.ones((3, 2)), np.array([0, 1, 2]), 2)
        with pytest.raises(DataError):
            Dataset(np.ones((3, 2)), np.array([0, -1, 1]), 2)

    def test_rejects_float_labels(self):
        # float labels are refused, not truncated to integers
        with pytest.raises(DataError, match="labels must be integers"):
            Dataset(np.ones((2, 2)), np.array([0.5, 1.7]), 3)


class TestPermuteRows:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fancy_indexing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        x = rng.normal(size=(n, 3))
        y = rng.integers(0, 5, n)
        order = rng.permutation(n)
        expected_x, expected_y = x[order], y[order]
        _permute_rows(order, x, y)
        assert x.tobytes() == expected_x.tobytes()
        assert y.tobytes() == expected_y.tobytes()

    def test_identity_and_one_cycle(self):
        x = np.arange(10.0).reshape(5, 2)
        y = np.arange(5)
        _permute_rows(np.arange(5), x, y)
        np.testing.assert_array_equal(y, np.arange(5))
        _permute_rows(np.array([1, 2, 3, 4, 0]), x, y)
        np.testing.assert_array_equal(y, [1, 2, 3, 4, 0])
        np.testing.assert_array_equal(x[:, 0], 2.0 * y)


class TestBlobs:
    def test_counts_and_balance(self):
        ds = make_blobs(BlobSpec(n_classes=3, n_per_class=100), make_rng(0))
        assert len(ds) == 300
        assert ds.n_features == 2
        np.testing.assert_array_equal(np.bincount(ds.y), [100, 100, 100])

    def test_zero_spread_collapses_to_centers(self):
        spec = BlobSpec(n_classes=2, n_per_class=5,
                        centers=((0.0, 0.0), (1.0, 2.0)), spread=0.0)
        ds = make_blobs(spec, make_rng(0))
        for c, center in enumerate(spec.centers):
            np.testing.assert_allclose(ds.x[ds.y == c], np.tile(center, (5, 1)))

    def test_rows_are_shuffled(self):
        ds = make_blobs(BlobSpec(n_classes=2, n_per_class=50), make_rng(0))
        # class runs would mean the first 50 labels are identical
        assert len(set(ds.y[:50])) > 1

    def test_deterministic(self):
        spec = BlobSpec(n_classes=3, n_per_class=20)
        a = make_blobs(spec, make_rng(4))
        b = make_blobs(spec, make_rng(4))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("spread", [0.0, 0.7])
    def test_matches_out_of_place_draws_bit_for_bit(self, spread):
        # the in-place draws and shuffle give the values and the stream of
        # center + spread * normal(0, 1) per class, gathered by the order
        spec = BlobSpec(n_classes=4, n_per_class=30, spread=spread)
        rng, ref_rng = make_rng(9), make_rng(9)
        ds = make_blobs(spec, rng)
        centers = spec.center_array()
        x = np.concatenate([
            centers[c] + spread * ref_rng.normal(0.0, 1.0, (30, 2))
            for c in range(4)
        ])
        y = np.repeat(np.arange(4), 30)
        order = ref_rng.permutation(120)
        assert ds.x.tobytes() == x[order].tobytes()
        assert ds.y.tobytes() == y[order].tobytes()
        assert rng.random() == ref_rng.random()

    def test_default_centers_distinct_and_2d(self):
        spec = BlobSpec(n_classes=5, n_per_class=1)
        centers = spec.center_array()
        assert centers.shape == (5, 2)
        assert len({tuple(c) for c in np.round(centers, 9)}) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 1},
            {"n_per_class": 0},
            {"spread": -1.0},
            {"n_classes": 2, "centers": ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))},
            {"n_classes": 3, "centers": ((0.0, 0.0), (1.0, 0.0), (0.0, 0.0))},
            {"n_classes": 2, "centers": ((0.0, 0.0),)},
            {"n_classes": 2, "centers": ((0.0, 0.0), (0.0, 0.0))},
            {"n_classes": 2, "centers": ((0.0, 0.0), (1.0,))},
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ConfigError):
            BlobSpec(**kwargs)

    def test_separable_blobs_train_to_high_accuracy(self):
        # linearly separable clusters; a few epochs of logistic regression
        # should exceed 0.95 test accuracy
        rng = make_rng(1)
        train = make_blobs(BlobSpec(n_classes=3, n_per_class=100), rng)
        test = make_blobs(BlobSpec(n_classes=3, n_per_class=50), rng)
        spec = ModelSpec(layer_widths=(2, 3))
        params = init_params(spec, rng)
        opt = SGD(learning_rate=0.5)
        for _ in range(40):
            for lo in range(0, len(train), 30):
                x, y = train.x[lo:lo + 30], train.y[lo:lo + 30]
                _, grads = loss_and_backward(params, spec, x, y)
                opt.step(params, grads)
        _, acc = evaluate(params, spec, test.x, test.y)
        assert acc > 0.95


class TestIdx:
    def test_minimal_pair(self, idx_pair):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[1, 3, 5] = 128
        ip, lp = idx_pair(images, [7, 2])
        ds = load_idx(ip, lp)
        assert ds.x.shape == (2, 784)
        assert ds.x[0, 0] == 1.0
        assert ds.x[1, 3 * 28 + 5] == pytest.approx(128 / 255)
        np.testing.assert_array_equal(ds.y, [7, 2])
        assert ds.n_classes == 8

    def test_gzipped_detected_by_content(self, idx_pair):
        ip, lp = idx_pair(np.ones((3, 2, 2), dtype=np.uint8), [0, 1, 0], gz=True)
        ds = load_idx(ip, lp, n_classes=2)
        assert ds.x.shape == (3, 4)
        np.testing.assert_allclose(ds.x, 1 / 255)

    def test_bad_magic(self, tmp_path, idx_pair):
        _, lp = idx_pair(np.zeros((1, 2, 2), dtype=np.uint8), [0])
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">IIII", 0x00000999, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError, match="magic"):
            load_idx(bad, lp)

    def test_label_magic_checked(self, tmp_path, idx_pair):
        ip, _ = idx_pair(np.zeros((1, 2, 2), dtype=np.uint8), [0])
        # image magic in a label file
        bad = tmp_path / "bad_labels.idx"
        bad.write_bytes(struct.pack(">II", 0x00000803, 1) + b"\x00")
        with pytest.raises(FormatError, match="magic"):
            load_idx(ip, bad)

    def test_truncated_payload(self, tmp_path, idx_pair):
        _, lp = idx_pair(np.zeros((1, 2, 2), dtype=np.uint8), [0])
        short = tmp_path / "short.idx"
        short.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(FormatError, match="payload"):
            load_idx(short, lp)

    def test_truncated_header(self, tmp_path, idx_pair):
        _, lp = idx_pair(np.zeros((1, 2, 2), dtype=np.uint8), [0])
        stub = tmp_path / "stub.idx"
        stub.write_bytes(b"\x00\x00")
        with pytest.raises(FormatError, match="header"):
            load_idx(stub, lp)

    def test_images_exist_as_one_float_copy(self, idx_pair):
        # loading and then splitting hold the float64 images once
        images = np.random.default_rng(0).integers(0, 256, (1000, 28, 28))
        ip, lp = idx_pair(images, np.arange(1000) % 10)
        split_train_val(load_idx(ip, lp), make_rng(0))  # one-off imports
        tracemalloc.start()
        try:
            ds = load_idx(ip, lp)
            loaded = tracemalloc.get_traced_memory()[1]
            split_train_val(ds, make_rng(0))
            split = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float64 features and a few copies of the 1-byte pixels
        bound = ds.x.nbytes + 4 * images.size
        assert loaded < bound
        assert split < bound

    def test_one_label_gives_two_classes(self, idx_pair):
        ip, lp = idx_pair(np.zeros((2, 2, 2), dtype=np.uint8), [0, 0])
        assert load_idx(ip, lp).n_classes == 2

    def test_count_mismatch(self, tmp_path):
        ip = tmp_path / "images.idx"
        lp = tmp_path / "labels.idx"
        ip.write_bytes(idx_images(np.zeros((2, 2, 2), dtype=np.uint8)))
        lp.write_bytes(idx_labels([0, 1, 0]))
        with pytest.raises(FormatError, match="2 images but"):
            load_idx(ip, lp)


class TestCsv:
    def test_plain_numeric(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_csv_dataset(p)
        np.testing.assert_allclose(ds.x, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.y, [0, 1])
        assert ds.n_classes == 2

    def test_one_label_gives_two_classes(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,0\n")
        assert load_csv_dataset(p).n_classes == 2

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("f1,f2,label\n1.0,2.0,1\n")
        ds = load_csv_dataset(p, n_classes=3)
        assert len(ds) == 1
        assert ds.n_classes == 3

    def test_features_are_parsed_once_and_held_alone(self, tmp_path):
        rng = make_rng(0)
        x = rng.normal(0, 1, (2000, 20))
        p = tmp_path / "data.csv"
        p.write_text("".join(
            ",".join(map(repr, row)) + f",{label}\n"
            for row, label in zip(x.tolist(), rng.integers(0, 5, 2000).tolist())
        ))
        load_csv_dataset(p)  # the first call's one-off imports and caches
        tracemalloc.start()
        try:
            ds = load_csv_dataset(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ds.x, x)
        # one float64 table of the file, and the features copied out of it
        assert peak < 3 * ds.x.nbytes
        assert ds.x.flags.c_contiguous and ds.x.base is None

    @pytest.mark.parametrize(
        "content",
        ["", "f1,f2,label\n", "1.0,2.0,0\n3.0,1\n", "1.0,2.0,0.5\n", "1.0\n",
         "1.0,2.0,-1\n"],
    )
    def test_rejects_malformed(self, tmp_path, content):
        p = tmp_path / "bad.csv"
        p.write_text(content)
        with pytest.raises(FormatError):
            load_csv_dataset(p)


class TestSplit:
    def test_default_ratio(self):
        ds = Dataset(np.zeros((100, 2)), np.zeros(100, dtype=int) % 2, 2)
        train, val = split_train_val(ds, make_rng(0))
        assert len(train) == 75
        assert len(val) == 25

    def test_partition_is_exact(self):
        ds = Dataset(np.arange(20.0)[:, None], np.zeros(20, dtype=int), 2)
        train, val = split_train_val(ds, make_rng(1))
        combined = sorted(np.concatenate([train.x[:, 0], val.x[:, 0]]))
        assert combined == list(range(20))

    def test_custom_ratio(self):
        ds = Dataset(np.zeros((10, 1)), np.zeros(10, dtype=int), 2)
        train, val = split_train_val(ds, make_rng(0), ratio=(1, 1))
        assert len(train) == 5
        assert len(val) == 5

    def test_halves_are_views_of_the_input(self):
        ds = Dataset(np.arange(40.0).reshape(20, 2), np.arange(20) % 2, 2)
        train, val = split_train_val(ds, make_rng(0))
        for half in (train, val):
            assert np.shares_memory(half.x, ds.x)
            assert np.shares_memory(half.y, ds.y)
        assert len(train) + len(val) == len(ds)

    def test_rows_stay_paired(self):
        x = np.arange(60.0).reshape(30, 2)
        ds = Dataset(x, np.arange(30) % 3, 3)
        for half in split_train_val(ds, make_rng(2)):
            np.testing.assert_array_equal(half.x[:, 1], half.x[:, 0] + 1.0)
            np.testing.assert_array_equal(half.y, (half.x[:, 0] // 2) % 3)

    def test_matches_gathers_by_the_drawn_order(self):
        x = np.random.default_rng(0).normal(size=(30, 3))
        y = np.arange(30) % 3
        train, val = split_train_val(Dataset(x.copy(), y.copy(), 3), make_rng(4))
        order = make_rng(4).permutation(30)
        n_val = len(val)
        assert train.x.tobytes() == x[order[n_val:]].tobytes()
        assert val.x.tobytes() == x[order[:n_val]].tobytes()
        assert train.y.tobytes() == y[order[n_val:]].tobytes()
        assert val.y.tobytes() == y[order[:n_val]].tobytes()

    def test_fresh_copies_split_alike(self):
        x = np.arange(60.0).reshape(30, 2)
        y = np.arange(30) % 2
        a = split_train_val(Dataset(x.copy(), y.copy(), 2), make_rng(7))
        b = split_train_val(Dataset(x.copy(), y.copy(), 2), make_rng(7))
        for a_half, b_half in zip(a, b):
            assert not np.shares_memory(a_half.x, b_half.x)
            np.testing.assert_array_equal(a_half.x, b_half.x)
            np.testing.assert_array_equal(a_half.y, b_half.y)

    def test_deterministic(self):
        ds = Dataset(np.arange(30.0)[:, None], np.zeros(30, dtype=int), 2)
        a_train, _ = split_train_val(ds, make_rng(7))
        b_train, _ = split_train_val(ds, make_rng(7))
        np.testing.assert_array_equal(a_train.x, b_train.x)

    def test_rejects_bad_ratio_and_tiny_data(self):
        ds = Dataset(np.zeros((10, 1)), np.zeros(10, dtype=int), 2)
        with pytest.raises(ConfigError):
            split_train_val(ds, make_rng(0), ratio=(0, 1))
        one = Dataset(np.zeros((1, 1)), np.zeros(1, dtype=int), 2)
        with pytest.raises(DataError):
            split_train_val(one, make_rng(0))
