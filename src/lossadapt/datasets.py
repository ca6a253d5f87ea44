"""Dataset construction and loading.

Three ways in: synthetic Gaussian blobs for desk-scale experiments, the
classic IDX image/label pair (big-endian binary, optionally gzipped), and a
plain numeric CSV with the label in the last column. Everything lands in the
same ``Dataset`` container: float64 features (n, d), int64 labels (n,).
"""

from __future__ import annotations

import csv
import gzip
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .models import _check_labels

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Features, integer labels, and the label-domain size."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y)
        if self.x.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.x.shape}")
        if y.shape != (len(self.x),):
            raise DataError(
                f"{len(self.x)} feature rows but {y.shape} labels"
            )
        if self.n_classes < 2:
            raise DataError(f"n_classes must be >= 2, got {self.n_classes}")
        # checked before the int64 cast, so float labels fail, not truncate
        self.y = _check_labels(y, self.n_classes)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


def _permute_rows(order: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Reorder the rows of ``x`` and ``y`` in place so that row i holds what
    row ``order[i]`` held. Each cycle of the permutation is followed from its
    first row, which waits in one row of scratch while the others move up."""
    order = order.tolist()
    moved = bytearray(len(order))
    x_first = np.empty(x.shape[1:], x.dtype)
    for first in range(len(order)):
        if moved[first]:
            continue
        x_first[...] = x[first]
        y_first = y[first]
        i, j = first, order[first]
        while j != first:
            x[i] = x[j]
            y[i] = y[j]
            moved[j] = 1
            i, j = j, order[j]
        x[i] = x_first
        y[i] = y_first


def _circle_centers(n_classes: int, radius: float = 4.0) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(n_classes) / n_classes
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


@dataclass(frozen=True)
class BlobSpec:
    """Gaussian clusters, one per class.

    ``centers`` defaults to n_classes points evenly spaced on a radius-4
    circle, which keeps classes linearly separable at spread 1.
    """

    n_classes: int = 3
    n_per_class: int = 100
    centers: tuple[tuple[float, ...], ...] | None = None
    spread: float = 1.0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"dataset.n_classes must be >= 2, got {self.n_classes}")
        if self.n_per_class < 1:
            raise ConfigError(
                f"dataset.n_per_class must be >= 1, got {self.n_per_class}"
            )
        if self.spread < 0:
            raise ConfigError(f"dataset.spread must be >= 0, got {self.spread}")
        if self.centers is not None:
            object.__setattr__(
                self,
                "centers",
                tuple(tuple(float(v) for v in c) for c in self.centers),
            )
            if len(self.centers) != self.n_classes:
                raise ConfigError(
                    f"dataset.centers: {len(self.centers)} centers for "
                    f"{self.n_classes} classes"
                )
            dims = {len(c) for c in self.centers}
            if len(dims) != 1:
                raise ConfigError("dataset.centers: inconsistent dimensions")
            if len(set(self.centers)) != len(self.centers):
                raise ConfigError("dataset.centers must be pairwise distinct")

    def center_array(self) -> np.ndarray:
        if self.centers is None:
            return _circle_centers(self.n_classes)
        return np.asarray(self.centers, dtype=np.float64)


def make_blobs(spec: BlobSpec, rng: np.random.Generator) -> Dataset:
    """Sample n_per_class points around each class center with isotropic
    Gaussian spread; rows are shuffled so class runs don't leak into
    downstream splits.

    Each class's normals are drawn straight into its rows and scaled and
    shifted there, which gives the values and the stream of ``center +
    spread * rng.normal(0, 1, ...)``; the shuffle is done in place, so the
    features exist once."""
    centers = spec.center_array()
    dim = centers.shape[1]
    n = spec.n_classes * spec.n_per_class
    x = np.empty((n, dim))
    y = np.empty(n, dtype=np.int64)
    for c in range(spec.n_classes):
        lo = c * spec.n_per_class
        hi = lo + spec.n_per_class
        rows = x[lo:hi]
        rng.standard_normal(out=rows)
        rows *= spec.spread
        rows += centers[c]
        y[lo:hi] = c
    _permute_rows(rng.permutation(n), x, y)
    return Dataset(x, y, spec.n_classes)


def _read_binary(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(raw)
        except OSError as exc:
            raise FormatError(f"{path}: bad gzip stream: {exc}") from None
    return raw


def _parse_idx(raw: bytes, path, magic: int, rank: int) -> np.ndarray:
    header = 4 * (1 + rank)
    if len(raw) < header:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    fields = struct.unpack(f">{1 + rank}I", raw[:header])
    if fields[0] != magic:
        raise FormatError(
            f"{path}: bad magic 0x{fields[0]:08x}, expected 0x{magic:08x}"
        )
    dims = fields[1:]
    expected = int(np.prod(dims, dtype=np.int64))
    payload = raw[header:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, header promises "
            f"{expected}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def _class_count(y: np.ndarray) -> int:
    """The class count a label file implies: one past its largest label, and
    never below 2, so a file holding one label (or none) still loads."""
    return max(int(y.max()) + 1, 2) if len(y) else 2


def load_idx(images_path, labels_path, n_classes: int | None = None) -> Dataset:
    """Read an IDX image tensor and label vector pair.

    Images are (count, rows, cols) unsigned bytes, flattened to rows*cols
    features and scaled to [0, 1] (255 -> 1.0). Plain or gzipped files are
    detected by content, not extension.
    """
    images = _parse_idx(_read_binary(images_path), images_path, IDX_IMAGE_MAGIC, 3)
    labels = _parse_idx(_read_binary(labels_path), labels_path, IDX_LABEL_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    n, rows, cols = images.shape
    x = images.reshape(n, rows * cols).astype(np.float64)
    x /= 255.0
    y = labels.astype(np.int64)
    if n_classes is None:
        n_classes = _class_count(y)
    return Dataset(x, y, n_classes)


def load_csv_dataset(path, n_classes: int | None = None) -> Dataset:
    """Numeric CSV, label in the last column; a non-numeric first row is
    treated as a header.

    Each cell is parsed with ``float()`` straight into one float64 array, so
    no row is held as Python objects, and the features are copied out of it
    so that the label column is freed. Bytes that do not decode read as
    U+FFFD, so a row holding them is a bad row, not a decode traceback."""

    def numeric(row):
        try:
            return [float(v) for v in row]
        except ValueError:
            return None

    with open(path, newline="", errors="replace") as fh:
        rows = (row for row in csv.reader(fh) if row)
        first = next(rows, None)
        if first is None:
            raise FormatError(f"{path}: empty file")
        if numeric(first) is None:
            first = next(rows, None)
            if first is None:
                raise FormatError(f"{path}: header but no data rows")
        width = len(first)
        if width < 2:
            raise FormatError(f"{path}: rows need >= 2 columns (features, label)")

        def cells():
            for i, row in enumerate(itertools.chain([first], rows)):
                values = numeric(row)
                if values is None or len(values) != width:
                    raise FormatError(f"{path}: bad row {i + 1}: {row!r}")
                yield from values

        data = np.fromiter(cells(), dtype=np.float64).reshape(-1, width)
    y_raw = data[:, -1]
    if not np.all(y_raw == np.round(y_raw)):
        raise FormatError(f"{path}: last column must hold integer labels")
    y = y_raw.astype(np.int64)
    if y.min() < 0:
        raise FormatError(f"{path}: negative label {y.min()}")
    if n_classes is None:
        n_classes = _class_count(y)
    return Dataset(np.ascontiguousarray(data[:, :-1]), y, n_classes)


def split_train_val(
    dataset: Dataset, rng: np.random.Generator, ratio: tuple[int, int] = (3, 1)
) -> tuple[Dataset, Dataset]:
    """Random split by the given train:val ratio (default 3:1).

    The split consumes its input: the dataset's rows are reordered in place,
    the training rows first, and the two halves returned are views of its
    arrays, so no row is copied."""
    a, b = int(ratio[0]), int(ratio[1])
    if a < 1 or b < 1:
        raise ConfigError(f"train/val ratio parts must be >= 1, got {ratio}")
    n = len(dataset)
    if n < 2:
        raise DataError(f"need >= 2 items to split, got {n}")
    n_val = max(1, (n * b) // (a + b))
    order = rng.permutation(n)
    x, y = dataset.x, dataset.y
    _permute_rows(np.concatenate((order[n_val:], order[:n_val])), x, y)
    n_train = n - n_val
    return (
        Dataset(x[:n_train], y[:n_train], dataset.n_classes),
        Dataset(x[n_train:], y[n_train:], dataset.n_classes),
    )
