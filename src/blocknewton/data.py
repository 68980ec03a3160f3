"""Dataset loading: IDX (MNIST-style big-endian), labeled CSV, and seeded
synthetic Gaussian blobs for desk-scale experiments.

Each loader builds its float64 feature matrix once and in place, and
`Dataset.split` returns row views of it, so a run holds the features once
from loading to its last epoch.
"""

from __future__ import annotations

import csv
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_range

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# numpy shapes no array of more than sys.maxsize bytes: this many float64s
MAX_FLOATS = sys.maxsize // 8


class ParseError(ConfigError):
    """Malformed dataset file; message carries the byte/line offset."""


@dataclass
class Dataset:
    """Features in [0, 1], integer class labels, and a train/test split:
    the first n_train rows train and the rest test."""

    features: np.ndarray  # (num_instances, n0) float64
    labels: np.ndarray  # (num_instances,) int
    num_classes: int
    n_train: int

    def __post_init__(self):
        rows = self.features.shape[0]
        if rows != self.labels.shape[0]:
            raise ConfigError("feature/label counts differ")
        check_range("n_train", self.n_train, 0 <= self.n_train <= rows, f"a value in [0, {rows}]")
        # a NaN propagates through both reductions and an infinity is one of
        # them, so this reads like np.isfinite(features).all() without its
        # full-size boolean temporaries
        if self.features.size and not np.isfinite([self.features.min(), self.features.max()]).all():
            raise ConfigError("features contain NaN/Inf")
        if self.labels.size and int(self.labels.max()) >= self.num_classes:
            raise ConfigError("label index exceeds class count")

    @property
    def one_hot(self) -> np.ndarray:
        out = np.zeros((self.labels.shape[0], self.num_classes))
        out[np.arange(self.labels.shape[0]), self.labels] = 1.0
        return out

    def split(self):
        """(x_train, y_train_onehot, x_test, y_test_onehot) as row views.

        x_train and x_test share memory with features, so nothing is copied,
        and writing into x_train writes into the dataset; the two one-hot
        parts are views of one fresh one_hot array."""
        cut = self.n_train
        onehot = self.one_hot
        return self.features[:cut], onehot[:cut], self.features[cut:], onehot[cut:]


def _default_split(n: int, train_fraction: float = 0.8) -> int:
    """The number of leading rows that train."""
    return int(round(n * train_fraction))


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise ParseError(
            f"{path}: truncated header, expected 4 bytes at offset {offset}, "
            f"file has {len(buf)}"
        )
    return struct.unpack_from(">I", buf, offset)[0]


def _read_idx_array(path: str | Path, expected_magic: int) -> np.ndarray:
    buf = Path(path).read_bytes()
    magic = _read_be_u32(buf, 0, str(path))
    if magic != expected_magic:
        raise ParseError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    dims = [_read_be_u32(buf, 4 + 4 * i, str(path)) for i in range(ndim)]
    header = 4 + 4 * ndim
    expected = header + int(np.prod(dims))
    if len(buf) != expected:
        raise ParseError(
            f"{path}: expected {expected} bytes for dims {dims}, got {len(buf)}"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(
    images_path: str | Path,
    labels_path: str | Path,
    train_fraction: float = 0.8,
) -> Dataset:
    """Load an IDX image/label file pair; pixels are scaled by 1/255."""
    images = _read_idx_array(images_path, IDX_IMAGE_MAGIC)
    labels = _read_idx_array(labels_path, IDX_LABEL_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise ParseError(
            f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels"
        )
    features = images.reshape(images.shape[0], -1).astype(float)
    features /= 255.0
    labels = labels.astype(int)
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(features, labels, num_classes, _default_split(images.shape[0], train_fraction))


def write_idx_images(path: str | Path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">I", IDX_IMAGE_MAGIC))
        for d in images.shape:
            f.write(struct.pack(">I", d))
        f.write(images.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    """Write labels as IDX unsigned bytes; a label outside [0, 255] is an error."""
    if np.size(labels) and not 0 <= np.min(labels) <= np.max(labels) <= 255:
        raise ConfigError(
            f"{path}: IDX labels must be in [0, 255], got [{np.min(labels)}, {np.max(labels)}]"
        )
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">I", IDX_LABEL_MAGIC))
        f.write(struct.pack(">I", labels.shape[0]))
        f.write(labels.tobytes())


def load_csv(
    path: str | Path,
    label_column: int,
    has_header: bool = False,
    train_fraction: float = 0.8,
) -> Dataset:
    """Numeric CSV with one integer label column; other columns are features.

    Every data row has as many cells as the first, and its label is a
    non-negative integer below 2**31 ("3" or "3.0"); a row that breaks
    either rule raises ParseError naming its line.  Each row is parsed into
    one float64 array, and the rows are stacked once at the end.
    """
    rows = []
    labels = []
    width = None
    with open(path, newline="") as f:
        for line_no, row in enumerate(csv.reader(f), start=1):
            if (has_header and line_no == 1) or not row:
                continue
            if width is None:
                if not 0 <= label_column < len(row):
                    raise ParseError(f"{path}:{line_no}: label column {label_column} out of range")
                width = len(row)
            elif len(row) != width:
                raise ParseError(
                    f"{path}:{line_no}: {len(row)} cells, but the first row has {width}"
                )
            cell = row.pop(label_column)
            try:
                label = float(cell)
                rows.append(np.fromiter(map(float, row), float, len(row)))
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: non-numeric cell ({exc})") from exc
            if not (0 <= label < 2**31 and label.is_integer()):
                raise ParseError(
                    f"{path}:{line_no}: label {cell!r} is not an integer in [0, 2**31)"
                )
            labels.append(int(label))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    features = np.stack(rows)
    labels_arr = np.asarray(labels, dtype=int)
    num_classes = int(labels_arr.max()) + 1
    return Dataset(features, labels_arr, num_classes, _default_split(len(labels), train_fraction))


def synth_blobs(
    classes: int,
    dim: int,
    per_class: int,
    spread: float,
    seed: int,
    train_fraction: float = 0.8,
) -> Dataset:
    """Gaussian clusters at seeded random centers in [0, 1]^dim.

    Deterministic given the seed; points are clipped to [0, 1] so features
    match the normalized-image contract.
    """
    size = 1
    for name, value in (("classes", classes), ("dim", dim), ("per_class", per_class)):
        check_range(name, value, value >= 1, ">= 1")
        size *= value
        check_range(name, value, size <= MAX_FLOATS, f"classes * dim * per_class <= {MAX_FLOATS}")
    check_range("spread", spread, 0 <= spread <= sys.float_info.max, "a finite number >= 0")
    check_range("seed", seed, seed >= 0, ">= 0")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15, 0.85, size=(classes, dim))
    features = rng.standard_normal((classes, per_class, dim))
    features *= spread
    features += centers[:, None, :]
    features = features.reshape(classes * per_class, dim)
    labels = np.repeat(np.arange(classes), per_class)
    order = rng.permutation(classes * per_class)
    features = features[order]
    np.clip(features, 0.0, 1.0, out=features)
    labels = labels[order]
    return Dataset(features, labels, classes, _default_split(features.shape[0], train_fraction))
