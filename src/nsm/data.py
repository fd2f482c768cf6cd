"""Datasets: IDX files, binarization, synthetic generators, the 8x8 digit
sets.

All training inputs are sign-binary (+-1) float64 rows (N, D), which the
network shapes to its input; labels are int64 class indices. LabeledDataset
validates both at construction.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import NS_DATA, RngStream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DataError(f"{self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels")
        if not np.all((self.inputs == 1.0) | (self.inputs == -1.0)):
            raise DataError("inputs must be sign-binary (+-1)")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError(f"labels outside [0, {self.num_classes})")

    def __len__(self):
        return self.inputs.shape[0]


def _open_maybe_gzip(path: str):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx(path: str) -> np.ndarray:
    """Read one IDX file (images uint8 (N,H,W) or labels uint8 (N,)).

    Big-endian headers; gzip-compressed files are detected by magic and
    decompressed transparently. Truncated payloads and unknown magics raise.
    """
    with _open_maybe_gzip(path) as f:
        head = f.read(4)
        if len(head) != 4:
            raise DataError(f"{path}: truncated header")
        (magic,) = struct.unpack(">l", head)
        if magic == IDX_IMAGES_MAGIC:
            dims = struct.unpack(">lll", f.read(12))
            n, h, w = dims
            payload = f.read(n * h * w + 1)
            if len(payload) != n * h * w:
                raise DataError(f"{path}: payload length != {n}x{h}x{w}")
            return np.frombuffer(payload, dtype=np.uint8).reshape(n, h, w)
        if magic == IDX_LABELS_MAGIC:
            (n,) = struct.unpack(">l", f.read(4))
            payload = f.read(n + 1)
            if len(payload) != n:
                raise DataError(f"{path}: payload length != {n}")
            return np.frombuffer(payload, dtype=np.uint8)
        raise DataError(f"{path}: unknown IDX magic 0x{magic:08x}")


def binarize_sign(images: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """uint8 images -> +-1: scale to [0, 1] by /255 and threshold at > 0.5.

    128/255 > 0.5 maps to +1; 127/255 maps to -1.
    """
    scaled = np.asarray(images, dtype=np.float64) / 255.0
    return np.where(scaled > threshold, 1.0, -1.0)


def binarize_unit(values: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Values already in [0, 1] -> +-1 at > threshold."""
    return np.where(np.asarray(values, dtype=np.float64) > threshold, 1.0, -1.0)


def load_mnist_dir(root: str, kind: str = "train") -> LabeledDataset:
    """An MNIST-layout directory of IDX files as (N, 784) inputs; accepts the
    canonical file names with or without .gz. kind is "train" or "t10k"."""
    def find(stem):
        for name in (stem, stem + ".gz"):
            p = os.path.join(root, name)
            if os.path.exists(p):
                return p
        raise DataError(f"missing {stem}[.gz] under {root}")

    images = load_idx(find(f"{kind}-images-idx3-ubyte"))
    labels = load_idx(find(f"{kind}-labels-idx1-ubyte")).astype(np.int64)
    return LabeledDataset(binarize_sign(images).reshape(len(images), -1), labels, 10)


def synthetic_dataset(kind: str, n: int, seed: int, dim: int = 16) -> LabeledDataset:
    """Seeded synthetic binary classification sets of (n, dim) inputs.

    two-gaussians: class means +-3 sigma apart per feature, sign-binarized;
    linearly separable with margin, so tiny models learn it in a few epochs.
    xor-blobs: first two features carry an XOR parity pattern (exact
    corners), the rest are fair coin flips; no linear rule beats chance by
    a wide margin, so solving it requires the hidden layer.
    """
    gen = RngStream(seed).child(NS_DATA).generator()
    labels = gen.integers(0, 2, size=n).astype(np.int64)
    if kind == "two-gaussians":
        means = np.where(labels[:, None] == 1, 1.5, -1.5)
        raw = means + gen.standard_normal((n, dim)) * 0.5
        x = np.where(raw > 0.0, 1.0, -1.0)
    elif kind == "xor-blobs":
        if dim < 2:
            raise DataError(f"xor-blobs needs dim >= 2, got {dim}")
        a = gen.integers(0, 2, size=n)
        b = (a ^ labels).astype(np.int64)
        rest = np.where(gen.random((n, dim - 2)) < 0.5, 1.0, -1.0)
        x = np.concatenate([
            np.where(a[:, None] == 1, 1.0, -1.0),
            np.where(b[:, None] == 1, 1.0, -1.0),
            rest], axis=1)
    else:
        raise DataError(f"unknown synthetic dataset {kind!r}")
    return LabeledDataset(x, labels, 2)


def _seeded_split(images: np.ndarray, labels: np.ndarray, seed: int,
                  test_fraction: float):
    """Seeded (train, test) LabeledDatasets of (N, 8, 8) +-1 images with 10
    classes, flattened to (N, 64): the first round(N * test_fraction) entries
    of one seeded permutation form the test set."""
    n = images.shape[0]
    order = RngStream(seed).child(NS_DATA, 1).generator().permutation(n)
    n_test = int(round(n * test_fraction))
    test_idx, train_idx = order[:n_test], order[n_test:]
    x = images.reshape(n, -1)
    return (LabeledDataset(x[train_idx], labels[train_idx], 10),
            LabeledDataset(x[test_idx], labels[test_idx], 10))


def load_digits_dataset(seed: int = 0, test_fraction: float = 0.25):
    """sklearn's bundled 8x8 digits, binarized, seeded 75/25 split.

    Returns (train, test) LabeledDatasets. Raises DataError if scikit-learn
    is not installed.
    """
    try:
        from sklearn.datasets import load_digits
    except ImportError as e:
        raise DataError("scikit-learn is required for the digits dataset") from e
    bunch = load_digits()
    return _seeded_split(binarize_unit(bunch.images / 16.0),
                         bunch.target.astype(np.int64), seed, test_fraction)


# 8x8 bit templates of the digits 0-9, side by side ('#' ink -> +1, '.'
# background -> -1). Each keeps a blank one-pixel border, so a one-pixel
# shift never moves ink off the grid.
_DIGIT_GLYPHS = """
    ........ ........ ........ ........ ........ ........ ........ ........ ........ ........
    ..####.. ...##... ..####.. .#####.. .#...#.. .######. ...###.. .######. ..####.. ..####..
    .#....#. ..###... .#....#. ......#. .#...#.. .#...... ..#..... ......#. .#....#. .#....#.
    .#....#. .#.##... .....#.. ...###.. .#...#.. .#...... .#...... .....#.. ..####.. ..#####.
    .#....#. ...##... ....#... ......#. .######. .#####.. .#####.. ....#... .#....#. ......#.
    .#....#. ...##... ...#.... ......#. .....#.. ......#. .#....#. ...#.... .#....#. .....#..
    ..####.. .######. .######. .#####.. .....#.. .#####.. ..####.. ...#.... ..####.. ..###...
    ........ ........ ........ ........ ........ ........ ........ ........ ........ ........
"""

GLYPH_SAMPLES = 1797      # the size of sklearn's digits set
GLYPH_MAX_SHIFT = 1       # pixels per axis
GLYPH_FLIP_RATE = 0.1     # per-pixel sign-flip probability
GLYPH_TEST_FRACTION = 0.25


def digit_glyphs_dataset(seed: int = 0):
    """Seeded, dependency-free 10-class 8x8 +-1 set; the offline desk data.

    GLYPH_SAMPLES samples with balanced labels (class counts differ by at
    most one). Each sample is its class template shifted by an independent
    seeded offset in [-GLYPH_MAX_SHIFT, GLYPH_MAX_SHIFT] per axis (vacated
    pixels are background), then each pixel's sign is flipped independently
    with probability GLYPH_FLIP_RATE. Split (GLYPH_TEST_FRACTION held out)
    and shapes as load_digits_dataset: returns (train, test) LabeledDatasets.
    """
    lines = [line.split() for line in _DIGIT_GLYPHS.strip().splitlines()]
    ink = np.array([[list(glyph) for glyph in line] for line in lines]) == "#"
    templates = np.where(ink.transpose(1, 0, 2), 1.0, -1.0)
    n = GLYPH_SAMPLES
    labels = np.arange(n, dtype=np.int64) % 10
    gen = RngStream(seed).child(NS_DATA, 2).generator()
    shifts = gen.integers(-GLYPH_MAX_SHIFT, GLYPH_MAX_SHIFT + 1, size=(n, 2))
    flips = gen.random((n, 8, 8)) < GLYPH_FLIP_RATE
    m = GLYPH_MAX_SHIFT
    padded = np.pad(templates, ((0, 0), (m, m), (m, m)),
                    constant_values=-1.0)[labels]
    grid = np.arange(8)
    rows = grid[None, :] + m - shifts[:, :1]
    cols = grid[None, :] + m - shifts[:, 1:]
    images = padded[np.arange(n)[:, None, None], rows[:, :, None],
                    cols[:, None, :]]
    images = np.where(flips, -images, images)
    return _seeded_split(images, labels, seed, GLYPH_TEST_FRACTION)
