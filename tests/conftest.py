"""Shared fixtures: small datasets and network builders used across files."""

import os

import numpy as np
import pytest

from nsm.data import (LabeledDataset, digit_glyphs_dataset, load_digits_dataset,
                      synthetic_dataset)
from nsm.noise import NoiseModel
from nsm.presets import build_network, parse_preset
from nsm.rng import NS_INIT, RngStream
from nsm.training import data_dependent_init


def mnist_dir() -> str | None:
    """Directory with the four IDX files, or None when not provided."""
    path = os.environ.get("NSM_MNIST_DIR")
    if path and os.path.isdir(path):
        return path
    return None


requires_mnist = pytest.mark.skipif(
    mnist_dir() is None,
    reason="stated protocol needs the MNIST IDX files; set NSM_MNIST_DIR to run",
)


@pytest.fixture(scope="session")
def glyphs():
    """Deterministic 75/25 split of the built-in 8x8 digit glyphs, flat +-1."""
    return digit_glyphs_dataset(seed=0)


@pytest.fixture(scope="session")
def digits():
    """Deterministic 75/25 split of the 8x8 digits set, flat +-1 inputs."""
    pytest.importorskip("sklearn")
    return load_digits_dataset(seed=0)


def split_synthetic(kind: str, train: int, test: int, seed: int, dim: int = 16):
    total = synthetic_dataset(kind, train + test, seed, dim=dim)
    return (LabeledDataset(total.inputs[:train], total.labels[:train],
                           total.num_classes),
            LabeledDataset(total.inputs[train:], total.labels[train:],
                           total.num_classes))


@pytest.fixture(scope="session")
def blobs():
    """Small linearly separable two-class set."""
    return split_synthetic("two-gaussians", 400, 100, seed=7)


def assert_same_bits(got, want):
    """Equal shape, NaN where want has NaN, every other float64 bit pattern equal."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def build_small_net(model="nsm", preset="mlp-16-8-2", seed=0, **kw):
    return build_network(parse_preset(preset), model, NoiseModel.bernoulli(0.5),
                         seed=seed, **kw)


def init_from_data(net, inputs, seed=0):
    data_dependent_init(net, inputs[:100], RngStream(seed).child(NS_INIT, 101))
    return net
