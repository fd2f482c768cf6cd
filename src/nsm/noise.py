"""Multiplicative noise models and the beta mapping.

A NoiseModel describes the per-connection multiplicative noise xi (Gaussian
with mean 1, or Bernoulli). The "beta" of a unit with noise offset a is
(E[xi] + a) / sqrt(2 Var[xi]): the slope of the normalized argument fed to
erf in the closed-form firing probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNoiseError, NoiseModelError
from .rng import RngStream, open_generator

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class NoiseModel:
    kind: str
    param: float

    def __post_init__(self):
        if self.kind == GAUSSIAN:
            if self.param < 0.0:
                raise NoiseModelError(f"gaussian variance must be >= 0, got {self.param}")
        elif self.kind == BERNOULLI:
            if not 0.0 <= self.param <= 1.0:
                raise NoiseModelError(f"bernoulli rate must be in [0, 1], got {self.param}")
        else:
            raise NoiseModelError(f"unknown noise kind {self.kind!r}")

    @classmethod
    def gaussian(cls, sigma2: float) -> "NoiseModel":
        return cls(GAUSSIAN, float(sigma2))

    @classmethod
    def bernoulli(cls, p: float) -> "NoiseModel":
        return cls(BERNOULLI, float(p))

    @property
    def mean(self) -> float:
        """E[xi]."""
        return 1.0 if self.kind == GAUSSIAN else self.param

    @property
    def variance(self) -> float:
        """Var[xi]."""
        if self.kind == GAUSSIAN:
            return self.param
        return self.param * (1.0 - self.param)

    @property
    def scale(self) -> float:
        """sqrt(2 Var[xi]); denominator of the beta mapping."""
        v = self.variance
        if v <= 0.0:
            raise DegenerateNoiseError(
                f"noise model {self.kind}({self.param}) has zero variance; "
                "beta and the probability law are undefined"
            )
        return float(np.sqrt(2.0 * v))


def beta_from_noise(model: NoiseModel, a) -> np.ndarray:
    """beta = (E[xi] + a) / sqrt(2 Var[xi]), elementwise over a."""
    return (model.mean + np.asarray(a, dtype=np.float64)) / model.scale


def a_from_beta(model: NoiseModel, beta) -> np.ndarray:
    """Inverse of beta_from_noise: a = beta * sqrt(2 Var[xi]) - E[xi]."""
    return np.asarray(beta, dtype=np.float64) * model.scale - model.mean


def dyadic_bits(p: float) -> int:
    """The smallest m <= 8 with p 2^m an integer, for 0 < p < 1; else 0."""
    if 0.0 < p < 1.0:
        for m in range(1, 9):
            if (p * 2.0 ** m).is_integer():
                return m
    return 0


def _bit_mask(gen: np.random.Generator, shape, m: int, p: float) -> np.ndarray:
    """Bernoulli(p) mask decided by m raw bits per draw, p = k / 2^m.

    Each leading row takes ceil(n m / 64) whole words (n draws per row),
    read as a bit string, least significant bit of each word first; draw i
    of the row is the m-bit group starting at bit i m, read with its first
    bit least significant, and fires when that value is below k.
    """
    rows, n = (shape[0], math.prod(shape[1:])) if shape else (1, 1)
    words = gen.bit_generator.random_raw((rows, -(-n * m // 64))).view(np.uint8)
    if m == 1:
        # k = 1: a draw fires on a zero bit, so unpack the inverted bits
        bits = np.unpackbits(~words, axis=1, count=n, bitorder="little")
        return bits.view(bool).reshape(shape)
    bits = np.unpackbits(words, axis=1, count=n * m, bitorder="little").reshape(rows, n, m)
    groups = np.packbits(bits, axis=2, bitorder="little")[..., 0]
    return (groups < round(p * 2 ** m)).reshape(shape)


def sample_noise(model: NoiseModel, shape: tuple,
                 source: RngStream | np.random.Generator) -> np.ndarray:
    """Draw the multiplicative noise xi with the given shape.

    Gaussian: 1 + sqrt(sigma^2) * N(0, 1). Bernoulli at a dyadic rate
    p = k / 2^m (m <= 8, 0 < p < 1): a bool mask decided by m raw bits per
    draw (see _bit_mask). Bernoulli at any other rate: {0.0, 1.0} decided by
    one raw word per draw. source is a stream (a fresh generator at its
    start) or an open generator; draws from one generator follow each other
    in C order, and the bit path takes whole words per leading row, so a
    shape drawn in pieces along its first axis gets exactly the values of
    one draw of the whole. Zero-variance models are fine here (they return
    constants); only the closed-form probability path rejects them.
    """
    gen = open_generator(source)
    if model.kind == GAUSSIAN:
        if model.param == 0.0:
            return np.ones(shape, dtype=np.float64)
        return 1.0 + np.sqrt(model.param) * gen.standard_normal(shape)
    m = dyadic_bits(model.param)
    if m:
        return _bit_mask(gen, tuple(shape), m, model.param)
    # the mask of gen.random(shape) < p, decided on the raw words random()
    # is made from: random() = (word >> 11) 2^-53 < p exactly when
    # word < ceil(p 2^53) << 11. At p = 1 that bound is 2^64, out of range,
    # so the words are drawn only to advance the stream.
    if model.param == 1.0:
        gen.bit_generator.random_raw(int(np.prod(shape)), output=False)
        return np.ones(shape, dtype=np.float64)
    bound = np.uint64(math.ceil(model.param * 2.0 ** 53) << 11)
    return (gen.bit_generator.random_raw(shape) < bound).astype(np.float64)
