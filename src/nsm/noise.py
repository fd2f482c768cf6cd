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
from .rng import RngStream

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


def sample_noise(model: NoiseModel, shape,
                 source: RngStream | np.random.Generator) -> np.ndarray:
    """Draw the multiplicative noise xi with the given shape.

    Gaussian: 1 + sqrt(sigma^2) * N(0, 1). Bernoulli: {0.0, 1.0} at rate p.
    source is a stream (a fresh generator at its start) or an open
    generator; draws from one generator follow each other in C order, so a
    shape drawn in pieces along its first axis gets exactly the values of
    one draw of the whole. Zero-variance models are fine here (they return
    constants); only the closed-form probability path rejects them.
    """
    gen = source.generator() if isinstance(source, RngStream) else source
    if model.kind == GAUSSIAN:
        if model.param == 0.0:
            return np.ones(shape, dtype=np.float64)
        return 1.0 + np.sqrt(model.param) * gen.standard_normal(shape)
    # the mask of gen.random(shape) < p, decided on the raw words random()
    # is made from: random() = (word >> 11) 2^-53 < p exactly when
    # word < ceil(p 2^53) << 11. At p = 1 that bound is 2^64, out of range,
    # so the words are drawn only to advance the stream.
    if model.param == 1.0:
        gen.bit_generator.random_raw(int(np.prod(shape)), output=False)
        return np.ones(shape, dtype=np.float64)
    bound = np.uint64(math.ceil(model.param * 2.0 ** 53) << 11)
    return (gen.bit_generator.random_raw(shape) < bound).astype(np.float64)
