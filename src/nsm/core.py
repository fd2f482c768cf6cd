"""Closed-form probability law and the sampled preactivation.

A binary unit i with weights w_i, noise offset a_i and raw bias b_i sees

    u_i = sum_j (xi_ij + a_i) w_ij z_j + b_i,    z = sign(u)

with xi multiplicative noise. Because z_j in {-1, +1} implies z_j^2 = 1, the
central-limit closed form of the firing probability is

    P(z_i = +1 | z) = 1/2 (1 + erf( E[u_i] / sqrt(2 Var[u_i]) ))
    E[u_i]   = (E[xi] + a_i) (w_i . z) + b_i
    Var[u_i] = Var[xi] ||w_i||^2

that is 1/2 (1 + erf(beta_i (w_i.z)/||w_i|| + b_norm_i)): the network
self-normalizes by the weight-row norm.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import NormalizationError, ShapeError
from .noise import NoiseModel, sample_noise
from .rng import RngStream

SITE_NEURON = "neuron"
SITE_SYNAPSE = "synapse"

# d/dx of (2P-1) = erf(x): 2/sqrt(pi) exp(-x^2)
ERF_SLOPE0 = 2.0 / np.sqrt(np.pi)


def sign_activation(u, out=None) -> np.ndarray:
    """Binary threshold: +1 where u >= 0, else -1 (zero maps to +1).

    Written into out when given, which may be u itself.
    """
    if out is None:
        out = np.array(np.asarray(u) >= 0, dtype=np.float64)
    else:
        np.greater_equal(u, 0, out=out)
    out *= 2.0
    out -= 1.0
    return out


def erf_probability(x) -> np.ndarray:
    """P = 1/2 (1 + erf(x)); the firing probability at normalized argument x."""
    return 0.5 * (1.0 + erf(np.asarray(x, dtype=np.float64)))


def erf_slope(x) -> np.ndarray:
    """d(2P - 1)/dx = 2/sqrt(pi) exp(-x^2); the backward surrogate slope."""
    x = np.asarray(x, dtype=np.float64)
    out = np.multiply(x, x, out=np.empty(x.shape))   # an array even for 0-d x
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= ERF_SLOPE0
    return out


def _check_wz(w: np.ndarray, z: np.ndarray):
    if w.ndim != 2:
        raise ShapeError(f"weights must be 2-d (out, in), got shape {w.shape}")
    if z.shape[-1] != w.shape[1]:
        raise ShapeError(f"fan-in mismatch: weights expect {w.shape[1]}, inputs have {z.shape[-1]}")


def preactivation(w, z, a, b, model: NoiseModel, stream: RngStream,
                  site: str = SITE_NEURON) -> np.ndarray:
    """Sampled membrane sum u for a dense layer.

    w: (out, in); z: (in,) or (batch, in); a, b: scalars or (out,).
    site "neuron" draws one xi per (sample, input); "synapse" draws one per
    (sample, output, input). Returns u with shape z.shape[:-1] + (out,).
    """
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    _check_wz(w, z)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    single = z.ndim == 1
    zb = z[None, :] if single else z.reshape(-1, z.shape[-1])

    if site == SITE_NEURON:
        xi = sample_noise(model, zb.shape, stream)
        u = (xi * zb) @ w.T + a * (zb @ w.T)
    elif site == SITE_SYNAPSE:
        from .layers import synapse_noise_sum  # layers imports this module
        u = a * (zb @ w.T) + synapse_noise_sum(w, zb, model, stream)
    else:
        raise ShapeError(f"unknown noise site {site!r}")
    u = u + b
    out = u[0] if single else u.reshape(z.shape[:-1] + (w.shape[0],))
    return out


def activation_probability(w, z, a, b, model: NoiseModel) -> np.ndarray:
    """Closed-form P(z_out = +1 | z) for binary inputs z in {-1, +1}.

    Computes 1/2 (1 + erf(E[u]/sqrt(2 Var[u]))) with the moments given in
    the module docstring. Raises NormalizationError when a weight row has
    zero norm and DegenerateNoiseError when the noise has zero variance.
    """
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    _check_wz(w, z)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    model.scale  # raises DegenerateNoiseError when the noise has no variance
    var_u = model.variance * np.sum(w * w, axis=1)
    if np.any(var_u == 0.0):
        raise NormalizationError("zero-norm weight row: normalized argument undefined")
    mean_u = (model.mean + a) * (z @ w.T) + b
    x = mean_u / np.sqrt(2.0 * var_u)
    return erf_probability(x)
