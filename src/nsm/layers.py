"""Layer classes: stochastic binary layers, heads, pooling, and baselines.

Parameterization of a stochastic binary layer: the trainable arrays are
(w, beta, bias) where bias is the *normalized* offset b_norm in

    P(+1) = 1/2 (1 + erf(beta t + b_norm)),   t = (w . z) / ||w||.

The noise offset a and the raw additive bias of the sampled path are derived
on the fly from the live arrays (a = beta sqrt(2 Var xi) - E[xi],
b_raw = b_norm sqrt(2 Var xi) ||w||), so scaling a weight row leaves the
layer's distribution over outputs exactly unchanged and the gradient rule in
`autodiff` is the exact derivative of the mean path.

Every layer exposes:
    forward(z, mode, stream) -> (out, cache)   mode in {sample, mean, concrete}
    backward(cache, upstream) -> (param grad dict, d_input)
    params() -> dict of live (in-place mutable) arrays
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit  # numerically stable sigmoid

from . import autodiff
from .core import erf_probability, erf_slope, sign_activation
from .errors import ConfigError, DegenerateNoiseError, NormalizationError, ShapeError
from .noise import NoiseModel, a_from_beta, sample_noise
from .rng import RngStream

MODE_SAMPLE = "sample"
MODE_MEAN = "mean"
MODE_CONCRETE = "concrete"

_PCLAMP = 1e-12


def _row_norms(w: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(w * w, axis=1))
    if np.any(norms == 0.0):
        raise NormalizationError("zero-norm weight row")
    return norms


def glorot(shape, fan_in, fan_out, stream: RngStream) -> np.ndarray:
    gen = stream.generator()
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return std * gen.standard_normal(shape)


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _PCLAMP, 1.0 - _PCLAMP)
    return np.log(p) - np.log1p(-p)


def _concrete_relax(x: np.ndarray, stream: RngStream):
    """Binary-concrete relaxation of a unit with erf argument x, lambda = 1.

    X = sigmoid(L + logit(P)) with L = logit(U), U ~ Uniform(0,1), and
    P = erf_probability(x). Returns (out = 2X - 1, pathwise slope factor
    r = X(1-X)/(P(1-P)) so that d out/dx = erf_slope(x) * r).
    """
    p = erf_probability(x)
    u = stream.generator().random(x.shape)
    gumbel_diff = _logit(u)
    relaxed = expit(gumbel_diff + _logit(p))
    pc = np.clip(p, _PCLAMP, 1.0 - _PCLAMP)
    r = relaxed * (1.0 - relaxed) / (pc * (1.0 - pc))
    return 2.0 * relaxed - 1.0, r


# Synapse-site noise is drawn in batch chunks of about this many bytes, so
# memory is bounded by the chunk rather than by B * out * in.
_SYNAPSE_CHUNK_BYTES = 2 << 20


def _synapse_chunk_rows(w: np.ndarray) -> int:
    return max(1, _SYNAPSE_CHUNK_BYTES // (8 * w.size))


def synapse_noise_sum(w: np.ndarray, z: np.ndarray, model: NoiseModel,
                      stream: RngStream) -> np.ndarray:
    """sum_j xi_bij w_ij z_bj for z (B, in): the noisy part of a synapse-site u.

    One generator feeds every batch chunk in order, so xi holds exactly the
    values of sample_noise(model, (B,) + w.shape, stream) in one draw.
    """
    gen = stream.generator()
    rows = _synapse_chunk_rows(w)
    total = np.empty((z.shape[0], w.shape[0]))
    for lo in range(0, z.shape[0], rows):
        zc = z[lo:lo + rows]
        xi = sample_noise(model, (zc.shape[0],) + w.shape, gen)
        xi *= w
        total[lo:lo + rows] = (xi @ zc[:, :, None])[..., 0]
    return total


class NsmDense:
    """Fully connected stochastic binary layer.

    deterministic=True keeps the noise model for the backward surface but
    makes the forward the plain sign of the mean argument (the erf-backward
    deterministic baseline).
    """

    def __init__(self, name: str, w: np.ndarray, model: NoiseModel,
                 beta=None, a=None, bias=None, site: str = "neuron",
                 deterministic: bool = False):
        self.name = name
        self.w = np.array(w, dtype=np.float64)
        if self.w.ndim != 2:
            raise ShapeError(f"dense weights must be (out, in), got {self.w.shape}")
        self.model = model
        if model.has_additive:
            raise ConfigError("additive noise is not supported on trainable layers")
        model.scale  # force DegenerateNoiseError now rather than mid-training
        out = self.w.shape[0]
        if beta is not None and a is not None:
            raise ConfigError("give beta or a, not both")
        if beta is None:
            a = np.zeros(out) if a is None else np.asarray(a, dtype=np.float64)
            beta = (model.mean + a) / model.scale
        self.beta = np.array(np.broadcast_to(np.asarray(beta, dtype=np.float64), (out,)))
        self.bias = (np.zeros(out) if bias is None
                     else np.array(np.broadcast_to(np.asarray(bias, np.float64), (out,))))
        self.site = site
        self.deterministic = deterministic

    @property
    def a(self) -> np.ndarray:
        """Noise offset of the sampled path, derived from live beta."""
        return a_from_beta(self.model, self.beta)

    def params(self):
        return {"w": self.w, "beta": self.beta, "bias": self.bias}

    def _normalized_argument(self, z: np.ndarray):
        norms = _row_norms(self.w)
        t = (z @ self.w.T) / norms
        x = self.beta * t + self.bias
        return x, t, norms

    def forward(self, z, mode: str, stream: RngStream | None):
        z = np.asarray(z, dtype=np.float64)
        if mode == MODE_MEAN or (self.deterministic and mode != MODE_CONCRETE):
            x, t, norms = self._normalized_argument(z)
            out = sign_activation(x) if self.deterministic and mode != MODE_MEAN \
                else 2.0 * erf_probability(x) - 1.0
            return out, {"z": z, "x": x, "t": t, "norms": norms, "stat": x}
        if mode == MODE_SAMPLE:
            norms = _row_norms(self.w)
            s = z @ self.w.T
            b_raw = self.bias * self.model.scale * norms
            if self.site == "neuron":
                xi = sample_noise(self.model, z.shape, stream)
                u = (xi * z) @ self.w.T + self.a * s + b_raw
            elif self.site == "synapse":
                u = self.a * s + b_raw + synapse_noise_sum(self.w, z, self.model, stream)
            else:
                raise ConfigError(f"unknown noise site {self.site!r}")
            t = s / norms
            x = self.beta * t + self.bias
            return sign_activation(u), {"z": z, "x": x, "t": t, "norms": norms, "stat": x}
        if mode == MODE_CONCRETE:
            x, t, norms = self._normalized_argument(z)
            out, r = _concrete_relax(x, stream)
            return out, {"z": z, "x": x, "t": t, "norms": norms, "stat": x, "relax": r}
        raise ConfigError(f"unknown forward mode {mode!r}")

    def backward(self, cache, upstream):
        upstream = np.asarray(upstream, dtype=np.float64)
        if "relax" in cache:
            upstream = upstream * cache["relax"]
        s = upstream * erf_slope(cache["x"])
        z, t, norms = cache["z"], cache["t"], cache["norms"]
        dv = s.T @ z
        d_beta = np.sum(s * t, axis=0)
        d_bias = np.sum(s, axis=0)
        dw = autodiff.reparam_grads(self.w, norms, self.beta, dv, d_beta)
        dz = s @ ((self.beta / norms)[:, None] * self.w)
        return {"w": dw, "beta": d_beta, "bias": d_bias}, dz


class NormalizedHead:
    """Deterministic weight-normalized linear readout.

    Logits x = beta (w . z)/||w|| + bias: invariant to rescaling w, trained
    with the same orthogonal rule as the stochastic layers (slope 1).
    """

    def __init__(self, name: str, w: np.ndarray, beta=None, bias=None,
                 bias_trainable: bool = True):
        self.name = name
        self.w = np.array(w, dtype=np.float64)
        out = self.w.shape[0]
        self.beta = (np.ones(out) if beta is None
                     else np.array(np.broadcast_to(np.asarray(beta, np.float64), (out,))))
        self.bias = (np.zeros(out) if bias is None
                     else np.array(np.broadcast_to(np.asarray(bias, np.float64), (out,))))
        self.bias_trainable = bias_trainable

    def params(self):
        p = {"w": self.w, "beta": self.beta}
        if self.bias_trainable:
            p["bias"] = self.bias
        return p

    def forward(self, z, mode, stream=None):
        z = np.asarray(z, dtype=np.float64)
        norms = _row_norms(self.w)
        t = (z @ self.w.T) / norms
        x = self.beta * t + self.bias
        return x, {"z": z, "norms": norms}

    def backward(self, cache, upstream):
        s = np.asarray(upstream, dtype=np.float64)
        z, norms = cache["z"], cache["norms"]
        t = (z @ self.w.T) / norms
        dv = s.T @ z
        d_beta = np.sum(s * t, axis=0)
        dw = autodiff.reparam_grads(self.w, norms, self.beta, dv, d_beta)
        dz = s @ ((self.beta / norms)[:, None] * self.w)
        grads = {"w": dw, "beta": d_beta}
        if self.bias_trainable:
            grads["bias"] = np.sum(s, axis=0)
        return grads, dz


class AffineHead:
    """Plain logits = w z + b readout, for the non-normalized baselines."""

    def __init__(self, name: str, w: np.ndarray, bias=None):
        self.name = name
        self.w = np.array(w, dtype=np.float64)
        out = self.w.shape[0]
        self.bias = (np.zeros(out) if bias is None
                     else np.array(np.broadcast_to(np.asarray(bias, np.float64), (out,))))

    def params(self):
        return {"w": self.w, "bias": self.bias}

    def forward(self, z, mode, stream=None):
        z = np.asarray(z, dtype=np.float64)
        return z @ self.w.T + self.bias, {"z": z}

    def backward(self, cache, upstream):
        s = np.asarray(upstream, dtype=np.float64)
        z = cache["z"]
        return {"w": s.T @ z, "bias": np.sum(s, axis=0)}, s @ self.w


# ---------------------------------------------------------------------------
# estimator baselines (dense)

STNN = "stnn"
BINARY_DET = "binary-det"
WNORM_BINARY_DET = "wnorm-binary-det"
NOISY_RECTIFIER = "noisy-rectifier"
SIGMOID_DET = "sigmoid-det"

BASELINE_KINDS = (STNN, BINARY_DET, WNORM_BINARY_DET, NOISY_RECTIFIER, SIGMOID_DET)


class BaselineDense:
    """Dense layer for the comparison estimators.

    stnn: stochastic +-1 states, P(+1)=sigmoid(u), u = w.z, slope 2 sigmoid'.
    binary-det: sign(u), straight-through with hard window |u| <= 1.
    wnorm-binary-det: sign(g t + b), straight-through; g plays beta's role.
    noisy-rectifier: relu(u + N(0,1)), pathwise backward through the mask.
    sigmoid-det: deterministic sigmoid(u) net.
    """

    def __init__(self, name: str, kind: str, w: np.ndarray, bias=None, g=None):
        if kind not in BASELINE_KINDS:
            raise ConfigError(f"unknown baseline kind {kind!r}")
        self.name = name
        self.kind = kind
        self.w = np.array(w, dtype=np.float64)
        out = self.w.shape[0]
        self.has_bias = kind != STNN
        self.bias = (np.zeros(out) if bias is None
                     else np.array(np.broadcast_to(np.asarray(bias, np.float64), (out,))))
        if kind == WNORM_BINARY_DET:
            self.g = (np.ones(out) if g is None
                      else np.array(np.broadcast_to(np.asarray(g, np.float64), (out,))))

    def params(self):
        p = {"w": self.w}
        if self.kind == WNORM_BINARY_DET:
            p["g"] = self.g
        if self.has_bias:
            p["bias"] = self.bias
        return p

    def forward(self, z, mode, stream: RngStream | None = None):
        z = np.asarray(z, dtype=np.float64)
        k = self.kind
        if k == WNORM_BINARY_DET:
            norms = _row_norms(self.w)
            u = self.g * ((z @ self.w.T) / norms) + self.bias
        else:
            u = z @ self.w.T + self.bias
        cache = {"z": z, "u": u, "stat": u}
        if k == STNN:
            p = expit(u)
            if mode == MODE_MEAN:
                return 2.0 * p - 1.0, cache
            draws = stream.generator().random(u.shape)
            return np.where(draws < p, 1.0, -1.0), cache
        if k == BINARY_DET:
            return sign_activation(u), cache
        if k == WNORM_BINARY_DET:
            cache["norms"] = norms
            return sign_activation(u), cache
        if k == NOISY_RECTIFIER:
            if mode == MODE_MEAN:
                act = u
            else:
                act = u + stream.generator().standard_normal(u.shape)
            cache["mask"] = (act > 0.0).astype(np.float64)
            return np.maximum(act, 0.0), cache
        # sigmoid-det
        return expit(u), cache

    def backward(self, cache, upstream):
        upstream = np.asarray(upstream, dtype=np.float64)
        z, u = cache["z"], cache["u"]
        k = self.kind
        if k == STNN:
            p = expit(u)
            s = upstream * (2.0 * p * (1.0 - p))
        elif k in (BINARY_DET, WNORM_BINARY_DET):
            s = upstream * (np.abs(u) <= 1.0)
        elif k == NOISY_RECTIFIER:
            s = upstream * cache["mask"]
        else:  # sigmoid-det
            p = expit(u)
            s = upstream * (p * (1.0 - p))
        if k == WNORM_BINARY_DET:
            norms = cache["norms"]
            t = (z @ self.w.T) / norms
            dv = s.T @ z
            d_g = np.sum(s * t, axis=0)
            dw = autodiff.reparam_grads(self.w, norms, self.g, dv, d_g)
            dz = s @ ((self.g / norms)[:, None] * self.w)
            return {"w": dw, "g": d_g, "bias": np.sum(s, axis=0)}, dz
        grads = {"w": s.T @ z}
        if self.has_bias:
            grads["bias"] = np.sum(s, axis=0)
        return grads, s @ self.w


# ---------------------------------------------------------------------------
# convolution and spatial plumbing

def im2col(z: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(B, C, H, W) -> patches (B, P, C*kh*kw) plus the output grid shape.

    Patch feature order is (channel, kernel row, kernel col), matching a
    C-order flatten of (K, C, kh, kw) kernels.
    """
    if z.ndim != 4:
        raise ShapeError(f"conv input must be (B, C, H, W), got {z.shape}")
    if pad:
        z = np.pad(z, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    b, c, h, w = z.shape
    if h < kh or w < kw:
        raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
    win = np.lib.stride_tricks.sliding_window_view(z, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]          # (B, C, oh, ow, kh, kw)
    oh, ow = win.shape[2], win.shape[3]
    patches = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c * kh * kw)
    return np.ascontiguousarray(patches), (oh, ow)


def col2im(dpatches: np.ndarray, in_shape, kh: int, kw: int, stride: int, pad: int,
           grid) -> np.ndarray:
    """Adjoint of im2col: scatter-add patch gradients back onto the image.

    Accumulates channels-last, so each kernel offset adds one (B, oh, ow, C)
    slice of the patch gradients without a transposed copy.
    """
    b, c, h, w = in_shape
    oh, ow = grid
    dz = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=np.float64)
    dp = dpatches.reshape(b, oh, ow, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            dz[:, i:i + oh * stride:stride, j:j + ow * stride:stride] += dp[..., i, j]
    dz = dz.transpose(0, 3, 1, 2)
    if pad:
        dz = dz[:, :, pad:-pad, pad:-pad]
    return dz


def _kernel_grad(s: np.ndarray, patches: np.ndarray) -> np.ndarray:
    """sum over batch and positions of s (B, P, K) times patches (B, P, D), as one GEMM."""
    return s.reshape(-1, s.shape[-1]).T @ patches.reshape(-1, patches.shape[-1])


class NsmConv:
    """Stochastic binary convolution; noise drawn once per input pixel.

    u_k = conv(w_k, xi * z) + a_k conv(w_k, z) + b_raw_k; the row norm of
    kernel k is the l2 norm over all its entries, so the closed-form firing
    probability and the backward rule are the dense ones applied to im2col
    patches.
    """

    def __init__(self, name: str, w: np.ndarray, model: NoiseModel,
                 beta=None, a=None, bias=None, stride: int = 1, pad: int = 0,
                 deterministic: bool = False):
        self.name = name
        self.w = np.array(w, dtype=np.float64)
        if self.w.ndim != 4:
            raise ShapeError(f"conv weights must be (K, C, kh, kw), got {self.w.shape}")
        self.model = model
        if model.has_additive:
            raise ConfigError("additive noise is not supported on trainable layers")
        model.scale
        k = self.w.shape[0]
        if beta is None:
            a = np.zeros(k) if a is None else np.asarray(a, dtype=np.float64)
            beta = (model.mean + a) / model.scale
        self.beta = np.array(np.broadcast_to(np.asarray(beta, np.float64), (k,)))
        self.bias = (np.zeros(k) if bias is None
                     else np.array(np.broadcast_to(np.asarray(bias, np.float64), (k,))))
        self.stride = int(stride)
        self.pad = int(pad)
        self.deterministic = deterministic

    @property
    def a(self) -> np.ndarray:
        return a_from_beta(self.model, self.beta)

    def params(self):
        return {"w": self.w, "beta": self.beta, "bias": self.bias}

    def _wflat(self):
        k = self.w.shape[0]
        wf = self.w.reshape(k, -1)
        return wf, _row_norms(wf)

    def forward(self, z, mode, stream: RngStream | None):
        z = np.asarray(z, dtype=np.float64)
        kh, kw = self.w.shape[2], self.w.shape[3]
        wf, norms = self._wflat()
        patches, grid = im2col(z, kh, kw, self.stride, self.pad)
        s = patches @ wf.T                                # (B, P, K)
        t = s / norms
        x = self.beta * t + self.bias
        cache = {"in_shape": z.shape, "patches": patches, "grid": grid,
                 "x": x, "t": t, "norms": norms, "stat": x}
        if mode == MODE_MEAN or (self.deterministic and mode != MODE_CONCRETE):
            out = sign_activation(x) if self.deterministic and mode != MODE_MEAN \
                else 2.0 * erf_probability(x) - 1.0
            return self._to_maps(out, grid), cache
        if mode == MODE_SAMPLE:
            xi = sample_noise(self.model, z.shape, stream)
            noisy, _ = im2col(xi * z, kh, kw, self.stride, self.pad)
            b_raw = self.bias * self.model.scale * norms
            u = noisy @ wf.T + self.a * s + b_raw
            return self._to_maps(sign_activation(u), grid), cache
        if mode == MODE_CONCRETE:
            out, r = _concrete_relax(x, stream)
            cache["relax"] = r
            return self._to_maps(out, grid), cache
        raise ConfigError(f"unknown forward mode {mode!r}")

    def _to_maps(self, flat, grid):
        b = flat.shape[0]
        oh, ow = grid
        return flat.reshape(b, oh, ow, -1).transpose(0, 3, 1, 2)

    def backward(self, cache, upstream):
        b = upstream.shape[0]
        k = self.w.shape[0]
        s_flat = np.asarray(upstream, np.float64).transpose(0, 2, 3, 1).reshape(b, -1, k)
        if "relax" in cache:
            s_flat = s_flat * cache["relax"]
        s = s_flat * erf_slope(cache["x"])
        patches, t, norms = cache["patches"], cache["t"], cache["norms"]
        wf = self.w.reshape(k, -1)
        dv = _kernel_grad(s, patches)
        d_beta = np.einsum("bpk,bpk->k", s, t)
        d_bias = np.sum(s, axis=(0, 1))
        dwf = autodiff.reparam_grads(wf, norms, self.beta, dv, d_beta)
        v = (self.beta / norms)[:, None] * wf
        dpatches = s @ v                                  # (B, P, D)
        dz = col2im(dpatches, cache["in_shape"], self.w.shape[2], self.w.shape[3],
                    self.stride, self.pad, cache["grid"])
        return {"w": dwf.reshape(self.w.shape), "beta": d_beta, "bias": d_bias}, dz


class SigmoidDetConv:
    """Deterministic conv + sigmoid, the conventional counterpart network."""

    def __init__(self, name: str, w: np.ndarray, bias=None, stride: int = 1, pad: int = 0):
        self.name = name
        self.w = np.array(w, dtype=np.float64)
        k = self.w.shape[0]
        self.bias = (np.zeros(k) if bias is None
                     else np.array(np.broadcast_to(np.asarray(bias, np.float64), (k,))))
        self.stride = int(stride)
        self.pad = int(pad)
        self.kind = SIGMOID_DET

    def params(self):
        return {"w": self.w, "bias": self.bias}

    def forward(self, z, mode, stream=None):
        z = np.asarray(z, dtype=np.float64)
        k = self.w.shape[0]
        kh, kw = self.w.shape[2], self.w.shape[3]
        patches, grid = im2col(z, kh, kw, self.stride, self.pad)
        u = patches @ self.w.reshape(k, -1).T + self.bias
        b = z.shape[0]
        maps = expit(u).reshape(b, grid[0], grid[1], k).transpose(0, 3, 1, 2)
        return maps, {"in_shape": z.shape, "patches": patches, "grid": grid,
                      "u": u, "stat": u}

    def backward(self, cache, upstream):
        b = upstream.shape[0]
        k = self.w.shape[0]
        s = np.asarray(upstream, np.float64).transpose(0, 2, 3, 1).reshape(b, -1, k)
        p = expit(cache["u"])
        s = s * (p * (1.0 - p))
        dw = _kernel_grad(s, cache["patches"]).reshape(self.w.shape)
        d_bias = np.sum(s, axis=(0, 1))
        dpatches = s @ self.w.reshape(k, -1)
        dz = col2im(dpatches, cache["in_shape"], self.w.shape[2], self.w.shape[3],
                    self.stride, self.pad, cache["grid"])
        return {"w": dw, "bias": d_bias}, dz


class MaxPool2:
    """2x2 max pooling, stride 2; odd trailing rows/cols are dropped.

    Backward routes the gradient to the position that won the forward max
    (first in the order (0,0), (0,1), (1,0), (1,1) on ties), in sampled and
    mean mode alike.
    """

    _CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self, name: str):
        self.name = name

    def params(self):
        return {}

    def forward(self, z, mode, stream=None):
        z = np.asarray(z, dtype=np.float64)
        h2, w2 = z.shape[2] - z.shape[2] % 2, z.shape[3] - z.shape[3] % 2
        c00, c01, c10, c11 = (z[:, :, i:h2:2, j:w2:2] for i, j in self._CORNERS)
        out = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
        # first corner equal to the max: 0 if c00 wins, else 1 + (0 if c01 wins, ...)
        arg = (c10 != out).astype(np.int8)
        arg += 1
        arg *= c01 != out
        arg += 1
        arg *= c00 != out
        return out, {"in_shape": z.shape, "arg": arg}

    def backward(self, cache, upstream):
        b, c, h, w = cache["in_shape"]
        h2, w2 = h - h % 2, w - w % 2
        arg = cache["arg"]
        upstream = np.asarray(upstream, np.float64)
        dz = np.zeros((b, c, h, w), dtype=np.float64)
        for q, (i, j) in enumerate(self._CORNERS):
            dz[:, :, i:h2:2, j:w2:2] = np.where(arg == q, upstream, 0.0)
        return {}, dz


class Flatten:
    def __init__(self, name: str):
        self.name = name

    def params(self):
        return {}

    def forward(self, z, mode, stream=None):
        z = np.asarray(z, dtype=np.float64)
        return z.reshape(z.shape[0], -1), {"in_shape": z.shape}

    def backward(self, cache, upstream):
        return {}, np.asarray(upstream, np.float64).reshape(cache["in_shape"])


class GlobalAvgPool:
    def __init__(self, name: str):
        self.name = name

    def params(self):
        return {}

    def forward(self, z, mode, stream=None):
        z = np.asarray(z, dtype=np.float64)
        return z.mean(axis=(2, 3)), {"in_shape": z.shape}

    def backward(self, cache, upstream):
        b, c, h, w = cache["in_shape"]
        du = np.asarray(upstream, np.float64)[:, :, None, None]
        return {}, np.broadcast_to(du / (h * w), (b, c, h, w)).copy()
