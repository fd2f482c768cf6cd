"""Layer classes: stochastic binary layers, heads, pooling, and baselines.

Every weight layer (_UnitRows) is an affine map x of its input's rows, then
an activation. A layer with a scale parameter, named by scale_name ("beta"
or "g"), is weight-normalized: x = scale t + bias with t = (w . z)/||w||.
Any other forms x = w . z + bias. One forward forms x and calls the class's
_activate(x, mode, stream) -> (out, slope); one backward multiplies the
upstream gradient by the slope, then takes the plain gradients or the
orthogonal ones of `_normalized_backward` (the rule in `autodiff`), with the
effective weight v = (scale/||w||) w for the input gradient. NsmDense's mean
activation is the firing law P(+1) = 1/2 (1 + erf(x)), NormalizedHead's the
identity, BaselineDense's a table's entry per estimator kind. NsmConv and
SigmoidDetConv are the same layers over im2col patches, whose input gradient
goes through col2im in (kh, kw, C) order.

NsmDense's sampled forward is its own: sign(u), u = noisy product + a s +
b_raw. The noise offset a = beta sqrt(2 Var xi) - E[xi] and the raw bias
b_raw = bias sqrt(2 Var xi) ||w|| are derived from the live arrays, so
scaling a weight row leaves the layer's distribution over outputs unchanged
and the backward of the mean path is its exact derivative.

Every layer exposes:
    forward(z, mode, stream, shared=None) -> (out, cache)   mode: sample, mean, concrete
    backward(cache, upstream, input_grad=True) -> (param grad dict, d_input)
    params() -> dict of live (in-place mutable) arrays
    draws_noise(mode) -> whether forward in that mode draws from its stream
    scale_name -> the name of the parameter that scales t, or None
backward skips the input gradient and returns None for it when input_grad
is False, as the network does for its first layer.

Every layer given a `shared` dict returns (out, None), no backward cache.
It keeps there what the next forward with the same weights computes alike:
the row norms and raw bias, and the product no draw changes
(`_UnitRows._product`) when shared["z"] is its input, as for the first layer
of Monte Carlo passes over one batch. "product" is the only kept key that
depends on the input, so a caller may keep the dict across inputs by
replacing "z" and dropping "product". A caller that has projected z may put
its s and norms there; the forward takes s over.

A product whose rows no backward reads goes through `_UnitRows._times_w`,
which a convolution forms one batch chunk of patches at a time.

A shared-dict forward may take a tuple of per-pass streams, one per Monte
Carlo pass of a group (`Network.passes`). z and the output then carry a
leading pass axis, z's of size one (the same input for every pass) or one
per pass. Each pass draws its own slab from its own stream's generator
(`_per_pass`), so each pass keeps the bits and draws it has alone: dense
products stay stacked per-pass matmuls, and convs fold the pass axis into
the batch.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit  # numerically stable sigmoid

from . import autodiff
from .core import SITE_NEURON, SITE_SYNAPSE, erf_probability, erf_slope, sign_activation
from .errors import ConfigError, DegenerateNoiseError, NormalizationError, ShapeError
from .noise import NoiseModel, a_from_beta, beta_from_noise, sample_noise
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


def _per_unit(value, out: int, fill: float = 0.0) -> np.ndarray:
    """A fresh (out,) float64 array of value broadcast, or of fill if value is None."""
    value = fill if value is None else value
    return np.array(np.broadcast_to(np.asarray(value, dtype=np.float64), (out,)))


def _memo(shared: dict, key: str, make):
    """shared[key], made by make() the first time it is asked for."""
    if key not in shared:
        shared[key] = make()
    return shared[key]


def _kernel_grad(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum over all leading axes of s (..., K) times rows (..., D), as one GEMM."""
    return s.reshape(-1, s.shape[-1]).T @ rows.reshape(-1, rows.shape[-1])


def _normalized_backward(w, scale, norms, rows, t, s, input_grad):
    """(dw, d_scale, v) through x = scale t + bias, t = (rows @ w.T) / ||w_k||.

    s is dL/dx, shaped like t. Parameter gradients sum over all leading axes;
    dw is orthogonal to w row by row (the rule in autodiff.reparam_grads).
    v = (scale/||w||) w is the effective weight, dL/drows = s @ v, or None
    unless input_grad.
    """
    k = w.shape[0]
    d_scale = np.einsum("nk,nk->k", s.reshape(-1, k), t.reshape(-1, k))   # no (N, K) temporary
    dw = autodiff.reparam_grads(w, norms, scale, _kernel_grad(s, rows), d_scale)
    return dw, d_scale, (scale / norms)[:, None] * w if input_grad else None


def glorot(shape, fan_in, fan_out, stream: RngStream) -> np.ndarray:
    gen = stream.generator()
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return std * gen.standard_normal(shape)


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _PCLAMP, 1.0 - _PCLAMP)
    return np.log(p) - np.log1p(-p)


def _per_pass(stream, draw, like):
    """draw(stream, like); for a tuple of per-pass streams, where like has a
    leading pass axis of one or one per pass, each pass's draw(stream, slab of
    like), stacked on that axis: each pass draws from its own generator."""
    if not isinstance(stream, tuple):
        return draw(stream, like)
    slabs = [draw(s, like[i % len(like)]) for i, s in enumerate(stream)]
    return slabs[0][None] if len(slabs) == 1 else np.stack(slabs)   # one pass: no copy


def _uniform(stream, like):
    return stream.generator().random(like.shape)


def _concrete_relax(x: np.ndarray, stream):
    """Binary-concrete relaxation of a unit with erf argument x, lambda = 1.

    X = sigmoid(L + logit(P)) with L = logit(U), U ~ Uniform(0,1), and
    P = erf_probability(x). Returns (out = 2X - 1, pathwise slope factor
    r = X(1-X)/(P(1-P)) so that d out/dx = erf_slope(x) * r).
    """
    p = erf_probability(x)
    gumbel_diff = _logit(_per_pass(stream, _uniform, x))
    relaxed = expit(gumbel_diff + _logit(p))
    pc = np.clip(p, _PCLAMP, 1.0 - _PCLAMP)
    r = relaxed * (1.0 - relaxed) / (pc * (1.0 - pc))
    return 2.0 * relaxed - 1.0, r


# Synapse-site noise and conv patches that no backward reads are made in
# batch chunks of about this many bytes, so memory is bounded by the chunk
# rather than by the batch.
_CHUNK_BYTES = 2 << 20


def _chunk_rows(values_per_row: int) -> int:
    """Batch rows per chunk of float64 rows of values_per_row each; at least one."""
    return max(1, _CHUNK_BYTES // (8 * values_per_row))


def synapse_noise_sum(w: np.ndarray, z: np.ndarray, model: NoiseModel,
                      stream: RngStream) -> np.ndarray:
    """sum_j xi_bij w_ij z_bj for z (B, in): the noisy part of a synapse-site u.

    One generator feeds every batch chunk in order, so xi holds exactly the
    values of sample_noise(model, (B,) + w.shape, stream) in one draw.
    """
    gen = stream.generator()
    rows = _chunk_rows(w.size)
    total = np.empty((z.shape[0], w.shape[0]))
    for lo in range(0, z.shape[0], rows):
        zc = z[lo:lo + rows]
        xi = sample_noise(model, (zc.shape[0],) + w.shape, gen)
        if xi.dtype == bool:
            # a bit-drawn mask: select and sum in one pass, no float copy
            total[lo:lo + rows] = np.einsum("boi,oi,bi->bo", xi, w, zc)
        else:
            xi *= w
            total[lo:lo + rows] = (xi @ zc[:, :, None])[..., 0]
    return total


class _UnitRows:
    """A layer whose units each project the rows of its input: an affine map
    x, then an activation. x = scale t + bias for a layer whose scale
    parameter is named by scale_name, else x = rows @ w.T + bias. The row
    hooks are the dense case; _ConvMaps overrides them for convolutions."""

    _WEIGHT_NDIM, _WEIGHT_LAYOUT = 2, "dense weights must be (out, in)"
    scale_name = None
    bias_trainable = True

    def __init__(self, name: str, w: np.ndarray):
        self.name = name
        self.w = np.array(w, dtype=np.float64)
        if self.w.ndim != self._WEIGHT_NDIM:
            raise ShapeError(f"{self._WEIGHT_LAYOUT}, got {self.w.shape}")

    def _matrix(self) -> np.ndarray:
        """Weights as (units, fan-in)."""
        return self.w

    def _rows(self, z):
        """(vectors each unit projects, output grid): z itself, no grid."""
        return z, None

    def _grid(self, z):
        """The output grid of input z, as _rows gives it."""
        return None

    def _times_w(self, z):
        """(rows(z) @ w.T, grid) for rows that no backward reads: one GEMM."""
        rows, grid = self._rows(z)
        return rows @ self._matrix().T, grid

    def _to_output(self, flat, grid):
        return flat

    def _from_output(self, upstream):
        return upstream

    def _input_grad(self, s, v, cache):
        """dL/dz from s = dL/d(rows @ v.T) (rows-shaped) and the weight v."""
        return s @ v

    def project(self, z):
        """(s, t, norms) of the normalized projection of input z."""
        norms = _row_norms(self._matrix())
        s = self._times_w(z)[0]
        return s, s / norms, norms

    def _product(self, z, shared, op, value):
        """s = rows @ w.T of z finished in place by op(s, value): what no draw
        changes in a sampled pass. Taken from the caller's shared["s"] or made
        from rows that die here, before any noisy rows exist; kept as
        shared["product"] when z is shared["z"]."""
        s = shared.get("product")
        if s is None:
            s = shared.pop("s") if "s" in shared else self._times_w(z)[0]
            op(s, value, out=s)
            if shared.get("z") is z:
                shared["product"] = s
        return s

    def params(self):
        p = {"w": self.w}
        if self.scale_name:
            p[self.scale_name] = getattr(self, self.scale_name)
        if self.bias_trainable:
            p["bias"] = self.bias
        return p

    def draws_noise(self, mode: str) -> bool:
        return False

    def _scaled(self, t):
        """x = scale t + bias."""
        x = t * getattr(self, self.scale_name)
        x += self.bias
        return x

    def _affine(self, z):
        """(s, cache) of a caching forward: s = rows @ w.T, and cache holds x
        and what backward reads."""
        rows, grid = self._rows(z)
        cache = {"rows": rows, "in_shape": z.shape, "grid": grid, "slope": None}
        s = rows @ self._matrix().T
        if self.scale_name is None:
            x = s + self.bias
        else:
            cache["norms"] = _row_norms(self._matrix())
            cache["t"] = s / cache["norms"]
            x = self._scaled(cache["t"])
        cache["x"] = cache["stat"] = x
        return s, cache

    def _shared_affine(self, z, shared):
        """x of z for a forward that keeps no cache, its product by _product."""
        if self.scale_name is None:
            return self._product(z, shared, np.add, self.bias)
        norms = _memo(shared, "norms", lambda: _row_norms(self._matrix()))
        return self._scaled(self._product(z, shared, np.divide, norms))

    @staticmethod
    def _activate(x, mode, stream):
        """(out, the slope d out/dx that backward reads, or None): the identity."""
        return x, None

    def _remade_slope(self, x):
        """A factor of d out/dx that backward makes again from x rather than
        keep, or None."""
        return None

    def forward(self, z, mode: str, stream: RngStream | None = None, shared: dict | None = None):
        z = np.asarray(z, dtype=np.float64)
        if shared is not None:
            out = self._activate(self._shared_affine(z, shared), mode, stream)[0]
            return self._to_output(out, self._grid(z)), None
        cache = self._affine(z)[1]
        out, cache["slope"] = self._activate(cache["x"], mode, stream)
        return self._to_output(out, cache["grid"]), cache

    def backward(self, cache, upstream, input_grad=True):
        s = self._from_output(np.asarray(upstream, dtype=np.float64))
        if cache["slope"] is not None:
            s = s * cache["slope"]
        remade = self._remade_slope(cache["x"])
        if remade is not None:
            remade *= s
            s = remade
        w, rows = self._matrix(), cache["rows"]
        if self.scale_name is None:   # v: the weight the rows meet
            grads, v = {"w": _kernel_grad(s, rows)}, w
        else:
            dw, d_scale, v = _normalized_backward(
                w, getattr(self, self.scale_name), cache["norms"], rows, cache["t"], s,
                input_grad)
            grads = {"w": dw, self.scale_name: d_scale}
        grads["w"] = grads["w"].reshape(self.w.shape)
        if self.bias_trainable:
            grads["bias"] = np.sum(s.reshape(-1, s.shape[-1]), axis=0)
        return grads, self._input_grad(s, v, cache) if input_grad else None


class NsmDense(_UnitRows):
    """Fully connected stochastic binary layer.

    deterministic=True keeps the noise model for the backward surface but
    makes the forward the plain sign of the mean argument (the erf-backward
    deterministic baseline).
    """

    scale_name = "beta"

    def __init__(self, name: str, w: np.ndarray, model: NoiseModel,
                 beta=None, a=None, bias=None, site: str = SITE_NEURON,
                 deterministic: bool = False):
        super().__init__(name, w)
        if site not in (SITE_NEURON, SITE_SYNAPSE):
            raise ConfigError(f"unknown noise site {site!r}")
        self.model = model
        model.scale  # force DegenerateNoiseError now rather than mid-training
        out = self.w.shape[0]
        if beta is not None and a is not None:
            raise ConfigError("give beta or a, not both")
        if beta is None:
            beta = beta_from_noise(model, _per_unit(a, out))
        self.beta = _per_unit(beta, out)
        self.bias = _per_unit(bias, out)
        self.site = site
        self.deterministic = deterministic

    @property
    def a(self) -> np.ndarray:
        """Noise offset of the sampled path, derived from live beta."""
        return a_from_beta(self.model, self.beta)

    def draws_noise(self, mode):
        return mode == MODE_CONCRETE or (mode == MODE_SAMPLE and not self.deterministic)

    def forward(self, z, mode: str, stream: RngStream | None = None, shared: dict | None = None):
        if mode != MODE_SAMPLE or self.deterministic:
            return super().forward(z, mode, stream, shared)
        z = np.asarray(z, dtype=np.float64)
        if shared is not None:
            return self._sample(z, shared, stream), None
        s, cache = self._affine(z)
        return self._sample(z, {"s": s, "norms": cache["norms"]}, stream), cache

    def _activate(self, x, mode, stream):
        if mode == MODE_MEAN:
            return 2.0 * erf_probability(x) - 1.0, None
        if mode == MODE_CONCRETE:
            return _concrete_relax(x, stream)
        if mode == MODE_SAMPLE:   # only a deterministic layer's sampled forward comes here
            return sign_activation(x), None
        raise ConfigError(f"unknown forward mode {mode!r}")

    def _remade_slope(self, x):
        return erf_slope(x)

    def _sample(self, z, shared, stream):
        """sign(u), u = noisy product + a s + b_raw: every sampled forward's
        output, with the norms, a s and b_raw of z (left unchanged) in shared."""
        w = self._matrix()
        norms = _memo(shared, "norms", lambda: _row_norms(w))
        a_s = self._product(z, shared, np.multiply, self.a)
        b_raw = _memo(shared, "b_raw", lambda: self.bias * self.model.scale * norms)
        grid = None
        if self.site == SITE_NEURON:
            u, grid = self._times_w(_per_pass(
                stream, lambda s, zs: sample_noise(self.model, zs.shape, s) * zs, z))
            u += a_s
            u += b_raw
        else:   # synapse: (a s + b_raw) + sum, added in either order
            u = _per_pass(stream, lambda s, zs: synapse_noise_sum(w, zs, self.model, s), z)
            u += a_s + b_raw
        return self._to_output(sign_activation(u, out=u), grid)


class NormalizedHead(_UnitRows):
    """Deterministic weight-normalized linear readout.

    Logits x = beta (w . z)/||w|| + bias: invariant to rescaling w, trained
    with the same orthogonal rule as the stochastic layers (slope 1).
    """

    scale_name = "beta"

    def __init__(self, name: str, w: np.ndarray, beta=None, bias=None,
                 bias_trainable: bool = True):
        super().__init__(name, w)
        out = self.w.shape[0]
        self.beta = _per_unit(beta, out, fill=1.0)
        self.bias = _per_unit(bias, out)
        self.bias_trainable = bias_trainable


# ---------------------------------------------------------------------------
# estimator baselines and the plain readout: one activation per kind

STNN = "stnn"
BINARY_DET = "binary-det"
WNORM_BINARY_DET = "wnorm-binary-det"
NOISY_RECTIFIER = "noisy-rectifier"
SIGMOID_DET = "sigmoid-det"
AFFINE = "affine"

BASELINE_KINDS = (STNN, BINARY_DET, WNORM_BINARY_DET, NOISY_RECTIFIER, SIGMOID_DET)


def _stnn(u, mode, stream):
    p = expit(u)
    if mode == MODE_MEAN:
        out = 2.0 * p - 1.0
    else:
        out = np.where(_per_pass(stream, _uniform, u) < p, 1.0, -1.0)
    return out, 2.0 * p * (1.0 - p)


def _straight_through_sign(u, mode, stream):
    return sign_activation(u), np.abs(u) <= 1.0


def _noisy_rectifier(u, mode, stream):
    act = u if mode == MODE_MEAN else \
        u + _per_pass(stream, lambda s, us: s.generator().standard_normal(us.shape), u)
    return np.maximum(act, 0.0), (act > 0.0).astype(np.float64)


def _sigmoid(u, mode, stream):
    p = expit(u)
    return p, p * (1.0 - p)


# kind -> activation(u, mode, stream) -> (out, d out/du or None)
_ACTIVATIONS = {STNN: _stnn, BINARY_DET: _straight_through_sign,
                WNORM_BINARY_DET: _straight_through_sign,
                NOISY_RECTIFIER: _noisy_rectifier, SIGMOID_DET: _sigmoid,
                AFFINE: _UnitRows._activate}


class BaselineDense(_UnitRows):
    """Dense layer for the comparison estimators and the plain readout.

    stnn: stochastic +-1 states, P(+1)=sigmoid(u), u = w.z, slope 2 sigmoid'.
    binary-det: sign(u), straight-through with hard window |u| <= 1.
    wnorm-binary-det: sign(g t + b), straight-through; g plays beta's role.
    noisy-rectifier: relu(u + N(0,1)), pathwise backward through the mask.
    sigmoid-det: deterministic sigmoid(u) net.
    affine: logits u = w z + b, the readout of the non-normalized baselines.
    """

    def __init__(self, name: str, kind: str, w: np.ndarray, bias=None, g=None):
        if kind not in _ACTIVATIONS:
            raise ConfigError(f"unknown baseline kind {kind!r}")
        super().__init__(name, w)
        self.kind = kind
        out = self.w.shape[0]
        self.bias = _per_unit(bias, out)
        self.bias_trainable = kind != STNN
        if kind == WNORM_BINARY_DET:
            self.scale_name, self.g = "g", _per_unit(g, out, fill=1.0)

    def draws_noise(self, mode):
        return self.kind in (STNN, NOISY_RECTIFIER) and mode != MODE_MEAN

    def _activate(self, x, mode, stream):
        return _ACTIVATIONS[self.kind](x, mode, stream)


# ---------------------------------------------------------------------------
# convolution and spatial plumbing

def im2col(z: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(B, C, H, W) -> patches (B, P, C*kh*kw) plus the output grid shape.

    Patch feature order is (channel, kernel row, kernel col), matching a
    C-order flatten of (K, C, kh, kw) kernels.
    """
    oh, ow = _conv_grid(z.shape, kh, kw, stride, pad)
    if pad:
        z = np.pad(z, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    b, c = z.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(z, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]          # (B, C, oh, ow, kh, kw)
    patches = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c * kh * kw)
    return np.ascontiguousarray(patches), (oh, ow)


def _conv_grid(in_shape, kh: int, kw: int, stride: int, pad: int):
    """(oh, ow), the output grid of a (B, C, H, W) input's im2col."""
    if len(in_shape) != 4:
        raise ShapeError(f"conv input must be (B, C, H, W), got {tuple(in_shape)}")
    h, w = in_shape[2] + 2 * pad, in_shape[3] + 2 * pad
    if h < kh or w < kw:
        raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def col2im(dpatches: np.ndarray, in_shape, kh: int, kw: int, stride: int, pad: int,
           grid) -> np.ndarray:
    """Scatter-add patch gradients back onto the image: the adjoint of im2col
    with each patch's features permuted to (kernel row, kernel col, channel).

    Accumulates channels-last, so each kernel offset adds one (B, oh, ow, C)
    slice of contiguous channel runs.
    """
    b, c, h, w = in_shape
    oh, ow = grid
    dz = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=np.float64)
    dp = dpatches.reshape(b, oh, ow, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            dz[:, i:i + oh * stride:stride, j:j + ow * stride:stride] += dp[:, :, :, i, j]
    dz = dz.transpose(0, 3, 1, 2)
    if pad:
        dz = dz[:, :, pad:-pad, pad:-pad]
    return dz


class _ConvMaps:
    """What a convolution adds to a layer over unit vectors: each output unit
    projects the im2col patches of z, and outputs are (B, K, oh, ow) maps."""

    _WEIGHT_NDIM, _WEIGHT_LAYOUT = 4, "conv weights must be (K, C, kh, kw)"

    def _matrix(self):
        return self.w.reshape(self.w.shape[0], -1)

    def _rows(self, z):
        return im2col(z, self.w.shape[2], self.w.shape[3], self.stride, self.pad)

    def _grid(self, z):
        return _conv_grid(z.shape[-4:], self.w.shape[2], self.w.shape[3], self.stride, self.pad)

    def _times_w(self, z):
        # patches of one batch chunk at a time, within _CHUNK_BYTES unless the
        # chunk is one example; a leading pass axis is folded into the batch.
        # A stacked matmul multiplies each example's patches on its own, so
        # every entry has the unchunked product's bits.
        w, grid = self._matrix(), self._grid(z)
        lead, z = z.shape[:-3], z.reshape((-1,) + z.shape[-3:])
        positions = grid[0] * grid[1]
        out = np.empty((z.shape[0], positions, w.shape[0]))
        step = _chunk_rows(positions * w.shape[1])
        for lo in range(0, z.shape[0], step):
            np.matmul(self._rows(z[lo:lo + step])[0], w.T, out=out[lo:lo + step])
        return out.reshape(lead + out.shape[1:]), grid

    def _to_output(self, flat, grid):
        return np.moveaxis(flat.reshape(flat.shape[:-2] + grid + (-1,)), -1, -3)

    def _from_output(self, upstream):
        b, k = upstream.shape[:2]
        return upstream.transpose(0, 2, 3, 1).reshape(b, -1, k)

    def _input_grad(self, s, v, cache):
        # permuting v's columns to (kh, kw, C) moves whole output columns of
        # the product, so each entry is the same dot product as in s @ v
        k, c, kh, kw = self.w.shape
        v = v.reshape(k, c, kh, kw).transpose(0, 2, 3, 1).reshape(k, -1)
        return col2im(s @ v, cache["in_shape"], kh, kw, self.stride, self.pad,
                      cache["grid"])


class NsmConv(_ConvMaps, NsmDense):
    """Stochastic binary convolution; noise drawn once per input pixel.

    u_k = conv(w_k, xi * z) + a_k conv(w_k, z) + b_raw_k; the row norm of
    kernel k is the l2 norm over all its entries, so the closed-form firing
    probability and the backward rule are the dense ones applied to im2col
    patches.
    """

    def __init__(self, name: str, w: np.ndarray, model: NoiseModel,
                 beta=None, a=None, bias=None, stride: int = 1, pad: int = 0,
                 deterministic: bool = False):
        super().__init__(name, w, model, beta=beta, a=a, bias=bias,
                         deterministic=deterministic)
        self.stride = int(stride)
        self.pad = int(pad)


class SigmoidDetConv(_ConvMaps, BaselineDense):
    """Deterministic conv + sigmoid, the conventional counterpart network."""

    def __init__(self, name: str, w: np.ndarray, bias=None, stride: int = 1, pad: int = 0):
        super().__init__(name, SIGMOID_DET, w, bias=bias)
        self.stride = int(stride)
        self.pad = int(pad)


class _Plumbing:
    """A layer without parameters: its backward is its input gradient alone."""

    scale_name = None

    def __init__(self, name: str):
        self.name = name

    def params(self):
        return {}

    def draws_noise(self, mode):
        return False

    def backward(self, cache, upstream, input_grad=True):
        if not input_grad:
            return {}, None
        return {}, self._input_grad(cache, np.asarray(upstream, np.float64))


class MaxPool2(_Plumbing):
    """2x2 max pooling, stride 2; odd trailing rows/cols are dropped.

    Backward routes the gradient to the position that won the forward max
    (first in the order (0,0), (0,1), (1,0), (1,1) on ties), in sampled and
    mean mode alike.
    """

    _CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))
    # corner index q = 2 i + j, laid out as the (2, ., 2, .) axes of a block view
    _BLOCK_CORNER = np.arange(4).reshape(2, 1, 2, 1)

    def forward(self, z, mode, stream=None, shared=None):
        z = np.asarray(z, dtype=np.float64)
        h2, w2 = z.shape[-2] - z.shape[-2] % 2, z.shape[-1] - z.shape[-1] % 2
        c00, c01, c10, c11 = (z[..., i:h2:2, j:w2:2] for i, j in self._CORNERS)
        out = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
        if shared is not None:
            return out, None
        # first corner equal to the max: 0 if c00 wins, else 1 + (0 if c01 wins, ...)
        arg = (c10 != out).astype(np.int8)
        arg += 1
        arg *= c01 != out
        arg += 1
        arg *= c00 != out
        return out, {"in_shape": z.shape, "arg": arg}

    def _input_grad(self, cache, upstream):
        b, c, h, w = cache["in_shape"]
        # channels-last (B, H/2, 2, W/2, 2, C) blocks, returned as a (B, C, H, W) view
        arg = cache["arg"].transpose(0, 2, 3, 1)[:, :, None, :, None]
        up = upstream.transpose(0, 2, 3, 1)[:, :, None, :, None]
        dz = np.where(arg == self._BLOCK_CORNER, up, 0.0).reshape(b, h - h % 2, w - w % 2, c)
        if h % 2 or w % 2:
            dz = np.pad(dz, ((0, 0), (0, h % 2), (0, w % 2), (0, 0)))
        return dz.transpose(0, 3, 1, 2)


class Flatten(_Plumbing):
    def forward(self, z, mode, stream=None, shared=None):
        z = np.asarray(z, dtype=np.float64)
        return z.reshape(z.shape[:-3] + (-1,)), {"in_shape": z.shape} if shared is None else None

    def _input_grad(self, cache, upstream):
        return upstream.reshape(cache["in_shape"])


class GlobalAvgPool(_Plumbing):
    def forward(self, z, mode, stream=None, shared=None):
        z = np.asarray(z, dtype=np.float64)
        return z.mean(axis=(-2, -1)), {"in_shape": z.shape} if shared is None else None

    def _input_grad(self, cache, upstream):
        b, c, h, w = cache["in_shape"]
        return np.broadcast_to(upstream[:, :, None, None] / (h * w), (b, c, h, w)).copy()
