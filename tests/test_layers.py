"""Layer forwards/backwards: delegation to the core formulas, convolution
against a direct per-pixel loop, pooling, and the comparison estimators.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom

from nsm import layers
from nsm.autodiff import fd_against, reparam_grads
from nsm.core import (activation_probability, erf_probability, erf_slope,
                      preactivation, sign_activation)
from nsm.errors import ConfigError, ShapeError
from nsm.layers import (AFFINE, BASELINE_KINDS, MODE_CONCRETE, MODE_MEAN, MODE_SAMPLE,
                        BaselineDense, Flatten, GlobalAvgPool, MaxPool2,
                        NormalizedHead, NsmConv, NsmDense, SigmoidDetConv,
                        _chunk_rows, _logit, col2im, im2col)
from nsm.network import cross_entropy_dlogits, softmax
from nsm.noise import NoiseModel, beta_from_noise, sample_noise
from nsm.presets import build_network, parse_preset
from nsm.rng import NS_NOISE, RngStream
from tests.conftest import assert_same_bits


def mk_dense(seed=0, out=3, fan=6, **kw):
    rng = np.random.default_rng(seed)
    return NsmDense(f"d{seed}", rng.normal(size=(out, fan)),
                    NoiseModel.bernoulli(0.5), **kw)


class TestNsmDenseForward:

    def test_mean_mode_delegates_to_closed_form(self):
        layer = mk_dense(seed=0, bias=np.array([0.1, -0.2, 0.0]))
        rng = np.random.default_rng(1)
        z = rng.choice([-1.0, 1.0], size=(5, 6))
        out, cache = layer.forward(z, MODE_MEAN, None)
        # normalized bias b maps onto a raw bias b * sqrt(2 Var) * ||w||
        norms = np.linalg.norm(layer.w, axis=1)
        b_raw = layer.bias * layer.model.scale * norms
        p = activation_probability(layer.w, z, layer.a, b_raw, layer.model)
        np.testing.assert_allclose(out, 2.0 * p - 1.0, atol=1e-13)

    def test_sample_mode_is_binary(self):
        layer = mk_dense(seed=2)
        z = np.random.default_rng(3).choice([-1.0, 1.0], size=(10, 6))
        out, _ = layer.forward(z, MODE_SAMPLE, RngStream(0).child(NS_NOISE))
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_sample_firing_rate_matches_probability(self):
        # identical rows get independent noise, so one big batch estimates P;
        # fan-in 64 keeps the central-limit form accurate
        rng = np.random.default_rng(5)
        layer = NsmDense("d", rng.normal(size=(3, 64)) / 8.0,
                         NoiseModel.bernoulli(0.5),
                         bias=np.array([0.05, 0.0, -0.1]))
        z_row = rng.choice([-1.0, 1.0], size=64)
        z = np.tile(z_row, (200000, 1))
        out, _ = layer.forward(z, MODE_SAMPLE, RngStream(1).child(NS_NOISE))
        p_hat = (out > 0).mean(axis=0)
        p, _ = layer.forward(z_row[None, :], MODE_MEAN, None)
        np.testing.assert_allclose(p_hat, (p[0] + 1) / 2, atol=5e-3)

    @pytest.mark.parametrize("site", ["neuron", "synapse"])
    @pytest.mark.parametrize("p", [0.5, 0.25, 0.3])
    @pytest.mark.parametrize("fan_in", [5, 9, 16])
    def test_firing_law_over_every_mask(self, fan_in, p, site):
        """At a small fan-in the exact P(+1) sums the law of all 2^n Bernoulli
        masks, with no central limit in it. The sampled counts must lie in the
        binomial 1 - 1e-9 interval of that P. The closed form must lie within
        the Berry-Esseen bound for non-identical summands, 0.56 sum(rho) /
        sigma^3 (Shevtsova 2010), of the exact P. That bound exceeds the true
        gap by far at these fan-ins, so it catches a wrong firing law, not the
        central limit's own error."""
        rng = np.random.default_rng([fan_in, int(100 * p)])
        units, draws = 3, 20000
        w, z = rng.normal(size=(units, fan_in)), rng.choice([-1.0, 1.0], size=fan_in)
        signs = rng.choice([-1.0, 1.0], size=(2, units))
        layer = NsmDense("d", w, NoiseModel.bernoulli(p), a=signs[0] * rng.uniform(0.1, 0.4, units),
                         bias=signs[1] * rng.uniform(0.05, 0.3, units), site=site)
        masks = (np.arange(2 ** fan_in)[:, None] >> np.arange(fan_in)) & 1
        law = np.prod(np.where(masks == 1, p, 1.0 - p), axis=1)
        b_raw = layer.bias * layer.model.scale * np.linalg.norm(w, axis=1)
        u = (masks * z) @ w.T + layer.a * (w @ z) + b_raw          # (2^n, units)
        exact = np.minimum(law @ (u >= 0.0), 1.0)   # sign(0) is +1; the sum may round above 1
        out, _ = layer.forward(np.tile(z, (draws, 1)), MODE_SAMPLE, RngStream(9).child(NS_NOISE))
        lo, hi = binom.interval(1.0 - 1e-9, draws, exact)
        fired = np.sum(out > 0, axis=0)
        assert np.all((lo <= fired) & (fired <= hi))
        closed = (layer.forward(z[None, :], MODE_MEAN, None)[0][0] + 1.0) / 2.0
        wz = np.abs(w * z)
        rho = np.sum(wz ** 3, axis=1) * p * (1 - p) * (p * p + (1 - p) ** 2)
        sigma = np.sqrt(p * (1 - p) * np.sum(wz ** 2, axis=1))
        assert np.all(np.abs(exact - closed) <= 0.56 * rho / sigma ** 3)

    def test_same_stream_same_sample(self):
        layer = mk_dense(seed=6)
        z = np.random.default_rng(7).choice([-1.0, 1.0], size=(8, 6))
        s = RngStream(2).child(NS_NOISE, 5)
        a, _ = layer.forward(z, MODE_SAMPLE, s)
        b, _ = layer.forward(z, MODE_SAMPLE, s)
        np.testing.assert_array_equal(a, b)

    def test_deterministic_layer_signs_the_argument(self):
        layer = mk_dense(seed=8, deterministic=True)
        z = np.random.default_rng(9).choice([-1.0, 1.0], size=(5, 6))
        out, cache = layer.forward(z, MODE_SAMPLE, RngStream(0))
        np.testing.assert_array_equal(out, sign_activation(cache["x"]))

    # rejected when built: mean forwards and a deterministic (binary-erf)
    # network never reach the sampled path that reads the site
    def test_unknown_site_rejected_when_built(self):
        with pytest.raises(ConfigError, match="'synaps'"):
            mk_dense(site="synaps")
        with pytest.raises(ConfigError, match="'bogus'"):
            build_network(parse_preset("mlp-16-8-2"), "binary-erf", site="bogus")

    def test_beta_and_a_parameterizations_agree(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(3, 6))
        m = NoiseModel.bernoulli(0.5)
        a = np.array([0.0, 0.2, -0.1])
        la = NsmDense("a", w, m, a=a)
        lb = NsmDense("b", w, m, beta=beta_from_noise(m, a))
        np.testing.assert_allclose(la.beta, lb.beta, atol=1e-15)
        np.testing.assert_allclose(la.a, a, atol=1e-15)
        with pytest.raises(ConfigError):
            NsmDense("c", w, m, a=a, beta=la.beta)

    def test_scale_invariance_of_mean_forward(self):
        layer = mk_dense(seed=11, bias=np.array([0.3, -0.4, 0.0]))
        z = np.random.default_rng(12).choice([-1.0, 1.0], size=(7, 6))
        out1, _ = layer.forward(z, MODE_MEAN, None)
        layer.w *= 40.0
        out2, _ = layer.forward(z, MODE_MEAN, None)
        np.testing.assert_allclose(out2, out1, atol=1e-12)

    def test_synapse_site_forward_is_binary_and_reproducible(self):
        layer = mk_dense(seed=13, site="synapse")
        z = np.random.default_rng(14).choice([-1.0, 1.0], size=(4, 6))
        s = RngStream(3).child(NS_NOISE)
        a, _ = layer.forward(z, MODE_SAMPLE, s)
        b, _ = layer.forward(z, MODE_SAMPLE, s)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {-1.0, 1.0}


class TestSynapseChunks:
    """The chunked synapse-site sum against one full (B, out, in) noise tensor."""

    @staticmethod
    def layer(shape, model, seed=21):
        rng = np.random.default_rng(seed)
        out, fan = shape
        w = rng.normal(size=shape) * np.sqrt(2.0 / (out + fan))
        return NsmDense("syn", w, model, a=0.1 * rng.normal(size=out),
                        bias=0.1 * rng.normal(size=out), site="synapse")

    @pytest.mark.parametrize("model", [NoiseModel.bernoulli(0.5), NoiseModel.gaussian(0.3)],
                             ids=["bernoulli", "gaussian"])
    @pytest.mark.parametrize("shape", [(300, 784), (30, 40)])
    def test_forward_matches_full_tensor(self, shape, model):
        layer = self.layer(shape, model)
        rows = _chunk_rows(layer.w.size)
        assert (rows == 1) == (shape == (300, 784))
        norms = np.sqrt(np.sum(layer.w * layer.w, axis=1))
        b_raw = layer.bias * model.scale * norms
        rng = np.random.default_rng(22)
        for b in sorted({1, rows - 1, rows + 1, 37} - {0}):
            z = rng.choice([-1.0, 1.0], size=(b, shape[1]))
            stream = RngStream(8).child(NS_NOISE, b)
            xi = sample_noise(model, (b,) + shape, stream)
            want = np.einsum("boi,oi,bi->bo", xi + layer.a[:, None], layer.w, z) + b_raw
            del xi
            got, _ = layer.forward(z, MODE_SAMPLE, stream)
            np.testing.assert_array_equal(got, sign_activation(want))
            u = preactivation(layer.w, z, layer.a, b_raw, model, stream, site="synapse")
            np.testing.assert_allclose(u, want, rtol=0.0, atol=1e-12)

    def test_forward_memory_is_bounded_by_the_chunk(self):
        layer = self.layer((300, 784), NoiseModel.bernoulli(0.5))
        z = np.random.default_rng(23).choice([-1.0, 1.0], size=(64, 784))
        tracemalloc.start()
        try:
            layer.forward(z, MODE_SAMPLE, RngStream(9).child(NS_NOISE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full noise tensor alone would be 64 * 300 * 784 * 8 B = 115 MiB
        assert peak < 16 * 2 ** 20


class TestBinaryConcrete:

    def test_relaxation_arithmetic_pins(self):
        # X = sigmoid(logit(U) + logit(P)): U = 1/2 gives X = P exactly,
        # and U = 1/4, P = 0.7 gives odds (1/3)(7/3) = 7/9 -> X = 0.4375
        np.testing.assert_allclose(expit(_logit(np.array(0.5)) +
                                         _logit(np.array(1 / 3))), 1 / 3,
                                   atol=1e-15)
        np.testing.assert_allclose(expit(_logit(np.array(0.25)) +
                                         _logit(np.array(0.7))), 0.4375,
                                   atol=1e-15)

    def test_concrete_forward_matches_manual_replay(self):
        layer = mk_dense(seed=15)
        z = np.random.default_rng(16).choice([-1.0, 1.0], size=(5, 6))
        s = RngStream(4).child(NS_NOISE, 9)
        out, cache = layer.forward(z, MODE_CONCRETE, s)
        p = erf_probability(cache["x"])
        u = s.generator().random(cache["x"].shape)
        relaxed = expit(_logit(u) + _logit(p))
        np.testing.assert_allclose(out, 2 * relaxed - 1, atol=1e-12)
        assert np.all(np.abs(out) < 1.0)
        np.testing.assert_allclose(cache["slope"],
                                   relaxed * (1 - relaxed) / (p * (1 - p)),
                                   atol=1e-12)

    def test_concrete_backward_is_relax_scaled_mean_backward(self):
        layer = mk_dense(seed=17)
        rng = np.random.default_rng(18)
        z = rng.choice([-1.0, 1.0], size=(5, 6))
        upstream = rng.normal(size=(5, 3))
        _, cc = layer.forward(z, MODE_CONCRETE, RngStream(5).child(NS_NOISE))
        _, cm = layer.forward(z, MODE_MEAN, None)
        gc, dzc = layer.backward(cc, upstream)
        gm, dzm = layer.backward(cm, upstream * cc["slope"])
        for k in gm:
            np.testing.assert_allclose(gc[k], gm[k], atol=1e-12)
        np.testing.assert_allclose(dzc, dzm, atol=1e-12)


class TestBaselineDense:

    def test_stnn_mean_forward_and_slope(self):
        rng = np.random.default_rng(19)
        layer = BaselineDense("s", "stnn", rng.normal(size=(3, 5)))
        z = rng.choice([-1.0, 1.0], size=(6, 5))
        out, cache = layer.forward(z, MODE_MEAN, None)
        np.testing.assert_allclose(out, 2 * expit(z @ layer.w.T) - 1,
                                   atol=1e-14)
        assert "bias" not in layer.params()
        upstream = rng.normal(size=(6, 3))
        grads, _ = layer.backward(cache, upstream)

        def loss():
            m, _ = layer.forward(z, MODE_MEAN, None)
            return float(np.sum(upstream * m))

        assert fd_against(loss, [layer.w], [grads["w"]], h=1e-6) < 1e-8

    def test_stnn_sample_rate(self):
        rng = np.random.default_rng(20)
        layer = BaselineDense("s", "stnn", rng.normal(size=(2, 4)) * 0.5)
        z_row = rng.choice([-1.0, 1.0], size=4)
        z = np.tile(z_row, (100000, 1))
        out, _ = layer.forward(z, MODE_SAMPLE, RngStream(6).child(NS_NOISE))
        assert set(np.unique(out)) <= {-1.0, 1.0}
        np.testing.assert_allclose((out > 0).mean(axis=0),
                                   expit(z_row @ layer.w.T), atol=6e-3)

    def test_binary_det_straight_through_window(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        layer = BaselineDense("b", "binary-det", w)
        z = np.array([[0.5, 3.0]])          # u = [0.5, 3.0]
        out, cache = layer.forward(z, MODE_SAMPLE, None)
        np.testing.assert_array_equal(out, [[1.0, 1.0]])
        upstream = np.array([[1.0, 1.0]])
        grads, dz = layer.backward(cache, upstream)
        # |u| <= 1 passes gradient, |u| > 1 blocks it
        np.testing.assert_allclose(dz, [[1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(grads["w"], [[0.5, 3.0], [0.0, 0.0]],
                                   atol=1e-15)

    def test_wnorm_binary_det_orthogonality_and_forward(self):
        rng = np.random.default_rng(21)
        layer = BaselineDense("w", "wnorm-binary-det", rng.normal(size=(3, 5)),
                              g=np.array([0.9, 1.1, 0.7]))
        z = rng.choice([-1.0, 1.0], size=(8, 5))
        out, cache = layer.forward(z, MODE_SAMPLE, None)
        norms = np.linalg.norm(layer.w, axis=1)
        u = layer.g * ((z @ layer.w.T) / norms) + layer.bias
        np.testing.assert_array_equal(out, sign_activation(u))
        grads, _ = layer.backward(cache, rng.normal(size=(8, 3)))
        np.testing.assert_allclose(np.sum(layer.w * grads["w"], axis=1), 0.0,
                                   atol=1e-12)

    def test_noisy_rectifier_forward_and_mask(self):
        rng = np.random.default_rng(22)
        layer = BaselineDense("n", "noisy-rectifier", rng.normal(size=(3, 4)))
        z = rng.normal(size=(6, 4))
        s = RngStream(7).child(NS_NOISE, 1)
        out, cache = layer.forward(z, MODE_SAMPLE, s)
        u = z @ layer.w.T + layer.bias
        act = u + s.generator().standard_normal(u.shape)
        np.testing.assert_allclose(out, np.maximum(act, 0.0), atol=1e-12)
        grads, dz = layer.backward(cache, np.ones((6, 3)))
        np.testing.assert_allclose(dz, (act > 0) @ layer.w, atol=1e-12)

    def test_sigmoid_det_backward_matches_fd(self):
        rng = np.random.default_rng(23)
        layer = BaselineDense("g", "sigmoid-det", rng.normal(size=(3, 4)),
                              bias=rng.normal(size=3) * 0.1)
        z = rng.normal(size=(5, 4))
        upstream = rng.normal(size=(5, 3))
        out, cache = layer.forward(z, MODE_MEAN, None)
        np.testing.assert_allclose(out, expit(z @ layer.w.T + layer.bias),
                                   atol=1e-14)
        grads, _ = layer.backward(cache, upstream)

        def loss():
            m, _ = layer.forward(z, MODE_MEAN, None)
            return float(np.sum(upstream * m))

        assert fd_against(loss, [layer.w, layer.bias],
                          [grads["w"], grads["bias"]], h=1e-6) < 1e-8

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            BaselineDense("x", "tanh-det", np.ones((2, 2)))


class TestHeads:

    def test_normalized_head_forward_and_scale_invariance(self):
        rng = np.random.default_rng(24)
        head = NormalizedHead("h", rng.normal(size=(4, 6)),
                              beta=rng.uniform(0.5, 1.5, size=4),
                              bias=rng.normal(size=4) * 0.1)
        z = rng.normal(size=(5, 6))
        out, _ = head.forward(z, MODE_MEAN)
        norms = np.linalg.norm(head.w, axis=1)
        np.testing.assert_allclose(
            out, head.beta * (z @ head.w.T) / norms + head.bias, atol=1e-13)
        head.w *= 12.0
        out2, _ = head.forward(z, MODE_MEAN)
        np.testing.assert_allclose(out2, out, atol=1e-12)

    def test_normalized_head_backward_matches_fd(self):
        rng = np.random.default_rng(25)
        head = NormalizedHead("h", rng.normal(size=(3, 5)))
        z = rng.normal(size=(4, 5))
        upstream = rng.normal(size=(4, 3))
        _, cache = head.forward(z, MODE_MEAN)
        grads, dz = head.backward(cache, upstream)

        def loss():
            m, _ = head.forward(z, MODE_MEAN)
            return float(np.sum(upstream * m))

        assert fd_against(loss, [head.w, head.beta, head.bias],
                          [grads["w"], grads["beta"], grads["bias"]],
                          h=1e-6) < 1e-8
        np.testing.assert_allclose(np.sum(head.w * grads["w"], axis=1), 0.0,
                                   atol=1e-12)

    def test_normalized_head_frozen_bias(self):
        head = NormalizedHead("h", np.ones((2, 3)), bias_trainable=False)
        assert "bias" not in head.params()
        _, cache = head.forward(np.ones((1, 3)), MODE_MEAN)
        grads, _ = head.backward(cache, np.ones((1, 2)))
        assert "bias" not in grads

    def test_affine_head_matches_fd(self):
        rng = np.random.default_rng(26)
        head = BaselineDense("h", AFFINE, rng.normal(size=(3, 5)), bias=rng.normal(size=3))
        z = rng.normal(size=(4, 5))
        upstream = rng.normal(size=(4, 3))
        out, cache = head.forward(z, MODE_MEAN)
        np.testing.assert_allclose(out, z @ head.w.T + head.bias, atol=1e-14)
        grads, dz = head.backward(cache, upstream)

        def loss():
            m, _ = head.forward(z, MODE_MEAN)
            return float(np.sum(upstream * m))

        assert fd_against(loss, [head.w, head.bias],
                          [grads["w"], grads["bias"]], h=1e-6) < 1e-8


def kernel_major(patches, c, kh, kw):
    """im2col patches with each feature vector permuted from (C, kh, kw) to
    (kh, kw, C), the order col2im reads."""
    lead = patches.shape[:-1]
    return np.moveaxis(patches.reshape(lead + (c, kh, kw)), -3, -1).reshape(lead + (-1,))


class TestIm2col:

    def test_patch_extraction_hand_case(self):
        # 1x1x3x3 ascending image, 2x2 kernel, stride 1, no pad
        z = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        patches, grid = im2col(z, 2, 2, 1, 0)
        assert grid == (2, 2)
        np.testing.assert_array_equal(patches[0, 0], [0, 1, 3, 4])
        np.testing.assert_array_equal(patches[0, 3], [4, 5, 7, 8])

    def test_channel_order_matches_kernel_flatten(self):
        # feature order (channel, kernel row, kernel col)
        z = np.stack([np.zeros((2, 2)), np.ones((2, 2))])[None]  # (1,2,2,2)
        patches, _ = im2col(z, 2, 2, 1, 0)
        np.testing.assert_array_equal(patches[0, 0],
                                      [0, 0, 0, 0, 1, 1, 1, 1])

    def test_col2im_is_adjoint(self):
        # <im2col(x) in (kh, kw, C) order, y> = <x, col2im(y)> for random x, y
        rng = np.random.default_rng(27)
        x = rng.normal(size=(2, 3, 6, 5))
        for stride, pad in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            patches, grid = im2col(x, 3, 3, stride, pad)
            y = rng.normal(size=patches.shape)
            lhs = float(np.sum(kernel_major(patches, 3, 3, 3) * y))
            xi = col2im(y, x.shape, 3, 3, stride, pad, grid)
            rhs = float(np.sum(x * xi))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_bad_input_shapes(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((3, 4, 4)), 2, 2, 1, 0)
        with pytest.raises(ShapeError):
            im2col(np.zeros((1, 1, 2, 2)), 3, 3, 1, 0)


def mk_conv(seed=0, k=3, c=2, ksize=3, **kw):
    rng = np.random.default_rng(seed)
    return NsmConv(f"c{seed}", rng.normal(size=(k, c, ksize, ksize)),
                   NoiseModel.bernoulli(0.5), **kw)


class TestNsmConv:

    def test_mean_forward_against_pixel_loop(self):
        layer = mk_conv(seed=28, bias=np.array([0.1, -0.2, 0.0]), pad=1)
        rng = np.random.default_rng(29)
        z = rng.choice([-1.0, 1.0], size=(2, 2, 5, 5))
        out, _ = layer.forward(z, MODE_MEAN, None)
        zp = np.pad(z, ((0, 0), (0, 0), (1, 1), (1, 1)))
        wf = layer.w.reshape(3, -1)
        norms = np.linalg.norm(wf, axis=1)
        for b in range(2):
            for i in range(5):
                for j in range(5):
                    patch = zp[b, :, i:i + 3, j:j + 3].reshape(-1)
                    x = layer.beta * (wf @ patch) / norms + layer.bias
                    want = 2 * erf_probability(x) - 1
                    np.testing.assert_allclose(out[b, :, i, j], want,
                                               atol=1e-12)

    def test_one_by_one_conv_equals_dense_on_channels(self):
        rng = np.random.default_rng(30)
        w = rng.normal(size=(4, 3, 1, 1))
        conv = NsmConv("c", w, NoiseModel.bernoulli(0.5),
                       bias=np.array([0.1, 0.0, -0.1, 0.2]))
        dense = NsmDense("d", w.reshape(4, 3), NoiseModel.bernoulli(0.5),
                         bias=conv.bias.copy())
        z = rng.choice([-1.0, 1.0], size=(2, 3, 4, 4))
        mc, _ = conv.forward(z, MODE_MEAN, None)
        # every pixel's channel vector through the dense layer
        md, _ = dense.forward(z.transpose(0, 2, 3, 1).reshape(-1, 3),
                              MODE_MEAN, None)
        np.testing.assert_allclose(
            mc, md.reshape(2, 4, 4, 4).transpose(0, 3, 1, 2), atol=1e-13)

    def test_sample_mode_is_binary_and_reproducible(self):
        layer = mk_conv(seed=31)
        z = np.random.default_rng(32).choice([-1.0, 1.0], size=(2, 2, 5, 5))
        s = RngStream(8).child(NS_NOISE, 2)
        a, _ = layer.forward(z, MODE_SAMPLE, s)
        b, _ = layer.forward(z, MODE_SAMPLE, s)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {-1.0, 1.0}

    def test_backward_matches_fd(self):
        layer = mk_conv(seed=33, ksize=2)
        rng = np.random.default_rng(34)
        z = rng.choice([-1.0, 1.0], size=(2, 2, 4, 4))
        upstream = rng.normal(size=(2, 3, 3, 3))
        _, cache = layer.forward(z, MODE_MEAN, None)
        grads, dz = layer.backward(cache, upstream)

        def loss():
            m, _ = layer.forward(z, MODE_MEAN, None)
            return float(np.sum(upstream * m))

        worst = fd_against(loss, [layer.w, layer.beta, layer.bias],
                           [grads["w"], grads["beta"], grads["bias"]],
                           h=1e-6)
        assert worst < 1e-8
        wf = layer.w.reshape(3, -1)
        gf = grads["w"].reshape(3, -1)
        np.testing.assert_allclose(np.sum(wf * gf, axis=1), 0.0, atol=1e-12)

    def test_input_gradient_matches_fd(self):
        layer = mk_conv(seed=35, ksize=2)
        rng = np.random.default_rng(36)
        z = rng.normal(size=(1, 2, 3, 3))
        upstream = rng.normal(size=(1, 3, 2, 2))
        _, cache = layer.forward(z, MODE_MEAN, None)
        _, dz = layer.backward(cache, upstream)

        def loss():
            m, _ = layer.forward(z, MODE_MEAN, None)
            return float(np.sum(upstream * m))

        assert fd_against(loss, [z], [dz], h=1e-6) < 1e-8

    def test_scale_invariance(self):
        layer = mk_conv(seed=37, bias=np.array([0.2, -0.1, 0.0]))
        z = np.random.default_rng(38).choice([-1.0, 1.0], size=(1, 2, 4, 4))
        out1, _ = layer.forward(z, MODE_MEAN, None)
        layer.w *= 25.0
        out2, _ = layer.forward(z, MODE_MEAN, None)
        np.testing.assert_allclose(out2, out1, atol=1e-12)

    def test_beta_and_a_together_rejected(self):
        with pytest.raises(ConfigError):
            mk_conv(seed=46, beta=np.ones(3), a=np.zeros(3))


NORMALIZED_KINDS = ["dense-neuron", "dense-synapse", "conv", "head", "wnorm-binary-det"]


def normalized_case(kind, rng):
    """One weight-normalized layer of drawn shape, an input, and the output
    its backward differentiates as a function of the live arrays."""
    model = (NoiseModel.bernoulli(float(rng.uniform(0.2, 0.8))) if rng.random() < 0.5
             else NoiseModel.gaussian(float(rng.uniform(0.1, 1.0))))
    batch, out, fan = (int(v) for v in rng.integers([1, 1, 2], 7))
    scale, bias = rng.uniform(0.3, 2.0, size=out), 0.3 * rng.normal(size=out)
    if kind == "conv":
        c, ksize = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        layer = NsmConv("c", rng.normal(size=(out, c, ksize, ksize)), model, beta=scale,
                        bias=bias, stride=stride, pad=pad)
        z = rng.choice([-1.0, 1.0], size=(batch, c) + tuple(rng.integers(ksize, ksize + 5, 2)))
        return layer, z, lambda x: layer.forward(x, MODE_MEAN, None)[0]
    w, z = rng.normal(size=(out, fan)), rng.choice([-1.0, 1.0], size=(batch, fan))
    if kind == "head":
        layer = NormalizedHead("h", w, beta=scale, bias=bias)
        return layer, z, lambda x: layer.forward(x, MODE_MEAN, None)[0]
    if kind == "wnorm-binary-det":
        layer = BaselineDense("b", kind, w, bias=bias, g=scale)
        # straight-through: the backward differentiates g t + b inside |u| <= 1
        window = np.abs(layer.forward(z, MODE_MEAN, None)[1]["x"]) <= 1.0
        return layer, z, lambda x: window * layer.forward(x, MODE_MEAN, None)[1]["x"]
    layer = NsmDense("d", w, model, beta=scale, bias=bias, site=kind.split("-")[1])
    return layer, z, lambda x: layer.forward(x, MODE_MEAN, None)[0]


class TestNormalizedLayersOverShapes:
    """The shared projection and backward, through every layer kind that uses
    them, over seeded random shapes (conv stride and pad drawn from {1,2}x{0,1})."""

    @pytest.mark.parametrize("draw", range(6))
    @pytest.mark.parametrize("kind", NORMALIZED_KINDS)
    def test_orthogonal_invariant_and_finite_differences(self, kind, draw):
        rng = np.random.default_rng([NORMALIZED_KINDS.index(kind), draw])
        layer, z, surface = normalized_case(kind, rng)
        params = layer.params()

        # the weight gradient of a sampled forward is orthogonal per unit
        out, cache = layer.forward(z, MODE_SAMPLE, RngStream(draw).child(NS_NOISE))
        grads, _ = layer.backward(cache, rng.normal(size=out.shape))
        w = layer.w.reshape(layer.w.shape[0], -1)
        dw = grads["w"].reshape(w.shape)
        dots = np.abs(np.sum(w * dw, axis=1))
        assert np.all(dots <= 1e-10 * np.linalg.norm(w, axis=1) * np.linalg.norm(dw, axis=1))

        # the mean forward is invariant under w -> alpha w
        base = surface(z)
        for alpha in (1e-3, 0.37, 25.0):
            keep = layer.w.copy()
            layer.w *= alpha
            np.testing.assert_allclose(surface(z), base, rtol=1e-12, atol=1e-12)
            layer.w[...] = keep

        # finite differences on every parameter and on the input
        upstream = rng.normal(size=base.shape)
        _, cache = layer.forward(z, MODE_MEAN, None)
        grads, dz = layer.backward(cache, upstream)
        keys = sorted(params)

        def loss():
            return float(np.sum(upstream * surface(z)))

        assert fd_against(loss, [params[k] for k in keys], [grads[k] for k in keys]) <= 1e-6
        assert fd_against(loss, [z], [dz], sample=60) <= 1e-6


STRIDE_PAD = [(1, 0), (1, 1), (2, 0), (2, 1)]


def col2im_nchw(dpatches, in_shape, kh, kw, stride, pad, grid):
    """The adjoint of im2col on (C, kh, kw)-ordered patch gradients,
    accumulated channels-first from transposed patch slices."""
    b, c, h, w = in_shape
    oh, ow = grid
    dz = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    dp = dpatches.reshape(b, oh, ow, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            dz[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += \
                dp[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dz[:, :, pad:h + pad, pad:w + pad]


def assert_close_rel(got, want, rel=1e-12):
    """max |got - want| within rel times the largest |want|."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestConvReference:
    """The conv path against its unfactored formulas: one product per use,
    an einsum weight gradient and a channels-first col2im."""

    @pytest.mark.parametrize("model", [NoiseModel.bernoulli(0.5), NoiseModel.gaussian(0.3)],
                             ids=["bernoulli", "gaussian"])
    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_sample_forward_and_backward(self, stride, pad, model):
        rng = np.random.default_rng(42)
        layer = NsmConv("c", rng.normal(size=(4, 3, 3, 3)), model,
                        a=0.2 * rng.normal(size=4), bias=0.1 * rng.normal(size=4),
                        stride=stride, pad=pad)
        z = rng.choice([-1.0, 1.0], size=(3, 3, 7, 6))
        stream = RngStream(8).child(NS_NOISE, stride, pad)

        patches, grid = im2col(z, 3, 3, stride, pad)
        wf = layer.w.reshape(4, -1)
        norms = np.sqrt(np.sum(wf * wf, axis=1))
        t = (patches @ wf.T) / norms
        x = layer.beta * t + layer.bias
        xi = sample_noise(model, z.shape, stream)
        noisy, _ = im2col(xi * z, 3, 3, stride, pad)
        b_raw = layer.bias * model.scale * norms
        u = noisy @ wf.T + layer.a * (patches @ wf.T) + b_raw
        maps = sign_activation(u).reshape(3, grid[0], grid[1], 4).transpose(0, 3, 1, 2)

        out, cache = layer.forward(z, MODE_SAMPLE, stream)
        np.testing.assert_array_equal(out, maps)
        np.testing.assert_array_equal(cache["x"], x)
        np.testing.assert_array_equal(cache["t"], t)

        upstream = rng.normal(size=out.shape)
        grads, dz = layer.backward(cache, upstream)
        s = upstream.transpose(0, 2, 3, 1).reshape(3, -1, 4) * erf_slope(x)
        dv = np.einsum("bpk,bpd->kd", s, patches)
        d_beta = np.einsum("bpk,bpk->k", s, t)
        dwf = reparam_grads(wf, norms, layer.beta, dv, d_beta)
        dpatches = s @ ((layer.beta / norms)[:, None] * wf)
        assert_close_rel(grads["w"], dwf.reshape(layer.w.shape))
        assert_close_rel(grads["beta"], d_beta)
        assert_close_rel(grads["bias"], np.sum(s, axis=(0, 1)))
        assert_close_rel(dz, col2im_nchw(dpatches, z.shape, 3, 3, stride, pad, grid))

    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_col2im_equals_channels_first_loop(self, stride, pad):
        rng = np.random.default_rng(43)
        shape = (2, 3, 7, 6)
        _, grid = im2col(np.zeros(shape), 3, 3, stride, pad)
        dpatches = rng.normal(size=(2, grid[0] * grid[1], 27))
        np.testing.assert_array_equal(
            col2im(kernel_major(dpatches, 3, 3, 3), shape, 3, 3, stride, pad, grid),
            col2im_nchw(dpatches, shape, 3, 3, stride, pad, grid))

    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_sigmoid_conv_weight_gradient_matches_einsum(self, stride, pad):
        rng = np.random.default_rng(44)
        layer = SigmoidDetConv("c", rng.normal(size=(4, 3, 3, 3)),
                               bias=0.1 * rng.normal(size=4), stride=stride, pad=pad)
        z = rng.normal(size=(3, 3, 7, 6))
        out, cache = layer.forward(z, MODE_MEAN)
        upstream = rng.normal(size=out.shape)
        grads, _ = layer.backward(cache, upstream)
        p = expit(cache["x"])
        s = upstream.transpose(0, 2, 3, 1).reshape(3, -1, 4) * (p * (1.0 - p))
        dw = np.einsum("bpk,bpd->kd", s, cache["rows"]).reshape(layer.w.shape)
        assert_close_rel(grads["w"], dw)


class TestConvInputGradient:
    """The conv input gradient, made from v with its columns in (kh, kw, C)
    order, against col2im of s @ v in im2col's (C, kh, kw) order, bit for bit."""

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_bit_identical_to_patch_order_product(self, ksize, stride, pad):
        rng = np.random.default_rng([ksize, stride, pad])
        for draw in range(3):
            c, k, b = (int(n) for n in rng.integers(1, [5, 9, 4]))
            h, w = (int(n) for n in rng.integers(ksize, ksize + 7, size=2))
            wts = rng.normal(size=(k, c, ksize, ksize))
            wf = wts.reshape(k, -1)
            z = rng.choice([-1.0, 1.0], size=(b, c, h, w))

            layer = NsmConv("c", wts, NoiseModel.bernoulli(0.5), a=0.2 * rng.normal(size=k),
                            bias=0.1 * rng.normal(size=k), stride=stride, pad=pad)
            out, cache = layer.forward(z, MODE_SAMPLE, RngStream(draw).child(NS_NOISE))
            upstream = rng.normal(size=out.shape)
            _, dz = layer.backward(cache, upstream)
            up = upstream.transpose(0, 2, 3, 1).reshape(b, -1, k)
            s = up * erf_slope(cache["x"])
            v = (layer.beta / cache["norms"])[:, None] * wf
            grid = cache["grid"]
            assert_same_bits(dz, col2im_nchw(s @ v, z.shape, ksize, ksize, stride, pad, grid))

            layer = SigmoidDetConv("s", wts, bias=0.1 * rng.normal(size=k),
                                   stride=stride, pad=pad)
            _, cache = layer.forward(z, MODE_MEAN)
            _, dz = layer.backward(cache, upstream)
            p = expit(cache["x"])
            s = up * (p * (1.0 - p))
            assert_same_bits(dz, col2im_nchw(s @ wf, z.shape, ksize, ksize, stride, pad, grid))


class TestConvChunks:
    """Conv products that no backward reads, formed one batch chunk of patches
    at a time, against one unchunked im2col product, bit for bit."""

    # the default budget (every batch here in one chunk), two examples' patches
    # per chunk, and a budget below one example's patches
    @pytest.mark.parametrize("budget, per_chunk", [(None, 5), (2.5, 2), (0.5, 1)])
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_product_and_sample_match_one_product(self, ksize, stride, pad, budget, per_chunk,
                                                  monkeypatch):
        rng = np.random.default_rng([ksize, stride, pad, 7])
        model = NoiseModel.gaussian(0.3)
        layer = NsmConv("c", rng.normal(size=(4, 3, ksize, ksize)), model,
                        a=0.2 * rng.normal(size=4), bias=0.1 * rng.normal(size=4),
                        stride=stride, pad=pad)
        wf = layer.w.reshape(4, -1)
        _, grid = im2col(np.zeros((1, 3, 7, 6)), ksize, ksize, stride, pad)
        example = grid[0] * grid[1] * wf.shape[1]   # one example's patch values
        if budget is not None:
            monkeypatch.setattr(layers, "_CHUNK_BYTES", int(budget * 8 * example))
        assert min(_chunk_rows(example), 5) == per_chunk
        norms = np.sqrt(np.sum(wf * wf, axis=1))
        b_raw = layer.bias * model.scale * norms
        # one chunk, several, and a short last one
        for b in (1, 2, 4, 5):
            z = rng.choice([-1.0, 1.0], size=(b, 3, 7, 6))
            patches, want_grid = im2col(z, ksize, ksize, stride, pad)
            got, got_grid = layer._times_w(z)
            assert got_grid == want_grid == layer._grid(z)
            assert_same_bits(got, patches @ wf.T)

            # the sampled output by the unchunked formula
            stream = RngStream(9).child(NS_NOISE, b)
            noisy, _ = im2col(sample_noise(model, z.shape, stream) * z, ksize, ksize, stride, pad)
            u = noisy @ wf.T
            u += (patches @ wf.T) * layer.a
            u += b_raw
            want = sign_activation(u).reshape(b, grid[0], grid[1], 4).transpose(0, 3, 1, 2)
            assert_same_bits(layer.forward(z, MODE_SAMPLE, stream, {})[0], want)
            assert_same_bits(layer.forward(z, MODE_SAMPLE, stream)[0], want)

    @pytest.mark.parametrize("mode", [MODE_SAMPLE, MODE_MEAN, MODE_CONCRETE])
    def test_no_cache_forwards_keep_chunks_within_budget(self, mode, monkeypatch):
        rng = np.random.default_rng(61)
        kernels = rng.normal(size=(4, 3, 3, 3))
        model = NoiseModel.bernoulli(0.5)
        cases = [NsmConv("nsm", kernels, model, pad=1),
                 NsmConv("det", kernels, model, pad=1, deterministic=True),
                 SigmoidDetConv("sig", kernels, pad=1)]
        z = rng.choice([-1.0, 1.0], size=(8, 3, 7, 6))
        wants = [layer.forward(z, mode, RngStream(10).child(NS_NOISE))[0] for layer in cases]
        # three examples' patches (7 x 6 positions, 27 values each) per chunk
        monkeypatch.setattr(layers, "_CHUNK_BYTES", 3 * 8 * 42 * 27)
        seen = []

        def recorded(*args, _fn=layers.im2col):
            patches, grid = _fn(*args)
            seen.append((patches.shape[0], patches.nbytes))
            return patches, grid
        monkeypatch.setattr(layers, "im2col", recorded)
        for layer, want in zip(cases, wants):
            seen.clear()
            assert_same_bits(layer.forward(z, mode, RngStream(10).child(NS_NOISE), {})[0], want)
            products = 2 if layer.name == "nsm" and mode == MODE_SAMPLE else 1
            assert sum(n for n, _ in seen) == products * len(z)
            assert all(nbytes <= layers._CHUNK_BYTES or n == 1 for n, nbytes in seen)


def baseline_reference(kind, w, bias, g, z, mode, stream, upstream):
    """A baseline layer's (out, grads, dz), written out per kind."""
    if kind == "wnorm-binary-det":
        norms = np.sqrt(np.sum(w * w, axis=1))
        t = (z @ w.T) / norms
        u = g * t + bias
    else:
        u = z @ w.T + bias
    if kind == "stnn":
        p = expit(u)
        out = 2.0 * p - 1.0 if mode == MODE_MEAN else \
            np.where(stream.generator().random(u.shape) < p, 1.0, -1.0)
        s = upstream * (2.0 * p * (1.0 - p))
    elif kind in ("binary-det", "wnorm-binary-det"):
        out = sign_activation(u)
        s = upstream * (np.abs(u) <= 1.0)
    elif kind == "noisy-rectifier":
        act = u if mode == MODE_MEAN else u + stream.generator().standard_normal(u.shape)
        out = np.maximum(act, 0.0)
        s = upstream * (act > 0.0).astype(np.float64)
    elif kind == "sigmoid-det":
        out = expit(u)
        s = upstream * (out * (1.0 - out))
    else:   # affine
        out, s = u, upstream
    if kind == "wnorm-binary-det":
        d_g = np.einsum("nk,nk->k", s, t)
        grads = {"w": reparam_grads(w, norms, g, s.T @ z, d_g), "g": d_g,
                 "bias": np.sum(s, axis=0)}
        return out, grads, s @ ((g / norms)[:, None] * w)
    grads = {"w": s.T @ z}
    if kind != "stnn":
        grads["bias"] = np.sum(s, axis=0)
    return out, grads, s @ w


def assert_layer_bits(layer, z, mode, want_out, want_grads, want_dz, upstream, stream):
    out, cache = layer.forward(z, mode, stream)
    assert_same_bits(out, want_out)
    grads, dz = layer.backward(cache, upstream)
    assert list(grads) == list(want_grads)
    for key in grads:
        assert_same_bits(grads[key], want_grads[key])
    assert_same_bits(dz, want_dz)


class TestBaselineTable:
    """Every kind of the activation table, and the sigmoid conv built on it,
    against its forward and backward written out, bit for bit."""

    @pytest.mark.parametrize("mode", [MODE_SAMPLE, MODE_MEAN])
    @pytest.mark.parametrize("kind", BASELINE_KINDS + (AFFINE,))
    def test_dense_kind(self, kind, mode):
        rng = np.random.default_rng([len(kind), len(mode)])
        w, z = rng.normal(size=(5, 7)), rng.normal(size=(6, 7))
        bias = 0.0 if kind == "stnn" else 0.3 * rng.normal(size=5)
        g = rng.uniform(0.5, 1.5, size=5) if kind == "wnorm-binary-det" else None
        upstream = rng.normal(size=(6, 5))
        stream = RngStream(4).child(NS_NOISE, 1)
        want = baseline_reference(kind, w, bias, g, z, mode, stream, upstream)
        layer = BaselineDense("b", kind, w, bias=None if kind == "stnn" else bias, g=g)
        assert_layer_bits(layer, z, mode, *want, upstream, stream)

    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_sigmoid_conv(self, stride, pad):
        rng = np.random.default_rng([stride, pad])
        wts, bias = rng.normal(size=(4, 3, 3, 3)), 0.1 * rng.normal(size=4)
        z = rng.normal(size=(2, 3, 7, 6))
        patches, grid = im2col(z, 3, 3, stride, pad)
        wf = wts.reshape(4, -1)
        p = expit(patches @ wf.T + bias)
        out = p.reshape(2, grid[0], grid[1], 4).transpose(0, 3, 1, 2)
        upstream = rng.normal(size=out.shape)
        s = upstream.transpose(0, 2, 3, 1).reshape(2, -1, 4) * (p * (1.0 - p))
        grads = {"w": (s.reshape(-1, 4).T @ patches.reshape(-1, 27)).reshape(wts.shape),
                 "bias": np.sum(s, axis=(0, 1))}
        dz = col2im_nchw(s @ wf, z.shape, 3, 3, stride, pad, grid)
        layer = SigmoidDetConv("c", wts, bias=bias, stride=stride, pad=pad)
        assert_layer_bits(layer, z, MODE_MEAN, out, grads, dz, upstream, None)


class TestSigmoidDetConv:

    def test_forward_and_backward_fd(self):
        rng = np.random.default_rng(39)
        layer = SigmoidDetConv("c", rng.normal(size=(2, 1, 2, 2)),
                               bias=rng.normal(size=2) * 0.1)
        z = rng.normal(size=(2, 1, 3, 3))
        upstream = rng.normal(size=(2, 2, 2, 2))
        out, cache = layer.forward(z, MODE_MEAN)
        assert out.shape == (2, 2, 2, 2)
        grads, _ = layer.backward(cache, upstream)

        def loss():
            m, _ = layer.forward(z, MODE_MEAN)
            return float(np.sum(upstream * m))

        assert fd_against(loss, [layer.w, layer.bias],
                          [grads["w"], grads["bias"]], h=1e-6) < 1e-8


def max_pool_reference(z):
    """2x2 pooling by argmax over copied (B, C, H/2, W/2, 4) blocks."""
    b, c, h, w = z.shape
    h2, w2 = h - h % 2, w - w % 2
    blocks = z[:, :, :h2, :w2].reshape(b, c, h2 // 2, 2, w2 // 2, 2)
    flat = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2 // 2, w2 // 2, 4)
    arg = np.argmax(flat, axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def max_pool_backward_reference(z_shape, arg, upstream):
    b, c, h, w = z_shape
    h2, w2 = h - h % 2, w - w % 2
    dflat = np.zeros(arg.shape + (4,))
    np.put_along_axis(dflat, arg[..., None], upstream[..., None], axis=-1)
    dz = np.zeros(z_shape)
    dz[:, :, :h2, :w2] = dflat.reshape(b, c, h2 // 2, w2 // 2, 2, 2) \
        .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2, w2)
    return dz


class TestMaxPoolReference:
    """MaxPool2 on strided corners against argmax over copied blocks."""

    @pytest.mark.parametrize("hw", [(6, 8), (5, 7), (2, 9), (1, 6)])
    @pytest.mark.parametrize("kind", ["signs", "normal"])
    def test_outputs_and_routing_bit_identical(self, kind, hw):
        rng = np.random.default_rng(45)
        shape = (3, 4) + hw
        z = (rng.choice([-1.0, 1.0], size=shape) if kind == "signs"
             else rng.normal(size=shape))
        pool = MaxPool2("p")
        out, cache = pool.forward(z, MODE_SAMPLE)
        want, arg = max_pool_reference(z)
        np.testing.assert_array_equal(out, want)
        assert cache["arg"].dtype == np.int8
        np.testing.assert_array_equal(cache["arg"], arg)
        upstream = rng.normal(size=out.shape)
        _, dz = pool.backward(cache, upstream)
        np.testing.assert_array_equal(dz, max_pool_backward_reference(shape, arg, upstream))


def max_pool_backward_corners(in_shape, arg, upstream):
    """Pool backward as four np.where passes, one per corner, into NCHW zeros."""
    b, c, h, w = in_shape
    h2, w2 = h - h % 2, w - w % 2
    dz = np.zeros(in_shape)
    for q, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        dz[:, :, i:h2:2, j:w2:2] = np.where(arg == q, upstream, 0.0)
    return dz


class TestMaxPoolBackwardBits:

    @pytest.mark.parametrize("hw", [(6, 8), (5, 7), (4, 3), (2, 9), (1, 6)])
    def test_matches_four_corner_construction(self, hw):
        rng = np.random.default_rng([48, *hw])
        shape = (3, 4) + hw
        pool = MaxPool2("p")
        _, cache = pool.forward(rng.choice([-1.0, 1.0], size=shape), MODE_SAMPLE)
        upstream = rng.normal(size=cache["arg"].shape)
        upstream.flat[::3] = -0.0
        upstream.flat[1::11] = -np.inf
        upstream.flat[2::13] = np.nan
        channels_last = np.ascontiguousarray(upstream.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        want = max_pool_backward_corners(shape, cache["arg"], upstream)
        for up in (upstream, channels_last):
            _, dz = pool.backward(cache, up)
            assert_same_bits(dz, want)
            np.testing.assert_array_equal(np.signbit(dz), np.signbit(want))


class TestPooling:

    def test_max_pool_hand_case(self):
        z = np.array([[[[1.0, 2.0, 5.0, 3.0],
                        [4.0, 0.0, 1.0, 1.0],
                        [7.0, 2.0, 0.0, 8.0],
                        [1.0, 6.0, 2.0, 0.0]]]])
        pool = MaxPool2("p")
        out, cache = pool.forward(z, MODE_MEAN)
        np.testing.assert_array_equal(out, [[[[4.0, 5.0], [7.0, 8.0]]]])

    def test_backward_routes_to_argmax(self):
        z = np.array([[[[1.0, 2.0], [4.0, 0.0]]]])
        pool = MaxPool2("p")
        _, cache = pool.forward(z, MODE_MEAN)
        _, dz = pool.backward(cache, np.array([[[[10.0]]]]))
        np.testing.assert_array_equal(dz, [[[[0.0, 0.0], [10.0, 0.0]]]])

    def test_ties_route_to_first_position(self):
        z = np.ones((1, 1, 2, 2))
        pool = MaxPool2("p")
        _, cache = pool.forward(z, MODE_MEAN)
        _, dz = pool.backward(cache, np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(dz, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_odd_trailing_row_dropped(self):
        z = np.random.default_rng(40).normal(size=(1, 1, 5, 5))
        pool = MaxPool2("p")
        out, cache = pool.forward(z, MODE_MEAN)
        assert out.shape == (1, 1, 2, 2)
        _, dz = pool.backward(cache, np.ones((1, 1, 2, 2)))
        assert dz.shape == z.shape
        np.testing.assert_array_equal(dz[:, :, 4, :], 0.0)

    def test_flatten_and_gap_shapes(self):
        z = np.random.default_rng(41).normal(size=(3, 4, 2, 2))
        flat = Flatten("f")
        out, cache = flat.forward(z, MODE_MEAN)
        assert out.shape == (3, 16)
        _, dz = flat.backward(cache, out)
        np.testing.assert_array_equal(dz, z)
        gap = GlobalAvgPool("g")
        out, cache = gap.forward(z, MODE_MEAN)
        np.testing.assert_allclose(out, z.mean(axis=(2, 3)), atol=1e-15)
        _, dz = gap.backward(cache, np.ones((3, 4)))
        np.testing.assert_allclose(dz, np.full_like(z, 0.25), atol=1e-15)


def every_layer_kind():
    """(layer, input) for every layer class and baseline kind, named by kind."""
    rng = np.random.default_rng(49)
    model = NoiseModel.bernoulli(0.5)
    w, kernels = rng.normal(size=(3, 6)), rng.normal(size=(3, 2, 3, 3))
    flat, maps = rng.choice([-1.0, 1.0], size=(4, 6)), rng.choice([-1.0, 1.0], size=(2, 2, 5, 5))
    cases = [(NsmDense("NsmDense", w, model), flat),
             (NsmConv("NsmConv", kernels, model, pad=1), maps),
             (NormalizedHead("NormalizedHead", w), flat),
             (SigmoidDetConv("SigmoidDetConv", kernels, stride=2), maps),
             (MaxPool2("MaxPool2"), maps), (Flatten("Flatten"), maps),
             (GlobalAvgPool("GlobalAvgPool"), maps)]
    cases += [(BaselineDense(kind, kind, w), flat) for kind in BASELINE_KINDS + (AFFINE,)]
    return [pytest.param(layer, z, id=layer.name) for layer, z in cases]


class TestInputGradSkip:
    """backward(..., input_grad=False) skips only the input gradient, and the
    network skips it for its first layer alone."""

    @pytest.mark.parametrize("layer,z", every_layer_kind())
    def test_false_gives_none_and_the_same_param_grads(self, layer, z):
        out, cache = layer.forward(z, MODE_SAMPLE, RngStream(5).child(NS_NOISE))
        upstream = np.random.default_rng(50).normal(size=out.shape)
        grads, dz = layer.backward(cache, upstream)
        skipped, none = layer.backward(cache, upstream, input_grad=False)
        assert none is None and dz.shape == z.shape
        assert skipped.keys() == grads.keys()
        for key in grads:
            assert_same_bits(skipped[key], grads[key])

    @pytest.mark.parametrize("preset", ["mlp-16-8-2", "cnn-mnist"])
    def test_network_grads_equal_full_chain(self, preset):
        arch = parse_preset(preset)
        net = build_network(arch, "nsm", NoiseModel.bernoulli(0.5), seed=3)
        rng = np.random.default_rng(51)
        z = rng.choice([-1.0, 1.0], size=(4,) + arch.input_shape)
        logits, caches = net.forward(z, MODE_SAMPLE, RngStream(3).child(NS_NOISE))
        dlogits = cross_entropy_dlogits(softmax(logits), rng.integers(0, 2, size=4))
        grads = net.backward(caches, dlogits)
        want, d = {}, dlogits
        for layer, cache in zip(reversed(net.layers), reversed(caches)):
            layer_grads, d = layer.backward(cache, d)
            want.update({f"{layer.name}.{key}": g for key, g in layer_grads.items()})
        assert d.shape == z.shape
        assert grads.keys() == want.keys()
        for key in want:
            assert_same_bits(grads[key], want[key])


class TestSharedForward:
    """Every layer given a shared dict returns (out, None) with the caching
    forward's bits, and one that draws no noise in the mode ignores its stream
    (what Network.passes relies on to run such a stack once)."""

    @pytest.mark.parametrize("mode", [MODE_SAMPLE, MODE_MEAN, MODE_CONCRETE])
    @pytest.mark.parametrize("layer,z", every_layer_kind())
    def test_same_bits_and_no_cache(self, layer, z, mode):
        want, cache = layer.forward(z, mode, RngStream(6).child(NS_NOISE))
        assert cache is not None
        out, none = layer.forward(z, mode, RngStream(6).child(NS_NOISE), {})
        assert none is None
        assert_same_bits(out, want)
        if not layer.draws_noise(mode):
            assert_same_bits(layer.forward(z, mode, RngStream(7).child(NS_NOISE), {})[0], out)
