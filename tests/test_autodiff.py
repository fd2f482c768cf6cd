"""Backward rules for the normalized reparameterization v = beta w / ||w||.

The weight gradient must satisfy two exact identities:
  * chain rule through v: dW = (beta/||w||) dV - (beta dbeta / ||w||^2) w
  * orthogonality: w . dW = 0 row by row (moving along w never changes v)
and the full network backward must agree with central finite differences.
"""

import numpy as np
import pytest

import nsm.autodiff as autodiff
from nsm.autodiff import fd_against, finite_difference_check, reparam_grads
from nsm.layers import MODE_MEAN, NsmDense
from nsm.network import Network, cross_entropy_dlogits
from nsm.noise import NoiseModel
from nsm.rng import NS_NOISE, RngStream
from tests.conftest import build_small_net


def tiny_layer(seed=0, out=3, fan=5, noise=None):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(out, fan))
    layer = NsmDense("d0", w, noise or NoiseModel.bernoulli(0.5),
                     beta=rng.uniform(0.5, 1.5, size=out),
                     bias=rng.normal(size=out) * 0.1)
    return layer


class TestReparamGrads:

    def test_worked_example(self):
        # w = [3, 4], dv = [1, 1], beta = 1:
        # dbeta = (w.dv)/||w|| = 7/5; dw = dv/5 - (dbeta/25) w = [0.032, -0.024]
        w = np.array([[3.0, 4.0]])
        dv = np.array([[1.0, 1.0]])
        dw = reparam_grads(w, np.array([5.0]), np.array([1.0]), dv,
                           np.array([1.4]))
        np.testing.assert_allclose(dw, [[0.032, -0.024]], atol=1e-15)

    def test_orthogonality_identity(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 10))
        norms = np.linalg.norm(w, axis=1)
        beta = rng.uniform(0.5, 2.0, size=6)
        dv = rng.normal(size=(6, 10))
        d_beta = np.sum(dv * (w / norms[:, None]), axis=1)
        dw = reparam_grads(w, norms, beta, dv, d_beta)
        np.testing.assert_allclose(np.sum(w * dw, axis=1), 0.0, atol=1e-12)

    def test_scaling_weights_scales_gradient_inversely(self):
        # v is invariant under w -> alpha w, so dW must shrink by 1/alpha
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 7))
        norms = np.linalg.norm(w, axis=1)
        beta = rng.uniform(0.5, 2.0, size=4)
        dv = rng.normal(size=(4, 7))
        d_beta = np.sum(dv * (w / norms[:, None]), axis=1)
        dw = reparam_grads(w, norms, beta, dv, d_beta)
        alpha = 3.0
        dw_scaled = reparam_grads(alpha * w, alpha * norms, beta, dv, d_beta)
        np.testing.assert_allclose(dw_scaled, dw / alpha, atol=1e-12)


class TestBackwardDense:
    """NsmDense.backward at a cached mean forward."""

    def test_matches_finite_differences(self):
        layer = tiny_layer(seed=3)
        rng = np.random.default_rng(4)
        z = rng.choice([-1.0, 1.0], size=(8, 5))
        upstream = rng.normal(size=(8, 3))

        out, cache = layer.forward(z, MODE_MEAN, None)
        g, _ = layer.backward(cache, upstream)

        def loss():
            m, _ = layer.forward(z, MODE_MEAN, None)
            return float(np.sum(upstream * m))

        worst = fd_against(loss, [layer.w, layer.beta, layer.bias],
                           [g["w"], g["beta"], g["bias"]], h=1e-6)
        assert worst < 1e-8

    def test_input_gradient_matches_finite_differences(self):
        layer = tiny_layer(seed=5)
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 5))
        upstream = rng.normal(size=(4, 3))
        _, cache = layer.forward(z, MODE_MEAN, None)
        _, d_input = layer.backward(cache, upstream)

        def loss():
            m, _ = layer.forward(z, MODE_MEAN, None)
            return float(np.sum(upstream * m))

        worst = fd_against(loss, [z], [d_input], h=1e-6)
        assert worst < 1e-8

    def test_weight_gradient_orthogonal_to_weights(self):
        layer = tiny_layer(seed=7)
        rng = np.random.default_rng(8)
        z = rng.choice([-1.0, 1.0], size=(16, 5))
        _, cache = layer.forward(z, MODE_MEAN, None)
        g, _ = layer.backward(cache, rng.normal(size=(16, 3)))
        dots = np.abs(np.sum(layer.w * g["w"], axis=1))
        bound = 1e-10 * np.linalg.norm(layer.w, axis=1) * \
            np.linalg.norm(g["w"], axis=1)
        assert np.all(dots <= np.maximum(bound, 1e-15))

    def test_scale_invariance_of_forward_and_beta_gradient(self):
        # scaling w leaves the mean forward and the beta gradient unchanged
        layer = tiny_layer(seed=11)
        rng = np.random.default_rng(12)
        z = rng.choice([-1.0, 1.0], size=(8, 5))
        upstream = rng.normal(size=(8, 3))
        out1, cache1 = layer.forward(z, MODE_MEAN, None)
        g1, _ = layer.backward(cache1, upstream)
        layer.w *= 7.5
        out2, cache2 = layer.forward(z, MODE_MEAN, None)
        g2, _ = layer.backward(cache2, upstream)
        np.testing.assert_allclose(out2, out1, atol=1e-12)
        np.testing.assert_allclose(g2["beta"], g1["beta"], atol=1e-12)
        np.testing.assert_allclose(g2["w"], g1["w"] / 7.5, atol=1e-12)


class TestNetworkFiniteDifference:

    def test_small_network_gradients(self):
        net = build_small_net("nsm", "mlp-16-8-8-2", seed=13)
        rng = np.random.default_rng(14)
        x = rng.choice([-1.0, 1.0], size=(6, 16))
        y = rng.integers(0, 2, size=6)
        worst = finite_difference_check(net, x, y, step=1e-6)
        assert worst < 1e-7

    def test_sampled_coordinates_match_full_run(self):
        net = build_small_net("nsm", "mlp-16-8-2", seed=15)
        rng = np.random.default_rng(16)
        x = rng.choice([-1.0, 1.0], size=(4, 16))
        y = rng.integers(0, 2, size=4)
        full = finite_difference_check(net, x, y, step=1e-6)
        sampled = finite_difference_check(net, x, y, step=1e-6, sample=20,
                                          seed=1)
        assert sampled <= full + 1e-12

    def test_detects_broken_weight_rule(self, monkeypatch):
        # corrupting the reparameterization rule must trip the check
        def broken(w, norms, beta, dv, d_beta):
            return (beta / norms)[:, None] * dv   # missing radial correction
        monkeypatch.setattr(autodiff, "reparam_grads", broken)
        net = build_small_net("nsm", "mlp-16-8-2", seed=17)
        rng = np.random.default_rng(18)
        x = rng.choice([-1.0, 1.0], size=(4, 16))
        y = rng.integers(0, 2, size=4)
        worst = finite_difference_check(net, x, y, step=1e-6)
        assert worst > 1e-3

    def test_detects_broken_slope(self, monkeypatch):
        import nsm.layers as layers_mod

        def wrong_slope(x):
            return np.ones_like(np.asarray(x, dtype=np.float64))
        monkeypatch.setattr(layers_mod, "erf_slope", wrong_slope)
        net = build_small_net("nsm", "mlp-16-8-2", seed=19)
        rng = np.random.default_rng(20)
        x = rng.choice([-1.0, 1.0], size=(4, 16))
        y = rng.integers(0, 2, size=4)
        worst = finite_difference_check(net, x, y, step=1e-6)
        assert worst > 1e-3


class TestCrossEntropyGradient:

    def test_dlogits_matches_finite_differences(self):
        from nsm.network import cross_entropy_loss, softmax
        rng = np.random.default_rng(21)
        logits = rng.normal(size=(5, 4))
        y = rng.integers(0, 4, size=5)
        g = cross_entropy_dlogits(softmax(logits), y)

        def loss():
            return cross_entropy_loss(softmax(logits), y)

        worst = fd_against(loss, [logits], [g], h=1e-6)
        assert worst < 1e-8
