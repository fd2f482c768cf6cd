"""Core math: sign activation, closed-form firing probability, noise models.

Reference values were frozen from a 50-digit mpmath evaluation of
0.5*(1+erf(x)) and its derivative, and from exact enumeration over all
Bernoulli mask patterns at fan-in 8.
"""

import numpy as np
import pytest

from nsm.core import (activation_probability, erf_probability, erf_slope,
                      preactivation, sign_activation)
from nsm.errors import DegenerateNoiseError, NoiseModelError, NormalizationError
from nsm.noise import NoiseModel, a_from_beta, beta_from_noise, dyadic_bits, sample_noise
from nsm.rng import NS_NOISE, RngStream
from tests.conftest import assert_same_bits

# frozen oracle values: x -> 0.5*(1+erf(x))
ERF_TABLE = [
    (0.0, 0.5),
    (1.0, 0.92135039647485743),
    (-0.5, 0.23975006109347673),
    (2.5, 0.99979652399127752),
    (0.1, 0.55623145800914245),
]

# frozen oracle values: x -> d(2P-1)/dx = (2/sqrt(pi)) exp(-x^2)
SLOPE_TABLE = [
    (0.0, 1.1283791670955126),
    (1.0, 0.4151074974205947),
    (-0.5, 0.87878257893544479),
]


class TestSignActivation:

    def test_signs(self):
        u = np.array([-2.0, -1e-12, 0.0, 1e-12, 3.0])
        np.testing.assert_array_equal(sign_activation(u),
                                      [-1.0, -1.0, 1.0, 1.0, 1.0])

    def test_zero_maps_to_plus_one(self):
        # tie-break at u = 0 fires
        assert sign_activation(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    def test_output_is_binary(self):
        rng = np.random.default_rng(0)
        z = sign_activation(rng.normal(size=1000))
        assert set(np.unique(z)) <= {-1.0, 1.0}


class TestErfProbability:

    def test_frozen_values(self):
        for x, p in ERF_TABLE:
            np.testing.assert_allclose(erf_probability(np.array(x)), p,
                                       rtol=0, atol=1e-15)

    def test_symmetry(self):
        x = np.linspace(-4, 4, 201)
        np.testing.assert_allclose(erf_probability(x) + erf_probability(-x),
                                   1.0, atol=1e-14)

    def test_monotone_and_bounded(self):
        x = np.linspace(-8, 8, 2001)
        p = erf_probability(x)
        assert np.all(np.diff(p) >= 0)
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_slope_frozen_values(self):
        for x, s in SLOPE_TABLE:
            np.testing.assert_allclose(erf_slope(np.array(x)), s,
                                       rtol=0, atol=1e-15)

    def test_slope_matches_finite_difference(self):
        # d(2P-1)/dx via central differences
        x = np.linspace(-3, 3, 101)
        h = 1e-6
        fd = (2 * erf_probability(x + h) - 2 * erf_probability(x - h)) / (2 * h)
        np.testing.assert_allclose(erf_slope(x), fd, atol=1e-9)


# edge values: signed zeros and infinities, NaN, subnormals, the extremes
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
               -2.2e-308, 1e-12, -1.0, 26.6, -27.3, 1e154, np.finfo(np.float64).max]


class TestExactKernels:
    """The single-allocation kernels against the plain formulas they replace."""

    @staticmethod
    def sign_reference(u):
        return np.where(np.asarray(u) >= 0, 1.0, -1.0)

    @staticmethod
    def slope_reference(x):
        x = np.asarray(x, dtype=np.float64)
        return (2.0 / np.sqrt(np.pi)) * np.exp(-x * x)

    def inputs(self):
        rng = np.random.default_rng(46)
        edges = np.array(EDGE_VALUES)
        mixed = rng.normal(scale=3.0, size=(7, 5, 4))
        mixed.flat[rng.choice(mixed.size, size=len(edges), replace=False)] = edges
        return [edges, mixed, mixed.transpose(2, 0, 1), np.array(-0.0), np.array(np.nan),
                np.array([[-3, 0, 2]]), 0.0, -0.0, 2, -1e-320, float("nan")]

    def test_sign_activation_bit_identical(self):
        for u in self.inputs():
            assert_same_bits(sign_activation(u), self.sign_reference(u))

    def test_erf_slope_bit_identical(self):
        with np.errstate(over="ignore"):   # x * x overflows to inf at the extremes
            for x in self.inputs():
                assert_same_bits(erf_slope(x), self.slope_reference(x))


class TestNoiseModel:

    def test_gaussian_moments(self):
        m = NoiseModel.gaussian(0.25)
        assert m.mean == 1.0
        assert m.variance == 0.25

    def test_bernoulli_moments(self):
        m = NoiseModel.bernoulli(0.9)
        np.testing.assert_allclose(m.mean, 0.9)
        np.testing.assert_allclose(m.variance, 0.9 * 0.1)

    def test_scale_is_sqrt_two_variance(self):
        np.testing.assert_allclose(NoiseModel.gaussian(0.5).scale, 1.0)
        np.testing.assert_allclose(NoiseModel.bernoulli(0.5).scale,
                                   0.70710678118654752)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(NoiseModelError):
            NoiseModel.gaussian(-1.0)
        with pytest.raises(NoiseModelError):
            NoiseModel.bernoulli(1.5)
        with pytest.raises(NoiseModelError):
            NoiseModel("cauchy", 1.0)

    def test_degenerate_scale_raises(self):
        # zero multiplicative variance has no normalization constant
        with pytest.raises(DegenerateNoiseError):
            NoiseModel.gaussian(0.0).scale
        with pytest.raises(DegenerateNoiseError):
            NoiseModel.bernoulli(1.0).scale


class TestBetaFormulas:

    def test_gaussian_beta(self):
        # beta = (1+a)/sqrt(2 sigma^2); sigma^2=0.5, a=0.2 -> 1.2/1 = 1.2
        m = NoiseModel.gaussian(0.5)
        np.testing.assert_allclose(beta_from_noise(m, a=0.2), 1.2)

    def test_bernoulli_beta(self):
        # beta = (p+a)/sqrt(2 p (1-p))
        m = NoiseModel.bernoulli(0.5)
        np.testing.assert_allclose(beta_from_noise(m, a=0.0),
                                   0.70710678118654752)
        m = NoiseModel.bernoulli(0.9)
        np.testing.assert_allclose(beta_from_noise(m, a=0.1),
                                   2.3570226039551584)

    def test_beta_a_roundtrip(self):
        m = NoiseModel.bernoulli(0.7)
        a = np.array([-0.3, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(a_from_beta(m, beta_from_noise(m, a)), a,
                                   atol=1e-14)

    def test_gaussian_unit_variance_matches_symmetric_bernoulli(self):
        # both give beta = 1/sqrt(2) at a = 0, so the normalized nets agree
        g = beta_from_noise(NoiseModel.gaussian(1.0), a=0.0)
        b = beta_from_noise(NoiseModel.bernoulli(0.5), a=0.0)
        np.testing.assert_allclose(g, b, atol=1e-15)


class TestSampleNoise:

    def test_gaussian_sample_moments(self):
        m = NoiseModel.gaussian(0.25)
        xi = sample_noise(m, (200000,), RngStream(3).child(NS_NOISE))
        np.testing.assert_allclose(xi.mean(), 1.0, atol=5e-3)
        np.testing.assert_allclose(xi.var(), 0.25, atol=5e-3)

    def test_bernoulli_sample_is_binary_with_rate_p(self):
        m = NoiseModel.bernoulli(0.7)
        xi = sample_noise(m, (200000,), RngStream(3).child(NS_NOISE))
        assert set(np.unique(xi)) <= {0.0, 1.0}
        np.testing.assert_allclose(xi.mean(), 0.7, atol=5e-3)

    def test_same_stream_same_draw(self):
        m = NoiseModel.gaussian(1.0)
        a = sample_noise(m, (64,), RngStream(9).child(NS_NOISE, 4))
        b = sample_noise(m, (64,), RngStream(9).child(NS_NOISE, 4))
        np.testing.assert_array_equal(a, b)


# rates on the word path: not k / 2^m with m <= 8, or at an end of [0, 1]
RATES = [0.0, 1e-300, 0.1, 0.7, 1.0 - 2.0 ** -53, 1.0]
# rates on the bit path, with their m
DYADIC = [(0.5, 1), (0.25, 2), (0.375, 3)]


class _Words:
    """Stand-in generator whose bit generator hands out fixed raw words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = words

    def random_raw(self, size, output=True):
        return self.words.reshape(size) if output else None


class TestExactDraws:
    """Off the bit path, Bernoulli masks are gen.random(shape) < p, and
    chunking keeps every draw."""

    @pytest.mark.parametrize("p", RATES)
    def test_bernoulli_mask_is_uniform_threshold(self, p):
        stream = RngStream(5).child(NS_NOISE, 3)
        got = sample_noise(NoiseModel.bernoulli(p), (40, 50), stream)
        want = (stream.generator().random((40, 50)) < p).astype(np.float64)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("p", RATES)
    def test_bernoulli_mask_at_the_threshold_words(self, p):
        # random() is (word >> 11) 2^-53: probe the words on both sides of
        # where that crosses p, and the two ends of the word range
        edge = int(np.ceil(p * 2.0 ** 53)) << 11
        cand = [0, 2047, 2048, edge - 2049, edge - 2048, edge - 1, edge, edge + 2047,
                edge + 2048, 2 ** 64 - 1]
        words = np.array([w for w in cand if 0 <= w < 2 ** 64], dtype=np.uint64)
        got = sample_noise(NoiseModel.bernoulli(p), words.shape, _Words(words))
        want = ((words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 < p)
        np.testing.assert_array_equal(got, want.astype(np.float64))

    @pytest.mark.parametrize("model", [NoiseModel.bernoulli(0.3), NoiseModel.bernoulli(1.0),
                                       NoiseModel.gaussian(0.5)],
                             ids=["bernoulli", "bernoulli-1", "gaussian"])
    def test_chunked_draws_equal_one_draw(self, model):
        stream = RngStream(6).child(NS_NOISE, 4)
        one = stream.generator()
        whole = sample_noise(model, (7, 5, 3), one)
        gen = stream.generator()
        parts = [sample_noise(model, (n, 5, 3), gen) for n in (1, 4, 2)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        # both generators stand at the same place afterwards
        np.testing.assert_array_equal(gen.random(8), one.random(8))


def bit_mask_reference(words, rows, n, m, k):
    """Draw i of a row fires when bits [i m, i m + m) of the row's words,
    least significant bit first, read as an integer, are below k."""
    per_row = len(words) // rows
    out = np.zeros((rows, n), dtype=bool)
    for r in range(rows):
        row = words[r * per_row:(r + 1) * per_row]
        bits = sum(int(wd) << (64 * j) for j, wd in enumerate(row))
        for i in range(n):
            out[r, i] = (bits >> (i * m)) & ((1 << m) - 1) < k
    return out


class TestBitDraws:
    """At dyadic p = k / 2^m each Bernoulli draw spends m raw bits."""

    def test_dyadic_bits(self):
        assert [dyadic_bits(p) for p, _ in DYADIC] == [m for _, m in DYADIC]
        assert dyadic_bits(1.0 / 256) == 8 and dyadic_bits(255.0 / 256) == 8
        assert [dyadic_bits(p) for p in RATES + [1.0 / 512]] == [0] * (len(RATES) + 1)

    @pytest.mark.parametrize("p,m", DYADIC)
    @pytest.mark.parametrize("shape", [(3, 50), (4, 5, 13), (130,)])
    def test_words_to_mask(self, p, m, shape):
        rows, n = shape[0], int(np.prod(shape[1:]))
        per_row = -(-n * m // 64)
        words = np.random.default_rng(31).integers(0, 2 ** 64, size=rows * per_row,
                                                   dtype=np.uint64, endpoint=False)
        words[:2] = [0, 2 ** 64 - 1]
        got = sample_noise(NoiseModel.bernoulli(p), shape, _Words(words))
        assert got.dtype == bool and got.shape == shape
        want = bit_mask_reference(words, rows, n, m, round(p * 2 ** m))
        np.testing.assert_array_equal(got, want.reshape(shape))

    @pytest.mark.parametrize("p,m", DYADIC)
    @pytest.mark.parametrize("shape,pieces", [((7, 5, 3), (1, 4, 2)),
                                              ((10, 300, 300), (1, 6, 3))])
    def test_chunked_draws_equal_one_draw(self, p, m, shape, pieces):
        model = NoiseModel.bernoulli(p)
        stream = RngStream(6).child(NS_NOISE, 5)
        one = stream.generator()
        whole = sample_noise(model, shape, one)
        gen = stream.generator()
        parts = [sample_noise(model, (n,) + shape[1:], gen) for n in pieces]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        np.testing.assert_array_equal(gen.random(8), one.random(8))

    @pytest.mark.parametrize("p,m", DYADIC)
    def test_rate_and_adjacent_independence(self, p, m):
        # 2^21 draws; every bound is 5 binomial standard errors
        xi = sample_noise(NoiseModel.bernoulli(p), (2 ** 11, 2 ** 10),
                          RngStream(7).child(NS_NOISE, m)).reshape(-1)
        n = xi.size
        assert abs(xi.mean() - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n)
        both = np.mean(xi[:-1] & xi[1:])
        q = p * p
        assert abs(both - q) <= 5.0 * np.sqrt(q * (1.0 - q) / (n - 1))

    def test_word_bits_are_uniform_and_independent(self):
        # at p = 1/2 a row of 64 draws is one word: column j is its bit j
        from scipy.stats import chi2

        xi = sample_noise(NoiseModel.bernoulli(0.5), (2 ** 21, 64),
                          RngStream(8).child(NS_NOISE))
        n = xi.shape[0]
        ones = xi.sum(axis=0)
        stat = np.sum((2.0 * ones - n) ** 2 / n)
        assert stat <= chi2.isf(1e-6, 64)
        flips = (xi[:, :-1] ^ xi[:, 1:]).sum(axis=0)
        stat = np.sum((2.0 * flips - n) ** 2 / n)
        assert stat <= chi2.isf(1e-6, 63)


class TestPreactivation:

    def test_zero_variance_noise_reduces_to_linear(self):
        # sigma^2 -> 0 forces xi = 1, so u = (1+a)(w.z) + b exactly
        w = np.array([[1.0, -2.0, 0.5]])
        z = np.array([[1.0, 1.0, -1.0]])
        a = np.array([0.25])
        b = np.array([-0.1])
        m = NoiseModel.gaussian(0.0)
        u = preactivation(w, z, a, b, m, RngStream(0).child(NS_NOISE))
        np.testing.assert_allclose(u, [[1.25 * (1.0 - 2.0 - 0.5) - 0.1]],
                                   atol=1e-15)

    def test_neuron_site_matches_manual_formula(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 6))
        z = rng.choice([-1.0, 1.0], size=(3, 6))
        a = rng.normal(size=4) * 0.1
        b = rng.normal(size=4) * 0.1
        m = NoiseModel.bernoulli(0.5)
        stream = RngStream(2).child(NS_NOISE, 7)
        u = preactivation(w, z, a, b, m, stream, site="neuron")
        # one mask per (sample, input), shared across the 4 output units
        xi = sample_noise(m, (3, 6), RngStream(2).child(NS_NOISE, 7))
        want = (xi * z) @ w.T + a * (z @ w.T) + b
        np.testing.assert_allclose(u, want, atol=1e-12)

    def test_synapse_site_matches_manual_formula(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(4, 6))
        z = rng.choice([-1.0, 1.0], size=(3, 6))
        a = rng.normal(size=4) * 0.1
        b = rng.normal(size=4) * 0.1
        m = NoiseModel.bernoulli(0.5)
        stream = RngStream(2).child(NS_NOISE, 8)
        u = preactivation(w, z, a, b, m, stream, site="synapse")
        xi = sample_noise(m, (3, 4, 6), RngStream(2).child(NS_NOISE, 8))
        want = np.einsum("boi,oi,bi->bo", xi + a[:, None], w, z) + b
        np.testing.assert_allclose(u, want, atol=1e-12)

    def test_sites_agree_in_expectation(self):
        # E[u] is identical for both placements of the factor a
        rng = np.random.default_rng(13)
        w = rng.normal(size=(2, 16))
        z = rng.choice([-1.0, 1.0], size=(1, 16))
        a = np.array([0.2, -0.1])
        b = np.array([0.0, 0.3])
        m = NoiseModel.bernoulli(0.5)
        root = RngStream(4).child(NS_NOISE)
        # one batched draw per site; u's sd is 0.5 ||w|| at either site, so
        # at this n the bound is over 5 standard errors of each mean
        n = 400_000
        assert 0.5 * np.linalg.norm(w, axis=1).max() / np.sqrt(n) <= 2e-2 / 5
        zs = np.repeat(z, n, axis=0)
        u_n = preactivation(w, zs, a, b, m, root.child(0), site="neuron")
        u_s = preactivation(w, zs, a, b, m, root.child(1), site="synapse")
        want = (m.mean + a) * (z @ w.T) + b
        np.testing.assert_allclose(u_n.mean(axis=0), want[0], atol=2e-2)
        np.testing.assert_allclose(u_s.mean(axis=0), want[0], atol=2e-2)


class TestActivationProbability:

    def test_two_unit_gaussian_oracle(self):
        # hand-computed: x_i = beta (w_i.z)/||w_i|| + b/(sqrt(2 s2)||w_i||)
        w = np.array([[1.0, 2.0], [-1.0, 1.0]])
        z = np.array([[1.0, -1.0]])
        a = np.array([0.0, 0.3])
        b = np.array([0.1, -0.2])
        m = NoiseModel.gaussian(0.4)
        p = activation_probability(w, z, a, b, m)
        np.testing.assert_allclose(
            p, [[0.26225914010653816, 0.00087255934976445249]], atol=1e-15)

    def test_two_unit_bernoulli_oracle(self):
        w = np.array([[1.0, 2.0], [-1.0, 1.0]])
        z = np.array([[1.0, -1.0]])
        a = np.array([0.0, 0.3])
        b = np.array([0.1, -0.2])
        m = NoiseModel.bernoulli(0.5)
        p = activation_probability(w, z, a, b, m)
        np.testing.assert_allclose(
            p, [[0.36025739356812762, 0.0054547491821346429]], atol=1e-15)

    def test_zero_norm_row_raises(self):
        w = np.array([[0.0, 0.0]])
        z = np.array([[1.0, 1.0]])
        m = NoiseModel.bernoulli(0.5)
        with pytest.raises(NormalizationError):
            activation_probability(w, z, np.zeros(1), np.zeros(1), m)

    def test_degenerate_noise_raises(self):
        w = np.array([[1.0, 1.0]])
        z = np.array([[1.0, 1.0]])
        with pytest.raises(DegenerateNoiseError):
            activation_probability(w, z, np.zeros(1), np.zeros(1),
                                   NoiseModel.gaussian(0.0))

    def test_probability_increases_with_drive(self):
        w = np.array([[1.0, 1.0, 1.0, 1.0]])
        m = NoiseModel.bernoulli(0.5)
        z_neg = -np.ones((1, 4))
        z_pos = np.ones((1, 4))
        p_neg = activation_probability(w, z_neg, np.zeros(1), np.zeros(1), m)
        p_pos = activation_probability(w, z_pos, np.zeros(1), np.zeros(1), m)
        assert p_neg[0, 0] < 0.5 < p_pos[0, 0]

    def test_closed_form_against_exact_enumeration_fan_in_8(self):
        # all 2^8 Bernoulli mask patterns, equally likely at p = 0.5:
        # exact P(u >= 0) = 121/256; the CLT form must land within 4e-3
        w = np.random.default_rng(123).normal(size=8)
        z = np.array([1.0, -1.0] * 4)
        b = 0.1
        exact = 0.0
        for mask in range(256):
            xi = np.array([(mask >> j) & 1 for j in range(8)], dtype=float)
            exact += float(np.sum(xi * w * z) + b >= 0) / 256
        np.testing.assert_allclose(exact, 0.47265625, atol=0)
        m = NoiseModel.bernoulli(0.5)
        p = activation_probability(w[None, :], z[None, :], np.zeros(1),
                                   np.array([b]), m)
        np.testing.assert_allclose(p[0, 0], exact, atol=4e-3)

    def test_closed_form_against_weighted_enumeration_p07(self):
        # same weights, Bernoulli p = 0.7: mask probability p^k (1-p)^(8-k)
        w = np.random.default_rng(123).normal(size=8)
        z = np.array([1.0, -1.0] * 4)
        b = 0.1
        exact = 0.0
        for mask in range(256):
            xi = np.array([(mask >> j) & 1 for j in range(8)], dtype=float)
            k = int(xi.sum())
            exact += (0.7 ** k) * (0.3 ** (8 - k)) * float(np.sum(xi * w * z) + b >= 0)
        np.testing.assert_allclose(exact, 0.44172921, atol=1e-12)
        m = NoiseModel.bernoulli(0.7)
        p = activation_probability(w[None, :], z[None, :], np.zeros(1),
                                   np.array([b]), m)
        np.testing.assert_allclose(p[0, 0], exact, atol=5e-3)

    def test_monte_carlo_agreement_moderate_fan_in(self):
        # fan-in 64: empirical firing rate of the sampled forward matches the
        # closed form within Monte Carlo error
        rng = np.random.default_rng(21)
        w = rng.normal(size=(3, 64)) / 8.0
        z = rng.choice([-1.0, 1.0], size=(1, 64))
        a = np.array([0.0, 0.1, -0.05])
        b = np.array([0.02, 0.0, -0.01])
        m = NoiseModel.bernoulli(0.5)
        p = activation_probability(w, z, a, b, m)
        hits = np.zeros((1, 3))
        root = RngStream(6).child(NS_NOISE)
        n = 200000
        for i in range(n):
            u = preactivation(w, z, a, b, m, root.child(i))
            hits += u >= 0
        np.testing.assert_allclose(hits / n, p, atol=5e-3)
