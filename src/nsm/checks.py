"""Self-diagnostics behind the `check` subcommand.

Each check returns a CheckResult; `run_all` executes the battery. The erf
reference is mpmath at 50 digits, a code path fully independent of the
scipy kernel used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from .core import erf_probability
from .layers import MODE_MEAN, MODE_SAMPLE
from .network import softmax, cross_entropy_loss
from .noise import NoiseModel, sample_noise
from .presets import build_network, parse_preset
from .rng import RngStream
from . import autodiff


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        word = "ok" if self.passed else "FAIL"
        return f"{word:4s} {self.name}: {self.detail} (value {self.value:.3e}, bound {self.bound:.1e})"


def check_erf_accuracy(points: int = 2001) -> CheckResult:
    """scipy erf kernel vs 50-digit mpmath on a dense grid over [-6, 6]."""
    mpmath.mp.dps = 50
    xs = np.linspace(-6.0, 6.0, points)
    ours = 2.0 * erf_probability(xs) - 1.0
    worst = 0.0
    for x, v in zip(xs, ours):
        worst = max(worst, abs(v - float(mpmath.erf(mpmath.mpf(float(x))))))
    return CheckResult("erf-accuracy", worst <= 1e-7, worst, 1e-7,
                       f"max |erf - reference| over {points} points in [-6, 6]")


def mc_firing_frequency(w: np.ndarray, model: NoiseModel, draws: int,
                        stream: RngStream, chunk: int = 32768) -> np.ndarray:
    """Monte Carlo estimate of P(+1) for rows of w at z = all-ones, b = 0.

    Draws multiplicative noise at the neuron site. All weight rows see the
    same noise masks (each row still sees `draws` independent samples, which
    is what the frequency estimate needs); this turns the sweep into a few
    matrix products.
    """
    w = np.asarray(w, dtype=np.float64)
    fan_in = w.shape[1]
    hits = np.zeros(w.shape[0], dtype=np.int64)
    done = 0
    block = 0
    while done < draws:
        n = min(chunk, draws - done)
        xi = sample_noise(model, (n, fan_in), stream.child(block))
        u = xi.astype(np.float32) @ w.T.astype(np.float32)
        hits += (u >= 0.0).sum(axis=0)
        done += n
        block += 1
    return hits / draws


def check_clt_agreement(fan_in: int = 256, vectors: int = 8, draws: int = 200_000,
                        tol: float = 5e-3, seed: int = 2024) -> CheckResult:
    """Sampled firing frequency vs the erf closed form (desk-scale battery)."""
    stream = RngStream(seed)
    gen = stream.child(0).generator()
    w = gen.uniform(-1.0, 1.0, size=(vectors, fan_in))
    model = NoiseModel.bernoulli(0.5)
    z = np.ones(fan_in)
    from .core import activation_probability
    p_ref = activation_probability(w, z, np.zeros(vectors), np.zeros(vectors), model)
    p_mc = mc_firing_frequency(w, model, draws, stream.child(1))
    worst = float(np.max(np.abs(p_mc - p_ref)))
    return CheckResult("clt-agreement", worst <= tol, worst, tol,
                       f"fan-in {fan_in}, {vectors} rows, {draws} draws")


def check_gradient_fd(seed: int = 7, tol: float = 1e-5) -> CheckResult:
    """Central differences vs the analytic backward on a small stack."""
    net = build_network(parse_preset("mlp-12-8-6-3"), "nsm",
                        NoiseModel.bernoulli(0.5), seed=seed)
    gen = RngStream(seed).child(99).generator()
    x = np.where(gen.random((4, 12)) < 0.5, 1.0, -1.0)
    y = gen.integers(0, 3, size=4)
    worst = autodiff.finite_difference_check(net, x, y)
    return CheckResult("gradient-fd", worst <= tol, worst, tol,
                       "central differences h=1e-6, every coordinate, mlp-12-8-6-3")


def check_orthogonality(seed: int = 11, trials: int = 20,
                        tol: float = 1e-10) -> CheckResult:
    """w . dw == 0 per unit, within tol * ||w|| ||dw||."""
    net = build_network(parse_preset("mlp-20-16-10-4"), "nsm",
                        NoiseModel.gaussian(0.25), seed=seed)
    worst = 0.0
    for trial in range(trials):
        gen = RngStream(seed).child(trial + 1).generator()
        x = np.where(gen.random((6, 20)) < 0.5, 1.0, -1.0)
        y = gen.integers(0, 4, size=6)
        _, grads, _ = net.loss_and_grads(x, y, MODE_SAMPLE,
                                         RngStream(seed).child(500 + trial))
        for layer in net.layers:
            if layer.scale_name is None:
                continue
            w = layer.params()["w"].reshape(layer.params()["w"].shape[0], -1)
            dw = grads[f"{layer.name}.w"].reshape(w.shape)
            dots = np.abs(np.sum(w * dw, axis=1))
            scale = np.linalg.norm(w, axis=1) * np.linalg.norm(dw, axis=1)
            ratio = np.max(dots / np.maximum(scale, 1e-300))
            worst = max(worst, float(ratio))
    return CheckResult("orthogonality", worst <= tol, worst, tol,
                       f"max |w.dw| / (||w|| ||dw||) over {trials} sampled backwards")


def check_scale_invariance(seed: int = 13, tol: float = 1e-12) -> CheckResult:
    """Rescaling any weight matrix leaves the firing probabilities fixed."""
    net = build_network(parse_preset("mlp-16-12-5"), "nsm",
                        NoiseModel.bernoulli(0.5), seed=seed)
    gen = RngStream(seed).child(1).generator()
    x = np.where(gen.random((8, 16)) < 0.5, 1.0, -1.0)
    base_p = softmax(net.predict(x, MODE_MEAN))
    worst = 0.0
    for alpha in (0.1, 3.0, 17.0):
        scaled = build_network(parse_preset("mlp-16-12-5"), "nsm",
                               NoiseModel.bernoulli(0.5), seed=seed)
        for layer in scaled.layers:
            if "w" in layer.params():
                layer.params()["w"][...] *= alpha
        probs = softmax(scaled.predict(x, MODE_MEAN))
        worst = max(worst, float(np.max(np.abs(probs - base_p))))
    return CheckResult("scale-invariance", worst <= tol, worst, tol,
                       "max softmax drift under w -> alpha w, alpha in {0.1, 3, 17}")


def check_rng_replay(seed: int = 5) -> CheckResult:
    """Streams replay bit-identically and distinct paths decorrelate."""
    a = RngStream(seed).child(3, 1, 4).generator().random(1000)
    b = RngStream(seed).child(3, 1, 4).generator().random(1000)
    c = RngStream(seed).child(3, 1, 5).generator().random(1000)
    replay_ok = bool(np.all(a == b))
    distinct_ok = bool(np.any(a != c))
    passed = replay_ok and distinct_ok
    return CheckResult("rng-replay", passed, 0.0 if passed else 1.0, 0.5,
                       "same path replays bit-identically; sibling path differs")


def check_loss_sanity() -> CheckResult:
    """Cross-entropy of a uniform prediction equals log(num classes)."""
    probs = np.full((4, 10), 0.1)
    loss = cross_entropy_loss(probs, np.array([0, 3, 7, 9]))
    err = abs(loss - np.log(10.0))
    return CheckResult("loss-sanity", err <= 1e-12, err, 1e-12,
                       "uniform prediction gives log(10)")


def run_all() -> list[CheckResult]:
    results = [
        check_erf_accuracy(),
        check_rng_replay(),
        check_loss_sanity(),
        check_scale_invariance(),
        check_orthogonality(),
        check_gradient_fd(),
        check_clt_agreement(),
    ]
    return results
