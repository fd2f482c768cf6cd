"""Correctness checks run at the end of every workload, outside the timed phases.

Each check raises CheckFailed with the measured value and its bound, or
returns the measured value. The tolerances are fixed here and are never
widened to make a run pass. The closed-form references are written with
NumPy and SciPy only: they do not call nsm.core or nsm.layers.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import erf
from scipy.stats import binom

# |cos(dw_i, w_i)| allowed per weight row: float64 roundoff of the
# orthogonal rule is ~1e-15, a rule that keeps any radial part is O(1e-3+)
ORTHO_TOL = 1e-9
# max |network - reference| on mean-mode outputs, relative to max(1, |ref|)
CLOSED_FORM_TOL = 1e-9
# per (input, unit) probability that a correct layer's count falls outside
# its binomial interval
FIRING_ALPHA = 1e-12
# allowance per unit for the CLT's second-order error, in units of
# sum w^4 / (sum w^2)^2; five times the leading Edgeworth term's 0.046
CLT_SLACK_FACTOR = 0.25


class CheckFailed(AssertionError):
    pass


def weight_normalized_layers(network):
    """Layers that carry the (w, beta, bias) parameterization."""
    return [layer for layer in network.layers if "beta" in layer.params()]


def orthogonality(grads, network) -> float:
    """Worst |cos| between a weight row and its gradient row, over every layer."""
    worst = 0.0
    for layer in weight_normalized_layers(network):
        w = layer.w.reshape(layer.w.shape[0], -1)
        dw = grads[f"{layer.name}.w"].reshape(w.shape)
        dots = np.abs(np.sum(w * dw, axis=1))
        scale = np.sqrt(np.sum(w * w, axis=1)) * np.sqrt(np.sum(dw * dw, axis=1))
        cos = np.divide(dots, scale, out=np.zeros_like(dots), where=scale > 0)
        worst = max(worst, float(cos.max()))
    if not worst <= ORTHO_TOL:
        raise CheckFailed(f"weight gradient not orthogonal to its row: |cos| {worst:.3e} "
                          f"> {ORTHO_TOL:.0e}")
    return worst


def closed_form_argument(w, beta, bias, z):
    """beta (w.z)/||w|| + bias for dense rows w (out, in) and inputs z (B, in)."""
    norms = np.sqrt(np.sum(w * w, axis=1))
    return beta * (z @ w.T) / norms + bias


def mlp_mean_logits(layers, x):
    """Mean-mode logits of a dense stack from its (w, beta, bias) triples.

    Each hidden layer outputs E[z] = 2P - 1 with
    P = 1/2 (1 + erf(beta (w.z)/||w|| + b)); the head is the argument itself.
    """
    z = x.reshape(x.shape[0], -1)
    for w, beta, bias in layers[:-1]:
        z = 2.0 * firing_law(closed_form_argument(w, beta, bias, z)) - 1.0
    return closed_form_argument(*layers[-1], z)


def conv_argument(w, beta, bias, x, stride=1, pad=0):
    """beta (w.z)/||w|| + bias of one conv layer, by direct convolution.

    w (K, C, kh, kw), x (B, C, H, W) -> (B, K, oh, ow); sums shifted input
    windows kernel offset by kernel offset instead of building patches.
    """
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k, _, kh, kw = w.shape
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    acc = np.zeros((x.shape[0], k, oh, ow))
    for i in range(kh):
        for j in range(kw):
            window = x[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride]
            acc += np.einsum("bchw,kc->bkhw", window, w[:, :, i, j])
    norms = np.sqrt(np.sum(w * w, axis=(1, 2, 3)))
    return beta[:, None, None] * acc / norms[:, None, None] + bias[:, None, None]


def firing_law(arg):
    """P = 1/2 (1 + erf(arg)), the closed-form firing probability."""
    return 0.5 * (1.0 + erf(arg))


def closed_form(got, reference) -> float:
    """Max relative difference between a network output and its reference."""
    got, reference = np.asarray(got), np.asarray(reference)
    if got.shape != reference.shape:
        raise CheckFailed(f"closed form: shape {got.shape} != reference {reference.shape}")
    diff = float(np.max(np.abs(got - reference) / np.maximum(1.0, np.abs(reference))))
    if not diff <= CLOSED_FORM_TOL:
        raise CheckFailed(f"mean-mode output differs from the closed form by {diff:.3e} "
                          f"> {CLOSED_FORM_TOL:.0e}")
    return diff


def clt_slack(w) -> np.ndarray:
    """Per-row allowance for the gap between the erf law and the exact P(u >= 0).

    u = sum_j (xi_j + a) w_j z_j + b with z_j = +-1 and keep-rate 1/2
    Bernoulli xi_j. Each term is symmetric about its mean, so the Edgeworth
    series of P(u >= 0) has no skewness term; its leading correction is
    phi(x) He3(x) k4 / 24 with standardized fourth cumulant
    k4 = -2 sum w^4 / (sum w^2)^2, at most 0.046 sum w^4 / (sum w^2)^2 in
    size. The allowance is five times that. It holds for keep-rate 1/2 only.
    """
    w = w.reshape(w.shape[0], -1)
    return CLT_SLACK_FACTOR * np.sum(w ** 4, axis=1) / np.sum(w * w, axis=1) ** 2


def firing_frequency(fired, draws: int, law, slack) -> float:
    """Check sampled +1 counts against the erf law.

    fired: (inputs, units) count of +1 over `draws` independent samples;
    law: the closed-form P per (input, unit); slack: the allowed distance
    between the law and the exact firing probability (clt_slack), per unit.
    A count passes when it lies inside the central 1 - FIRING_ALPHA interval
    of Binomial(draws, p) for some p within slack of the law. Returns the
    largest |frequency - law|.
    """
    fired = np.asarray(fired)
    lo = binom.ppf(FIRING_ALPHA / 2, draws, np.clip(law - slack, 0.0, 1.0))
    hi = binom.isf(FIRING_ALPHA / 2, draws, np.clip(law + slack, 0.0, 1.0))
    bad = (fired < lo) | (fired > hi)
    worst = float(np.max(np.abs(fired / draws - law)))
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise CheckFailed(
            f"firing frequency off the erf law at {int(bad.sum())} of {bad.size} units; "
            f"e.g. {int(fired[i])}/{draws} fired, law {float(law[i]):.4f} "
            f"+- {float(np.broadcast_to(slack, law.shape)[i]):.4f}")
    return worst


def loss_decreases(losses, window: int) -> float:
    """Mean loss over the last `window` steps minus the mean over the first."""
    losses = np.asarray(losses, dtype=np.float64)
    if len(losses) < 2 * window:
        raise CheckFailed(f"loss check needs {2 * window} steps, got {len(losses)}")
    delta = float(losses[-window:].mean() - losses[:window].mean())
    if not delta < 0.0:
        raise CheckFailed(f"mean training loss did not fall: last {window} minus first "
                          f"{window} is {delta:+.4f}")
    return delta


def bitwise_equal(saved: dict, restored: dict) -> int:
    """Number of arrays compared; fails unless every array matches bit for bit."""
    if set(saved) != set(restored):
        raise CheckFailed(f"checkpoint round trip changed the names: {sorted(set(saved) ^ set(restored))}")
    for name, arr in saved.items():
        a = np.ascontiguousarray(arr, dtype=np.float64)
        b = np.ascontiguousarray(restored[name])
        if a.shape != b.shape or b.dtype != np.float64 or a.tobytes() != b.tobytes():
            raise CheckFailed(f"checkpoint round trip changed {name}")
    return len(saved)


def loss_digest(losses) -> str:
    return hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes()).hexdigest()[:16]
