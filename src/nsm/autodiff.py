"""Backward rules for the probability surface.

Training treats the sampled binary states as constants and differentiates
the smooth probability surface m = 2P - 1 = erf(x), x = beta t + b_norm,
t = (w.z)/||w||. With s = upstream * erf_slope(x):

    d v      = s (outer) z          (v = beta w / ||w||, the effective weight)
    d beta_i = sum_batch s_i t_i
    d w_ij   = (beta_i/||w_i||) dv_ij - (beta_i w_ij / ||w_i||^2) dbeta_i
    d b_norm = sum_batch s_i
    d z_j    = sum_i v_ij s_i

The w rule keeps d w_i exactly orthogonal to w_i: only the direction of a
weight row can change, its scale is carried by beta. Layers call
reparam_grads through this module's attribute so tests can fault-inject a
corrupted rule and watch the gradient checker catch it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def reparam_grads(w: np.ndarray, norms: np.ndarray, beta: np.ndarray,
                  dv: np.ndarray, d_beta: np.ndarray):
    """Map effective-weight gradients to (d_w, d_beta-passthrough).

    w: (out, in) raw weights; norms: (out,) row norms; beta: (out,);
    dv: (out, in) gradient w.r.t. the effective weight v = beta w/||w||;
    d_beta: (out,) gradient w.r.t. beta, already summed over the batch.
    """
    coef = (beta / norms)[:, None]
    dw = coef * dv - ((beta * d_beta) / (norms * norms))[:, None] * w
    return dw


def fd_against(f: Callable[[], float], params: list[np.ndarray],
               grads: list[np.ndarray], h: float = 1e-6,
               sample: int | None = None, seed: int = 0) -> float:
    """Central-difference verification of analytic gradients.

    f re-evaluates the scalar loss from current parameter values; params are
    the live arrays (perturbed in place and restored); grads the analytic
    gradients to verify. Checks every coordinate unless sample caps the
    count per array (seeded choice). Returns the max relative error
    |fd - g| / max(|fd|, |g|, 1): relative for large entries, absolute for
    sub-unit ones (a pure ratio would drown near-zero coordinates in
    finite-difference roundoff).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        idx = np.arange(flat_p.size)
        if sample is not None and flat_p.size > sample:
            idx = rng.choice(flat_p.size, size=sample, replace=False)
        for i in idx:
            keep = flat_p[i]
            flat_p[i] = keep + h
            up = f()
            flat_p[i] = keep - h
            down = f()
            flat_p[i] = keep
            fd = (up - down) / (2.0 * h)
            rel = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1.0)
            worst = max(worst, rel)
    return worst


def finite_difference_check(network, inputs, targets, step: float = 1e-6,
                            sample: int | None = None, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs the network's expectation path (probabilities propagated end to
    end), takes the analytic gradients from the training backward, and
    perturbs every parameter coordinate by +-step (or a seeded sample of
    coordinates per array when sample is given).
    """
    from .layers import MODE_MEAN

    _, grads, _ = network.loss_and_grads(inputs, targets, MODE_MEAN)
    params = network.params()
    keys = sorted(params)
    return fd_against(lambda: network.mean_loss(inputs, targets),
                      [params[k] for k in keys], [grads[k] for k in keys],
                      h=step, sample=sample, seed=seed)
