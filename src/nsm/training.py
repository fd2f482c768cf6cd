"""Training loop, optimizers, Monte Carlo evaluation, data-dependent init.

The loop trains on sampled binary forwards and backpropagates through the
probability surface. All randomness is keyed by (seed, purpose, epoch,
iteration, layer), so a run resumed from a checkpoint consumes exactly the
noise the uninterrupted run would have.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import ConfigError, InitError
from .layers import MODE_MEAN, MODE_SAMPLE
from .network import Network, check_finite_grads, softmax
from .rng import NS_EVAL, NS_NOISE, NS_SHUFFLE, RngStream


@dataclass
class MetricsRecord:
    iteration: int
    epoch: int
    loss: float
    test_error: float | None = None
    p15: float | None = None
    p50: float | None = None
    p85: float | None = None
    seconds: float = 0.0


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def state(self):
        return {}

    def load_state(self, state):
        pass

    def step(self, params: dict, grads: dict, lr_scale: float = 1.0, beta1=None):
        for name, p in params.items():
            p -= (self.lr * lr_scale) * grads[name]


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def state(self):
        return {"t": self.t, "m": self.m, "v": self.v}

    def load_state(self, state):
        # copy so two optimizers never share (and in-place mutate) moments
        self.t = int(state["t"])
        self.m = {k: np.array(v) for k, v in state["m"].items()}
        self.v = {k: np.array(v) for k, v in state["v"].items()}

    def step(self, params: dict, grads: dict, lr_scale: float = 1.0, beta1=None):
        b1 = self.beta1 if beta1 is None else beta1
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= b1
            m += (1.0 - b1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - self.beta2 ** self.t)
            p -= (self.lr * lr_scale) * mhat / (np.sqrt(vhat) + self.eps)


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(config.lr)
    if config.optimizer == "adam":
        return Adam(config.lr, config.adam_beta1, config.adam_beta2, config.adam_eps)
    raise ConfigError(f"unknown optimizer {config.optimizer!r}")


def schedule(config: TrainConfig, epoch: int):
    """(lr_scale, beta1) for this epoch under the linear-decay schedule."""
    if config.decay_start_epoch < 0 or epoch < config.decay_start_epoch:
        return 1.0, None
    span = max(config.epochs - config.decay_start_epoch, 1)
    frac = min((epoch - config.decay_start_epoch) / span, 1.0)
    lr_scale = 1.0 - frac
    beta1 = config.adam_beta1 + frac * (config.late_beta1 - config.adam_beta1)
    return lr_scale, beta1


@dataclass
class TrainState:
    network: Network
    optimizer: object
    config: TrainConfig
    seed: int
    mode: str = MODE_SAMPLE          # MODE_CONCRETE for the relaxed estimator
    epoch: int = 0                   # next epoch to run, or to finish after a cut
    iteration: int = 0               # minibatches consumed so far
    records: list = field(default_factory=list)

    @property
    def stream(self) -> RngStream:
        return RngStream(self.seed)


def train_batch(state: TrainState, inputs, labels):
    """One forward/backward/update on a prepared minibatch."""
    net, cfg = state.network, state.config
    noise = state.stream.child(NS_NOISE, state.epoch, state.iteration)
    need_stream = state.mode != MODE_MEAN
    loss, grads, caches = net.loss_and_grads(
        inputs, labels, state.mode, noise if need_stream else None)
    check_finite_grads(grads)
    lr_scale, beta1 = schedule(cfg, state.epoch)
    state.optimizer.step(net.params(), grads, lr_scale, beta1)
    state.iteration += 1
    return loss, grads, caches


def batches_done(state: TrainState, n: int) -> int:
    """Batches of the current epoch's permutation of n examples already run.

    Nonzero only for a run cut mid-epoch by max_iterations; its resume
    continues at the next batch of the same permutation.
    """
    per_epoch = n // state.config.batch_size
    done = state.iteration - state.epoch * per_epoch
    if not 0 <= done <= per_epoch:
        raise ConfigError(
            f"iteration {state.iteration} does not fall in epoch {state.epoch} at "
            f"{per_epoch} batches per epoch (batch size or training set changed?)")
    return done


def train_epoch(state: TrainState, train_inputs, train_labels,
                test_inputs=None, test_labels=None,
                grad_log: dict | None = None) -> list[MetricsRecord]:
    """Run one epoch; returns the records appended during it.

    grad_log, when given, is a dict layer-name -> list; the flattened weight
    gradient of each NSM-parameterized layer is appended every iteration
    (used by the estimator-similarity analysis).
    """
    net, cfg = state.network, state.config
    n = train_inputs.shape[0]
    order = state.stream.child(NS_SHUFFLE, state.epoch).generator().permutation(n)
    ended = state.epoch + 1
    new_records = []
    t0 = time.monotonic()
    for start in range(batches_done(state, n) * cfg.batch_size, n - n % cfg.batch_size,
                       cfg.batch_size):
        if 0 <= cfg.max_iterations <= state.iteration:
            break
        idx = order[start:start + cfg.batch_size]
        loss, grads, caches = train_batch(state, train_inputs[idx], train_labels[idx])
        if grad_log is not None:
            for name, g in grads.items():
                if name.endswith(".w"):
                    grad_log.setdefault(name[:-2], []).append(g.reshape(-1).copy())
        rec = MetricsRecord(iteration=state.iteration, epoch=state.epoch, loss=loss,
                            seconds=time.monotonic() - t0)
        if cfg.record_percentiles:
            stat = net.last_hidden_stat(caches)
            if stat is not None:
                rec.p15, rec.p50, rec.p85 = (
                    float(v) for v in np.percentile(stat, [15.0, 50.0, 85.0]))
        new_records.append(rec)
        state.records.append(rec)   # commit per iteration so a blowup keeps them
    else:
        state.epoch = ended         # not on a max_iterations cut
    if (test_inputs is not None and new_records
            and (ended % cfg.eval_every == 0 or ended == cfg.epochs)):
        err = evaluate_mc(net, test_inputs, test_labels, cfg.mc_samples,
                          state.stream.child(NS_EVAL, ended))
        new_records[-1].test_error = err
    return new_records


def train(state: TrainState, train_inputs, train_labels,
          test_inputs=None, test_labels=None, grad_log: dict | None = None):
    while state.epoch < state.config.epochs:
        if 0 <= state.config.max_iterations <= state.iteration:
            break
        train_epoch(state, train_inputs, train_labels, test_inputs, test_labels,
                    grad_log)
    return state.records


def evaluate_mc(network: Network, inputs, labels, mc_samples: int,
                stream: RngStream, batch_size: int = 500,
                mode: str = MODE_SAMPLE) -> float:
    """Error rate with Monte Carlo averaging of softmax outputs.

    Each of the mc_samples passes runs the stochastic forward on the whole
    set; the per-class probabilities are summed across passes and the
    argmax is compared to the labels. Network.passes does the work the
    passes over a batch share once and runs a group of passes as one
    forward; a model that draws no noise (a deterministic one) runs one pass
    per batch, summed mc_samples times. What depends on the weights alone,
    and the group and sub-chunk sizes, is worked out once for all batches.

    batch_size fixes the rows each dense product sees, and with it the bits
    of every pass. A conv net's spatial layers run over byte-bounded
    sub-chunks of each batch and gather one flat row per example and pass,
    so memory grows with batch_size only by the flat part's rows.
    """
    if mc_samples < 1:
        raise ConfigError(f"mc_samples must be at least 1, got {mc_samples}")
    n = inputs.shape[0]
    wrong = 0
    shared = [{} for _ in network.layers]
    for start in range(0, n, batch_size):
        xb = inputs[start:start + batch_size]
        yb = labels[start:start + batch_size]
        acc = np.zeros((xb.shape[0], network.layers[-1].w.shape[0]), dtype=np.float64)
        for logits in network.passes(xb, mode, (stream.child(s, start)
                                                for s in range(mc_samples)), shared):
            acc += softmax(logits)
        wrong += int(np.sum(np.argmax(acc, axis=1) != yb))
    return wrong / n


def data_dependent_init(network: Network, batch, stream: RngStream):
    """Set (beta, bias) per layer from the statistics of an init batch.

    Walking input to output: for each normalized layer compute the
    per-feature projection t = (w.z)/||w|| on the current batch, set
    beta = 1/std(t), bias = -mean(t)/std(t) (so the normalized argument is
    standardized on this batch), then propagate the batch with a sampled
    forward so deeper layers see the distribution they will train on. That
    forward reuses the projection, which does not depend on beta or bias.
    A normalized layer is one whose scale_name names its scale parameter:
    beta for stochastic layers and the head, g for the weight-normalized
    binary baseline. A convolution's positions count as batch entries.
    """
    z = network._prep(batch)
    for idx, layer in enumerate(network.layers):
        params = layer.params()
        known = {}
        if layer.scale_name:
            known["s"], t, known["norms"] = layer.project(z)
            t = t.reshape(-1, t.shape[-1])
            mu, sd = t.mean(axis=0), t.std(axis=0)
            if np.any(sd == 0.0):
                raise InitError(f"{layer.name}: zero variance on the init batch")
            params[layer.scale_name][...] = 1.0 / sd
            if "bias" in params:
                params["bias"][...] = -mu / sd
        z, _ = layer.forward(z, MODE_SAMPLE, stream.child(idx), known)
    return network
