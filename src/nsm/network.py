"""Network container: a layer stack with mode-dispatched forward/backward.

Noise streams: forward and predict derive one substream per layer as
stream.child(layer_index), so a layer's draws depend only on
(seed, purpose-path, layer), never on how other layers consume randomness.

predict is the one-stream case of passes, which runs the Monte Carlo
passes over one input. A sample-mode pass builds no backward cache, and
what no pass changes is computed once per call, or the whole pass when no
layer draws noise.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import NanGradientError, ShapeError
from .layers import MODE_MEAN, MODE_SAMPLE, _chunk_rows
from .rng import RngStream


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; probabilities clamped to [1e-7, 1-1e-7]."""
    p = np.clip(probs, 1e-7, 1.0 - 1e-7)
    n = p.shape[0]
    return float(-np.mean(np.log(p[np.arange(n), labels])))


def cross_entropy_dlogits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    return d / n


class Network:
    """Ordered layer stack; the last layer is the readout head."""

    def __init__(self, layers: list, input_shape: tuple[int, ...]):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate layer names: {names}")

    def _prep(self, z: np.ndarray) -> np.ndarray:
        """z as float64 examples of input_shape: as given when so shaped, else
        each example reshaped in C order from any layout of the same size."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape[1:] != self.input_shape:
            if np.prod(z.shape[1:]) != np.prod(self.input_shape):
                raise ShapeError(f"input shape {z.shape[1:]} != expected {self.input_shape}")
            z = z.reshape(z.shape[:1] + self.input_shape)
        return z

    def forward(self, z, mode: str = MODE_SAMPLE, stream: RngStream | None = None):
        """Run the stack; returns (logits, caches)."""
        out, caches = self._prep(z), []
        for idx, layer in enumerate(self.layers):
            out, cache = layer.forward(out, mode, stream and stream.child(idx))
            caches.append(cache)
        return out, caches

    def predict(self, z, mode: str = MODE_SAMPLE, stream: RngStream | None = None):
        """Logits of the same pass as forward, keeping no backward caches."""
        return next(self.passes(z, mode, [stream]))

    def passes(self, z, mode: str, streams, shared=None):
        """forward's logits over z for each stream in turn, keeping no caches.

        The passes run in groups, each one forward over a leading pass axis,
        with the group's per-pass streams as a tuple (see `layers`); every
        pass keeps the bits and draws of its own forward. The first group is
        pass 0 alone, which records each layer's output size per example in
        its dict as "width"; after that a group holds as many passes as keep
        every stacked layer output within layers._CHUNK_BYTES, or one. Each
        layer keeps what no pass changes in a dict they share; a stack that
        draws no noise in this mode runs once, for every stream. shared, one
        dict per layer, may carry the weights' memos and widths over from a
        call on other inputs with the same weights."""
        z = self._prep(z)[None]
        if shared is None:
            shared = [{} for _ in self.layers]
        shared[0]["z"] = z
        shared[0].pop("product", None)
        noisy = any(layer.draws_noise(mode) for layer in self.layers)
        streams, out = iter(streams), None
        while group := tuple(islice(streams, self._group_size(z.shape[1], shared))):
            if noisy or out is None:
                out = z
                for idx, layer in enumerate(self.layers):
                    out = layer.forward(out, mode, tuple(s and s.child(idx) for s in group),
                                        shared[idx])[0]
                    shared[idx].setdefault("width", out[0].size // z.shape[1])
            for i in range(len(group)):
                yield out[i % len(out)]   # out has one slab when no layer drew noise

    @staticmethod
    def _group_size(batch: int, shared) -> int:
        """Passes per group: 1 until every layer's width is known."""
        widths = [kept.get("width") for kept in shared]
        return 1 if None in widths else _chunk_rows(batch * max(widths))

    def backward(self, caches, dlogits):
        """Chain the layer backwards; returns {layer.param: grad} flat dict.

        The first layer is not asked for its input gradient, which nothing uses.
        """
        grads = {}
        d = dlogits
        for idx in reversed(range(len(self.layers))):
            layer = self.layers[idx]
            layer_grads, d = layer.backward(caches[idx], d, input_grad=idx > 0)
            for key, g in layer_grads.items():
                grads[f"{layer.name}.{key}"] = g
        return grads

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed 'layer.param' in stack order."""
        out = {}
        for layer in self.layers:
            for key, arr in layer.params().items():
                out[f"{layer.name}.{key}"] = arr
        return out

    def loss_and_grads(self, z, labels, mode: str = MODE_SAMPLE,
                       stream: RngStream | None = None):
        """One forward/backward pass; returns (loss, grads, caches)."""
        logits, caches = self.forward(z, mode, stream)
        probs = softmax(logits)
        loss = cross_entropy_loss(probs, labels)
        grads = self.backward(caches, cross_entropy_dlogits(probs, labels))
        return loss, grads, caches

    def mean_loss(self, z, labels) -> float:
        """Deterministic expectation-path loss (the FD check's scalar)."""
        return cross_entropy_loss(softmax(self.predict(z, MODE_MEAN)), labels)

    def last_hidden_stat(self, caches) -> np.ndarray | None:
        """The nonlinearity argument of the deepest hidden layer, flattened."""
        for cache in reversed(caches[:-1]):
            if "stat" in cache:
                return np.asarray(cache["stat"]).reshape(-1)
        return None


def check_finite_grads(grads: dict[str, np.ndarray]):
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NanGradientError(f"non-finite gradient in {name}")
