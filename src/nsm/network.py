"""Network container: a layer stack with mode-dispatched forward/backward.

Noise streams: forward and predict derive one substream per layer as
stream.child(layer_index), so a layer's draws depend only on
(seed, purpose-path, layer), never on how other layers consume randomness.

predict is the one-stream case of passes, which runs the Monte Carlo
passes over one input. A sample-mode pass builds no backward cache, and
what no pass changes is computed once per call, or the whole pass when no
layer draws noise. A conv net's passes run their spatial layers over
sub-chunks of the batch, so their memory does not grow with it.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import NanGradientError, ShapeError
from .layers import MODE_MEAN, MODE_SAMPLE, _chunk_rows, _ConvMaps, _Plumbing
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


def _group_size(rows: int, shared) -> int:
    """Slabs of rows examples per group that keep every layer output in shared
    within _CHUNK_BYTES, at least one; 1 until each layer's width per example
    is known. A slab is a pass over a batch of rows, or an example (rows 1)."""
    widths = [kept.get("width") for kept in shared]
    return 1 if None in widths else _chunk_rows(rows * max(widths))


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
        every stacked output of the flat part within layers._CHUNK_BYTES, or
        one. Each layer keeps what no pass changes in a dict they share; a
        stack that draws no noise in this mode runs once, for every stream.
        shared, one dict per layer, may carry the weights' memos and widths
        over from a call on other inputs with the same weights.

        The flat part is the stack from its first dense weight layer on,
        whose products mix the rows of the batch; before it, the spatial
        prefix (_spatial_end) works on each example alone. The prefix runs
        over sub-chunks of z (_spatial), and the group's prefix outputs are
        gathered into one (passes, B, F) block that the flat part runs on
        whole, since a dense product's bits depend on its row count. A stack
        without a prefix, an MLP, runs each group over z whole."""
        z = self._prep(z)
        if shared is None:
            shared = [{} for _ in self.layers]
        split = self._spatial_end()
        batch = len(z)
        if not split:
            shared[0]["z"] = z = z[None]
            shared[0].pop("product", None)
        noisy = any(layer.draws_noise(mode) for layer in self.layers)
        streams, out = iter(streams), None
        while group := tuple(islice(streams, _group_size(batch, shared[max(split - 1, 0):]))):
            if noisy or out is None:
                out = self._spatial(z, mode, group, shared[:split]) if split else z
                for idx in range(split, len(self.layers)):
                    out = self.layers[idx].forward(
                        out, mode, tuple(s and s.child(idx) for s in group), shared[idx])[0]
                    shared[idx].setdefault("width", out[0].size // batch)
            for i in range(len(group)):
                yield out[i % len(out)]   # out has one slab when no layer drew noise

    def _spatial_end(self) -> int:
        """The number of leading layers that work on each example alone: the
        convolutions and plumbing before the first dense weight layer."""
        return next((idx for idx, layer in enumerate(self.layers)
                     if not isinstance(layer, (_ConvMaps, _Plumbing))), len(self.layers))

    def _spatial(self, z, mode, group, shared):
        """The group's outputs of the spatial prefix over z, (passes, B, ...).

        z runs in sub-chunks of as many examples as keep every prefix output
        within layers._CHUNK_BYTES (one until the widths are known); each
        pass in turn runs a sub-chunk, its first layer reusing the product
        it keeps for that sub-chunk. A pass draws from one open generator
        per noisy layer across the sub-chunks, so it gets the values of one
        draw over z."""
        gens = [[s.child(idx).generator() if s and layer.draws_noise(mode) else None
                 for idx, layer in enumerate(self.layers[:len(shared)])] for s in group]
        block, lo = None, 0
        while lo < len(z):
            chunk = z[None, lo:lo + _group_size(1, shared)]
            shared[0]["z"] = chunk
            shared[0].pop("product", None)
            for p, pass_gens in enumerate(gens):
                out = chunk
                for kept, layer, gen in zip(shared, self.layers, pass_gens):
                    out = layer.forward(out, mode, (gen,), kept)[0]
                    kept.setdefault("width", out[0].size // chunk.shape[1])
                if block is None:
                    block = np.empty((len(group), len(z)) + out.shape[2:])
                block[p, lo:lo + chunk.shape[1]] = out[0]
            lo += chunk.shape[1]
        shared[0].pop("product", None)
        return block

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
