"""Deterministic random streams.

All randomness in the library flows through RngStream: a root seed plus a
path of small integers naming the consumer (purpose, epoch, iteration,
layer index, ...). Each (seed, path) pair owns an independent counter-based
Philox stream, so any draw can be replayed in isolation: resuming a run
from a checkpoint consumes exactly the same noise as the uninterrupted run,
because no stream's content depends on how many draws other streams made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Purpose namespaces for stream paths. Values are arbitrary but frozen:
# changing them changes every sampled run.
NS_NOISE = 1       # multiplicative noise during training forwards
NS_SHUFFLE = 2     # per-epoch minibatch permutation
NS_INIT = 3        # parameter initialization
NS_EVAL = 4        # Monte Carlo evaluation passes
NS_DATA = 5        # synthetic dataset generation / splits

_U64 = 1 << 64


def _as_u64(value: int) -> int:
    return int(value) % _U64


@dataclass(frozen=True)
class RngStream:
    """A named, replayable random stream: root seed + derivation path."""

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *ids: int) -> "RngStream":
        """Derive a substream by appending path components."""
        return RngStream(self.seed, self.path + tuple(_as_u64(i) for i in ids))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream.

        Calling twice returns generators that replay identical output.
        """
        ss = np.random.SeedSequence(_as_u64(self.seed), spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def open_generator(source: RngStream | np.random.Generator) -> np.random.Generator:
    """A fresh generator at the start of stream source, or source itself when
    it is already an open generator, whose draws go on where they stopped."""
    return source.generator() if isinstance(source, RngStream) else source


def root_stream(seed: int) -> RngStream:
    return RngStream(_as_u64(seed))
