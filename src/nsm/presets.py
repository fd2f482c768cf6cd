"""Named architectures and the network builder.

Preset names:
    mlp-784-300-300-300-10   the reference fully connected stack
    cnn-mnist                28x28x1: conv5x5/32, pool, conv5x5/64, pool,
                             dense 512, head 10
    allcnn-dvs               64x64x6 all-convolutional stack, 11 classes
plus the generic pattern mlp-D1-D2-...-DK (K >= 2), which is how the tests
and the README build desk-scale models through the same code path.

Model kinds select what fills the hidden slots:
    nsm                stochastic binary layers (the trained model)
    binary-erf         deterministic sign forward, same backward surface
    binconcrete        nsm parameters, relaxed training forward
    stnn | binary-det | wnorm-binary-det | noisy-rectifier | sigmoid-det
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SITE_NEURON, SITE_SYNAPSE
from .errors import ConfigError
from .layers import (AFFINE, BaselineDense, Flatten, GlobalAvgPool,
                     MaxPool2, NormalizedHead, NsmConv, NsmDense,
                     SigmoidDetConv, glorot)
from .network import Network
from .noise import NoiseModel
from .rng import NS_INIT, RngStream

MODEL_KINDS = ("nsm", "binary-erf", "binconcrete", "stnn", "binary-det",
               "wnorm-binary-det", "noisy-rectifier", "sigmoid-det")

# model kinds that use NSM parameterization (and the normalized head)
NSM_FAMILY = ("nsm", "binary-erf", "binconcrete")


@dataclass(frozen=True)
class ArchSpec:
    name: str
    input_shape: tuple[int, ...]
    # ops: ("conv", out_ch, k, stride, pad) | ("pool",) | ("flatten",)
    #      ("gap",) | ("dense", units) | ("head", classes)
    ops: tuple = field(default_factory=tuple)


def parse_preset(name: str) -> ArchSpec:
    if name == "cnn-mnist":
        return ArchSpec(name, (1, 28, 28), (
            ("conv", 32, 5, 1, 0), ("pool",),
            ("conv", 64, 5, 1, 0), ("pool",),
            ("flatten",), ("dense", 512), ("head", 10)))
    if name == "allcnn-dvs":
        return ArchSpec(name, (6, 64, 64), (
            ("conv", 96, 3, 1, 1), ("conv", 96, 3, 1, 1), ("conv", 96, 3, 1, 1),
            ("pool",),
            ("conv", 192, 3, 1, 1), ("conv", 192, 3, 1, 1), ("conv", 192, 3, 1, 1),
            ("pool",),
            ("conv", 256, 3, 1, 1), ("conv", 256, 3, 1, 1), ("conv", 256, 3, 1, 1),
            ("pool",),
            ("conv", 256, 3, 1, 1), ("conv", 256, 1, 1, 0), ("conv", 256, 1, 1, 0),
            ("gap",), ("head", 11)))
    if name.startswith("mlp-"):
        try:
            dims = [int(d) for d in name.split("-")[1:]]
        except ValueError:
            raise ConfigError(f"bad mlp preset {name!r}: expected mlp-D1-D2-...-DK")
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ConfigError(f"bad mlp preset {name!r}: need >= 2 positive sizes")
        ops = tuple(("dense", d) for d in dims[1:-1]) + (("head", dims[-1]),)
        return ArchSpec(name, (dims[0],), ops)
    raise ConfigError(f"unknown preset {name!r}")


def build_network(arch: ArchSpec, model: str = "nsm",
                  noise: NoiseModel | None = None, site: str = "neuron",
                  head_bias: bool = True, seed: int = 0) -> Network:
    """Instantiate a preset with seeded weight init.

    The init stream depends only on (seed, NS_INIT, layer index), so two
    model kinds built from the same seed start from identical weights
    wherever their shapes agree.
    """
    if model not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {model!r}")
    if site not in (SITE_NEURON, SITE_SYNAPSE):
        raise ConfigError(f"unknown noise site {site!r}")
    if noise is None:
        noise = NoiseModel.bernoulli(0.5)
    nsm_like = model in NSM_FAMILY
    init = RngStream(seed).child(NS_INIT)

    layers = []
    shape = arch.input_shape
    di = 0  # dense/conv counter for names
    for op in arch.ops:
        kind = op[0]
        stream = init.child(len(layers))
        if kind == "conv":
            _, out_ch, k, stride, pad = op
            c = shape[0]
            w = glorot((out_ch, c, k, k), c * k * k, out_ch * k * k, stream)
            if nsm_like:
                layers.append(NsmConv(f"conv{di}", w, noise, stride=stride, pad=pad,
                                      deterministic=(model == "binary-erf")))
            elif model == "sigmoid-det":
                layers.append(SigmoidDetConv(f"conv{di}", w, stride=stride, pad=pad))
            else:
                raise ConfigError(f"model {model!r} has no convolutional form")
            oh = (shape[1] + 2 * pad - k) // stride + 1
            ow = (shape[2] + 2 * pad - k) // stride + 1
            shape = (out_ch, oh, ow)
            di += 1
        elif kind == "pool":
            layers.append(MaxPool2(f"pool{len(layers)}"))
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        elif kind == "flatten":
            layers.append(Flatten(f"flatten{len(layers)}"))
            shape = (int(np.prod(shape)),)
        elif kind == "gap":
            layers.append(GlobalAvgPool(f"gap{len(layers)}"))
            shape = (shape[0],)
        elif kind == "dense":
            _, units = op
            fan_in = int(np.prod(shape))
            w = glorot((units, fan_in), fan_in, units, stream)
            if len(shape) != 1:
                layers.append(Flatten(f"flatten{len(layers)}"))
                shape = (fan_in,)
            if nsm_like:
                layers.append(NsmDense(f"dense{di}", w, noise, site=site,
                                       deterministic=(model == "binary-erf")))
            else:
                layers.append(BaselineDense(f"dense{di}", model, w))
            shape = (units,)
            di += 1
        elif kind == "head":
            _, classes = op
            fan_in = int(np.prod(shape))
            if len(shape) != 1:
                layers.append(Flatten(f"flatten{len(layers)}"))
            w = glorot((classes, fan_in), fan_in, classes, stream)
            if nsm_like:
                layers.append(NormalizedHead("head", w, bias_trainable=head_bias))
            else:
                layers.append(BaselineDense("head", AFFINE, w))
            shape = (classes,)
        else:
            raise ConfigError(f"unknown arch op {kind!r}")
    return Network(layers, arch.input_shape)
