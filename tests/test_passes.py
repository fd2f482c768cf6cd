"""Grouped Monte Carlo passes: Network.passes runs a group of passes as one
forward over a leading pass axis. Over a seeded matrix of configurations,
every pass must equal Network.forward on the same stream, bit for bit, with
the same generator calls, whatever the group size; and no stacked layer
output of a group may outgrow the chunk budget.
"""

from collections import Counter

import numpy as np
import pytest

from nsm import layers
from nsm.layers import MODE_CONCRETE, MODE_MEAN, MODE_SAMPLE
from nsm.noise import NoiseModel
from nsm.presets import MODEL_KINDS, ArchSpec, build_network, parse_preset
from nsm.rng import NS_EVAL, RngStream
from nsm.training import evaluate_mc
from tests.conftest import assert_same_bits

# stride 2 with pad 1, a 1x1 conv, a pool and GlobalAvgPool, at a small size
CONV_STACK = ArchSpec("conv-stack", (2, 9, 9), (
    ("conv", 4, 3, 2, 1), ("conv", 5, 1, 1, 0), ("pool",),
    ("conv", 6, 3, 1, 1), ("gap",), ("head", 3)))
CONV_KINDS = ("nsm", "binary-erf", "binconcrete", "sigmoid-det")
NOISES = (NoiseModel.gaussian(0.25), NoiseModel.bernoulli(0.5), NoiseModel.bernoulli(0.3))
MODES = (MODE_SAMPLE, MODE_CONCRETE, MODE_MEAN)
BATCHES = ((1, 1), (7, 3))      # (examples, batch): batch 1, and a short last batch
MC = 5
# group size the chunk budget is set for: one pass per group; 3, so the four
# passes after pass 0 run as groups of 3 and 1; and every pass in one group
TARGETS = (1, 3, 8)


def draw_configs(count=36, seed=2021):
    """Seeded configurations; every model kind and target group size comes
    round in turn, the rest is drawn."""
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(count):
        preset = ("mlp-20-16-10-4", "conv-stack", "cnn-mnist")[rng.choice(3, p=[0.6, 0.25, 0.15])]
        kinds = MODEL_KINDS if preset.startswith("mlp") else CONV_KINDS
        configs.append(dict(
            preset=preset, model=kinds[i % len(kinds)], mode=MODES[rng.choice(3, p=[0.5, 0.3, 0.2])],
            site=("neuron", "synapse")[rng.integers(2)], noise=NOISES[rng.integers(3)],
            batches=BATCHES[rng.integers(2)], target=TARGETS[i % len(TARGETS)], seed=i))
    return configs


CONFIGS = draw_configs()


def config_id(c):
    n, batch = c["batches"]
    return (f"{c['preset']}-{c['model']}-{c['mode']}-{c['site']}-{c['noise'].kind}"
            f"{c['noise'].param}-n{n}b{batch}-G{c['target']}-s{c['seed']}")


def build(c):
    arch = CONV_STACK if c["preset"] == "conv-stack" else parse_preset(c["preset"])
    return build_network(arch, c["model"], c["noise"], site=c["site"], seed=c["seed"])


def widest(net):
    """The largest layer output of one example, in values."""
    out, sizes = net._prep(np.ones((1,) + net.input_shape)), []
    for layer in net.layers:
        out = layer.forward(out, MODE_MEAN, None)[0]
        sizes.append(out.size)
    return max(sizes)


def expected_groups(n, batch, mc, width, noisy):
    """The group sizes the rule gives: pass 0 of the first batch alone, then
    groups of _chunk_rows(batch rows x widest output); a stack that draws no
    noise runs only each batch's first group."""
    sizes = []
    for start in range(0, n, batch):
        rows, left = min(batch, n - start), mc
        while left:
            size = min(left, layers._chunk_rows(rows * width) if sizes else 1)
            if noisy or left == mc:
                sizes.append(size)
            left -= size
    return sizes


def count_generators(monkeypatch):
    calls = Counter()
    generator = RngStream.generator

    def counted(self):
        calls["generator"] += 1
        return generator(self)
    monkeypatch.setattr(RngStream, "generator", counted)
    return calls


def record_groups(layer, sizes):
    """Record the group size of every grouped forward of layer."""
    forward = layer.forward

    def recorded(z, mode, stream, shared=None):
        if isinstance(stream, tuple):
            sizes.append(len(stream))
        return forward(z, mode, stream, shared)
    layer.forward = recorded


class TestGroupedPassMatrix:

    def test_matrix_covers_every_axis(self):
        seen = {key: {repr(c[key]) for c in CONFIGS} for key in CONFIGS[0]}
        assert seen["model"] == {repr(m) for m in MODEL_KINDS}
        assert seen["mode"] == {repr(m) for m in MODES}
        assert seen["site"] == {"'neuron'", "'synapse'"}
        assert seen["noise"] == {repr(n) for n in NOISES}
        assert seen["preset"] == {"'mlp-20-16-10-4'", "'conv-stack'", "'cnn-mnist'"}
        assert seen["batches"] == {repr(b) for b in BATCHES}
        assert seen["target"] == {repr(t) for t in TARGETS}
        convs = [c for c in CONFIGS if c["preset"] != "mlp-20-16-10-4"]
        assert {c["model"] for c in convs} == set(CONV_KINDS)
        assert {c["target"] for c in convs} == set(TARGETS)

    @pytest.mark.parametrize("config", CONFIGS, ids=config_id)
    def test_each_pass_is_forward(self, config, monkeypatch):
        net = build(config)
        n, batch = config["batches"]
        width = widest(net)
        monkeypatch.setattr(layers, "_CHUNK_BYTES", 8 * batch * width * config["target"])
        mode = config["mode"]
        x = np.random.default_rng(config["seed"]).choice([-1.0, 1.0], size=(n,) + net.input_shape)
        stream = RngStream(config["seed"]).child(NS_EVAL, 3)
        calls = count_generators(monkeypatch)
        want = [net.forward(x[start:start + batch], mode, stream.child(s, start))[0]
                for start in range(0, n, batch) for s in range(MC)]
        reference, calls["generator"] = calls["generator"], 0
        sizes = []
        record_groups(net.layers[0], sizes)
        shared = [{} for _ in net.layers]   # kept across batches, as evaluate_mc does
        got = [logits for start in range(0, n, batch)
               for logits in net.passes(x[start:start + batch], mode,
                                        (stream.child(s, start) for s in range(MC)), shared)]
        assert calls["generator"] == reference
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        noisy = any(layer.draws_noise(mode) for layer in net.layers)
        assert sizes == expected_groups(n, batch, MC, width, noisy)
        if noisy and batch > 1:
            assert sizes[:3] == {1: [1, 1, 1], 3: [1, 3, 1], 8: [1, 4, 5]}[config["target"]]


class TestGroupMemoryBound:
    """No grouped layer output outgrows max(_CHUNK_BYTES, one pass's output)."""

    @pytest.mark.parametrize("preset, n, batch, mc, grouped", [
        ("mlp-784-300-300-300-10", 3, 1, 10, True),
        ("mlp-784-300-300-300-10", 100, 100, 10, True),
        ("cnn-mnist", 4, 4, 3, True),
        ("cnn-mnist", 20, 20, 2, False),
        ("allcnn-dvs", 1, 1, 2, False)])
    def test_grouped_outputs_within_the_budget(self, preset, n, batch, mc, grouped):
        net = build_network(parse_preset(preset), "nsm", NoiseModel.bernoulli(0.5), seed=3)
        outputs = []
        for layer in net.layers:
            def recorded(z, mode, stream, shared=None, _fn=layer.forward):
                out = _fn(z, mode, stream, shared)
                outputs.append((len(stream), out[0].nbytes, out[0][0].nbytes))
                return out
            layer.forward = recorded
        x = np.random.default_rng(3).choice([-1.0, 1.0], size=(n,) + net.input_shape)
        evaluate_mc(net, x, np.zeros(n, dtype=np.int64), mc, RngStream(3).child(NS_EVAL), batch)
        assert len(outputs) >= len(net.layers)
        for group, total, one_pass in outputs:
            assert total == group * one_pass
            assert total <= max(layers._CHUNK_BYTES, one_pass)
        groups = {group for group, _, _ in outputs}
        if grouped:
            assert max(groups) > 1
        else:
            assert groups == {1}
