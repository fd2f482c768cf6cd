"""Grouped Monte Carlo passes: Network.passes runs a group of passes as one
forward over a leading pass axis, and a conv net's spatial prefix over
sub-chunks of the batch. Over a seeded matrix of configurations, every pass
must equal Network.forward on the same stream, bit for bit, with the same
generator calls, whatever the group and sub-chunk sizes; no stacked layer
output of a group, and no prefix output of a sub-chunk, may outgrow the
chunk budget; and an MC pass's memory must not grow with the batch beyond
what its flat part holds.
"""

import tracemalloc
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
# sub-chunk rows the budget of a conv net's prefix is set for: below one
# example, so every sub-chunk is one; and two, so a batch of 3 ends short
SUBS = (0.5, 2)


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
            batches=BATCHES[rng.integers(2)], target=TARGETS[i % len(TARGETS)], sub=None,
            seed=i))
    return configs


def sub_configs():
    """Every conv preset, sub-chunk budget, noise and mode, on nsm at (7, 3)."""
    configs = []
    for preset in ("conv-stack", "cnn-mnist"):
        for sub in SUBS:
            for noise in NOISES:
                for mode in MODES:
                    configs.append(dict(
                        preset=preset, model="nsm", mode=mode,
                        site=("neuron", "synapse")[len(configs) % 2], noise=noise,
                        batches=BATCHES[1], target=None, sub=sub, seed=100 + len(configs)))
    return configs


CONFIGS = draw_configs()
SUB_CONFIGS = sub_configs()


def config_id(c):
    n, batch = c["batches"]
    budget = f"G{c['target']}" if c["sub"] is None else f"S{c['sub']}"
    return (f"{c['preset']}-{c['model']}-{c['mode']}-{c['site']}-{c['noise'].kind}"
            f"{c['noise'].param}-n{n}b{batch}-{budget}-s{c['seed']}")


def build(c):
    arch = CONV_STACK if c["preset"] == "conv-stack" else parse_preset(c["preset"])
    return build_network(arch, c["model"], c["noise"], site=c["site"], seed=c["seed"])


def widest(net):
    """(flat, spatial): the largest output of one example of the flat part
    and its input, and of the spatial prefix (None without one), in values."""
    out, sizes = net._prep(np.ones((1,) + net.input_shape)), []
    for layer in net.layers:
        out = layer.forward(out, MODE_MEAN, None)[0]
        sizes.append(out.size)
    split = net._spatial_end()
    return max(sizes[max(split - 1, 0):]), max(sizes[:split], default=None)


def expected_schedule(n, batch, mc, flat, spatial, noisy):
    """(group sizes, sub-chunk rows) the rule gives. Groups: pass 0 of the
    first batch alone, then groups of _chunk_rows(batch rows x flat widest);
    a stack that draws no noise runs only each batch's first group. Each
    group runs each sub-chunk once per pass: the first one row, then
    _chunk_rows(spatial widest) rows, or what is left of the batch."""
    groups, chunks = [], []
    for start in range(0, n, batch):
        rows, left = min(batch, n - start), mc
        while left:
            size = min(left, layers._chunk_rows(rows * flat) if groups else 1)
            if noisy or left == mc:
                groups.append(size)
                lo = 0
                while spatial and lo < rows:
                    step = min(rows - lo, layers._chunk_rows(spatial) if chunks else 1)
                    chunks += [step] * size
                    lo += step
            left -= size
    return groups, chunks


def count_generators(monkeypatch):
    calls = Counter()
    generator = RngStream.generator

    def counted(self):
        calls["generator"] += 1
        return generator(self)
    monkeypatch.setattr(RngStream, "generator", counted)
    return calls


def record_groups(layer, sizes, rows=False):
    """Record the group size of every grouped forward of layer, or with rows
    the number of examples it is given."""
    forward = layer.forward

    def recorded(z, mode, stream, shared=None):
        if isinstance(stream, tuple):
            sizes.append(z.shape[1] if rows else len(stream))
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
        cases = {(c["preset"], c["sub"], c["noise"], c["mode"]) for c in SUB_CONFIGS}
        assert len(cases) == len(SUB_CONFIGS) == 2 * len(SUBS) * len(NOISES) * len(MODES)

    @pytest.mark.parametrize("config", CONFIGS + SUB_CONFIGS, ids=config_id)
    def test_each_pass_is_forward(self, config, monkeypatch):
        net = build(config)
        n, batch = config["batches"]
        flat, spatial = widest(net)
        monkeypatch.setattr(layers, "_CHUNK_BYTES", 8 * batch * flat * config["target"]
                            if config["sub"] is None else int(8 * spatial * config["sub"]))
        mode = config["mode"]
        x = np.random.default_rng(config["seed"]).choice([-1.0, 1.0], size=(n,) + net.input_shape)
        stream = RngStream(config["seed"]).child(NS_EVAL, 3)
        calls = count_generators(monkeypatch)
        want = [net.forward(x[start:start + batch], mode, stream.child(s, start))[0]
                for start in range(0, n, batch) for s in range(MC)]
        reference, calls["generator"] = calls["generator"], 0
        split = net._spatial_end()
        sizes, chunks = [], []
        record_groups(net.layers[split], sizes)
        if split:
            record_groups(net.layers[0], chunks, rows=True)
        shared = [{} for _ in net.layers]   # kept across batches, as evaluate_mc does
        got = [logits for start in range(0, n, batch)
               for logits in net.passes(x[start:start + batch], mode,
                                        (stream.child(s, start) for s in range(MC)), shared)]
        assert calls["generator"] == reference
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        noisy = any(layer.draws_noise(mode) for layer in net.layers)
        assert (sizes, chunks) == expected_schedule(n, batch, MC, flat, spatial, noisy)
        assert (split > 0) == (config["preset"] != "mlp-20-16-10-4")
        if noisy and batch > 1 and config["target"]:
            assert sizes[:3] == {1: [1, 1, 1], 3: [1, 3, 1], 8: [1, 4, 5]}[config["target"]]
        if config["sub"] is not None:
            # below one example: one row each; two: a batch of 3 ends in one
            assert max(chunks) == max(1, int(config["sub"]))


class TestGroupMemoryBound:
    """No grouped layer output outgrows max(_CHUNK_BYTES, one pass's output),
    and no output of the spatial prefix outgrows max(_CHUNK_BYTES, one
    example's output) for its sub-chunk."""

    @pytest.mark.parametrize("preset, n, batch, mc, grouped", [
        ("mlp-784-300-300-300-10", 3, 1, 10, True),
        ("mlp-784-300-300-300-10", 100, 100, 10, True),
        ("cnn-mnist", 4, 4, 3, True),
        ("cnn-mnist", 20, 20, 2, False),
        ("cnn-mnist", 40, 40, 2, False),
        ("allcnn-dvs", 1, 1, 2, False)])
    def test_grouped_outputs_within_the_budget(self, preset, n, batch, mc, grouped):
        net = build_network(parse_preset(preset), "nsm", NoiseModel.bernoulli(0.5), seed=3)
        split = net._spatial_end()
        outputs = []
        for idx, layer in enumerate(net.layers):
            def recorded(z, mode, stream, shared=None, _fn=layer.forward, _idx=idx):
                out = _fn(z, mode, stream, shared)
                outputs.append((_idx, len(stream), out[0].nbytes, out[0][0].nbytes,
                                out[0][0][0].nbytes))
                return out
            layer.forward = recorded
        x = np.random.default_rng(3).choice([-1.0, 1.0], size=(n,) + net.input_shape)
        evaluate_mc(net, x, np.zeros(n, dtype=np.int64), mc, RngStream(3).child(NS_EVAL), batch)
        assert len(outputs) >= len(net.layers)
        for idx, group, total, one_pass, one_example in outputs:
            assert total == group * one_pass
            if idx < split:
                assert group == 1
                assert total <= max(layers._CHUNK_BYTES, one_example)
            else:
                assert total <= max(layers._CHUNK_BYTES, one_pass)
        groups = {group for _, group, _, _, _ in outputs}
        if grouped:
            assert max(groups) > 1
        else:
            assert groups == {1}
        # a batch wider than one sub-chunk runs the prefix more than once a pass
        widest = max((one_example for idx, *_, one_example in outputs if idx < split), default=0)
        if split and batch > layers._chunk_rows(widest // 8):
            assert sum(idx == 0 for idx, *_ in outputs) > mc


class TestEvalMemoryFlatInBatch:
    """One MC pass of cnn-mnist over 64 examples peaks above one over 16 by
    no more than what the flat part holds for the 48 more, as traced."""

    def test_peak_grows_only_by_the_flat_part(self):
        net = build_network(parse_preset("cnn-mnist"), "nsm", NoiseModel.bernoulli(0.5), seed=5)
        x = np.random.default_rng(5).choice([-1.0, 1.0], size=(64,) + net.input_shape)
        y = np.zeros(64, dtype=np.int64)
        # 16 examples already fill a sub-chunk of the widest prefix output
        assert layers._chunk_rows(32 * 24 * 24) < 16
        peaks = {}
        for n in (16, 64):
            tracemalloc.start()
            try:
                evaluate_mc(net, x[:n], y[:n], 1, RngStream(5).child(NS_EVAL))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # per example the flat part holds at most its input row of 1,024
        # values, a noisy copy and its mask, dense0's product, noisy product,
        # sum and output (512 each), and the head's logits, softmax and sum
        # (10 each): 8 (3 x 1024 + 4 x 512 + 4 x 10) bytes, doubled as margin
        per_example = 2 * 8 * (3 * 1024 + 4 * 512 + 4 * 10)
        assert peaks[64] - peaks[16] <= 48 * per_example
