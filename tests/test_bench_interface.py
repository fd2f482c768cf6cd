"""The benchmark's traced run against the package it patches.

bench/worker.py's install_tracer wraps layer instances' forward and
backward and module functions by name (layers.im2col, layers.col2im,
layers.sample_noise, RngStream.generator, autodiff.reparam_grads). A name
the package stops calling through makes its per-layer figure read 0 without
any error, so one traced training step and one traced MC evaluation must
record a span for each. The bench modules are loaded from their files as
they are; network.* spans in eval are not asserted, since evaluate_mc
calls none of the patched Network methods.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

from nsm import training
from nsm.noise import NoiseModel
from nsm.presets import build_network, parse_preset
from nsm.rng import NS_EVAL, RngStream
from nsm.training import TrainConfig, TrainState, make_optimizer

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


worker, tracing = load_bench("worker"), load_bench("tracing")


def traced_spans(preset, batch=2, mc_passes=2, seed=1):
    """Calls per span name of one traced train_batch and one traced
    evaluate_mc, as {phase: {name: calls}}."""
    net = build_network(parse_preset(preset), "nsm", NoiseModel.bernoulli(0.5), seed=seed)
    cfg = TrainConfig(batch_size=batch, optimizer="adam", lr=0.001)
    state = TrainState(network=net, optimizer=make_optimizer(cfg), config=cfg, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(batch,) + net.input_shape)
    y = rng.integers(0, net.layers[-1].w.shape[0], size=batch)
    tracer = tracing.Tracer()
    worker.install_tracer(tracer, net, state)
    try:
        tracer.wrap(training.train_batch, "training.train_batch")(state, x, y)
        tracer.wrap(training.evaluate_mc, "training.evaluate_mc")(
            net, x, y, mc_passes, RngStream(seed).child(NS_EVAL, 0))
    finally:
        tracer.uninstall()
    return {phase: tracing.summarize(tracer.spans, root)[2]
            for phase, root in (("train", "training.train_batch"),
                                ("eval", "training.evaluate_mc"))}


@pytest.fixture(scope="module")
def spans():
    return {"cnn": traced_spans("cnn-mnist"), "mlp": traced_spans("mlp-20-16-10-4")}


def names(spans, phase):
    """Span names of a phase over both networks."""
    return set(spans["cnn"][phase]) | set(spans["mlp"][phase])


LAYERS = ("NsmDense", "NsmConv", "MaxPool2", "NormalizedHead", "Flatten")


@pytest.mark.parametrize("phase", ["train", "eval"])
def test_every_layer_class_records_its_forward(spans, phase):
    assert {f"layers.{cls}.forward" for cls in LAYERS} <= names(spans, phase)


def test_every_layer_class_records_its_backward_in_training(spans):
    assert {f"layers.{cls}.backward" for cls in LAYERS} <= names(spans, "train")
    assert not any(name.endswith(".backward") for name in names(spans, "eval"))


@pytest.mark.parametrize("net", ["cnn", "mlp"])
def test_module_functions_record_spans(spans, net):
    both = {"noise.sample_noise", "rng.generator"} | ({"layers.im2col"} if net == "cnn" else set())
    train_only = {"autodiff.reparam_grads", "training.optimizer_step", "network.forward",
                  "network.backward", "network.loss_and_grads"}
    if net == "cnn":
        train_only.add("layers.col2im")
    assert both | train_only <= set(spans[net]["train"])
    assert both <= set(spans[net]["eval"])
