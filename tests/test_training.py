"""Optimizers, schedule, loss, data-dependent init, loop determinism,
checkpoint-resume identity, and Monte Carlo evaluation.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nsm import autodiff, layers
from nsm.checkpoint import load_checkpoint, restore_params, save_checkpoint
from nsm.data import synthetic_dataset
from nsm.errors import ConfigError, InitError, NanGradientError, ShapeError
from nsm.layers import MODE_CONCRETE, MODE_MEAN, MODE_SAMPLE, NormalizedHead, NsmDense
from nsm.network import (Network, check_finite_grads, cross_entropy_loss,
                         softmax)
from nsm.noise import NoiseModel
from nsm.presets import MODEL_KINDS, build_network, parse_preset
from nsm.rng import NS_EVAL, NS_INIT, NS_NOISE, RngStream
from nsm.training import (Adam, MetricsRecord, Sgd, TrainConfig, TrainState,
                          data_dependent_init, evaluate_mc, make_optimizer,
                          schedule, train, train_batch, train_epoch)
from tests.conftest import assert_same_bits, build_small_net


def fresh_state(model="nsm", preset="mlp-16-8-2", seed=0, **cfg_kw):
    net = build_small_net(model, preset, seed=seed)
    cfg = TrainConfig(**cfg_kw)
    return TrainState(network=net, optimizer=make_optimizer(cfg), config=cfg,
                      seed=seed)


class TestOptimizers:

    def test_sgd_step(self):
        p = {"x": np.zeros(1)}
        Sgd(lr=0.1).step(p, {"x": np.ones(1)})
        np.testing.assert_allclose(p["x"], [-0.1], atol=1e-15)

    def test_adam_first_step_magnitude_is_lr(self):
        # bias correction makes the first update lr * g/(|g| + eps), i.e.
        # magnitude lr for any gradient well above eps, regardless of size
        for g in (0.5, 3.0, -42.0):
            p = {"x": np.zeros(1)}
            Adam(lr=0.01).step(p, {"x": np.full(1, g)})
            np.testing.assert_allclose(np.abs(p["x"]), 0.01, rtol=1e-6)
            assert np.sign(p["x"][0]) == -np.sign(g)

    def test_zero_lr_is_bit_identical(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=(4, 3))
        for opt in (Sgd(lr=0.0), Adam(lr=0.0)):
            p = {"w": w0.copy()}
            opt.step(p, {"w": rng.normal(size=(4, 3))})
            np.testing.assert_array_equal(p["w"], w0)

    def test_adam_state_roundtrip(self):
        rng = np.random.default_rng(1)
        a = Adam(lr=0.01)
        p = {"w": rng.normal(size=(2, 2))}
        for _ in range(3):
            a.step(p, {"w": rng.normal(size=(2, 2))})
        b = Adam(lr=0.01)
        b.load_state(a.state())
        pa = {"w": p["w"].copy()}
        pb = {"w": p["w"].copy()}
        g = {"w": rng.normal(size=(2, 2))}
        a.step(pa, g)
        b.step(pb, g)
        np.testing.assert_array_equal(pa["w"], pb["w"])

    def test_schedule_linear_decay(self):
        cfg = TrainConfig(epochs=10, decay_start_epoch=5, adam_beta1=0.9,
                          late_beta1=0.5)
        assert schedule(cfg, 0) == (1.0, None)
        assert schedule(cfg, 4) == (1.0, None)
        s5, b5 = schedule(cfg, 5)
        np.testing.assert_allclose((s5, b5), (1.0, 0.9))
        s7, b7 = schedule(cfg, 7)
        np.testing.assert_allclose((s7, b7), (0.6, 0.74))
        s10, b10 = schedule(cfg, 10)
        np.testing.assert_allclose((s10, b10), (0.0, 0.5))


class TestLossFunctions:

    def test_uniform_prediction_pins_log_k(self):
        p = np.full((7, 10), 0.1)
        y = np.arange(7) % 10
        np.testing.assert_allclose(cross_entropy_loss(p, y),
                                   2.3025850929940457, atol=1e-15)

    def test_confident_wrong_is_clamped(self):
        # probability 0 for the true class clamps at 1e-7: loss = -log(1e-7)
        p = np.array([[1.0, 0.0]])
        y = np.array([1])
        np.testing.assert_allclose(cross_entropy_loss(p, y),
                                   16.11809565095832, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        s = softmax(rng.normal(size=(20, 5)) * 30)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s >= 0)

    def test_nan_gradient_detection(self):
        with pytest.raises(NanGradientError):
            check_finite_grads({"l.w": np.array([1.0, np.nan])})
        with pytest.raises(NanGradientError):
            check_finite_grads({"l.w": np.array([np.inf])})
        check_finite_grads({"l.w": np.array([1.0, -2.0])})


class TestDataDependentInit:

    def test_single_unit_worked_example(self):
        # t = z for w = [1]; batch {-2, 6} has mean 2, std 4, so
        # beta = 1/4 and bias = -1/2; the raw-bias spelling is
        # -mu ||w|| sqrt(2 Var) / sigma = -0.35355339059327373
        layer = NsmDense("d0", np.array([[1.0]]), NoiseModel.bernoulli(0.5))
        net = Network([layer], (1,))
        data_dependent_init(net, np.array([[-2.0], [6.0]]),
                            RngStream(0).child(NS_INIT))
        np.testing.assert_allclose(layer.beta, [0.25], atol=1e-15)
        np.testing.assert_allclose(layer.bias, [-0.5], atol=1e-15)
        b_raw = layer.bias * layer.model.scale * np.linalg.norm(layer.w)
        np.testing.assert_allclose(b_raw, [-0.35355339059327373], atol=1e-15)

    def test_standardizes_every_layer(self, glyphs):
        train_ds, _ = glyphs
        net = build_network(parse_preset("mlp-64-32-32-10"), "nsm",
                            NoiseModel.bernoulli(0.5), seed=3)
        data_dependent_init(net, train_ds.inputs[:100],
                            RngStream(3).child(NS_INIT, 101))
        # re-measure with fresh noise: every normalized argument must start
        # near zero mean, unit variance even under noise the init never saw
        z = net._prep(train_ds.inputs[:100])
        probe = RngStream(80).child(NS_INIT)
        for idx, layer in enumerate(net.layers):
            if isinstance(layer, (NsmDense, NormalizedHead)):
                norms = np.linalg.norm(layer.w, axis=1)
                x = layer.beta * ((z @ layer.w.T) / norms) + layer.bias
                assert abs(x.mean()) <= 0.2
                assert 0.8 <= x.std() <= 1.2
            z, _ = layer.forward(z, MODE_SAMPLE, probe.child(idx))

    def test_zero_variance_batch_rejected(self):
        layer = NsmDense("d0", np.array([[1.0]]), NoiseModel.bernoulli(0.5))
        net = Network([layer], (1,))
        with pytest.raises(InitError):
            data_dependent_init(net, np.ones((4, 1)), RngStream(0))


class TestTrainingLoop:

    def test_one_minibatch_one_record(self, blobs):
        train_ds, _ = blobs
        state = fresh_state(seed=4, epochs=1, batch_size=100,
                            max_iterations=1)
        recs = train(state, train_ds.inputs, train_ds.labels)
        assert len(recs) == 1
        assert isinstance(recs[0], MetricsRecord)
        assert recs[0].iteration == 1 and recs[0].epoch == 0

    def test_fixed_seed_bit_identical_trajectory(self, blobs):
        train_ds, _ = blobs
        losses = []
        for _ in range(2):
            state = fresh_state(seed=5, epochs=3, batch_size=50)
            recs = train(state, train_ds.inputs, train_ds.labels)
            losses.append([r.loss for r in recs])
        assert losses[0] == losses[1]

    def test_loss_decreases_on_separable_data(self, blobs):
        train_ds, _ = blobs
        state = fresh_state(seed=6, preset="mlp-16-16-2", epochs=13,
                            batch_size=100)
        recs = train(state, train_ds.inputs, train_ds.labels)
        assert state.iteration >= 50
        assert recs[-1].loss < recs[0].loss

    def test_tail_smaller_than_batch_is_dropped(self, blobs):
        train_ds, _ = blobs
        state = fresh_state(seed=7, epochs=1, batch_size=150)
        recs = train(state, train_ds.inputs[:400], train_ds.labels[:400])
        assert len(recs) == 2          # 400 = 2 x 150 + dropped 100

    def test_percentile_records_are_ordered(self, blobs):
        train_ds, _ = blobs
        state = fresh_state(seed=8, preset="mlp-16-8-8-2", epochs=2,
                            batch_size=100, record_percentiles=True)
        recs = train(state, train_ds.inputs, train_ds.labels)
        assert all(r.p15 is not None for r in recs)
        assert all(r.p15 <= r.p50 <= r.p85 for r in recs)

    def test_percentiles_come_from_last_hidden_layer(self, blobs):
        # a one-hidden-layer net: the recorded stat is that layer's argument
        train_ds, _ = blobs
        state = fresh_state(seed=9, preset="mlp-16-8-2", epochs=1,
                            batch_size=100, max_iterations=1)
        recs = train(state, train_ds.inputs, train_ds.labels)
        assert recs[0].p50 is not None

    def test_nan_gradient_raises(self, blobs):
        train_ds, _ = blobs
        state = fresh_state(seed=10, epochs=1)
        state.network.layers[0].w[0, 0] = np.nan
        with pytest.raises(NanGradientError):
            train(state, train_ds.inputs, train_ds.labels)

    def test_max_iterations_caps_across_epochs(self, blobs):
        train_ds, _ = blobs
        state = fresh_state(seed=11, epochs=10, batch_size=100,
                            max_iterations=7)
        recs = train(state, train_ds.inputs, train_ds.labels)
        assert len(recs) == 7
        assert state.iteration == 7


class TestResume:

    def test_resume_matches_uninterrupted_run(self, blobs):
        train_ds, test_ds = blobs

        def make_state(seed=12):
            return fresh_state(seed=seed, preset="mlp-16-8-2", epochs=4,
                               batch_size=100, optimizer="adam", lr=1e-3,
                               eval_every=4, mc_samples=2)

        full = make_state()
        train(full, train_ds.inputs, train_ds.labels, test_ds.inputs,
              test_ds.labels)

        first = make_state()
        first.config.epochs = 2
        train(first, train_ds.inputs, train_ds.labels)
        # checkpoint through the serialized format, not just in memory
        path = "/tmp/nsm-test-resume.ckpt"
        opt_state = first.optimizer.state()
        moments = {f"m/{k}": v for k, v in opt_state["m"].items()}
        moments.update({f"v/{k}": v for k, v in opt_state["v"].items()})
        save_checkpoint(path, first.network.params(),
                        {"epoch": first.epoch, "iteration": first.iteration,
                         "t": opt_state["t"]}, moments)

        second = make_state()
        desc, params, extras = load_checkpoint(path)
        restore_params(second.network, params)
        second.epoch = int(desc["epoch"])
        second.iteration = int(desc["iteration"])
        second.optimizer.load_state(
            {"t": int(desc["t"]),
             "m": {k[2:]: v for k, v in extras.items() if k.startswith("m/")},
             "v": {k[2:]: v for k, v in extras.items() if k.startswith("v/")}})
        train(second, train_ds.inputs, train_ds.labels, test_ds.inputs,
              test_ds.labels)

        for name, p in full.network.params().items():
            np.testing.assert_array_equal(p, second.network.params()[name])
        full_tail = [r.loss for r in full.records if r.epoch >= 2]
        resumed = [r.loss for r in second.records]
        assert full_tail == resumed


class TestEvaluateMc:

    def test_deterministic_model_mc_invariant(self, blobs):
        train_ds, test_ds = blobs
        net = build_small_net("binary-erf", "mlp-16-8-2", seed=13)
        e1 = evaluate_mc(net, test_ds.inputs, test_ds.labels, 1,
                         RngStream(13).child(NS_EVAL))
        e100 = evaluate_mc(net, test_ds.inputs, test_ds.labels, 100,
                           RngStream(14).child(NS_EVAL))
        assert e1 == e100

    def test_averaging_does_not_hurt(self, blobs):
        # more MC samples must not be materially worse on a trained model
        train_ds, test_ds = blobs
        state = fresh_state(seed=15, preset="mlp-16-16-2", epochs=10,
                            batch_size=100)
        train(state, train_ds.inputs, train_ds.labels)
        net = state.network
        e1 = evaluate_mc(net, test_ds.inputs, test_ds.labels, 1,
                         RngStream(15).child(NS_EVAL))
        e50 = evaluate_mc(net, test_ds.inputs, test_ds.labels, 50,
                          RngStream(16).child(NS_EVAL))
        assert e50 <= e1 + 0.005

    def test_error_is_a_rate(self, blobs):
        _, test_ds = blobs
        net = build_small_net(seed=17)
        err = evaluate_mc(net, test_ds.inputs, test_ds.labels, 3,
                          RngStream(17).child(NS_EVAL))
        assert 0.0 <= err <= 1.0

    # with no pass nothing is summed and every example's argmax is class 0
    @pytest.mark.parametrize("mc", [0, -3])
    def test_fewer_than_one_pass_rejected(self, blobs, mc):
        _, test_ds = blobs
        net = build_small_net(seed=17)
        with pytest.raises(ConfigError, match="mc_samples"):
            evaluate_mc(net, test_ds.inputs, test_ds.labels, mc, RngStream(17).child(NS_EVAL))


class TestPredict:
    """predict runs forward's pass and substreams without keeping caches."""

    @staticmethod
    def assert_same_logits(net, x, modes=(MODE_SAMPLE, MODE_MEAN)):
        for mode in modes:
            stream = RngStream(19).child(NS_NOISE, 3)
            logits, _ = net.forward(x, mode, stream)
            np.testing.assert_array_equal(net.predict(x, mode, stream), logits)

    @pytest.mark.parametrize("site", ["neuron", "synapse"])
    def test_nsm_mlp_matches_forward(self, site):
        net = build_network(parse_preset("mlp-20-16-10-4"), "nsm",
                            NoiseModel.bernoulli(0.5), site=site, seed=18)
        x = np.random.default_rng(18).choice([-1.0, 1.0], size=(7, 20))
        self.assert_same_logits(net, x)

    def test_baseline_matches_forward(self):
        net = build_small_net("stnn", "mlp-20-16-10-4", seed=19)
        x = np.random.default_rng(19).choice([-1.0, 1.0], size=(7, 20))
        self.assert_same_logits(net, x)

    def test_cnn_matches_forward(self):
        net = build_small_net("nsm", "cnn-mnist", seed=20)
        x = np.random.default_rng(20).choice([-1.0, 1.0], size=(3, 1, 28, 28))
        self.assert_same_logits(net, x)

    def test_cnn_predict_peaks_below_forward(self):
        net = build_small_net("nsm", "cnn-mnist", seed=21)
        x = np.random.default_rng(21).choice([-1.0, 1.0], size=(100, 1, 28, 28))
        peaks = {}
        for name in ("forward", "predict"):
            tracemalloc.start()
            try:
                getattr(net, name)(x, MODE_SAMPLE, RngStream(21).child(NS_NOISE))
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["predict"] <= 0.8 * peaks["forward"]


class TestPrep:
    """Network._prep alone maps examples to the preset's input_shape."""

    @pytest.mark.parametrize("preset", ["mlp-16-8-2", "cnn-mnist", "allcnn-dvs"])
    def test_flat_rows_take_the_input_shape(self, preset):
        net = Network([], parse_preset(preset).input_shape)
        size = int(np.prod(net.input_shape))
        flat = np.random.default_rng(29).choice([-1.0, 1.0], size=(3, size))
        got = net._prep(flat)
        assert got.shape == (3,) + net.input_shape
        np.testing.assert_array_equal(got, flat.reshape((3,) + net.input_shape, order="C"))
        shaped = flat.reshape(got.shape)
        assert net._prep(shaped) is shaped   # no reshape, no copy
        with pytest.raises(ShapeError, match=r"input shape \(\d+,\) != expected"):
            net._prep(flat[:, 1:])

    def test_size_mismatch_names_both_shapes(self):
        net = Network([], parse_preset("allcnn-dvs").input_shape)
        with pytest.raises(ShapeError) as err:
            net._prep(np.ones((2, 4096)))
        assert str(err.value) == "input shape (4096,) != expected (6, 64, 64)"


def reference_eval(net, x, y, mc, stream, batch_size, mode):
    """evaluate_mc written out on the caching forward: (error, every pass's logits)."""
    wrong, passes = 0, []
    for start in range(0, len(x), batch_size):
        xb, yb = x[start:start + batch_size], y[start:start + batch_size]
        acc = np.zeros((len(xb), net.layers[-1].w.shape[0]))
        for s in range(mc):
            logits, _ = net.forward(xb, mode, stream.child(s, start))
            passes.append(logits)
            acc += softmax(logits)
        wrong += int(np.sum(np.argmax(acc, axis=1) != yb))
    return wrong / len(x), passes


class TestSharedPasses:
    """Network.passes, which evaluate_mc runs, does a batch's pass-independent
    work once; every pass must still be the caching forward's, bit for bit,
    with the same generator calls."""

    @staticmethod
    def assert_matches_forward(net, x, mode, mc, monkeypatch, batch_size=10):
        y = np.arange(len(x)) % net.layers[-1].w.shape[0]
        stream = RngStream(23).child(NS_EVAL, 1)
        calls = Counter()
        generator = RngStream.generator

        def counted(self):
            calls["now"] += 1
            return generator(self)
        monkeypatch.setattr(RngStream, "generator", counted)
        want_err, want = reference_eval(net, x, y, mc, stream, batch_size, mode)
        calls["reference"], calls["now"] = calls["now"], 0
        got = [logits for start in range(0, len(x), batch_size)
               for logits in net.passes(x[start:start + batch_size], mode,
                                        (stream.child(s, start) for s in range(mc)))]
        assert len(got) == len(want) == mc * -(-len(x) // batch_size)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        calls["now"] = 0
        assert evaluate_mc(net, x, y, mc, stream, batch_size, mode) == want_err
        assert calls["now"] == calls["reference"]

    @pytest.mark.parametrize("model", MODEL_KINDS)
    def test_every_model_kind(self, model, monkeypatch):
        net = build_small_net(model, "mlp-20-16-10-4", seed=24)
        x = np.random.default_rng(24).choice([-1.0, 1.0], size=(23, 20))
        self.assert_matches_forward(net, x, MODE_SAMPLE, 4, monkeypatch)

    @pytest.mark.parametrize("mc", [1, 4])
    @pytest.mark.parametrize("mode", [MODE_SAMPLE, MODE_MEAN, MODE_CONCRETE])
    @pytest.mark.parametrize("noise", [NoiseModel.gaussian(0.25), NoiseModel.bernoulli(0.5),
                                       NoiseModel.bernoulli(0.3)], ids=str)
    @pytest.mark.parametrize("site", ["neuron", "synapse"])
    def test_nsm_mlp(self, site, noise, mode, mc, monkeypatch):
        net = build_network(parse_preset("mlp-20-16-10-4"), "nsm", noise, site=site, seed=25)
        x = np.random.default_rng(25).choice([-1.0, 1.0], size=(23, 20))
        self.assert_matches_forward(net, x, mode, mc, monkeypatch)

    @pytest.mark.parametrize("mc", [1, 4])
    @pytest.mark.parametrize("model, mode", [("nsm", MODE_SAMPLE), ("nsm", MODE_MEAN),
                                             ("nsm", MODE_CONCRETE),
                                             ("binary-erf", MODE_SAMPLE),
                                             ("sigmoid-det", MODE_SAMPLE)])
    def test_cnn(self, model, mode, mc, monkeypatch):
        net = build_small_net(model, "cnn-mnist", seed=26)
        x = np.random.default_rng(26).choice([-1.0, 1.0], size=(5, 1, 28, 28))
        self.assert_matches_forward(net, x, mode, mc, monkeypatch, batch_size=3)

    # a stack that draws no noise in the mode runs once per batch, whatever mc;
    # a noisy one once per group of passes
    @pytest.mark.parametrize("model, mode, noisy", [
        ("nsm", MODE_SAMPLE, True), ("nsm", MODE_CONCRETE, True), ("nsm", MODE_MEAN, False),
        ("binconcrete", MODE_SAMPLE, True), ("binconcrete", MODE_CONCRETE, True),
        ("stnn", MODE_SAMPLE, True), ("noisy-rectifier", MODE_SAMPLE, True),
        ("stnn", MODE_MEAN, False), ("binary-erf", MODE_SAMPLE, False),
        ("binary-erf", MODE_CONCRETE, True), ("binary-det", MODE_SAMPLE, False),
        ("wnorm-binary-det", MODE_SAMPLE, False), ("sigmoid-det", MODE_SAMPLE, False)])
    def test_layer_forwards_per_batch(self, model, mode, noisy, monkeypatch):
        net = build_small_net(model, "mlp-20-16-10-4", seed=30)
        x = np.random.default_rng(30).choice([-1.0, 1.0], size=(23, 20))
        calls = Counter()
        for layer in net.layers:
            def counted(*args, _fn=layer.forward, _name=layer.name):
                calls[_name] += 1
                return _fn(*args)
            layer.forward = counted
        mc, batches = 4, 3
        self.assert_matches_forward(net, x, mode, mc, monkeypatch)
        calls.clear()
        evaluate_mc(net, x, np.zeros(23, dtype=np.int64), mc, RngStream(30), 10, mode)
        # pass 0 of the first batch runs alone and sizes the groups; the
        # widest output is dense0's 16 per example, so a group of 10 examples
        # holds every remaining pass of its batch
        assert layers._chunk_rows(10 * 16) >= mc
        groups = batches + 1 if noisy else batches
        assert calls == {layer.name: groups for layer in net.layers}
        assert any(layer.draws_noise(mode) for layer in net.layers) == noisy

    @pytest.mark.parametrize("model, preset, site", [("nsm", "cnn-mnist", "neuron"),
                                                     ("nsm", "mlp-20-16-10-4", "synapse"),
                                                     ("stnn", "mlp-20-16-10-4", "neuron")])
    def test_shared_keeps_only_what_the_sampled_path_reads(self, model, preset, site):
        net = build_small_net(model, preset, seed=28, site=site)
        z = net._prep(np.random.default_rng(28).choice([-1.0, 1.0],
                                                       size=(4,) + net.input_shape))
        shared = [{"z": z}] + [{} for _ in net.layers[1:]]
        for s in range(2):
            out = z
            for idx, layer in enumerate(net.layers):
                out, cache = layer.forward(out, MODE_SAMPLE, RngStream(28).child(s, idx),
                                           shared[idx])
                assert cache is None
        # never the rows, t or x; the product only where every pass has the same input
        normalized = model == "nsm"
        assert set(shared[0]) == ({"z", "norms", "b_raw", "product"} if normalized
                                  else {"z", "product"})
        for layer, kept in zip(net.layers[1:], shared[1:]):
            want = {"norms", "b_raw"} if isinstance(layer, NsmDense) else {"norms"}
            assert set(kept) == (want if isinstance(layer, (NsmDense, NormalizedHead))
                                 else set())

    # layer 0's w z + b is formed once per batch; a deeper layer's input changes
    # per pass, so it forms its product once per group of passes
    @pytest.mark.parametrize("model", ["stnn", "noisy-rectifier"])
    def test_baselines_share_the_first_product(self, model):
        net = build_small_net(model, "mlp-20-16-10-4", seed=31)
        x = np.random.default_rng(31).choice([-1.0, 1.0], size=(23, 20))
        calls = Counter()
        for layer in net.layers:
            def counted(z, _fn=layer._rows, _name=layer.name):
                calls[_name] += 1
                return _fn(z)
            layer._rows = counted
        mc, batches = 4, 3
        evaluate_mc(net, x, np.zeros(23, dtype=np.int64), mc, RngStream(31), 10)
        # groups as in test_layer_forwards_per_batch: pass 0 alone, then one per batch
        assert layers._chunk_rows(10 * 16) >= mc
        groups = batches + 1
        assert calls == {layer.name: batches if idx == 0 else groups
                         for idx, layer in enumerate(net.layers)}

    # the row norms (and raw bias) depend on the weights alone: made once for
    # every batch, and each batch's passes keep the caching forward's bits
    @pytest.mark.parametrize("model", ["nsm", "binary-erf", "wnorm-binary-det"])
    def test_weight_memos_made_once_per_eval(self, model, monkeypatch):
        net = build_small_net(model, "mlp-20-16-10-4", seed=32)
        x = np.random.default_rng(32).choice([-1.0, 1.0], size=(23, 20))
        y = np.arange(23) % 4
        stream = RngStream(32).child(NS_EVAL, 1)
        want_err, want = reference_eval(net, x, y, 4, stream, 1, MODE_SAMPLE)
        calls = Counter()
        row_norms = layers._row_norms

        def counted(w):
            calls["norms"] += 1
            return row_norms(w)
        monkeypatch.setattr(layers, "_row_norms", counted)
        normalized = sum("beta" in layer.params() or "g" in layer.params()
                         for layer in net.layers)
        shared = [{} for _ in net.layers]
        got = [logits for start in range(len(x))
               for logits in net.passes(x[start:start + 1], MODE_SAMPLE,
                                        (stream.child(s, start) for s in range(4)), shared)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        assert calls == {"norms": normalized} and normalized >= 2
        calls.clear()
        assert evaluate_mc(net, x, y, 4, stream, batch_size=1) == want_err
        assert calls == {"norms": normalized}

    @pytest.mark.parametrize("model, preset, site", [
        ("nsm", "cnn-mnist", "neuron"), ("binary-erf", "cnn-mnist", "neuron"),
        ("nsm", "mlp-20-16-10-4", "synapse"), ("wnorm-binary-det", "mlp-20-16-10-4", "neuron")])
    def test_init_matches_a_reference_init(self, model, preset, site):
        nets = [build_small_net(model, preset, seed=27, site=site) for _ in range(2)]
        shape = (6,) + nets[0].input_shape
        batch = np.random.default_rng(27).choice([-1.0, 1.0], size=shape)
        stream = RngStream(27).child(NS_INIT, 101)
        data_dependent_init(nets[0], batch, stream)
        z = batch   # the init written out on the caching forward
        for idx, layer in enumerate(nets[1].layers):
            params = layer.params()
            scale = params.get("beta", params.get("g"))
            if scale is not None:
                _, t, _ = layer.project(z)
                t = t.reshape(-1, t.shape[-1])
                scale[...] = 1.0 / t.std(axis=0)
                if "bias" in params:
                    params["bias"][...] = -t.mean(axis=0) / t.std(axis=0)
            z, _ = layer.forward(z, MODE_SAMPLE, stream.child(idx))
        got, want = nets[0].params(), nets[1].params()
        assert got.keys() == want.keys()
        for name in got:
            assert_same_bits(got[name], want[name])


class TestTracedCallSites:
    """The benchmark's tracer replaces layers.im2col, layers.col2im and
    autodiff.reparam_grads by name; a cnn-mnist step must reach them there,
    or the traced per-layer figures silently read 0."""

    def test_cnn_step_calls_each_patch_point(self, monkeypatch):
        calls = Counter()
        for module, name in ((layers, "im2col"), (layers, "col2im"),
                             (autodiff, "reparam_grads")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        net = build_network(parse_preset("cnn-mnist"), "nsm", NoiseModel.bernoulli(0.5), seed=1)
        cfg = TrainConfig(batch_size=4, optimizer="adam", lr=0.001)
        state = TrainState(network=net, optimizer=make_optimizer(cfg), config=cfg, seed=1)
        rng = np.random.default_rng(52)
        train_batch(state, rng.choice([-1.0, 1.0], size=(4, 1, 28, 28)),
                    rng.integers(0, 10, size=4))
        normalized = sum(isinstance(l, (NsmDense, NormalizedHead)) for l in net.layers)
        # two patch sets per conv forward (z and xi * z); conv0 makes no input gradient
        assert calls == {"im2col": 4, "col2im": 1, "reparam_grads": normalized}
        assert normalized == 4

    @staticmethod
    def count_im2col(monkeypatch, calls):
        im2col = layers.im2col

        def counted(*args):
            calls["im2col"] += 1
            return im2col(*args)
        monkeypatch.setattr(layers, "im2col", counted)

    def test_cnn_init_projects_each_conv_once(self, monkeypatch):
        calls = Counter()
        self.count_im2col(monkeypatch, calls)
        net = build_network(parse_preset("cnn-mnist"), "nsm", NoiseModel.bernoulli(0.5), seed=1)
        batch = np.random.default_rng(53).choice([-1.0, 1.0], size=(4, 1, 28, 28))
        data_dependent_init(net, batch, RngStream(1).child(NS_INIT, 101))
        # per conv: the init's projection, then only the noisy patches
        assert calls == {"im2col": 4}

    # a layer without noise takes the init's projection too: every layer forms
    # its rows once
    @pytest.mark.parametrize("model, preset, convs", [("binary-erf", "cnn-mnist", 2),
                                                      ("wnorm-binary-det", "mlp-20-16-10-4", 0)])
    def test_init_projects_each_layer_once(self, model, preset, convs, monkeypatch):
        calls = Counter()
        self.count_im2col(monkeypatch, calls)
        net = build_small_net(model, preset, seed=1)
        units = [layer for layer in net.layers if hasattr(layer, "_rows")]
        for layer in units:
            def counted(z, _fn=layer._rows, _name=layer.name):
                calls[_name] += 1
                return _fn(z)
            layer._rows = counted
        batch = np.random.default_rng(55).choice([-1.0, 1.0], size=(4,) + net.input_shape)
        data_dependent_init(net, batch, RngStream(1).child(NS_INIT, 101))
        assert calls == Counter({"im2col": convs, **{layer.name: 1 for layer in units}})
        assert len(units) == (4 if convs else 3)

    def test_cnn_mc_eval_calls_each_patch_point(self, monkeypatch):
        calls = Counter()
        self.count_im2col(monkeypatch, calls)
        net = build_network(parse_preset("cnn-mnist"), "nsm", NoiseModel.bernoulli(0.5), seed=1)
        for layer in net.layers:
            def counted(*args, _fn=layer.forward, _name=layer.name):
                calls[_name] += 1
                return _fn(*args)
            layer.forward = counted
        rng = np.random.default_rng(54)
        evaluate_mc(net, rng.choice([-1.0, 1.0], size=(4, 1, 28, 28)),
                    rng.integers(0, 10, size=4), 3, RngStream(1).child(NS_EVAL), batch_size=4)
        # pass 0 alone, then passes 1 and 2 as one group: conv0's output of
        # 32 x 24 x 24 per example lets 3 passes of 4 examples share a group
        assert layers._chunk_rows(4 * 32 * 24 * 24) == 3
        # conv0's patches of z once per batch, its noisy patches once per
        # group; conv1's product and noisy patches once per group, in chunks
        # of 5 examples: one chunk for pass 0, two for the group's 8 examples
        assert layers._chunk_rows(8 * 8 * 32 * 25) == 5
        assert calls == {"im2col": 1 + 2 + 2 * (1 + 2),
                         **{layer.name: 2 for layer in net.layers}}

    def test_cnn_mc_eval_peaks_below_forward(self):
        net = build_small_net("nsm", "cnn-mnist", seed=21)
        rng = np.random.default_rng(21)
        x = rng.choice([-1.0, 1.0], size=(100, 1, 28, 28))
        runs = {"forward": lambda: net.forward(x, MODE_SAMPLE, RngStream(21).child(NS_NOISE)),
                "evaluate_mc": lambda: evaluate_mc(net, x, rng.integers(0, 10, size=100), 3,
                                                   RngStream(21).child(NS_EVAL), 100)}
        peaks = {}
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["evaluate_mc"] <= 0.55 * peaks["forward"]
