"""Each benchmark check passes on the package's output and rejects a broken input.

Run with: python3 -m pytest bench/tests
"""

import numpy as np
import pytest
from nsm import autodiff
from nsm.noise import NoiseModel
from nsm.presets import ArchSpec, build_network, parse_preset
from nsm.rng import NS_INIT, RngStream
from nsm.training import data_dependent_init

import teacher
import verify

TINY_CNN = ArchSpec("tiny-cnn", (1, 8, 8), (("conv", 4, 3, 1, 0), ("pool",),
                                            ("flatten",), ("dense", 6), ("head", 10)))


def trained_shape_net(arch, site="neuron", seed=3):
    net = build_network(arch, "nsm", NoiseModel.bernoulli(0.5), site, True, seed)
    x, y, xt, yt = teacher.make_inputs(seed, arch.input_shape, 64, 16)
    data_dependent_init(net, x, RngStream(seed).child(NS_INIT, 101))
    return net, x, y


@pytest.mark.parametrize("arch", [parse_preset("mlp-32-16-16-10"), TINY_CNN],
                         ids=["mlp", "cnn"])
def test_orthogonality_catches_a_radial_rule(arch, monkeypatch):
    net, x, y = trained_shape_net(arch)
    _, grads, _ = net.loss_and_grads(x, y, "sample", RngStream(0))
    assert verify.orthogonality(grads, net) <= verify.ORTHO_TOL

    def radial(w, norms, beta, dv, d_beta):
        return (beta / norms)[:, None] * dv     # drops the projection term
    monkeypatch.setattr(autodiff, "reparam_grads", radial)
    _, grads, _ = net.loss_and_grads(x, y, "sample", RngStream(0))
    with pytest.raises(verify.CheckFailed, match="orthogonal"):
        verify.orthogonality(grads, net)


def test_mlp_closed_form_catches_a_perturbed_weight():
    net, x, _ = trained_shape_net(parse_preset("mlp-32-16-16-10"))
    logits, _ = net.forward(x, "mean")
    triples = [(l.w, l.beta, l.bias) for l in net.layers]
    assert verify.closed_form(logits, verify.mlp_mean_logits(triples, x)) < 1e-12
    w = triples[1][0].copy()
    w[2, 3] += 1e-6
    triples[1] = (w,) + triples[1][1:]
    with pytest.raises(verify.CheckFailed, match="closed form"):
        verify.closed_form(logits, verify.mlp_mean_logits(triples, x))


def test_conv_closed_form_catches_a_perturbed_weight():
    net, x, _ = trained_shape_net(TINY_CNN)
    conv = net.layers[0]
    got, _ = conv.forward(x, "mean", None)
    ref = 2.0 * verify.firing_law(verify.conv_argument(conv.w, conv.beta, conv.bias, x)) - 1.0
    assert verify.closed_form(got, ref) < 1e-12
    w = conv.w.copy()
    w[1, 0, 2, 0] += 1e-6
    bad = 2.0 * verify.firing_law(verify.conv_argument(w, conv.beta, conv.bias, x)) - 1.0
    with pytest.raises(verify.CheckFailed, match="closed form"):
        verify.closed_form(got, bad)


def test_conv_argument_handles_stride_and_pad():
    from nsm.layers import NsmConv
    gen = np.random.default_rng(0)
    conv = NsmConv("c", gen.standard_normal((3, 2, 3, 3)), NoiseModel.bernoulli(0.5),
                   beta=gen.random(3) + 0.5, bias=gen.standard_normal(3), stride=2, pad=1)
    x = np.where(gen.random((4, 2, 7, 7)) < 0.5, -1.0, 1.0)
    got, _ = conv.forward(x, "mean", None)
    ref = 2.0 * verify.firing_law(verify.conv_argument(conv.w, conv.beta, conv.bias, x,
                                                       stride=2, pad=1)) - 1.0
    assert verify.closed_form(got, ref) < 1e-12


def sampled_counts(layer, x, draws, stream):
    reps = np.repeat(x, draws, axis=0)
    out, _ = layer.forward(reps, "sample", stream)
    return (out > 0).reshape((x.shape[0], draws) + out.shape[1:]).sum(axis=1)


@pytest.mark.parametrize("site", ["neuron", "synapse"])
def test_firing_frequency_catches_a_wrong_law(site):
    net, x, _ = trained_shape_net(parse_preset("mlp-256-32-10"), site=site)
    layer, xs, draws = net.layers[0], x[:2], 1000
    fired = sampled_counts(layer, xs, draws, RngStream(7))
    arg = verify.closed_form_argument(layer.w, layer.beta, layer.bias, xs)
    slack = verify.clt_slack(layer.w)
    assert verify.firing_frequency(fired, draws, verify.firing_law(arg), slack) < 0.1
    with pytest.raises(verify.CheckFailed, match="erf law"):
        verify.firing_frequency(fired, draws, verify.firing_law(-arg), slack)


def test_firing_frequency_catches_a_slightly_steeper_law():
    net, x, _ = trained_shape_net(parse_preset("mlp-256-32-10"))
    layer, xs, draws = net.layers[0], x[:2], 20000
    fired = sampled_counts(layer, xs, draws, RngStream(7))
    arg = verify.closed_form_argument(layer.w, layer.beta, layer.bias, xs)
    slack = verify.clt_slack(layer.w)
    assert verify.firing_frequency(fired, draws, verify.firing_law(arg), slack) < 0.02
    with pytest.raises(verify.CheckFailed, match="erf law"):
        verify.firing_frequency(fired, draws, verify.firing_law(1.2 * arg), slack)


def test_conv_firing_frequency_catches_a_wrong_law():
    net, x, _ = trained_shape_net(TINY_CNN)
    conv, xs, draws = net.layers[0], x[:2], 1000
    fired = sampled_counts(conv, xs, draws, RngStream(7))
    arg = verify.conv_argument(conv.w, conv.beta, conv.bias, xs)
    slack = verify.clt_slack(conv.w)[:, None, None]
    verify.firing_frequency(fired, draws, verify.firing_law(arg), slack)
    with pytest.raises(verify.CheckFailed, match="erf law"):
        verify.firing_frequency(fired, draws, verify.firing_law(-arg), slack)


def test_clt_slack_shrinks_with_fan_in():
    assert verify.clt_slack(np.ones((1, 4)))[0] == pytest.approx(0.25 / 4)
    assert verify.clt_slack(np.ones((2, 400)))[1] == pytest.approx(0.25 / 400)


def test_loss_check_rejects_a_flat_or_rising_loss():
    assert verify.loss_decreases([3.0, 2.9, 2.5, 2.4, 2.0, 2.1], 2) < 0
    with pytest.raises(verify.CheckFailed, match="did not fall"):
        verify.loss_decreases([2.0, 2.0, 2.0, 2.0], 2)
    with pytest.raises(verify.CheckFailed, match="did not fall"):
        verify.loss_decreases([2.0, 2.1, 2.2, 2.3], 2)
    with pytest.raises(verify.CheckFailed, match="needs"):
        verify.loss_decreases([2.0, 1.0, 0.5], 2)


def test_checkpoint_compare_catches_one_ulp(tmp_path):
    from nsm.checkpoint import load_checkpoint, restore_params, save_checkpoint
    net, _, _ = trained_shape_net(parse_preset("mlp-32-16-16-10"))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, net.params(), {"preset": "mlp-32-16-16-10"})
    fresh, _, _ = trained_shape_net(parse_preset("mlp-32-16-16-10"), seed=4)
    restore_params(fresh, load_checkpoint(path)[1])
    assert verify.bitwise_equal(net.params(), fresh.params()) == len(net.params())
    fresh.params()["dense0.w"][0, 0] = np.nextafter(fresh.params()["dense0.w"][0, 0], 9.0)
    with pytest.raises(verify.CheckFailed, match="dense0.w"):
        verify.bitwise_equal(net.params(), fresh.params())
    with pytest.raises(verify.CheckFailed, match="names"):
        verify.bitwise_equal(net.params(), {})


def test_loss_digest_tells_sequences_apart():
    losses = [2.5, 2.25, 2.0]
    assert verify.loss_digest(losses) == verify.loss_digest(np.array(losses))
    assert verify.loss_digest(losses) != verify.loss_digest([2.5, 2.25, np.nextafter(2.0, 3)])


def test_teacher_inputs_replay_and_prefix():
    full = teacher.make_inputs(5, (1, 28, 28), 50, 10)
    head = teacher.make_inputs(5, (1, 28, 28), 20, 0)
    assert np.array_equal(full[0][:20], head[0]) and np.array_equal(full[1][:20], head[1])
    assert set(np.unique(full[0])) == {-1.0, 1.0}
    other = teacher.make_inputs(6, (1, 28, 28), 50, 10)
    assert not np.array_equal(full[0], other[0])
