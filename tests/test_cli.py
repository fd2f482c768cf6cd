"""End-to-end command line behavior, run in-process through main(argv)."""

import os
import warnings
from dataclasses import fields

import numpy as np
import pytest

from nsm.analyze import (metrics_equal_excluding_time, read_metrics_csv,
                         save_gradient_log, write_metrics_csv)
from nsm.checkpoint import load_checkpoint, save_checkpoint
from nsm.checks import CheckResult
from nsm.cli import _resolve_config, build_parser, main
from nsm.config import RunConfig, config_lines, parse_config_text, set_key
from nsm.errors import ConfigError
from nsm.network import Network
from nsm.training import MetricsRecord


def train_argv(out, **overrides):
    base = dict(preset="mlp-16-8-2", dataset="synthetic:two-gaussians",
                dim=16, train_size=64, test_size=32, epochs=1, batch_size=16,
                eval_every=1, mc_samples=2, init_batch=32, seed=5)
    base.update(overrides)
    argv = ["train", "--out", str(out)]
    for key, value in base.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def last_eval_line(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return out[-1]


class TestConfig:

    def test_file_parsing(self):
        cfg = parse_config_text(
            "# comment\n"
            "\n"
            "lr = 0.25   # inline comment\n"
            "optimizer = adam\n"
            "head_bias = off\n"
            "max_iterations = 40\n")
        assert cfg.lr == 0.25
        assert cfg.optimizer == "adam"
        assert cfg.head_bias is False
        assert cfg.max_iterations == 40

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config_text("learning_rate = 0.1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1: bad value 'soon' for epochs"):
            parse_config_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="line 1: bad value 'maybe' for head_bias"):
            parse_config_text("head_bias = maybe\n")
        with pytest.raises(ConfigError, match="line 1: expected key = value"):
            parse_config_text("just a line\n")

    def test_canonical_echo_roundtrips(self):
        cfg = RunConfig(lr=0.015625, model="stnn", epochs=7)
        again = parse_config_text(config_lines(cfg))
        assert again == cfg

    def test_set_key_validates(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            set_key(cfg, "frobnicate", "1")

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("lr = 0.5\nseed = 5\n")
        out = tmp_path / "run"
        code = main(train_argv(out) + ["--config", str(cfg_path), "--lr", "0.25"])
        assert code == 0
        echoed = (out / "config.txt").read_text()
        assert "lr = 0.25\n" in echoed

    def test_unknown_key_in_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("learning_rate = 0.5\n")
        code = main(["train", "--out", str(tmp_path / "x"),
                     "--config", str(cfg_path)])
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err


@pytest.fixture(scope="module")
def half_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("half")
    assert main(train_argv(out, epochs=1)) == 0
    return str(out / "model.ckpt")


class TestTrain:

    def test_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_argv(out)) == 0
        for name in ("metrics.csv", "model.ckpt", "config.txt"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "trained nsm mlp-16-8-2" in stdout
        assert "test error" in stdout
        desc, params, _ = load_checkpoint(str(out / "model.ckpt"))
        assert desc["epoch"] == "1"
        assert "dense0.w" in params

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_argv(a, epochs=2)) == 0
        assert main(train_argv(b, epochs=2)) == 0
        assert metrics_equal_excluding_time(str(a / "metrics.csv"),
                                            str(b / "metrics.csv"))
        _, pa, _ = load_checkpoint(str(a / "model.ckpt"))
        _, pb, _ = load_checkpoint(str(b / "model.ckpt"))
        for k in pa:
            np.testing.assert_array_equal(pa[k], pb[k])

    def test_seed_changes_trajectory(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_argv(a, seed=5)) == 0
        assert main(train_argv(b, seed=6)) == 0
        assert not metrics_equal_excluding_time(str(a / "metrics.csv"),
                                                str(b / "metrics.csv"))

    def test_missing_mnist_fails_before_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        env_saved = os.environ.pop("NSM_MNIST_DIR", None)
        try:
            code = main(train_argv(out, dataset="mnist",
                                   preset="mlp-784-16-10"))
        finally:
            if env_saved is not None:
                os.environ["NSM_MNIST_DIR"] = env_saved
        assert code == 2
        assert "NSM_MNIST_DIR" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_synthetic_kind_exits_2(self, tmp_path, capsys):
        code = main(train_argv(tmp_path / "never", dataset="synthetic:spirals"))
        assert code == 2
        assert "spirals" in capsys.readouterr().err

    def test_resume_matches_uninterrupted(self, tmp_path, capsys):
        full, half, resumed = tmp_path / "full", tmp_path / "half", tmp_path / "res"
        assert main(train_argv(full, epochs=2)) == 0
        assert main(train_argv(half, epochs=1)) == 0
        assert main(train_argv(resumed, epochs=2) +
                    ["--resume", str(half / "model.ckpt")]) == 0
        _, pf, _ = load_checkpoint(str(full / "model.ckpt"))
        _, pr, _ = load_checkpoint(str(resumed / "model.ckpt"))
        for k in pf:
            np.testing.assert_array_equal(pf[k], pr[k])
        # the resumed metrics are exactly the tail of the full run
        cf = read_metrics_csv(str(full / "metrics.csv"))
        cr = read_metrics_csv(str(resumed / "metrics.csv"))
        n = cr["loss"].size
        np.testing.assert_array_equal(cf["loss"][-n:], cr["loss"])
        np.testing.assert_array_equal(cf["iteration"][-n:], cr["iteration"])
        np.testing.assert_array_equal(
            np.nan_to_num(cf["test_error"][-n:], nan=-1.0),
            np.nan_to_num(cr["test_error"], nan=-1.0))

    # one changed setting per leg; each must stop the resume before any output
    @pytest.mark.parametrize("key,value", [
        ("preset", "mlp-16-4-2"), ("model", "binary-erf"), ("noise", "gaussian"),
        ("noise_param", "0.25"), ("site", "synapse"), ("head_bias", "off"),
        ("seed", "6"), ("optimizer", "adam"), ("dataset", "synthetic:xor-blobs"),
        ("dim", "25")])
    def test_resume_rejects_changed_setting(self, key, value, half_run, tmp_path, capsys):
        out = tmp_path / "resumed"
        code = main(train_argv(out, epochs=2, **{key: value}) + ["--resume", half_run])
        assert code == 2
        assert f"this run has {key} = " in capsys.readouterr().err
        assert not out.exists()

    # the descriptor is compared as parsed values, not as text
    @pytest.mark.parametrize("key,text", [("noise_param", "0.50"), ("seed", "05")])
    def test_resume_accepts_other_text_of_same_value(self, key, text, half_run,
                                                     tmp_path, capsys):
        desc, params, moments = load_checkpoint(half_run)
        path = str(tmp_path / "respelled.ckpt")
        save_checkpoint(path, params, {**desc, key: text}, moments)
        out = tmp_path / "resumed"
        assert main(train_argv(out, epochs=2) + ["--resume", path]) == 0
        assert (out / "model.ckpt").exists()

    @pytest.mark.parametrize("key,value", [("epoch", "x"), ("iteration", "1.5")])
    def test_resume_malformed_position_exits_2(self, key, value, half_run,
                                               tmp_path, capsys):
        desc, params, moments = load_checkpoint(half_run)
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(path, params, {**desc, key: value}, moments)
        out = tmp_path / "resumed"
        assert main(train_argv(out, epochs=2) + ["--resume", path]) == 2
        assert f"{path}: bad value {value!r} for {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_config_field_is_a_train_flag(self, tmp_path):
        # a non-default value for every field, given only as flags, must
        # come back as the same RunConfig
        want = RunConfig(
            preset="mlp-16-4-2", model="binary-erf", dataset="synthetic:xor-blobs",
            data_dir="somewhere", noise="gaussian", noise_param=0.25,
            site="synapse", epochs=3, batch_size=8, optimizer="adam", lr=0.01,
            adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-6, decay_start_epoch=2,
            late_beta1=0.4, max_iterations=7, eval_every=2, mc_samples=3,
            seed=9, head_bias=False, init_batch=0, record_percentiles=False,
            dim=12, train_size=40, test_size=20)
        assert all(getattr(want, f.name) != getattr(RunConfig(), f.name)
                   for f in fields(RunConfig))
        argv = ["train", "--out", str(tmp_path)]
        for f in fields(RunConfig):
            argv += [f"--{f.name.replace('_', '-')}", str(getattr(want, f.name))]
        assert _resolve_config(build_parser().parse_args(argv)) == want

    def test_resume_with_other_batches_per_epoch_exits_2(self, tmp_path, capsys):
        half, out = tmp_path / "half", tmp_path / "resumed"
        assert main(train_argv(half, max_iterations=2)) == 0   # 2 of 4 batches
        code = main(train_argv(out, epochs=2, batch_size=64) +
                    ["--resume", str(half / "model.ckpt")])
        assert code == 2
        assert "1 batches per epoch" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_restores_adam_moments(self, tmp_path, capsys):
        kw = dict(optimizer="adam", lr=0.001, epochs=2)
        full, half, resumed = tmp_path / "full", tmp_path / "half", tmp_path / "res"
        assert main(train_argv(full, **kw)) == 0
        assert main(train_argv(half, **{**kw, "epochs": 1})) == 0
        _, _, extras = load_checkpoint(str(half / "model.ckpt"))
        assert "t" in extras and "m/dense0.w" in extras and "v/head.w" in extras
        assert main(train_argv(resumed, **kw) +
                    ["--resume", str(half / "model.ckpt")]) == 0
        _, pf, _ = load_checkpoint(str(full / "model.ckpt"))
        _, pr, _ = load_checkpoint(str(resumed / "model.ckpt"))
        for k in pf:
            np.testing.assert_array_equal(pf[k], pr[k])

    def test_gradient_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_argv(out, epochs=2) + ["--log-gradients"]) == 0
        with np.load(str(out / "grads.npz")) as dump:
            assert set(dump.files) == {"dense0", "head"}
            assert dump["dense0"].shape == (8, 8 * 16)  # 4 iters x 2 epochs
            assert np.all(np.isfinite(dump["head"]))

    def test_nan_exits_3_and_keeps_partial_artifacts(self, tmp_path, capsys,
                                                     monkeypatch):
        real = Network.loss_and_grads
        calls = {"n": 0}

        def poisoned(self, *a, **kw):
            loss, grads, caches = real(self, *a, **kw)
            calls["n"] += 1
            if calls["n"] >= 3:
                grads["dense0.w"] = grads["dense0.w"].copy()
                grads["dense0.w"][0, 0] = np.nan
            return loss, grads, caches

        monkeypatch.setattr(Network, "loss_and_grads", poisoned)
        out = tmp_path / "run"
        code = main(train_argv(out, epochs=2))
        assert code == 3
        assert "partial checkpoint" in capsys.readouterr().err
        assert (out / "model.ckpt").exists()
        assert (out / "metrics.csv").exists()
        assert read_metrics_csv(str(out / "metrics.csv"))["loss"].size == 2

    # each of these would fail only after a whole epoch, so it must stop first
    @pytest.mark.parametrize("overrides,message", [
        (dict(eval_every=0), "eval_every must be >= 1"),
        (dict(test_size=0), "test_size must be >= 1"),
        (dict(dataset="synthetic:xor-blobs", dim=1), "xor-blobs needs dim >= 2")])
    def test_bad_setting_exits_2_before_output(self, overrides, message,
                                               tmp_path, capsys):
        out = tmp_path / "never"
        assert main(train_argv(out, **overrides)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # a size the preset cannot take fails before output, with or without init
    @pytest.mark.parametrize("preset, dim, init_batch, want", [
        ("cnn-mnist", 16, 0, "input shape (16,) != expected (1, 28, 28)"),
        ("cnn-mnist", 17, 32, "input shape (17,) != expected (1, 28, 28)"),
        ("mlp-20-4-2", 16, 0, "input shape (16,) != expected (20,)"),
        ("allcnn-dvs", 4096, 0, "input shape (4096,) != expected (6, 64, 64)")],
        ids=["cnn-mnist-16", "cnn-mnist-17-init", "mlp-20-4-2-16", "allcnn-dvs-4096"])
    def test_input_size_mismatch_exits_2_before_output(self, preset, dim, init_batch, want,
                                                       tmp_path, capsys):
        out = tmp_path / "never"
        assert main(train_argv(out, preset=preset, dim=dim, init_batch=init_batch,
                               train_size=16, test_size=4)) == 2
        assert want in capsys.readouterr().err
        assert not out.exists()

    # such a run would train 0 iterations and exit 0; at size 0 it would also
    # warn from data-dependent init on an empty slice
    @pytest.mark.parametrize("train_size", [10, 0])
    def test_train_set_smaller_than_one_batch_exits_2(self, train_size, tmp_path, capsys):
        out = tmp_path / "never"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(train_argv(out, train_size=train_size, batch_size=16)) == 2
        assert (f"train set of {train_size} examples is smaller than one batch of 16"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_other_models_and_digits_smoke(self, tmp_path, capsys):
        for model in ("stnn", "binconcrete", "binary-det"):
            out = tmp_path / model
            assert main(train_argv(out, model=model)) == 0
        pytest.importorskip("sklearn")
        out = tmp_path / "digits"
        assert main(train_argv(out, dataset="digits", preset="mlp-64-16-10",
                               epochs=1, batch_size=100)) == 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(train_argv(out, epochs=2)) == 0
    return str(out / "model.ckpt")


class TestEval:

    def test_missing_descriptor_key_exits_2(self, trained, tmp_path, capsys):
        desc, params, _ = load_checkpoint(trained)
        for key in ("preset", "model", "noise", "noise_param", "site",
                    "head_bias", "seed"):
            path = str(tmp_path / f"no-{key}.ckpt")
            save_checkpoint(path, params, {k: v for k, v in desc.items() if k != key})
            assert main(["eval", "--checkpoint", path]) == 2
            assert f"no {key!r} entry" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("seed", "abc"), ("noise_param", "x"), ("dim", "1.5"), ("head_bias", "maybe")])
    def test_malformed_descriptor_value_exits_2(self, key, value, trained,
                                                tmp_path, capsys):
        desc, params, _ = load_checkpoint(trained)
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(path, params, {**desc, key: value})
        assert main(["eval", "--checkpoint", path]) == 2
        assert f"{path}: bad value {value!r} for {key}" in capsys.readouterr().err

    def test_descriptor_without_dataset_or_dim(self, trained, tmp_path, capsys):
        # older checkpoints carry neither; eval falls back to two-gaussians/16
        desc, params, _ = load_checkpoint(trained)
        assert (desc["dataset"], desc["dim"]) == ("synthetic:two-gaussians", "16")
        old = str(tmp_path / "old.ckpt")
        save_checkpoint(old, params, {k: v for k, v in desc.items()
                                      if k not in ("dataset", "dim")})
        assert main(["eval", "--checkpoint", trained]) == 0
        current = last_eval_line(capsys)
        assert main(["eval", "--checkpoint", old]) == 0
        assert last_eval_line(capsys) == current

    def test_malformed_flag_value_exits_2(self, trained, capsys):
        assert main(["eval", "--checkpoint", trained, "--seed", "abc"]) == 2
        assert "flag: bad value 'abc' for seed" in capsys.readouterr().err

    def test_zero_test_size_exits_2(self, trained, capsys):
        assert main(["eval", "--checkpoint", trained, "--test-size", "0"]) == 2
        assert "test_size must be >= 1" in capsys.readouterr().err

    def test_deterministic_and_writes_file(self, trained, tmp_path, capsys):
        assert main(["eval", "--checkpoint", trained]) == 0
        first = last_eval_line(capsys)
        assert first.startswith("test_error ")
        assert main(["eval", "--checkpoint", trained,
                     "--out", str(tmp_path / "e")]) == 0
        assert last_eval_line(capsys) == first
        written = (tmp_path / "e" / "eval.txt").read_text()
        assert written.split("=")[1].strip() == first.split()[1]

    def test_scale_leaves_predictions_fixed(self, trained, capsys):
        assert main(["eval", "--checkpoint", trained]) == 0
        base = last_eval_line(capsys)
        assert main(["eval", "--checkpoint", trained, "--scale", "0.1"]) == 0
        assert last_eval_line(capsys) == base
        assert main(["eval", "--checkpoint", trained, "--scale", "40"]) == 0
        assert last_eval_line(capsys) == base

    def test_scale_rejected_off_family(self, tmp_path, capsys):
        out = tmp_path / "stnn"
        assert main(train_argv(out, model="stnn")) == 0
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--scale", "0.1"])
        assert code == 2
        assert "weight-normalized" in capsys.readouterr().err

    def test_mc_count_irrelevant_for_deterministic_model(self, tmp_path, capsys):
        out = tmp_path / "det"
        assert main(train_argv(out, model="binary-det")) == 0
        ckpt = str(out / "model.ckpt")
        assert main(["eval", "--checkpoint", ckpt, "--mc-samples", "1"]) == 0
        one = last_eval_line(capsys).split()[1]
        assert main(["eval", "--checkpoint", ckpt, "--mc-samples", "7"]) == 0
        assert last_eval_line(capsys).split()[1] == one

    def test_dataset_override(self, trained, capsys):
        assert main(["eval", "--checkpoint", trained,
                     "--dataset", "synthetic:xor-blobs",
                     "--test-size", "64"]) == 0
        assert "(64 examples" in last_eval_line(capsys)


class TestAnalyze:

    def write_metrics(self, path, p50s, errors):
        records = []
        for i, p in enumerate(p50s):
            records.append(MetricsRecord(
                iteration=i + 1, epoch=0, loss=0.7 - 0.01 * i, seconds=0.1,
                p15=p - 1.0, p50=p, p85=p + 1.0,
                test_error=errors[i] if i < len(errors) else None))
        write_metrics_csv(str(path), records)

    def test_drift_pins(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        self.write_metrics(path, [1.0, 2.0, 3.0], [])
        out_csv = tmp_path / "drift.csv"
        assert main(["analyze", "drift", str(path), "--out", str(out_csv)]) == 0
        line = capsys.readouterr().out
        assert "p50 std 0.816497 over 3 records" in line
        assert "band 2.0000" in line
        header = out_csv.read_text().splitlines()[0]
        assert header == "metrics,records,p50_std,p50_range,band_mean"

    def test_drift_window(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        self.write_metrics(path, [1.0, 1.0, 50.0], [])
        assert main(["analyze", "drift", str(path), "--window", "2"]) == 0
        assert "p50 std 0.000000 over 2 records" in capsys.readouterr().out

    def test_error_window_pins(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        self.write_metrics(path, [0.0, 0.0, 0.0], [0.5, 0.25, 0.125])
        assert main(["analyze", "error", str(path)]) == 0
        assert "mean error 0.2917 over 3 evaluations (best 0.1250)" \
            in capsys.readouterr().out
        assert main(["analyze", "error", str(path), "--window", "2"]) == 0
        assert "mean error 0.1875 over 2 evaluations" in capsys.readouterr().out

    def test_error_without_evaluations_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        self.write_metrics(path, [0.0], [])
        assert main(["analyze", "error", str(path)]) == 2
        assert "no test_error records" in capsys.readouterr().err

    def test_cosine_pins(self, tmp_path, capsys):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_gradient_log(str(a), {
            "dense0": [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            "head": [np.array([1.0, 1.0])],
        })
        save_gradient_log(str(b), {
            "dense0": [np.array([0.0, 2.0]), np.array([3.0, 0.0])],
            "head": [np.array([2.0, 2.0]), np.array([9.0, 9.0])],
        })
        assert main(["analyze", "cosine", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "dense0: mean cosine 0.0000 over 2 iterations" in out
        assert "head: mean cosine 1.0000 over 1 iterations" in out

    def test_cosine_needs_two_inputs(self, tmp_path, capsys):
        a = tmp_path / "a.npz"
        save_gradient_log(str(a), {"dense0": [np.ones(2)]})
        assert main(["analyze", "cosine", str(a)]) == 2

    def test_compare_metrics_exit_codes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        recs = [MetricsRecord(iteration=1, epoch=0, loss=0.5, seconds=1.0)]
        write_metrics_csv(str(a), recs)
        recs[0].seconds = 99.0
        write_metrics_csv(str(b), recs)
        assert main(["analyze", "compare-metrics", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out
        recs[0].loss = 0.5 + 1e-13
        write_metrics_csv(str(b), recs)
        assert main(["analyze", "compare-metrics", str(a), str(b)]) == 1
        assert "DIFFERENT" in capsys.readouterr().out

    def test_weights_summary_and_histograms(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(train_argv(run)) == 0
        ckpt = str(run / "model.ckpt")
        table, hist = tmp_path / "w.csv", tmp_path / "h.csv"
        assert main(["analyze", "weights", ckpt, "--out", str(table),
                     "--hist-out", str(hist), "--bins", "5"]) == 0
        out = capsys.readouterr().out
        assert "dense0.w: mean" in out
        lines = table.read_text().splitlines()
        assert lines[0] == "checkpoint,parameter,count,mean,std,min,max,l2"
        hist_lines = hist.read_text().splitlines()
        # 5 bins per parameter, plus the header
        n_params = len(lines) - 1
        assert len(hist_lines) == 1 + 5 * n_params

    def test_unknown_kind_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "entropy", "x.csv"])

    def test_recorded_percentiles_use_linear_interpolation(self):
        values = np.arange(1.0, 101.0)
        np.testing.assert_allclose(
            np.percentile(values, [15.0, 50.0, 85.0]), [15.85, 50.5, 85.15])


class TestCheck:

    def test_battery_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "7/7 checks passed" in out
        assert "FAIL" not in out

    def test_failure_flips_exit_code(self, capsys, monkeypatch):
        import nsm.checks as checks

        def broken():
            return CheckResult("loss-sanity", False, 1.0, 1e-12, "forced")

        monkeypatch.setattr(checks, "check_loss_sanity", broken)
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL loss-sanity" in out
        assert "6/7 checks passed" in out
