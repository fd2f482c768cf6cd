"""Command line interface: train / eval / analyze / check."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import analyze as analyze_mod
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .checks import run_all
from .config import RunConfig, config_lines, load_config, set_key
from .data import LabeledDataset, load_digits_dataset, load_mnist_dir, synthetic_dataset
from .errors import ConfigError, NanGradientError, NsmError
from .layers import MODE_CONCRETE, MODE_SAMPLE
from .network import Network
from .noise import NoiseModel
from .presets import NSM_FAMILY, build_network, parse_preset
from .rng import NS_EVAL, NS_INIT, RngStream
from .training import (TrainState, batches_done, data_dependent_init,
                       evaluate_mc, make_optimizer, train)

# every RunConfig field is a train flag (dashes for underscores); eval takes
# the model from the checkpoint and only these from the command line
_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
_EVAL_KEYS = ("dataset", "data_dir", "seed", "mc_samples", "dim", "train_size",
              "test_size")


def _add_override_flags(parser: argparse.ArgumentParser, keys):
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _apply_overrides(cfg: RunConfig, args, keys) -> RunConfig:
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            set_key(cfg, key, value)
    return cfg.validate()


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return _apply_overrides(cfg, args, _CONFIG_KEYS)


def resolve_datasets(cfg: RunConfig):
    """(train, test) LabeledDatasets of flat examples for the configured source."""
    if cfg.dataset.startswith("synthetic:"):
        kind = cfg.dataset.split(":", 1)[1]
        total = synthetic_dataset(kind, cfg.train_size + cfg.test_size,
                                  cfg.seed, dim=cfg.dim)
        return (LabeledDataset(total.inputs[:cfg.train_size],
                               total.labels[:cfg.train_size], total.num_classes),
                LabeledDataset(total.inputs[cfg.train_size:],
                               total.labels[cfg.train_size:], total.num_classes))
    if cfg.dataset == "digits":
        return load_digits_dataset(cfg.seed)
    if cfg.dataset == "mnist":
        root = cfg.data_dir or os.environ.get("NSM_MNIST_DIR", "")
        if not root:
            raise ConfigError("dataset mnist needs --data-dir or NSM_MNIST_DIR")
        return load_mnist_dir(root, "train"), load_mnist_dir(root, "t10k")
    raise ConfigError(f"unknown dataset {cfg.dataset!r}")


def _descriptor(cfg: RunConfig, state: TrainState) -> dict:
    return {"preset": cfg.preset, "model": cfg.model, "noise": cfg.noise,
            "noise_param": repr(cfg.noise_param), "site": cfg.site,
            "head_bias": "on" if cfg.head_bias else "off",
            "seed": str(cfg.seed), "epoch": str(state.epoch),
            "iteration": str(state.iteration), "optimizer": cfg.optimizer,
            "dataset": cfg.dataset, "dim": str(cfg.dim)}


# descriptor entries eval rebuilds the model from; a resume must match these and more
_MODEL_KEYS = ("preset", "model", "noise", "noise_param", "site", "head_bias", "seed")
_RESUME_KEYS = _MODEL_KEYS + ("optimizer", "dataset", "dim")


def _checkpoint_config(desc: dict, required, path: str) -> RunConfig:
    """RunConfig from a checkpoint descriptor: every entry that names a
    config field is parsed as that field, the rest keep their defaults."""
    for key in required:
        if key not in desc:
            raise ConfigError(f"{path}: checkpoint descriptor has no {key!r} entry")
    cfg = RunConfig()
    for key, value in desc.items():
        if key in _CONFIG_KEYS:
            set_key(cfg, key, value, where=path)
    return cfg


def _moments(optimizer) -> dict:
    state = optimizer.state()   # {} for SGD; Adam: t, m, v
    if not state:
        return {}
    out = {"t": np.array([float(state["t"])])}
    out.update({f"m/{name}": arr for name, arr in state["m"].items()})
    out.update({f"v/{name}": arr for name, arr in state["v"].items()})
    return out


def _restore_moments(optimizer, moments: dict):
    if not moments:
        return
    m = {k[2:]: v for k, v in moments.items() if k.startswith("m/")}
    v = {k[2:]: v for k, v in moments.items() if k.startswith("v/")}
    optimizer.load_state({"t": moments["t"][0], "m": m, "v": v})


def build_from_config(cfg: RunConfig) -> Network:
    return build_network(parse_preset(cfg.preset), cfg.model,
                         NoiseModel(cfg.noise, cfg.noise_param), cfg.site, cfg.head_bias, cfg.seed)


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    train_ds, test_ds = resolve_datasets(cfg)   # before any output is created
    if len(train_ds) < cfg.batch_size:
        raise ConfigError(f"train set of {len(train_ds)} examples is smaller than "
                          f"one batch of {cfg.batch_size}")
    net = build_from_config(cfg)
    state = TrainState(network=net, optimizer=make_optimizer(cfg), config=cfg,
                       seed=cfg.seed,
                       mode=MODE_CONCRETE if cfg.model == "binconcrete" else MODE_SAMPLE)
    if args.resume:
        desc, params, moments = load_checkpoint(args.resume)
        saved = _checkpoint_config(desc, _RESUME_KEYS + ("epoch", "iteration"),
                                   args.resume)
        for key in _RESUME_KEYS:
            theirs, ours = getattr(saved, key), getattr(cfg, key)
            if theirs != ours:
                raise ConfigError(f"{args.resume}: checkpoint has {key} = {theirs}, "
                                  f"this run has {key} = {ours}")
        for key in ("epoch", "iteration"):   # not config fields, so parsed here
            try:
                setattr(state, key, int(desc[key]))
            except ValueError:
                raise ConfigError(f"{args.resume}: bad value {desc[key]!r} for {key}")
        restore_params(net, params)
        batches_done(state, len(train_ds))
        _restore_moments(state.optimizer, moments)
    elif cfg.init_batch > 0:
        n = min(cfg.init_batch, len(train_ds))
        data_dependent_init(net, train_ds.inputs[:n],
                            RngStream(cfg.seed).child(NS_INIT, 101))
    net._prep(train_ds.inputs[:1])   # a size the preset cannot take fails before any output
    os.makedirs(args.out, exist_ok=True)
    grad_log = {} if args.log_gradients else None
    blew_up = None
    try:
        train(state, train_ds.inputs, train_ds.labels, test_ds.inputs,
              test_ds.labels, grad_log=grad_log)
    except NanGradientError as e:
        blew_up = e   # keep the partial artifacts below, then exit nonzero
    analyze_mod.write_metrics_csv(os.path.join(args.out, "metrics.csv"), state.records)
    save_checkpoint(os.path.join(args.out, "model.ckpt"), net.params(),
                    _descriptor(cfg, state), _moments(state.optimizer))
    if grad_log:
        analyze_mod.save_gradient_log(os.path.join(args.out, "grads.npz"), grad_log)
    with open(os.path.join(args.out, "config.txt"), "w") as f:
        f.write(config_lines(cfg))
    if blew_up is not None:
        print(f"error: {blew_up} (partial checkpoint kept in {args.out})",
              file=sys.stderr)
        return 3
    last_err = next((r.test_error for r in reversed(state.records)
                     if r.test_error is not None), None)
    err_text = "n/a" if last_err is None else f"{last_err:.4f}"
    print(f"trained {cfg.model} {cfg.preset} for {state.epoch} epochs "
          f"({state.iteration} iterations); test error {err_text}; "
          f"artifacts in {args.out}")
    return 0


def _apply_scale(net: Network, alpha: float, model: str):
    if model not in NSM_FAMILY:
        raise ConfigError("--scale applies to the weight-normalized family only")
    for layer in net.layers:
        if layer.scale_name:
            layer.w[...] *= alpha


def cmd_eval(args) -> int:
    desc, params, _ = load_checkpoint(args.checkpoint)
    cfg = _apply_overrides(_checkpoint_config(desc, _MODEL_KEYS, args.checkpoint),
                           args, _EVAL_KEYS)
    net = build_from_config(cfg)
    restore_params(net, params)
    if args.scale is not None:
        _apply_scale(net, float(args.scale), cfg.model)
    _, test_ds = resolve_datasets(cfg)
    mc = cfg.mc_samples
    err = evaluate_mc(net, test_ds.inputs, test_ds.labels, mc,
                      RngStream(cfg.seed).child(NS_EVAL, 999))
    print(f"test_error {repr(err)} ({len(test_ds)} examples, {mc} passes)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "eval.txt"), "w") as f:
            f.write(f"test_error = {repr(err)}\n")
    return 0


# analyses that sum up each metrics.csv in one row: (summary, printed line)
_METRICS_SUMMARIES = {
    "drift": (analyze_mod.percentile_drift,
              "{path}: p50 std {p50_std:.6f} over {records} records (band {band_mean:.4f})"),
    "error": (analyze_mod.error_window,
              "{path}: mean error {mean_error:.4f} over {evaluations} evaluations "
              "(best {best_error:.4f})"),
}


def cmd_analyze(args) -> int:
    kind = args.kind
    window = args.window if args.window and args.window > 0 else None
    rows = []
    if kind in _METRICS_SUMMARIES:
        summarize, line = _METRICS_SUMMARIES[kind]
        for path in args.inputs:
            summary = summarize(analyze_mod.read_metrics_csv(path), window)
            rows.append({"metrics": path, **summary})
            print(line.format(path=path, **summary))
    elif kind == "weights":
        for path in args.inputs:
            for row in analyze_mod.weight_statistics(path):
                rows.append({"checkpoint": path, **row})
                print(f"{path} {row['parameter']}: mean {row['mean']:.5f} "
                      f"std {row['std']:.5f} l2 {row['l2']:.5f}")
        if args.hist_out:
            hist_rows = []
            for path in args.inputs:
                hist_rows.extend({"checkpoint": path, **row}
                                 for row in analyze_mod.weight_histograms(path, args.bins))
            analyze_mod.write_rows_csv(args.hist_out, hist_rows)
    elif kind == "cosine":
        if len(args.inputs) != 2:
            raise ConfigError("analyze cosine needs exactly two gradient dumps")
        rows = analyze_mod.gradient_cosine_table(*args.inputs)
        for row in rows:
            print(f"{row['layer']}: mean cosine {row['mean_cosine']:.4f} "
                  f"over {row['iterations']} iterations")
    elif kind == "compare-metrics":
        if len(args.inputs) != 2:
            raise ConfigError("analyze compare-metrics needs exactly two files")
        same = analyze_mod.metrics_equal_excluding_time(*args.inputs)
        print("identical (excluding seconds)" if same else "DIFFERENT")
        return 0 if same else 1
    else:
        raise ConfigError(f"unknown analysis {kind!r}")
    if args.out and rows:
        analyze_mod.write_rows_csv(args.out, rows)
    return 0


def cmd_check(args) -> int:
    results = run_all()
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsm",
        description="Stochastic binary networks that normalize themselves "
                    "through multiplicative synaptic noise")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write artifacts")
    p_train.add_argument("--config", help="key = value config file")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.add_argument("--log-gradients", action="store_true",
                         help="dump per-iteration weight gradients to grads.npz")
    _add_override_flags(p_train, _CONFIG_KEYS)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--scale", type=float,
                        help="multiply every weight matrix by this factor first")
    _add_override_flags(p_eval, _EVAL_KEYS)
    p_eval.add_argument("--out", help="directory for eval.txt")
    p_eval.set_defaults(func=cmd_eval)

    p_an = sub.add_parser("analyze", help="summarize run artifacts")
    p_an.add_argument("kind", choices=["drift", "weights", "error", "cosine",
                                       "compare-metrics"])
    p_an.add_argument("inputs", nargs="+")
    p_an.add_argument("--window", type=int, default=0,
                      help="drift: first N records; error: last N evaluations")
    p_an.add_argument("--bins", type=int, default=20,
                      help="weights: histogram bin count")
    p_an.add_argument("--hist-out", dest="hist_out",
                      help="weights: write per-parameter histograms as CSV")
    p_an.add_argument("--out", help="write the summary rows as CSV")
    p_an.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="run the numeric self-diagnostics")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NsmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
