"""One benchmark workload in one process: set-up, timed training, timed MC eval, checks.

Run through run.py, which starts this script once per measured run and once
per extra set-up sample. It drives the package only through the calls that
`nsm train` and `nsm eval` make. The last line of its standard output is one
JSON object that run.py aggregates.

Nothing but the standard library is imported before the timed `import nsm`,
so set-up time includes loading NumPy and SciPy, as it does for `nsm train`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# share of --seconds given to the training phase; the rest goes to MC eval
TRAIN_SHARE = 0.6
INIT_BATCH = 100          # nsm train's default init_batch
CHECK_BATCH = 100         # examples for the gradient and closed-form checks
CONV_CHECK_BATCH = 20
EVAL_WARMUP = 10          # examples in the untimed evaluate_mc call before the timed ones
NS_BENCH_CHECK = 1001     # stream purpose for the checks' draws, unused by nsm
BLOCK = 100               # timed steps per block; a block's tail is its p90


@dataclass(frozen=True)
class Workload:
    preset: str
    site: str
    batch: int
    optimizer: str
    lr: float
    warmup: int            # untimed training steps before the timed phase
    digest_steps: int      # steps every run completes; their losses are digested
    train_pool: int        # training examples, cycled through in order
    held_out: int          # examples per MC evaluation
    mc_passes: int
    eval_batch: int | None  # None: evaluate_mc's default, as `nsm eval` uses
    firing: tuple[int, int, int]  # (inputs, draws per input, rows per forward)


WORKLOADS = {
    # the paper's reference MLP; dense GEMMs plus weight-sized elementwise work
    "mlp-neuron": Workload("mlp-784-300-300-300-10", "neuron", 100, "adam", 0.003,
                           warmup=10, digest_steps=100, train_pool=6000, held_out=1000,
                           mc_passes=10, eval_batch=None, firing=(2, 10000, 2000)),
    # same network, one noise draw per synapse: RNG and memory bound
    "mlp-synapse": Workload("mlp-784-300-300-300-10", "synapse", 100, "adam", 0.002,
                            warmup=2, digest_steps=16, train_pool=2000, held_out=500,
                            mc_passes=1, eval_batch=None, firing=(1, 256, 32)),
    # the only workload on NsmConv, im2col/col2im and MaxPool2
    "cnn": Workload("cnn-mnist", "neuron", 100, "adam", 0.001,
                    warmup=2, digest_steps=12, train_pool=2000, held_out=500,
                    mc_passes=2, eval_batch=None, firing=(2, 1000, 250)),
    # online learning: batch 1, plain SGD, MC eval one example at a time
    "online": Workload("mlp-784-300-300-300-10", "neuron", 1, "sgd", 0.03,
                       warmup=20, digest_steps=300, train_pool=6000, held_out=100,
                       mc_passes=10, eval_batch=1, firing=(2, 10000, 2000)),
}


def blas_threads() -> dict:
    """Runtime thread count of every OpenBLAS loaded in this process.

    NumPy and SciPy each ship their own copy; both read OPENBLAS_NUM_THREADS.
    """
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def machine():
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def set_up(name: str, seed: int):
    """Import, build and data-dependent init, each timed; returns the pieces."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nsm
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(nsm.__file__)) != os.path.join(SRC, "nsm"):
        raise SystemExit(f"imported nsm from {nsm.__file__}, not from {SRC}")
    from nsm import presets, training
    from nsm.noise import NoiseModel
    from nsm.rng import NS_INIT, RngStream

    import teacher

    wl = WORKLOADS[name]
    arch = presets.parse_preset(wl.preset)
    # the data is generated outside the timed pieces: the program only
    # receives the arrays
    full = teacher.make_inputs(seed, arch.input_shape, wl.train_pool, wl.held_out)
    t0 = time.perf_counter()
    net = presets.build_network(arch, "nsm", NoiseModel.bernoulli(0.5), wl.site, True, seed)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    training.data_dependent_init(net, full[0][:INIT_BATCH],
                                 RngStream(seed).child(NS_INIT, 101))
    init_s = time.perf_counter() - t0
    setup = {"setup_s": import_s + build_s + init_s, "setup.import_s": import_s,
             "presets.build_network_ms": 1e3 * build_s,
             "training.data_dependent_init_ms": 1e3 * init_s}
    return wl, net, full, setup


def install_tracer(tracer, net, state):
    """Spans at the layer and module boundaries the per-layer metrics name."""
    from nsm import autodiff, layers, rng

    for layer in net.layers:
        cls = type(layer).__name__
        tracer.patch(layer, "forward", f"layers.{cls}.forward")
        tracer.patch(layer, "backward", f"layers.{cls}.backward")
    for method in ("forward", "backward", "loss_and_grads"):
        tracer.patch(net, method, f"network.{method}")
    tracer.patch(layers, "im2col", "layers.im2col")
    tracer.patch(layers, "col2im", "layers.col2im")
    tracer.patch(layers, "sample_noise", "noise.sample_noise",
                 count=lambda model, shape, stream: math.prod(shape))
    tracer.patch(rng.RngStream, "generator", "rng.generator")
    tracer.patch(autodiff, "reparam_grads", "autodiff.reparam_grads")
    tracer.patch(state.optimizer, "step", "training.optimizer_step")


def per_layer(tracer, faults: int, mc_passes: int):
    """Train values per step and eval values per MC pass, from the spans.

    An MC pass is one stochastic forward over the whole held-out set, so
    each evaluate_mc call makes mc_passes of them. faults counts minor page
    faults over the timed training steps.
    """
    import tracing

    out = {}
    for phase, root in (("train", "training.train_batch"), ("eval", "training.evaluate_mc")):
        n_roots, self_s, calls, counts, gap = tracing.summarize(tracer.spans, root)
        if gap > 1e-9:
            raise SystemExit(f"{phase}: self times miss a root's duration by {gap:.3e} s")
        per = max(n_roots if phase == "train" else n_roots * mc_passes, 1)
        ms = lambda name: 1e3 * self_s.get(name, 0.0) / per
        metrics = {}
        for cls in ("NsmDense", "NsmConv", "MaxPool2", "NormalizedHead", "Flatten"):
            metrics[f"layers.{cls}.forward_ms"] = ms(f"layers.{cls}.forward")
            if phase == "train":
                metrics[f"layers.{cls}.backward_ms"] = ms(f"layers.{cls}.backward")
        metrics["layers.im2col_ms"] = ms("layers.im2col")
        if phase == "train":
            metrics["layers.col2im_ms"] = ms("layers.col2im")
        metrics["noise.sample_noise_ms"] = ms("noise.sample_noise")
        metrics["noise.values_drawn"] = counts.get("noise.sample_noise", 0) / per
        metrics["rng.generator_calls"] = calls.get("rng.generator", 0) / per
        metrics["rng.generator_ms"] = ms("rng.generator")
        metrics["network.self_ms"] = sum(ms(f"network.{m}")
                                         for m in ("forward", "backward", "loss_and_grads"))
        if phase == "train":
            metrics["autodiff.reparam_grads_ms"] = ms("autodiff.reparam_grads")
            metrics["training.optimizer_step_ms"] = ms("training.optimizer_step")
            metrics["training.minor_faults"] = faults / per
            metrics["training.train_batch.self_ms"] = ms(root)
            metrics["step_ms"] = 1e3 * sum(self_s.values()) / per
        else:
            metrics["training.evaluate_mc.self_ms"] = ms(root)
            metrics["pass_ms"] = 1e3 * sum(self_s.values()) / per
        out.update({f"{phase}.{k}": v for k, v in metrics.items()})
    return out


def tail(times) -> float:
    """Highest percentile with at least ten steps beyond it, never below the median."""
    ordered = sorted(times)
    p50 = statistics.median(ordered)
    return p50 if len(ordered) < 11 else max(p50, ordered[-11])


def blocks(times) -> list:
    """Consecutive blocks of at least BLOCK step times, or all of them as one.

    The training metrics are medians over blocks, so that a burst of load
    from outside the process moves them only if it covers half the blocks.
    A tail over a whole run would sit on its ten slowest steps, which such
    a burst alone decides.
    """
    n = len(times)
    k = max(n // BLOCK, 1)
    return [times[i * n // k:(i + 1) * n // k] for i in range(k)]


def run(name: str, seed: int, seconds: float, trace: bool):
    wl, net, (x_train, y_train, x_test, y_test), setup = set_up(name, seed)
    from nsm import training
    from nsm.errors import NsmError
    from nsm.rng import NS_EVAL, RngStream

    import tracing
    import verify

    info = machine()
    wrong = {lib: n for lib, n in info["blas_threads"].items()
             if str(n) != info["blas_threads_env"]}
    if info["blas_threads_env"] is not None and wrong:
        raise SystemExit(f"BLAS threads {wrong}, asked for {info['blas_threads_env']}")
    tc = training.TrainConfig(batch_size=wl.batch, optimizer=wl.optimizer, lr=wl.lr)
    state = training.TrainState(network=net, optimizer=training.make_optimizer(tc),
                                config=tc, seed=seed)
    tracer = tracing.Tracer() if trace else None
    train_batch, evaluate_mc = training.train_batch, training.evaluate_mc
    if trace:
        install_tracer(tracer, net, state)
        train_batch = tracer.wrap(train_batch, "training.train_batch")
        evaluate_mc = tracer.wrap(evaluate_mc, "training.evaluate_mc")
    batches = wl.train_pool // wl.batch
    losses, failed = [], 0

    def step(train_batch):
        nonlocal failed
        lo = (state.iteration % batches) * wl.batch
        try:
            loss, _, _ = train_batch(state, x_train[lo:lo + wl.batch],
                                     y_train[lo:lo + wl.batch])
        except NsmError as e:
            print(f"train step {state.iteration} failed: {e}", file=sys.stderr)
            failed += 1
            state.iteration += 1
            return
        losses.append(loss)

    # warm-ups call the unwrapped functions: their spans hang off no phase
    # root, so the per-layer figures cover the timed calls only
    for _ in range(wl.warmup):
        step(training.train_batch)
    step_times, faults = [], 0
    budget = TRAIN_SHARE * seconds
    t_start = time.perf_counter()
    while True:
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if trace else 0
        t0 = time.perf_counter()
        step(train_batch)
        t1 = time.perf_counter()
        if trace:
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        step_times.append(t1 - t0)
        if t1 - t_start >= budget and state.iteration >= wl.digest_steps:
            break

    eval_kwargs = {} if wl.eval_batch is None else {"batch_size": wl.eval_batch}
    training.evaluate_mc(net, x_test[:EVAL_WARMUP], y_test[:EVAL_WARMUP], wl.mc_passes,
                         RngStream(seed).child(NS_EVAL, -1), **eval_kwargs)
    calls, errors, call_times = 0, [], []
    budget = (1.0 - TRAIN_SHARE) * seconds
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            errors.append(evaluate_mc(net, x_test, y_test, wl.mc_passes,
                                      RngStream(seed).child(NS_EVAL, calls), **eval_kwargs))
            call_times.append(time.perf_counter() - t0)
        except NsmError as e:
            print(f"eval call {calls} failed: {e}", file=sys.stderr)
            failed += 1
        calls += 1
        if time.perf_counter() - t_start >= budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer.uninstall()

    e2e = {"train_samples_per_s": statistics.median(len(b) * wl.batch / sum(b)
                                                    for b in blocks(step_times)),
           "train_step_ms_p50": 1e3 * statistics.median(step_times),
           "train_step_ms_tail": 1e3 * statistics.median(tail(b) for b in blocks(step_times)),
           "eval_samples_per_s": statistics.median(wl.held_out / t for t in call_times),
           "peak_rss_mb": peak_rss_mb}

    checks, ckpt = {}, {}
    try:
        run_checks(wl, name, seed, net, state, losses, x_test, y_test, checks, ckpt)
    except verify.CheckFailed as e:
        print(f"CHECK FAILED ({name}, seed {seed}): {e}", file=sys.stderr)
        checks["failed"] = str(e)
    result = {"workload": name, "seed": seed, "machine": info, "setup": setup,
              "e2e": e2e, "correct": "failed" not in checks, "checks": checks,
              "checkpoint": ckpt,
              "loss_digest": verify.loss_digest(losses[:wl.digest_steps]),
              "train_steps_timed": len(step_times), "eval_calls": calls,
              "step_ms": [1e3 * t for t in step_times],
              "eval_error_mean": statistics.mean(errors) if errors else None,
              "attempted": wl.warmup + len(step_times) + calls, "failed": failed}
    if trace:
        result["per_layer"] = per_layer(tracer, faults, wl.mc_passes)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl"))
    return result


def run_checks(wl, name, seed, net, state, losses, x_test, y_test, checks, ckpt):
    """Every correctness check, filling `checks` with the measured values.

    The first check that fails raises verify.CheckFailed. `ckpt` receives the
    checkpoint round trip's timings and size.
    """
    import numpy as np
    from nsm import checkpoint, presets
    from nsm.noise import NoiseModel
    from nsm.rng import RngStream

    import verify

    stream = RngStream(seed).child(NS_BENCH_CHECK)
    xc, yc = x_test[:CHECK_BATCH], y_test[:CHECK_BATCH]
    _, grads, _ = net.loss_and_grads(xc, yc, "sample", stream.child(0))
    checks["orthogonality_max_cos"] = verify.orthogonality(grads, net)

    first = net.layers[0]
    conv = first.w.ndim == 4

    def first_argument(x):
        """The first layer's closed-form argument, computed independently."""
        if conv:
            return verify.conv_argument(first.w, first.beta, first.bias, x,
                                        first.stride, first.pad)
        return verify.closed_form_argument(first.w, first.beta, first.bias,
                                           x.reshape(len(x), -1))

    if conv:
        xs = x_test[:CONV_CHECK_BATCH]
        got, _ = first.forward(xs, "mean", None)
        ref = 2.0 * verify.firing_law(first_argument(xs)) - 1.0
    else:
        got, _ = net.forward(xc, "mean")
        ref = verify.mlp_mean_logits(
            [(layer.w, layer.beta, layer.bias) for layer in net.layers], xc)
    checks["closed_form_max_rel_diff"] = verify.closed_form(got, ref)

    k, draws, chunk = wl.firing
    xs = x_test[:k]
    reps = np.repeat(xs, draws, axis=0)
    fired = []
    for c, lo in enumerate(range(0, len(reps), chunk)):
        out, _ = first.forward(reps[lo:lo + chunk], "sample", stream.child(1, c))
        fired.append(out > 0)
    fired = np.concatenate(fired).reshape((k, draws) + fired[0].shape[1:]).sum(axis=1)
    slack = verify.clt_slack(first.w)
    if conv:
        slack = slack[:, None, None]     # one bound per kernel, over its maps
    checks["firing_max_abs_dev"] = verify.firing_frequency(
        fired, draws, verify.firing_law(first_argument(xs)), slack)

    checks["loss_delta"] = verify.loss_decreases(losses[:wl.digest_steps],
                                                 wl.digest_steps // 3)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"ckpt-{name}-{os.getpid()}.ckpt")
    opt = state.optimizer.state()
    moments = {}
    if "m" in opt:
        moments = {"t": np.array([float(opt["t"])]),
                   **{f"m/{k}": v for k, v in opt["m"].items()},
                   **{f"v/{k}": v for k, v in opt["v"].items()}}
    descriptor = {"preset": wl.preset, "model": "nsm", "noise": "bernoulli",
                  "noise_param": "0.5", "site": wl.site, "seed": str(seed),
                  "iteration": str(state.iteration), "optimizer": wl.optimizer}
    try:
        t0 = time.perf_counter()
        checkpoint.save_checkpoint(path, net.params(), descriptor, moments)
        save_s = time.perf_counter() - t0
        size = os.path.getsize(path)
        # another seed, so only the restore can make the arrays match
        fresh = presets.build_network(presets.parse_preset(wl.preset), "nsm",
                                      NoiseModel.bernoulli(0.5), wl.site, True, seed + 1)
        t0 = time.perf_counter()
        desc, params, loaded_moments = checkpoint.load_checkpoint(path)
        checkpoint.restore_params(fresh, params)
        load_s = time.perf_counter() - t0
    finally:
        if os.path.exists(path):
            os.remove(path)
    if desc != descriptor:
        raise verify.CheckFailed(f"checkpoint descriptor changed: {desc} != {descriptor}")
    checks["checkpoint_arrays"] = (verify.bitwise_equal(net.params(), fresh.params())
                                   + verify.bitwise_equal(moments, loaded_moments))
    ckpt.update({"checkpoint.save_ms": 1e3 * save_s, "checkpoint.load_ms": 1e3 * load_s,
                 "checkpoint.bytes": size})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time import, build and init, then exit")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.setup_only:
        result = {"setup": set_up(args.workload, args.seed)[3]}
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
