"""Benchmark of NSM training and Monte Carlo evaluation, end to end and per layer.

    python3 bench/run.py --workload mlp-neuron --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own process (bench/worker.py), with the BLAS
thread count fixed at BLAS_THREADS. SETUP_SAMPLES - 1 further processes
only time set-up, and the set-up figures are medians over all of them.
The metric names and units come from BENCHMARK.json: --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones from a traced run. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Full results and traces are written under
.bench_out/. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mlp-neuron", "mlp-synapse", "cnn", "online")
BLAS_THREADS = 1
SETUP_SAMPLES = 5
DEADLINE_S = 175.0        # per workload


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; returns the JSON object on its last line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    try:
        done = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(lines[-1])


def median_setup(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict,
                 deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    samples = [child(common + ["--setup-only"], deadline)["setup"]
               for _ in range(SETUP_SAMPLES - 1)]
    result = child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    samples.append(result["setup"])
    setup = median_setup(samples)
    values = {**result["e2e"], "setup_s": setup["setup_s"]}
    if trace:
        values = {**result["per_layer"], **setup, **result["checkpoint"]}
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {missing}")
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"],
               "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                           for m in wanted}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump({**result, "setup_samples": samples, "summary": summary,
                   "blas_threads_set": BLAS_THREADS}, f, indent=1)
    print(f"machine {json.dumps(result['machine'])} blas_threads_set {BLAS_THREADS}")
    print(f"workload {name} seed {seed} loss_digest {result['loss_digest']} "
          f"train_steps {result['train_steps_timed']} eval_calls {result['eval_calls']}")
    print(f"checks {json.dumps(result['checks'])}")
    if trace:
        # against an untraced run's figures these give the tracing overhead
        print(f"traced_e2e {json.dumps(result['e2e'])}")
    print(json.dumps(summary))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package = os.path.join(ROOT, "src", "nsm")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no nsm package at {package}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # byte-compile once so no timed import pays for it
    compileall.compile_dir(package, quiet=1)
    ok = True
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            summary = run_workload(name, args.seed, args.seconds, args.trace, spec,
                                   time.monotonic() + DEADLINE_S)
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        if not summary["correct"]:
            print(f"error: {name} failed a correctness check (see above)", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
