"""Golden training runs: the behaviour contract for refactors.

Each case trains a small model through `nsm train` and is recorded as
`tests/golden/<case>.csv` (its metrics.csv) plus a SHA-256 digest of its
final parameters in `tests/golden/params.sha256`; a case run with
`--log-gradients` also records a digest of its grads.npz there, under
`<case>:grads`. `tests/test_golden.py`
reruns every case and requires the same metrics, ignoring the `seconds`
column, and the same digest; it never rewrites these files. Metrics round
the parameters away, so the digest is what catches a changed last bit.

Rewrite the files only when a change alters the random draws or the
arithmetic on purpose, and say why in CHANGES.md. Name the cases the change
is meant to move:

    PYTHONPATH=src python3 tests/golden/regen.py cnn-nsm-adam cnn-sigmoid-det-adam

Every case runs. Only the named ones are rewritten (all of them when none
is named); if any other case's metrics or digest differ from its recorded
files, the script names it and exits 1, leaving its files as they were.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(GOLDEN_DIR, "params.sha256")

_MLP = dict(preset="mlp-16-8-8-2", dataset="synthetic:xor-blobs", dim=16,
            train_size=96, test_size=32, epochs=2, batch_size=16,
            eval_every=1, mc_samples=2, init_batch=32, seed=3)

CASES = {
    "nsm-neuron-bernoulli-sgd": dict(_MLP, model="nsm", noise="bernoulli",
                                     noise_param=0.5, optimizer="sgd", lr=0.1),
    "nsm-neuron-gaussian-adam": dict(_MLP, model="nsm", noise="gaussian",
                                     noise_param=1.0, optimizer="adam", lr=0.01),
    "nsm-synapse-bernoulli-adam": dict(_MLP, model="nsm", site="synapse",
                                       noise="bernoulli", noise_param=0.5,
                                       optimizer="adam", lr=0.01),
    "nsm-synapse-gaussian-sgd": dict(_MLP, model="nsm", site="synapse",
                                     noise="gaussian", noise_param=0.5,
                                     optimizer="sgd", lr=0.1, head_bias="off"),
    "binary-erf-adam": dict(_MLP, model="binary-erf", optimizer="adam", lr=0.01),
    "binconcrete-sgd": dict(_MLP, model="binconcrete", optimizer="sgd", lr=0.1),
    "wnorm-binary-det-adam": dict(_MLP, model="wnorm-binary-det",
                                  optimizer="adam", lr=0.01),
    "stnn-sgd": dict(_MLP, model="stnn", optimizer="sgd", lr=0.1),
    "binary-det-sgd": dict(_MLP, model="binary-det", optimizer="sgd", lr=0.1),
    "noisy-rectifier-adam": dict(_MLP, model="noisy-rectifier",
                                 optimizer="adam", lr=0.01),
    "sigmoid-det-adam": dict(_MLP, model="sigmoid-det", optimizer="adam", lr=0.01),
    # NsmConv, MaxPool2, Flatten and NormalizedHead on 28x28 synthetic maps
    "cnn-nsm-adam": dict(preset="cnn-mnist", dataset="synthetic:xor-blobs",
                         dim=784, train_size=24, test_size=8, epochs=2,
                         batch_size=8, eval_every=1, mc_samples=2,
                         init_batch=16, seed=3, model="nsm", optimizer="adam",
                         lr=0.003),
    # every iteration's weight gradients, through the synapse-site chunked sum
    "nsm-synapse-gaussian-adam-grads": dict(_MLP, model="nsm", site="synapse",
                                            noise="gaussian", noise_param=1.0,
                                            optimizer="adam", lr=0.01,
                                            log_gradients=True),
    # SigmoidDetConv, the conventional conv counterpart, through the same stack
    "cnn-sigmoid-det-adam": dict(preset="cnn-mnist", dataset="synthetic:xor-blobs",
                                 dim=784, train_size=24, test_size=8, epochs=2,
                                 batch_size=8, eval_every=1, mc_samples=2,
                                 init_batch=16, seed=3, model="sigmoid-det",
                                 optimizer="adam", lr=0.003),
    # the DVS all-conv net on flat synthetic rows the network shapes to (6, 64, 64):
    # pad 1, 1x1 convs and GlobalAvgPool. Without data-dependent init, whose
    # standardized layers here drive the loss to the 1e-7 probability clamp
    "allcnn-nsm-adam": dict(preset="allcnn-dvs", dataset="synthetic:xor-blobs",
                            dim=24576, train_size=4, test_size=2, epochs=1,
                            batch_size=2, eval_every=1, mc_samples=1, init_batch=0,
                            seed=3, model="nsm", optimizer="adam", lr=0.003),
}

# resumed after its first epoch, this case must give the uninterrupted run
RESUME_CASE = "nsm-neuron-gaussian-adam"


def train_argv(case: str, out: str, **overrides) -> list[str]:
    argv = ["train", "--out", out]
    for key, value in {**CASES[case], **overrides}.items():
        flag = f"--{key.replace('_', '-')}"
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def array_digest(arrays) -> str:
    """SHA-256 over every array's name, shape and float64 bytes."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = arrays[name]
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def param_digest(checkpoint: str) -> str:
    from nsm.checkpoint import load_checkpoint

    return array_digest(load_checkpoint(checkpoint)[1])


def grads_digest(out: str) -> str:
    """Digest of the grads.npz a --log-gradients run wrote into out."""
    import numpy as np

    with np.load(os.path.join(out, "grads.npz")) as dump:
        return array_digest(dump)


def read_digests() -> dict[str, str]:
    with open(DIGEST_FILE) as f:
        return dict(line.split() for line in f if line.strip())


def run(case: str, out: str, **overrides) -> str:
    """Train one case into out; returns the digest of its final parameters."""
    from nsm.cli import main

    code = main(train_argv(case, out, **overrides))
    if code != 0:
        raise RuntimeError(f"golden case {case} exited {code}")
    return param_digest(os.path.join(out, "model.ckpt"))


def regenerate(names) -> list[str]:
    """Run every case, rewrite the files of the cases in names, and return
    the other cases whose metrics (ignoring seconds) or digests differ from
    their recorded files."""
    from nsm.analyze import metrics_equal_excluding_time

    digests, moved = read_digests() if os.path.exists(DIGEST_FILE) else {}, []
    keys = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out = os.path.join(tmp, case)
            got = {case: run(case, out)}
            if CASES[case].get("log_gradients"):
                got[f"{case}:grads"] = grads_digest(out)
            keys += got
            metrics = os.path.join(out, "metrics.csv")
            golden = os.path.join(GOLDEN_DIR, f"{case}.csv")
            same = os.path.exists(golden) and metrics_equal_excluding_time(golden, metrics)
            if case in names:
                if not same:   # an unchanged run keeps its file, recorded seconds and all
                    shutil.copyfile(metrics, golden)
                digests.update(got)
            elif not same or any(digests.get(key) != value for key, value in got.items()):
                moved.append(case)
    with open(DIGEST_FILE, "w") as f:
        f.writelines(f"{key} {digests[key]}\n" for key in keys if key in digests)
    return moved


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown golden case(s) {', '.join(unknown)}; cases: {', '.join(CASES)}",
              file=sys.stderr)
        return 2
    moved = regenerate(set(names))
    for case in moved:
        print(f"golden case {case} differs from its recorded files and was not rewritten",
              file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
