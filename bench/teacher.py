"""Seeded benchmark inputs: random +-1 vectors or images with teacher labels.

A random linear 10-class teacher labels each input by the argmax of its ten
scores, so there is something to learn. The generator draws the teacher
first and then the inputs row by row, so the first rows are the same
whatever the total count: a set-up process that needs only the init batch
sees exactly the examples the full run trains on.
"""

from __future__ import annotations

import numpy as np

CLASSES = 10
# keeps the benchmark's draws apart from any stream the package derives
# from the same seed
_SALT = 0x6E736D62


def make_inputs(seed: int, input_shape: tuple[int, ...], n_train: int, n_test: int):
    """(x_train, y_train, x_test, y_test) for one workload seed."""
    gen = np.random.default_rng([_SALT, seed])
    dim = int(np.prod(input_shape))
    teacher = gen.standard_normal((CLASSES, dim))
    x = np.where(gen.random((n_train + n_test, dim)) < 0.5, -1.0, 1.0)
    y = np.argmax(x @ teacher.T, axis=1)
    x = x.reshape((n_train + n_test,) + tuple(input_shape))
    return x[:n_train], y[:n_train], x[n_train:], y[n_train:]
