"""The golden runs of tests/golden: every case reruns through `nsm train` and
must give the recorded metrics.csv (ignoring seconds) and final parameters.
"""

import os

import pytest

from nsm.analyze import metrics_equal_excluding_time
from tests.golden.regen import (CASES, GOLDEN_DIR, RESUME_CASE, grads_digest,
                                read_digests, run)


def golden_csv(case):
    return os.path.join(GOLDEN_DIR, f"{case}.csv")


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_reproduces_golden(case, tmp_path, capsys):
    digest = run(case, str(tmp_path))
    assert metrics_equal_excluding_time(golden_csv(case), str(tmp_path / "metrics.csv"))
    assert digest == read_digests()[case]
    if CASES[case].get("log_gradients"):
        assert grads_digest(str(tmp_path)) == read_digests()[f"{case}:grads"]


def resume_matches_golden(tmp_path, **cut):
    half, resumed = tmp_path / "half", tmp_path / "resumed"
    run(RESUME_CASE, str(half), **cut)
    digest = run(RESUME_CASE, str(resumed), resume=str(half / "model.ckpt"))
    assert digest == read_digests()[RESUME_CASE]
    # the resumed run records only its own iterations: the golden's tail
    got = (resumed / "metrics.csv").read_text().splitlines(keepends=True)
    want = open(golden_csv(RESUME_CASE)).read().splitlines(keepends=True)
    tail = tmp_path / "tail.csv"
    tail.write_text(want[0] + "".join(want[len(want) - len(got) + 1:]))
    assert len(got) < len(want)
    assert metrics_equal_excluding_time(str(tail), str(resumed / "metrics.csv"))


def test_resumed_half_way_equals_golden(tmp_path, capsys):
    resume_matches_golden(tmp_path, epochs=1)


@pytest.mark.parametrize("cut", [3, 9])
def test_resumed_mid_epoch_equals_golden(cut, tmp_path, capsys):
    # six batches per epoch: iteration 3 is inside the first epoch, 9 inside the second
    resume_matches_golden(tmp_path, max_iterations=cut)
