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


class TestRegenNames:
    """regen.py rewrites only the cases it is given, and names any other case
    whose run no longer matches its files. Runs are stubbed: each copies its
    case's golden metrics, with a loss changed for the cases set to move, and
    returns its recorded digest, or another for a moved case."""

    @staticmethod
    def stub(monkeypatch, tmp_path, moving):
        from tests.golden import regen

        golden = tmp_path / "golden"
        golden.mkdir()
        for case in CASES:
            (golden / f"{case}.csv").write_bytes(open(golden_csv(case), "rb").read())
        (golden / "params.sha256").write_bytes(open(regen.DIGEST_FILE, "rb").read())
        recorded = read_digests()

        def run(case, out):
            os.makedirs(out)
            lines = open(golden_csv(case)).read().splitlines(keepends=True)
            if case in moving:
                header, first = lines[0].rstrip("\n").split(","), lines[1].rstrip("\n").split(",")
                loss = header.index("loss")
                first[loss] = repr(float(first[loss]) + 1.0)
                lines[1] = ",".join(first) + "\n"
            open(os.path.join(out, "metrics.csv"), "w").writelines(lines)
            return "0" * 64 if case in moving else recorded[case]

        monkeypatch.setattr(regen, "GOLDEN_DIR", str(golden))
        monkeypatch.setattr(regen, "DIGEST_FILE", str(golden / "params.sha256"))
        monkeypatch.setattr(regen, "run", run)
        monkeypatch.setattr(regen, "grads_digest", lambda out: recorded[
            f"{os.path.basename(out)}:grads"])
        return regen, golden

    def test_named_case_is_rewritten_alone(self, monkeypatch, tmp_path):
        regen, golden = self.stub(monkeypatch, tmp_path, {"cnn-nsm-adam"})
        before = {p.name: p.read_bytes() for p in golden.iterdir()}
        assert regen.main(["cnn-nsm-adam"]) == 0
        after = {p.name: p.read_bytes() for p in golden.iterdir()}
        assert {name for name in before if before[name] != after[name]} == {
            "cnn-nsm-adam.csv", "params.sha256"}
        digests = dict(line.split() for line in after["params.sha256"].decode().splitlines())
        assert digests == {**read_digests(), "cnn-nsm-adam": "0" * 64}
        assert list(digests) == list(read_digests())

    def test_other_moved_case_is_named_and_kept(self, monkeypatch, tmp_path, capsys):
        regen, golden = self.stub(monkeypatch, tmp_path, {"cnn-nsm-adam", "stnn-sgd"})
        assert regen.main(["cnn-nsm-adam"]) == 1
        assert "stnn-sgd" in capsys.readouterr().err
        assert (golden / "stnn-sgd.csv").read_bytes() == open(golden_csv("stnn-sgd"), "rb").read()
        digests = dict(line.split() for line in (golden / "params.sha256").read_text().splitlines())
        assert digests["stnn-sgd"] == read_digests()["stnn-sgd"]

    def test_unknown_case_is_refused_before_any_run(self, monkeypatch, tmp_path, capsys):
        regen, _ = self.stub(monkeypatch, tmp_path, set())
        monkeypatch.setattr(regen, "run", lambda case, out: pytest.fail("ran a case"))
        assert regen.main(["no-such-case"]) == 2
        assert "no-such-case" in capsys.readouterr().err
