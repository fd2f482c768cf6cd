"""Dataset plumbing: IDX parsing, binarization, synthetic generators, the
digit sets and their split, checkpoints, and metrics CSV.
"""

import gzip
import os
import struct

import numpy as np
import pytest

from nsm.analyze import (METRICS_HEADER, metrics_equal_excluding_time,
                         read_metrics_csv, write_metrics_csv)
from nsm.checkpoint import (load_checkpoint, restore_params, save_checkpoint)
from nsm.data import (GLYPH_SAMPLES, LabeledDataset, binarize_sign,
                      binarize_unit, digit_glyphs_dataset, load_digits_dataset,
                      load_idx, load_mnist_dir, synthetic_dataset)
from nsm.errors import (CheckpointCorruptError, CheckpointError,
                        CheckpointVersionError, DataError)
from nsm.training import MetricsRecord
from tests.conftest import build_small_net


def idx_images_bytes(arr: np.ndarray) -> bytes:
    n, h, w = arr.shape
    return struct.pack(">llll", 0x803, n, h, w) + arr.astype(np.uint8).tobytes()


def idx_labels_bytes(arr: np.ndarray) -> bytes:
    return struct.pack(">ll", 0x801, arr.shape[0]) + arr.astype(np.uint8).tobytes()


class TestIdx:

    def test_images_roundtrip(self, tmp_path):
        arr = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        p = tmp_path / "imgs"
        p.write_bytes(idx_images_bytes(arr))
        np.testing.assert_array_equal(load_idx(str(p)), arr)

    def test_labels_roundtrip(self, tmp_path):
        arr = np.array([0, 9, 3, 7], dtype=np.uint8)
        p = tmp_path / "labels"
        p.write_bytes(idx_labels_bytes(arr))
        np.testing.assert_array_equal(load_idx(str(p)), arr)

    def test_gzip_detected_by_magic(self, tmp_path):
        arr = np.full((2, 2, 2), 200, dtype=np.uint8)
        p = tmp_path / "imgs.gz"
        p.write_bytes(gzip.compress(idx_images_bytes(arr)))
        np.testing.assert_array_equal(load_idx(str(p)), arr)

    def test_truncated_payload_raises(self, tmp_path):
        arr = np.zeros((2, 3, 4), dtype=np.uint8)
        p = tmp_path / "short"
        p.write_bytes(idx_images_bytes(arr)[:-5])
        with pytest.raises(DataError):
            load_idx(str(p))

    def test_trailing_garbage_raises(self, tmp_path):
        arr = np.zeros((2, 2, 2), dtype=np.uint8)
        p = tmp_path / "long"
        p.write_bytes(idx_images_bytes(arr) + b"x")
        with pytest.raises(DataError):
            load_idx(str(p))

    def test_bad_magic_raises(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">llll", 0x999, 1, 1, 1))
        with pytest.raises(DataError):
            load_idx(str(p))

    def test_truncated_header_raises(self, tmp_path):
        p = tmp_path / "tiny"
        p.write_bytes(b"\x00\x00")
        with pytest.raises(DataError):
            load_idx(str(p))


class TestBinarize:

    def test_sign_threshold_at_half_gray(self):
        # 128/255 > 0.5 -> +1; 127/255 -> -1
        img = np.array([[0, 127, 128, 255]], dtype=np.uint8)
        np.testing.assert_array_equal(binarize_sign(img),
                                      [[-1.0, -1.0, 1.0, 1.0]])

    def test_unit_threshold(self):
        np.testing.assert_array_equal(binarize_unit(np.array([0.0, 0.5, 0.51])),
                                      [-1.0, -1.0, 1.0])


class TestMnistDir:

    def write_dir(self, root, n_train=6, n_test=4):
        rng = np.random.default_rng(0)
        for kind, n in (("train", n_train), ("t10k", n_test)):
            imgs = rng.integers(0, 256, size=(n, 28, 28)).astype(np.uint8)
            labels = rng.integers(0, 10, size=n).astype(np.uint8)
            with open(os.path.join(root, f"{kind}-images-idx3-ubyte"), "wb") as f:
                f.write(idx_images_bytes(imgs))
            with open(os.path.join(root, f"{kind}-labels-idx1-ubyte.gz"), "wb") as f:
                f.write(gzip.compress(idx_labels_bytes(labels)))

    def test_loads_flat(self, tmp_path):
        self.write_dir(str(tmp_path))
        train = load_mnist_dir(str(tmp_path), "train")
        assert train.inputs.shape == (6, 784)
        assert set(np.unique(train.inputs)) <= {-1.0, 1.0}
        test = load_mnist_dir(str(tmp_path), "t10k")
        assert test.inputs.shape == (4, 784)
        assert test.num_classes == 10

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            load_mnist_dir(str(tmp_path), "train")


class TestSyntheticData:

    def test_two_gaussians_shape_and_determinism(self):
        a = synthetic_dataset("two-gaussians", 200, seed=3, dim=8)
        b = synthetic_dataset("two-gaussians", 200, seed=3, dim=8)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.inputs.shape == (200, 8)
        assert set(np.unique(a.inputs)) <= {-1.0, 1.0}
        assert a.num_classes == 2

    def test_two_gaussians_linearly_separable_in_the_mean(self):
        ds = synthetic_dataset("two-gaussians", 2000, seed=4, dim=8)
        mu1 = ds.inputs[ds.labels == 1].mean(axis=0)
        mu0 = ds.inputs[ds.labels == 0].mean(axis=0)
        assert np.all(mu1 > 0.8) and np.all(mu0 < -0.8)

    def test_xor_blobs_parity_is_exact(self):
        ds = synthetic_dataset("xor-blobs", 500, seed=5, dim=6)
        a = ds.inputs[:, 0] > 0
        b = ds.inputs[:, 1] > 0
        np.testing.assert_array_equal((a ^ b).astype(np.int64), ds.labels)

    def test_xor_blobs_not_linearly_separable(self):
        # the best single-feature threshold stays near chance
        ds = synthetic_dataset("xor-blobs", 4000, seed=6, dim=6)
        for j in range(6):
            acc = max(((ds.inputs[:, j] > 0) == (ds.labels == 1)).mean(),
                      ((ds.inputs[:, j] < 0) == (ds.labels == 1)).mean())
            assert acc < 0.55

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            synthetic_dataset("spirals", 10, seed=0)


class TestLabeledDataset:

    def test_validation(self):
        with pytest.raises(DataError):
            LabeledDataset(np.ones((3, 2)), np.zeros(2, dtype=np.int64), 2)
        with pytest.raises(DataError):
            LabeledDataset(np.full((2, 2), 0.5), np.zeros(2, dtype=np.int64), 2)
        with pytest.raises(DataError):
            LabeledDataset(np.ones((2, 2)), np.array([0, 5]), 2)

    def test_len(self):
        ds = LabeledDataset(np.ones((4, 2)), np.zeros(4, dtype=np.int64), 2)
        assert len(ds) == 4


class TestDigitsDataset:

    def test_split_and_format(self, digits):
        train, test = digits
        assert train.inputs.shape[1] == 64
        assert set(np.unique(train.inputs)) <= {-1.0, 1.0}
        assert train.num_classes == 10
        n = len(train) + len(test)
        assert len(test) == int(round(n * 0.25))

    def test_split_is_seeded(self):
        pytest.importorskip("sklearn")
        a_train, _ = load_digits_dataset(seed=1)
        b_train, _ = load_digits_dataset(seed=1)
        c_train, _ = load_digits_dataset(seed=2)
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        assert not np.array_equal(a_train.inputs, c_train.inputs)


class TestDigitGlyphsDataset:

    def test_seed_replays_and_varies(self):
        a_train, a_test = digit_glyphs_dataset(seed=1)
        b_train, b_test = digit_glyphs_dataset(seed=1)
        c_train, _ = digit_glyphs_dataset(seed=2)
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)
        np.testing.assert_array_equal(a_test.inputs, b_test.inputs)
        assert not np.array_equal(a_train.inputs, c_train.inputs)

    def test_sign_inputs_and_shapes(self):
        train, test = digit_glyphs_dataset(seed=0)
        assert train.inputs.shape == (len(train), 64)
        assert test.inputs.shape == (len(test), 64)
        assert set(np.unique(train.inputs)) == {-1.0, 1.0}

    def test_balanced_ten_classes_and_split(self):
        train, test = digit_glyphs_dataset(seed=0)
        n = len(train) + len(test)
        assert n == GLYPH_SAMPLES
        assert train.num_classes == test.num_classes == 10
        counts = np.bincount(np.concatenate([train.labels, test.labels]),
                             minlength=10)
        assert counts.size == 10 and counts.max() - counts.min() <= 1
        assert len(test) == int(round(n * 0.25))


class TestCheckpoint:

    def roundtrip(self, tmp_path, **kw):
        net = build_small_net(seed=20)
        params = net.params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params,
                        {"epoch": 3, "preset": "mlp-16-8-2"}, **kw)
        return net, params, path

    def test_params_descriptor_moments_roundtrip(self, tmp_path):
        moments = {"m/dense0.w": np.full((8, 16), 0.25),
                   "v/dense0.w": np.full((8, 16), 0.5)}
        net, params, path = self.roundtrip(tmp_path, moments=moments)
        desc, loaded, extras = load_checkpoint(path)
        assert desc == {"epoch": "3", "preset": "mlp-16-8-2"}
        assert sorted(loaded) == sorted(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])
        np.testing.assert_array_equal(extras["m/dense0.w"],
                                      moments["m/dense0.w"])

    def test_restore_into_network(self, tmp_path):
        net, params, path = self.roundtrip(tmp_path)
        other = build_small_net(seed=21)
        _, loaded, _ = load_checkpoint(path)
        restore_params(other, loaded)
        for k, v in net.params().items():
            np.testing.assert_array_equal(other.params()[k], v)

    def test_flipped_byte_is_detected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import nsm.checkpoint

        net, params, path = self.roundtrip(tmp_path)

        class HalfWritten:
            """A file whose first write stops half-way with a full disk."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(nsm.checkpoint, "open",
                            lambda p, mode: HalfWritten(open(p, mode)), raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, {k: v + 1.0 for k, v in params.items()}, {"epoch": 4})
        monkeypatch.undo()
        desc, loaded, _ = load_checkpoint(path)
        assert desc["epoch"] == "3"
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_future_version_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = bytearray(open(path, "rb").read())
        # bump the little-endian u32 version right after the 8-byte magic,
        # then refresh the CRC tail so only the version check can fail
        import zlib
        blob[8:12] = struct.pack("<I", 99)
        body = bytes(blob[:-4])
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_restore_rejects_name_and_shape_mismatch(self, tmp_path):
        net, params, path = self.roundtrip(tmp_path)
        _, loaded, _ = load_checkpoint(path)
        wrong_names = build_small_net(seed=22, preset="mlp-16-8-8-2")
        with pytest.raises(CheckpointError):
            restore_params(wrong_names, loaded)
        wrong_shape = build_small_net(seed=23, preset="mlp-8-4-2")
        with pytest.raises(CheckpointError):
            restore_params(wrong_shape, loaded)


class TestMetricsCsv:

    def records(self):
        return [
            MetricsRecord(iteration=1, epoch=0, loss=0.6931471805599453,
                          p15=-1.1, p50=0.05, p85=1.2, seconds=0.5),
            MetricsRecord(iteration=2, epoch=0, loss=0.6, test_error=0.125,
                          seconds=1.0),
        ]

    def test_roundtrip_preserves_full_precision(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(path, self.records())
        cols = read_metrics_csv(path)
        assert cols["loss"][0] == 0.6931471805599453
        assert cols["test_error"][1] == 0.125
        assert np.isnan(cols["p50"][1]) and cols["p50"][0] == 0.05
        assert cols["iteration"][0] == 1

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(path, self.records())
        with open(path) as f:
            assert f.readline().strip() == ",".join(METRICS_HEADER)
        assert METRICS_HEADER == ["iteration", "epoch", "loss", "test_error",
                                  "p15", "p50", "p85", "seconds"]

    def test_equality_ignores_timing_column(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        recs = self.records()
        write_metrics_csv(p1, recs)
        for r in recs:
            r.seconds += 123.0
        write_metrics_csv(p2, recs)
        assert metrics_equal_excluding_time(p1, p2)
        recs[0].loss += 1e-12
        write_metrics_csv(p2, recs)
        assert not metrics_equal_excluding_time(p1, p2)
