"""Binary checkpoint format.

Layout (all integers little-endian):

    8 bytes   magic b"NSMCKPT1"
    u32       format version (currently 1)
    u32       descriptor length, then that many bytes of UTF-8 key=value
              lines (preset, model, noise kind/param, site, seed, epoch,
              iteration, optimizer)
    u32       parameter count, then per parameter:
                  u32 name length, name bytes,
                  u32 ndim, u64 per dim,
                  float64 payload (C order)
    u32       optimizer-moment count, entries in the same encoding
    u32       zlib.crc32 of everything from the magic through the last
              moment payload

Saving writes a temporary file in the target's directory, fsyncs it and
renames it over the target. Loading verifies magic, version, and CRC
(distinct error types), then writes parameters in place into an existing
network whose shapes must match.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointCorruptError, CheckpointError, CheckpointVersionError

MAGIC = b"NSMCKPT1"
VERSION = 1


def _pack_array(name: str, arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype=np.float64)
    out = [struct.pack("<I", len(name.encode()))]
    out.append(name.encode())
    out.append(struct.pack("<I", data.ndim))
    out.append(struct.pack(f"<{data.ndim}Q", *data.shape) if data.ndim else b"")
    out.append(data.tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("checkpoint truncated")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self):
        name = self.take(self.u32()).decode()
        ndim = self.u32()
        shape = struct.unpack(f"<{ndim}Q", self.take(8 * ndim)) if ndim else ()
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(self.take(8 * count), dtype="<f8").reshape(shape)
        return name, data.astype(np.float64)


def save_checkpoint(path: str, params: dict[str, np.ndarray],
                    descriptor: dict[str, str],
                    moments: dict[str, np.ndarray] | None = None):
    desc = "".join(f"{k}={v}\n" for k, v in descriptor.items()).encode()
    body = [MAGIC, struct.pack("<I", VERSION),
            struct.pack("<I", len(desc)), desc,
            struct.pack("<I", len(params))]
    for name, arr in params.items():
        body.append(_pack_array(name, arr))
    moments = moments or {}
    body.append(struct.pack("<I", len(moments)))
    for name, arr in moments.items():
        body.append(_pack_array(name, arr))
    blob = b"".join(body)
    # write beside the target and rename over it, so a failed or killed
    # write leaves the previous checkpoint whole
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.write(struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str):
    """Returns (descriptor dict, params dict, moments dict)."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointError(f"{path}: too short to be a checkpoint")
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointCorruptError(f"{path}: CRC mismatch")
    r = _Reader(blob[:-4])
    r.take(len(MAGIC))
    version = r.u32()
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, expected {VERSION}")
    desc_raw = r.take(r.u32()).decode()
    descriptor = {}
    for line in desc_raw.splitlines():
        if line:
            key, _, value = line.partition("=")
            descriptor[key] = value
    params = dict(r.array() for _ in range(r.u32()))
    moments = dict(r.array() for _ in range(r.u32()))
    return descriptor, params, moments


def restore_params(network, params: dict[str, np.ndarray]):
    """Write saved parameters into the live arrays; shapes must match."""
    live = network.params()
    if set(live) != set(params):
        missing = set(live) ^ set(params)
        raise CheckpointError(f"parameter name mismatch: {sorted(missing)}")
    for name, arr in params.items():
        if live[name].shape != arr.shape:
            raise CheckpointError(
                f"{name}: checkpoint shape {arr.shape} != model shape {live[name].shape}")
        live[name][...] = arr
