"""Flat binary checkpoint for a ParamSet.

Layout (little-endian throughout):

    8 bytes   magic ``MOBCKPT1``
    4 bytes   uint32 tensor count
    per tensor:
        2 bytes          uint16 name length in bytes
        name bytes       UTF-8
        1 byte           uint8 ndim
        ndim * 8 bytes   uint64 dims
        prod(dims) * 8   float64 values, row-major

Round-trips bit-exactly at double precision.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .core import ParamSet

MAGIC = b"MOBCKPT1"


def save_checkpoint(path, params: ParamSet):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
            fh.write(np.ascontiguousarray(tensor.values, dtype="<f8").tobytes())


def _read(fh, size: int) -> bytes:
    # Checked before reading, so a corrupted size field allocates nothing.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ValueError(f"truncated: wanted {size} more bytes, got {left}")
    return fh.read(size)


def load_checkpoint(path) -> ParamSet:
    """Read a checkpoint; a wrong magic, a short read or bytes after the last
    tensor raise ValueError."""
    params = ParamSet()
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError("not a checkpoint file")
        (count,) = struct.unpack("<I", _read(fh, 4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read(fh, 2))
            name = _read(fh, name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", _read(fh, 1))
            shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim))
            data = np.frombuffer(_read(fh, 8 * math.prod(shape)), dtype="<f8").reshape(shape)
            params.register(name, data.astype(np.float64))
        if fh.read(1):
            raise ValueError("trailing bytes after the last tensor")
    return params
