"""Versioned flat binary container for network weights and feature grids.

Layout (all integers little-endian):

    magic   4 bytes  b"TSCW"
    version u32      currently 1
    seed    u64      generator seed associated with the payload
    tag     u16 length + that many UTF-8 bytes (``key=value`` fields joined
            by ``;``, see :func:`encode_tag`)
    count   u32      number of arrays
    per array: ndim u32, then ndim u32 dims, then row-major float32 data

Arrays load back as 64-bit for compute; storage is 32-bit by design, so a
save/load round trip quantizes to float32 precision.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .neural import Mlp

MAGIC = b"TSCW"
VERSION = 1


def save_arrays(path: str | Path, arrays: Sequence[np.ndarray],
                tag: str = "", seed: int = 0) -> None:
    tag_bytes = tag.encode("utf-8")
    if len(tag_bytes) > 0xFFFF:
        raise ValueError("tag too long")
    chunks = [MAGIC,
              struct.pack("<I", VERSION),
              struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF),
              struct.pack("<H", len(tag_bytes)), tag_bytes,
              struct.pack("<I", len(arrays))]
    for arr in arrays:
        data = np.ascontiguousarray(arr, dtype="<f4")
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def encode_tag(**fields) -> str:
    """Header tag ``k1=v1;k2=v2;...`` of the given fields, in order."""
    return ";".join(f"{key}={value}" for key, value in fields.items())


def parse_tag(tag: str) -> dict:
    """Fields of a header tag as strings; items without ``=`` are ignored."""
    return dict(item.split("=", 1) for item in tag.split(";") if "=" in item)


@dataclass
class WeightFile:
    version: int
    seed: int
    tag: str
    arrays: list


def load_arrays(path: str | Path) -> WeightFile:
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    if len(view) < 4 or bytes(view[:4]) != MAGIC:
        raise ValueError(f"{path}: not a weight file (bad magic)")
    offset = 4

    def take(fmt: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(view):
            raise ValueError(f"{path}: truncated weight file")
        values = struct.unpack_from(fmt, view, offset)
        offset += size
        return values

    (version,) = take("<I")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported weight file version {version}")
    (seed,) = take("<Q")
    (tag_len,) = take("<H")
    if offset + tag_len > len(view):
        raise ValueError(f"{path}: truncated weight file")
    tag = bytes(view[offset:offset + tag_len]).decode("utf-8")
    offset += tag_len
    (count,) = take("<I")
    arrays = []
    for _ in range(count):
        (ndim,) = take("<I")
        dims = take(f"<{ndim}I") if ndim else ()
        n = int(np.prod(dims, dtype=np.int64)) if dims else 1
        size = 4 * n
        if offset + size > len(view):
            raise ValueError(f"{path}: truncated weight file")
        flat = np.frombuffer(view, dtype="<f4", count=n, offset=offset)
        offset += size
        arrays.append(flat.reshape(dims).astype(np.float64))
    return WeightFile(version=version, seed=seed, tag=tag, arrays=arrays)


def mlp_from_arrays(arrays: Sequence[np.ndarray], hidden_activation: str) -> Mlp:
    """Rebuild a network from interleaved weight/bias arrays."""
    if not arrays or len(arrays) % 2 != 0:
        raise ValueError("expected an even number of arrays (weight/bias pairs)")
    weights = arrays[0::2]
    sizes = [weights[0].shape[1]] + [w.shape[0] for w in weights]
    net = Mlp(sizes, hidden_activation=hidden_activation, seed=0)
    for dst, src in zip(net.parameters(), arrays):
        if dst.shape != src.shape:
            raise ValueError("array shapes do not chain into a valid network")
        dst[...] = src
    return net
