"""Versioned flat binary container for network weights and feature grids.

Layout (all integers little-endian):

    magic   4 bytes  b"TSCW"
    version u32      currently 1
    seed    u64      generator seed associated with the payload
    tag     u16 length + that many UTF-8 bytes (``key=value`` fields joined
            by ``;``, see :func:`encode_tag` and :func:`read_fields`)
    count   u32      number of arrays
    per array: ndim u32, then ndim u32 dims, then row-major float32 data

Arrays load back as 64-bit for compute; storage is 32-bit by design, so a
save/load round trip quantizes to float32 precision.  A file that does not
parse (bad magic, unknown version, truncation, bytes after the last array,
a tag that is not UTF-8, a NaN or infinite value, arrays that do not chain
into a network) or cannot be read at all raises :class:`ConfigurationError`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .neural import Mlp

MAGIC = b"TSCW"
VERSION = 1


def save_arrays(path: str | Path, arrays: Sequence[np.ndarray],
                tag: str = "", seed: int = 0) -> None:
    tag_bytes = tag.encode("utf-8")
    if len(tag_bytes) > 0xFFFF:
        raise ValueError("tag too long")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} does not fit the header's u64")
    chunks = [MAGIC,
              struct.pack("<I", VERSION),
              struct.pack("<Q", seed),
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


def read_fields(path, tag: str, **types) -> dict:
    """The fields of the header tag of file ``path`` that ``types`` names,
    each converted by its type; a missing field, or one its type rejects,
    raises :class:`ConfigurationError`.  A loader checks the rest of the tag
    by rebuilding it from what it loaded."""
    fields = dict(item.split("=", 1) for item in tag.split(";") if "=" in item)
    try:
        return {key: kind(fields[key]) for key, kind in types.items()}
    except KeyError as missing:
        raise ConfigurationError(f"{path}: header has no {missing.args[0]}= field") from None
    except ValueError as exc:
        raise ConfigurationError(f"{path}: bad header field ({exc})") from None


@dataclass
class WeightFile:
    seed: int
    tag: str
    arrays: list


def load_arrays(path: str | Path) -> WeightFile:
    try:
        view = memoryview(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read weight file ({exc.strerror or exc})") from exc
    if bytes(view[:4]) != MAGIC:
        raise ConfigurationError(f"{path}: not a weight file (bad magic)")
    offset = 4

    def take(size: int) -> memoryview:
        nonlocal offset
        if offset + size > len(view):
            raise ConfigurationError(f"{path}: truncated weight file")
        offset += size
        return view[offset - size:offset]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (version,) = unpack("<I")
    if version != VERSION:
        raise ConfigurationError(f"{path}: unsupported weight file version {version}")
    (seed,) = unpack("<Q")
    (tag_len,) = unpack("<H")
    try:
        tag = bytes(take(tag_len)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: weight file tag is not UTF-8") from exc
    (count,) = unpack("<I")
    arrays = []
    for _ in range(count):
        (ndim,) = unpack("<I")
        dims = unpack(f"<{ndim}I")
        data = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4")
        if not np.isfinite(data).all():
            raise ConfigurationError(f"{path}: array {len(arrays)} holds a non-finite value")
        arrays.append(data.reshape(dims).astype(np.float64))
    if offset != len(view):
        raise ConfigurationError(f"{path}: {len(view) - offset} bytes after the last array")
    return WeightFile(seed=seed, tag=tag, arrays=arrays)


def mlp_from_arrays(arrays: Sequence[np.ndarray], hidden_activation: str) -> Mlp:
    """Rebuild a network from interleaved weight/bias arrays."""
    if not arrays or len(arrays) % 2 != 0:
        raise ConfigurationError("expected an even number of arrays (weight/bias pairs)")
    weights = arrays[0::2]
    try:
        sizes = [weights[0].shape[1]] + [w.shape[0] for w in weights]
        net = Mlp(sizes, hidden_activation=hidden_activation, seed=0)
    except (IndexError, ValueError) as exc:
        raise ConfigurationError(f"arrays do not form a network ({exc})") from exc
    for dst, src in zip(net.parameters(), arrays):
        if dst.shape != src.shape:
            raise ConfigurationError("array shapes do not chain into a valid network")
        dst[...] = src
    return net
