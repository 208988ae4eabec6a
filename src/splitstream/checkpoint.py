"""Checkpoint serialization.

Layout (all integers little-endian):
    magic "TCKP" | version u8 | count u32 | records...
    record: name_len u16 | name utf-8 | tensor record
where the tensor record is wire's (rank u8 | dims u32 * rank | f32 row-major
data), written by wire.encode_tensor and read by wire.Reader.

Round-trips are bit-exact. parse_checkpoint raises only CheckpointError: for
a bad magic or version, truncation, a rank above 8 or more than 2**26
elements in a record, a name that is not UTF-8, a duplicate name, or bytes
after the last record.
"""

from __future__ import annotations

import struct
from typing import Mapping

import numpy as np

from .wire import Reader, encode_tensor

MAGIC = b"TCKP"
VERSION = 1
_HEAD = struct.Struct("<BI")
_NAME_LEN = struct.Struct("<H")


class CheckpointError(ValueError):
    pass


def dump_checkpoint(tensors: Mapping[str, np.ndarray]) -> bytes:
    out = [MAGIC, _HEAD.pack(VERSION, len(tensors))]
    for name, t in tensors.items():
        enc = name.encode("utf-8")
        out += [_NAME_LEN.pack(len(enc)), enc, encode_tensor(t)]
    return b"".join(out)


def parse_checkpoint(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    r = Reader(blob, CheckpointError, len(MAGIC))
    version, count = r.unpack(_HEAD, "checkpoint header")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = r.unpack(_NAME_LEN, "name length")
        try:
            name = str(r.take(nlen, "name"), "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"checkpoint name is not UTF-8: {e}") from None
        if name in out:
            raise CheckpointError(f"duplicate checkpoint name {name!r}")
        out[name] = r.tensor(name)
    r.done("checkpoint")
    return out


def save_checkpoint(path, tensors: Mapping[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(dump_checkpoint(tensors))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        return parse_checkpoint(f.read())
