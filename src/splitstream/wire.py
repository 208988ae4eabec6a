"""Framed binary messages exchanged between clients and the server.

Frame layout (integers little-endian):
    magic "SPLT" | version u8 | msg-type u8 | payload length u64 | payload
so a frame is exactly 14 bytes + payload. Msg types: 0 = FeaturePacket,
1 = GradientPacket, 2 = Control. A payload is the message's leading integer
fields, then its tensors, each one tensor record
    rank u8 | dims u32 * rank | f32 row-major data
and optional tensors carry a u8 presence flag. TCKP checkpoints store their
tensors with the same record, written by encode_tensor and read by Reader.
Parsing never throws anything but WireError: bad magic, version or type
mismatch, truncation, and implausible tensor headers are all reported
structurally.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

MAGIC = b"SPLT"
VERSION = 1
HEADER_LEN = 14

MSG_FEATURE = 0
MSG_GRADIENT = 1
MSG_CONTROL = 2

CTRL_HELLO = 0
CTRL_DONE = 1

_MAX_RANK = 8
_MAX_ELEMENTS = 1 << 26  # refuse absurd allocations from corrupt frames


class WireError(ValueError):
    """Structured frame/parse failure."""


def encode_tensor(arr) -> bytes:
    """One tensor record: rank, dims, then the f32 data in row-major order."""
    arr = np.asarray(arr, dtype="<f4", order="C")
    return struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape) + arr.tobytes()


class Reader:
    """Bounded reader over a byte buffer; every failure raises `error`."""

    def __init__(self, data, error: type[Exception], pos: int = 0):
        self.data = memoryview(data)
        self.error = error
        self.pos = pos

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.data):
            raise self.error(f"truncated payload while reading {what}")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def unpack(self, fmt: struct.Struct, what: str) -> tuple:
        return fmt.unpack(self.take(fmt.size, what))

    def tensor(self, what: str) -> np.ndarray:
        rank = self.take(1, f"{what} rank")[0]
        if rank > _MAX_RANK:
            raise self.error(f"{what}: implausible tensor rank {rank}")
        dims = struct.unpack(f"<{rank}I", self.take(4 * rank, f"{what} dims"))
        # exact integers: a fixed-width product can wrap to a small count, and
        # a zero dim must not hide dims numpy cannot shape
        if math.prod(max(d, 1) for d in dims) > _MAX_ELEMENTS:
            raise self.error(f"{what}: implausible tensor dims {dims}")
        raw = self.take(4 * math.prod(dims), f"{what} data")
        return np.frombuffer(raw, dtype="<f4").reshape(dims).copy()

    def done(self, what: str) -> None:
        if self.pos != len(self.data):
            raise self.error(f"{what}: {len(self.data) - self.pos} trailing payload bytes")


class _Message:
    """Equality for the message dataclasses: tensors compare by shape and bytes."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        layout = _LAYOUTS[type(self)]
        return (all(getattr(self, n) == getattr(other, n) for n in layout.ints)
                and all(_same_tensor(getattr(self, n), getattr(other, n)) for n, _ in layout.tensors))


def _same_tensor(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass(eq=False)
class FeaturePacket(_Message):
    """One client -> server transmission unit."""

    client_id: int
    iteration: int
    timestep: int
    feat_unet: np.ndarray
    feat_control: np.ndarray
    label_noise: np.ndarray
    prompt_feat: np.ndarray | None = None


@dataclass(eq=False)
class GradientPacket(_Message):
    """Server -> client response; classic mode only. The server sends
    `grad_control` alone: `n_pred` is never set, and stays an optional field
    only because readers of the layout name it."""

    iteration: int
    grad_control: np.ndarray
    n_pred: np.ndarray | None = None


@dataclass(eq=False, frozen=True)
class ControlMessage(_Message):
    """Session control (hello/done)."""

    code: int
    client_id: int


@dataclass(frozen=True)
class _Layout:
    mtype: int
    head: struct.Struct  # the leading integer fields
    ints: tuple[str, ...]
    tensors: tuple[tuple[str, bool], ...]  # (name, optional) for every later field


def _layout(cls, mtype: int, head: str) -> _Layout:
    """Split cls's fields: one struct letter per leading integer, then tensors,
    optional (behind a u8 presence flag) where the default is None."""
    fs = fields(cls)
    n = len(head) - 1
    return _Layout(mtype, struct.Struct(head), tuple(f.name for f in fs[:n]),
                   tuple((f.name, f.default is None) for f in fs[n:]))


# each message's layout, declared once
_LAYOUTS = {
    FeaturePacket: _layout(FeaturePacket, MSG_FEATURE, "<IQI"),
    GradientPacket: _layout(GradientPacket, MSG_GRADIENT, "<Q"),
    ControlMessage: _layout(ControlMessage, MSG_CONTROL, "<BI"),
}
_BY_TYPE = {layout.mtype: cls for cls, layout in _LAYOUTS.items()}
# the largest legal payload: the largest message with every tensor at the
# largest legal record and every presence flag
_MAX_PAYLOAD = max(
    l.head.size + sum(1 + 4 * _MAX_RANK + 4 * _MAX_ELEMENTS + opt for _, opt in l.tensors)
    for l in _LAYOUTS.values()
)


def frame_message(msg) -> bytes:
    """Serialize a message into one wire frame."""
    layout = _LAYOUTS.get(type(msg))
    if layout is None:
        raise TypeError(f"cannot frame {type(msg).__name__}")
    parts = [layout.head.pack(*(getattr(msg, n) for n in layout.ints))]
    for name, optional in layout.tensors:
        arr = getattr(msg, name)
        if not optional:
            parts.append(encode_tensor(arr))
        elif arr is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + encode_tensor(arr))
    payload = b"".join(parts)
    return MAGIC + struct.pack("<BBQ", VERSION, layout.mtype, len(payload)) + payload


def parse_message(frame: bytes):
    """Inverse of frame_message; expects exactly one whole frame."""
    if len(frame) < HEADER_LEN:
        raise WireError("truncated frame header")
    if frame[:4] != MAGIC:
        raise WireError(f"bad magic {frame[:4]!r}")
    version, mtype, plen = struct.unpack("<BBQ", frame[4:HEADER_LEN])
    if version != VERSION:
        raise WireError(f"version mismatch: got {version}, expected {VERSION}")
    if len(frame) - HEADER_LEN < plen:
        raise WireError("truncated frame payload")
    if len(frame) - HEADER_LEN > plen:
        raise WireError("trailing bytes after frame payload")
    cls = _BY_TYPE.get(mtype)
    if cls is None:
        raise WireError(f"unknown message type {mtype}")
    layout = _LAYOUTS[cls]
    r = Reader(frame, WireError, HEADER_LEN)
    values = list(r.unpack(layout.head, f"{cls.__name__} integer fields"))
    for name, optional in layout.tensors:
        values.append(r.tensor(name) if not optional or r.take(1, f"{name} flag")[0] else None)
    r.done(cls.__name__)
    return cls(*values)


def tensor_payload_bytes(msg) -> int:
    """Bytes of raw f32 tensor data inside a message (headers excluded)."""
    arrs = (getattr(msg, n) for n, _ in _LAYOUTS[type(msg)].tensors)
    return sum(4 * a.size for a in arrs if a is not None)


def read_frame(stream) -> bytes | None:
    """Read one whole frame from a byte stream; None at clean EOF."""
    header = _read_exact(stream, HEADER_LEN)
    if header is None:
        return None
    if header[:4] != MAGIC:
        raise WireError(f"bad magic {header[:4]!r}")
    (plen,) = struct.unpack("<Q", header[6:14])
    if plen > _MAX_PAYLOAD:
        raise WireError(f"implausible payload length {plen}")
    payload = _read_exact(stream, plen) if plen else b""
    if plen and payload is None:
        raise WireError("truncated frame payload")
    return header + (payload or b"")


def _read_exact(stream, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf)) if hasattr(stream, "read") else stream.recv(n - len(buf))
        if not chunk:
            if buf:
                raise WireError("stream ended mid-frame")
            return None
        buf += chunk
    return buf


def iter_frames(stream):
    """Yield parsed messages from a stream of concatenated frames."""
    while True:
        frame = read_frame(stream)
        if frame is None:
            return
        yield parse_message(frame)
