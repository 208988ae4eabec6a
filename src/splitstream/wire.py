"""Framed binary messages exchanged between clients and the server.

Frame layout (integers little-endian):
    magic "SPLT" | version u8 | msg-type u8 | payload length u64 | payload
so a frame is exactly 14 bytes + payload. Msg types: 0 = FeaturePacket,
1 = GradientPacket, 2 = Control. Tensors are encoded as
    rank u8 | dims u32 * rank | f32 row-major data
and optional fields carry a u8 presence flag. Parsing never throws anything
but WireError: bad magic, version or type mismatch, truncation, and
implausible tensor headers are all reported structurally.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

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
# the largest legal payload: a FeaturePacket's fixed fields, four tensors
# (rank, dims, f32 data) and the prompt flag
_MAX_PAYLOAD = 16 + 4 * (1 + 4 * _MAX_RANK + 4 * _MAX_ELEMENTS) + 1


class WireError(ValueError):
    """Structured frame/parse failure."""


@dataclass
class FeaturePacket:
    """One client -> server transmission unit."""

    client_id: int
    iteration: int
    timestep: int
    feat_unet: np.ndarray
    feat_control: np.ndarray
    label_noise: np.ndarray
    prompt_feat: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, FeaturePacket):
            return NotImplemented
        return (
            self.client_id == other.client_id
            and self.iteration == other.iteration
            and self.timestep == other.timestep
            and _arr_eq(self.feat_unet, other.feat_unet)
            and _arr_eq(self.feat_control, other.feat_control)
            and _arr_eq(self.label_noise, other.label_noise)
            and _opt_eq(self.prompt_feat, other.prompt_feat)
        )


@dataclass
class GradientPacket:
    """Server -> client response; classic mode only."""

    iteration: int
    grad_control: np.ndarray
    n_pred: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, GradientPacket):
            return NotImplemented
        return (
            self.iteration == other.iteration
            and _arr_eq(self.grad_control, other.grad_control)
            and _opt_eq(self.n_pred, other.n_pred)
        )


@dataclass(frozen=True)
class ControlMessage:
    """Session control (hello/done)."""

    code: int
    client_id: int


def _arr_eq(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _opt_eq(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return _arr_eq(a, b)


def _enc_tensor(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype="<f4", order="C")
    return (
        struct.pack("<B", arr.ndim)
        + struct.pack(f"<{arr.ndim}I", *arr.shape)
        + arr.tobytes()
    )


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise WireError(f"truncated payload while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def tensor(self, what: str) -> np.ndarray:
        rank = self.u8(f"{what} rank")
        if rank > _MAX_RANK:
            raise WireError(f"{what}: implausible tensor rank {rank}")
        dims = struct.unpack(f"<{rank}I", self.take(4 * rank, f"{what} dims"))
        # exact integers: a fixed-width product can wrap to a small count, and
        # a zero dim must not hide dims numpy cannot shape
        if math.prod(max(d, 1) for d in dims) > _MAX_ELEMENTS:
            raise WireError(f"{what}: implausible tensor dims {dims}")
        n = math.prod(dims)
        raw = self.take(4 * n, f"{what} data")
        return np.frombuffer(raw, dtype="<f4").reshape(dims).copy()

    def done(self, what: str) -> None:
        if self.pos != len(self.data):
            raise WireError(f"{what}: {len(self.data) - self.pos} trailing payload bytes")


def frame_message(msg) -> bytes:
    """Serialize a message into one wire frame."""
    if isinstance(msg, FeaturePacket):
        mtype = MSG_FEATURE
        parts = [
            struct.pack("<IQI", msg.client_id, msg.iteration, msg.timestep),
            _enc_tensor(msg.feat_unet),
            _enc_tensor(msg.feat_control),
            _enc_tensor(msg.label_noise),
        ]
        if msg.prompt_feat is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + _enc_tensor(msg.prompt_feat))
        payload = b"".join(parts)
    elif isinstance(msg, GradientPacket):
        mtype = MSG_GRADIENT
        parts = [struct.pack("<Q", msg.iteration), _enc_tensor(msg.grad_control)]
        if msg.n_pred is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + _enc_tensor(msg.n_pred))
        payload = b"".join(parts)
    elif isinstance(msg, ControlMessage):
        mtype = MSG_CONTROL
        payload = struct.pack("<BI", msg.code, msg.client_id)
    else:
        raise TypeError(f"cannot frame {type(msg).__name__}")
    return MAGIC + struct.pack("<BBQ", VERSION, mtype, len(payload)) + payload


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
    r = _Reader(frame[HEADER_LEN:])
    if mtype == MSG_FEATURE:
        client_id = r.u32("client_id")
        iteration = r.u64("iteration")
        timestep = r.u32("timestep")
        feat_unet = r.tensor("feat_unet")
        feat_control = r.tensor("feat_control")
        label_noise = r.tensor("label_noise")
        prompt = r.tensor("prompt_feat") if r.u8("prompt flag") else None
        r.done("FeaturePacket")
        return FeaturePacket(client_id, iteration, timestep, feat_unet,
                             feat_control, label_noise, prompt)
    if mtype == MSG_GRADIENT:
        iteration = r.u64("iteration")
        grad = r.tensor("grad_control")
        n_pred = r.tensor("n_pred") if r.u8("n_pred flag") else None
        r.done("GradientPacket")
        return GradientPacket(iteration, grad, n_pred)
    if mtype == MSG_CONTROL:
        code = r.u8("control code")
        client_id = r.u32("control client_id")
        r.done("ControlMessage")
        return ControlMessage(code, client_id)
    raise WireError(f"unknown message type {mtype}")


def tensor_payload_bytes(msg) -> int:
    """Bytes of raw f32 tensor data inside a message (headers excluded)."""
    arrs = []
    if isinstance(msg, FeaturePacket):
        arrs = [msg.feat_unet, msg.feat_control, msg.label_noise]
        if msg.prompt_feat is not None:
            arrs.append(msg.prompt_feat)
    elif isinstance(msg, GradientPacket):
        arrs = [msg.grad_control]
        if msg.n_pred is not None:
            arrs.append(msg.n_pred)
    return sum(4 * a.size for a in arrs)


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
            return None if not buf else _raise_trunc()
        buf += chunk
    return buf


def _raise_trunc():
    raise WireError("stream ended mid-frame")


def iter_frames(stream):
    """Yield parsed messages from a stream of concatenated frames."""
    while True:
        frame = read_frame(stream)
        if frame is None:
            return
        yield parse_message(frame)
