"""Wire framing: bit-exact roundtrips and structured failure on corruption."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstream.rng import RngState
from splitstream.wire import (_MAX_PAYLOAD, HEADER_LEN, MAGIC, FeaturePacket, GradientPacket,
                              WireError, frame_message, iter_frames, parse_message, read_frame,
                              tensor_payload_bytes)


def random_feature_packet(rng: RngState, with_prompt=True) -> FeaturePacket:
    return FeaturePacket(
        client_id=int(rng.integers(0, 2**31)),
        iteration=int(rng.integers(0, 2**40)),
        timestep=int(rng.integers(0, 1000)),
        feat_unet=rng.normal((2, 4, 8, 8)),
        feat_control=rng.normal((2, 4, 8, 8)),
        label_noise=rng.normal((2, 4, 8, 8)),
        prompt_feat=rng.normal((2, 7, 32)) if with_prompt else None,
    )


class TestRoundtrip:
    def test_feature_packet_bit_exact(self):
        rng = RngState(41)
        for with_prompt in (True, False):
            pkt = random_feature_packet(rng, with_prompt)
            assert parse_message(frame_message(pkt)) == pkt

    def test_gradient_packet_bit_exact(self):
        rng = RngState(42)
        for n_pred in (rng.normal((1, 4, 8, 8)), None):
            pkt = GradientPacket(iteration=7, grad_control=rng.normal((1, 4, 8, 8)), n_pred=n_pred)
            assert parse_message(frame_message(pkt)) == pkt

    def test_frame_size_is_header_plus_payload(self):
        pkt = random_feature_packet(RngState(43))
        framed = frame_message(pkt)
        (plen,) = struct.unpack("<Q", framed[6:14])
        assert len(framed) == HEADER_LEN + plen
        assert framed[:4] == MAGIC

    def test_payload_accounting(self):
        pkt = random_feature_packet(RngState(44), with_prompt=False)
        # three (2,4,8,8) tensors of f32
        assert tensor_payload_bytes(pkt) == 3 * 2 * 4 * 8 * 8 * 4
        framed = frame_message(pkt)
        assert len(framed) >= tensor_payload_bytes(pkt) + HEADER_LEN

    def test_hundred_identical_packets_accumulate_linearly(self):
        pkt = random_feature_packet(RngState(45))
        one = len(frame_message(pkt))
        assert sum(len(frame_message(pkt)) for _ in range(100)) == 100 * one


def small_frame() -> bytes:
    return frame_message(GradientPacket(iteration=1, grad_control=np.ones((1, 4, 2, 2), np.float32)))


class TestParseErrors:
    def test_empty_is_truncated(self):
        with pytest.raises(WireError, match="truncated"):
            parse_message(b"")

    def test_bad_magic(self):
        with pytest.raises(WireError, match="magic"):
            parse_message(b"NOPE" + b"\x00" * 20)

    def test_version_mismatch(self):
        framed = bytearray(small_frame())
        framed[4] = 99
        with pytest.raises(WireError, match="version"):
            parse_message(bytes(framed))

    @pytest.mark.parametrize("mtype", [2, 7])  # 2 was a control message
    def test_unknown_type(self, mtype):
        framed = bytearray(small_frame())
        framed[5] = mtype
        with pytest.raises(WireError, match=f"unknown message type {mtype}"):
            parse_message(bytes(framed))

    def test_truncated_payload(self):
        framed = frame_message(random_feature_packet(RngState(46)))
        with pytest.raises(WireError, match="truncated"):
            parse_message(framed[:-10])

    def test_trailing_bytes(self):
        framed = small_frame()
        with pytest.raises(WireError, match="trailing"):
            parse_message(framed + b"x")

    def test_implausible_rank(self):
        pkt = GradientPacket(iteration=1, grad_control=np.zeros((2, 2), np.float32))
        framed = bytearray(frame_message(pkt))
        framed[HEADER_LEN + 8] = 200  # rank byte of grad_control
        with pytest.raises(WireError):
            parse_message(bytes(framed))

    def test_mutations_never_crash(self):
        """Structural mutations must all yield WireError, never anything else."""
        rng = RngState(47)
        base = frame_message(random_feature_packet(rng))
        mut_rng = RngState(48)
        failures = 0
        for i in range(100):
            kind = i % 4
            framed = bytearray(base)
            if kind == 0:  # truncate somewhere
                cut = int(mut_rng.integers(0, len(framed) - 1))
                framed = framed[:cut]
            elif kind == 1:  # corrupt magic/version/type
                pos = int(mut_rng.integers(0, 5))
                framed[pos] ^= 0xFF
            elif kind == 2:  # inflate declared length
                framed[6:14] = struct.pack("<Q", len(framed))
            else:  # corrupt a tensor rank byte
                framed[HEADER_LEN + 16] = 0xC8
            try:
                parse_message(bytes(framed))
            except WireError:
                failures += 1
        assert failures == 100


class TestStreams:
    def test_iter_frames_over_concatenation(self):
        rng = RngState(49)
        pkts = [random_feature_packet(rng) for _ in range(5)]
        blob = b"".join(frame_message(p) for p in pkts)
        back = list(iter_frames(io.BytesIO(blob)))
        assert back == pkts

    def test_read_frame_clean_eof(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_read_frame_mid_stream_truncation(self):
        framed = small_frame()
        with pytest.raises(WireError):
            read_frame(io.BytesIO(framed[: HEADER_LEN + 2]))

    def test_read_frame_refuses_payloads_larger_than_any_packet(self):
        def header(plen):
            return io.BytesIO(MAGIC + struct.pack("<BBQ", 1, 0, plen))

        with pytest.raises(WireError, match="implausible payload length"):
            read_frame(header(_MAX_PAYLOAD + 1))
        with pytest.raises(WireError, match="truncated frame payload"):
            read_frame(header(_MAX_PAYLOAD))


@st.composite
def tensors(draw):
    rank = draw(st.integers(0, 3))
    dims = tuple(draw(st.integers(1, 5)) for _ in range(rank))
    seed = draw(st.integers(0, 2**32))
    return RngState(seed).normal(dims)


@given(tensors(), tensors(), tensors(), st.booleans(), st.integers(0, 2**32 - 1),
       st.integers(0, 2**50), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(fu, fc, ln, with_prompt, cid, it, t):
    pkt = FeaturePacket(cid, it, t, fu, fc, ln,
                        prompt_feat=fu if with_prompt else None)
    assert parse_message(frame_message(pkt)) == pkt


def _feature_frame_with_dims(dims) -> bytes:
    """A FeaturePacket frame whose feat_unet header declares `dims`."""
    tiny = np.zeros((1,), np.float32)
    payload = (struct.pack("<IQI", 0, 0, 1)
               + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
               + frame_message(FeaturePacket(0, 0, 1, tiny, tiny, tiny))[HEADER_LEN + 16 + 9:])
    return MAGIC + struct.pack("<BBQ", 1, 0, len(payload)) + payload


@pytest.mark.parametrize("dims", [(65536,) * 4, (0, 2**32 - 1, 2**32 - 1)])
def test_overflowing_tensor_dims_are_wire_errors(dims):
    # 65536**4 wraps to 0 in int64; a zero dim hides dims numpy cannot shape
    with pytest.raises(WireError, match="implausible"):
        parse_message(_feature_frame_with_dims(dims))


BASE_FRAMES = [
    frame_message(random_feature_packet(RngState(50))),
    frame_message(random_feature_packet(RngState(51), with_prompt=False)),
    frame_message(GradientPacket(3, RngState(52).normal((1, 4, 2, 2)), RngState(53).normal((1, 4, 2, 2)))),
    frame_message(GradientPacket(7, RngState(54).normal((1, 4, 2, 2)))),
]


@st.composite
def mutated_frames(draw):
    """A valid frame with a few bytes, u32 words or its tail changed."""
    frame = bytearray(draw(st.sampled_from(BASE_FRAMES)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(frame) - 1))
        kind = draw(st.sampled_from(["byte", "u32", "cut"]))
        if kind == "byte":
            frame[pos] = draw(st.integers(0, 255))
        elif kind == "u32":  # lands on dims, ids, counts or lengths
            word = draw(st.one_of(st.sampled_from([0, 1, 65536, 2**31, 2**32 - 1]),
                                  st.integers(0, 2**32 - 1)))
            frame[pos : pos + 4] = struct.pack("<I", word)
        else:
            del frame[pos:]
        if not frame:
            break
    return bytes(frame)


@st.composite
def forged_frames(draw):
    """Well-framed feature or gradient payloads whose tensor headers say anything."""
    mtype = draw(st.sampled_from([0, 1]))
    parts = [struct.pack("<IQI", 0, 0, 1) if mtype == 0 else struct.pack("<Q", 0)]
    for _ in range(draw(st.integers(1, 4))):
        dims = draw(st.lists(st.one_of(st.integers(0, 4), st.sampled_from([65536, 2**31, 2**32 - 1])),
                             max_size=9))
        parts.append(struct.pack(f"<B{len(dims)}I", len(dims), *dims))
        parts.append(draw(st.binary(max_size=64)))
    payload = b"".join(parts)
    return MAGIC + struct.pack("<BBQ", 1, mtype, len(payload)) + payload


@given(st.one_of(st.binary(max_size=96), st.binary(max_size=96).map(lambda b: MAGIC + b),
                 mutated_frames(), forged_frames()))
@settings(max_examples=400, deadline=None)
def test_parsers_raise_only_wire_error(data):
    try:
        parse_message(data)
    except WireError:
        pass
    try:
        list(iter_frames(io.BytesIO(data)))  # read_frame, then parse_message per frame
    except WireError:
        pass
    try:
        read_frame(io.BytesIO(data))
    except WireError:
        pass
