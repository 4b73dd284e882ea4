"""Error paths of the serve control-channel framing.

Every malformed or torn frame must raise a typed :class:`ServeError`,
never hang and never return a misparsed frame.  Each test reads with a
socket timeout, so a regression fails instead of blocking the suite.
"""

import socket
import struct

import pytest

from repro.errors import ServeError
from repro.serve import framing

LEN = struct.Struct("<I")
HEAD = struct.Struct("<BI")


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    right.settimeout(5.0)
    yield left, right
    left.close()
    right.close()


def raw_frame(kind, head_len, body):
    """A frame whose header-length field is ``head_len`` whatever the
    body holds."""
    payload = HEAD.pack(kind, head_len) + body
    return LEN.pack(len(payload)) + payload


def test_round_trip(pair):
    left, right = pair
    framing.send_frame(left, framing.EPOCH, {"h": 1.5}, b"\x00\x01")
    assert framing.recv_frame(right) == (framing.EPOCH, {"h": 1.5},
                                         b"\x00\x01")


def test_total_below_header_size(pair):
    left, right = pair
    left.sendall(LEN.pack(HEAD.size - 1) + b"\x00" * 8)
    with pytest.raises(ServeError, match="implausible"):
        framing.recv_frame(right)


def test_total_above_max_frame_bytes(pair):
    left, right = pair
    left.sendall(LEN.pack(framing.MAX_FRAME_BYTES + 1))
    with pytest.raises(ServeError, match="implausible"):
        framing.recv_frame(right)


def test_header_length_past_the_frame(pair):
    left, right = pair
    left.sendall(raw_frame(framing.EPOCH, 1000, b'{"x": 1}'))
    with pytest.raises(ServeError, match="runs past"):
        framing.recv_frame(right)


def test_undecodable_header(pair):
    left, right = pair
    left.sendall(raw_frame(framing.EPOCH, 4, b"{no}"))
    with pytest.raises(ServeError, match="undecodable"):
        framing.recv_frame(right)


def test_header_not_an_object(pair):
    left, right = pair
    left.sendall(raw_frame(framing.EPOCH, 2, b"[]"))
    with pytest.raises(ServeError, match="not a JSON object"):
        framing.recv_frame(right)


def test_peer_closes_mid_frame(pair):
    left, right = pair
    frame = framing.encode_frame(framing.EPOCH, {"h": 1.0})
    left.sendall(frame[:-3])
    left.close()
    with pytest.raises(ServeError, match="closed mid-frame"):
        framing.recv_frame(right)


def test_silent_peer_times_out(pair):
    _, right = pair
    right.settimeout(0.1)
    with pytest.raises(ServeError, match="timed out after 0.1s"):
        framing.recv_frame(right)
