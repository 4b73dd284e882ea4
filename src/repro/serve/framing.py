"""Length-prefixed control-channel framing for the serve runtime.

One control frame on the coordinator<->worker TCP connection is::

    u32 total_len | u8 kind | u32 header_len | JSON header | binary blob

``total_len`` covers everything after itself, so a reader always knows
exactly how many bytes to pull off the stream — partial reads can never
misparse into a different frame.  The JSON header carries the small
structured part (op lists, slot keys, virtual times); the blob carries
binary wire-codec frames verbatim, referenced from the header by
``[offset, length]`` pairs.  A frame crosses the coordinator unopened:
the sender's bytes in EPOCH_OPS are the receiver's bytes in EPOCH, so
a protocol payload is encoded once and decoded once.

The epoch round (DESIGN §12) in frame shapes::

    EPOCH      {"h": horizon, "e": round, "slots": [[t, phase, rank,
                pos, offset, length], ...]}          blob: wire frames
    EPOCH_OPS  {"batches": [{"ref": ["slot", i] | ["timer", seq],
                "k": [t, phase, rank] (timers only), "ops": [...]}],
                "n": next timer time | null}         blob: sent frames
    FINISH     {"stop": canonical key of the stop batch | null}
    FINAL      {"node", "c": counters at the stop cut, "queries",
                "trace"}

One transport: blocking sockets on both ends.  A worker is a plain
sequential process (one request in, one reply out) and the coordinator
a plain sequential loop that writes every worker's request before it
reads any reply (DESIGN §12, "transport").  Both sides read with the
one deadline :data:`REPLY_TIMEOUT_S`.  :func:`connect_with_retry`
gives workers their exponential-backoff connection bootstrap, so start
order between the coordinator and its workers does not matter.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Any

from repro.errors import ServeError

# -- frame kinds ---------------------------------------------------------------

#: Worker -> coordinator, first frame: ``{"node": name}``.
HELLO = 1
#: Coordinator -> worker handshake reply.
ACK = 2
#: Coordinator -> local worker: inject the node's source stream.
INJECT = 3
#: Coordinator -> worker: run the behaviour's start hook.
START = 4
#: Worker -> coordinator reply: the ordered op list one control
#: dispatch (INJECT/START) emitted, plus ``"n"`` as in EPOCH_OPS.
#: (Kinds 5, 6 and 13 are retired.)
OPS = 7
#: Coordinator -> worker: the run is over; reply FINAL and exit.
FINISH = 8
#: Worker -> coordinator: counters, query accounts, and trace payload.
FINAL = 9
#: Either direction: fatal error description.
ERROR = 10
#: Coordinator -> worker: run every delivery and own timer below the
#: horizon.
EPOCH = 11
#: Worker -> coordinator reply to EPOCH.
EPOCH_OPS = 12

_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<BI")

#: Control frames are small (ops + refs); a frame beyond this is a
#: corrupted stream, not a workload.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Seconds a connected peer has to move one frame, on either side: a
#: worker that is alive but never replies fails the run, and so does a
#: coordinator that never sends (a paced one is silent for one pacing
#: sleep at most, far below this).
REPLY_TIMEOUT_S = 120.0


def encode_frame(kind: int, header: dict[str, Any],
                 blob: bytes | bytearray = b"") -> bytes:
    """Serialize one control frame."""
    head = json.dumps(header, separators=(",", ":")).encode()
    total = _HEAD.size + len(head) + len(blob)
    return b"".join((_LEN.pack(total), _HEAD.pack(kind, len(head)),
                     head, blob))


# -- transport -----------------------------------------------------------------

def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    parts = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except TimeoutError:
            raise ServeError(
                f"control connection timed out after "
                f"{sock.gettimeout():g}s (peer silent)") from None
        if not chunk:
            raise ServeError(
                "control connection closed mid-frame (peer gone)")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def send_frame(sock: socket.socket, kind: int, header: dict[str, Any],
               blob: bytes | bytearray = b"") -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(kind, header, blob))


def recv_frame(sock: socket.socket) -> tuple[int, dict[str, Any], bytes]:
    """Read one frame from a blocking socket."""
    total = _LEN.unpack(_recv_exactly(sock, _LEN.size))[0]
    if total < _HEAD.size or total > MAX_FRAME_BYTES:
        raise ServeError(f"implausible control frame length {total}")
    body = _recv_exactly(sock, total)
    kind, head_len = _HEAD.unpack_from(body, 0)
    at = _HEAD.size
    if head_len > total - at:
        raise ServeError(
            f"control header length {head_len} runs past the "
            f"{total}-byte frame")
    try:
        header = json.loads(body[at:at + head_len])
    except ValueError as exc:
        raise ServeError(f"undecodable control header: {exc}") from None
    if not isinstance(header, dict):
        raise ServeError("control header is not a JSON object")
    return kind, header, body[at + head_len:]


def connect_with_retry(host: str, port: int, attempts: int = 8,
                       base_delay: float = 0.05,
                       backoff: float = 2.0) -> socket.socket:
    """Connect to the coordinator, retrying with exponential backoff.

    Tries ``attempts`` times with delays ``base_delay * backoff**i``
    between failures, so a worker started before the coordinator's
    listener is up simply waits for it.  Raises :class:`ServeError`
    once every attempt is exhausted.
    """
    if attempts < 1:
        raise ServeError(f"attempts must be >= 1, got {attempts}")
    delay = base_delay
    last: OSError | None = None
    for attempt in range(attempts):
        try:
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            if attempt + 1 < attempts:
                time.sleep(delay)
                delay *= backoff
    raise ServeError(
        f"could not connect to coordinator at {host}:{port} after "
        f"{attempts} attempts: {last}")

