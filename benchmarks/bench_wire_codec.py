"""Wire-codec benchmark: columnar frames vs per-event ``struct`` packing.

Round-trips event batches through two codecs producing the same bytes
per event (8-byte id + 8-byte value + 8-byte timestamp):

* ``columnar``  — :func:`repro.wire.codec.encode_batch` /
  :func:`~repro.wire.codec.decode_batch`: whole int64/float64 columns
  packed per frame, decode returning ``np.frombuffer`` views over the
  received buffer (zero-copy, asserted via ``np.shares_memory``),
* ``per_event`` — the naive transport loop: one ``struct.pack`` call
  per event on encode, one ``struct.unpack_from`` per event on decode,
  columns rebuilt from Python lists.

Decoded columns are asserted bit-identical across both paths; the
recorded speedup is ``per_event / columnar`` wall-clock for a full
encode+decode pass, which must reach :data:`MIN_SPEEDUP`.  Results go
to ``BENCH_wire_codec.json`` at the repo root so the perf trajectory
is machine-readable.

Run directly (CI runs the reduced mode)::

    PYTHONPATH=src python benchmarks/bench_wire_codec.py
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/bench_wire_codec.py
"""
# This harness *measures host wall-clock* by design — it times codec
# passes from outside the simulator.

import json
import os
import struct
import sys
import time
from pathlib import Path

import numpy as np

from repro.streams.batch import EventBatch
from repro.wire.codec import decode_batch, encode_batch

#: Acceptance floor: the columnar codec must beat the per-event
#: ``struct.pack`` loop by at least this factor on encode+decode.
MIN_SPEEDUP = 10.0

#: Reduced-mode floor for CI smoke runs: small batches spend a larger
#: share of wall-clock in per-frame Python overhead, narrowing the gap;
#: the smoke job checks machinery + zero-copy, the full run enforces
#: the real floor.
QUICK_MIN_SPEEDUP = 5.0

#: Repeat every measurement and keep the best wall-clock — robust to
#: scheduler noise on shared runners.
ROUNDS = 3

OUT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_wire_codec.json"

_EVENT = struct.Struct("<qdq")


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "").strip() not in \
        ("", "0")


def make_batches(n_batches: int, batch_size: int,
                 seed: int) -> list[EventBatch]:
    rng = np.random.default_rng(seed)
    out = []
    for b in range(n_batches):
        base = b * batch_size
        out.append(EventBatch(
            np.arange(base, base + batch_size),
            rng.uniform(-1e3, 1e3, batch_size),
            np.arange(base, base + batch_size)))
    return out


# -- the per-event baseline ----------------------------------------------------

def encode_per_event(batch: EventBatch) -> bytes:
    """What a naive transport does: one struct call per event."""
    out = bytearray()
    out += len(batch).to_bytes(8, "little")
    pack = _EVENT.pack
    ids, values, ts = (batch.ids.tolist(), batch.values.tolist(),
                       batch.ts.tolist())
    for i, v, t in zip(ids, values, ts):
        out += pack(i, v, t)
    return bytes(out)


def decode_per_event(buf: bytes) -> EventBatch:
    n = int.from_bytes(buf[:8], "little")
    unpack = _EVENT.unpack_from
    ids, values, ts = [], [], []
    at = 8
    for _ in range(n):
        i, v, t = unpack(buf, at)
        ids.append(i)
        values.append(v)
        ts.append(t)
        at += _EVENT.size
    return EventBatch(np.array(ids, np.int64),
                      np.array(values, np.float64),
                      np.array(ts, np.int64))


def column_bits(batch: EventBatch) -> tuple:
    return (batch.ids.tobytes(), batch.values.tobytes(),
            batch.ts.tobytes())


def roundtrip(batches, encode, decode) -> tuple[float, list[tuple]]:
    start_s = time.perf_counter()
    decoded = [decode(encode(b)) for b in batches]
    wall = time.perf_counter() - start_s
    return wall, [column_bits(d) for d in decoded]


def assert_zero_copy(batch: EventBatch) -> bool:
    """Decoded columns must be views over the received frame buffer."""
    frame = encode_batch(batch)
    decoded = decode_batch(frame)
    backing = np.frombuffer(frame, np.uint8)
    return all(np.shares_memory(col, backing) for col in
               (decoded.ids, decoded.values, decoded.ts))


def main() -> int:
    quick = quick_mode()
    batch_size = 4096
    n_batches = 8 if quick else 64
    floor = QUICK_MIN_SPEEDUP if quick else MIN_SPEEDUP
    batches = make_batches(n_batches, batch_size, seed=7)

    if not assert_zero_copy(batches[0]):
        print("FAIL: decode copied the event columns", file=sys.stderr)
        return 1

    best = {}
    reference = None
    for _ in range(ROUNDS):
        for mode, enc, dec in (
                ("columnar", encode_batch, decode_batch),
                ("per_event", encode_per_event, decode_per_event)):
            wall, bits = roundtrip(batches, enc, dec)
            best[mode] = min(best.get(mode, float("inf")), wall)
            if reference is None:
                reference = bits
            elif bits != reference:
                print(f"FAIL: {mode} decode diverges bit-wise",
                      file=sys.stderr)
                return 1

    events = batch_size * n_batches
    speedup = best["per_event"] / best["columnar"]
    payload = {
        "benchmark": "wire_codec",
        "quick": quick,
        "batches": n_batches,
        "batch_size": batch_size,
        "events": events,
        "rounds": ROUNDS,
        "zero_copy_asserted": True,
        "bit_identity_checked": True,
        "min_speedup_required": floor,
        "columnar_s": round(best["columnar"], 6),
        "per_event_s": round(best["per_event"], 6),
        "speedup": round(speedup, 2),
        "columnar_mevents_per_s": round(
            events / best["columnar"] / 1e6, 2),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"columnar {best['columnar']:.4f}s  "
          f"per_event {best['per_event']:.4f}s  "
          f"speedup {speedup:.1f}x  "
          f"({payload['columnar_mevents_per_s']:.1f} Mevents/s)")
    print(f"wrote {OUT_PATH}")
    if speedup < floor:
        print(f"FAIL: speedup {speedup:.2f}x < required {floor}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
