"""Range-aggregation index benchmark: indexed vs naive ``lift_range``.

Replays the root's query pattern — many overlapping range aggregations
over a growing, periodically-released buffer (the shape produced by
speculative windows, corrections, and bootstrap re-verification in the
fig7/fig9 experiments) — against three implementations of the same
query:

* ``indexed``   — :class:`~repro.core.agg_index.RangeAggregateIndex`
  with partial caching on (the production path),
* ``uncached``  — the identical canonical decomposition with caching
  off (``use_index=False``): the bit-identical reference,
* ``naive``     — the pre-index path: copy the range out of the buffer
  and re-lift it whole, O(range) per query.

Indexed and uncached partials are asserted bit-identical per query (the
A/B contract); the recorded speedup is ``naive / indexed``, which must
reach :data:`MIN_SPEEDUP`.  Results go to ``BENCH_lift_index.json`` at
the repo root (``BENCH_lift_index.quick.json`` in reduced mode) so the
perf trajectory is machine-readable.

Run directly (CI runs the reduced mode)::

    PYTHONPATH=src python benchmarks/bench_lift_index.py
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/bench_lift_index.py
"""
# This harness *measures host wall-clock* by design — it times buffer
# queries from outside the simulator.

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.aggregates import get_aggregate
from repro.core.buffers import PositionBuffer
from repro.streams.batch import EventBatch

#: The acceptance floor: indexed must beat the naive whole-range
#: re-lift by at least this factor on the overlapping-query replay.
MIN_SPEEDUP = 3.0

#: Reduced-mode floor for CI smoke runs: the quick replay's windows are
#: small enough that per-query Python overhead narrows the gap; the
#: smoke job checks the machinery and the bit-identity contract, the
#: full run enforces the real floor.
QUICK_MIN_SPEEDUP = 1.2

#: Repeat the whole replay and keep each variant's best wall-clock —
#: robust to scheduler noise on shared runners.
ROUNDS = 3

OUT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_lift_index.json"

#: Where the reduced mode writes, so a smoke run never overwrites the
#: committed full-mode record.
QUICK_OUT_PATH = OUT_PATH.with_suffix(".quick.json")


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "").strip() not in \
        ("", "0")


def build_queries(n_events: int, window: int, seed: int):
    """The root's range-query replay over one buffer lifetime.

    Sliding speculative windows (step ``window // 8``) with per-window
    re-verification pairs, plus occasional bootstrap-style long reads —
    heavily overlapping, mostly chunk-interior, exactly the pattern
    whose repeated re-lifting the index amortizes.  Releases interleave
    so eviction cost is measured too: each is emitted as
    ``("release", pos)`` once the sliding window passes it.
    """
    rng = np.random.default_rng(seed)
    step = max(1, window // 8)
    ops = []
    released = 0
    for start in range(0, n_events - window, step):
        end = start + window
        ops.append(("query", start, end))
        # Re-verification: the root re-aggregates a jittered sub-span.
        lo = start + int(rng.integers(0, step))
        hi = min(end, lo + window // 2)
        if hi > lo:
            ops.append(("query", lo, hi))
        if start % (8 * step) == 0 and start > 0:
            ops.append(("query", max(released, start - 4 * window
                                     if start > 4 * window else 0),
                        end))  # bootstrap-style long read
        release_to = start - 6 * window
        if release_to > released:
            ops.append(("release", release_to))
            released = release_to
    return ops


def replay(fn, n_events: int, ops, *, mode: str, seed: int):
    """One full buffer lifetime; returns (wall_s, partial_bits)."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1e3, 1e3, n_events)
    ids = np.arange(n_events)
    if mode == "naive":
        buf = PositionBuffer()  # position-only: no decomposition at all
    else:
        buf = PositionBuffer(fn=fn, use_index=(mode == "indexed"))
    # Feed in source-sized batches up front; the replay then measures
    # pure query/release cost (appends are identical across modes).
    feed = 4096
    for at in range(0, n_events, feed):
        stop = min(at + feed, n_events)
        buf.append(EventBatch(ids[at:stop], values[at:stop],
                              ids[at:stop]))
    out = []
    start_s = time.perf_counter()
    for op in ops:
        if op[0] == "query":
            _, lo, hi = op
            if mode == "naive":
                out.append(fn.lift(buf.get_range(lo, hi)))
            else:
                out.append(buf.lift_range(lo, hi))
        else:
            buf.release_before(op[1])
    wall = time.perf_counter() - start_s
    return wall, [bit_signature(p) for p in out]


def bit_signature(partial):
    if isinstance(partial, float):
        return partial.hex()
    if isinstance(partial, tuple):
        return tuple(bit_signature(p) for p in partial)
    return repr(partial)


def main() -> int:
    quick = quick_mode()
    n_events = 1 << 16 if quick else 1 << 20
    window = n_events // 8
    seed = 11
    floor = QUICK_MIN_SPEEDUP if quick else MIN_SPEEDUP
    ops = build_queries(n_events, window, seed)
    n_queries = sum(1 for op in ops if op[0] == "query")

    results = {}
    identity_checked = False
    for fn_name in ("sum", "avg"):
        fn = get_aggregate(fn_name)
        best = {}
        for _ in range(ROUNDS):
            for mode in ("indexed", "uncached", "naive"):
                wall, sig = replay(fn, n_events, ops, mode=mode,
                                   seed=seed)
                best[mode] = min(best.get(mode, float("inf")), wall)
                if mode == "indexed":
                    indexed_sig = sig
                elif mode == "uncached":
                    # The A/B contract, asserted per query.
                    if sig != indexed_sig:
                        print(f"FAIL: {fn_name} uncached partials "
                              f"diverge from indexed", file=sys.stderr)
                        return 1
                    identity_checked = True
        results[fn_name] = {
            "indexed_s": round(best["indexed"], 6),
            "uncached_s": round(best["uncached"], 6),
            "naive_s": round(best["naive"], 6),
            "speedup_vs_naive": round(best["naive"] / best["indexed"],
                                      2),
            "speedup_vs_uncached": round(
                best["uncached"] / best["indexed"], 2),
        }

    worst = min(r["speedup_vs_naive"] for r in results.values())
    payload = {
        "benchmark": "lift_index",
        "quick": quick,
        "events": n_events,
        "window": window,
        "queries": n_queries,
        "rounds": ROUNDS,
        "bit_identity_checked": identity_checked,
        "min_speedup_required": floor,
        "worst_speedup_vs_naive": worst,
        "results": results,
    }
    out_path = QUICK_OUT_PATH if quick else OUT_PATH
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    for fn_name, r in results.items():
        print(f"{fn_name:5s} indexed {r['indexed_s']:.3f}s  "
              f"uncached {r['uncached_s']:.3f}s  "
              f"naive {r['naive_s']:.3f}s  "
              f"speedup {r['speedup_vs_naive']:.1f}x")
    print(f"wrote {out_path}")
    if worst < floor:
        print(f"FAIL: worst speedup {worst:.2f}x < required "
              f"{floor}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
