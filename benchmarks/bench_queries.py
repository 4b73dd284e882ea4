"""Standing-query scaling benchmark: shared vs unshared multi-query.

Feeds one stream through :class:`repro.core.multiquery.MultiQueryEngine`
while it serves ``N`` standing queries, for ``N`` on a 1 -> 10k scaling
curve, in both execution modes:

* ``shared``   — one value store per (stream, aggregate) serves every
  query, its closed windows evaluated in deferred columnar flushes
  (the production path),
* ``unshared`` — one private buffer/index pipeline per query
  (``sharing=False``): the bit-identical reference.

Per-query result fingerprints are asserted identical between the two
modes (the A/B contract); the recorded speedup is
``unshared / shared`` wall time at each N, and the speedup at
:data:`FLOOR_N` queries must reach :data:`MIN_SPEEDUP`.  The unshared
mode is O(N) appends per batch, so it is measured only up to
:data:`UNSHARED_CAP` queries — the cap is recorded in the payload and
printed, never silent; shared mode runs the full curve.  Results go to
``BENCH_queries.json`` at the repo root (``BENCH_queries.quick.json``
in reduced mode) so the perf trajectory is machine-readable.

Run directly (CI runs the reduced mode)::

    PYTHONPATH=src python benchmarks/bench_queries.py
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/bench_queries.py
"""
# This harness *measures host wall-clock* by design — it times the
# engine from outside the simulator.

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.multiquery import MultiQueryEngine
from repro.streams.batch import EventBatch

#: The acceptance floor: shared execution must beat independent
#: per-query pipelines by at least this factor at :data:`FLOOR_N`
#: standing queries (the ISSUE's >= 5x at 1k).
MIN_SPEEDUP = 5.0

#: Reduced-mode floor: the sharing win is structural (one append +
#: one tree vs N of each), so the CI smoke run enforces the same bar.
QUICK_MIN_SPEEDUP = 5.0

#: The query count the floor is gated at.
FLOOR_N = 1000

#: Largest N the O(N)-per-batch unshared baseline is measured at.
#: Beyond it only shared mode runs; the cap is recorded, not silent.
UNSHARED_CAP = 1000

#: Repeat each (N, mode) feed and keep the best wall-clock — robust
#: to scheduler noise on shared runners.
ROUNDS = 3

STREAM = "local-0"

OUT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_queries.json"

#: Where the reduced mode writes, so a smoke run never overwrites the
#: committed full-mode record.
QUICK_OUT_PATH = OUT_PATH.with_suffix(".quick.json")


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "").strip() not in \
        ("", "0")


def make_specs(n: int) -> list[str]:
    """``n`` standing-query specs with realistic diversity.

    Cycles aggregates, tumbling/sliding shapes, and 499 distinct
    lengths, so small populations are (almost) all distinct while very
    large ones contain natural duplicates for the registry to dedupe —
    both regimes the shared substrate is built for.
    """
    aggs = ("sum", "avg", "max")
    specs = []
    for i in range(n):
        agg = aggs[i % len(aggs)]
        length = 4096 + 32 * (i % 499)
        if i % 2:
            step = max(256, length // 2 - 16 * (i % 7))
            specs.append(f"{agg}:{length}:{step}")
        else:
            specs.append(f"{agg}:{length}")
    return specs


def make_batches(n_events: int, batch: int, seed: int) -> list[EventBatch]:
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1e3, 1e3, n_events)
    ids = np.arange(n_events)
    return [EventBatch(ids[at:at + batch], values[at:at + batch],
                       ids[at:at + batch])
            for at in range(0, n_events, batch)]


def feed(specs: list[str], batches: list[EventBatch],
         *, sharing: bool) -> tuple[float, MultiQueryEngine]:
    """One engine lifetime; returns (wall_s, the fed engine).

    Admission is setup, not steady state, so it is not timed.  The
    timed span is the feed plus one read of the results: the shared
    engine evaluates closed windows in deferred flushes and a read
    flushes what is still pending, so timing the appends alone would
    leave that work out.
    """
    engine = MultiQueryEngine(sharing=sharing)
    for spec in specs:
        engine.admit(STREAM, spec, at=0)
    start_s = time.perf_counter()
    for events in batches:
        engine.append(STREAM, events)
    engine.fingerprints()
    wall = time.perf_counter() - start_s
    return wall, engine


def shared_ratio(curve: list[dict], n_hi: int,
                 n_lo: int) -> float | None:
    """``shared_s`` at ``n_hi`` queries over ``n_lo`` (``None`` when
    the reduced mode skips one of them)."""
    at = {point["queries"]: point["shared_s"] for point in curve}
    if n_hi not in at or n_lo not in at:
        return None
    return round(at[n_hi] / at[n_lo], 2)


def main() -> int:
    quick = quick_mode()
    n_events = 1 << 15 if quick else 1 << 16
    # Source-sized batches: IoT feeds arrive in small bursts, and the
    # per-batch append is exactly what sharing collapses from O(N)
    # pipelines to one value store per aggregate.
    batch = 256
    ns = [1, 10, 100, 1000] if quick else [1, 10, 100, 1000, 10_000]
    floor = QUICK_MIN_SPEEDUP if quick else MIN_SPEEDUP
    batches = make_batches(n_events, batch, seed=11)

    # The A/B contract, asserted on a mid-sized population before any
    # timing: every query's result stream is bit-identical across
    # modes (fingerprints digest each (index, result) pair).
    check_specs = make_specs(100)
    _, shared_engine = feed(check_specs, batches, sharing=True)
    _, unshared_engine = feed(check_specs, batches, sharing=False)
    if shared_engine.fingerprints() != unshared_engine.fingerprints():
        print("FAIL: shared per-query fingerprints diverge from "
              "unshared", file=sys.stderr)
        return 1

    curve = []
    floor_speedup = None
    for n in ns:
        specs = make_specs(n)
        best = {}
        for _ in range(ROUNDS):
            wall, engine = feed(specs, batches, sharing=True)
            best["shared"] = min(best.get("shared", float("inf")),
                                 wall)
            if n <= UNSHARED_CAP:
                wall, _ = feed(specs, batches, sharing=False)
                best["unshared"] = min(
                    best.get("unshared", float("inf")), wall)
        point = {
            "queries": n,
            "shared_s": round(best["shared"], 6),
            "shared_eps": round(n_events / best["shared"], 1),
            # Heap heads examined over the whole feed and the windows
            # it closed: their difference is one per group per batch
            # at every N (the count behind the scaling curve).
            "head_checks": engine.stats()["head_checks"],
            "windows": sum(a.windows
                           for a in engine.accounts().values()
                           if a.deduped_into is None),
        }
        if "unshared" in best:
            point["unshared_s"] = round(best["unshared"], 6)
            point["speedup"] = round(
                best["unshared"] / best["shared"], 2)
            if n == FLOOR_N:
                floor_speedup = point["speedup"]
        else:
            point["unshared_s"] = None
            point["speedup"] = None
        curve.append(point)
        speedup = (f"{point['speedup']:.1f}x" if point["speedup"]
                   else f"(unshared capped at {UNSHARED_CAP})")
        print(f"N={n:6d}  shared {point['shared_s']:.3f}s "
              f"({point['shared_eps']:,.0f} ev/s)  {speedup}")

    payload = {
        "benchmark": "queries",
        "quick": quick,
        "events": n_events,
        "batch": batch,
        "rounds": ROUNDS,
        "stream": STREAM,
        "bit_identity_checked": True,
        "unshared_cap": UNSHARED_CAP,
        "floor_n": FLOOR_N,
        "min_speedup_required": floor,
        "speedup_at_floor_n": floor_speedup,
        "shared_s_10k_over_1k": shared_ratio(curve, 10_000, 1000),
        "curve": curve,
    }
    out_path = QUICK_OUT_PATH if quick else OUT_PATH
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    if floor_speedup is None or floor_speedup < floor:
        print(f"FAIL: speedup at {FLOOR_N} queries "
              f"{floor_speedup} < required {floor}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
