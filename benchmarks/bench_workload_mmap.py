"""Workload-spill benchmark: memory-mapped ``.wlm`` vs archive loads.

Replays the parallel sweep's cold-start pattern: ``N_WORKERS`` fresh
worker processes each load the same spilled workload and take one full
aggregation pass over it (so lazily-mapped pages are actually faulted
in, not just promised).  Two spill formats of the same workload:

* ``mmap`` — the ``.wlm`` container of
  :func:`repro.core.workload.save_workload_mmap`: raw aligned columns,
  loaded as read-only ``np.memmap`` views (one OS page-cache copy
  shared by every worker),
* ``npz``  — the baseline this file carries itself (``np.savez`` /
  ``np.load`` of the same columns): every worker reads and copies the
  full multi-million-event stream into its own heap.

Loaded workloads are asserted bit-identical across formats; the
recorded speedup is ``npz / mmap`` total wall-clock, which must reach
:data:`MIN_SPEEDUP`.  Results go to ``BENCH_workload_mmap.json`` at
the repo root (``BENCH_workload_mmap.quick.json`` in reduced mode) so
the perf trajectory is machine-readable.

Run directly (CI runs the reduced mode)::

    PYTHONPATH=src python benchmarks/bench_workload_mmap.py
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/bench_workload_mmap.py
"""
# This harness *measures host wall-clock* by design — it times spill
# loads from outside the simulator.

import json
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.workload import (Workload, generate_workload,
                                 load_workload_mmap, save_workload_mmap)
from repro.streams.batch import EventBatch

#: Acceptance floor: N workers cold-starting from the mapped container
#: must beat the per-worker archive read+copy by this factor.
MIN_SPEEDUP = 2.0

#: Reduced-mode floor for CI smoke runs: tiny workloads make process
#: startup the dominant cost, narrowing the gap; the smoke job checks
#: the machinery and bit-identity, the full run enforces the floor.
QUICK_MIN_SPEEDUP = 1.1

#: Sweep-sized worker pool.
N_WORKERS = 4

#: Repeat every measurement and keep the best wall-clock.
ROUNDS = 3

OUT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_workload_mmap.json"

#: Where the reduced mode writes, so a smoke run never overwrites the
#: committed full-mode record.
QUICK_OUT_PATH = OUT_PATH.with_suffix(".quick.json")


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "").strip() not in \
        ("", "0")


# -- the archive baseline ------------------------------------------------------

def save_npz(path: Path, workload: Workload) -> None:
    """What a naive spill does: one ``np.savez`` of every column."""
    arrays = {"meta": np.array([workload.window_size,
                                workload.n_windows, workload.n_nodes]),
              "bounds": workload.bounds,
              "boundary_ts": workload.boundary_ts}
    for i, stream in enumerate(workload.streams):
        arrays[f"ids_{i}"] = stream.ids
        arrays[f"values_{i}"] = stream.values
        arrays[f"ts_{i}"] = stream.ts
    np.savez(path, **arrays)


def load_npz(path: Path) -> Workload:
    with np.load(path, allow_pickle=False) as archive:
        window_size, n_windows, n_nodes = archive["meta"].tolist()
        streams = [EventBatch(archive[f"ids_{i}"], archive[f"values_{i}"],
                              archive[f"ts_{i}"])
                   for i in range(n_nodes)]
        return Workload(streams=streams, window_size=window_size,
                        n_windows=n_windows, bounds=archive["bounds"],
                        boundary_ts=archive["boundary_ts"])


LOADERS = {"mmap": load_workload_mmap, "npz": load_npz}


def _worker_load(mode: str, path: str) -> tuple[float, float]:
    """One sweep worker's cold start: load the spill, touch the data.

    Timed inside the worker so pool/interpreter startup (identical for
    both formats) stays out of the measurement.
    """
    start_s = time.perf_counter()
    workload = LOADERS[mode](Path(path))
    # One full pass over every column a run would consume, so mapped
    # pages are faulted in rather than merely promised.
    total = 0.0
    for stream in workload.streams:
        total += float(stream.values.sum())
        total += float(stream.ts[-1] - stream.ts[0])
        total += float(stream.ids[-1])
    total += float(workload.bounds.sum())
    return time.perf_counter() - start_s, total


def workload_bits(workload) -> tuple:
    return (
        tuple((s.ids.tobytes(), s.values.tobytes(), s.ts.tobytes())
              for s in workload.streams),
        workload.bounds.tobytes(), workload.boundary_ts.tobytes())


def timed_pool_load(mode: str, path: Path) -> tuple[float, float]:
    """Total load seconds for N fresh workers cold-starting ``path``."""
    with ProcessPoolExecutor(max_workers=N_WORKERS) as pool:
        out = list(pool.map(_worker_load, [mode] * N_WORKERS,
                            [str(path)] * N_WORKERS))
    return sum(wall for wall, _ in out), out[0][1]


def main() -> int:
    quick = quick_mode()
    # ~1.5M events full / ~190k quick across 4 nodes.
    kwargs = dict(n_nodes=4, rate_per_node=20_000.0, seed=9)
    if quick:
        spec = dict(window_size=8_000, n_windows=4, **kwargs)
    else:
        spec = dict(window_size=64_000, n_windows=4, **kwargs)
    floor = QUICK_MIN_SPEEDUP if quick else MIN_SPEEDUP

    workload = generate_workload(**spec)
    with tempfile.TemporaryDirectory(prefix="bench-wlm-") as tmp:
        npz_path = Path(tmp) / "workload.npz"
        wlm_path = Path(tmp) / "workload.wlm"
        save_npz(npz_path, workload)
        save_workload_mmap(wlm_path, workload)

        # Bit-identity across formats before timing anything.
        if workload_bits(load_npz(npz_path)) != \
                workload_bits(load_workload_mmap(wlm_path)):
            print("FAIL: spill formats disagree bit-wise",
                  file=sys.stderr)
            return 1

        best = {}
        checks = set()
        for _ in range(ROUNDS):
            for mode, path in (("mmap", wlm_path), ("npz", npz_path)):
                wall, check = timed_pool_load(mode, path)
                best[mode] = min(best.get(mode, float("inf")), wall)
                checks.add(check)
        if len(checks) != 1:
            print("FAIL: workers computed diverging checksums",
                  file=sys.stderr)
            return 1

    events = int(sum(len(s) for s in workload.streams))
    speedup = best["npz"] / best["mmap"]
    payload = {
        "benchmark": "workload_mmap",
        "quick": quick,
        "workers": N_WORKERS,
        "events": events,
        "spill_bytes": events * 24,
        "rounds": ROUNDS,
        "bit_identity_checked": True,
        "min_speedup_required": floor,
        "mmap_s": round(best["mmap"], 6),
        "npz_s": round(best["npz"], 6),
        "speedup": round(speedup, 2),
    }
    out_path = QUICK_OUT_PATH if quick else OUT_PATH
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"mmap {best['mmap']:.4f}s  npz {best['npz']:.4f}s  "
          f"speedup {speedup:.1f}x  ({events} events x "
          f"{N_WORKERS} workers)")
    print(f"wrote {out_path}")
    if speedup < floor:
        print(f"FAIL: speedup {speedup:.2f}x < required {floor}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
