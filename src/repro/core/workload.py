"""Workloads: per-node streams plus the ground-truth window split.

A :class:`Workload` materializes the streams every local node will
ingest and precomputes the ground-truth global window boundaries — the
timestamp-interleave cut of Section 3's window operator model.  The
boundaries serve two purposes:

* They are the *reference* for the correctness metric (Fig. 10d): the
  Central baseline's windows coincide with them by construction.
* They stand in for the paper's exact boundary-resolution mechanism:
  the root resolves each window's per-node boundary from reported event
  rates, slice statistics (first/last timestamps, counts), and the
  "last event" exchange of the correction step (Section 4.3.1).  Rather
  than re-deriving the cut from those messages, the root consults the
  precomputed boundary table *after* the corresponding reports arrive —
  same information, same timing, exact arithmetic.  DESIGN.md records
  this as a reproduction decision.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Sequence
from typing import IO, TYPE_CHECKING, Any, Literal

import numpy as np

from repro.errors import ConfigurationError, StreamError
from repro.streams.batch import (ID_DTYPE, TS_DTYPE, VALUE_DTYPE,
                                 EventBatch)
from repro.streams.event import ticks_to_seconds
from repro.streams.generator import RateChangeGenerator

if TYPE_CHECKING:
    from repro.aggregates.base import AggregateFunction


@dataclass
class Workload:
    """Per-node input streams and their ground-truth window geometry."""

    streams: list[EventBatch]
    window_size: int
    n_windows: int
    #: Cumulative per-node boundary table, shape
    #: ``(n_windows + 1, n_nodes)``; row ``g`` is where window ``g``
    #: starts in each node's stream, row ``n_windows`` where the last
    #: window ends.
    bounds: np.ndarray = field(repr=False)
    #: Timestamp (ticks) of the last event of each global window.
    boundary_ts: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        """Number of local nodes (one stream per node)."""
        return len(self.streams)

    @property
    def total_events(self) -> int:
        """Events inside complete global windows."""
        return self.n_windows * self.window_size

    def actual_size(self, window: int, node: int) -> int:
        """Actual local window size ``l_{node,G(window)}``."""
        return int(self.bounds[window + 1, node]
                   - self.bounds[window, node])

    def actual_sizes(self, window: int) -> np.ndarray:
        """Actual local window sizes of every node for one window."""
        return (self.bounds[window + 1] - self.bounds[window]).astype(
            np.int64)

    def span(self, window: int, node: int) -> tuple[int, int]:
        """Ground-truth ``[start, end)`` span in the node's stream."""
        return (int(self.bounds[window, node]),
                int(self.bounds[window + 1, node]))

    def window_events(self, window: int) -> EventBatch:
        """All events of one global window, merged in timestamp order."""
        parts = [self.streams[a].slice_range(*self.span(window, a))
                 for a in range(self.n_nodes)]
        return EventBatch.concat(parts).sorted_by_ts()

    def reference_result(self,
                         aggregate: "AggregateFunction") -> list[float]:
        """Ground-truth (Central) result of every global window."""
        return [aggregate.aggregate(self.window_events(g))
                for g in range(self.n_windows)]

    def boundary_seconds(self, window: int) -> float:
        """Stream time (s) when the window's last event is produced."""
        return ticks_to_seconds(int(self.boundary_ts[window]))


def require_ts_sorted(batches: Sequence[EventBatch]) -> None:
    """Raise :class:`StreamError` unless every batch is timestamp-sorted."""
    for i, b in enumerate(batches):
        if not b.is_ts_sorted():
            raise StreamError(
                f"input batch {i} is not timestamp-sorted; per-source "
                f"streams must be in order")


def _merge_cut(columns: Sequence[np.ndarray],
               ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut the stable timestamp merge of sorted ``columns`` after each
    of ``ends`` events, by counting instead of merging.

    For every end ``p`` at once, bisection over ticks finds the
    smallest tick ``T`` with at least ``p`` events at or before it: the
    merge's ``p``-th timestamp.  Column ``a`` then contributes its
    events before ``T`` plus its share of the ties at ``T``, handed out
    in column order until ``p`` is reached -- the stable merge's own tie
    rule.  Costs O(len(ends) x len(columns) x log(tick range)) and no
    per-event temporaries.  Returns the per-column counts, shape
    ``(len(ends), len(columns))``, and ``T`` per end.
    """
    def counts(ticks: np.ndarray,
               side: Literal["left", "right"]) -> np.ndarray:
        return np.stack([np.searchsorted(ts, ticks, side)
                         for ts in columns], axis=1)

    held = [ts for ts in columns if len(ts)]
    lo = np.full(len(ends), min(int(ts[0]) for ts in held) - 1)
    hi = np.full(len(ends), max(int(ts[-1]) for ts in held))
    # Invariant: fewer than ``ends`` events at or before ``lo``, at
    # least ``ends`` at or before ``hi``.
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        enough = counts(mid, "right").sum(axis=1) >= ends
        hi = np.where(enough, mid, hi)
        lo = np.where(enough, lo, mid)
    before = counts(hi, "left")
    ties = counts(hi, "right") - before
    short = (ends - before.sum(axis=1))[:, None]
    ties_ahead = np.cumsum(ties, axis=1) - ties
    return before + np.clip(short - ties_ahead, 0, ties), hi


def _window_ends(available: int, window_size: int,
                 n_windows: int) -> np.ndarray:
    """Merged-stream positions where each of ``n_windows`` windows
    ends, given streams holding ``available`` complete windows."""
    if n_windows < 1 or n_windows > available:
        raise ConfigurationError(
            f"streams hold {available} complete windows of size "
            f"{window_size}; requested {n_windows}")
    return np.arange(1, n_windows + 1, dtype=np.int64) * window_size


def build_workload(streams: Sequence[EventBatch], window_size: int,
                   n_windows: int | None = None) -> Workload:
    """Assemble a :class:`Workload` from concrete per-node streams.

    Global window ``g`` is events ``[g*L, (g+1)*L)`` of the streams'
    stable timestamp merge (ties to the lower stream index); the
    boundaries are cut from the per-stream timestamps by counting, so
    building a workload holds no copy of the merged stream.  Streams
    should extend a few windows *past* the last measured boundary:
    prediction buffers and speculation reach beyond it, and a scheme
    that runs out of events stalls (the runner raises a diagnostic).
    :func:`generate_workload` adds that margin automatically.
    """
    if window_size <= 0:
        raise ConfigurationError(
            f"window_size must be > 0, got {window_size}")
    streams = list(streams)
    if not streams:
        raise ConfigurationError("need at least one stream")
    require_ts_sorted(streams)
    available = sum(len(s) for s in streams) // window_size
    if n_windows is None:
        n_windows = available
    ends = _window_ends(available, window_size, n_windows)
    counts, boundary_ts = _merge_cut([s.ts for s in streams], ends)
    bounds = np.zeros((n_windows + 1, len(streams)), dtype=np.int64)
    bounds[1:] = counts
    return Workload(streams=streams, window_size=window_size,
                    n_windows=n_windows, bounds=bounds,
                    boundary_ts=boundary_ts)


def _stream_sources(n_nodes: int, window_size: int, n_windows: int, *,
                    rate_per_node: float = 100_000.0,
                    rate_change: float = 0.01,
                    epoch_seconds: float = 1.0,
                    seed: int = 0, margin: float | None = None,
                    rates: Sequence[float] | None = None,
                    ) -> tuple[list[RateChangeGenerator], float]:
    """Every node's seeded generator and the stream time they all
    generate (see :func:`generate_workload`).  All of them start at
    tick 0 with one epoch length and run equally long, so epoch ``k``
    covers the same ticks in every stream."""
    if n_nodes < 1:
        raise ConfigurationError(f"need >= 1 node, got {n_nodes}")
    if n_windows < 1:
        raise ConfigurationError(f"need >= 1 window, got {n_windows}")
    if rates is None:
        rates = [rate_per_node] * n_nodes
    if len(rates) != n_nodes:
        raise ConfigurationError(
            f"got {len(rates)} rates for {n_nodes} nodes")
    if not all(0 < rate < math.inf for rate in rates):
        raise ConfigurationError(
            f"rates must be finite and > 0, got {list(rates)}")
    total_rate = float(sum(rates))
    needed = n_windows * window_size
    if margin is None:
        # Enough spare stream for speculative tails: at least ~3 extra
        # global windows' worth of events beyond the measured ones.
        margin = 1.0 + max(0.1, 3.0 / n_windows)
    duration = needed * margin / total_rate + 2 * epoch_seconds
    sources = [RateChangeGenerator(rate, rate_change,
                                   epoch_seconds=epoch_seconds,
                                   seed=(seed * 1000 + i) * 31)
               for i, rate in enumerate(rates)]
    return sources, duration


def generate_workload(n_nodes: int, window_size: int, n_windows: int, *,
                      rate_per_node: float = 100_000.0,
                      rate_change: float = 0.01,
                      epoch_seconds: float = 1.0,
                      seed: int = 0, margin: float | None = None,
                      rates: Sequence[float] | None = None) -> Workload:
    """Generate the evaluation's standard workload in memory.

    Every local node ingests one data stream, produced by a generator
    co-located with the node (Section 5).  ``rate_per_node`` (default
    100k events/s) is each node's rate; per-node rates can be made
    heterogeneous via ``rates``.  Each stream runs for the time the
    node rates need to fill ``n_windows`` windows of ``window_size``
    events times ``margin`` (default ``1 + max(0.1, 3 / n_windows)``),
    plus two epochs of ``epoch_seconds``, at ``rate_change``; ``seed``
    seeds every generator.

    The returned workload lives on the heap.  A cached workload never
    does: :meth:`WorkloadCache.get` writes the same bytes straight to
    its spill, epoch by epoch (:func:`spill_workload`), and maps them.
    """
    sources, duration = _stream_sources(
        n_nodes, window_size, n_windows, rate_per_node=rate_per_node,
        rate_change=rate_change, epoch_seconds=epoch_seconds, seed=seed,
        margin=margin, rates=rates)
    streams = [gen.generate_seconds(duration) for gen in sources]
    return build_workload(streams, window_size, n_windows)


# -- content-addressed workload cache -----------------------------------------
#
# Every sweep in the evaluation runs several schemes over the *same*
# workload, and re-running an experiment regenerates the exact same
# multi-million-event streams (generation is seed-deterministic).  The
# cache keys a workload by its full generation-parameter tuple so each
# distinct workload is generated once per process (in-memory LRU) and
# once per machine (``.wlm`` spill files that parallel sweep workers —
# and later processes — memory-map instead of regenerating).

#: Environment variable overriding the spill directory.
SPILL_DIR_ENV = "REPRO_WORKLOAD_CACHE"

#: Salt mixed into every cache key; bump when the generator's semantics
#: (or the spill layout) change so stale spill files never resurface.
GENERATOR_VERSION = 1


def default_spill_dir() -> Path:
    """The on-disk spill directory (``$REPRO_WORKLOAD_CACHE`` or a
    per-user directory under the system temp dir)."""
    env = os.environ.get(SPILL_DIR_ENV)
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro-workload-cache"


@dataclass(frozen=True)
class WorkloadSpec:
    """The full generation-parameter tuple of one workload.

    Hashable and deterministic: two equal specs generate bit-identical
    workloads (generation is driven entirely by these fields and the
    seeded RNG), which is what makes content-addressed caching sound.
    Workloads built from explicit streams have no spec and bypass the
    cache.
    """

    n_nodes: int
    window_size: int
    n_windows: int
    rate_per_node: float = 100_000.0
    rate_change: float = 0.01
    epoch_seconds: float = 1.0
    seed: int = 0
    margin: float | None = None

    def key(self) -> str:
        """Stable content hash of the parameter tuple."""
        canon = repr((GENERATOR_VERSION, self.n_nodes, self.window_size,
                      self.n_windows, self.rate_per_node,
                      self.rate_change, self.epoch_seconds, self.seed,
                      self.margin))
        return hashlib.sha256(canon.encode()).hexdigest()

    def generate(self) -> Workload:
        """Generate the workload this spec describes, in memory."""
        return generate_workload(**dataclasses.asdict(self))


#: Prefix of in-flight spill writes; a crashed writer leaves one of
#: these behind, and :meth:`WorkloadCache.clear` sweeps them up.
_TMP_PREFIX = ".wlspill-"


def _atomic_write(path: Path,
                  write: Callable[[IO[bytes]], None]) -> None:
    """Write ``path`` through a same-directory temp file + rename.

    Concurrent sweep workers may race to spill the same workload, and
    ``os.replace`` makes the last writer win without any reader ever
    seeing a half-written file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=_TMP_PREFIX, suffix=path.suffix,
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _column_names(node: int) -> tuple[str, str, str]:
    """Spill array names of node ``node``'s ids, values and ts."""
    return f"ids_{node}", f"values_{node}", f"ts_{node}"


def _workload_arrays(workload: Workload) -> dict[str, np.ndarray]:
    """A workload's persistent arrays in deterministic order."""
    arrays = {
        "meta": np.array([workload.window_size, workload.n_windows,
                          workload.n_nodes], dtype=np.int64),
        "bounds": workload.bounds,
        "boundary_ts": workload.boundary_ts,
    }
    for i, stream in enumerate(workload.streams):
        arrays.update(zip(_column_names(i),
                          (stream.ids, stream.values, stream.ts),
                          strict=True))
    return arrays


# -- memory-mapped spill container ---------------------------------------------
#
# An archive that each sweep worker reads into its own heap costs a
# full copy of the multi-million-event streams per worker.  The ``.wlm``
# container instead lays the raw little-endian arrays out 64-byte
# aligned after a small JSON table of contents, so every worker maps
# the *same* OS page-cache copy read-only (``np.memmap``) and hands the
# column views straight to ``EventBatch._view`` — cold-start cost is a
# page-table setup instead of a copy, and N workers share one physical
# copy of the workload.

#: First bytes of a ``.wlm`` spill container.
_WLM_MAGIC = b"DWLM"
#: Bumped on layout changes (stale containers never misparse).
_WLM_VERSION = 1
#: Array payload alignment (covers any dtype; cache-line friendly).
_WLM_ALIGN = 64


def _align_up(n: int) -> int:
    return -(-n // _WLM_ALIGN) * _WLM_ALIGN


#: One array of a ``.wlm`` container: name, dtype and shape.
_WlmEntry = tuple[str, np.dtype[Any], tuple[int, ...]]


def _wlm_layout(entries: Sequence[_WlmEntry],
                ) -> tuple[bytes, dict[str, int], int]:
    """Lay out a ``.wlm`` container of the named ``(dtype, shape)``
    arrays, in order: the envelope (magic, header length, JSON header),
    each array's absolute offset and the file's length."""
    # The header records absolute offsets, and offsets depend on the
    # header's own length — so reserve a whole span for the envelope
    # and grow it until the real header fits.
    span = 1024
    while True:
        offsets: dict[str, int] = {}
        offset = _align_up(span)
        for name, dtype, shape in entries:
            offsets[name] = offset
            end = offset + dtype.itemsize * math.prod(shape)
            offset = _align_up(end)
        header = json.dumps({
            "version": _WLM_VERSION,
            "arrays": [{"name": name, "dtype": dtype.str,
                        "shape": list(shape), "offset": offsets[name]}
                       for name, dtype, shape in entries],
        }).encode()
        envelope = _WLM_MAGIC + len(header).to_bytes(4, "little") + header
        if len(envelope) <= span:
            return envelope, offsets, end
        span *= 2


def _write_at(fh: IO[bytes], offset: int, arr: np.ndarray) -> None:
    """Write ``arr``'s bytes at ``offset``, straight from its buffer."""
    fh.seek(offset)
    fh.write(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))


def save_workload_mmap(path: Path, workload: Workload) -> None:
    """Persist a workload as a mappable ``.wlm`` container (atomic)."""
    arrays = _workload_arrays(workload)
    envelope, offsets, end = _wlm_layout(
        [(name, arr.dtype, arr.shape) for name, arr in arrays.items()])

    def write(fh: IO[bytes]) -> None:
        fh.write(envelope)
        for name, arr in arrays.items():
            _write_at(fh, offsets[name], arr)
        # Padding is the sparse gaps' zeros; the file ends where its
        # last array does.
        fh.truncate(end)

    _atomic_write(Path(path), write)


#: Events per node that :func:`spill_workload` builds per step: whole
#: epochs are grouped up to about this many, so short epochs do not
#: pay a step's fixed cost each and a step's buffers stay small.
_SPILL_STEP_EVENTS = 1 << 16


def spill_workload(path: Path, spec: WorkloadSpec) -> None:
    """Write ``spec``'s workload to ``path`` as a ``.wlm`` spill (atomic)
    without holding it: byte for byte what
    ``save_workload_mmap(path, spec.generate())`` writes.

    A first pass draws every node's epoch rates
    (:meth:`~repro.streams.generator.RateChangeGenerator.plan_seconds`),
    which fixes each stream's length and so the container's layout.
    The second pass builds a step of whole epochs at a time (one epoch,
    or a few short ones): every node's ids, values and timestamps,
    written at their final offsets, and the cut of the windows that end
    in the step.  Epoch ``k`` covers the same ticks in every stream, so
    the merged stream's events before a step are exactly the nodes'
    events before it, and :func:`_merge_cut` over the step's timestamps
    alone finds the window bounds of whole streams.  The bounds and
    header go in last.  A node's step must be timestamp-sorted and lie
    inside its epochs, else :class:`~repro.errors.StreamError`, as
    :func:`build_workload` refuses an unsorted stream.
    """
    sources, duration = _stream_sources(**dataclasses.asdict(spec))
    plans = [gen.plan_seconds(duration) for gen in sources]
    grid = plans[0]  # every plan's epochs start at the same ticks
    # kept[k, a]: node a's events in epoch k.
    kept = np.array([plan.kept for plan in plans], dtype=np.int64).T
    lengths = kept.sum(axis=0)
    window_size, n_windows, n_nodes = (spec.window_size, spec.n_windows,
                                       spec.n_nodes)
    ends = _window_ends(int(lengths.sum()) // window_size, window_size,
                        n_windows)
    # Step edges: epoch indices where the busiest node's running event
    # count crosses a multiple of the step size.
    busiest = np.cumsum(kept.max(axis=1)) // _SPILL_STEP_EVENTS
    edges = [0, *(np.flatnonzero(np.diff(busiest)) + 1).tolist(),
             len(kept)]
    step_total = np.cumsum(kept.sum(axis=1))[np.array(edges[1:]) - 1]
    end_step = np.searchsorted(step_total, ends)
    entries: list[_WlmEntry] = [
        ("meta", np.dtype(np.int64), (3,)),
        ("bounds", np.dtype(np.int64), (n_windows + 1, n_nodes)),
        ("boundary_ts", np.dtype(TS_DTYPE), (n_windows,))]
    for a, n in enumerate(lengths.tolist()):
        entries += [(name, np.dtype(dtype), (n,)) for name, dtype
                    in zip(_column_names(a),
                           (ID_DTYPE, VALUE_DTYPE, TS_DTYPE), strict=True)]
    envelope, offsets, end = _wlm_layout(entries)

    def write(fh: IO[bytes]) -> None:
        bounds = np.zeros((n_windows + 1, n_nodes), dtype=np.int64)
        boundary_ts = np.zeros(n_windows, dtype=TS_DTYPE)
        before = np.zeros(n_nodes, dtype=np.int64)  # events per node
        for step, (k0, k1) in enumerate(itertools.pairwise(edges)):
            first_tick = grid.starts[k0]
            end_tick = grid.starts[k1 - 1] + grid.epoch_ticks
            cut = np.flatnonzero(end_step == step)
            step_columns = []
            for a, (gen, plan) in enumerate(zip(sources, plans, strict=True)):
                ids, ts = plan.ids(k0, k1), plan.ts(k0, k1)
                if len(ts) and (ts[0] < first_tick or ts[-1] >= end_tick
                                or np.any(ts[1:] < ts[:-1])):
                    raise StreamError(
                        f"stream {a} is not timestamp-sorted inside "
                        f"epochs {k0}-{k1 - 1}; per-source streams must "
                        f"be in order")
                for name, col in zip(_column_names(a),
                                     (ids, gen.draw_values(len(ids)), ts),
                                     strict=True):
                    _write_at(fh, offsets[name] + int(before[a])
                              * col.itemsize, col)
                if len(cut):
                    step_columns.append(ts)
            if len(cut):
                counts, cut_ts = _merge_cut(
                    step_columns, ends[cut] - int(before.sum()))
                bounds[cut + 1] = before + counts
                boundary_ts[cut] = cut_ts
            before += kept[k0:k1].sum(axis=0)
        meta = np.array([window_size, n_windows, n_nodes], dtype=np.int64)
        for name, arr in (("meta", meta), ("bounds", bounds),
                          ("boundary_ts", boundary_ts)):
            _write_at(fh, offsets[name], arr)
        fh.seek(0)
        fh.write(envelope)
        fh.truncate(end)

    _atomic_write(Path(path), write)


def load_workload_mmap(path: Path) -> Workload:
    """Map a ``.wlm`` spill read-only; streams are zero-copy views.

    All returned arrays are plain ``ndarray`` views over one shared
    ``np.memmap`` (their ``base``, which keeps it alive); stream columns
    go through ``EventBatch._view``, so N processes loading the same
    spill share one page-cache copy of the workload.  Corrupted or
    truncated containers raise :class:`~repro.errors.StreamError`.
    """
    path = Path(path)
    try:
        mm = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise StreamError(f"unreadable workload spill {path}: {exc}") \
            from None
    raw = mm[:len(_WLM_MAGIC) + 4].tobytes()
    if raw[:len(_WLM_MAGIC)] != _WLM_MAGIC:
        raise StreamError(f"bad workload spill magic in {path}")
    header_len = int.from_bytes(raw[len(_WLM_MAGIC):], "little")
    header_end = len(_WLM_MAGIC) + 4 + header_len
    if header_end > mm.size:
        raise StreamError(f"truncated workload spill header in {path}")
    try:
        header = json.loads(mm[len(_WLM_MAGIC) + 4:header_end]
                            .tobytes())
    except ValueError as exc:
        raise StreamError(
            f"corrupt workload spill header in {path}: {exc}") from None
    if not isinstance(header, dict):
        raise StreamError(
            f"corrupt workload spill header in {path}: not an object")
    if header.get("version") != _WLM_VERSION:
        raise StreamError(
            f"unsupported workload spill version "
            f"{header.get('version')} in {path}")
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise StreamError(
            f"corrupt workload spill header in {path}: no array table")
    arrays = dict(_spill_array(entry, mm, path) for entry in entries)
    try:
        meta = arrays["meta"]
        if meta.shape != (3,) or meta.dtype.kind != "i":
            raise StreamError(
                f"corrupt workload spill meta {meta.dtype.str}"
                f"{list(meta.shape)} in {path}")
        window_size, n_windows, n_nodes = meta.tolist()
        streams = [_spill_stream(arrays, i, path) for i in range(n_nodes)]
        bounds, boundary_ts = arrays["bounds"], arrays["boundary_ts"]
    except KeyError as exc:
        raise StreamError(
            f"workload spill {path} is missing array {exc}") from None
    if bounds.shape != (n_windows + 1, n_nodes) \
            or boundary_ts.shape != (n_windows,) \
            or bounds.dtype != np.int64 or boundary_ts.dtype != TS_DTYPE:
        raise StreamError(
            f"workload spill {path} has bounds {bounds.dtype.str}"
            f"{list(bounds.shape)} and boundary_ts "
            f"{boundary_ts.dtype.str}{list(boundary_ts.shape)} for "
            f"{n_windows} windows of {n_nodes} nodes")
    return Workload(streams=streams, window_size=int(window_size),
                    n_windows=int(n_windows), bounds=bounds,
                    boundary_ts=boundary_ts)


def _spill_array(entry: object, mm: np.ndarray,
                 path: Path) -> tuple[str, np.ndarray]:
    """One table-of-contents entry of a ``.wlm`` spill, validated (a
    named numeric native-order array, non-negative dimensions, an
    aligned offset inside the file) and mapped."""
    bad = StreamError(f"corrupt workload spill entry {entry!r} in {path}")
    if not isinstance(entry, dict):
        raise bad
    try:
        name, dtype = entry["name"], np.dtype(entry["dtype"])
        shape, offset = tuple(entry["shape"]), entry["offset"]
    except (KeyError, TypeError, ValueError):
        raise bad from None
    if not isinstance(name, str) or dtype.kind not in "iuf" \
            or not dtype.isnative \
            or not all(type(n) is int and n >= 0 for n in shape) \
            or type(offset) is not int or offset < 0 \
            or offset % _WLM_ALIGN \
            or offset + dtype.itemsize * math.prod(shape) > mm.size:
        raise bad
    # A base-class view of the mapping, not a slice of the
    # ``np.memmap`` subclass: every later slice of a stream would
    # otherwise run numpy's Python-level ``memmap.__getitem__`` /
    # ``__array_finalize__`` (~10x a plain slice).
    return name, np.ndarray(shape, dtype=dtype, buffer=mm, offset=offset)


def _spill_stream(arrays: dict[str, np.ndarray], node: int,
                  path: Path) -> EventBatch:
    """Node ``node``'s stream of a mapped spill, its columns checked
    here because ``EventBatch._view`` checks nothing."""
    columns = tuple(arrays[name] for name in _column_names(node))
    dtypes = (ID_DTYPE, VALUE_DTYPE, TS_DTYPE)
    if any(col.ndim != 1 or col.dtype != dtype
           for col, dtype in zip(columns, dtypes)) \
            or len({len(col) for col in columns}) != 1:
        raise StreamError(
            f"workload spill {path} stream {node} has columns of "
            f"{[(c.dtype.str, c.shape) for c in columns]}; expected "
            f"three equally long 1-d {ID_DTYPE.__name__}/"
            f"{VALUE_DTYPE.__name__}/{TS_DTYPE.__name__} arrays")
    return EventBatch._view(*columns)


#: Current spill-file generation; part of every spill filename so a
#: layout change orphans old files instead of misparsing them.
SPILL_FORMAT_VERSION = 2

#: Suffix of the (memory-mapped) spill format.
SPILL_SUFFIX = ".wlm"

#: Everything ``clear(spill=True)`` must sweep: every spill generation
#: plus temp files from crashed writers.
_SPILL_GLOBS = (f"wl*_*{SPILL_SUFFIX}", f"{_TMP_PREFIX}*")


def spill_filename(key: str) -> str:
    """Spill-file name for a workload key (single naming authority).

    Both the format generation and the extension live here so cache
    lookups, eviction, and :meth:`WorkloadCache.clear` can never
    disagree about which files belong to the cache.
    """
    return f"wl{SPILL_FORMAT_VERSION}_{key}{SPILL_SUFFIX}"


class WorkloadCache:
    """Two-level content-addressed workload cache.

    Level 1 is an in-process LRU of :class:`Workload` objects; level 2
    is the memory-mapped spill directory shared across processes (one
    page-cache copy per workload, however many workers map it).
    ``get`` generates a workload at most once per distinct spec and
    records hit/miss statistics (the test suite asserts a sweep
    generates each workload exactly once).
    """

    def __init__(self, capacity: int = 8,
                 spill_dir: Path | None = None) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.spill_dir = Path(spill_dir) if spill_dir is not None \
            else default_spill_dir()
        self._lru: "OrderedDict[str, Workload]" = OrderedDict()
        #: Satisfied from the in-process LRU.
        self.memory_hits = 0
        #: Satisfied by loading a spill file.
        self.spill_hits = 0
        #: Cache misses that ran the generator.
        self.generated = 0

    def path(self, spec: WorkloadSpec) -> Path:
        """Spill-file location of one spec's workload."""
        return self.spill_dir / spill_filename(spec.key())

    def get(self, spec: WorkloadSpec) -> Workload:
        """The spec's workload — from memory, spill, or the generator."""
        key = spec.key()
        cached = self._lru.get(key)
        if cached is not None:
            self._lru.move_to_end(key)
            self.memory_hits += 1
            return cached
        path = self.path(spec)
        if path.exists():
            workload = load_workload_mmap(path)
            self.spill_hits += 1
        else:
            # A finished run's cyclic garbage pins workload-sized numpy
            # buffers, and the cycle collector cannot see them: its
            # thresholds count container objects, not array bytes.
            # Collect before generating the next workload so a cold
            # miss does not stack its epochs on top of a dead one.
            gc.collect()
            spill_workload(path, spec)
            self.generated += 1
            # Hand back the mapping, exactly as a spill hit does: the
            # workload was never on the heap, and this process and
            # every worker that maps the spill share one page-cache
            # copy.
            workload = load_workload_mmap(path)
        self._lru[key] = workload
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
        return workload

    def ensure_spilled(self, spec: WorkloadSpec) -> Path:
        """Materialize the spec's spill file and return its path.

        The spill file is re-written if it has gone missing since the
        workload entered the in-memory LRU (deleted spill dir, tmpfs
        cleanup): an in-memory hit alone does not prove the path that
        workers will map still exists.
        """
        self.get(spec)
        path = self.path(spec)
        if not path.exists():
            spill_workload(path, spec)
        return path

    def clear(self, spill: bool = False) -> None:
        """Drop the in-memory LRU; optionally delete spill files too.

        The spill sweep covers every format generation plus temp files
        left by crashed writers, so nothing the cache ever wrote can
        leak past a ``clear(spill=True)``.
        """
        self._lru.clear()
        if spill and self.spill_dir.is_dir():
            for pattern in _SPILL_GLOBS:
                for file in self.spill_dir.glob(pattern):
                    file.unlink(missing_ok=True)


_DEFAULT_CACHE: WorkloadCache | None = None


def default_cache() -> WorkloadCache:
    """The process-wide workload cache (created on first use)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = WorkloadCache()
    return _DEFAULT_CACHE
