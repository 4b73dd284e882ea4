"""Shared multi-query engine: one value store per (stream, aggregate)
serving thousands of standing queries.

The paper evaluates one query at a time; real IoT serving multiplexes
thousands of *standing queries* (different lengths, slides, aggregates)
over the same streams.  Run independently, every query pays its own
buffer, its own event lifts, and its own
:class:`~repro.core.agg_index.RangeAggregateIndex` — O(queries) copies
of identical work.  This module shares the substrate instead:

Admission
    Admitted :class:`~repro.core.query.Query` specs take ids ``q0, q1,
    ...`` in admission order and are deduped per (stream, aggregate) by
    their content-derived :attr:`~repro.core.query.Query.query_key` —
    two identical specs admitted at the same position share one
    evaluation and each still receives every window in its own account.

Shared value store (per ``(stream, aggregate)`` group)
    One contiguous float64 store of the group's retained values, plus
    the windows that have closed but are not yet evaluated.  A flush
    evaluates all of them at once with
    :func:`~repro.core.agg_index.fold_windows`: remainders gathered
    into rows per distinct width, chunk leaves and their parents built
    once for the whole store, and every window's canonical cover
    folded column by column through the aggregate's columnar kernel.
    The group's Scotty-style
    :func:`~repro.windows.slicer.union_slice_size` is reported by
    :meth:`MultiQueryEngine.stats`.

Event-driven emission and deferred flushes
    Each group keeps a heap of its evaluations keyed ``(next window
    end, admission seq)``; a batch pops only the windows it closes —
    O(windows that close x log N), not O(registered queries) — and
    queues them.  A group flushes once its store holds more than twice
    its longest window, and every read (:meth:`~MultiQueryEngine.account`,
    ``accounts``, ``accounts_json``, ``fingerprints``, ``stats``)
    flushes every group first, so deferral is never visible.  After a
    flush the store is evicted up to the min next window start (a
    second, lazily refreshed heap), which leaves less than one longest
    window.  Cross-query emission order is in no fingerprint: each
    account digests its own windows in index order.

Bit-identity contract
    Every window value is bit-for-bit
    ``fn.lower(buffer.lift_range(start, end))``: the decomposition and
    combine association are pure functions of ``(start, end,
    chunk_size)`` — never of what other queries are registered or how
    the flushes fall — and each columnar kernel repeats its scalar
    ``lift``/``combine``/``lower`` float operations in the same order.
    The reference ``MultiQueryEngine(sharing=False)`` runs each query
    as a fully independent pipeline (private buffer, private tree, no
    dedup, one scalar lift per window), so per-query results and
    fingerprints are bit-identical to the shared engine's; sharing
    changes only memory and host wall-clock.

Cost accounting
    Each admitted query owns a :class:`QueryAccount`: windows emitted,
    a streaming result fingerprint, and the combine/edge-lift cost its
    evaluation actually paid (the fold's parts minus one and its head +
    tail remainder length per window).  A deduped duplicate pays
    nothing (``deduped_into`` names the owning query); under the
    unshared reference it pays full freight — the delta *is* the
    sharing benefit.  When a tracer is enabled the same quantities
    surface as ``mq_*`` counters scoped per query id, complete after a
    read.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from heapq import heappush, heapreplace
from typing import Any

import numpy as np

from repro.aggregates.base import AggregateFunction
from repro.core.agg_index import (DEFAULT_CHUNK_SIZE, decomposition_width,
                                  fold_windows)
from repro.core.buffers import PositionBuffer
from repro.core.query import Query, parse_query_spec
from repro.errors import ConfigurationError
from repro.streams.batch import EventBatch
from repro.windows.base import SlidingCountWindow, TumblingCountWindow
from repro.windows.slicer import union_slice_size

def _count_window(query: Query) -> tuple[int, int]:
    """(length, step) of a count-window query."""
    win = query.window
    if isinstance(win, SlidingCountWindow):
        return win.length, win.step
    return win.length, win.length


def _aggregate_of(query: Query) -> AggregateFunction:
    agg = query.aggregate
    if not isinstance(agg, AggregateFunction):  # pragma: no cover
        raise ConfigurationError(f"unresolved aggregate {agg!r}")
    return agg


class _AccountRecord:
    """An account's JSON record, held as this class's instance
    ``__dict__``: instance dicts of one class share a single key table
    (PEP 412), so a record costs ~190 B where a dict literal of its 11
    keys costs ~470 B.  A result holds one record per standing query,
    and callers keep many results (sweeps keep every cell, the
    benchmark harness every round)."""

    qid: str
    stream: str
    label: str
    query_key: str
    from_position: int
    deduped_into: str | None
    windows: int
    combines: int
    edge_events: int
    last_result: float | None
    fingerprint: str


@dataclass
class QueryAccount:
    """Per-query results fingerprint and cost ledger.

    ``fingerprint`` streams over ``(window_index, result-bits)`` pairs
    in emission order — the quantity compared against the unshared
    reference.  ``combines``/``edge_events`` record the evaluation
    cost this query actually paid: a deduped duplicate in shared mode
    pays nothing and points at its owner via ``deduped_into``.
    """

    qid: str
    stream: str
    label: str
    query_key: str
    from_position: int
    deduped_into: str | None = None
    windows: int = 0
    combines: int = 0
    edge_events: int = 0
    last_result: float | None = None
    _digest: Any = field(default_factory=hashlib.sha256, repr=False)

    def record(self, index: int, result: float) -> None:
        self.windows += 1
        self.last_result = result
        self._digest.update(f"{index}:{result.hex()};".encode("ascii"))

    @property
    def fingerprint(self) -> str:
        """Hash over every emitted ``(window_index, result)`` pair,
        ``float.hex`` bits, in emission order."""
        return str(self._digest.hexdigest())

    def to_json(self) -> dict[str, Any]:
        record = _AccountRecord()
        record.qid = self.qid
        record.stream = self.stream
        record.label = self.label
        record.query_key = self.query_key
        record.from_position = self.from_position
        record.deduped_into = self.deduped_into
        record.windows = self.windows
        record.combines = self.combines
        record.edge_events = self.edge_events
        record.last_result = self.last_result
        record.fingerprint = self.fingerprint
        return vars(record)


@dataclass
class _QueryEval:
    """One shared evaluation: a unique (spec, admission position) in a
    group, serving every subscribed account."""

    length: int
    step: int
    from_position: int
    next_window: int = 0
    #: Every account admitted with this spec at this position; the
    #: first is the owner, which pays for the evaluation.
    subscribers: list[QueryAccount] = field(default_factory=list)

    @property
    def next_start(self) -> int:
        return self.from_position + self.next_window * self.step


class _StreamGroup:
    """Shared storage for one (stream, aggregate): one contiguous value
    store and the windows it owes, many evaluations."""

    def __init__(self, stream: str, fn: AggregateFunction, *,
                 base: int) -> None:
        self.stream = stream
        self.fn = fn
        #: Absolute stream position of ``store[0]``.
        self.base = base
        #: Retained values from ``base`` on; what was fed since the last
        #: flush waits in ``fed`` until the flush concatenates it.
        self.store = np.empty(0, dtype=np.float64)
        self.fed: list[np.ndarray] = []
        self.end = base
        #: Longest registered window: the store flushes once it holds
        #: more than twice this many events.
        self.longest = 0
        #: Closed windows not yet evaluated, in closing order, as
        #: ``(evaluation, window index)``.
        self.pending: list[tuple[_QueryEval, int]] = []
        #: Evaluations keyed (query_key, from_position).
        self.evals: dict[tuple[str, int], _QueryEval] = {}
        #: Min-heap of ``(next window end, seq, evaluation)``: its head
        #: is the next window of the group to close.
        self.closing: list[tuple[int, int, _QueryEval]] = []
        #: Min-heap of ``(next window start, seq, evaluation)``.  Starts
        #: only grow, so a stored key is a lower bound of the true one
        #: and is refreshed only when it reaches the head.
        self.starts: list[tuple[int, int, _QueryEval]] = []

    def add(self, ekey: tuple[str, int], length: int,
            step: int) -> _QueryEval:
        """Register the evaluation of one new (spec, position); its
        admission ordinal is the heaps' deterministic tie-break."""
        start, seq = ekey[1], len(self.evals)
        ev = self.evals[ekey] = _QueryEval(length, step, start)
        heappush(self.closing, (start + length, seq, ev))
        heappush(self.starts, (start, seq, ev))
        self.longest = max(self.longest, length)
        return ev

    def horizon(self) -> int:
        """Min next window start over the evaluations, at most the
        stream end — everything before it can be evicted."""
        starts = self.starts
        while starts:
            start, seq, ev = starts[0]
            if start == ev.next_start:
                return min(start, self.end)
            heapreplace(starts, (ev.next_start, seq, ev))
        return self.end

    @property
    def slice_grid(self) -> int:
        """Scotty-style union-of-edges slice size of the group's
        evaluations."""
        specs: list[TumblingCountWindow | SlidingCountWindow] = [
            SlidingCountWindow(ev.length, ev.step) if ev.step < ev.length
            else TumblingCountWindow(ev.length)
            for ev in self.evals.values()]
        return union_slice_size(specs)

    def stats(self) -> dict[str, Any]:
        return {
            "stream": self.stream,
            "aggregate": self.fn.name,
            "queries": sum(len(e.subscribers) for e in self.evals.values()),
            "evals": len(self.evals),
            "slice_grid": self.slice_grid,
            "retained": self.end - self.base,
        }


class _PrivatePipeline:
    """Unshared-mode evaluation: one query, its own buffer + tree."""

    def __init__(self, account: QueryAccount, fn: AggregateFunction, *,
                 length: int, step: int, base: int,
                 chunk_size: int) -> None:
        self.account = account
        self.fn = fn
        self.length = length
        self.step = step
        self.buffer = PositionBuffer(base, fn, chunk_size=chunk_size)
        self.next_window = 0

    @property
    def next_start(self) -> int:
        return (self.account.from_position
                + self.next_window * self.step)


class MultiQueryEngine:
    """Standing-query evaluator over per-node streams.

    Fed from each local behavior's ingest path (every scheme), the
    engine maintains one shared group per (stream, aggregate) — or one
    private pipeline per query with ``sharing=False`` — and books every
    completed window into the owning accounts (shared groups at their
    next flush; every read flushes first).  Admission is
    positional: a query admitted at stream position ``p`` sees
    exactly the windows ``[p + k*step, p + k*step + length)``, so
    the simulator and serve runtimes agree bit-for-bit.
    """

    def __init__(self, *, sharing: bool = True,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 tracer: Any = None) -> None:
        self.sharing = sharing
        self.chunk_size = chunk_size
        self.tracer = tracer
        #: Every admitted query's account, in admission order.
        self._accounts: dict[str, QueryAccount] = {}
        #: Shared groups, stream -> aggregate name -> group.
        self._groups: dict[str, dict[str, _StreamGroup]] = {}
        self._query_pipes: dict[str, list[_PrivatePipeline]] = {}
        self._stream_end: dict[str, int] = {}
        #: Heap heads examined by shared emission: one per window closed
        #: plus one per group feed.
        self.head_checks = 0

    # -- admission ----------------------------------------------------------

    def admit(self, stream: str, query: Query | str, *,
              at: int | None = None) -> str:
        """Register a standing query on ``stream``; returns its id.

        ``at`` is the absolute stream position the query's first window
        starts at — it must not precede the stream's current position
        (admission is forward-only, so both sharing modes and all
        runtimes see identical data).  Defaults to the current
        position.  Ids are ``q0, q1, ...`` in admission order.
        """
        if isinstance(query, str):
            query = parse_query_spec(query)
        length, step = _count_window(query)
        fn = _aggregate_of(query)
        pos = self._stream_end.get(stream, 0)
        start = pos if at is None else at
        if start < pos:
            raise ConfigurationError(
                f"admission at {start} precedes stream position {pos}: "
                "admission is forward-only")
        # Interned: every run of a query set names its accounts with
        # the same strings, so the results of many runs share them.
        qid = sys.intern(f"q{len(self._accounts)}")
        account = self._accounts[qid] = QueryAccount(
            qid=qid, stream=sys.intern(stream),
            label=sys.intern(query.label),
            query_key=sys.intern(query.query_key), from_position=start)
        if self.sharing:
            self._admit_shared(account, fn, length, step)
        else:
            pipe = _PrivatePipeline(
                account, fn, length=length, step=step, base=pos,
                chunk_size=self.chunk_size)
            self._query_pipes.setdefault(stream, []).append(pipe)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.inc("mq_admitted", stream)
        return qid

    def _admit_shared(self, account: QueryAccount,
                      fn: AggregateFunction, length: int,
                      step: int) -> None:
        stream = account.stream
        groups = self._groups.setdefault(stream, {})
        group = groups.get(fn.name)
        if group is None:
            group = groups[fn.name] = _StreamGroup(
                stream, fn, base=self._stream_end.get(stream, 0))
        ekey = (account.query_key, account.from_position)
        ev = group.evals.get(ekey)
        if ev is None:
            ev = group.add(ekey, length, step)
        else:
            account.deduped_into = ev.subscribers[0].qid
        ev.subscribers.append(account)

    # -- ingestion ----------------------------------------------------------

    def append(self, stream: str, batch: EventBatch) -> None:
        """Feed events arriving on ``stream`` in order; emits every
        window the batch completes into the subscribed accounts."""
        n = len(batch)
        if n == 0:
            return
        self._stream_end[stream] = self._stream_end.get(stream, 0) + n
        if self.sharing:
            for group in self._groups.get(stream, {}).values():
                self._feed_group(group, batch)
            return
        # Reference path: with sharing disabled every standing query
        # pays its own buffer append, tree extension, and range lift —
        # the per-query loop the no-per-query-lifts layout row flags
        # (it exempts this method by name), kept deliberately as
        # the bit-identity oracle for the shared path.
        for pipe in self._query_pipes.get(stream, ()):
            buf = pipe.buffer
            buf.append(batch)
            end = buf.end
            account = pipe.account
            fn = pipe.fn
            while pipe.next_start + pipe.length <= end:
                s = pipe.next_start
                e = s + pipe.length
                value = float(fn.lower(buf.lift_range(s, e)))
                self._charge(account, s, e, fn)
                account.record(pipe.next_window, value)
                self._trace_window(account)
                pipe.next_window += 1
            horizon = pipe.next_start
            if horizon > buf.base:
                buf.release_before(horizon)

    def _feed_group(self, group: _StreamGroup, batch: EventBatch) -> None:
        """Append to the group's store and queue, in ``(end,
        admission)`` order, every window the batch closes; flush once
        the store holds more than twice the longest window."""
        group.fed.append(batch.values)
        group.end = end = group.end + len(batch)
        closing = group.closing
        pending = group.pending
        checks = 0
        while closing:
            checks += 1
            e, seq, ev = closing[0]
            if e > end:
                break
            pending.append((ev, ev.next_window))
            ev.next_window += 1
            heapreplace(closing, (e + ev.step, seq, ev))
        self.head_checks += checks
        if end - group.base > 2 * group.longest:
            self._flush(group)

    def _flush(self, group: _StreamGroup) -> None:
        """Evaluate every pending window of the group in one columnar
        pass, book each into its subscribers (the owner pays what the
        fold cost), and evict the store up to the group's horizon."""
        if group.fed:
            group.store = np.concatenate([group.store, *group.fed])
            group.fed.clear()
        pending = group.pending
        if pending:
            fn = group.fn
            starts = np.array(
                [ev.from_position + index * ev.step
                 for ev, index in pending], dtype=np.int64)
            lengths = np.array([ev.length for ev, _ in pending],
                               dtype=np.int64)
            ends = starts + lengths
            if fn.is_decomposable:
                partials, parts, edges = fold_windows(
                    fn, group.store, group.base, starts, ends,
                    self.chunk_size)
                results = fn.lower_columns(partials).tolist()
                combines = (parts - 1).tolist()
                edge_events = edges.tolist()
            else:
                # Holistic windows re-lift their whole span.
                store, base = group.store, group.base
                results = [float(fn.lower(store[s - base:e - base]))
                           for s, e in zip(starts.tolist(),
                                           ends.tolist())]
                combines = [0] * len(pending)
                edge_events = lengths.tolist()
            tracer = self.tracer
            for (ev, index), value, paid, edge in zip(
                    pending, results, combines, edge_events, strict=True):
                subscribers = ev.subscribers
                owner = subscribers[0]
                owner.combines += paid
                owner.edge_events += edge
                if tracer is not None and tracer.enabled:
                    tracer.inc("mq_combines", owner.qid, paid)
                for account in subscribers:
                    account.record(index, value)
                    if tracer is not None and tracer.enabled:
                        tracer.inc("mq_windows", account.qid)
            pending.clear()
        horizon = group.horizon()
        if horizon > group.base:
            group.store = group.store[horizon - group.base:]
            group.base = horizon

    def _flush_all(self) -> None:
        """Evaluate every window closed so far (each read does this
        first, so deferral is never visible)."""
        for groups in self._groups.values():
            for group in groups.values():
                self._flush(group)

    def _charge(self, account: QueryAccount, start: int, end: int,
                fn: AggregateFunction) -> None:
        """Book one window lift to ``account`` (unshared oracle:
        recomputed from the span, not read back from the index)."""
        if fn.is_decomposable:
            width = decomposition_width(start, end, self.chunk_size)
            combines = max(0, width - 1)
            size = self.chunk_size
            head_end = min(end, -(-start // size) * size)
            tail_start = max(head_end, (end // size) * size)
            edge = (head_end - start) + (end - tail_start)
        else:
            # Holistic windows re-lift their whole span.
            combines = 0
            edge = end - start
        account.combines += combines
        account.edge_events += edge
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.inc("mq_combines", account.qid, combines)

    def _trace_window(self, account: QueryAccount) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.inc("mq_windows", account.qid)

    # -- introspection ------------------------------------------------------

    def account(self, qid: str) -> QueryAccount:
        self._flush_all()
        try:
            return self._accounts[qid]
        except KeyError:
            raise ConfigurationError(f"unknown query id {qid!r}") from None

    def accounts(self) -> dict[str, QueryAccount]:
        """All accounts, admission order."""
        self._flush_all()
        return dict(self._accounts)

    def accounts_json(self) -> dict[str, dict[str, Any]]:
        """JSON-safe per-query accounts (``RunResult.queries``)."""
        self._flush_all()
        return {qid: a.to_json()
                for qid, a in self._accounts.items()}

    def fingerprints(self) -> dict[str, str]:
        """Per-query result fingerprints (shared-vs-reference checks)."""
        self._flush_all()
        return {qid: a.fingerprint
                for qid, a in self._accounts.items()}

    def stats(self) -> dict[str, Any]:
        """Engine-level storage statistics (benchmarks, tests)."""
        self._flush_all()
        return {
            "sharing": self.sharing,
            "groups": [g.stats() for groups in self._groups.values()
                       for g in groups.values()],
            "pipelines": sum(len(p) for p in self._query_pipes.values()),
            "head_checks": self.head_checks,
        }

    def __repr__(self) -> str:
        return (f"MultiQueryEngine(sharing={self.sharing}, "
                f"queries={len(self._accounts)}, "
                f"groups={sum(map(len, self._groups.values()))})")
