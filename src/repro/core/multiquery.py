"""Shared multi-query engine: one slice store + partial tree per
(stream, aggregate) serving thousands of standing queries.

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

Shared slice store (per ``(stream, aggregate)`` group)
    One :class:`~repro.core.buffers.PositionBuffer` + one partial tree
    answers ``lift_range`` for *every* query of the group.  Aligned
    chunks are computed once in the tree; the sub-chunk remainders —
    the *union of all registered windows' edges* — land in a shared
    edge-slice memo (:mod:`repro.core.agg_index`'s ``edge_memo``), so
    each edge slice is lifted once no matter how many windows touch it.
    The grid those edges live on is the Scotty-style
    :func:`~repro.windows.slicer.union_slice_size` of the group.

Event-driven emission
    Each group keeps a heap of its evaluations keyed ``(next window
    end, admission seq)``; a batch pops only the windows it closes —
    O(windows that close x log N), not O(registered queries).  A second,
    lazily refreshed heap yields the eviction horizon.  Cross-query
    emission order is in no fingerprint: each account digests its own
    windows in index order.

Bit-identity contract
    Every window value is ``fn.lower(buffer.lift_range(start, end))``
    where the decomposition and combine association are pure functions
    of ``(start, end, chunk_size)`` — never of what other queries are
    registered or what happens to be memoized.  The reference
    ``MultiQueryEngine(sharing=False)`` runs each query as a fully
    independent pipeline (private buffer, private tree, no dedup, no
    edge memo) and computes the *same* decomposition, so per-query
    results and fingerprints are bit-identical to the shared engine's;
    sharing changes only memory and host wall-clock.

Cost accounting
    Each admitted query owns a :class:`QueryAccount`: windows emitted,
    a streaming result fingerprint, and the combine/edge-lift cost its
    evaluation actually paid.  A deduped duplicate pays nothing
    (``deduped_into`` names the owning query); under the unshared
    reference it pays full freight — the delta *is* the sharing
    benefit.  When a tracer is enabled the same quantities surface as
    ``mq_*`` counters scoped per query id.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heappush, heapreplace
from typing import Any

from repro.aggregates.base import AggregateFunction
from repro.core.agg_index import DEFAULT_CHUNK_SIZE, decomposition_width
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
        return {
            "qid": self.qid,
            "stream": self.stream,
            "label": self.label,
            "query_key": self.query_key,
            "from_position": self.from_position,
            "deduped_into": self.deduped_into,
            "windows": self.windows,
            "combines": self.combines,
            "edge_events": self.edge_events,
            "last_result": self.last_result,
            "fingerprint": self.fingerprint,
        }


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
    """Shared storage for one (stream, aggregate): one buffer, one
    partial tree, one edge-slice memo, many evaluations."""

    def __init__(self, stream: str, fn: AggregateFunction, *,
                 base: int, chunk_size: int) -> None:
        self.stream = stream
        self.fn = fn
        self.buffer = PositionBuffer(
            base, fn, chunk_size=chunk_size, edge_memo=True)
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
        return ev

    def horizon(self, end: int) -> int:
        """Min next window start over the evaluations, at most ``end``
        — everything before it can be evicted."""
        starts = self.starts
        while starts:
            start, seq, ev = starts[0]
            if start == ev.next_start:
                return min(start, end)
            heapreplace(starts, (ev.next_start, seq, ev))
        return end

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
        index = self.buffer.index
        out: dict[str, Any] = {
            "stream": self.stream,
            "aggregate": self.fn.name,
            "queries": sum(len(e.subscribers) for e in self.evals.values()),
            "evals": len(self.evals),
            "slice_grid": self.slice_grid,
            "retained": self.buffer.retained,
            "edge_slices": 0 if index is None else index.edges_cached,
        }
        if index is not None:
            out["nodes_cached"] = index.nodes_cached
            out["edge_hits"] = index.edge_hits
            out["edge_misses"] = index.edge_misses
        return out


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
    private pipeline per query with ``sharing=False`` — and emits every
    completed window into the owning accounts.  Admission is
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
        qid = f"q{len(self._accounts)}"
        account = self._accounts[qid] = QueryAccount(
            qid=qid, stream=stream, label=query.label,
            query_key=query.query_key, from_position=start)
        if self.sharing:
            self._admit_shared(account, query, fn, length, step, start)
        else:
            pipe = _PrivatePipeline(
                account, fn, length=length, step=step, base=pos,
                chunk_size=self.chunk_size)
            self._query_pipes.setdefault(stream, []).append(pipe)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.inc("mq_admitted", stream)
        return qid

    def _admit_shared(self, account: QueryAccount, query: Query,
                      fn: AggregateFunction, length: int, step: int,
                      start: int) -> None:
        stream = account.stream
        groups = self._groups.setdefault(stream, {})
        group = groups.get(fn.name)
        if group is None:
            group = groups[fn.name] = _StreamGroup(
                stream, fn, base=self._stream_end.get(stream, 0),
                chunk_size=self.chunk_size)
        ekey = (query.query_key, start)
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
        """Append to the group's slice store and emit, in ``(end,
        admission)`` order, every window the batch closes."""
        buf = group.buffer
        buf.append(batch)
        end = buf.end
        fn = group.fn
        index = buf.index
        closing = group.closing
        tracer = self.tracer
        checks = 0
        while closing:
            checks += 1
            e, seq, ev = closing[0]
            if e > end:
                break
            subscribers = ev.subscribers
            value = float(fn.lower(buf.lift_range(e - ev.length, e)))
            # The owner pays what the lift just folded: parts minus one
            # combines and the head + tail remainder events (holistic
            # windows re-lift their whole span).
            if index is None:
                combines, edge_events = 0, ev.length
            else:
                combines = index.last_width - 1
                edge_events = index.last_edge_events
            owner = subscribers[0]
            owner.combines += combines
            owner.edge_events += edge_events
            if tracer is not None and tracer.enabled:
                tracer.inc("mq_combines", owner.qid, combines)
            for account in subscribers:
                account.record(ev.next_window, value)
                if tracer is not None and tracer.enabled:
                    tracer.inc("mq_windows", account.qid)
            ev.next_window += 1
            heapreplace(closing, (e + ev.step, seq, ev))
        self.head_checks += checks
        horizon = group.horizon(end)
        if horizon > buf.base:
            buf.release_before(horizon)

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
        try:
            return self._accounts[qid]
        except KeyError:
            raise ConfigurationError(f"unknown query id {qid!r}") from None

    def accounts(self) -> dict[str, QueryAccount]:
        """All accounts, admission order."""
        return dict(self._accounts)

    def accounts_json(self) -> dict[str, dict[str, Any]]:
        """JSON-safe per-query accounts (``RunResult.queries``)."""
        return {qid: a.to_json()
                for qid, a in self._accounts.items()}

    def fingerprints(self) -> dict[str, str]:
        """Per-query result fingerprints (shared-vs-reference checks)."""
        return {qid: a.fingerprint
                for qid, a in self._accounts.items()}

    def stats(self) -> dict[str, Any]:
        """Engine-level storage statistics (benchmarks, tests)."""
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
