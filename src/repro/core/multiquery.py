"""Shared multi-query engine: one slice store + partial tree per
(stream, aggregate) serving thousands of standing queries.

The paper evaluates one query at a time; real IoT serving multiplexes
thousands of *standing queries* (different lengths, slides, aggregates)
over the same streams.  Run independently, every query pays its own
buffer, its own event lifts, and its own
:class:`~repro.core.agg_index.RangeAggregateIndex` — O(queries) copies
of identical work.  This module shares the substrate instead:

``QueryRegistry``
    Admission/removal bookkeeping.  Registered :class:`~repro.core.
    query.Query` specs are deduped per (stream, aggregate) by their
    content-derived :attr:`~repro.core.query.Query.query_key` — two
    identical specs admitted at the same position share one evaluation
    and each still receives every window in its own account.

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
    lazily refreshed heap yields the eviction horizon; removal is lazy
    deletion from both.  Cross-query emission order is in no
    fingerprint: each account digests its own windows in index order.

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
from heapq import heappop, heappush, heapreplace
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
    removed_at: int | None = None
    deduped_into: str | None = None
    windows: int = 0
    combines: int = 0
    edge_events: int = 0
    last_result: float | None = None
    #: Retained ``(window_index, result)`` pairs when the engine was
    #: built with ``keep_results=True`` (tests/benchmarks only).
    results: list[tuple[int, float]] | None = None
    _digest: Any = field(default_factory=hashlib.sha256, repr=False)

    def record(self, index: int, result: float) -> None:
        self.windows += 1
        self.last_result = result
        self._digest.update(f"{index}:{result.hex()};".encode("ascii"))
        if self.results is not None:
            self.results.append((index, result))

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
            "removed_at": self.removed_at,
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
    #: Empty once every subscriber was removed; the heaps drop such an
    #: evaluation when it next reaches their head.
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
        #: Live evaluations keyed (query_key, from_position).
        self.evals: dict[tuple[str, int], _QueryEval] = {}
        #: Min-heap of ``(next window end, seq, evaluation)``: its head
        #: is the next window of the group to close.
        self.closing: list[tuple[int, int, _QueryEval]] = []
        #: Min-heap of ``(next window start, seq, evaluation)``.  Starts
        #: only grow, so a stored key is a lower bound of the true one
        #: and is refreshed only when it reaches the head.
        self.starts: list[tuple[int, int, _QueryEval]] = []
        #: Next ``seq``: the heaps' deterministic tie-break.
        self._admitted = 0

    def add(self, ekey: tuple[str, int], length: int,
            step: int) -> _QueryEval:
        """Register the evaluation of one new (spec, position)."""
        start = ekey[1]
        ev = self.evals[ekey] = _QueryEval(length, step, start)
        heappush(self.closing, (start + length, self._admitted, ev))
        heappush(self.starts, (start, self._admitted, ev))
        self._admitted += 1
        return ev

    def horizon(self, end: int) -> int:
        """Min next window start over live evaluations, at most
        ``end`` — everything before it can be evicted."""
        starts = self.starts
        while starts:
            start, seq, ev = starts[0]
            if not ev.subscribers:
                heappop(starts)
            elif start != ev.next_start:
                heapreplace(starts, (ev.next_start, seq, ev))
            else:
                return min(start, end)
        return end

    @property
    def slice_grid(self) -> int:
        """Scotty-style union-of-edges slice size of the group's live
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


class QueryRegistry:
    """Admission-ordered registry of standing queries.

    Pure bookkeeping (no storage): maps query ids to accounts, dedups
    specs by :attr:`Query.query_key` per (stream, aggregate, admission
    position), and hands out deterministic ids ``q0, q1, ...`` when the
    caller does not name them.
    """

    def __init__(self) -> None:
        self._accounts: dict[str, QueryAccount] = {}
        self._next = 0

    def new_qid(self) -> str:
        qid = f"q{self._next}"
        self._next += 1
        return qid

    def add(self, account: QueryAccount) -> None:
        if account.qid in self._accounts:
            raise ConfigurationError(
                f"duplicate query id {account.qid!r}")
        self._accounts[account.qid] = account

    def get(self, qid: str) -> QueryAccount:
        try:
            return self._accounts[qid]
        except KeyError:
            raise ConfigurationError(f"unknown query id {qid!r}") from None

    def accounts(self) -> dict[str, QueryAccount]:
        """All accounts (including removed), admission order."""
        return dict(self._accounts)

    def __len__(self) -> int:
        return len(self._accounts)


class MultiQueryEngine:
    """Standing-query evaluator over per-node streams.

    Fed from each local behavior's ingest path (every scheme), the
    engine maintains one shared group per (stream, aggregate) — or one
    private pipeline per query with ``sharing=False`` — and emits every
    completed window into the owning accounts.  Admission and removal
    are positional: a query admitted at stream position ``p`` sees
    exactly the windows ``[p + k*step, p + k*step + length)``, so
    the simulator and serve runtimes agree bit-for-bit.
    """

    def __init__(self, *, sharing: bool = True,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 tracer: Any = None,
                 keep_results: bool = False) -> None:
        self.sharing = sharing
        self.chunk_size = chunk_size
        self.tracer = tracer
        self.keep_results = keep_results
        self.registry = QueryRegistry()
        #: Shared groups, stream -> aggregate name -> group.
        self._groups: dict[str, dict[str, _StreamGroup]] = {}
        self._query_pipes: dict[str, list[_PrivatePipeline]] = {}
        #: Shared-mode reverse route: qid -> (aggregate name, eval key).
        self._routes: dict[str, tuple[str, tuple[str, int]]] = {}
        self._stream_end: dict[str, int] = {}
        #: Heap heads examined by shared emission: one per window closed
        #: (or removed evaluation dropped) plus one per group feed.
        self.head_checks = 0

    # -- admission / removal -----------------------------------------------

    def admit(self, stream: str, query: Query | str, *,
              at: int | None = None, qid: str | None = None) -> str:
        """Register a standing query on ``stream``; returns its id.

        ``at`` is the absolute stream position the query's first window
        starts at — it must not precede the stream's current position
        (admission is forward-only, so both sharing modes and all
        runtimes see identical data).  Defaults to the current
        position.  ``qid`` may be supplied for cross-process admission
        (serve ops broadcast explicit ids so every worker agrees).
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
        qid = self.registry.new_qid() if qid is None else qid
        account = QueryAccount(
            qid=qid, stream=stream, label=query.label,
            query_key=query.query_key, from_position=start)
        if self.keep_results:
            account.results = []
        self.registry.add(account)
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
        self._routes[account.qid] = (fn.name, ekey)

    def remove(self, qid: str) -> QueryAccount:
        """Stop a standing query; its account (and fingerprint over the
        windows it did see) is retained.  Surviving queries' window
        values are pure functions of their own spans, so removal never
        perturbs them — it only relaxes the eviction horizon."""
        account = self.registry.get(qid)
        if account.removed_at is not None:
            raise ConfigurationError(f"query {qid!r} already removed")
        stream = account.stream
        account.removed_at = self._stream_end.get(stream, 0)
        if self.sharing:
            agg, ekey = self._routes.pop(qid)
            groups = self._groups[stream]
            group = groups[agg]
            ev = group.evals[ekey]
            ev.subscribers = [a for a in ev.subscribers if a.qid != qid]
            if not ev.subscribers:
                # Lazy deletion: the heaps drop ``ev`` at their head.
                del group.evals[ekey]
            if not group.evals:
                del groups[agg]
        else:
            pipes = self._query_pipes.get(stream, [])
            self._query_pipes[stream] = [
                p for p in pipes if p.account.qid != qid]
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.inc("mq_removed", stream)
        return account

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
        # the per-query loop DL011 exists to flag, kept deliberately as
        # the bit-identity oracle for the shared path.
        for pipe in self._query_pipes.get(stream, ()):  # decolint: disable=DL011
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
            if not subscribers:
                heappop(closing)
                continue
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

    @property
    def n_active(self) -> int:
        """Standing queries currently admitted and not removed."""
        return sum(1 for a in self.registry.accounts().values()
                   if a.removed_at is None)

    def account(self, qid: str) -> QueryAccount:
        return self.registry.get(qid)

    def accounts(self) -> dict[str, QueryAccount]:
        """All accounts (including removed), admission order."""
        return self.registry.accounts()

    def accounts_json(self) -> dict[str, dict[str, Any]]:
        """JSON-safe per-query accounts (``RunResult.queries``)."""
        return {qid: a.to_json()
                for qid, a in self.registry.accounts().items()}

    def fingerprints(self) -> dict[str, str]:
        """Per-query result fingerprints (shared-vs-reference checks)."""
        return {qid: a.fingerprint
                for qid, a in self.registry.accounts().items()}

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
                f"queries={len(self.registry)}, "
                f"groups={sum(map(len, self._groups.values()))})")
