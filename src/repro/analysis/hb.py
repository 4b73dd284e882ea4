"""Happens-before analysis of serve traces via vector clocks.

The serve runtime's causal instrumentation (see the *Causal (serve)
kinds* section of :mod:`repro.obs.events`) records, per process, a
``seq``-numbered program order and, per control frame, a
``(sender, fseq)`` identity carried from ``frame_send`` to the matching
``frame_recv``.  Those two edge families are the *entire* communication
structure of a serve run — workers never talk to each other directly —
so threading vector clocks along them reconstructs the full
happens-before partial order from a trace alone, with no access to the
live run.

``analyze_events`` replays a trace (a live :class:`~repro.obs.tracer.
RunTracer`'s events or a JSONL export) and checks:

* **merge-order** — the coordinator's ``op_apply`` stream must be
  strictly increasing in the canonical ``(time, phase, rank, class,
  tie)`` key each event carries (``kt``/``kp``/``kr``/``kc``/``kb``).
  This is the trace-side twin of the model checker's applied-order
  invariant and catches any merge-comparison bug post hoc.
* **apply-without-emit / apply-before-emit** — every epoch ``op_apply``
  names its producing worker item ``(src, epoch, ref)``; the matching
  worker ``op_emit`` must exist and happen-before the apply (the op
  batch cannot be applied before the causal chain that produced it).
* **concurrent-window-write** — any two events touching the same
  window partial (nonempty ``windows`` field) on different processes
  must be happens-before ordered; an unordered pair is a data race on
  the window's state.
* **missing-send / duplicate-frame** — trace integrity: a
  ``frame_recv`` whose ``(sender, fseq)`` send never appears, or two
  sends reusing one frame id, would silently break every edge above.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.events import (COORD_PROCESS, FRAME_RECV, FRAME_SEND,
                              OP_APPLY, OP_EMIT, CAUSAL_KINDS,
                              TraceEvent)

#: The canonical merge key reconstructed from an ``op_apply`` event.
AppliedKey = tuple[float, int, tuple[str, ...], int, tuple[int, ...]]


@dataclass
class HbViolation:
    """One happens-before/ordering violation found in a trace."""

    kind: str
    message: str
    time: float

    def __str__(self) -> str:
        return f"[{self.kind}] t={self.time:.9f}: {self.message}"


@dataclass
class HbReport:
    """The result of one trace analysis."""

    processes: list[str]
    n_events: int
    n_frames: int
    violations: list[HbViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def applied_key(data: dict[str, Any]) -> AppliedKey:
    """Reassemble the canonical merge key an ``op_apply`` carries.

    The key travels as scalars (trace data is JSON-scalar only):
    ``kt`` time, ``kp`` phase, ``kr`` comma-joined rank, ``kc`` class,
    ``kb`` comma-joined tie-break ints.
    """
    rank = tuple(str(data["kr"]).split(",")) if data["kr"] else ()
    tie = tuple(int(x) for x in str(data["kb"]).split(",") if x != "")
    return (float(data["kt"]), int(data["kp"]), rank, int(data["kc"]),
            tie)


class _CausalEvent:
    """One causal trace event plus its computed vector clock."""

    __slots__ = ("event", "seq", "vc")

    def __init__(self, event: TraceEvent) -> None:
        self.event = event
        self.seq = int(event.data["seq"])
        self.vc: dict[str, int] = {}

    def happens_before(self, other: "_CausalEvent") -> bool:
        """VC test: self's knowledge is contained in other's."""
        return all(other.vc.get(proc, 0) >= count
                   for proc, count in self.vc.items())


def _causal_events(events: list[TraceEvent]
                   ) -> dict[str, list[_CausalEvent]]:
    """Per-process causal events in program (``seq``) order.

    A merged serve trace is re-sorted by virtual time, which interleaves
    processes arbitrarily at equal times — ``seq`` is the only faithful
    program order.
    """
    per: dict[str, list[_CausalEvent]] = {}
    for event in events:
        if event.kind in CAUSAL_KINDS and "seq" in event.data:
            per.setdefault(event.node, []).append(_CausalEvent(event))
    for track in per.values():
        track.sort(key=lambda c: c.seq)
    return per


def _thread_clocks(per: dict[str, list[_CausalEvent]],
                   violations: list[HbViolation]) -> int:
    """Assign vector clocks; returns the matched-frame count.

    Standard vector-clock replay: each process ticks its own component
    per event; a ``frame_recv`` additionally joins the clock of its
    matching ``frame_send``.  A recv is *enabled* only once its send
    has been replayed, so replay order follows causality, not trace
    order; a pass over every process with no progress means some recv
    can never be enabled — flagged ``missing-send`` and forced through
    so the rest of the trace still gets analyzed.
    """
    send_vcs: dict[tuple[str, int], dict[str, int]] = {}
    clocks: dict[str, dict[str, int]] = {p: {} for p in per}
    cursor: dict[str, int] = {p: 0 for p in per}
    n_frames = 0
    forced: set[int] = set()

    def replay(proc: str, cev: _CausalEvent) -> None:
        nonlocal n_frames
        clock = clocks[proc]
        clock[proc] = clock.get(proc, 0) + 1
        data = cev.event.data
        if cev.event.kind == FRAME_RECV:
            frame = (str(data["edge"]), int(data["fseq"]))
            sent = send_vcs.get(frame)
            if sent is not None:
                n_frames += 1
                for other, count in sent.items():
                    if clock.get(other, 0) < count:
                        clock[other] = count
        cev.vc = dict(clock)
        if cev.event.kind == FRAME_SEND:
            frame = (proc, int(data["fseq"]))
            if frame in send_vcs:
                violations.append(HbViolation(
                    "duplicate-frame",
                    f"process {proc!r} sent frame id {frame[1]} twice",
                    cev.event.time))
            send_vcs[frame] = dict(clock)

    while True:
        progressed = False
        for proc, track in per.items():
            while cursor[proc] < len(track):
                cev = track[cursor[proc]]
                if cev.event.kind == FRAME_RECV and id(cev) not in \
                        forced:
                    frame = (str(cev.event.data["edge"]),
                             int(cev.event.data["fseq"]))
                    if frame not in send_vcs:
                        break
                replay(proc, cev)
                cursor[proc] += 1
                progressed = True
        if all(cursor[p] >= len(per[p]) for p in per):
            return n_frames
        if not progressed:
            # Every runnable event is a recv of an unreplayed send:
            # either the send is later in its sender's track (a causal
            # cycle — impossible in a faithful trace) or absent.
            for proc, track in per.items():
                if cursor[proc] < len(track):
                    cev = track[cursor[proc]]
                    data = cev.event.data
                    violations.append(HbViolation(
                        "missing-send",
                        f"process {proc!r} received frame "
                        f"({data.get('edge')}, {data.get('fseq')}) "
                        f"with no matching send in the trace",
                        cev.event.time))
                    forced.add(id(cev))
                    break


def _check_merge_order(per: dict[str, list[_CausalEvent]],
                       violations: list[HbViolation]) -> None:
    applies = [c for c in per.get(COORD_PROCESS, ())
               if c.event.kind == OP_APPLY]
    for prev, cur in zip(applies, applies[1:]):
        pk, ck = applied_key(prev.event.data), \
            applied_key(cur.event.data)
        if not pk < ck:
            violations.append(HbViolation(
                "merge-order",
                f"op_apply of {cur.event.data.get('src')}:"
                f"{cur.event.data.get('ref')} key {ck} applied after "
                f"{prev.event.data.get('src')}:"
                f"{prev.event.data.get('ref')} key {pk}",
                cur.event.time))


def _check_emit_apply(per: dict[str, list[_CausalEvent]],
                      violations: list[HbViolation]) -> None:
    emits: dict[tuple[str, int, str], _CausalEvent] = {}
    for proc, track in per.items():
        for cev in track:
            if cev.event.kind == OP_EMIT:
                data = cev.event.data
                if int(data.get("epoch", -1)) < 0:
                    continue  # control rpc batches carry no ref id
                emits[(proc, int(data["epoch"]),
                       str(data["ref"]))] = cev
    for cev in per.get(COORD_PROCESS, ()):
        if cev.event.kind != OP_APPLY:
            continue
        data = cev.event.data
        if int(data.get("epoch", -1)) < 0:
            continue
        key = (str(data["src"]), int(data["epoch"]),
               str(data["ref"]))
        emit = emits.get(key)
        if emit is None:
            violations.append(HbViolation(
                "apply-without-emit",
                f"op_apply of {key} has no matching worker op_emit",
                cev.event.time))
        elif not emit.happens_before(cev):
            violations.append(HbViolation(
                "apply-before-emit",
                f"op_apply of {key} is not happens-after its op_emit "
                f"(emit VC {emit.vc}, apply VC {cev.vc})",
                cev.event.time))


def _check_window_writes(per: dict[str, list[_CausalEvent]],
                         violations: list[HbViolation]) -> None:
    touches: dict[int, list[_CausalEvent]] = {}
    for track in per.values():
        for cev in track:
            windows = str(cev.event.data.get("windows", "") or "")
            for part in windows.split(","):
                if part:
                    touches.setdefault(int(part), []).append(cev)
    for window, cevs in sorted(touches.items()):
        for i, a in enumerate(cevs):
            for b in cevs[i + 1:]:
                if a.event.node == b.event.node:
                    continue  # program order covers same-process pairs
                if not (a.happens_before(b) or b.happens_before(a)):
                    violations.append(HbViolation(
                        "concurrent-window-write",
                        f"window {window} touched concurrently by "
                        f"{a.event.node!r} ({a.event.kind}) and "
                        f"{b.event.node!r} ({b.event.kind}) with no "
                        f"happens-before order",
                        max(a.event.time, b.event.time)))


def analyze_events(events: list[TraceEvent]) -> HbReport:
    """Reconstruct happens-before over a serve trace's events (a live
    tracer's, or parsed from JSONL) and check it."""
    violations: list[HbViolation] = []
    per = _causal_events(events)
    n_frames = _thread_clocks(per, violations)
    _check_merge_order(per, violations)
    _check_emit_apply(per, violations)
    _check_window_writes(per, violations)
    return HbReport(
        processes=sorted(per),
        n_events=sum(len(track) for track in per.values()),
        n_frames=n_frames, violations=violations)


def load_jsonl(path: str | Path) -> list[TraceEvent]:
    """Parse a ``repro trace --format jsonl`` export back to events.

    Inverse of :func:`repro.obs.exporters.event_to_dict`: ``kind``,
    ``t``, ``node`` and optional ``dur`` are positional fields, all
    remaining keys are the event's data.
    """
    events: list[TraceEvent] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: undecodable JSONL line: "
                    f"{exc}") from None
            if not isinstance(raw, dict):
                raise ValueError(f"{path}:{lineno}: not a trace event "
                                 f"(a JSON object): {line[:40]}")
            data = {key: value for key, value in raw.items()
                    if key not in ("kind", "t", "node", "dur")}
            try:
                events.append(TraceEvent(
                    raw["kind"], float(raw["t"]), str(raw["node"]),
                    float(raw.get("dur", 0.0)), data))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a trace event "
                    f"(kind/t/node required): {exc!r}") from None
    return events


def analyze_jsonl(path: str | Path) -> HbReport:
    """:func:`analyze_events` over a JSONL trace file."""
    return analyze_events(load_jsonl(path))
