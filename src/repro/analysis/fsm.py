"""Protocol FSM checker: validate traced message flows per scheme.

Every scheme's protocol is declared here as a small finite-state
machine over ``(direction, message-class)`` tokens, one machine per
root<->local pair.  The checker replays a run's traced ``msg_send``
events through the declared machine and reports any transition the
declaration does not allow — a protocol-conformance bug (message out of
phase, unexpected class on a flow) that aggregate byte/message counts
would average away.

Tokens:

* direction ``"up"`` — a local node sending to the root,
* ``"down"`` — the root sending to a local,
* ``"peer"`` — local-to-local traffic (Deco_monlocal's rate mesh),
* message class — the protocol dataclass name (``"RawEvents"``,
  ``"WindowAssignment"``, ...).

Peer messages are attributed to the *sending* local's token stream.
Because flows from different windows legitimately overlap in flight,
machines use self-loops liberally: the FSM constrains *which* messages
may appear in *which* phase, not strict alternation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.obs.events import MSG_SEND
from repro.obs.tracer import RunTracer
from repro.runtime import ROOT_NAME

#: One token: (direction, message class name).
Token = tuple[str, str]
#: Transition table: state -> {token: next_state}.
Transitions = Mapping[str, Mapping[Token, str]]


@dataclass(frozen=True)
class ProtocolFSM:
    """A scheme's declared per-pair message-flow machine."""

    scheme: str
    initial: str
    transitions: Transitions

    def step(self, state: str, token: Token) -> str | None:
        """Next state, or None when the token is not allowed."""
        return self.transitions.get(state, {}).get(token)


@dataclass(frozen=True)
class FsmViolation:
    """One disallowed transition in one pair's token stream."""

    scheme: str
    pair: str
    state: str
    token: Token
    position: int
    time: float

    def format(self) -> str:
        direction, msg = self.token
        return (f"{self.scheme}[{self.pair}] token #{self.position} "
                f"at t={self.time:.6f}: ({direction}, {msg}) not "
                f"allowed in state {self.state}")


class ProtocolViolation(AssertionError):
    """A traced run did not conform to its scheme's declared FSM."""


def _loops(state: str, *tokens: Token) -> dict[Token, str]:
    return {token: state for token in tokens}


def _raw_only_fsm(scheme: str) -> ProtocolFSM:
    """Central/Scotty/Disco: locals stream RawEvents up, nothing down
    except loss-recovery NACKs."""
    return ProtocolFSM(scheme=scheme, initial="RUN", transitions={
        "RUN": {("up", "RawEvents"): "RUN",
                ("down", "ResendRequest"): "RUN"},
    })


#: Declared machines, one per registered scheme.
SCHEME_FSMS: dict[str, ProtocolFSM] = {
    "central": _raw_only_fsm("central"),
    "scotty": _raw_only_fsm("scotty"),
    "disco": _raw_only_fsm("disco"),
    # Approx: raw bootstrap until the root fixes the static split, then
    # per-window local reports (raw events may still be in flight).
    "approx": ProtocolFSM(scheme="approx", initial="INIT", transitions={
        "INIT": {("up", "RawEvents"): "INIT",
                 ("down", "ResendRequest"): "INIT",
                 ("down", "WindowAssignment"): "RUN"},
        "RUN": {("up", "RawEvents"): "RUN",
                ("up", "LocalWindowReport"): "RUN",
                ("down", "ResendRequest"): "RUN"},
    }),
    # Deco_mon: rate monitoring up, assignments down, reports up.
    "deco_mon": ProtocolFSM(
        scheme="deco_mon", initial="INIT", transitions={
            "INIT": {("up", "RateReport"): "INIT",
                     ("down", "WindowAssignment"): "RUN"},
            "RUN": _loops("RUN",
                          ("up", "RateReport"),
                          ("up", "LocalWindowReport"),
                          ("down", "WindowAssignment")),
        }),
    # Deco_sync: predict -> calculate -> verify -> correct per window.
    # Raw events bootstrap the first prediction; corrections are
    # root-initiated round trips.
    "deco_sync": ProtocolFSM(
        scheme="deco_sync", initial="BOOTSTRAP", transitions={
            "BOOTSTRAP": {("up", "RawEvents"): "BOOTSTRAP",
                          ("down", "ResendRequest"): "BOOTSTRAP",
                          ("down", "WindowAssignment"): "ASSIGNED"},
            "ASSIGNED": {("up", "RawEvents"): "ASSIGNED",
                         ("down", "WindowAssignment"): "ASSIGNED",
                         ("up", "LocalWindowReport"): "REPORTED"},
            "REPORTED": {("up", "LocalWindowReport"): "REPORTED",
                         ("down", "WindowAssignment"): "ASSIGNED",
                         ("down", "CorrectionRequest"): "CORRECTING"},
            "CORRECTING": {("down", "CorrectionRequest"): "CORRECTING",
                           ("up", "CorrectionReport"): "CORRECTED"},
            "CORRECTED": {("up", "CorrectionReport"): "CORRECTED",
                          ("down", "WindowAssignment"): "ASSIGNED"},
        }),
    # Deco_async: pipelined/speculative — front buffers, reports, and
    # assignments interleave freely; corrections are the only phase
    # change.
    "deco_async": ProtocolFSM(
        scheme="deco_async", initial="BOOTSTRAP", transitions={
            "BOOTSTRAP": {("up", "RawEvents"): "BOOTSTRAP",
                          ("down", "ResendRequest"): "BOOTSTRAP",
                          ("down", "WindowAssignment"): "RUN"},
            "RUN": {**_loops("RUN",
                             ("up", "RawEvents"),
                             ("up", "FrontBuffer"),
                             ("up", "LocalWindowReport"),
                             ("down", "WindowAssignment")),
                    ("down", "CorrectionRequest"): "CORRECTING"},
            "CORRECTING": {**_loops("CORRECTING",
                                    ("up", "FrontBuffer"),
                                    ("up", "LocalWindowReport"),
                                    ("down", "WindowAssignment"),
                                    ("down", "CorrectionRequest")),
                           ("up", "CorrectionReport"): "RUN"},
        }),
    # Deco_monlocal: no rates to the root — locals exchange rates on
    # the peer mesh and the designated local starts each window.
    "deco_monlocal": ProtocolFSM(
        scheme="deco_monlocal", initial="RUN", transitions={
            "RUN": _loops("RUN",
                          ("peer", "RateReport"),
                          ("peer", "StartWindow"),
                          ("up", "LocalWindowReport"),
                          ("down", "StartWindow")),
        }),
}


def extract_token_streams(tracer: RunTracer
                          ) -> dict[str, list[tuple[Token, float]]]:
    """Per-pair ``(token, time)`` streams from a traced run.

    The pair key is the local node's name; root<->local messages land
    on the local's stream, peer messages on the *sender's* stream.
    Non-protocol senders (sources) never hit the network, so every
    ``msg_send`` participates.
    """
    streams: dict[str, list[tuple[Token, float]]] = {}
    for event in tracer.events_of(MSG_SEND):
        src = event.node
        dst = event.data.get("dst", "")
        msg = event.data.get("msg", "?")
        if src == ROOT_NAME:
            pair, direction = dst, "down"
        elif dst == ROOT_NAME:
            pair, direction = src, "up"
        else:
            pair, direction = src, "peer"
        streams.setdefault(pair, []).append(
            ((direction, msg), event.time))
    return streams


def check_fsm(scheme: str, tracer: RunTracer) -> list[FsmViolation]:
    """Replay a traced run through its scheme's declared FSM.

    Returns all violations (empty when conformant).

    Raises:
        KeyError: when no FSM is declared for ``scheme``.
    """
    fsm = SCHEME_FSMS[scheme]
    violations: list[FsmViolation] = []
    for pair, stream in sorted(extract_token_streams(tracer).items()):
        state = fsm.initial
        for position, (token, time) in enumerate(stream):
            next_state = fsm.step(state, token)
            if next_state is None:
                violations.append(FsmViolation(
                    scheme=scheme, pair=pair, state=state, token=token,
                    position=position, time=time))
                # Stay in place: report every off-script message of
                # this pair rather than cascading from the first.
                continue
            state = next_state
    return violations


def assert_fsm_conformance(scheme: str, tracer: RunTracer) -> None:
    """Raise :class:`ProtocolViolation` on any FSM violation."""
    violations = check_fsm(scheme, tracer)
    if violations:
        shown = "\n  ".join(v.format() for v in violations[:10])
        more = (f"\n  ... and {len(violations) - 10} more"
                if len(violations) > 10 else "")
        raise ProtocolViolation(
            f"{len(violations)} protocol violation(s):\n  {shown}{more}")
