"""Shared serve-runtime protocol pieces: configs, ops, result transport.

Everything that must mean the same thing on both sides of the control
channel lives here: the JSON shape of a :class:`RunConfig` (an exact
round trip; workers are forked and inherit the config object itself,
so no config crosses a command line or a socket), the op vocabulary
workers emit back to the coordinator, and the JSON shape of a worker's
final results.

Floats cross the channel as JSON numbers; Python's ``repr`` emits the
shortest round-tripping form and ``json`` parses it back bit-exactly,
so virtual times and window results survive transport unchanged — a
precondition for the bit-identical-to-simulator contract.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Any

from repro.core.records import RunResult, WindowOutcome
from repro.core.runner import RunConfig
from repro.errors import ServeError
from repro.runtime.api import ROOT_NAME, local_name
from repro.runtime.node import NodeProfile

# -- op vocabulary -------------------------------------------------------------
#
# Ops are the cross-node effects of one executed item, and nothing
# else: timers never leave their worker (each keeps its node's timers
# in one local heap), so an item whose effects are all node-local
# ships no batch at all.  The coordinator applies an item's ops in
# emission order — the order the equivalent simulator callback would
# have made the same calls — so fabric reservations and delivery
# sequence numbers match the oracle by construction.

#: ``["send", dst, offset, length]`` — transmit the wire frame at
#: ``blob[offset:offset+length]`` to ``dst`` over the fabric.
OP_SEND = "send"
#: ``["stop"]`` — the behaviour requested run termination.
OP_STOP = "stop"
#: ``["outcome", payload]`` — a window result was emitted during this
#: dispatch; ``payload`` is the full :func:`outcome_to_json` dict, so
#: the coordinator's applied-op stream is result-authoritative (in
#: epoch mode a worker's FINAL may include outcomes from work the
#: merge discarded after a stop; the coordinator also stamps wall
#: time per applied outcome).
OP_OUTCOME = "outcome"


def sender_table(n_nodes: int) -> list[str]:
    """The canonical codec sender table for an ``n_nodes`` cluster.

    Seeded identically into every codec that touches serve frames, so
    the interned ``int32`` routing slot decodes to the same name in
    every process (see :meth:`repro.wire.codec.MessageCodec.
    seed_senders`).
    """
    return [ROOT_NAME] + [local_name(i) for i in range(n_nodes)]


# -- RunConfig transport -------------------------------------------------------

def config_to_json(config: RunConfig) -> dict[str, Any]:
    """A JSON-safe dict reconstructing ``config`` exactly."""
    payload = asdict(config)
    payload["local_profile"] = asdict(config.local_profile)
    payload["root_profile"] = asdict(config.root_profile)
    return payload


def config_from_json(payload: dict[str, Any]) -> RunConfig:
    """Inverse of :func:`config_to_json`."""
    data = dict(payload)
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ServeError(
            f"unknown RunConfig fields from coordinator: "
            f"{sorted(unknown)}")
    for key in ("local_profile", "root_profile"):
        data[key] = NodeProfile(**data[key])
    if "queries" in data:
        data["queries"] = tuple(data["queries"])
    return RunConfig(**data)


# -- result transport ----------------------------------------------------------

def outcome_to_json(outcome: WindowOutcome) -> dict[str, Any]:
    """JSON-safe dict for one window outcome (bit-exact floats)."""
    return {
        "index": outcome.index,
        "result": outcome.result,
        "emit_time": outcome.emit_time,
        # JSON keys are strings; decode restores the int node indices.
        "spans": {str(k): [a, b]
                  for k, (a, b) in outcome.spans.items()},
        "corrected": outcome.corrected,
        "up_flows": outcome.up_flows,
        "down_flows": outcome.down_flows,
    }


def outcome_from_json(payload: dict[str, Any]) -> WindowOutcome:
    """Inverse of :func:`outcome_to_json`."""
    return WindowOutcome(
        index=payload["index"], result=payload["result"],
        emit_time=payload["emit_time"],
        spans={int(k): (a, b)
               for k, (a, b) in payload["spans"].items()},
        corrected=payload["corrected"], up_flows=payload["up_flows"],
        down_flows=payload["down_flows"])


#: RunResult counters each worker accumulates independently; the
#: harness sums them (the simulator increments one shared counter, the
#: workers each increment their own share of it).
SUMMED_FIELDS = ("correction_steps", "prediction_errors",
                 "recomputed_events", "retransmissions")


def counters_snapshot(result: RunResult, busy_s: float) -> list[Any]:
    """One worker's running counter vector, in :data:`SUMMED_FIELDS`
    order plus ``[busy_s, sim_time]``.

    A worker keeps one per executed item of its latest epoch and ships
    the one cut at the run's stop key in FINAL: after a mid-epoch stop
    the merge discards every later batch, and the discarded work's
    counter increments must not leak into the merged result (local
    nodes do increment fingerprinted counters such as
    ``prediction_errors``).
    """
    return [*(getattr(result, name) for name in SUMMED_FIELDS),
            busy_s, result.sim_time]
