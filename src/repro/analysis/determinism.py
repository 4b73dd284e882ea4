"""Schedule-determinism harness: the runtime half of the contract.

The layout rows of ``tests/test_layout.py`` forbid the *sources* of
nondeterminism that an AST walk can see; this harness tests the property
itself.  It runs one :class:`~repro.core.runner.RunConfig` several
times under permuted kernel tie-break salts — each salt deterministically
permutes the order in which *same-time* events execute (see
:class:`~repro.sim.kernel.Simulator`) — and asserts the results are
bit-identical.

Why this works: a correct scheme's outcome may depend on simulated
*time* but never on the arbitrary order the heap happens to pop two
events scheduled for the same instant.  Any hidden dependence on that
order (iteration over a set feeding ``schedule_at``, a handler racing a
feeder, ...) shows up as a diverging fingerprint under some salt,
with no need to guess where the dependence lives.

"Same run" is defined once (DESIGN §8): :class:`TimedFingerprint` is
everything a run reports, :class:`Fingerprint` its salt-invariant
projection.  Both hold floats as ``float.hex`` bits, not rounded reprs:
the contract is bit-identity, not tolerance.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from repro.core.records import RunResult
from repro.core.runner import RunConfig, run_scheme
from repro.core.workload import Workload, default_cache

#: Salts used by default: 0 is the shipped ordering, the others
#: scramble low/high seq bits in different patterns.
DEFAULT_SALTS = (0, 1, 0x5A5A, 0xFFFF_FFFF)


@dataclass(frozen=True)
class _Digest:
    def diff(self, other: "_Digest") -> list[str]:
        """Field-level differences, empty if equal.  A field labelled
        ``item`` holds ``(key, ...)`` tuples: name the first that differs."""
        out: list[str] = []
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if mine == theirs:
                continue
            item = f.metadata.get("item")
            if item is None:
                out.append(f"{f.name}: {mine} != {theirs}")
            elif len(mine) != len(theirs):
                out.append(f"{f.name}: {len(mine)} != {len(theirs)} "
                           f"{item}s")
            else:
                a, b = next(pair for pair in zip(mine, theirs, strict=True)
                            if pair[0] != pair[1])
                out.append(f"{f.name}: {item} {a[0]}: {a} != {b}")
        return out


@dataclass(frozen=True)
class Fingerprint(_Digest):
    """The ``what`` projection: the run-outcome signature that must be
    salt-invariant."""

    #: Per-window tuples, by index: (index, result-bits, sorted
    #: (agent, start, end) spans, corrected, up_flows, down_flows).
    #: Emission *times* are deliberately NOT fingerprinted: which of two
    #: same-instant deliveries queues first on a CPU shifts downstream
    #: micro-timing, and that order is exactly what the salt permutes.
    windows: tuple[tuple, ...] = field(metadata={"item": "window"})
    #: (correction_steps, prediction_errors, recomputed_events,
    #: retransmissions).
    counters: tuple[int, ...]
    #: (bytes_up, bytes_down, bytes_peer).
    bytes: tuple[int, ...]
    messages: int
    #: Standing-query result digests, as sorted (qid, fingerprint)
    #: pairs: every query's full result stream must be salt-invariant
    #: too (empty for runs without queries).
    queries: tuple[tuple[str, str], ...] = field(
        default=(), metadata={"item": "query"})

    @classmethod
    def of(cls, result: RunResult) -> "Fingerprint":
        return TimedFingerprint.of(result).what()


@dataclass(frozen=True)
class TimedFingerprint(_Digest):
    """The ``timed`` record: everything a run reports.  Every gate that
    does not permute the tie-break salt compares at this level."""

    #: Per-window tuples in emission order: the ``Fingerprint`` window
    #: with the emission-time bits after the result bits.
    outcomes: tuple[tuple, ...] = field(metadata={"item": "window"})
    sim_time: str
    counters: tuple[int, ...]
    bytes: tuple[int, ...]
    messages: int
    node_busy_s: tuple[tuple[str, str], ...] = field(
        metadata={"item": "node"})
    queries: tuple[tuple[str, str], ...] = field(
        default=(), metadata={"item": "query"})

    @classmethod
    def of(cls, result: RunResult) -> "TimedFingerprint":
        return cls(
            outcomes=tuple(
                (o.index, float(o.result).hex(), float(o.emit_time).hex(),
                 tuple(sorted((a, s, e) for a, (s, e) in o.spans.items())),
                 o.corrected, o.up_flows, o.down_flows)
                for o in result.outcomes),
            sim_time=float(result.sim_time).hex(),
            counters=(result.correction_steps, result.prediction_errors,
                      result.recomputed_events, result.retransmissions),
            bytes=(result.bytes_up, result.bytes_down, result.bytes_peer),
            messages=result.messages,
            node_busy_s=tuple(sorted(
                (name, float(busy).hex())
                for name, busy in result.node_busy_s.items())),
            queries=tuple(sorted(
                (qid, acct["fingerprint"])
                for qid, acct in result.queries.items())))

    def what(self) -> Fingerprint:
        """The salt-invariant projection: no times, windows by index."""
        windows = sorted((o[:2] + o[3:] for o in self.outcomes),
                         key=lambda w: w[0])
        return Fingerprint(windows=tuple(windows), counters=self.counters,
                           bytes=self.bytes, messages=self.messages,
                           queries=self.queries)

    def hexdigest(self) -> str:
        """SHA-256 of the record as canonical JSON; ``queries`` is
        left out of runs without standing queries."""
        record = asdict(self) | {"node_busy_s": dict(self.node_busy_s)}
        if not self.queries:
            del record["queries"]
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


class DeterminismViolation(AssertionError):
    """A run's outcome depended on same-time event ordering."""


def check_determinism(config: RunConfig,
                      salts: Sequence[int] = DEFAULT_SALTS,
                      workload: Workload | None = None,
                      ) -> Fingerprint:
    """Run ``config`` under every salt; raise on any divergence.

    The workload is generated once and shared, so the only varying
    input is the kernel's same-time ordering.  Returns the (common)
    fingerprint on success.

    Raises:
        DeterminismViolation: when any salt's fingerprint differs from
            salt ``salts[0]``'s, with a field-level diff in the message.
    """
    if not salts:
        raise ValueError("need at least one salt")
    baseline: Fingerprint | None = None
    for salt in salts:
        result, workload = run_scheme(
            replace(config, tiebreak_salt=salt), workload)
        fp = Fingerprint.of(result)
        if baseline is None:
            baseline = fp
        elif diff := baseline.diff(fp):
            raise DeterminismViolation(
                f"scheme {config.scheme!r} diverged under tie-break "
                f"salt {salt:#x} (vs {salts[0]:#x}): {'; '.join(diff)}")
    assert baseline is not None
    return baseline


def check_all_schemes(schemes: Sequence[str],
                      salts: Sequence[int] = DEFAULT_SALTS,
                      **config_kwargs: Any) -> dict[str, Fingerprint]:
    """Determinism-check several schemes on one small config.

    Shares the workload across schemes (same ``workload_key``).
    Returns each scheme's fingerprint; raises on the first violation.
    """
    fingerprints: dict[str, Fingerprint] = {}
    workload: Workload | None = None
    for scheme in schemes:
        config = RunConfig(scheme=scheme, **config_kwargs)
        if workload is None:
            workload = default_cache().get(config.workload_key())
        fingerprints[scheme] = check_determinism(
            config, salts=salts, workload=workload)
    return fingerprints
