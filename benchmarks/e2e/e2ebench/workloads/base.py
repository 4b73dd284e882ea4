"""What every workload shares: the fixed query parameters, the round
record, and the interface the measurement loop drives."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.runner import RunConfig
from repro.core.workload import Workload

from e2ebench.spans import SpanRecorder

#: Query parameters every workload uses (ISSUE 12): 1% rate change and
#: the paper's smoothed delta, so Deco predicts most windows correctly
#: and corrects a few -- both protocol paths run.
COMMON = {"aggregate": "sum", "rate_change": 0.01, "delta_m": 4,
          "min_delta": 4}


@dataclass
class Round:
    """One round of one workload, as measured from outside."""

    #: Input events offered to the system, over all runs of the round.
    events: int
    #: Timed wall seconds.
    wall_s: float
    #: Whether ``RunTracer`` and the span recorder were on.
    traced: bool = False
    #: Un-timed seconds this round spent around the timed part (serve:
    #: spawn, worker-side workload load, handshake, teardown).
    untimed_s: float = 0.0
    #: ``RunResult.total_bytes`` summed over the round's runs.
    net_bytes: int = 0
    #: Open loop only: per-window seconds from when the result was due
    #: on the event-time schedule to when it arrived.
    latencies_s: list[float] = field(default_factory=list)
    #: Whatever the workload's ``check`` needs (results, reports).
    outputs: Any = None
    #: The exception text when a run of the round raised.
    error: str | None = None
    #: Expected window results, and how many were missing or wrong.
    attempted: int = 0
    failed: int = 0
    #: Per-layer values read at the public boundaries of this round.
    counts: dict[str, float] = field(default_factory=dict)
    #: CPU seconds (user+sys) of the harness process / waited children.
    cpu_self_s: float = 0.0
    cpu_child_s: float = 0.0

    @property
    def cpu_s(self) -> float:
        return self.cpu_self_s + self.cpu_child_s


def total_events(workload: Workload) -> int:
    return sum(len(s) for s in workload.streams)


class BenchWorkload:
    """One named workload bound to a seed.

    Subclasses set ``NAME``/``WHY``/``LOOP``, the ``FULL`` and
    ``QUICK`` :class:`RunConfig` keyword sets (``FULL`` is the issue's
    size with ``n_windows`` rescaled, each file says why; ``QUICK`` is
    the ~1/20 smoke size), and the names of the probe groups that
    apply (``PROBES``).
    """

    NAME = ""
    WHY = ""
    #: "closed": the next run starts when the previous one completes.
    #: "open": input arrives on the event-time schedule regardless.
    LOOP = "closed"
    SCHEME = "deco_async"
    FULL: dict[str, Any] = {}
    QUICK: dict[str, Any] = {}
    PROBES: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.sizes = dict(self.QUICK if quick else self.FULL)
        self.workload: Workload | None = None

    @property
    def run_kwargs(self) -> dict[str, Any]:
        """The :class:`RunConfig` fields this workload fixes."""
        return {**COMMON, **self.sizes}

    def config(self, **over: Any) -> RunConfig:
        return RunConfig(**{"scheme": self.SCHEME, "seed": self.seed,
                            **self.run_kwargs, **over})

    def stage(self, workload: Workload) -> None:
        """The un-timed part of a simulator round (build + inject),
        staged in set-up so that work moved there shows in
        ``setup_s``.  Serve workloads measure theirs per round."""

    def prepare(self, workload: Workload) -> None:
        """Compute the reference; never timed."""
        self.workload = workload

    def run_round(self, spans: SpanRecorder, traced: bool) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> None:
        """Set ``rnd.attempted`` / ``rnd.failed`` from the reference."""
        raise NotImplementedError
