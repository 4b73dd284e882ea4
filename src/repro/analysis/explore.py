"""Small-scope interleaving model checker for the serve run loop.

DESIGN §12 argues the serve epoch loop is bit-identical to the
simulator because (a) the conservative horizon makes sub-horizon
events cross-node independent and (b) the K-way canonical-key merge
reconstructs kernel order regardless of reply arrival order.  This
module *executes* that argument for small scopes: it drives the real
:class:`~repro.serve.coordinator.Coordinator` logic against in-process
:class:`~repro.serve.worker.WorkerRuntime` models (no sockets, no
subprocesses) and exhaustively enumerates the runtime's two genuine
interleaving freedoms —

* **epoch-boundary placement**: any horizon in ``(t0, t0+lookahead]``
  is a sound conservative choice (the TCP runtime always picks the
  largest); each distinct pending event time below the natural bound
  yields a distinct partition of work into epochs, down to one epoch
  per distinct event time (on a zero-lookahead fabric the only
  candidate is ``t0`` itself: one event per epoch);
* **reply arrival order**: the order worker replies reach the merge,
  which is the order its head-selection scan iterates queues.

Every explored interleaving must (1) apply op batches in strictly
increasing canonical ``(time, phase, rank, class, tie)`` order, (2)
never leave a live kernel event below an executed horizon, (3) apply
the exact same batch sequence as the reference interleaving, and (4)
produce a result whose ``TimedFingerprint`` equals the in-process
simulator oracle's.

State-space control (DESIGN §13): choices are scripted as a DFS over
choice-sequence prefixes with first-divergence expansion (each run
extends its scripted prefix with default choices, then enqueues every
untried sibling along its path), and a *convergence prune* in the
sleep-set/DPOR spirit: a worker's state is a deterministic function of
the epochs dispatched to it and the coordinator's of the batches
applied, so the pair (applied-batch history, live kernel events) is a
complete state signature — once a prefix reaches a previously seen
signature, its subtree would replay an already-explored subtree
verbatim and is not expanded (the run itself still completes and is
checked).  Because the property under test *is* confluence, almost
every prefix converges immediately and 2–4 node / 2–3 epoch scopes
stay at a few dozen runs.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations
from typing import Any

from repro.analysis.determinism import TimedFingerprint
from repro.core.runner import RunConfig, run_scheme
from repro.core.workload import Workload
from repro.errors import ServeError
from repro.serve.coordinator import Coordinator
from repro.serve.harness import _merge_results
from repro.serve.merge import EpochMerge, MergeKey, slot_key
from repro.serve.worker import WorkerRuntime

#: Most horizon placements tried per epoch (beyond this the checker
#: samples evenly and reports the truncation).
MAX_HORIZONS = 6

#: Most reply-order permutations tried per epoch.  Up to 3 repliers
#: that is all of them; beyond, identity + reversal + adjacent
#: transpositions (the generators of the permutation group — any
#: order-sensitivity shows up under some adjacent swap).
MAX_ORDER_NAMES = 3


class Violation:
    """One invariant failure in one explored interleaving."""

    __slots__ = ("config", "choices", "message")

    def __init__(self, config: RunConfig, choices: tuple[int, ...],
                 message: str) -> None:
        self.config = config
        self.choices = choices
        self.message = message

    def __repr__(self) -> str:
        return (f"Violation({self.config.scheme}/"
                f"n={self.config.n_nodes}, choices={self.choices}: "
                f"{self.message})")


class _Schedule:
    """One run's scripted choice prefix plus its recorded branching.

    ``pick`` consumes the prefix position by position; past the end it
    takes choice 0 (the TCP runtime's own preference: widest horizon,
    node-name reply order).  ``trace`` records ``(chosen, n_choices)``
    for every decision point, which the explorer uses to enqueue
    untried siblings.
    """

    __slots__ = ("prefix", "trace")

    def __init__(self, prefix: tuple[int, ...]) -> None:
        self.prefix = prefix
        self.trace: list[tuple[int, int]] = []

    def pick(self, n_choices: int) -> int:
        depth = len(self.trace)
        chosen = self.prefix[depth] if depth < len(self.prefix) else 0
        if chosen >= n_choices:
            chosen = 0
        self.trace.append((chosen, n_choices))
        return chosen

    @property
    def exhausted(self) -> bool:
        """True once every scripted choice has been consumed."""
        return len(self.trace) >= len(self.prefix)


class _InProcessTransport:
    """Direct calls into :class:`~repro.serve.worker.WorkerRuntime`:
    ``send`` runs the worker's request -> reply mapping on the spot and
    ``recv`` hands the reply over."""

    def __init__(self, workers: dict[str, WorkerRuntime]) -> None:
        self.workers = workers
        self._replies: dict[str, tuple[int, dict[str, Any], bytes]] = {}

    def send(self, name: str, kind: int, header: dict[str, Any],
             blob: bytes | bytearray) -> None:
        self._replies[name] = self.workers[name].handle(
            kind, header, blob)

    def recv(self, name: str) -> tuple[int, dict[str, Any], bytes]:
        return self._replies.pop(name)


class ModelCoordinator(Coordinator):
    """The production coordinator run against in-process workers.

    ``run``, the epoch loop, collect, merge and op application are the
    inherited production code; the transport is in-process calls, and
    the only overrides are the runtime's two interleaving freedoms,
    which :attr:`schedule` scripts.
    """

    def __init__(self, config: RunConfig) -> None:
        workers: dict[str, WorkerRuntime] = {}
        super().__init__(config, _InProcessTransport(workers))
        for name in self.node_names:
            workers[name] = WorkerRuntime(name, self.worker_config,
                                          self.ctx.workload)
        #: The in-process workers, whose timer heaps hold the pending
        #: work the coordinator's kernel does not.
        self.workers = workers
        self.applied_log = []
        # Model time is virtual only: a paced config differs in its
        # injection schedule, never in wall-clock throttling.
        self._paced = False
        self.schedule = _Schedule(())
        self._signature: tuple[Any, ...] | None = None
        #: How many choice points of the run were sampled, not exhausted.
        self.truncated_horizons = 0
        self.truncated_orders = 0

    # -- scripted run loop -------------------------------------------------

    def _horizon_candidates(self, t0: float) -> list[float]:
        """Sound horizon placements for the epoch starting at ``t0``.

        The natural bound (the TCP runtime's choice, and the default at
        unscripted depths) first, then each distinct pending time —
        kernel delivery or worker timer — strictly inside ``(t0,
        bound)``: placing the boundary there moves that event (and
        everything after it) into the next epoch.  Sampled down to
        :data:`MAX_HORIZONS`.
        """
        bound = super()._pick_horizon(t0)
        pending = {e.time for e in self.topo.sim.live_events()}
        for rt in self.workers.values():
            pending.update(timer[0] for timer in rt.live_timers())
        times = sorted(t for t in pending if t0 < t < bound)
        candidates = [bound] + times
        if len(candidates) > MAX_HORIZONS:
            self.truncated_horizons += 1
            step = (len(candidates) - 1) / (MAX_HORIZONS - 1)
            candidates = [candidates[0]] + [
                candidates[1 + int(i * step)]
                for i in range(MAX_HORIZONS - 1)]
        return candidates

    def _order_candidates(self,
                          names: list[str]) -> list[tuple[str, ...]]:
        """Reply arrival orders tried for one epoch's repliers."""
        if len(names) <= MAX_ORDER_NAMES:
            return list(permutations(names))
        self.truncated_orders += 1
        orders = [tuple(names), tuple(reversed(names))]
        for i in range(len(names) - 1):
            swapped = list(names)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            orders.append(tuple(swapped))
        return orders

    def _pick_horizon(self, t0: float) -> float:
        """Choice point 1, scripted; also where the convergence
        signature is captured (the production loop calls this once per
        epoch, with the earliest pending time)."""
        if self._signature is None and self.schedule.exhausted:
            self._signature = self.state_signature()
        candidates = self._horizon_candidates(t0)
        return candidates[self.schedule.pick(len(candidates))]

    def _reply_order(self, names: list[str]) -> list[str]:
        """Choice point 2, scripted."""
        orders = self._order_candidates(names)
        return list(orders[self.schedule.pick(len(orders))])

    def state_signature(self) -> tuple[Any, ...]:
        """Complete run-state signature for the convergence prune.

        Worker state is a deterministic function of the epochs
        dispatched to it, and each dispatched epoch is fully determined
        by the applied-batch history that produced its slots; the live
        kernel deliveries and every worker's live timers pin everything
        still pending.
        """
        assert self.applied_log is not None
        kernel = tuple(sorted(
            (e.time, e.phase, e.rank, e.sort_seq)
            for e in self.topo.sim.live_events()))
        timers = tuple((name, tuple(sorted(rt.live_timers())))
                       for name, rt in self.workers.items())
        return (tuple(self.applied_log), kernel, timers)

    def run_model(self, schedule: _Schedule) -> tuple[Any, ...] | None:
        """Execute one full production ``run()`` under ``schedule``.

        Returns the state signature captured at the first unscripted
        decision (None if the run ended inside the scripted prefix) —
        the key the explorer's convergence prune deduplicates on.
        """
        self.schedule = schedule
        self.run()
        if self._signature is None and schedule.exhausted:
            self._signature = self.state_signature()
        return self._signature


def check_applied_order(applied: list[tuple[str, MergeKey]]
                        ) -> str | None:
    """Non-decreasing-canonical check over one run's applied log.

    Strict inequality: two batches can never share a full canonical
    key (the tie components are globally unique), so equality is a
    bookkeeping bug too.
    """
    for i in range(1, len(applied)):
        prev, cur = applied[i - 1][1], applied[i][1]
        if not prev < cur:
            return (f"merge applied item {i} out of canonical order: "
                    f"{applied[i - 1]} then {applied[i]}")
    return None


def explore_config(config: RunConfig, epochs: int = 3,
                   budget: int = 200,
                   workload: Workload | None = None,
                   ) -> tuple[list[Violation], dict[str, int]]:
    """Exhaustively model-check one config's epoch interleavings.

    ``epochs`` bounds the *scripted* depth (decision points beyond
    ``2 * epochs`` take the default choice; the run still executes to
    completion and is fully checked).  ``budget`` caps total runs as a
    backstop; hitting it is reported in the stats, never silent.

    Returns ``(violations, stats)`` with stats keys ``runs``,
    ``pruned``, ``budget_hit``, ``truncated``.
    """
    oracle = TimedFingerprint.of(run_scheme(config, workload)[0])
    max_depth = 2 * epochs
    stack: list[tuple[int, ...]] = [()]
    seen: set[tuple[Any, ...]] = set()
    # The reference is the *projected* applied sequence: the tie
    # components of full canonical keys are partition-dependent (slot
    # pop positions restart per epoch; a sub-horizon timer under one
    # boundary is a shipped slot under a narrower one), but the sorted
    # (time, phase, rank) triple sequence is invariant across every
    # sound partition and arrival order.
    reference: list[tuple[float, int, tuple[str, ...]]] | None = None
    violations: list[Violation] = []
    stats = {"runs": 0, "pruned": 0, "budget_hit": 0, "truncated": 0}
    while stack:
        if stats["runs"] >= budget:
            stats["budget_hit"] = 1
            break
        prefix = stack.pop()
        schedule = _Schedule(prefix)
        coord = ModelCoordinator(config)
        stats["runs"] += 1
        try:
            signature = coord.run_model(schedule)
        except ServeError as exc:
            violations.append(Violation(config, prefix, str(exc)))
            continue
        stats["truncated"] += (coord.truncated_horizons
                               + coord.truncated_orders)
        assert coord.applied_log is not None
        bad = check_applied_order(coord.applied_log)
        if bad is not None:
            violations.append(Violation(config, prefix, bad))
        projected = [key[:3] for _, key in coord.applied_log]
        if reference is None:
            reference = projected
        elif projected != reference:
            violations.append(Violation(
                config, prefix,
                "applied (time, phase, rank) sequence diverged from "
                "the reference interleaving"))
        result = _merge_results(coord)
        if result.n_windows < coord.ctx.n_windows:
            violations.append(Violation(
                config, prefix,
                f"emitted {result.n_windows}/{coord.ctx.n_windows} "
                f"windows"))
        elif diff := oracle.diff(TimedFingerprint.of(result)):
            violations.append(Violation(
                config, prefix,
                "result diverged from the simulator oracle: "
                + "; ".join(diff)))
        if signature is not None:
            if signature in seen:
                stats["pruned"] += 1
                continue
            seen.add(signature)
        # Enqueue every untried sibling along this run's path (classic
        # first-divergence DFS: prefix choices are the ones actually
        # taken, so each alternative names a distinct unexplored node).
        taken = tuple(chosen for chosen, _ in schedule.trace)
        for depth in range(len(prefix),
                           min(len(schedule.trace), max_depth)):
            _, n_choices = schedule.trace[depth]
            for alt in range(1, n_choices):
                stack.append(taken[:depth] + (alt,))
    return violations, stats


# -- synthetic merge scenarios -------------------------------------------------

def synthetic_merge_violations() -> list[str]:
    """Drive the real :class:`EpochMerge` through hand-built scenarios.

    Abstract (no scheme, no kernel) scenarios chosen so every key
    component is load-bearing; run across *all* queue arrival
    permutations.  Each scenario states its canonical order by hand,
    so a merge or a key function that drops or reorders a component
    trips it.  A batch is written ``(node, "slot", i)`` or ``(node,
    "timer", seq, time, phase, rank)``, listed in canonical order.
    """
    violations: list[str] = []

    def batch(ref: tuple[Any, ...]) -> dict[str, Any]:
        if ref[1] == "slot":
            return {"ref": ["slot", ref[2]], "ops": []}
        return {"ref": ["timer", ref[2]], "k": list(ref[3:]), "ops": []}

    def run(name: str, slot_keys: dict[str, list[MergeKey]],
            expect: list[tuple[Any, ...]]) -> None:
        nodes = sorted(slot_keys)
        for arrival in permutations(nodes):
            merge = EpochMerge(10.0, {n: i for i, n in
                                      enumerate(nodes)},
                               {n: list(slot_keys[n]) for n in nodes})
            queues = {n: deque(batch(r) for r in expect if r[0] == n)
                      for n in arrival}
            applied: list[tuple[str, list[Any]]] = []
            while True:
                popped = merge.pop_next(queues)
                if popped is None:
                    break
                applied.append((popped[0], popped[1]["ref"]))
            want = [(r[0], batch(r)["ref"]) for r in expect]
            if applied != want:
                violations.append(
                    f"{name}: arrival {arrival} applied {applied}, "
                    f"canonical order is {want}")

    # Phase is load-bearing: same time, the phase-0 item on node 'b'
    # must beat the phase-1 item on node 'a' even though 'a' sorts
    # first by name and rank.  Dropping phase inverts this pair.
    run("cross-node phase order",
        {"a": [slot_key(1.0, 1, ("a",), 1)],
         "b": [slot_key(1.0, 0, ("b",), 0)]},
        [("b", "slot", 0), ("a", "slot", 0)])
    # Class is load-bearing: a timer at the same (time, phase, rank)
    # as a shipped slot must lose the tie, even to a slot popped later
    # than the timer's node order.
    run("slot beats same-key timer",
        {"a": [], "b": [slot_key(2.0, 1, (), 5)]},
        [("b", "slot", 0), ("a", "timer", 7, 2.0, 1, [])])
    # Node order, then the worker's own seq, break timer/timer ties.
    run("timer tie-break",
        {"a": [slot_key(1.0, 0, (), 0)], "b": []},
        [("a", "slot", 0), ("a", "timer", 5, 3.0, 1, []),
         ("a", "timer", 6, 3.0, 1, []), ("b", "timer", 1, 3.0, 1, [])])
    # Rank orders same-(time, phase) items across nodes.
    run("rank order",
        {"a": [slot_key(4.0, 1, ("x", "z"), 0)],
         "b": [slot_key(4.0, 1, ("x", "y"), 1)]},
        [("b", "slot", 0), ("a", "slot", 0)])
    # A timer batch at or past the horizon means a worker ran work the
    # epoch did not cover: a ServeError, not a silent merge.
    merge = EpochMerge(10.0, {"a": 0}, {"a": []})
    try:
        merge.pop_next({"a": deque([batch(("a", "timer", 3, 10.0, 1,
                                           []))])})
    except ServeError:
        pass
    else:
        violations.append(
            "a timer batch at the horizon did not raise")
    return violations
