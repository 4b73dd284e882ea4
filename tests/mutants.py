"""Deliberately broken copies of production code: the mutant corpus.

A mutant is one production function with one defect, made by a stdlib
``ast`` rewrite: the function's source is parsed, the one node whose
dump equals ``old`` is replaced by ``new``, and the result is compiled
in the function's own module globals.  :func:`install` puts it in place
with ``monkeypatch.setattr`` (on the owning class, or on every loaded
``repro`` module that binds a module-level function), so the checkers
are checked without any test-only mode in ``src/``.  Serve workers are
forked from the process that installed it, so they run it too.

``benchmarks/bench_oracle_mutants.py`` runs every mutant against every
checker and writes the kill matrix to
``benchmarks/results/oracle_mutants.txt``.
"""

from __future__ import annotations

import __future__
import ast
import copy
import importlib
import inspect
import sys
import textwrap
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import pytest

from repro.analysis.explore import _InProcessTransport
from repro.core.runner import RunConfig
from repro.serve.coordinator import Coordinator
from repro.serve.merge import MergeKey

#: The defect classes the checkers claim to catch.
ORDER = "same-time order dependence"
ARRIVAL = "arrival-order dependence"
PHASE = "out-of-phase message class"
APPLY = "apply-before-emit / merge order"
RESULT = "wrong window result"
TIMING = "sim/serve divergence"


@dataclass(frozen=True)
class Mutant:
    """One rewrite of one production function.

    ``target`` is ``"module:Qualname"``.  ``old`` is one expression,
    matched anywhere in the function, or one statement (a ``for``,
    ``while`` or ``if`` written with a bare ``pass`` body names its
    header only); it must occur exactly once.  ``new`` replaces it: an
    expression, one header, or one or more statements.  ``equivalent``
    says why no checker can tell the mutant from the original, when
    that is so.
    """

    name: str
    target: str
    old: str
    new: str
    defect: str
    equivalent: str | None = None


MUTANTS: tuple[Mutant, ...] = (
    # -- the merge key and the horizon (serve coordinator) --------------
    Mutant("drop-phase", "repro.serve.merge:EpochMerge.pop_next",
           "key < best_key",
           "(key[0], *key[2:]) < (best_key[0], *best_key[2:])", APPLY),
    Mutant("merge-first-queue", "repro.serve.merge:EpochMerge.pop_next",
           "best_key is None or key < best_key", "best_key is None",
           APPLY),
    Mutant("merge-largest-first",
           "repro.serve.merge:EpochMerge.pop_next",
           "key < best_key", "key > best_key", APPLY),
    Mutant("merge-tie-takes-later",
           "repro.serve.merge:EpochMerge.pop_next",
           "key < best_key", "key <= best_key", APPLY,
           equivalent="two batches never share a canonical key (the "
                      "tie component is globally unique)"),
    Mutant("slot-key-timer-class", "repro.serve.merge:slot_key",
           "(time, phase, rank, 0, (pos,))",
           "(time, phase, rank, 1, (pos,))", APPLY),
    Mutant("timer-tie-seq-first", "repro.serve.merge:timer_key",
           "(time, phase, rank, 1, (order, seq))",
           "(time, phase, rank, 1, (seq, order))", APPLY),
    Mutant("horizon-double-lookahead",
           "repro.serve.coordinator:Coordinator._pick_horizon",
           "t0 + self._lookahead", "t0 + 2 * self._lookahead", TIMING),
    Mutant("horizon-half-lookahead",
           "repro.serve.coordinator:Coordinator._pick_horizon",
           "t0 + self._lookahead", "t0 + self._lookahead / 2", TIMING,
           equivalent="any horizon in (t0, t0 + lookahead] is sound; "
                      "a narrower one only makes more epochs"),
    Mutant("collect-at-horizon",
           "repro.serve.coordinator:Coordinator._collect_epoch",
           "event.time < horizon", "event.time <= horizon", TIMING),
    Mutant("apply-past-stop",
           "repro.serve.coordinator:Coordinator._merge_epoch",
           "while not self._stop:\n    pass",
           "while True:\n    pass", TIMING),
    Mutant("apply-at-epoch-start",
           "repro.serve.coordinator:Coordinator._merge_epoch",
           "sim._now = best_key[0]", "sim._now = sim.now", TIMING),
    # -- the worker: item order, stop cut, held appends ------------------
    Mutant("worker-timer-first",
           "repro.serve.worker:WorkerRuntime.dispatch_epoch",
           "slot_keys[idx][:3] <= head",
           "slot_keys[idx][:3] > head", APPLY),
    Mutant("worker-slot-tie-later",
           "repro.serve.worker:WorkerRuntime.dispatch_epoch",
           "slot_keys[idx][:3] <= head",
           "slot_keys[idx][:3] < head", APPLY,
           equivalent="only the fabric schedules PHASE_DELIVER events, "
                      "so a delivery never ties a timer"),
    Mutant("stop-cut-includes-next",
           "repro.serve.worker:WorkerRuntime._release",
           "item < applied", "item <= applied", TIMING),
    Mutant("final-cut-excludes-stop",
           "repro.serve.worker:WorkerRuntime.final_payload",
           "bisect.bisect_right(keys, stop)",
           "bisect.bisect_left(keys, stop)", TIMING),
    Mutant("held-appends-never-fed",
           "repro.serve.worker:WorkerRuntime._open_frame",
           "self._release()", "pass", TIMING),
    # -- verification predicates and the epoch bump ----------------------
    Mutant("sync-upper-double-delta",
           "repro.core.verification:sync_prediction_ok",
           "predicted - delta <= actual < predicted + delta",
           "predicted - delta <= actual < predicted + 2 * delta", RESULT),
    Mutant("sync-no-lower-bound",
           "repro.core.verification:sync_prediction_ok",
           "predicted - delta <= actual < predicted + delta",
           "actual < predicted + delta", RESULT),
    Mutant("sync-verdict-inverted",
           "repro.core.deco_sync:PredictingRoot._try_verify",
           "if not ok:\n    pass", "if ok:\n    pass", RESULT),
    Mutant("async-slice-end-unchecked",
           "repro.core.deco_async:DecoAsyncRoot._verify_async",
           "s_a > slice_start or slice_end > e_a", "s_a > slice_start",
           RESULT),
    Mutant("async-no-epoch-bump",
           "repro.core.deco_async:DecoAsyncRoot._start_correction",
           "self.epoch += 1", "self.epoch += 0", RESULT),
    # -- out-of-phase messages -------------------------------------------
    Mutant("verify-on-first-report",
           "repro.core.deco_sync:PredictingRoot._try_verify",
           "self.reports.complete(g)", "self.reports.get(g)", PHASE),
    Mutant("approx-assign-twice",
           "repro.baselines.approx:ApproxRoot._try_emit_first",
           "self.raw_closed = True",
           "self.raw_closed = True\n"
           "self.broadcast(node, lambda a: WindowAssignment("
           "sender=ROOT_NAME, window_index=1, epoch=0, "
           "predicted_size=spans[a][1] - spans[a][0], delta=0, "
           "start_position=spans[a][1]))", PHASE),
    # -- same-time and arrival-order dependence --------------------------
    Mutant("send-rank-dropped", "repro.runtime.node:RuntimeNode.send",
           "(self.name, dst)", "()", ORDER),
    Mutant("kernel-rank-ignored",
           "repro.sim.kernel:Simulator.schedule_at",
           "(time, phase, rank, sort_seq, callback, seq, self)",
           "(time, phase, (), sort_seq, callback, seq, self)", ORDER),
    Mutant("delivery-rank-dropped", "repro.sim.network:Network.send",
           "self.sim.schedule_at(arrival, deliver, phase=PHASE_DELIVER, "
           "rank=(dst, src))",
           "self.sim.schedule_at(arrival, deliver, phase=PHASE_DELIVER)",
           ORDER,
           equivalent="a node's ingress NIC serializes its arrivals, so "
                      "two deliveries to one node never share an instant"),
    Mutant("feeder-client-rank-dropped",
           "repro.runtime.feeder:inject_stream", "(client,)", "()",
           ORDER),
    Mutant("sync-combine-in-arrival-order",
           "repro.core.deco_sync:PredictingRoot._try_verify",
           "sorted(reports)", "reports", ARRIVAL),
    Mutant("async-combine-in-arrival-order",
           "repro.core.deco_async:DecoAsyncRoot._verify_async",
           "sorted(reports)", "reports", ARRIVAL),
    Mutant("correction-combine-in-arrival-order",
           "repro.core.root:RootBehaviorBase.combine_reports",
           "sorted(reports.items())", "reports.items()", ARRIVAL),
    # -- buffer release --------------------------------------------------
    Mutant("release-one-too-many",
           "repro.core.buffers:PositionBuffer.release_before",
           "position - self._base", "position - self._base + 1",
           RESULT),
    Mutant("release-split-batch-short",
           "repro.core.buffers:PositionBuffer.release_before",
           "batches[i].drop(new_base - starts[i])",
           "batches[i].drop(new_base - starts[i] + 1)", RESULT),
    Mutant("release-one-too-few",
           "repro.core.buffers:PositionBuffer.release_before",
           "position - self._base", "position - self._base - 1",
           RESULT,
           equivalent="holds one more event; every later read starts "
                      "at or after the position asked for"),
    # -- wire slots ------------------------------------------------------
    Mutant("float-partial-one-slot",
           "repro.wire.format:partial_wire_slots",
           "if isinstance(partial, float):\n    return 2",
           "if isinstance(partial, float):\n    return 1", RESULT),
    Mutant("tuple-partial-no-descriptor",
           "repro.wire.format:partial_wire_slots",
           "1 + sum(partial_wire_slots(p) for p in partial)",
           "sum(partial_wire_slots(p) for p in partial)", RESULT),
    Mutant("optional-batch-length-short",
           "repro.wire.codec:MessageCodec.encode_message",
           "values.append(len(batch))",
           "values.append(max(len(batch) - 1, 0))", RESULT),
    # -- the agg_index combine -------------------------------------------
    Mutant("index-parent-right-twice",
           "repro.core.agg_index:RangeAggregateIndex._node",
           "self.fn.combine(left, right)",
           "self.fn.combine(right, right)", RESULT),
    Mutant("index-drops-last-part",
           "repro.core.agg_index:RangeAggregateIndex.lift_range",
           "fn.combine_many(parts)", "fn.combine_many(parts[:-1])",
           RESULT),
    Mutant("index-recompute-left-twice",
           "repro.core.agg_index:RangeAggregateIndex._node",
           "self._node(level - 1, 2 * idx + 1)",
           "self._node(level - 1, 2 * idx)", RESULT),
    Mutant("values-drop-last-piece",
           "repro.core.buffers:PositionBuffer.get_values",
           "np.concatenate([batch.values[lo:hi] for batch, lo, hi in "
           "pieces])",
           "np.concatenate([batch.values[lo:hi] for batch, lo, hi in "
           "pieces[:-1]])", RESULT),
    # -- multi-query emission --------------------------------------------
    Mutant("mq-owner-only",
           "repro.core.multiquery:MultiQueryEngine._flush",
           "for account in subscribers:\n    pass",
           "for account in subscribers[:1]:\n    pass", RESULT),
    Mutant("mq-window-one-short",
           "repro.core.multiquery:MultiQueryEngine._flush",
           "starts + lengths", "starts + lengths - 1", RESULT),
    Mutant("mq-slide-by-length",
           "repro.core.multiquery:MultiQueryEngine._flush",
           "index * ev.step", "index * ev.length", RESULT),
    Mutant("mq-fold-remainder-one-short",
           "repro.core.agg_index:fold_windows",
           "np.arange(widths[group[0]])",
           "np.arange(widths[group[0]] - 1)", RESULT),
)

BY_NAME = {mutant.name: mutant for mutant in MUTANTS}


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``"module:Qualname"`` -> (owner, attribute, raw attribute)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _parse(text: str) -> list[ast.stmt]:
    return ast.parse(textwrap.dedent(text)).body


def _header_only(node: ast.AST) -> bool:
    """A compound statement written with a bare ``pass`` body names
    only its header: the rewrite keeps the original body."""
    return (isinstance(node, (ast.For, ast.While, ast.If))
            and len(node.body) == 1 and isinstance(node.body[0], ast.Pass))


def _dump(node: ast.AST, header: bool) -> str:
    """``ast.dump``, of the header alone when ``header`` is set."""
    if header:
        node = copy.copy(node)
        node.body = node.orelse = []
    return ast.dump(node)


class _Rewrite(ast.NodeTransformer):
    """Replace the nodes that match ``old`` with ``new``.

    Expressions replace expressions; otherwise ``new`` is one or more
    statements, and a header-only ``old`` takes one new header over
    the original body.
    """

    def __init__(self, old: list[ast.stmt], new: list[ast.stmt]) -> None:
        if len(old) != 1:
            raise ValueError("old must be one statement or expression")
        first = old[0]
        self.is_expr = (isinstance(first, ast.Expr) and len(new) == 1
                        and isinstance(new[0], ast.Expr))
        self.old_node: ast.AST = (first.value
                                  if self.is_expr else first)
        self.header = _header_only(self.old_node)
        self.old = _dump(self.old_node, self.header)
        self.new: list[Any] = [new[0].value] if self.is_expr else new
        self.hits = 0

    def _matches(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.expr if self.is_expr else ast.stmt):
            return False
        if self.header and type(node) is not type(self.old_node):
            return False
        return _dump(node, self.header) == self.old

    def visit(self, node: ast.AST) -> Any:
        if self._matches(node):
            self.hits += 1
            if self.header:
                head = self.new[0]
                head.body = self.generic_visit(node).body
                head.orelse = node.orelse
                return ast.copy_location(head, node)
            if self.is_expr:
                return ast.copy_location(self.new[0], node)
            return [ast.copy_location(stmt, node) for stmt in self.new]
        return self.generic_visit(node)


def build(mutant: Mutant) -> tuple[Any, str, Callable[..., Any]]:
    """Compile ``mutant``; returns (owner, attribute, new function)."""
    owner, attr, func = _resolve(mutant.target)
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    fdef = tree.body[0]
    assert isinstance(fdef, ast.FunctionDef), mutant.target
    fdef.decorator_list = []
    rewrite = _Rewrite(_parse(mutant.old), _parse(mutant.new))
    rewrite.visit(fdef)
    if rewrite.hits != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs "
                         f"{rewrite.hits} times in {mutant.target}")
    # A factory binding ``__class__`` keeps zero-argument super() working.
    factory = ast.FunctionDef(
        name="_mutant_factory",
        args=ast.arguments(posonlyargs=[], args=[ast.arg("__class__")],
                           kwonlyargs=[], kw_defaults=[], defaults=[]),
        body=[fdef, ast.Return(ast.Name(fdef.name, ast.Load()))],
        decorator_list=[])
    module = ast.fix_missing_locations(ast.Module([factory], []))
    code = compile(module, f"<mutant {mutant.name}>", "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace: dict[str, Any] = {}
    exec(code, func.__globals__, namespace)
    mutated = namespace["_mutant_factory"](
        owner if inspect.isclass(owner) else None)
    mutated.__qualname__ = func.__qualname__
    mutated.__module__ = func.__module__
    return owner, attr, mutated


def install(mutant: Mutant, monkeypatch: pytest.MonkeyPatch) -> None:
    """Put ``mutant`` in place for the life of ``monkeypatch``.

    A method is replaced on its class.  A module-level function is
    replaced in every loaded ``repro`` module that binds it, since
    ``from m import f`` copies the binding.
    """
    owner, attr, mutated = build(mutant)
    original = vars(owner)[attr]
    monkeypatch.setattr(owner, attr, mutated)
    if inspect.isclass(owner):
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and module is not owner:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, mutated)


def phase_inversion_log(config: RunConfig) -> list[tuple[str, MergeKey]]:
    """The applied log of one production merge of a hand-built epoch in
    which only the phase orders two workers' batches.

    On a real run phase never decides the merge: deliveries and source
    feeds have only node-local effects, so every shipped batch is a
    ``PHASE_PROTOCOL`` timer.  Here root's batch sorts first by rank
    and local-0's by phase, so a merge that drops the phase applies
    them out of canonical order.
    """
    coord = Coordinator(config, _InProcessTransport({}))
    coord.applied_log = []
    root, local = coord.node_names[:2]
    coord._merge_epoch({
        root: ([{"ref": ["timer", 0], "k": [1.0, 1, ["a"]],
                 "ops": []}], b""),
        local: ([{"ref": ["timer", 0], "k": [1.0, 0, ["b"]],
                  "ops": []}], b"")}, 2.0)
    return coord.applied_log
