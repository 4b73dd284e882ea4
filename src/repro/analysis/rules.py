"""The deco-lint rule set: :data:`RULES`, one record per rule.

Each rule encodes one clause of the simulator's determinism contract
(see DESIGN.md section 8) or of the serve runtime's concurrency
contract (sections 12-13).  All rules are purely syntactic/AST-based —
they over-approximate where type information would be needed, and every
rule supports per-line ``# decolint: disable=DLxxx`` suppression for
the deliberate exceptions.  A rule's rationale is the docstring of its
check function.

DL001  no wall-clock or unseeded randomness in simulation code
DL002  no iteration over unordered collections in simulation code
DL003  no float ``==`` / ``!=`` in metrics and aggregates
DL004  tracer hot-path calls must be guarded by ``.enabled``
DL005  no mutable default arguments; no mutated module-level state
DL006  no wire-size constant arithmetic outside the wire layer
DL008  no in-place mutation of zero-copy batch/array views
DL011  no per-query lift loops in scheme hot paths

DL007, DL009 and DL010 only said where code may live in ``src/repro``
(no simulator import in the protocol core, ``REPRO_*`` names only in
the bootstrap modules, no blocking call in a merge section).  Those
facts are rows of ``tests/test_layout.py`` now; the three codes are
retired and not reused.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.lint import FileContext, LintRule, dotted

#: What a check function yields: the node to anchor at, the message.
Hits = Iterable[tuple[ast.AST, str]]

#: The packages whose execution happens *inside* a simulated run.
SIM_SCOPE = ("repro/sim", "repro/core", "repro/baselines",
             "repro/runtime")


def _scope_walk(scope: ast.AST) -> Iterable[ast.AST]:
    """Walk a scope without descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _scopes(tree: ast.Module) -> list[ast.AST]:
    """The module scope, then every function scope in it."""
    return [tree, *(node for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)))]


def _bound_names(target: ast.AST, value: ast.AST
                 ) -> Iterator[tuple[str, ast.AST]]:
    """``(name, value)`` for each plain name ``target = value`` binds.

    Parallel tuple assignments (``a, b = view(), other``) pair up
    element-wise; any other unpacking gives every name the whole value.
    """
    if (isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)
            and not any(isinstance(e, ast.Starred) for e in target.elts)):
        for elt, expr in zip(target.elts, value.elts, strict=True):
            yield from _bound_names(elt, expr)
    elif isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt, value)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value, value)


def _bindings(nodes: Iterable[ast.AST]
              ) -> Iterator[tuple[ast.AST, str, ast.AST]]:
    """``(statement, name, value)`` for every name an ``=``, annotated
    ``=`` or ``:=`` among ``nodes`` binds (subscript and attribute
    stores bind no name)."""
    for node in nodes:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif (isinstance(node, (ast.AnnAssign, ast.NamedExpr))
              and node.value is not None):
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            for name, bound in _bound_names(target, value):
                yield node, name, bound


def _names_in(node: ast.AST) -> Iterator[str]:
    """Every identifier a Name or Attribute in ``node`` mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


#: Fully-resolved call targets that read the host clock or global
#: entropy.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic",
    "time.monotonic_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.sleep",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
})
#: Classmethod-style clock reads (suffix match: the class may be
#: reached as ``datetime.datetime`` or a bare imported name).
_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow",
                   "datetime.today", "date.today")
#: ``numpy.random`` members that are seeding-aware constructors
#: (checked separately for missing seeds) rather than global draws.
_NUMPY_CONSTRUCTORS = frozenset({
    "default_rng", "RandomState", "Generator", "SeedSequence",
    "PCG64", "Philox", "MT19937", "SFC64", "BitGenerator",
})


def _wall_clock(ctx: FileContext) -> Hits:
    """DL001: simulation code must not read wall-clock time or draw
    from unseeded randomness.

    Simulated time comes from :attr:`Simulator.now
    <repro.sim.kernel.Simulator.now>`; randomness comes from the
    workload generator's seeded RNG.  A ``time.time()`` or
    ``random.random()`` anywhere in ``sim/``, ``core/``, or
    ``baselines/`` makes runs irreproducible and scheme comparisons
    untrustworthy.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = ctx.resolve(node.func)
        if chain is None:
            continue
        if chain in _CLOCK_CALLS:
            yield node, (f"wall-clock/entropy call `{chain}()` in "
                         f"simulation code; use simulated time "
                         f"(`sim.now`) or the seeded workload RNG")
        elif chain.endswith(_CLOCK_SUFFIXES):
            yield node, (f"wall-clock read `{chain}()`; simulation "
                         f"code must use `sim.now`")
        else:
            message = _rng_draw(node, chain)
            if message is not None:
                yield node, message


def _rng_draw(call: ast.Call, chain: str) -> str | None:
    """DL001's message for an unseeded or global RNG draw, if any."""
    module, _, fn = chain.rpartition(".")
    if module == "random":
        if fn == "SystemRandom" or (fn == "Random" and not call.args):
            return (f"unseeded RNG `random.{fn}()`; construct "
                    f"`random.Random(seed)` from the run config")
        if fn not in ("Random", "seed"):
            return (f"global RNG draw `random.{fn}()`; use a seeded "
                    f"`random.Random` / `numpy` generator instead")
    elif module == "numpy.random":
        if fn in ("default_rng", "RandomState") and not call.args:
            return (f"unseeded `numpy.random.{fn}()`; pass an explicit "
                    f"seed")
        if fn not in _NUMPY_CONSTRUCTORS and fn != "seed":
            return (f"legacy global RNG draw `numpy.random.{fn}()`; "
                    f"use a seeded `numpy.random.default_rng(seed)`")
    return None


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a set (syntactically)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        # set algebra: s1 | s2, s1 & s2, s1 - s2 — only when a side is
        # itself syntactically a set.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_unordered(node: ast.AST, sets: set[str]) -> bool:
    """A set expression, or a name bound to one in this scope."""
    return _is_set_expr(node) or (isinstance(node, ast.Name)
                                  and node.id in sets)


def _unordered_iteration(ctx: FileContext) -> Hits:
    """DL002: no iteration over sets (or ``dict.keys()``) in simulation
    code.

    Set iteration order depends on insertion history and — for strings
    — on the per-process hash seed, so any event scheduling or message
    emission it feeds differs between runs.  Iterate ``sorted(...)`` or
    an explicitly ordered structure instead.  ``dict`` iteration is
    insertion-ordered, but ``.keys()`` in a ``for`` is flagged anyway:
    iterate the dict itself, which makes the (deterministic) source of
    the order visible.
    """
    for scope in _scopes(ctx.tree):
        # Local `name = <set expr>` bindings, so `s = set(...);
        # for x in s:` is caught too.
        sets = {name for _, name, value in _bindings(_scope_walk(scope))
                if _is_set_expr(value)}
        for node in _scope_walk(scope):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("list", "tuple")
                  and len(node.args) == 1
                  and _is_unordered(node.args[0], sets)):
                yield node, (f"`{node.func.id}()` over a set preserves "
                             f"the set's nondeterministic order; use "
                             f"`sorted(...)`")
            for it in iters:
                if _is_unordered(it, sets):
                    yield it, ("iteration over an unordered set; use "
                               "`sorted(...)` (or an insertion-ordered "
                               "dict/list)")
                elif (isinstance(it, ast.Call)
                      and isinstance(it.func, ast.Attribute)
                      and it.func.attr == "keys" and not it.args):
                    yield it, ("iterate the dict itself, not `.keys()`, "
                               "so the ordering source is explicit")


def _floatish(node: ast.AST) -> bool:
    """Whether an expression is syntactically float-valued (DL003)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, ast.Div) or _floatish(node.left)
                or _floatish(node.right))
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand)
    if isinstance(node, ast.Call):
        chain = dotted(node.func)
        if chain in ("sum", "min", "max", "abs"):
            return any(_floatish(a) for a in node.args)
        return chain is not None and (chain == "float" or (
            chain.startswith(("math.", "np.", "numpy."))
            and not chain.endswith(("isclose", "allclose",
                                    "array_equal"))))
    return False


def _float_equality(ctx: FileContext) -> Hits:
    """DL003: no float ``==`` / ``!=`` in ``metrics/`` and
    ``aggregates/``.

    Error metrics and aggregate combiners work on accumulated floats;
    exact equality on those silently degrades into
    platform/order-dependent behaviour.  Compare with a tolerance
    (``math.isclose``), or compare integer counts instead.

    Heuristic: a comparison is flagged when either operand is
    syntactically float-valued (a float literal, a true division, a
    ``float(...)``/``math.*(...)`` call, or a ``sum(...)`` over
    division results).
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Eq, ast.NotEq))
               and (_floatish(left) or _floatish(right))
               for op, left, right in zip(node.ops, operands,
                                          operands[1:], strict=False)):
            yield node, ("exact float equality; use math.isclose() "
                         "(or compare integer counts)")


def _unguarded_tracer(ctx: FileContext) -> Hits:
    """DL004: tracer recording calls in simulation code must sit under
    an ``if <tracer>.enabled:`` guard.

    The PR-3 convention keeps untraced runs at one attribute load plus
    a branch per *message*: hooks hoist ``tracer = self.ctx.tracer``
    and only build event payloads under ``if tracer.enabled:``.  An
    unguarded ``tracer.event(...)`` evaluates its (often f-string /
    dict-building) arguments on every call even when tracing is off —
    a silent hot-path regression the type checker cannot see.
    """
    def visit(node: ast.AST, guarded: bool) -> Hits:
        if isinstance(node, ast.If) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                for sub in ast.walk(node.test)):
            # The guard covers only the if-body, never the else.
            for stmt in node.body:
                yield from visit(stmt, True)
            for stmt in node.orelse:
                yield from visit(stmt, guarded)
            return
        if (isinstance(node, ast.Call) and not guarded
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("event", "inc", "gauge")
                and "tracer" in (dotted(node.func.value) or "").lower()):
            yield node, (f"unguarded tracer call "
                         f"`{dotted(node.func)}(...)`; wrap in "
                         f"`if tracer.enabled:` (hot-path convention)")
        for child in ast.iter_child_nodes(node):
            yield from visit(child, guarded)

    yield from visit(ctx.tree, False)


_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "Counter",
})
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "move_to_end",
})


def _is_mutable_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = dotted(node.func)
        return chain is not None and chain.split(".")[-1] in _MUTABLE_CALLS
    return False


def _mutated_name(node: ast.AST) -> str | None:
    """The bare name ``node`` mutates in place, if any."""
    # x[...] = v   /   del x[...]
    if isinstance(node, (ast.Assign, ast.Delete)):
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                return target.value.id
    # x += [...]
    if isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                      ast.Name):
        return node.target.id
    # x.append(...) etc.
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)):
        return node.func.value.id
    return None


def _shared_mutable_state(ctx: FileContext) -> Hits:
    """DL005: no mutable default arguments; no module-level mutable
    state that functions mutate.

    Sweep workers import ``repro`` modules into long-lived processes
    that execute *many* runs: a mutable default argument or a
    module-level dict/list that handler code mutates leaks state
    between runs (and between a worker's runs and the parent's),
    breaking the serial/parallel bit-identity guarantee.  Module-level
    registries that are only written at import time are fine — suppress
    those explicitly with a justification.
    """
    functions = [node for node in ast.walk(ctx.tree)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda))]
    for fn in functions:
        for default in [*fn.args.defaults, *fn.args.kw_defaults]:
            if default is not None and _is_mutable_expr(default):
                where = getattr(fn, "name", "<lambda>")
                yield default, (f"mutable default argument in `{where}`; "
                                f"default to None and create inside the "
                                f"body")
    module_mutables = {name: stmt
                       for stmt, name, value in _bindings(ctx.tree.body)
                       if _is_mutable_expr(value)}
    mutated: dict[str, None] = {}
    for fn in functions:
        if isinstance(fn, ast.Lambda):
            continue
        # Names (re)bound locally shadow the globals, unless declared
        # `global`.
        args = fn.args
        local = {arg.arg for arg in [*args.posonlyargs, *args.args,
                                     *args.kwonlyargs, args.vararg,
                                     args.kwarg] if arg is not None}
        local.update(name for _, name, _ in _bindings(ast.walk(fn)))
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Global):
                local.difference_update(sub.names)
        for sub in ast.walk(fn):
            name = _mutated_name(sub)
            if (name is not None and name in module_mutables
                    and name not in local):
                mutated[name] = None
    for name in mutated:
        yield module_mutables[name], (
            f"module-level mutable `{name}` is mutated from function "
            f"code; sweep workers share it across runs — pass state "
            f"explicitly or document why this is safe with a "
            f"suppression")


#: The derived size-model tables and the layout constants they come
#: from.  Any of these appearing inside arithmetic re-encodes the frame
#: layout.
_SIZE_CONSTANTS = frozenset({
    "EVENT_BYTES", "HEADER_BYTES", "SCALAR_BYTES",
    "WIRE_EVENT_BYTES", "WIRE_HEADER_BYTES", "WIRE_SCALAR_BYTES",
})


def _wire_size_arithmetic(ctx: FileContext) -> Hits:
    """DL006: wire-size constants may only enter arithmetic inside the
    wire layer (``repro/wire``) and the size model it derives
    (``repro/runtime/serialization``).

    Expressions like ``3 * EVENT_BYTES[fmt]`` or
    ``HEADER_BYTES[fmt] + 24 * n`` sprinkled through scheme or analysis
    code re-derive the frame layout by hand; when the layout changes
    (new header field, new scalar slot) those copies silently go stale
    and the byte accounting drifts from what the codec actually frames.
    Size questions go through :func:`repro.core.protocol.sizeof_message`
    / :func:`repro.runtime.serialization.message_size` instead.
    Deliberate exceptions (e.g. a benchmark explaining the
    string-expansion factor) carry a per-line suppression with the
    justification next to it.
    """
    def visit(node: ast.AST) -> Hits:
        # Flag only the outermost arithmetic expression mentioning a
        # size constant (one finding per formula, not per operand).
        if isinstance(node, ast.BinOp):
            name = next((n for n in _names_in(node)
                         if n in _SIZE_CONSTANTS), None)
            if name is not None:
                yield node, (f"arithmetic over wire-size constant "
                             f"`{name}` outside the wire layer; use "
                             f"`sizeof_message`/`message_size` (or move "
                             f"the formula into repro.wire)")
                return
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    yield from visit(ctx.tree)


#: Methods whose return values alias their receiver's buffer.
_VIEW_PRODUCERS = frozenset({
    "_view", "get_range", "lift_range", "lift_ranges",
})
#: ndarray methods that mutate the receiver in place.
_NDARRAY_MUTATORS = frozenset({
    "sort", "fill", "put", "partition", "resize", "itemset",
    "setfield", "byteswap",
})


def _is_view(node: ast.AST, tainted: set[str]) -> bool:
    """Whether an expression (syntactically) aliases view data."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr in _VIEW_PRODUCERS)
    if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        return _is_view(node.value, tainted)
    if isinstance(node, ast.IfExp):
        return (_is_view(node.body, tainted)
                or _is_view(node.orelse, tainted))
    return isinstance(node, ast.Name) and node.id in tainted


def _view_mutation(ctx: FileContext) -> Hits:
    """DL008: no in-place mutation of zero-copy batch/array views.

    ``EventBatch._view``, ``RingBuffer.get_range`` and the
    ``lift_range``/``lift_ranges`` kernels hand out ndarray *slices*
    aliasing the shared ingest buffer — that aliasing is the whole
    zero-copy optimisation.  Writing through such a view (``v[i] = x``,
    ``v += ...``, ``v.sort()``, ``np.foo(..., out=v)``) silently
    corrupts every other window sharing the buffer and breaks the
    bit-identity contract between the codec on/off paths.  Copy first
    (``v.copy()``, ``np.ascontiguousarray(v)``) if mutation is needed.

    Heuristic: per function, names assigned from a view-producing call
    are tainted; taint propagates through attribute access,
    subscripting, tuple unpacking, and plain aliasing.  Any
    subscript/attribute store, augmented assignment, mutating ndarray
    method call, or ``out=`` argument whose base resolves to a tainted
    name is flagged.  Statement order is ignored (a lint
    over-approximation): a name ever bound to view-derived data stays
    tainted even if later rebound to a copy.
    """
    for scope in _scopes(ctx.tree):
        bindings = [(name, value) for _, name, value
                    in _bindings(_scope_walk(scope))]
        tainted: set[str] = set()
        while True:  # fixpoint: aliases of aliases of views
            grown = tainted | {name for name, value in bindings
                               if _is_view(value, tainted)}
            if grown == tainted:
                break
            tainted = grown
        for node in _scope_walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, (ast.Subscript, ast.Attribute))
                            and _is_view(target.value, tainted)):
                        yield target, ("in-place write through a "
                                       "zero-copy view; copy first "
                                       "(`.copy()` / "
                                       "`np.ascontiguousarray`)")
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if _is_view(target, tainted) or (
                        isinstance(target, (ast.Subscript, ast.Attribute))
                        and _is_view(target.value, tainted)):
                    yield target, ("augmented assignment mutates a "
                                   "zero-copy view in place; copy first")
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _NDARRAY_MUTATORS
                        and _is_view(func.value, tainted)):
                    yield node, (f"`.{func.attr}()` mutates a zero-copy "
                                 f"view in place; copy first")
                for kw in node.keywords:
                    if kw.arg == "out" and _is_view(kw.value, tainted):
                        yield kw.value, ("`out=` targets a zero-copy "
                                         "view; the write aliases the "
                                         "shared buffer — copy first")


def _per_query_lifts(ctx: FileContext) -> Hits:
    """DL011: no per-query lift loops in scheme hot paths.

    The multi-query engine (:mod:`repro.core.multiquery`) exists so
    that N standing queries over one stream share a single slice store
    and one partial tree: every window of every query is answered from
    the shared ``lift_range`` decomposition, and each slice partial is
    computed once.  A ``for`` loop over queries (or per-query
    pipelines) whose body calls ``.lift_range(...)`` or
    ``.scalar_lift(...)`` re-aggregates the same data once per query —
    the O(queries x events) shape the shared substrate replaces.
    Route per-query windows through the engine's shared group instead;
    the only sanctioned per-query loop is the engine's own unshared
    reference (``MultiQueryEngine(sharing=False)``), which carries an
    explicit suppression as the bit-identity oracle.

    Heuristic: a ``for`` statement is per-query when any name in its
    target or iterable contains ``quer`` (``query``, ``queries``,
    ``_query_pipes``, ...); any ``lift_range``/``scalar_lift`` method
    call anywhere in its body is flagged at the loop header.
    """
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, (ast.For, ast.AsyncFor))
                and any("quer" in name.lower()
                        for part in (node.target, node.iter)
                        for name in _names_in(part))):
            continue
        call = next((sub.func.attr for stmt in node.body
                     for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Call)
                     and isinstance(sub.func, ast.Attribute)
                     and sub.func.attr in ("lift_range", "scalar_lift")),
                    None)
        if call is not None:
            yield node, (f"per-query loop calls `.{call}(...)` in its "
                         f"body — one lift per query per window; serve "
                         f"all queries from the shared slice store / "
                         f"partial tree instead")


#: Every deco-lint rule, in code order.
RULES: tuple[LintRule, ...] = (
    LintRule("DL001", "no-wall-clock-or-unseeded-random",
             "wall-clock reads and unseeded RNG draws are forbidden in "
             "simulation code", _wall_clock, scope=SIM_SCOPE),
    LintRule("DL002", "no-unordered-iteration",
             "iterating sets (or dict.keys()) feeds nondeterministic "
             "order into scheduling/emission", _unordered_iteration,
             scope=SIM_SCOPE),
    LintRule("DL003", "no-float-equality",
             "exact ==/!= between floats in metrics/aggregates; use "
             "math.isclose or integer counts", _float_equality,
             scope=("repro/metrics", "repro/aggregates")),
    LintRule("DL004", "guarded-tracer-calls",
             "tracer.event/inc/gauge in simulation code must be inside "
             "`if tracer.enabled:`", _unguarded_tracer, scope=SIM_SCOPE),
    LintRule("DL005", "no-shared-mutable-state",
             "mutable default args / function-mutated module globals "
             "leak state across sweep-worker runs",
             _shared_mutable_state),
    # Exempt: the layout's single source of truth and the size model
    # derived from it.
    LintRule("DL006", "no-wire-size-arithmetic",
             "wire-size constant arithmetic outside repro/wire and "
             "repro/runtime/serialization duplicates the frame layout",
             _wire_size_arithmetic,
             exempt=("repro/wire", "repro/runtime/serialization")),
    # Everywhere: aliasing bugs are just as fatal in scripts.
    LintRule("DL008", "no-view-mutation",
             "in-place writes through _view/get_range/lift_range "
             "results corrupt the shared zero-copy buffer",
             _view_mutation),
    LintRule("DL011", "no-per-query-lift-loops",
             "per-query lift_range/scalar_lift loops re-aggregate "
             "shared data once per query; use the shared multi-query "
             "engine", _per_query_lifts,
             scope=("repro/core", "repro/baselines"), package_only=True),
)
