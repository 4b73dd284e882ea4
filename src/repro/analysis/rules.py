"""The deco-lint rule set (DL001-DL011).

Each rule encodes one clause of the simulator's determinism contract
(see DESIGN.md section 8) or of the serve runtime's concurrency
contract (sections 12-13).  All rules are purely syntactic/AST-based —
they over-approximate where type information would be needed, and every
rule supports per-line ``# decolint: disable=DLxxx`` suppression for
the deliberate exceptions.

DL001  no wall-clock or unseeded randomness in simulation code
DL002  no iteration over unordered collections in simulation code
DL003  no float ``==`` / ``!=`` in metrics and aggregates
DL004  tracer hot-path calls must be guarded by ``.enabled``
DL005  no mutable default arguments; no mutated module-level state
DL006  no wire-size constant arithmetic outside the wire layer
DL007  no direct repro.sim imports from the protocol core
DL008  no in-place mutation of zero-copy batch/array views
DL009  no ``REPRO_*`` environment reads outside config/bootstrap
DL010  no blocking calls inside coordinator merge sections
DL011  no per-query lift loops in scheme hot paths
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.lint import FileContext, Finding, LintRule

#: The packages whose execution happens *inside* a simulated run.
SIM_SCOPE = ("repro/sim", "repro/core", "repro/baselines",
             "repro/runtime")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _AliasCollector(ast.NodeVisitor):
    """Map local names to the dotted import path they resolve to."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never alias stdlib modules
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}")


def _resolve_chain(node: ast.AST, aliases: dict[str, str]
                   ) -> str | None:
    """Dotted call target with its root resolved through imports."""
    chain = _dotted(node)
    if chain is None:
        return None
    root, _, rest = chain.partition(".")
    resolved = aliases.get(root)
    if resolved is None:
        return chain
    return f"{resolved}.{rest}" if rest else resolved


class NoWallClockOrUnseededRandom(LintRule):
    """DL001: simulation code must not read wall-clock time or draw
    from unseeded randomness.

    Simulated time comes from :attr:`Simulator.now
    <repro.sim.kernel.Simulator.now>`; randomness comes from the
    workload generator's seeded RNG.  A ``time.time()`` or
    ``random.random()`` anywhere in ``sim/``, ``core/``, or
    ``baselines/`` makes runs irreproducible and scheme comparisons
    untrustworthy.
    """

    code = "DL001"
    name = "no-wall-clock-or-unseeded-random"
    summary = ("wall-clock reads and unseeded RNG draws are forbidden "
               "in simulation code")
    scope = SIM_SCOPE

    #: Fully-resolved call targets that read the host clock or global
    #: entropy.
    BANNED_EXACT = frozenset({
        "time.time", "time.time_ns", "time.monotonic",
        "time.monotonic_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.sleep",
        "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    })
    #: Classmethod-style clock reads (suffix match: the class may be
    #: reached as ``datetime.datetime`` or a bare imported name).
    BANNED_SUFFIXES = ("datetime.now", "datetime.utcnow",
                       "datetime.today", "date.today")
    #: ``numpy.random`` members that are seeding-aware constructors
    #: (checked separately for missing seeds) rather than global draws.
    NUMPY_CONSTRUCTORS = frozenset({
        "default_rng", "RandomState", "Generator", "SeedSequence",
        "PCG64", "Philox", "MT19937", "SFC64", "BitGenerator",
    })

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        collector = _AliasCollector()
        collector.visit(ctx.tree)
        aliases = collector.aliases
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _resolve_chain(node.func, aliases)
            if chain is None:
                continue
            if chain in self.BANNED_EXACT:
                yield self.finding(
                    ctx, node,
                    f"wall-clock/entropy call `{chain}()` in simulation "
                    f"code; use simulated time (`sim.now`) or the "
                    f"seeded workload RNG")
                continue
            if chain.endswith(self.BANNED_SUFFIXES):
                yield self.finding(
                    ctx, node,
                    f"wall-clock read `{chain}()`; simulation code must "
                    f"use `sim.now`")
                continue
            yield from self._check_random(ctx, node, chain)

    def _check_random(self, ctx: FileContext, node: ast.Call,
                      chain: str) -> Iterable[Finding]:
        parts = chain.split(".")
        if parts[0] == "random" and len(parts) == 2:
            fn = parts[1]
            if fn in ("Random", "SystemRandom"):
                if fn == "SystemRandom" or not node.args:
                    yield self.finding(
                        ctx, node,
                        f"unseeded RNG `random.{fn}()`; construct "
                        f"`random.Random(seed)` from the run config")
            elif fn != "seed":
                yield self.finding(
                    ctx, node,
                    f"global RNG draw `random.{fn}()`; use a seeded "
                    f"`random.Random` / `numpy` generator instead")
        elif parts[:2] == ["numpy", "random"] and len(parts) == 3:
            fn = parts[2]
            if fn in ("default_rng", "RandomState"):
                if not node.args:
                    yield self.finding(
                        ctx, node,
                        f"unseeded `numpy.random.{fn}()`; pass an "
                        f"explicit seed")
            elif fn not in self.NUMPY_CONSTRUCTORS and fn != "seed":
                yield self.finding(
                    ctx, node,
                    f"legacy global RNG draw `numpy.random.{fn}()`; "
                    f"use a seeded `numpy.random.default_rng(seed)`")


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


class NoUnorderedIteration(LintRule):
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

    code = "DL002"
    name = "no-unordered-iteration"
    summary = ("iterating sets (or dict.keys()) feeds nondeterministic "
               "order into scheduling/emission")
    scope = SIM_SCOPE

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        # Track simple local `name = <set expr>` bindings per scope so
        # `s = set(...); for x in s:` is caught too.
        for scope_node in _scopes(ctx.tree):
            set_names = self._set_bindings(scope_node)
            for node in _scope_walk(scope_node):
                yield from self._check_node(ctx, node, set_names)

    def _set_bindings(self, scope: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in _scope_walk(scope):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif (isinstance(node, ast.AnnAssign)
                  and node.value is not None
                  and _is_set_expr(node.value)
                  and isinstance(node.target, ast.Name)):
                names.add(node.target.id)
        return names

    def _check_node(self, ctx: FileContext, node: ast.AST,
                    set_names: set[str]) -> Iterable[Finding]:
        iters: list[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id in ("list", "tuple")
              and len(node.args) == 1
              and self._is_unordered(node.args[0], set_names)):
            yield self.finding(
                ctx, node,
                f"`{node.func.id}()` over a set preserves the set's "
                f"nondeterministic order; use `sorted(...)`")
            return
        for it in iters:
            if self._is_unordered(it, set_names):
                yield self.finding(
                    ctx, it,
                    "iteration over an unordered set; use "
                    "`sorted(...)` (or an insertion-ordered dict/list)")
            elif (isinstance(it, ast.Call)
                  and isinstance(it.func, ast.Attribute)
                  and it.func.attr == "keys" and not it.args):
                yield self.finding(
                    ctx, it,
                    "iterate the dict itself, not `.keys()`, so the "
                    "ordering source is explicit")

    def _is_unordered(self, node: ast.AST, set_names: set[str]) -> bool:
        if _is_set_expr(node):
            return True
        return isinstance(node, ast.Name) and node.id in set_names


class NoFloatEquality(LintRule):
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

    code = "DL003"
    name = "no-float-equality"
    summary = ("exact ==/!= between floats in metrics/aggregates; "
               "use math.isclose or integer counts")
    scope = ("repro/metrics", "repro/aggregates")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, (left, right) in zip(
                    node.ops, zip(operands, operands[1:], strict=False),
                    strict=False):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._floatish(left) or self._floatish(right):
                    yield self.finding(
                        ctx, node,
                        "exact float equality; use math.isclose() "
                        "(or compare integer counts)")
                    break

    def _floatish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floatish(node.left) or self._floatish(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._floatish(node.operand)
        if isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if chain is None:
                return False
            if chain == "float":
                return True
            if chain in ("sum", "min", "max", "abs"):
                return any(self._floatish(a) for a in node.args)
            return chain.startswith(("math.", "np.", "numpy.")) and \
                not chain.endswith(
                    ("isclose", "allclose", "array_equal"))
        return False


class GuardedTracerCalls(LintRule):
    """DL004: tracer recording calls in simulation code must sit under
    an ``if <tracer>.enabled:`` guard.

    The PR-3 convention keeps untraced runs at one attribute load plus
    a branch per *message*: hooks hoist ``tracer = self.ctx.tracer``
    and only build event payloads under ``if tracer.enabled:``.  An
    unguarded ``tracer.event(...)`` evaluates its (often f-string /
    dict-building) arguments on every call even when tracing is off —
    a silent hot-path regression the type checker cannot see.
    """

    code = "DL004"
    name = "guarded-tracer-calls"
    summary = ("tracer.event/inc/gauge in simulation code must be "
               "inside `if tracer.enabled:`")
    scope = SIM_SCOPE

    RECORDING = ("event", "inc", "gauge")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._visit(ctx, ctx.tree, guarded=False)

    def _visit(self, ctx: FileContext, node: ast.AST,
               guarded: bool) -> Iterable[Finding]:
        if isinstance(node, ast.If) and self._is_guard(node.test):
            # The guard covers only the if-body, never the else.
            for stmt in node.body:
                yield from self._visit(ctx, stmt, True)
            for stmt in node.orelse:
                yield from self._visit(ctx, stmt, guarded)
            return
        if (isinstance(node, ast.Call)
                and self._is_recording_call(node) and not guarded):
            yield self.finding(
                ctx, node,
                f"unguarded tracer call `{_dotted(node.func)}(...)`; "
                f"wrap in `if tracer.enabled:` (hot-path convention)")
        for child in ast.iter_child_nodes(node):
            yield from self._visit(ctx, child, guarded)

    def _is_guard(self, test: ast.AST) -> bool:
        """A test that references some ``<...>.enabled`` attribute."""
        return any(isinstance(sub, ast.Attribute)
                   and sub.attr == "enabled"
                   for sub in ast.walk(test))

    def _is_recording_call(self, call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in self.RECORDING):
            return False
        chain = _dotted(func.value)
        return chain is not None and "tracer" in chain.lower()


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
        chain = _dotted(node.func)
        if chain is None:
            return False
        return chain.split(".")[-1] in _MUTABLE_CALLS
    return False


class NoSharedMutableState(LintRule):
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

    code = "DL005"
    name = "no-shared-mutable-state"
    summary = ("mutable default args / function-mutated module globals "
               "leak state across sweep-worker runs")
    scope = ()  # applies to the whole package

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._check_defaults(ctx)
        yield from self._check_module_state(ctx)

    def _check_defaults(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_expr(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in `{name}`; "
                        f"default to None and create inside the body")

    def _check_module_state(self, ctx: FileContext) -> Iterable[Finding]:
        # 1. Collect module-level names bound to mutable containers.
        module_mutables: dict[str, ast.AST] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                if _is_mutable_expr(stmt.value):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            module_mutables[target.id] = stmt
            elif (isinstance(stmt, ast.AnnAssign)
                  and stmt.value is not None
                  and isinstance(stmt.target, ast.Name)
                  and _is_mutable_expr(stmt.value)):
                module_mutables[stmt.target.id] = stmt
        if not module_mutables:
            return
        # 2. Find mutations of those names inside function bodies.
        mutated: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            local = self._local_bindings(node)
            for sub in ast.walk(node):
                name = self._mutated_name(sub)
                if (name is not None and name in module_mutables
                        and name not in local):
                    mutated.add(name)
        for name in mutated:
            yield self.finding(
                ctx, module_mutables[name],
                f"module-level mutable `{name}` is mutated from "
                f"function code; sweep workers share it across runs — "
                f"pass state explicitly or document why this is safe "
                f"with a suppression")

    def _local_bindings(self, fn: ast.AST) -> set[str]:
        """Names (re)bound locally, so shadowed globals don't count."""
        names: set[str] = set()
        args = fn.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            names.add(arg.arg)
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name):
                names.add(sub.target.id)
            elif isinstance(sub, ast.Global):
                names.difference_update(sub.names)
        return names

    def _mutated_name(self, node: ast.AST) -> str | None:
        # x[...] = v   /   del x[...]
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else node.targets)
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)):
                    return target.value.id
        # x += [...]
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)):
            return node.target.id
        # x.append(...) etc.
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)):
            return node.func.value.id
        return None


class NoWireSizeArithmetic(LintRule):
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

    code = "DL006"
    name = "no-wire-size-arithmetic"
    summary = ("wire-size constant arithmetic outside repro/wire and "
               "repro/runtime/serialization duplicates the frame layout")
    scope = ()  # applies everywhere but the wire layer itself

    #: The derived size-model tables and the layout constants they come
    #: from.  Any of these appearing inside arithmetic re-encodes the
    #: frame layout.
    SIZE_CONSTANTS = frozenset({
        "EVENT_BYTES", "HEADER_BYTES", "SCALAR_BYTES",
        "WIRE_EVENT_BYTES", "WIRE_HEADER_BYTES", "WIRE_SCALAR_BYTES",
    })

    #: Package paths allowed to do layout arithmetic: the layout's
    #: single source of truth and the size model derived from it.
    exempt = ("repro/wire", "repro/runtime/serialization")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._visit(ctx, ctx.tree)

    def _visit(self, ctx: FileContext, node: ast.AST
               ) -> Iterable[Finding]:
        # Flag only the outermost arithmetic expression mentioning a
        # size constant (one finding per formula, not per operand).
        if isinstance(node, ast.BinOp):
            name = self._size_constant_in(node)
            if name is not None:
                yield self.finding(
                    ctx, node,
                    f"arithmetic over wire-size constant `{name}` "
                    f"outside the wire layer; use "
                    f"`sizeof_message`/`message_size` (or move the "
                    f"formula into repro.wire)")
                return
        for child in ast.iter_child_nodes(node):
            yield from self._visit(ctx, child)

    def _size_constant_in(self, node: ast.AST) -> str | None:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name)
                    and sub.id in self.SIZE_CONSTANTS):
                return sub.id
            if (isinstance(sub, ast.Attribute)
                    and sub.attr in self.SIZE_CONSTANTS):
                return sub.attr
        return None


class NoSimImportsInProtocolCore(LintRule):
    """DL007: the protocol core must not import the simulator directly.

    The scheme behaviours (``repro/core``) and baselines
    (``repro/baselines``) are written against the runtime driver
    interface (:mod:`repro.runtime`) so that one protocol
    implementation runs unchanged on both drivers — the discrete-event
    simulator and the :mod:`repro.serve` process runtime.  A direct
    ``repro.sim`` import punches through that boundary: code gains
    access to simulator-only machinery (the kernel, the fabric, crash
    hooks) that has no serve-side equivalent, and the next serve run
    diverges from the oracle.  Import the equivalent name from
    :mod:`repro.runtime` instead; driver-specific glue belongs in
    :mod:`repro.runtime.driver`.

    Imports inside ``if TYPE_CHECKING:`` blocks are exempt: annotation
    -only names never execute, so they cannot couple protocol code to
    simulator behaviour.
    """

    code = "DL007"
    name = "no-sim-import-in-protocol-core"
    summary = ("repro.core/repro.baselines must import the runtime "
               "driver interface, never repro.sim directly")
    scope = ("repro/core", "repro/baselines")
    # Unlike the determinism rules, the boundary only exists for
    # in-package protocol code; scripts and tests drive the simulator
    # on purpose.
    package_only = True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._visit(ctx, ctx.tree)

    def _visit(self, ctx: FileContext, root: ast.AST
               ) -> Iterable[Finding]:
        for node in ast.iter_child_nodes(root):
            if isinstance(node, ast.If) and self._is_type_checking(
                    node.test):
                # Annotation-only imports: check the else branch but
                # skip the guarded body.
                for sub in node.orelse:
                    yield from self._visit(ctx, sub)
                    yield from self._check_import(ctx, sub)
                continue
            yield from self._check_import(ctx, node)
            yield from self._visit(ctx, node)

    @staticmethod
    def _is_type_checking(test: ast.AST) -> bool:
        return ((isinstance(test, ast.Name)
                 and test.id == "TYPE_CHECKING")
                or (isinstance(test, ast.Attribute)
                    and test.attr == "TYPE_CHECKING"))

    def _check_import(self, ctx: FileContext, node: ast.AST
                      ) -> Iterable[Finding]:
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro.sim" or module.startswith(
                    "repro.sim."):
                yield self.finding(
                    ctx, node,
                    f"direct import of `{module}` from the "
                    f"protocol core; use the runtime driver "
                    f"interface (repro.runtime) instead")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if (alias.name == "repro.sim"
                        or alias.name.startswith("repro.sim.")):
                    yield self.finding(
                        ctx, node,
                        f"direct import of `{alias.name}` from "
                        f"the protocol core; use the runtime "
                        f"driver interface (repro.runtime) "
                        f"instead")


class NoViewMutation(LintRule):
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
    name is flagged.
    """

    code = "DL008"
    name = "no-view-mutation"
    summary = ("in-place writes through _view/get_range/lift_range "
               "results corrupt the shared zero-copy buffer")
    scope = ()  # aliasing bugs are just as fatal in scripts

    #: Methods whose return values alias their receiver's buffer.
    VIEW_PRODUCERS = frozenset({
        "_view", "get_range", "lift_range", "lift_ranges",
    })
    #: ndarray methods that mutate the receiver in place.
    MUTATING_METHODS = frozenset({
        "sort", "fill", "put", "partition", "resize", "itemset",
        "setfield", "byteswap",
    })

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for scope_node in _scopes(ctx.tree):
            tainted = self._tainted_names(scope_node)
            for node in _scope_walk(scope_node):
                yield from self._check_node(ctx, node, tainted)

    def _tainted_names(self, scope: ast.AST) -> set[str]:
        """Fixpoint over assignments: names holding view-derived data.

        Statement order is ignored (a lint over-approximation): a name
        ever bound to view-derived data stays tainted even if later
        rebound to a copy.
        """
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in _scope_walk(scope):
                value: ast.AST | None = None
                targets: list[ast.AST] = []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, list(node.targets)
                elif (isinstance(node, ast.AnnAssign)
                      and node.value is not None):
                    value, targets = node.value, [node.target]
                elif isinstance(node, ast.NamedExpr):
                    value, targets = node.value, [node.target]
                if value is None:
                    continue
                for target, expr in self._pairs(targets, value):
                    if not self._is_view(expr, tainted):
                        continue
                    for name in self._target_names(target):
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
        return tainted

    def _pairs(self, targets: list[ast.AST], value: ast.AST
               ) -> Iterable[tuple[ast.AST, ast.AST]]:
        """Match targets to value exprs, splitting parallel tuple
        assignments (``a, b = view(), other``) element-wise."""
        for target in targets:
            if (isinstance(target, (ast.Tuple, ast.List))
                    and isinstance(value, (ast.Tuple, ast.List))
                    and len(target.elts) == len(value.elts)
                    and not any(isinstance(e, ast.Starred)
                                for e in target.elts)):
                yield from zip(target.elts, value.elts)
            else:
                yield target, value

    def _target_names(self, target: ast.AST) -> Iterable[str]:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._target_names(elt)
        elif isinstance(target, ast.Starred):
            yield from self._target_names(target.value)

    def _is_view(self, node: ast.AST, tainted: set[str]) -> bool:
        """Whether an expression (syntactically) aliases view data."""
        if isinstance(node, ast.Call):
            func = node.func
            return (isinstance(func, ast.Attribute)
                    and func.attr in self.VIEW_PRODUCERS)
        if isinstance(node, (ast.Attribute, ast.Subscript,
                             ast.Starred)):
            return self._is_view(node.value, tainted)
        if isinstance(node, ast.IfExp):
            return (self._is_view(node.body, tainted)
                    or self._is_view(node.orelse, tainted))
        return isinstance(node, ast.Name) and node.id in tainted

    def _check_node(self, ctx: FileContext, node: ast.AST,
                    tainted: set[str]) -> Iterable[Finding]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, (ast.Subscript, ast.Attribute))
                        and self._is_view(target.value, tainted)):
                    yield self.finding(
                        ctx, target,
                        "in-place write through a zero-copy view; "
                        "copy first (`.copy()` / "
                        "`np.ascontiguousarray`)")
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if (isinstance(target, (ast.Subscript, ast.Attribute))
                    and self._is_view(target.value, tainted)) or \
                    self._is_view(target, tainted):
                yield self.finding(
                    ctx, target,
                    "augmented assignment mutates a zero-copy view "
                    "in place; copy first")
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in self.MUTATING_METHODS
                    and self._is_view(func.value, tainted)):
                yield self.finding(
                    ctx, node,
                    f"`.{func.attr}()` mutates a zero-copy view in "
                    f"place; copy first")
            for kw in node.keywords:
                if kw.arg == "out" and self._is_view(kw.value,
                                                     tainted):
                    yield self.finding(
                        ctx, kw.value,
                        "`out=` targets a zero-copy view; the write "
                        "aliases the shared buffer — copy first")


class NoEnvReadOutsideBootstrap(LintRule):
    """DL009: ``REPRO_*`` environment reads are bootstrap-only.

    No ``REPRO_*`` variable selects a code path: the package has one
    production path per layer, and the reference implementations the
    tests compare against are reached by constructor argument.  What
    the environment may still carry is deployment (a cache directory,
    a worker count), each read once at a sanctioned bootstrap point.
    An ``os.environ`` read of a ``REPRO_*`` key anywhere else creates
    hidden config — two "identical" runs diverge because some deep
    module consulted the environment mid-run, which the determinism
    harness cannot see — and is how a behaviour switch would come back.
    """

    code = "DL009"
    name = "no-env-read-outside-bootstrap"
    summary = ("REPRO_* environment reads outside the sanctioned "
               "config/bootstrap modules create hidden run config")
    # Out-of-package scripts/benchmarks read REPRO_* on purpose (scale
    # and quick-mode knobs); the rule polices the package internals
    # only.
    package_only = True

    #: The sanctioned read sites: ``REPRO_WORKLOAD_CACHE`` (a path) and
    #: ``REPRO_JOBS`` (a worker count).  Neither selects a behaviour.
    exempt = ("repro/core/workload", "repro/sweep")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        env_consts = self._env_constants(ctx.tree)
        collector = _AliasCollector()
        collector.visit(ctx.tree)
        aliases = collector.aliases
        for node in ast.walk(ctx.tree):
            yield from self._check_node(ctx, node, env_consts, aliases)

    def _env_constants(self, tree: ast.Module) -> set[str]:
        """Module-level names bound to ``"REPRO_..."`` literals."""
        consts: set[str] = set()
        for stmt in tree.body:
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                targets, value = [stmt.target], stmt.value
            if self._is_env_key(value, set()):
                for target in targets:
                    if isinstance(target, ast.Name):
                        consts.add(target.id)
        return consts

    def _is_env_key(self, node: ast.AST | None,
                    env_consts: set[str]) -> bool:
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, str)):
            return node.value.startswith("REPRO_")
        return isinstance(node, ast.Name) and node.id in env_consts

    def _check_node(self, ctx: FileContext, node: ast.AST,
                    env_consts: set[str],
                    aliases: dict[str, str]) -> Iterable[Finding]:
        # os.environ.get("REPRO_X") / os.getenv("REPRO_X")
        if isinstance(node, ast.Call):
            chain = _resolve_chain(node.func, aliases)
            if (chain in ("os.environ.get", "os.getenv") and node.args
                    and self._is_env_key(node.args[0], env_consts)):
                yield self.finding(
                    ctx, node,
                    "REPRO_* environment read outside a bootstrap "
                    "module; read it at the sanctioned site and pass "
                    "the value explicitly")
        # os.environ["REPRO_X"] in load context (stores are setup)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Load)
              and _resolve_chain(node.value, aliases) == "os.environ"
              and self._is_env_key(node.slice, env_consts)):
            yield self.finding(
                ctx, node,
                "REPRO_* environment read outside a bootstrap module; "
                "pass the value explicitly")
        # "REPRO_X" in os.environ
        elif isinstance(node, ast.Compare):
            for op, comp in zip(node.ops, node.comparators):
                if (isinstance(op, (ast.In, ast.NotIn))
                        and self._is_env_key(node.left, env_consts)
                        and _resolve_chain(comp, aliases)
                        == "os.environ"):
                    yield self.finding(
                        ctx, node,
                        "REPRO_* environment probe outside a "
                        "bootstrap module; pass the value explicitly")


class NoBlockingInMergeSections(LintRule):
    """DL010: coordinator merge sections must not block.

    The epoch merge (DESIGN section 12) operates on *fully received*
    op batches: every reply is collected before
    ``Coordinator._merge_epoch`` runs, which is what makes the K-way
    merge a pure, deterministic function of its queues — the property
    the model checker (``repro check --explore``) exhaustively
    verifies.  The coordinator is one sequential loop over blocking
    sockets, so what this rule keeps out of a merge section is a wait
    or a *transfer*: ``time.sleep``, a socket operation, a framing
    send/recv, or one of the coordinator's own transport calls
    (``transport.send``/``recv``, ``_send``/``_recv``/``_rpc``).  Any
    of them reintroduces arrival-order timing into the merge decision,
    invalidating the small-scope proof, and breaks the
    write-all-then-read-all discipline that keeps the loop
    deadlock-free.

    Applies to all of :mod:`repro.serve.merge` (the extracted merge
    core) and to ``_merge*``/``_apply*`` methods of the coordinator.
    """

    code = "DL010"
    name = "no-blocking-in-merge-sections"
    summary = ("blocking calls (sleep/socket/framing/transport) inside "
               "coordinator merge sections break merge determinism")
    scope = ("repro/serve/coordinator", "repro/serve/merge")
    package_only = True  # scripts outside it have no merge sections

    #: Resolved call targets that block on the host OS.
    BLOCKING_EXACT = frozenset({
        "time.sleep", "select.select", "socket.create_connection",
        "socket.socket", "subprocess.run", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen",
    })
    #: Any framing-layer or coordinator-transport transfer, by suffix.
    BLOCKING_SUFFIXES = ("send_frame", "recv_frame",
                         "connect_with_retry", "transport.send",
                         "transport.recv", "._send", "._recv", "._rpc")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        collector = _AliasCollector()
        collector.visit(ctx.tree)
        aliases = collector.aliases
        whole_module = ctx.package_path().startswith(
            "repro/serve/merge")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not whole_module and not node.name.startswith(
                    ("_merge", "_apply")):
                continue
            yield from self._check_section(ctx, node, aliases)

    def _check_section(self, ctx: FileContext, fn: ast.AST,
                       aliases: dict[str, str]) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = _resolve_chain(node.func, aliases)
            if chain is None:
                continue
            if chain in self.BLOCKING_EXACT:
                yield self.finding(
                    ctx, node,
                    f"blocking call `{chain}(...)` inside a merge "
                    f"section; the K-way merge must be a pure "
                    f"function of its queues")
            elif chain.endswith(self.BLOCKING_SUFFIXES):
                yield self.finding(
                    ctx, node,
                    f"transfer `{chain}(...)` inside a merge "
                    f"section; collect all replies before merging")


class NoPerQueryLiftLoops(LintRule):
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

    code = "DL011"
    name = "no-per-query-lift-loops"
    summary = ("per-query lift_range/scalar_lift loops re-aggregate "
               "shared data once per query; use the shared multi-"
               "query engine")
    scope = ("repro/core", "repro/baselines")
    package_only = True

    #: Method names that lift/aggregate a raw range.
    LIFT_CALLS = frozenset({"lift_range", "scalar_lift"})

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not (self._query_ish(node.target)
                    or self._query_ish(node.iter)):
                continue
            call = self._lift_call_in(node.body)
            if call is not None:
                yield self.finding(
                    ctx, node,
                    f"per-query loop calls `.{call}(...)` in its "
                    f"body — one lift per query per window; serve "
                    f"all queries from the shared slice store / "
                    f"partial tree instead")

    def _query_ish(self, node: ast.AST) -> bool:
        """Whether any name in the expression smells like a query."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and "quer" in sub.id.lower():
                return True
            if (isinstance(sub, ast.Attribute)
                    and "quer" in sub.attr.lower()):
                return True
        return False

    def _lift_call_in(self, body: list[ast.stmt]) -> str | None:
        """First lift-method call name anywhere in the loop body."""
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in self.LIFT_CALLS):
                    return sub.func.attr
        return None


#: Registered rules, in code order.
DEFAULT_RULES: tuple[type, ...] = (
    NoWallClockOrUnseededRandom,
    NoUnorderedIteration,
    NoFloatEquality,
    GuardedTracerCalls,
    NoSharedMutableState,
    NoWireSizeArithmetic,
    NoSimImportsInProtocolCore,
    NoViewMutation,
    NoEnvReadOutsideBootstrap,
    NoBlockingInMergeSections,
    NoPerQueryLiftLoops,
)
