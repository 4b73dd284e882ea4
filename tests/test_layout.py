"""What source may say and where it may live, in ``src/repro``,
``examples`` and ``benchmarks``: one table of bans, each row a scope of
repo-relative path prefixes, a banned regex or AST check, its
exemptions, a reason and a snippet that breaks it (so no row passes
vacuously).  No suppression comments: a deliberate exception is an
``exempt`` entry, either a path prefix or ``path::name`` (the function
around the hit, or the module global it binds), and an entry that
swallows nothing fails.  A deletion that must stay deleted adds a row
here, not a CI step.  Run with ``pytest tests/test_layout.py``."""

import ast
import functools
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/repro", "examples", "benchmarks")
SCRIPTS = ("examples/", "benchmarks/")
EVERYWHERE = ("src/repro/", *SCRIPTS)
#: The packages whose code runs inside a simulated run, plus the
#: scripts that drive one.
SIM = ("src/repro/sim/", "src/repro/core/", "src/repro/baselines/",
       "src/repro/runtime/", *SCRIPTS)

#: What an AST check yields: the nodes that break its row.
Hit = ast.stmt | ast.expr


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FileContext:
    """One parsed file at its repo path, and the names its imports
    bind."""

    path: str
    tree: ast.Module
    aliases: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.aliases = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self.aliases[alias.asname or root] = (
                        alias.name if alias.asname else root)
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and not node.level):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    def resolve(self, node: ast.AST) -> str | None:
        """``dotted(node)`` with its root resolved through the
        file's imports."""
        chain = dotted(node)
        if chain is None:
            return None
        root, _, rest = chain.partition(".")
        resolved = self.aliases.get(root, root)
        return f"{resolved}.{rest}" if rest else resolved


@dataclass(frozen=True)
class Row:
    name: str
    scope: tuple[str, ...]  # repo-relative path prefixes
    banned: str | Callable[[FileContext], Iterable[Hit]]
    reason: str
    bad: tuple[str, str]  # (path, source) that breaks the row
    exempt: tuple[str, ...] = ()  # path prefixes or "path::name"


def _sim_imports(ctx: FileContext) -> Iterator[Hit]:
    """``repro.sim`` imports outside ``if TYPE_CHECKING:`` bodies."""
    typing_only = {id(sub) for node in ast.walk(ctx.tree)
                   if isinstance(node, ast.If)
                   and "TYPE_CHECKING" in ast.unparse(node.test)
                   for stmt in node.body for sub in ast.walk(stmt)}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if id(node) not in typing_only and any(
                re.match(r"repro\.sim(\.|$)", m) for m in modules):
            yield node


#: Calls (resolved through imports) that block on the host OS, and by
#: suffix any framing-layer or coordinator-transport transfer.
BLOCKING_EXACT = frozenset({
    "time.sleep", "select.select", "socket.create_connection",
    "socket.socket", "subprocess.run", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
})
BLOCKING_SUFFIXES = ("send_frame", "recv_frame", "connect_with_retry",
                     "transport.send", "transport.recv", "._send",
                     "._recv", "._rpc")


def _blocking_in_merge(ctx: FileContext) -> Iterator[Hit]:
    """Blocking calls anywhere in ``serve/merge.py``, or in a
    coordinator ``_merge*``/``_apply*`` method."""
    whole_module = ctx.path == "src/repro/serve/merge.py"
    for fn in ast.walk(ctx.tree):
        if isinstance(fn, ast.FunctionDef) and (
                whole_module or fn.name.startswith(("_merge", "_apply"))):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                chain = ctx.resolve(node.func)
                if chain and (chain in BLOCKING_EXACT
                              or chain.endswith(BLOCKING_SUFFIXES)):
                    yield node


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
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


def _bound_names(target: ast.expr, value: ast.expr
                 ) -> Iterator[tuple[str, ast.expr]]:
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
              ) -> Iterator[tuple[Hit, str, ast.expr]]:
    """``(statement, name, value)`` for every name an ``=``, annotated
    ``=`` or ``:=`` among ``nodes`` binds (subscript and attribute
    stores bind no name)."""
    for node in nodes:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif (isinstance(node, (ast.AnnAssign, ast.NamedExpr))
              and node.value is not None):
            targets = [node.target]
            value = node.value
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
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic",
    "time.monotonic_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.sleep",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
})
#: Classmethod-style clock reads (suffix match: the class may be
#: reached as ``datetime.datetime`` or a bare imported name).
CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow",
                  "datetime.today", "date.today")
#: ``numpy.random`` members that are seeding-aware constructors
#: (checked separately for missing seeds) rather than global draws.
NUMPY_CONSTRUCTORS = frozenset({
    "default_rng", "RandomState", "Generator", "SeedSequence",
    "PCG64", "Philox", "MT19937", "SFC64", "BitGenerator",
})


def _unseeded_draw(call: ast.Call, chain: str) -> bool:
    """Whether ``call`` (resolved to ``chain``) draws from a global or
    unseeded RNG."""
    module, _, fn = chain.rpartition(".")
    if module == "random":
        return (fn not in ("Random", "seed")
                or (fn == "Random" and not call.args))
    if module == "numpy.random":
        return ((fn in ("default_rng", "RandomState") and not call.args)
                or fn not in NUMPY_CONSTRUCTORS | {"seed"})
    return False


def _wall_clock(ctx: FileContext) -> Iterator[Hit]:
    """Calls that read the host clock or global entropy, or draw from
    an unseeded or global RNG."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            chain = ctx.resolve(node.func)
            if chain is not None and (
                    chain in CLOCK_CALLS or chain.endswith(CLOCK_SUFFIXES)
                    or _unseeded_draw(node, chain)):
                yield node


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a set (syntactically); set algebra
    counts when a side is itself syntactically a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_unordered(node: ast.AST, sets: set[str]) -> bool:
    """A set expression, or a name bound to one in this scope."""
    return _is_set_expr(node) or (isinstance(node, ast.Name)
                                  and node.id in sets)


def _unordered_iteration(ctx: FileContext) -> Iterator[Hit]:
    """Loops, comprehensions and ``list()``/``tuple()`` over a set
    expression or a name bound to one in the same scope, and loops
    over ``.keys()``."""
    for scope in _scopes(ctx.tree):
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
                yield node
            for it in iters:
                if _is_unordered(it, sets) or (
                        isinstance(it, ast.Call)
                        and isinstance(it.func, ast.Attribute)
                        and it.func.attr == "keys" and not it.args):
                    yield it


def _floatish(node: ast.AST) -> bool:
    """Whether an expression is syntactically float-valued: a float
    literal, a true division, a ``float(...)``/``math.*``/``np.*``
    call, or ``sum``/``min``/``max``/``abs`` over one of those."""
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


def _float_equality(ctx: FileContext) -> Iterator[Hit]:
    """``==``/``!=`` comparisons with a float-valued operand."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Eq, ast.NotEq))
                   and (_floatish(left) or _floatish(right))
                   for op, left, right in zip(node.ops, operands,
                                              operands[1:], strict=False)):
                yield node


def _unguarded_tracer(ctx: FileContext) -> Iterator[Hit]:
    """``<tracer>.event/inc/gauge(...)`` calls outside the body (not
    the ``else``) of an ``if ....enabled:``."""
    def visit(node: ast.AST, guarded: bool) -> Iterator[Hit]:
        if isinstance(node, ast.If) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                for sub in ast.walk(node.test)):
            for stmt in node.body:
                yield from visit(stmt, True)
            for stmt in node.orelse:
                yield from visit(stmt, guarded)
            return
        if (isinstance(node, ast.Call) and not guarded
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("event", "inc", "gauge")
                and "tracer" in (dotted(node.func.value) or "").lower()):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, guarded)

    yield from visit(ctx.tree, False)


MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "Counter",
})
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "move_to_end",
})


def _is_mutable_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = dotted(node.func)
        return chain is not None and chain.split(".")[-1] in MUTABLE_CALLS
    return False


def _mutated_name(node: ast.AST) -> str | None:
    """The bare name ``node`` mutates in place (``x[k] = v``,
    ``del x[k]``, ``x += v``, ``x.append(v)``, ...), if any."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                return target.value.id
    if isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                      ast.Name):
        return node.target.id
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)):
        return node.func.value.id
    return None


def _shared_mutable_state(ctx: FileContext) -> Iterator[Hit]:
    """Mutable default arguments, and module-level mutable bindings
    that function code mutates without rebinding the name locally."""
    functions = [node for node in ast.walk(ctx.tree)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda))]
    for fn in functions:
        for default in [*fn.args.defaults, *fn.args.kw_defaults]:
            if default is not None and _is_mutable_expr(default):
                yield default
    module_mutables = {name: stmt
                       for stmt, name, value in _bindings(ctx.tree.body)
                       if _is_mutable_expr(value)}
    mutated: dict[str, None] = {}
    for fn in functions:
        if isinstance(fn, ast.Lambda):
            continue
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
        yield module_mutables[name]


#: The derived size-model tables and the layout constants they come
#: from.
SIZE_CONSTANTS = frozenset({
    "EVENT_BYTES", "HEADER_BYTES", "SCALAR_BYTES",
    "WIRE_EVENT_BYTES", "WIRE_HEADER_BYTES", "WIRE_SCALAR_BYTES",
})


def _wire_size_arithmetic(ctx: FileContext) -> Iterator[Hit]:
    """The outermost arithmetic expression mentioning a wire-size
    constant (one hit per formula, not per operand)."""
    def visit(node: ast.AST) -> Iterator[Hit]:
        if isinstance(node, ast.BinOp) and not SIZE_CONSTANTS.isdisjoint(
                _names_in(node)):
            yield node
            return
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    yield from visit(ctx.tree)


#: Methods whose return values alias their receiver's buffer.
VIEW_PRODUCERS = frozenset({
    "_view", "get_range", "lift_range", "lift_ranges",
})
#: ndarray methods that mutate the receiver in place.
NDARRAY_MUTATORS = frozenset({
    "sort", "fill", "put", "partition", "resize", "itemset",
    "setfield", "byteswap",
})


def _is_view(node: ast.AST, tainted: set[str]) -> bool:
    """Whether an expression (syntactically) aliases view data."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr in VIEW_PRODUCERS)
    if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        return _is_view(node.value, tainted)
    if isinstance(node, ast.IfExp):
        return (_is_view(node.body, tainted)
                or _is_view(node.orelse, tainted))
    return isinstance(node, ast.Name) and node.id in tainted


def _view_mutation(ctx: FileContext) -> Iterator[Hit]:
    """Writes through a view: per scope, names bound from a
    view-producing call are tainted, and taint follows attributes,
    subscripts, element-wise tuple unpacking and aliasing.  A
    subscript/attribute store, augmented assignment, mutating ndarray
    method or ``out=`` argument on a tainted base is a hit.  Statement
    order is ignored: a name ever bound to view data stays tainted."""
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
                        yield target
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if _is_view(target, tainted) or (
                        isinstance(target, (ast.Subscript, ast.Attribute))
                        and _is_view(target.value, tainted)):
                    yield target
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in NDARRAY_MUTATORS
                        and _is_view(func.value, tainted)):
                    yield node
                for kw in node.keywords:
                    if kw.arg == "out" and _is_view(kw.value, tainted):
                        yield kw.value


def _per_query_lifts(ctx: FileContext) -> Iterator[Hit]:
    """``for`` loops whose target or iterable names something with
    ``quer`` in it and whose body calls ``.lift_range(...)`` or
    ``.scalar_lift(...)``, hit at the loop header."""
    for node in ast.walk(ctx.tree):
        if (isinstance(node, (ast.For, ast.AsyncFor))
                and any("quer" in name.lower()
                        for part in (node.target, node.iter)
                        for name in _names_in(part))
                and any(isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("lift_range", "scalar_lift")
                        for stmt in node.body for sub in ast.walk(stmt))):
            yield node


#: Benchmark scripts whose job is to read the wall clock.
TIMING_SCRIPTS = tuple(f"benchmarks/{name}.py" for name in (
    "bench_lift_index", "bench_queries", "bench_sweep_speedup",
    "bench_wire_codec", "bench_workload_mmap", "trace_overhead_smoke",
    "e2e/e2ebench/measure", "e2e/e2ebench/probes", "e2e/e2ebench/spans",
    "e2e/e2ebench/workloads/multiquery_fanout",
    "e2e/e2ebench/workloads/serve", "e2e/e2ebench/workloads/sim_figures"))

ROWS = (
    Row("sim-free-core", ("src/repro/core/", "src/repro/baselines/"),
        _sim_imports,
        "scheme code reaches the drivers only through repro.runtime",
        ("src/repro/core/x.py", "from repro.sim import kernel\n")),
    Row("repro-env-at-bootstrap", ("src/repro/",), r"""["']REPRO_""",
        "REPRO_* names a cache path and a worker count, read once at "
        "bootstrap; anywhere else it is hidden run config",
        ("src/repro/serve/x.py", "FLAG = 'REPRO_FLAG'\n"),
        exempt=("src/repro/core/workload.py", "src/repro/sweep.py")),
    Row("no-blocking-in-merge", ("src/repro/serve/coordinator.py",
                                 "src/repro/serve/merge.py"),
        _blocking_in_merge,
        "the K-way merge is a pure function of fully received queues",
        ("src/repro/serve/merge.py",
         "import time\ndef pop(q):\n    time.sleep(1)\n")),
    Row("shared-rounds-written-once", ("src/repro/core/deco_async.py",),
        r"CorrectionRequest\(|CorrectionReport\(|RawEvents\("
        r"|sync_prediction_ok",
        "Deco_async reuses the rounds PredictingLocal/Root write once",
        ("src/repro/core/deco_async.py", "m = RawEvents(ids)\n")),
    Row("one-spill-format", ("src/repro/",),
        r"\.npz|np\.savez|REPRO_SERVE_CRASH_AFTER|for existing importers",
        "one .wlm spill format, no crash env hook, no re-export layer",
        ("src/repro/core/x.py", "np.savez(path, ids=ids)\n")),
    Row("one-timeout", ("src/repro/",), r"^class Timeout",
        "runtime/node.py holds the one Timeout both drivers use",
        ("src/repro/sim/kernel.py", "class Timeout:\n    pass\n"),
        exempt=("src/repro/runtime/node.py",)),
    Row("count-windows-only", ("src/repro/",),
        r"TimeWindow|SessionWindow|SessionOperator|CountOperator"
        r"|inject_disorder|IncrementalAggregator|BurstyGenerator"
        r"|add_local|filter_late",
        "a Query takes a tumbling or sliding count window",
        ("src/repro/windows/x.py", "class SessionWindow:\n    pass\n")),
    Row("no-asyncio", ("src/repro/",),
        r"^\s*(import asyncio|from asyncio|async def|await )",
        "serve is one blocking run loop over a two-call transport",
        ("src/repro/serve/x.py", "async def f():\n    pass\n")),
    Row("no-wall-clock-or-unseeded-rng", SIM, _wall_clock,
        "simulated time is sim.now and randomness comes from the "
        "workload's seeded RNG; one host-clock read or unseeded draw "
        "makes runs irreproducible and scheme comparisons untrustworthy",
        ("src/repro/sim/x.py", "import time\nt = time.time()\n"),
        exempt=TIMING_SCRIPTS),
    Row("no-unordered-iteration", SIM, _unordered_iteration,
        "set order depends on insertion history and the per-process "
        "hash seed, so scheduling or emission fed by it differs between "
        "runs; iterate sorted(...) or the dict itself (not .keys(), so "
        "the source of the order is visible)",
        ("src/repro/core/x.py", "for x in {1, 2}:\n    pass\n")),
    Row("no-float-equality", ("src/repro/metrics/",
                              "src/repro/aggregates/", *SCRIPTS),
        _float_equality,
        "exact ==/!= on accumulated floats is platform- and "
        "order-dependent; compare with math.isclose or integer counts",
        ("src/repro/metrics/x.py", "ok = x == 0.5\n"),
        # Exact by design: correctness is an integer count over the
        # event total, 1.0 only when every event is in its window.
        exempt=("benchmarks/bench_fig10_adaptivity.py"
                "::test_fig10_rate_change_sweep",
                "benchmarks/bench_fig10_window_size.py"
                "::test_fig10f_correctness_unstable")),
    Row("guarded-tracer-calls", SIM, _unguarded_tracer,
        "an untraced run pays one attribute load and a branch per "
        "message: an unguarded tracer call builds its payload even "
        "with tracing off, a hot-path cost no type checker sees",
        ("src/repro/runtime/x.py", "tracer.event('send', 0.0, 'n')\n")),
    Row("no-shared-mutable-state", EVERYWHERE, _shared_mutable_state,
        "sweep workers run many runs per process, so a mutable default "
        "or a function-mutated module global leaks state between runs "
        "and breaks serial/parallel bit-identity; only registries "
        "written at import time are exempt",
        ("src/repro/obs/x.py", "def f(x=[]):\n    return x\n"),
        exempt=("src/repro/aggregates/registry.py::_FACTORIES",
                "src/repro/core/runner.py::_SCHEMES",
                "src/repro/sweep.py::_WORKER_WORKLOADS",
                "src/repro/wire/format.py::_NAMED_TAGS",
                "src/repro/wire/format.py::_NAMED_TYPES")),
    Row("no-wire-size-arithmetic", EVERYWHERE, _wire_size_arithmetic,
        "a frame-size formula outside repro/wire and the size model "
        "derived from it re-encodes the layout by hand and goes stale "
        "when it changes; ask sizeof_message/message_size instead",
        ("src/repro/core/x.py", "n = 3 * EVENT_BYTES[fmt]\n"),
        # The layout's one home, and the benchmark that asserts the
        # string-expansion factor itself.
        exempt=("src/repro/wire/", "src/repro/runtime/serialization.py",
                "benchmarks/bench_ablation_serialization.py"
                "::test_ablation_serialization_model")),
    Row("no-view-mutation", EVERYWHERE, _view_mutation,
        "_view, get_range and lift_range(s) hand out slices of the "
        "shared ingest buffer; a write through one corrupts every "
        "window sharing it, so copy first",
        ("benchmarks/x.py", "v = buf.get_range(0, 4)\nv[0] = 1\n")),
    Row("no-per-query-lifts", ("src/repro/core/", "src/repro/baselines/"),
        _per_query_lifts,
        "N standing queries share one slice store and partial tree; a "
        "lift per query per window is the O(queries x events) shape "
        "the multi-query engine replaces",
        ("src/repro/core/x.py",
         "for q in queries:\n    q.buf.lift_range(0, 1)\n"),
        # The bit-identity oracle for sharing=False.
        exempt=("src/repro/core/multiquery.py::append",)),
)
LAYOUT = {row.name: row for row in ROWS}


@functools.cache
def _context(path: str, source: str) -> FileContext:
    return FileContext(path, ast.parse(source))


def _where(tree: ast.Module, line: int) -> str | None:
    """The innermost function around ``line``, else the module global
    the top-level statement there binds."""
    defs = [fn for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.lineno <= line <= (fn.end_lineno or fn.lineno)]
    if defs:
        return max(defs, key=lambda fn: fn.lineno).name
    return next((name for stmt, name, _ in _bindings(tree.body)
                 if stmt.lineno <= line <= (stmt.end_lineno
                                            or stmt.lineno)), None)


def _hits(row: Row, path: str, source: str) -> list[tuple[int, str]]:
    """``(line, key)`` for every break of ``row`` in ``source`` if it
    lived at repo path ``path``, exemptions aside; ``key`` is
    ``path::name`` when :func:`_where` names the hit, else ``path``."""
    if not path.startswith(row.scope):
        return []
    if isinstance(row.banned, str):
        return [(source.count("\n", 0, m.start()) + 1, path)
                for m in re.finditer(row.banned, source, re.M)]
    ctx = _context(path, source)
    hits: list[tuple[int, str]] = []
    for node in row.banned(ctx):
        name = _where(ctx.tree, node.lineno)
        hits.append((node.lineno, f"{path}::{name}" if name else path))
    return hits


def _exempts(entry: str, key: str) -> bool:
    return key == entry or ("::" not in entry and key.startswith(entry))


def violations(row: Row, path: str, source: str) -> list[int]:
    """Lines of ``source`` that break ``row`` if it lived at ``path``."""
    return [line for line, key in _hits(row, path, source)
            if not any(_exempts(entry, key) for entry in row.exempt)]


@functools.cache
def _tree() -> tuple[tuple[str, str], ...]:
    """``(repo path, source)`` of every ``.py`` file the rows police."""
    return tuple((path.relative_to(ROOT).as_posix(), path.read_text())
                 for tree in TREES
                 for path in sorted((ROOT / tree).rglob("*.py")))


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_tree_keeps_the_layout(row: Row) -> None:
    found = [f"{path}:{line}" for path, source in _tree()
             for line in violations(row, path, source)]
    assert not found, f"{row.reason}:\n" + "\n".join(found)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_every_row_fires(row: Row) -> None:
    assert violations(row, *row.bad)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_every_exemption_is_used(row: Row) -> None:
    keys = [key for path, source in _tree()
            for _, key in _hits(row, path, source)]
    stale = [entry for entry in row.exempt
             if not any(_exempts(entry, key) for key in keys)]
    assert not stale, f"{row.name}: exemptions that swallow nothing"


SIM_PATH = "src/repro/sim/fixture.py"
CORE_PATH = "src/repro/core/fixture.py"
METRICS_PATH = "src/repro/metrics/fixture.py"
SCRIPT_PATH = "examples/fixture.py"
COORD = "src/repro/serve/coordinator.py"
CLOCK = "import time\nt = time.time()\n"
SIM_IMPORT = "from repro.sim.kernel import Simulator\n"
ENV_GET = "os.environ.get('REPRO_JOBS')\n"
ENV_STORE = "os.environ['REPRO_JOBS'] = '2'\n"
SLEEP = "def _merge_epoch():\n    time.sleep(0.1)\n"
HALF = "def f(x):\n    return x == 0.5\n"
TRACE = "def f(tracer):\n    tracer.event('msg_send', 0.0, 'n')\n"
QUERY_LIFT = ("def feed(self, batch):\n"
              "    for q in self.queries:\n"
              "        out = q.buffer.lift_range(0, 10)\n")
WIRE_FORMULA = ("WIRE_HEADER_BYTES = 32\n"
                "def frame_size(n):\n"
                "    return WIRE_HEADER_BYTES + 24 * n\n")


def _view(body: str) -> str:
    return f"def f(buf):\n    v = buf.get_range(0, 10)\n{body}"


#: Row -> ``(id, path, source, fires)`` verdicts: each row fires on
#: bad code, stays silent on good code, and reaches exactly its scope.
CASES: dict[str, tuple[tuple[str, str, str, bool], ...]] = {
    "sim-free-core": (
        ("import_from_fires_in_core", CORE_PATH, SIM_IMPORT, True),
        ("plain_import_fires_in_baselines", "src/repro/baselines/x.py",
         "import repro.sim.topology\n", True),
        ("package_import_fires", CORE_PATH,
         "from repro.sim import topology\n", True),
        ("runtime_imports_pass", CORE_PATH,
         "from repro.runtime import Timeout\n", False),
        ("similar_prefix_passes", CORE_PATH,
         "from repro.simulate import thing\n", False),
        ("sim_and_scripts_are_out_of_scope", SIM_PATH, SIM_IMPORT, False),
        ("sim_and_scripts_are_out_of_scope-2", SCRIPT_PATH, SIM_IMPORT,
         False),
        ("type_checking_imports_pass", CORE_PATH,
         "if TYPE_CHECKING:\n    " + SIM_IMPORT, False),
        # A comment exempts nothing.
        ("suppression", CORE_PATH,
         "import repro.sim  # decolint: disable=DL007\n", True),
    ),
    "repro-env-at-bootstrap": (
        ("environ_get_fires", COORD, ENV_GET, True),
        ("getenv_through_constant_fires", COORD,
         "FLAG = 'REPRO_FOO'\nx = os.getenv(FLAG)\n", True),
        ("subscript_read_fires", COORD,
         "j = os.environ['REPRO_JOBS']\n", True),
        ("membership_probe_fires", COORD,
         "j = 'REPRO_JOBS' in os.environ\n", True),
        ("store_passes", "src/repro/sweep.py", ENV_STORE, False),
        ("store_passes-2", COORD, ENV_STORE, True),
        ("non_repro_key_passes", COORD,
         "p = os.environ.get('PATH')\n", False),
        ("bootstrap_modules_exempt", "src/repro/core/workload.py",
         ENV_GET, False),
        ("bootstrap_modules_exempt-2", "src/repro/sweep.py", ENV_GET,
         False),
        ("bootstrap_modules_exempt-3", "src/repro/serve/worker.py",
         ENV_GET, True),
        *((f"behaviour_switch_in_core_fires-{i}", f"src/repro/{path}",
           "on = os.environ.get('REPRO_AGG_INDEX') != '0'\n", True)
          for i, path in enumerate(("core/agg_index.py",
                                    "core/multiquery.py",
                                    "wire/codec.py"), 1)),
        ("out_of_package_scripts_exempt", SCRIPT_PATH, ENV_GET, False),
    ),
    "no-blocking-in-merge": (
        ("sleep_in_merge_method_fires", COORD,
         "class C:\n    def _merge_epoch(self, q):\n"
         "        time.sleep(0.1)\n", True),
        ("framing_transfer_fires", COORD,
         "from repro.serve import framing\n"
         "def _apply_ops(sock):\n    framing.send_frame(sock)\n", True),
        ("transport_recv_fires", COORD,
         "def _merge_epoch(self):\n"
         "    return self.transport.recv('n')\n", True),
        ("non_merge_methods_pass_in_coordinator", COORD,
         SLEEP.replace("_merge", "_collect"), False),
        ("whole_merge_module_is_a_merge_section",
         "src/repro/serve/merge.py",
         SLEEP.replace("_merge_epoch", "pop_next"), True),
        ("pure_merge_code_passes", COORD,
         "def _merge_epoch(q):\n    return min(q)\n", False),
        ("other_modules_out_of_scope", SIM_PATH, SLEEP, False),
        ("other_modules_out_of_scope-2", SCRIPT_PATH, SLEEP, False),
    ),
    "no-wall-clock-or-unseeded-rng": (
        ("time_time_fires", SIM_PATH, CLOCK, True),
        ("from_import_alias_fires", SIM_PATH,
         "from time import perf_counter as pc\nt = pc()\n", True),
        ("datetime_now_fires", CORE_PATH,
         "import datetime\nt = datetime.datetime.now()\n", True),
        ("unseeded_random_fires", SIM_PATH,
         "import random\nx = random.random()\n", True),
        ("unseeded_default_rng_fires", SIM_PATH,
         "import numpy\nrng = numpy.random.default_rng()\n", True),
        ("legacy_numpy_global_draw_fires", SIM_PATH,
         "import numpy as np\nx = np.random.rand(3)\n", True),
        ("seeded_constructions_pass", SIM_PATH,
         "import random\nimport numpy as np\nr = random.Random(7)\n"
         "g = np.random.default_rng(7)\n", False),
        ("sim_now_passes", SIM_PATH,
         "def f(sim):\n    return sim.now\n", False),
        ("out_of_package_gets_every_rule", SCRIPT_PATH, CLOCK, True),
        ("scope_excludes_other_packages", METRICS_PATH, CLOCK, False),
    ),
    "no-unordered-iteration": (
        ("for_over_set_literal_fires", SIM_PATH,
         "for x in {1, 2, 3}:\n    print(x)\n", True),
        ("for_over_set_variable_fires", SIM_PATH,
         "def f(items):\n    pending = set(items)\n"
         "    for x in pending:\n        print(x)\n", True),
        ("comprehension_over_set_call_fires", SIM_PATH,
         "out = [x for x in set(range(3))]\n", True),
        ("dict_keys_iteration_fires", SIM_PATH,
         "def f(d):\n    for k in d.keys():\n        print(k)\n", True),
        ("list_of_set_fires", SIM_PATH, "xs = list({1, 2})\n", True),
        ("sorted_set_passes", SIM_PATH,
         "def f(items):\n    for x in sorted(set(items)):\n"
         "        print(x)\n", False),
        ("dict_iteration_passes", SIM_PATH,
         "def f(d):\n    for k in d:\n        print(k)\n", False),
        ("membership_test_passes", SIM_PATH,
         "def f(seen, x):\n    return x in seen\n", False),
    ),
    "no-float-equality": (
        ("float_literal_eq_fires", METRICS_PATH, HALF, True),
        ("division_ne_fires", METRICS_PATH,
         "def f(a, b, c):\n    return a / b != c\n", True),
        ("float_call_eq_fires", METRICS_PATH,
         "def f(a, b):\n    return float(a) == b\n", True),
        ("isclose_passes", METRICS_PATH,
         "import math\ndef f(a, b):\n    return math.isclose(a / 2, b)\n",
         False),
        ("int_eq_passes", METRICS_PATH,
         "def f(n):\n    return n == 3\n", False),
        ("not_applied_in_sim", SIM_PATH, HALF, False),
    ),
    "guarded-tracer-calls": (
        ("unguarded_event_fires", SIM_PATH,
         "def f(self):\n    self.tracer.event('msg_send', 0.0, 'n')\n",
         True),
        ("unguarded_inc_fires", SIM_PATH,
         "def f(tracer):\n    tracer.inc('messages', 'node')\n", True),
        ("guarded_call_passes", SIM_PATH,
         "def f(self):\n    tracer = self.ctx.tracer\n"
         "    if tracer.enabled:\n"
         "        tracer.event('msg_send', 0.0, 'n')\n"
         "        tracer.inc('messages', 'n')\n", False),
        ("guard_does_not_cover_else", SIM_PATH,
         "def f(tracer):\n    if tracer.enabled:\n        pass\n"
         "    else:\n        tracer.event('msg_send', 0.0, 'n')\n", True),
        ("non_tracer_receiver_passes", SIM_PATH,
         "def f(registry):\n    registry.inc('counter')\n", False),
        ("not_applied_outside_hot_packages",
         "src/repro/obs/fixture.py", TRACE, False),
    ),
    "no-shared-mutable-state": (
        ("mutable_default_arg_fires", CORE_PATH,
         "def f(items=[]):\n    return items\n", True),
        ("mutable_kwonly_default_fires", CORE_PATH,
         "def f(*, cache={}):\n    return cache\n", True),
        ("module_global_mutated_fires", CORE_PATH,
         "_CACHE = {}\ndef put(k, v):\n    _CACHE[k] = v\n", True),
        ("module_global_method_mutation_fires", CORE_PATH,
         "_SEEN = []\ndef note(x):\n    _SEEN.append(x)\n", True),
        ("import_time_registry_passes", CORE_PATH,
         "_TABLE = {'a': 1}\ndef get(k):\n    return _TABLE[k]\n", False),
        ("shadowed_local_passes", CORE_PATH,
         "_CACHE = {}\ndef f():\n    _CACHE = {}\n    _CACHE['k'] = 1\n"
         "    return _CACHE\n", False),
        ("none_default_passes", CORE_PATH,
         "def f(items=None):\n    items = [] if items is None else items\n"
         "    return items\n", False),
        ("applies_everywhere_in_package", METRICS_PATH,
         "def f(x=[]):\n    return x\n", True),
    ),
    "no-wire-size-arithmetic": (
        ("size_table_arithmetic_fires", CORE_PATH,
         "from repro.runtime.serialization import EVENT_BYTES\n"
         "def size(fmt, n):\n    return n * EVENT_BYTES[fmt]\n", True),
        ("layout_constant_arithmetic_fires", CORE_PATH,
         "from repro.wire.format import WIRE_HEADER_BYTES\n"
         "def overhead(msgs):\n    return msgs * WIRE_HEADER_BYTES + 8\n",
         True),
        ("attribute_access_arithmetic_fires", SIM_PATH,
         "import repro.runtime.serialization as ser\n"
         "x = 3 * ser.SCALAR_BYTES\n", True),
        ("one_finding_per_formula", CORE_PATH,
         "total = WIRE_HEADER_BYTES + 24 * WIRE_EVENT_BYTES\n", True),
        ("wire_layer_is_exempt", "src/repro/wire/format.py",
         WIRE_FORMULA, False),
        ("wire_layer_is_exempt-2", "src/repro/runtime/serialization.py",
         WIRE_FORMULA, False),
        ("fires_in_out_of_package_scripts", SCRIPT_PATH,
         "from repro.runtime.serialization import EVENT_BYTES\n"
         "x = 3 * EVENT_BYTES[WireFormat.BINARY]\n", True),
        ("plain_reads_pass", CORE_PATH,
         "from repro.runtime.serialization import EVENT_BYTES\n"
         "def lookup(fmt):\n    return EVENT_BYTES[fmt]\n", False),
        ("sizeof_message_calls_pass", CORE_PATH,
         "from repro.core.protocol import sizeof_message\n"
         "def cost(msgs, fmt):\n"
         "    return sum(sizeof_message(m, fmt) for m in msgs)\n", False),
    ),
    "no-view-mutation": (
        ("subscript_write_through_view_fires", CORE_PATH,
         _view("    v[0] = 1.0\n"), True),
        ("attribute_chain_propagates_taint", CORE_PATH,
         "def f(batch):\n"
         "    view = batch._view(batch.ids, batch.values, 0, 4)\n"
         "    vals = view.values\n    vals[2] = 0.0\n", True),
        ("augmented_assign_fires", CORE_PATH,
         "def f(buf):\n    v = buf.lift_range(0, 5)\n    v += 1.0\n", True),
        ("mutating_method_fires", CORE_PATH, _view("    v.sort()\n"),
         True),
        ("out_kwarg_fires", CORE_PATH,
         "import numpy as np\n" + _view("    np.add(v, 1.0, out=v)\n"),
         True),
        ("tuple_assignment_taints_elementwise", CORE_PATH,
         "def f(buf, other):\n    a, b = buf.lift_range(0, 5), other\n"
         "    a.fill(0)\n", True),
        ("tuple_assignment_taints_elementwise-2", CORE_PATH,
         "def f(buf, other):\n    a, b = buf.lift_range(0, 5), other\n"
         "    b.fill(0)\n", False),
        ("copy_breaks_taint", CORE_PATH,
         _view("    c = v.copy()\n    c[0] = 1.0\n"), False),
        ("read_only_use_passes", CORE_PATH,
         _view("    return v.sum(), v[3]\n"), False),
        ("fires_in_scripts_too", SCRIPT_PATH, _view("    v[0] = 1.0\n"),
         True),
        ("unrelated_mutation_passes", CORE_PATH,
         "def f(xs):\n    xs.sort()\n    xs[0] = 1\n", False),
    ),
    "no-per-query-lifts": (
        ("fires_on_query_loop_with_lift_range", CORE_PATH, QUERY_LIFT,
         True),
        ("fires_on_scalar_lift_and_query_ish_iterable", CORE_PATH,
         "def feed(pipes):\n    for pipe in query_pipes:\n"
         "        v = pipe.scalar_lift(0, 10)\n", True),
        ("fires_in_baselines_scope", "src/repro/baselines/fixture.py",
         "def serve(queries, buf):\n    for query in queries:\n"
         "        buf.lift_range(0, query.length)\n", True),
        ("silent_on_non_query_loops", CORE_PATH,
         "def feed(self, batch):\n    for buf in self.buffers:\n"
         "        out = buf.lift_range(0, 10)\n", False),
        ("silent_on_query_loop_without_lifts", CORE_PATH,
         "def admit(self, queries):\n    for q in queries:\n"
         "        self.registry.add(q)\n", False),
        ("out_of_scope_paths_silent", "src/repro/serve/fixture.py",
         QUERY_LIFT, False),
        ("out_of_scope_paths_silent-2", SCRIPT_PATH, QUERY_LIFT, False),
        ("exempts_by_function_name", "src/repro/core/multiquery.py",
         QUERY_LIFT.replace("feed", "append"), False),
        ("exempts_only_that_function", "src/repro/core/multiquery.py",
         QUERY_LIFT, True),
    ),
}


@pytest.mark.parametrize(
    "row, path, source, fires",
    [(LAYOUT[row], path, source, fires)
     for row, cases in CASES.items() for _, path, source, fires in cases],
    ids=[f"{row}-{case[0]}" for row, cases in CASES.items()
         for case in cases])
def test_row_cases(row: Row, path: str, source: str, fires: bool) -> None:
    assert bool(violations(row, path, source)) is fires

