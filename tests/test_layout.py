"""Where code may live in ``src/repro``: one table of bans, each row a
scope, a banned regex or AST check, exempt files, a reason and a
snippet that breaks it (so no row passes vacuously).  No suppression.
A deletion that must stay deleted adds a row here, not a CI step."""

import ast
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis.lint import FileContext

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@dataclass(frozen=True)
class Row:
    name: str
    scope: tuple[str, ...]  # "" is the whole package
    banned: str | Callable[[FileContext], Iterable[ast.AST]]
    reason: str
    bad: tuple[str, str]  # (path, source) that breaks the row
    exempt: tuple[str, ...] = ()


def _sim_imports(ctx: FileContext) -> Iterable[ast.AST]:
    """``repro.sim`` imports outside ``if TYPE_CHECKING:`` bodies."""
    typing_only = {id(sub) for node in ast.walk(ctx.tree)
                   if isinstance(node, ast.If)
                   and "TYPE_CHECKING" in ast.unparse(node.test)
                   for stmt in node.body for sub in ast.walk(stmt)}
    for node in ast.walk(ctx.tree):
        modules = ([a.name for a in node.names]
                   if isinstance(node, ast.Import) else
                   [node.module or ""]
                   if isinstance(node, ast.ImportFrom) else [])
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


def _blocking_in_merge(ctx: FileContext) -> Iterable[ast.AST]:
    """Blocking calls anywhere in ``serve/merge.py``, or in a
    coordinator ``_merge*``/``_apply*`` method."""
    whole_module = ctx.package_path().startswith("repro/serve/merge")
    for fn in ast.walk(ctx.tree):
        if isinstance(fn, ast.FunctionDef) and (
                whole_module or fn.name.startswith(("_merge", "_apply"))):
            for node in ast.walk(fn):
                chain = (ctx.resolve(node.func)
                         if isinstance(node, ast.Call) else None)
                if chain and (chain in BLOCKING_EXACT
                              or chain.endswith(BLOCKING_SUFFIXES)):
                    yield node


ROWS = (
    Row("sim-free-core", ("core/", "baselines/"), _sim_imports,
        "scheme code reaches the drivers only through repro.runtime",
        ("src/repro/core/x.py", "from repro.sim import kernel\n")),
    Row("repro-env-at-bootstrap", ("",), r"""["']REPRO_""",
        "REPRO_* names a cache path and a worker count, read once at "
        "bootstrap; anywhere else it is hidden run config",
        ("src/repro/serve/x.py", "FLAG = 'REPRO_FLAG'\n"),
        exempt=("core/workload.py", "sweep.py")),
    Row("no-blocking-in-merge", ("serve/coordinator.py",
                                 "serve/merge.py"), _blocking_in_merge,
        "the K-way merge is a pure function of fully received queues",
        ("src/repro/serve/merge.py",
         "import time\ndef pop(q):\n    time.sleep(1)\n")),
    Row("shared-rounds-written-once", ("core/deco_async.py",),
        r"CorrectionRequest\(|CorrectionReport\(|RawEvents\("
        r"|sync_prediction_ok",
        "Deco_async reuses the rounds PredictingLocal/Root write once",
        ("src/repro/core/deco_async.py", "m = RawEvents(ids)\n")),
    Row("one-spill-format", ("",),
        r"\.npz|np\.savez|REPRO_SERVE_CRASH_AFTER|for existing importers",
        "one .wlm spill format, no crash env hook, no re-export layer",
        ("src/repro/core/x.py", "np.savez(path, ids=ids)\n")),
    Row("one-timeout", ("",), r"^class Timeout",
        "runtime/node.py holds the one Timeout both drivers use",
        ("src/repro/sim/kernel.py", "class Timeout:\n    pass\n"),
        exempt=("runtime/node.py",)),
    Row("count-windows-only", ("",),
        r"TimeWindow|SessionWindow|SessionOperator|CountOperator"
        r"|inject_disorder|IncrementalAggregator|BurstyGenerator"
        r"|add_local|filter_late",
        "a Query takes a tumbling or sliding count window",
        ("src/repro/windows/x.py", "class SessionWindow:\n    pass\n")),
    Row("no-asyncio", ("",),
        r"^\s*(import asyncio|from asyncio|async def|await )",
        "serve is one blocking run loop over a two-call transport",
        ("src/repro/serve/x.py", "async def f():\n    pass\n")),
)
LAYOUT = {row.name: row for row in ROWS}


def violations(row: Row, path: str, source: str) -> list[int]:
    """Lines of ``source`` that break ``row`` if it lived at ``path``."""
    _, mark, rel = path.rpartition("src/repro/")
    if (not mark or not rel.startswith(row.scope)
            or rel.startswith(row.exempt)):
        return []
    if isinstance(row.banned, str):
        return [source.count("\n", 0, m.start()) + 1
                for m in re.finditer(row.banned, source, re.M)]
    ctx = FileContext(path=Path(path), display=path, source=source,
                      tree=ast.parse(source), parts=Path(path).parts)
    return [node.lineno for node in row.banned(ctx)]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_tree_keeps_the_layout(row):
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in violations(row, str(path), path.read_text())]
    assert not found, f"{row.reason}:\n" + "\n".join(found)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_every_row_fires(row):
    assert violations(row, *row.bad)
