"""Every public module-level name in ``src/repro`` has a caller.

A name counts as used when something other than its own definition and
the tests loads it: a ``Name``/``Attribute`` load in any ``src/`` module
(package ``__init__`` files included; in the defining module, any other
top-level statement), or any load in ``examples/`` or ``benchmarks/``.
Import statements, ``__all__`` strings and docstrings are not loads, so
re-exporting a name does not keep it alive.  Names are matched by bare
identifier, so a same-named use elsewhere also counts; the guard errs
towards passing.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: Public names kept without an outside caller, each for a stated reason.
ALLOWED: dict[str, str] = {}


def _bound(stmt: ast.stmt) -> set[str]:
    """Public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                        ast.Name):
        names = {stmt.target.id}
    else:
        names = set()
    return {n for n in names if not n.startswith("_")}


def _loads(tree: ast.AST) -> set[str]:
    """Identifiers read as a ``Name`` or ``Attribute`` anywhere in a tree."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            used.add(node.attr)
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def orphans() -> dict[str, list[str]]:
    """Module (relative to ``src/repro``) -> its public names nobody loads."""
    used: set[str] = set()
    for top in ("examples", "benchmarks"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            used |= _loads(_parse(path))
    # Per top-level statement: the names it binds and the names it reads.
    statements = {path: [(_bound(s), _loads(s)) for s in _parse(path).body]
                  for path in sorted(SRC.rglob("*.py"))}
    for stmts in statements.values():
        for bound, reads in stmts:
            # A statement's reads of the names it binds (recursion, a
            # class body naming itself) do not count as callers.
            used |= reads - bound
    found: dict[str, list[str]] = {}
    for path, stmts in statements.items():
        defined = set().union(*(bound for bound, _ in stmts))
        missing = sorted(defined - used - ALLOWED.keys())
        if missing:
            found[str(path.relative_to(SRC))] = missing
    return found


def test_every_public_name_has_a_caller_outside_tests():
    found = orphans()
    assert not found, (
        "public names used only by tests (delete them):\n"
        + "\n".join(f"  {mod}: {', '.join(names)}"
                    for mod, names in sorted(found.items())))


def test_allowlist_stays_small_and_live():
    assert not ALLOWED, "a public name without a caller is deleted"
