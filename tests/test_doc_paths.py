"""Every path the docs name exists.

Each backticked code span in README, DESIGN and EXPERIMENTS that is a
path with a ``/`` (``core/protocol.py``, ``benchmarks/results/*.txt``)
or a ``path::name`` (``test_serve_epoch.py::test_epoch_is_salt_invariant``)
must resolve against the tree: the path from the repo root, ``src/``,
``src/repro/`` or ``tests/`` (a module path may drop ``.py``), and each
dotted part of ``name`` defined in that file.  A dotted module
reference (``repro.core.workload.build_workload``) resolves the same
way: its longest prefix that is a module under ``src/``, then each
remaining part defined (or imported) in that module.  Fenced code
blocks are commands, not references, and are skipped.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
BASES = ("", "src/", "src/repro/", "tests/")
SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
REF = re.compile(r"[\w.-]+(/[\w.*-]*)+(::[\w.]+)?|[\w./-]+\.py::[\w.]+")
DOTTED = re.compile(r"repro(\.\w+)+")


def _refs(doc: str, pattern: re.Pattern[str] = REF) -> list[str]:
    text = re.sub(r"^```.*?^```", "", (ROOT / doc).read_text(),
                  flags=re.M | re.S)
    return sorted({m.group(1) for m in SPAN.finditer(text)
                   if pattern.fullmatch(m.group(1))})


def _defined(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))}
    names.update(target.id for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name))
    return names


def _resolves(ref: str) -> bool:
    path, _, name = ref.partition("::")
    path = path.rstrip("/")
    files = [hit for base in BASES for pattern in (path, path + ".py")
             for hit in ROOT.glob(base + pattern)]
    if not name:
        return bool(files)
    return any(hit.suffix == ".py" and set(name.split(".")) <= _defined(hit)
               for hit in files)


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc: str) -> None:
    refs = _refs(doc)
    assert refs, f"{doc} names no paths: the extraction broke"
    missing = [ref for ref in refs if not _resolves(ref)]
    assert not missing, f"{doc} names paths that do not exist: {missing}"


def _module_resolves(ref: str) -> bool:
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        base = ROOT.joinpath("src", *parts[:cut])
        for path in (base.with_suffix(".py"), base / "__init__.py"):
            if path.is_file():
                tree = ast.parse(path.read_text())
                imported = {(alias.asname or alias.name).split(".")[0]
                            for node in tree.body
                            if isinstance(node, (ast.Import, ast.ImportFrom))
                            for alias in node.names}
                return set(parts[cut:]) <= _defined(path) | imported
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_every_dotted_module_reference_resolves(doc: str) -> None:
    refs = _refs(doc, DOTTED)
    assert refs, f"{doc} names no modules: the extraction broke"
    missing = [ref for ref in refs if not _module_resolves(ref)]
    assert not missing, f"{doc} names modules that do not exist: {missing}"
