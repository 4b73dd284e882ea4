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
blocks are commands, not references, and are skipped here.

Every ``repro ...``, ``python -m repro ...`` or ``python -m repro.cli
...`` line in those fenced blocks (and in the verify skill's, and on
any line of the CI workflow) must parse with the CLI's own parser, so
a renamed flag or a deleted subcommand cannot leave a stale command in
the docs.
"""

import ast
import contextlib
import io
import re
import shlex
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


# -- CLI commands in the docs ------------------------------------------------

#: Where runnable ``repro`` command lines live: the fenced blocks of
#: these docs, and every line of the CI workflow.
CLI_DOCS = (*DOCS, ".claude/skills/verify/SKILL.md")
WORKFLOW = ".github/workflows/ci.yml"
FENCE = re.compile(r"^[ \t]*```[^\n]*\n(.*?)^[ \t]*```", re.M | re.S)
#: The three ways a command line names the CLI.
ENTRY_POINTS = (["python", "-m", "repro"], ["python", "-m", "repro.cli"],
                ["repro"])
#: Shell tokens that end a command's argument list.
SHELL_BREAKS = {"|", "||", "&&", ";", ">", ">>", "2>&1"}


def _cli_lines(text: str) -> list[list[str]]:
    """The argv (after the entry point) of every ``repro`` command in
    ``text``: continuation lines joined, comments and leading
    ``VAR=value`` assignments (and a workflow's ``run:``) dropped."""
    commands = []
    for line in re.sub(r"\\\n", " ", text).splitlines():
        tokens = shlex.split(line, comments=True)
        while tokens and ("=" in tokens[0] or tokens[0] == "run:"):
            tokens.pop(0)
        for entry in ENTRY_POINTS:
            if tokens[:len(entry)] == entry:
                argv = tokens[len(entry):]
                cut = [i for i, tok in enumerate(argv) if tok in SHELL_BREAKS]
                commands.append(argv[:cut[0]] if cut else argv)
                break
    return commands


def _doc_commands() -> list[tuple[str, list[str]]]:
    found = [(doc, argv) for doc in CLI_DOCS
             for block in FENCE.findall((ROOT / doc).read_text())
             for argv in _cli_lines(block)]
    found += [(WORKFLOW, argv)
              for argv in _cli_lines((ROOT / WORKFLOW).read_text())]
    return found


def _parse_error(argv: list[str]) -> str | None:
    """None when ``argv`` parses; else argparse's complaint.  ``check``
    lines parse with :mod:`repro.analysis.check`'s own parser, as
    :func:`repro.cli.main` hands them there."""
    from repro.analysis import check
    from repro.cli import build_parser
    parser, args = ((check.build_parser(), argv[1:])
                    if argv[:1] == ["check"] else (build_parser(), argv))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            parser.parse_args(args)
    except SystemExit:
        return err.getvalue().strip().splitlines()[-1]
    return None


def test_docs_name_cli_commands() -> None:
    docs = {doc for doc, _ in _doc_commands()}
    assert docs == {*CLI_DOCS, WORKFLOW} - {"DESIGN.md"}, \
        f"the command extraction broke: found commands only in {docs}"


@pytest.mark.parametrize("doc", [*CLI_DOCS, WORKFLOW])
def test_every_cli_command_parses(doc: str) -> None:
    bad = [(" ".join(argv), why) for name, argv in _doc_commands()
           if name == doc and (why := _parse_error(argv))]
    assert not bad, f"{doc} shows commands the CLI rejects: {bad}"
