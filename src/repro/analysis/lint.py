"""deco-lint: the repo-specific static-analysis framework.

The reproduction's headline claim — every cluster run is "a
single-threaded, reproducible computation" — is a *property of the
source*, not of any one test run.  This module provides the framework
that enforces it mechanically: AST-based rules with repo-specific
knowledge (which packages are simulation-deterministic, which calls are
hot-path trace hooks, which modules feed sweep workers), wired into the
CLI as ``repro lint`` and into CI as a required job.

Framework pieces:

* :class:`LintRule` — one record per check: a stable ``DLxxx`` code, a
  scope (package prefixes it applies to inside ``repro``), and a check
  function over the file's AST.  :mod:`repro.analysis.rules` holds the
  table of them.
* :class:`Finding` — one diagnostic, pointing at ``path:line:col``.
* Suppression — ``# decolint: disable=DL001`` on the offending line, or
  ``# decolint: disable-file=DL001`` anywhere in the file.  Suppression
  is per-code and explicit; there is no blanket "noqa".
* :func:`run_lint` / :func:`main` — directory walking, rule dispatch,
  and the CLI entry point used by ``repro lint``.

Files *outside* the ``repro`` package (examples, benchmarks, ad-hoc
scripts driving the simulator) get every rule: they have no package
scope to narrow by, and nondeterminism smuggled in through a driver
script corrupts results just as surely as in-package code.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.errors import ConfigurationError

#: Lines matching this carry a line-scoped suppression.
_DISABLE_RE = re.compile(
    r"#\s*decolint:\s*disable=([A-Za-z0-9, ]+)")
#: Lines matching this suppress codes for the whole file.
_DISABLE_FILE_RE = re.compile(
    r"#\s*decolint:\s*disable-file=([A-Za-z0-9, ]+)")


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


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """Render as a conventional ``path:line:col: CODE message``."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} {self.message}")

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


@dataclass
class FileContext:
    """Everything a rule may need about the file under analysis."""

    path: Path
    #: Display path (relative to the lint invocation root when possible).
    display: str
    source: str
    tree: ast.Module
    #: Path parts normalized to posix, for scope matching.
    parts: tuple[str, ...] = field(default_factory=tuple)

    def in_package(self) -> bool:
        """Whether the file lives inside the ``repro`` package."""
        return "repro" in self.parts

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Local name -> the dotted path it was imported as, collected
        once per file."""
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    aliases[alias.asname or root] = (
                        alias.name if alias.asname else root)
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and not node.level):
                # Relative imports never alias stdlib modules.
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")
        return aliases

    def resolve(self, node: ast.AST) -> str | None:
        """``a.b.c`` for a Name/Attribute chain, its root resolved
        through this file's imports; None for any other expression."""
        chain = dotted(node)
        if chain is None:
            return None
        root, _, rest = chain.partition(".")
        resolved = self.aliases.get(root, root)
        return f"{resolved}.{rest}" if rest else resolved

    def package_path(self) -> str:
        """Posix path from the ``repro`` package root (or the full
        display path for out-of-package scripts)."""
        if "repro" in self.parts:
            i = len(self.parts) - 1 - self.parts[::-1].index("repro")
            return "/".join(self.parts[i:])
        return "/".join(self.parts)


@dataclass(frozen=True)
class LintRule:
    """One deco-lint rule: a row of :data:`repro.analysis.rules.RULES`.

    ``check`` yields ``(node, message)`` for each violation in one
    parsed file, and its docstring is the rule's rationale.  ``scope``
    is a tuple of path prefixes under the ``repro`` package (e.g.
    ``"repro/sim"``); an empty scope applies everywhere.  Out-of-package
    files (example and benchmark scripts) get every rule but the
    ``package_only`` ones.
    """

    code: str
    name: str
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str
    check: Callable[[FileContext], Iterable[tuple[ast.AST, str]]]
    scope: tuple[str, ...] = ()
    #: The rule polices package internals only, never a file outside it.
    package_only: bool = False
    #: Package path prefixes the rule skips (its sanctioned sites).
    exempt: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx``'s file."""
        if not ctx.in_package():
            return not self.package_only
        pkg = ctx.package_path()
        if pkg.startswith(self.exempt):
            return False
        return not self.scope or pkg.startswith(self.scope)


def _parse_suppressions(
        source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Extract line-scoped and file-scoped suppressions.

    Returns ``(line -> codes, file_codes)``; the special code ``all``
    suppresses every rule.
    """
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "decolint" not in text:
            continue
        match = _DISABLE_FILE_RE.search(text)
        if match:
            whole_file.update(
                c.strip() for c in match.group(1).split(",") if c.strip())
            continue
        match = _DISABLE_RE.search(text)
        if match:
            per_line.setdefault(lineno, set()).update(
                c.strip() for c in match.group(1).split(",") if c.strip())
    return per_line, whole_file


def _suppressed(finding: Finding, per_line: dict[int, set[str]],
                whole_file: set[str]) -> bool:
    if "all" in whole_file or finding.code in whole_file:
        return True
    codes = per_line.get(finding.line, ())
    return "all" in codes or finding.code in codes


def all_rules() -> list[LintRule]:
    """Every registered deco-lint rule, in code order."""
    from repro.analysis.rules import RULES
    return list(RULES)


def select_rules(select: Sequence[str] | None = None) -> list[LintRule]:
    """Resolve a ``--select`` list (codes) to rule instances."""
    rules = all_rules()
    if not select:
        return rules
    known = {rule.code for rule in rules}
    wanted = {code.strip().upper() for code in select if code.strip()}
    if not wanted:
        # A degenerate selector ("", ",", whitespace) would otherwise
        # select zero rules and report a clean run without linting
        # anything.
        raise ConfigurationError(
            f"--select given but no rule codes in it; "
            f"known: {sorted(known)}")
    unknown = wanted - known
    if unknown:
        raise ConfigurationError(
            f"unknown rule code(s) {sorted(unknown)}; "
            f"known: {sorted(known)}")
    return [rule for rule in rules if rule.code in wanted]


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif not path.exists():
            raise ConfigurationError(f"no such file or directory: {path}")
        elif path.suffix != ".py":
            # Dropping it would report a clean run over nothing.
            raise ConfigurationError(f"not a .py file or a directory: "
                                     f"{path}")
        else:
            out.add(path)
    return sorted(out)


def lint_source(source: str, path: str = "<string>",
                rules: Sequence[LintRule] | None = None,
                ) -> list[Finding]:
    """Lint one source string (the unit-test entry point).

    ``path`` participates in scope matching: pass e.g.
    ``"src/repro/sim/kernel.py"`` to run the file as if it lived in the
    simulator package.
    """
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path=Path(path), display=path, source=source,
                      tree=tree,
                      parts=tuple(Path(path).as_posix().split("/")))
    per_line, whole_file = _parse_suppressions(source)
    findings: list[Finding] = []
    for rule in (rules if rules is not None else all_rules()):
        if not rule.applies_to(ctx):
            continue
        for node, message in rule.check(ctx):
            finding = Finding(path=ctx.display,
                              line=getattr(node, "lineno", 1),
                              col=getattr(node, "col_offset", 0) + 1,
                              code=rule.code, message=message)
            if not _suppressed(finding, per_line, whole_file):
                findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def lint_file(path: Path,
              rules: Sequence[LintRule] | None = None,
              root: Path | None = None) -> list[Finding]:
    """Lint one file on disk."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    display = str(path)
    if root is not None:
        try:
            display = str(path.relative_to(root))
        except ValueError:
            display = str(path)
    try:
        return lint_source(source, path=display, rules=rules)
    except SyntaxError as exc:
        return [Finding(path=display, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1, code="DL000",
                        message=f"syntax error: {exc.msg}")]


def run_lint(paths: Sequence[str],
             select: Sequence[str] | None = None) -> list[Finding]:
    """Lint files/directories; returns all findings sorted by location."""
    rules = select_rules(select)
    root = Path.cwd()
    findings: list[Finding] = []
    for path in iter_python_files([Path(p) for p in paths]):
        findings.extend(lint_file(path, rules=rules, root=root))
    return sorted(findings, key=Finding.sort_key)


def main(argv: Sequence[str] | None = None) -> int:
    """``repro lint`` entry point.

    Exit status: 0 when clean (or ``--report-only``), 1 when findings
    exist, 2 on usage errors.
    """
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="deco-lint: repo-specific determinism and "
                    "correctness rules (see --list-rules)")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--report-only", action="store_true",
                        help="print findings but always exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.code}  {rule.name}  [{scope}]")
            print(f"       {rule.summary}")
        return 0

    select = args.select.split(",") if args.select else None
    try:
        findings = run_lint(args.paths or ["src/repro"], select=select)
    except ConfigurationError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 0 if args.report_only else 1
    return 0
