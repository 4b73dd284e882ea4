"""``repro check`` — the concurrency verifier front-end.

Two entry modes (at least one required):

* ``--explore`` — small-scope interleaving model checking
  (:mod:`repro.analysis.explore`): synthetic merge scenarios through
  the real :class:`~repro.serve.merge.EpochMerge`, then exhaustive
  DFS over epoch-boundary placements and reply arrival orders for
  every requested scheme × node count, asserting each interleaving
  merges to kernel-canonical order and matches the simulator oracle's
  ``TimedFingerprint``.
* ``--trace PATH`` — happens-before analysis
  (:mod:`repro.analysis.hb`) of a captured serve trace
  (``repro trace --runtime serve --format jsonl``).

``--seed-bug drop-phase`` flips the runtime into its known-broken
merge variant (see :data:`repro.serve.merge.SEED_BUG`) for the
verifier's own regression canary: with ``--expect-violations`` the
exit code inverts, so CI asserts the checker *does* fire.  Under the
seed bug, ``--explore`` additionally runs the HB analyzer over a
traced production merge of an epoch where phase decides the order,
proving both layers catch the same defect.

Exit codes: 0 clean, 1 violations found (inverted by
``--expect-violations``), 2 usage errors (an unreadable trace, or one
with no causal serve events, included).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.runner import RunConfig, available_schemes

def small_config(scheme: str, n_nodes: int) -> RunConfig:
    """The shared small-scope workload: small enough that a model run
    takes milliseconds, busy enough that every epoch has cross-node
    slots, mid-epoch timers, cancellations, and a mid-epoch stop."""
    return RunConfig(scheme=scheme, n_nodes=n_nodes, window_size=400,
                     n_windows=3, rate_per_node=20_000.0, seed=7)

#: Default small-scope sweep: every registered scheme at 2-4 nodes.
DEFAULT_NODES = (2, 3, 4)

#: Default scripted DFS depth in epochs (2-3 epoch configs are the
#: acceptance scope; depth 3 subsumes depth 2).
DEFAULT_EPOCHS = 3

#: Default per-config run budget.  Full exhaustion of the sampled
#: choice tree runs ~250 configs at the default scope, so 400 is a
#: backstop against state-space blowups, not an expected ceiling.
DEFAULT_BUDGET = 400


def _parse_csv(text: str, kind: str) -> list[str]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"empty {kind} list: {text!r}")
    return parts


def run_explore(schemes: Sequence[str], nodes: Sequence[int],
                epochs: int, budget: int, bug: str | None) -> int:
    """Model-check every scheme × node count; returns found-violation
    count (printing findings and per-config stats as it goes)."""
    from repro.analysis.explore import (explore_config,
                                        synthetic_merge_violations)
    total = 0
    synthetic = synthetic_merge_violations(bug)
    print(f"synthetic merge scenarios: "
          f"{'ok' if not synthetic else f'{len(synthetic)} violations'}")
    for message in synthetic:
        print(f"  VIOLATION: {message}")
    total += len(synthetic)
    for scheme in schemes:
        for n in nodes:
            config = small_config(scheme, n)
            violations, stats = explore_config(config, epochs=epochs,
                                               budget=budget)
            line = (f"{scheme} n={n}: {stats['runs']} interleavings "
                    f"({stats['pruned']} converged)")
            if stats["budget_hit"]:
                line += f" [budget {budget} hit — tree truncated]"
            if stats["truncated"]:
                line += (f" [{stats['truncated']} choice points "
                         f"sampled]")
            status = ("ok" if not violations
                      else f"{len(violations)} VIOLATIONS")
            print(f"{line}: {status}")
            for violation in violations[:10]:
                print(f"  VIOLATION: {violation!r}")
            if len(violations) > 10:
                print(f"  ... {len(violations) - 10} more")
            total += len(violations)
    return total


def run_trace(path: str) -> int:
    """HB-analyze one JSONL serve trace; returns the violation count.

    Raises :class:`OSError` for an unreadable path and
    :class:`ValueError` for a file that is not a serve trace, including
    one with no causal events: analyzing nothing must not pass.
    """
    from repro.analysis.hb import analyze_jsonl
    report = analyze_jsonl(path)
    if not report.n_events:
        raise ValueError(f"{path}: no causal serve events; capture the "
                         f"trace with `repro trace --runtime serve "
                         f"--format jsonl`")
    print(f"{path}: {report.n_events} causal events across "
          f"{len(report.processes)} processes "
          f"({', '.join(report.processes)}), "
          f"{report.n_frames} matched frames")
    for violation in report.violations:
        print(f"  VIOLATION: {violation}")
    print("happens-before analysis: "
          + ("ok" if report.ok
             else f"{len(report.violations)} violations"))
    return len(report.violations)


def run_bug_hb_canary(scheme: str, n_nodes: int) -> int:
    """HB-analyze a traced phase-inversion merge under the active seed
    bug (see :func:`repro.analysis.explore.phase_inversion_trace`)."""
    from repro.analysis.explore import phase_inversion_trace
    from repro.analysis.hb import analyze
    report = analyze(phase_inversion_trace(small_config(scheme, n_nodes)))
    print(f"hb analysis of seeded-bug merge trace ({scheme} "
          f"n={n_nodes}): "
          + ("ok" if report.ok
             else f"{len(report.violations)} violations"))
    return len(report.violations)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="concurrency verifier for the epoch serve "
                    "runtime: small-scope interleaving model checking "
                    "and happens-before trace analysis")
    parser.add_argument("--explore", action="store_true",
                        help="exhaustively model-check epoch "
                             "interleavings at small scope")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="happens-before analysis of a JSONL "
                             "serve trace (repro trace --runtime "
                             "serve --format jsonl)")
    parser.add_argument("--schemes", default=None,
                        help="comma-separated schemes to explore "
                             "(default: all registered)")
    parser.add_argument("--nodes", default=None,
                        help="comma-separated local node counts "
                             "(default: 2,3,4)")
    parser.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS,
                        help="scripted interleaving depth in epochs "
                             f"(default: {DEFAULT_EPOCHS})")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="max model runs per config "
                             f"(default: {DEFAULT_BUDGET})")
    parser.add_argument("--seed-bug", default=None,
                        metavar="BUG",
                        help="activate a deliberate runtime bug for "
                             "verifier regression tests (known: "
                             "drop-phase)")
    parser.add_argument("--expect-violations", action="store_true",
                        help="invert the exit code: fail if the "
                             "checker finds NOTHING (CI canary mode)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.explore and args.trace is None:
        print("repro check: nothing to do — pass --explore and/or "
              "--trace PATH", file=sys.stderr)
        return 2

    from repro.serve import merge

    if args.seed_bug is not None and \
            args.seed_bug not in merge.KNOWN_BUGS:
        print(f"repro check: unknown --seed-bug {args.seed_bug!r}; "
              f"known: {', '.join(merge.KNOWN_BUGS)}",
              file=sys.stderr)
        return 2
    schemes = (_parse_csv(args.schemes, "scheme") if args.schemes
               else sorted(available_schemes()))
    unknown = sorted(set(schemes) - set(available_schemes()))
    if unknown:
        print(f"repro check: unknown scheme(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    try:
        nodes = ([int(n) for n in _parse_csv(args.nodes, "node")]
                 if args.nodes else list(DEFAULT_NODES))
    except ValueError:
        print(f"repro check: --nodes must be integers: {args.nodes!r}",
              file=sys.stderr)
        return 2
    if args.epochs < 1 or args.budget < 1:
        print("repro check: --epochs and --budget must be >= 1",
              file=sys.stderr)
        return 2

    total = 0
    previous = merge.SEED_BUG
    merge.SEED_BUG = args.seed_bug if args.seed_bug else previous
    try:
        if args.explore:
            total += run_explore(schemes, nodes, args.epochs,
                                 args.budget, merge.SEED_BUG)
            if args.seed_bug is not None:
                total += run_bug_hb_canary(schemes[0], nodes[0])
        if args.trace is not None:
            try:
                total += run_trace(args.trace)
            except (OSError, ValueError) as exc:
                print(f"repro check: {exc}", file=sys.stderr)
                return 2
    finally:
        merge.SEED_BUG = previous

    if args.expect_violations:
        if total:
            print(f"expected violations found ({total}) — canary ok")
            return 0
        print("repro check: --expect-violations set but the checker "
              "found nothing", file=sys.stderr)
        return 1
    return 1 if total else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
