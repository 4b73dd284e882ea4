"""``repro check`` — the concurrency verifier front-end.

``--explore`` (required) runs small-scope interleaving model checking
(:mod:`repro.analysis.explore`): synthetic merge scenarios through the
real :class:`~repro.serve.merge.EpochMerge`, then exhaustive DFS over
epoch-boundary placements and reply arrival orders for every requested
scheme × node count, asserting each interleaving merges to
kernel-canonical order and matches the simulator oracle's
``TimedFingerprint``.

Exit codes: 0 clean, 1 violations found, 2 usage errors.
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
                epochs: int, budget: int) -> int:
    """Model-check every scheme × node count; returns found-violation
    count (printing findings and per-config stats as it goes)."""
    from repro.analysis.explore import (explore_config,
                                        synthetic_merge_violations)
    total = 0
    synthetic = synthetic_merge_violations()
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="concurrency verifier for the epoch serve "
                    "runtime: small-scope interleaving model checking")
    parser.add_argument("--explore", action="store_true",
                        help="exhaustively model-check epoch "
                             "interleavings at small scope")
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.explore:
        print("repro check: nothing to do — pass --explore",
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

    return 1 if run_explore(schemes, nodes, args.epochs,
                            args.budget) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
