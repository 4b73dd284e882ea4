"""Command-line interface: ``python -m repro ...``.

Subcommands:

* ``schemes`` — list the registered schemes.
* ``run`` — run one scheme and print its headline metrics.
* ``compare`` — run several schemes over one workload and print a table.
* ``experiment`` — regenerate one of the paper's figures.
* ``serve`` — run one scheme on the serve runtime: every node a real
  OS process speaking the binary wire codec over TCP, results
  bit-identical to the simulator, plus wall-clock latency/throughput.
* ``check`` — the concurrency verifier: small-scope interleaving model
  checking of the serve run loop (see :mod:`repro.analysis.check`).

``run`` and ``serve`` take ``--trace PATH``: record the run, print the
per-node trace summary and write the trace to ``PATH`` — JSONL when it
ends in ``.jsonl``, Chrome trace-event JSON (Perfetto) otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from repro.api import RunSummary, compare, make_config, run
from repro.core.runner import RunConfig, available_schemes
from repro.errors import AggregationError, ConfigurationError
from repro.experiments.config import DELTA_M, MIN_DELTA
from repro.metrics.report import format_si, format_table
from repro.obs.tracer import RunTracer
from repro.sweep import JOBS_ENV

#: The parsed arguments that configure a run: every run flag's ``dest``
#: is the :class:`RunConfig` field it sets (``mode`` is the load shape
#: :func:`repro.api.make_config` takes).  A flag left unset is absent,
#: so its field keeps the :class:`RunConfig` default.
_CONFIG_KEYS = ({f.name for f in fields(RunConfig)} - {"scheme"}) | {"mode"}


def _register_experiments():
    """Experiment name -> (headers, rows-callable(scale))."""
    from repro.experiments import fig7, fig8, fig9, fig10, fig11, micro

    def rate_sweep_rows(maker):
        def rows(scale):
            return maker(fig10.run_rate_change_sweep(scale))
        return rows

    def window_sweep_rows(maker, change=0.01):
        def rows(scale):
            return maker(fig10.run_window_size_sweep(scale, change))
        return rows

    return {
        "fig7a": (fig7.HEADERS_7A, fig7.rows_fig7a),
        "fig7b": (fig7.HEADERS_7B, fig7.rows_fig7b),
        "fig8a": (fig8.HEADERS_8A, fig8.rows_fig8a),
        "fig8b": (fig8.HEADERS_8B, fig8.rows_fig8b),
        "fig9a": (fig9.HEADERS_9A, fig9.rows_fig9a),
        "fig9b": (fig9.HEADERS_9B, fig9.rows_fig9b),
        "micro": (micro.HEADERS_MICRO, micro.rows_micro),
        "fig10a": (fig10.HEADERS_RATE, rate_sweep_rows(fig10.rows_fig10a)),
        "fig10b": (fig10.HEADERS_RATE, rate_sweep_rows(fig10.rows_fig10b)),
        "fig10c": (fig10.HEADERS_10C, rate_sweep_rows(fig10.rows_fig10c)),
        "fig10d": (fig10.HEADERS_RATE, rate_sweep_rows(fig10.rows_fig10d)),
        "fig10e": (fig10.HEADERS_WINDOW,
                   window_sweep_rows(fig10.rows_fig10e)),
        "fig10f": (fig10.HEADERS_WINDOW,
                   window_sweep_rows(fig10.rows_fig10f, 0.5)),
        "fig11a": (fig11.HEADERS_11A, fig11.rows_fig11a),
        "fig11bc": (fig11.HEADERS_11BC, fig11.rows_fig11bc),
        "fig11d": (fig11.HEADERS_11D, fig11.rows_fig11d),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deco (EDBT 2024) reproduction: decentralized "
                    "count-window aggregation")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list registered schemes")

    def add_run_args(p, load_flag="--mode"):
        unset = argparse.SUPPRESS
        p.add_argument("--nodes", dest="n_nodes", type=int,
                       default=unset, help="local node count")
        p.add_argument("--window", dest="window_size", type=int,
                       default=unset, help="global count window size")
        p.add_argument("--windows", dest="n_windows", type=int,
                       default=unset, help="number of global windows")
        p.add_argument("--rate", dest="rate_per_node", type=float,
                       default=unset, help="events/s per local node")
        p.add_argument("--rate-change", type=float, default=unset,
                       help="rate-change fraction (0.01 = 1%%)")
        p.add_argument("--aggregate", default=unset)
        # ``serve`` names this --load; everywhere else it is --mode.
        p.add_argument(load_flag, dest="mode",
                       choices=("throughput", "latency"),
                       default=unset,
                       help="throughput = saturated input; latency = "
                            "paced arrivals")
        p.add_argument("--seed", type=int, default=unset)
        p.add_argument("--delta-m", type=int, default=DELTA_M)
        p.add_argument("--min-delta", type=int, default=MIN_DELTA)
        p.add_argument("--queries", action="append", default=unset,
                       metavar="AGG:LEN[:STEP]",
                       help="admit a standing query on every local "
                            "stream (repeatable; e.g. --queries "
                            "sum:1000 --queries avg:700:350).  All "
                            "queries share one slice store + partial "
                            "tree per stream; one --queries "
                            "flag is the single-query degenerate case "
                            "of the same path")

    def add_trace_arg(p):
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="also record a trace, print its per-node "
                            "summary and write it to PATH: JSONL if "
                            "PATH ends in .jsonl, else Chrome "
                            "trace-event JSON (Perfetto)")

    run_p = sub.add_parser("run", help="run one scheme")
    run_p.add_argument("scheme")
    add_run_args(run_p)
    add_trace_arg(run_p)

    cmp_p = sub.add_parser("compare",
                           help="run several schemes, same workload")
    cmp_p.add_argument("schemes_list", nargs="+", metavar="scheme")
    add_run_args(cmp_p)
    cmp_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the sweep (default: "
                            "$REPRO_JOBS, then CPU count; 1 = serial)")

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper figure")
    exp_p.add_argument("name", help="figure id, e.g. fig7a (or 'list')")
    exp_p.add_argument("--scale", type=float, default=0.5,
                       help="workload scale factor")
    exp_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the sweep (default: "
                            "$REPRO_JOBS, then CPU count; 1 = serial)")

    serve_p = sub.add_parser(
        "serve", help="run one scheme as real node processes over TCP")
    serve_p.add_argument("scheme")
    add_run_args(serve_p, load_flag="--load")
    serve_p.add_argument("--sources", dest="sources_per_node", type=int,
                         default=argparse.SUPPRESS,
                         help="concurrent paced source clients per "
                              "local node (--load latency only)")
    serve_p.add_argument("--verify", action="store_true",
                         help="also run the simulator and assert its "
                              "timed fingerprint equals the serve run's")
    add_trace_arg(serve_p)

    # Listed for ``repro --help`` only: ``main`` hands it to the
    # parser that owns its flags before this one runs.
    sub.add_parser(
        "check",
        help="concurrency verifier: interleaving model checking "
             "(--explore)")
    return parser


def _run_kwargs(args: argparse.Namespace) -> dict:
    """The run flags that were given, keyed by what they configure."""
    kwargs = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
    if "queries" in kwargs:
        kwargs["queries"] = tuple(kwargs["queries"])
    return kwargs


def _print_queries(queries: dict) -> None:
    """Per-standing-query account table (``--queries`` runs)."""
    if not queries:
        return
    rows = []
    for qid, acct in queries.items():
        shared = (f"dedup->{acct['deduped_into']}"
                  if acct.get("deduped_into") else "owner")
        rows.append([qid, acct["stream"], acct["label"], shared,
                     str(acct["windows"]), str(acct["combines"]),
                     str(acct["edge_events"]),
                     acct["fingerprint"][:12]])
    print()
    print(format_table(
        ["query", "stream", "spec", "sharing", "windows", "combines",
         "edge events", "fingerprint"], rows))


def _summary_row(summary: RunSummary) -> list[str]:
    metric = (format_si(summary.throughput, " ev/s")
              if summary.throughput is not None
              else f"{summary.latency_s * 1e3:.3f} ms")
    result = summary.result
    return [result.scheme, metric, format_si(result.total_bytes, "B"),
            f"{summary.correctness:.4f}",
            str(result.correction_steps)]


def _write_trace(path: str, tracer: RunTracer) -> None:
    """Print a traced run's per-node summary and write its trace:
    JSONL when ``path`` ends in ``.jsonl``, else Chrome trace-event
    JSON."""
    from repro.obs import summary_table, write_chrome_trace, write_jsonl
    print()
    print(summary_table(tracer))
    if path.endswith(".jsonl"):
        write_jsonl(path, tracer)
        print(f"\ntrace: {path} ({len(tracer.events)} events, JSONL)")
    else:
        write_chrome_trace(path, tracer)
        print(f"\ntrace: {path} ({len(tracer.events)} events; open in "
              f"https://ui.perfetto.dev)")


def main(argv: list[str] | None = None) -> int:
    """Run one command; a bad argument is one line on stderr, exit 2."""
    try:
        return _dispatch(sys.argv[1:] if argv is None else list(argv))
    except (ConfigurationError, AggregationError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _experiment(name: str, scale: float) -> int:
    if not 0 < scale < float("inf"):
        raise ConfigurationError(
            f"--scale must be a positive finite number, got {scale}")
    experiments = _register_experiments()
    if name == "list":
        for known in sorted(experiments):
            print(known)
        return 0
    if name not in experiments:
        print(f"unknown experiment {name!r}; try 'experiment list'",
              file=sys.stderr)
        return 2
    headers, rows_fn = experiments[name]
    print(f"== {name} (scale {scale}) ==")
    print(format_table(headers, rows_fn(scale)))
    return 0


def _dispatch(argv: list[str]) -> int:
    if argv[:1] == ["check"]:
        from repro.analysis.check import main as check_main
        return check_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.command == "schemes":
        for name in available_schemes():
            print(name)
        return 0

    headers = ["scheme", "throughput/latency", "network", "correct",
               "corrections"]
    if args.command == "run":
        tracer = RunTracer() if args.trace else None
        summary = run(args.scheme, tracer=tracer, **_run_kwargs(args))
        print(format_table(headers, [_summary_row(summary)]))
        _print_queries(summary.result.queries)
        if tracer is not None:
            _write_trace(args.trace, tracer)
        return 0

    if args.command == "serve":
        from repro.serve import run_scheme_served
        tracer = RunTracer() if args.trace else None
        config = make_config(args.scheme, **_run_kwargs(args))
        if config.sources_per_node < 1:
            raise ConfigurationError(
                f"--sources must be >= 1, got {config.sources_per_node}")
        if config.sources_per_node > 1 and config.saturated:
            raise ConfigurationError(
                "--sources needs --load latency (paced arrivals); a "
                "saturated feed has no arrival schedule to split")
        report = run_scheme_served(config, tracer)
        pct = report.latency_percentiles()
        print(format_table(
            ["scheme", "windows", "wall s", "throughput ev/s",
             "p50 ms", "p95 ms", "p99 ms"],
            [[args.scheme, str(report.result.n_windows),
              f"{report.wall_seconds:.3f}",
              format_si(report.throughput_eps, ""),
              f"{pct['p50_s'] * 1e3:.3f}",
              f"{pct['p95_s'] * 1e3:.3f}",
              f"{pct['p99_s'] * 1e3:.3f}"]]))
        _print_queries(report.result.queries)
        if args.verify:
            from repro.serve.harness import verify_against_simulator
            verify_against_simulator(config, report.result)
            print("verified: serve == simulator oracle (timed fingerprint)")
        if tracer is not None:
            _write_trace(args.trace, tracer)
        return 0

    if args.command == "compare":
        results = compare(args.schemes_list, jobs=args.jobs,
                          **_run_kwargs(args))
        print(format_table(headers, [_summary_row(s)
                                     for s in results.values()]))
        return 0

    if args.command == "experiment":
        # The figure drivers resolve workers from $REPRO_JOBS; --jobs
        # sets it for this command only.
        prior = os.environ.get(JOBS_ENV)
        if args.jobs is not None:
            os.environ[JOBS_ENV] = str(args.jobs)
        try:
            return _experiment(args.name, args.scale)
        finally:
            if prior is None:
                os.environ.pop(JOBS_ENV, None)
            else:
                os.environ[JOBS_ENV] = prior

    return 2  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
