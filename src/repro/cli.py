"""Command-line interface: ``python -m repro ...``.

Subcommands:

* ``schemes`` — list the registered schemes.
* ``run`` — run one scheme and print its headline metrics.
* ``compare`` — run several schemes over one workload and print a table.
* ``experiment`` — regenerate one of the paper's figures.
* ``trace`` — run one scheme with tracing and write the trace to disk
  (Chrome trace-event JSON for Perfetto, or JSONL).
* ``serve`` — run one scheme on the serve runtime: every node a real
  OS process speaking the binary wire codec over TCP, results
  bit-identical to the simulator, plus wall-clock latency/throughput.
* ``check`` — the concurrency verifier: small-scope interleaving model
  checking of the serve run loop and happens-before analysis of captured
  serve traces (see :mod:`repro.analysis.check`).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.api import compare, run
from repro.core.runner import available_schemes
from repro.errors import AggregationError, ConfigurationError
from repro.metrics.report import format_si, format_table
from repro.sweep import JOBS_ENV


def _register_experiments():
    """Experiment name -> (headers, rows-callable(scale)); the figure
    drivers import only when an experiment runs."""
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
        p.add_argument("--nodes", type=int, default=2,
                       help="local node count")
        p.add_argument("--window", type=int, default=10_000,
                       help="global count window size")
        p.add_argument("--windows", type=int, default=10,
                       help="number of global windows")
        p.add_argument("--rate", type=float, default=100_000,
                       help="events/s per local node")
        p.add_argument("--rate-change", type=float, default=0.01,
                       help="rate-change fraction (0.01 = 1%%)")
        p.add_argument("--aggregate", default="sum")
        # ``serve`` names this --load; everywhere else it is --mode.
        p.add_argument(load_flag, dest="load",
                       choices=("throughput", "latency"),
                       default="throughput",
                       help="throughput = saturated input; latency = "
                            "paced arrivals")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delta-m", type=int, default=4)
        p.add_argument("--min-delta", type=int, default=4)
        p.add_argument("--queries", action="append", default=None,
                       metavar="AGG:LEN[:STEP]",
                       help="admit a standing query on every local "
                            "stream (repeatable; e.g. --queries "
                            "sum:1000 --queries avg:700:350).  All "
                            "queries share one slice store + partial "
                            "tree per stream; one --queries "
                            "flag is the single-query degenerate case "
                            "of the same path")

    run_p = sub.add_parser("run", help="run one scheme")
    run_p.add_argument("scheme")
    add_run_args(run_p)
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="also record a trace and write it to PATH "
                            "as Chrome trace-event JSON (Perfetto)")

    trace_p = sub.add_parser(
        "trace", help="run one scheme with tracing; write the trace")
    trace_p.add_argument("--scheme", required=True)
    add_run_args(trace_p)
    trace_p.add_argument("--out", default="trace.json",
                         help="output path (default: trace.json)")
    trace_p.add_argument("--format", choices=("chrome", "jsonl"),
                         default="chrome",
                         help="chrome = trace-event JSON for Perfetto; "
                              "jsonl = one event per line")
    trace_p.add_argument("--runtime", choices=("sim", "serve"),
                         default="sim",
                         help="sim = discrete-event simulator; serve = "
                              "real node processes over TCP (identical "
                              "results, real wall-clock spans)")

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
    serve_p.add_argument("--sources", type=int, default=1,
                         help="concurrent paced source clients per "
                              "local node (--load latency only)")
    serve_p.add_argument("--verify", action="store_true",
                         help="also run the simulator and assert its "
                              "timed fingerprint equals the serve run's")

    # Listed for ``repro --help`` only: ``main`` hands it to the
    # parser that owns its flags before this one runs.
    sub.add_parser(
        "check",
        help="concurrency verifier: interleaving model checking "
             "(--explore)")
    return parser


def _run_kwargs(args) -> dict:
    return dict(n_nodes=args.nodes, window_size=args.window,
                n_windows=args.windows, rate_per_node=args.rate,
                rate_change=args.rate_change, aggregate=args.aggregate,
                mode=args.load, seed=args.seed, delta_m=args.delta_m,
                min_delta=args.min_delta,
                queries=tuple(args.queries or ()))


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


def _summary_row(name: str, summary) -> list[str]:
    metric = (format_si(summary.throughput, " ev/s")
              if summary.throughput is not None
              else f"{summary.latency_s * 1e3:.3f} ms")
    return [name, metric, format_si(summary.total_bytes, "B"),
            f"{summary.correctness:.4f}",
            str(summary.correction_steps)]


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
        summary = run(args.scheme, trace=bool(args.trace),
                      **_run_kwargs(args))
        print(format_table(headers,
                           [_summary_row(args.scheme, summary)]))
        _print_queries(summary.queries)
        if args.trace:
            from repro.obs import write_chrome_trace
            path = write_chrome_trace(args.trace, summary.trace)
            print(f"trace: {path} ({len(summary.trace.events)} events; "
                  f"open in https://ui.perfetto.dev)")
        return 0

    if args.command == "trace":
        from repro.obs import (summary_table, write_chrome_trace,
                               write_jsonl)
        if args.runtime == "serve":
            from repro.api import _make_config, _summarize
            from repro.obs.tracer import RunTracer
            from repro.serve import run_scheme_served
            tracer = RunTracer()
            config = _make_config(args.scheme, **_run_kwargs(args))
            report = run_scheme_served(config, tracer=tracer)
            summary = _summarize(config, args.load, report.result,
                                 report.workload)
        else:
            summary = run(args.scheme, trace=True, **_run_kwargs(args))
            tracer = summary.trace
        if args.format == "chrome":
            path = write_chrome_trace(args.out, tracer)
        else:
            write_jsonl(args.out, tracer)
            path = args.out
        print(format_table(headers,
                           [_summary_row(args.scheme, summary)]))
        print()
        print(summary_table(tracer))
        print(f"\ntrace: {path} ({len(tracer.events)} events, "
              f"format={args.format})")
        if args.format == "chrome":
            print("open in https://ui.perfetto.dev (or chrome://tracing)")
        return 0

    if args.command == "serve":
        from repro.api import _make_config
        from repro.serve import run_scheme_served
        if args.sources < 1:
            raise ConfigurationError(
                f"--sources must be >= 1, got {args.sources}")
        if args.sources > 1 and args.load != "latency":
            raise ConfigurationError(
                "--sources needs --load latency (paced arrivals); a "
                "saturated feed has no arrival schedule to split")
        config = _make_config(args.scheme,
                              sources_per_node=args.sources,
                              **_run_kwargs(args))
        report = run_scheme_served(config)
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
        return 0

    if args.command == "compare":
        results = compare(args.schemes_list, jobs=args.jobs,
                          **_run_kwargs(args))
        print(format_table(headers,
                           [_summary_row(n, s)
                            for n, s in results.items()]))
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
