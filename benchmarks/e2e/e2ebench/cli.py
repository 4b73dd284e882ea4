"""Command line of the end-to-end benchmark.

Two callers share it.  A person runs ``PYTHONPATH=src python
benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--rounds N]
[--traced] [--quick] [--check-repeat] [--out FILE]`` and reads the
tables.  The benchmark driver runs ``--workload NAME --seed N --seconds
S --trace 0|1`` and reads the last line: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy

from e2ebench import SCHEMA
from e2ebench.measure import Report, quartiles, run_workload
from e2ebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
OUT_DIR = Path(__file__).resolve().parents[1] / "out"
DEFAULT_SEED = 11

#: End-to-end metrics that are exact counts: two runs of the same code
#: on the same seed must agree bit for bit, whatever their bound.
EXACT = ("net_bytes_per_event",)
#: Printed beside the declared metrics so a share has its base; the
#: driver reads them as ``failed`` / ``attempted`` of the result line.
EXTRA_E2E = {"failed_share": "ratio", "ops_attempted": "count"}


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _host() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"platform": platform.platform(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def _table(title: str, units: dict[str, str],
           samples: dict[str, list[float]]) -> None:
    print(f"  {title}")
    for name, unit in units.items():
        values = samples.get(name) or [0.0]
        median, q1, q3 = quartiles(values)
        print(f"    {name:42s} {median:16.6g} {unit:10s} "
              f"n={len(values):<3d} q1={q1:.6g} q3={q3:.6g}")


def print_report(report: Report, spec: dict[str, Any]) -> None:
    latency = [len(r.latencies_s) for r in report.rounds]
    print(f"== {report.workload} ({report.loop} loop, seed "
          f"{report.seed}{', quick' if report.quick else ''}) "
          f"sizes={report.sizes} rounds={len(report.rounds)} "
          f"events/round={report.events_per_round}"
          + (f" latency windows={sum(latency)}" if any(latency)
             else ""))
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    _table("end to end (median over rounds)",
           {**e2e_units, **EXTRA_E2E}, report.e2e)
    if report.traced is not None:
        _table("per layer (traced round + probes)",
               {m["name"]: m["unit"] for m in spec["per_layer"]},
               report.layers)
        print(f"  spans: {report.spans_path}")
    for error in report.errors:
        print(f"  ERROR {error}")


def workload_record(r: Report) -> dict[str, Any]:
    """One workload's part of the result record: sizes, per-round raw
    values, and each metric's median and samples."""
    def summarized(samples: dict[str, list[float]]) -> dict[str, Any]:
        return {name: {"median": statistics.median(values),
                       "samples": values}
                for name, values in samples.items()}

    return {
        "name": r.workload, "loop": r.loop, "sizes": r.sizes,
        "events_per_round": r.events_per_round,
        "rounds": len(r.rounds), "attempted": r.attempted,
        "failed": r.failed, "errors": r.errors,
        "setup_reps_s": r.setup_reps_s,
        "raw_rounds": [{
            "wall_s": x.wall_s, "untimed_s": x.untimed_s,
            "cpu_s": x.cpu_s, "events": x.events,
            "net_bytes": x.net_bytes, "latencies_s": x.latencies_s,
            "attempted": x.attempted, "failed": x.failed}
            for x in r.rounds],
        "end_to_end": summarized(r.e2e),
        "per_layer": summarized(r.layers)}


def result_line(rec: dict[str, Any], spec: dict[str, Any],
                traced: bool) -> str:
    """The driver's contract: the last line of standard output."""
    key = "per_layer" if traced else "end_to_end"
    metrics = {
        m["name"]: {"value": rec[key].get(m["name"],
                                          {"median": 0.0})["median"],
                    "unit": m["unit"]}
        for m in spec[key]}
    return json.dumps({"correct": rec["failed"] == 0,
                       "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def run_isolated(name: str, args: argparse.Namespace,
                 traced: bool) -> dict[str, Any]:
    """One workload in a process of its own, as the driver runs it:
    peak RSS, children's rusage and the workload cache are all
    per-process high-water marks."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"record-{os.getpid()}-{name}.json"
    cmd = [sys.executable, str(OUT_DIR.parent / "run.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out)]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    if traced:
        cmd.append("--traced")
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    try:
        # Exit status 1 only says ops failed; the record carries that.
        if subprocess.run(cmd, check=False).returncode not in (0, 1):
            raise SystemExit(f"benchmark of {name} crashed")
        return json.loads(out.read_text())["workloads"][0]
    finally:
        out.unlink(missing_ok=True)


def check_repeat(first: list[dict[str, Any]],
                 second: list[dict[str, Any]],
                 spec: dict[str, Any]) -> int:
    """Two independent sets of the same code must agree within each
    metric's own bound; exact metrics must be equal."""
    bad = 0
    for a, b in zip(first, second, strict=True):
        print(f"== repeat check: {a['name']}")
        for m in spec["end_to_end"]:
            name = m["name"]
            x = a["end_to_end"][name]["median"]
            y = b["end_to_end"][name]["median"]
            ok = x == y if name in EXACT \
                else abs(x - y) <= m["bound"] * x
            bad += not ok
            print(f"    {name:24s} {x:16.6g} {y:16.6g} {m['unit']:8s} "
                  f"bound={'exact' if name in EXACT else m['bound']}"
                  f" {'ok' if ok else 'DIFFERS'}")
        for r in (a, b):
            if r["failed"]:
                bad += 1
                print(f"    {r['failed']}/{r['attempted']} ops failed")
    return bad


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS), metavar="NAME",
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures for (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="fixed number of untraced rounds instead "
                             "of --seconds")
    parser.add_argument("--traced", action="store_true",
                        help="add the traced round and the probes")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        default=None,
                        help="driver mode: one workload, result line "
                             "last (1 implies --traced)")
    parser.add_argument("--quick", action="store_true",
                        help="~1/20 size, 1 round, all checks on")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets, fail if they disagree")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the versioned result record here")
    args = parser.parse_args(argv)
    if args.trace is not None and len(args.workload or ()) != 1:
        parser.error("--trace takes exactly one --workload")
    if args.quick and args.rounds is None:
        args.rounds = 1
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    traced = args.traced or args.trace == 1
    names = args.workload or list(WORKLOADS)
    isolate = len(names) > 1 or args.check_repeat

    def one_set() -> list[dict[str, Any]]:
        if isolate:
            return [run_isolated(name, args, traced) for name in names]
        report = run_workload(
            WORKLOADS[names[0]], args.seed, out_dir=OUT_DIR,
            seconds=args.seconds, rounds=args.rounds,
            quick=args.quick, traced=traced)
        print_report(report, spec)
        return [workload_record(report)]

    records = one_set()
    status = 0
    if args.check_repeat:
        status = 1 if check_repeat(records, one_set(), spec) else 0
    if args.out is not None:
        args.out.write_text(json.dumps({
            "schema": SCHEMA, "host": _host(), "seed": args.seed,
            "quick": args.quick, "seconds": args.seconds,
            "rounds": args.rounds, "workloads": records},
            indent=1) + "\n")
    if args.trace is not None:
        print(result_line(records[0], spec, traced=bool(args.trace)))
        return 0
    if any(rec["failed"] for rec in records):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
