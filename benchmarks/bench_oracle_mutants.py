"""Oracle kill matrix: every mutant of ``tests/mutants.py`` against
every checker that guards a run.

A checker *kills* a mutant when it reports a violation or the run it
drives raises.  The checkers, and the scope each runs at here:

* ``golden``: every digest of ``tests/test_scheme_golden.py`` (16
  runs, the seeded drop schedule, the wide-value workload and the two
  traced event streams), at full scope.
* ``correct``: window results against the workload's ground truth
  (the exact schemes at rate change 0.05 and 0.5, Deco_sync and
  Deco_async also under ``avg`` and ``variance`` and on short epochs)
  and standing-query results against the unshared engine; reduced
  from ``tests/test_schemes_correctness.py``'s grid.
* ``salt``: ``check_determinism`` over four tie-break salts, for every
  scheme, paced Deco_async and Deco_async with standing queries, at
  full scope.
* ``serve``: real TCP serve runs checked by
  ``verify_against_simulator`` (and their query accounts), on four
  configs; reduced from the serve tests.
* ``explore``: ``repro check --explore`` at budget 60 over 2 and 3
  nodes and 2 epochs; reduced from CI's budget 400, 2-4 nodes,
  3 epochs.

Run with ``python -m pytest benchmarks/bench_oracle_mutants.py`` from
the repository root (the corpus lives in ``tests/``).  The kill cells
are deterministic and go to ``benchmarks/results/oracle_mutants.txt``;
seconds per checker are not, and go to stdout only.
"""

from __future__ import annotations

import contextlib
import io
import signal
import time
from collections.abc import Callable, Iterator

import pytest

import repro.baselines  # noqa: F401 -- registers baseline schemes
from repro.aggregates import get_aggregate
from repro.analysis.check import run_explore
from repro.analysis.determinism import TimedFingerprint, check_determinism
from repro.core.multiquery import MultiQueryEngine
from repro.core.runner import RunConfig, available_schemes, run_scheme
from repro.metrics import results_match
from repro.metrics.report import format_table
from repro.obs.tracer import RunTracer
from repro.runtime.api import local_name
from repro.runtime.driver import build_run, run_simulation
from repro.serve import framing
from repro.serve.harness import run_scheme_served, verify_against_simulator
from tests.mutants import MUTANTS, Mutant, install
from tests.test_analysis_determinism import SMALL as SALT_SMALL
from tests.test_multiquery import QUERIES, STOP_CUT, TINY
from tests.test_schemes_correctness import small_config
from tests.test_scheme_golden import (GOLDEN, GOLDEN_SYNC_DROPS,
                                      GOLDEN_TRACE, GOLDEN_WIDE,
                                      WIDE_OFFSET, golden_config,
                                      golden_workload, sync_drops_run,
                                      trace_digest)

#: Longest any one checker may run under one mutant; a hang is a kill.
CHECK_TIMEOUT_S = 300


def check_golden() -> str | None:
    workload = golden_workload()
    for (scheme, load), digest in sorted(GOLDEN.items()):
        result, _ = run_scheme(golden_config(scheme, load == "saturated"),
                               workload)
        if TimedFingerprint.of(result).hexdigest() != digest:
            return f"{scheme}/{load} digest"
    if (TimedFingerprint.of(sync_drops_run(workload)[0]).hexdigest()
            != GOLDEN_SYNC_DROPS):
        return "deco_sync drop-schedule digest"
    wide = golden_workload(WIDE_OFFSET)
    for (scheme, load), digest in sorted(GOLDEN_WIDE.items()):
        result, _ = run_scheme(golden_config(scheme, load == "saturated"),
                               wide)
        if TimedFingerprint.of(result).hexdigest() != digest:
            return f"{scheme}/{load} wide-value digest"
    for (scheme, load), digest in sorted(GOLDEN_TRACE.items()):
        tracer = RunTracer()
        run_scheme(golden_config(scheme, load == "saturated"), workload,
                   tracer=tracer)
        if trace_digest(tracer) != digest:
            return f"{scheme}/{load} trace digest"
    return None


def _query_fingerprints(config: RunConfig, sharing: bool) -> dict:
    topo, ctx = build_run(config)
    if not sharing:
        ctx.engine = MultiQueryEngine(sharing=False, tracer=ctx.tracer)
        for i in range(ctx.n_nodes):
            for spec in config.queries:
                ctx.engine.admit(local_name(i), spec, at=0)
    result = run_simulation(topo, ctx, config.resolved_batch_size(),
                            config.saturated)
    return {qid: acct["fingerprint"]
            for qid, acct in result.queries.items()}


def check_correct() -> str | None:
    exact = ("central", "scotty", "disco", "deco_mon", "deco_sync",
             "deco_async")
    cases = [small_config(s, rate_change=change)
             for s in exact for change in (0.05, 0.5)]
    cases += [small_config(s, aggregate=agg)
              for s in ("deco_sync", "deco_async")
              for agg in ("avg", "variance")]
    cases += [small_config(s, n_nodes=3, rate_change=0.1, seed=1,
                           epoch_seconds=0.05)
              for s in ("deco_sync", "deco_async")]
    for config in cases:
        result, workload = run_scheme(config)
        if not results_match(result, workload.reference_result(
                get_aggregate(config.aggregate))):
            return f"{config.scheme} {config.aggregate}"
    for scheme in ("central", "deco_async"):
        config = RunConfig(scheme=scheme, queries=QUERIES, **TINY)
        if (_query_fingerprints(config, True)
                != _query_fingerprints(config, False)):
            return f"{scheme} standing queries"
    return None


def check_salt() -> str | None:
    configs = [RunConfig(scheme=s, **SALT_SMALL)
               for s in sorted(available_schemes())]
    configs.append(RunConfig(scheme="deco_async", saturated=False,
                             **SALT_SMALL))
    configs.append(RunConfig(scheme="deco_async", queries=QUERIES,
                             **TINY))
    for config in configs:
        check_determinism(config)
    return None


#: The serve configs: the query-parity pair, the stop-cut config and a
#: three-node Deco_async run.
SERVE_CONFIGS = (
    RunConfig(scheme="deco_sync", queries=("sum:500", "avg:300:100"),
              **TINY),
    RunConfig(scheme="central", queries=("sum:500", "avg:300:100"),
              **TINY),
    RunConfig(scheme="central", queries=("sum:97",), **STOP_CUT),
    RunConfig(scheme="deco_async", n_nodes=3, window_size=400,
              n_windows=3, rate_per_node=20_000.0, seed=7),
)


def check_serve() -> str | None:
    for config in SERVE_CONFIGS:
        report = run_scheme_served(config)
        verify_against_simulator(config, report.result)
        if report.result.queries != run_scheme(config)[0].queries:
            return f"{config.scheme} query accounts"
    return None


def check_explore() -> str | None:
    with contextlib.redirect_stdout(io.StringIO()):
        found = run_explore(sorted(available_schemes()), (2, 3),
                            epochs=2, budget=60)
    return f"{found} violations" if found else None


#: The table's footer: what each checker ran here.
SCOPE = """\
Scope: golden = every digest of tests/test_scheme_golden.py (full).
correct = results vs ground truth on 18 configs and standing queries
vs the unshared engine on 2 (reduced from the correctness tests).
salt = check_determinism on every scheme, paced and with queries (full).
serve = 4 TCP serve runs vs the simulator (reduced from the serve tests).
explore = repro check --explore at budget 60, 2-3 nodes, 2 epochs
(reduced from CI's budget 400, 2-4 nodes, 3 epochs)."""


CHECKERS: dict[str, Callable[[], str | None]] = {
    "golden": check_golden,
    "correct": check_correct,
    "salt": check_salt,
    "serve": check_serve,
    "explore": check_explore,
}


@contextlib.contextmanager
def _deadline(seconds: int) -> Iterator[None]:
    def expire(signum: int, frame: object) -> None:
        raise TimeoutError(f"checker ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_checker(check: Callable[[], str | None]) -> tuple[str | None, float]:
    """(why it killed, or None) and the seconds it took."""
    start = time.perf_counter()
    try:
        with _deadline(CHECK_TIMEOUT_S):
            why = check()
    except Exception as exc:  # a crash or a hang is a kill
        why = f"{type(exc).__name__}: {str(exc)[:80]}"
    return why, time.perf_counter() - start


def kill_row(mutant: Mutant | None) -> dict[str, tuple[str | None, float]]:
    """Every checker's verdict with ``mutant`` installed (None: the
    code as shipped)."""
    with pytest.MonkeyPatch.context() as mp:
        # A hung worker fails its serve run within this, not 120 s.
        mp.setattr(framing, "REPLY_TIMEOUT_S", 30.0)
        if mutant is not None:
            install(mutant, mp)
        return {name: run_checker(check)
                for name, check in CHECKERS.items()}


def test_oracle_kill_matrix(results_dir):
    clean = kill_row(None)
    assert not any(why for why, _ in clean.values()), clean
    headers = ["mutant", "defect class", *CHECKERS, "verdict"]
    rows = []
    seconds = {name: [] for name in CHECKERS}
    survivors = []
    for mutant in MUTANTS:
        verdicts = kill_row(mutant)
        kills = [name for name, (why, _) in verdicts.items() if why]
        for name, (why, took) in verdicts.items():
            seconds[name].append(took)
            print(f"{mutant.name:36} {name:8} {took:6.1f}s "
                  f"{why or '-'}")
        if mutant.equivalent is not None:
            assert not kills, (mutant.name, "marked equivalent", kills)
            verdict = f"equivalent: {mutant.equivalent}"
        elif kills:
            verdict = "killed"
        else:
            verdict = "SURVIVED"
            survivors.append(mutant.name)
        rows.append([mutant.name, mutant.defect,
                     *("K" if verdicts[name][0] else "."
                       for name in CHECKERS), verdict])
    killed = sum(1 for row in rows if row[-1] == "killed")
    table = (f"== Oracle kill matrix: {len(MUTANTS)} mutants, "
             f"{killed} killed (K = killed) ==\n"
             + format_table(headers, rows) + "\n\n" + SCOPE)
    (results_dir / "oracle_mutants.txt").write_text(table + "\n")
    print("\n" + table)
    for name, times in seconds.items():
        print(f"{name:8} clean {clean[name][1]:5.1f}s, per mutant "
              f"median {sorted(times)[len(times) // 2]:5.1f}s, "
              f"total {sum(times):6.1f}s")
    assert not survivors, survivors
