"""``repro.analysis`` — deco-lint and the determinism contract.

Three enforcement layers for the reproduction's core invariant (every
run is a single-threaded, reproducible computation):

* :mod:`repro.analysis.lint` / :mod:`repro.analysis.rules` — deco-lint,
  the repo-specific AST rules run by ``repro lint`` and CI
  (``repro lint --list-rules`` names them).
* :mod:`repro.analysis.determinism` — the schedule-determinism harness:
  re-runs a config under permuted kernel tie-break salts and asserts
  bit-identical outcomes.
* :mod:`repro.analysis.fsm` — per-scheme protocol FSMs validated
  against traced message flows.
* :mod:`repro.analysis.explore` / :mod:`repro.analysis.hb` /
  :mod:`repro.analysis.check` — the concurrency verifier
  (``repro check``): small-scope interleaving model checking of
  epoch-mode serve, and happens-before analysis of serve traces via
  vector clocks.

Import each from its own module; this package re-exports nothing, so
importing one layer loads no other.
"""
