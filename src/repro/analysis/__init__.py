"""``repro.analysis`` — the runtime half of the determinism contract.

Enforcement layers for the reproduction's core invariant (every run is
a single-threaded, reproducible computation); the static half, what
source may say and where, is the row table of ``tests/test_layout.py``:

* :mod:`repro.analysis.determinism` — the schedule-determinism harness:
  re-runs a config under permuted kernel tie-break salts and asserts
  bit-identical outcomes.
* :mod:`repro.analysis.explore` / :mod:`repro.analysis.check` — the
  concurrency verifier (``repro check``): small-scope interleaving
  model checking of epoch-mode serve.

Import each from its own module; this package re-exports nothing, so
importing one layer loads no other.
"""
