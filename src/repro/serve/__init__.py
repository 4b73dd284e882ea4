"""The serve runtime: real node processes over TCP, oracle-faithful.

Each cluster node runs as its own OS process
(:mod:`repro.serve.worker`), speaking the binary wire codec
(:mod:`repro.wire.codec`) over length-prefixed TCP framing
(:mod:`repro.serve.framing`); the coordinator
(:mod:`repro.serve.coordinator`) owns the shared virtual clock and the
fabric accounting.  Per-window results and flow/byte counts are
bit-identical to the simulator driver's — see DESIGN §11-12 for the
argument.

Entry point: :func:`repro.serve.harness.run_scheme_served` (CLI:
``repro serve``).
"""

from repro.serve.harness import (ServeReport, percentile,
                                 run_scheme_served)

__all__ = ["ServeReport", "percentile", "run_scheme_served"]
