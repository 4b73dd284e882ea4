"""``repro.obs`` — structured tracing and run-metrics observability.

The paper's evaluation reasons from internal protocol behaviour (who
is bottlenecked where, how many flows and correction rounds each scheme
triggers, bytes per link); this package makes that behaviour observable
without print-debugging the kernel:

* :class:`RunTracer` records typed events (message send/recv/drop/
  delay/retransmit, CPU spans, queue depths, window lifecycle, protocol
  state transitions) plus per-node/per-link counters and gauges.
* :data:`NULL_TRACER` is the zero-overhead default — hooks guard on
  ``tracer.enabled`` so untraced runs are bit-identical and unmeasurably
  close in wall time to pre-observability builds.
* Exporters emit JSONL, Chrome trace-event JSON (open in Perfetto), and
  aligned summary tables.

A trace is requested one way: pass a :class:`RunTracer` as ``tracer``
to :func:`repro.api.run`, :func:`repro.core.runner.run_scheme` or
:func:`repro.serve.run_scheme_served` — or ``--trace PATH`` on
``repro run`` / ``repro serve``, which does that and writes the file.
"""

from repro.obs.events import (CPU, MSG_DELAY, MSG_DROP, MSG_RECV,
                              MSG_RETRANSMIT, MSG_SEND, QUEUE, STATE,
                              WINDOW, TraceEvent)
from repro.obs.exporters import (event_to_dict, summary_table,
                                 to_chrome_trace, write_chrome_trace,
                                 write_jsonl)
from repro.obs.tracer import (GLOBAL_SCOPE, NULL_TRACER, NullTracer,
                              RunTracer)

__all__ = [
    "CPU", "MSG_DELAY", "MSG_DROP", "MSG_RECV", "MSG_RETRANSMIT",
    "MSG_SEND", "QUEUE", "STATE", "WINDOW", "TraceEvent",
    "event_to_dict", "summary_table", "to_chrome_trace",
    "write_chrome_trace", "write_jsonl", "GLOBAL_SCOPE", "NULL_TRACER",
    "NullTracer", "RunTracer",
]
