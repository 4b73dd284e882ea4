"""Ablation: wire format (binary vs Disco's strings).

"Our investigation showed that the network cost of Disco is higher than
Central and Scotty because it uses strings to send events and messages"
(Section 5.1).  This ablation quantifies the per-event wire cost of the
two formats, both from the size model directly and end-to-end through
otherwise-identical centralized runs.
"""

from repro.api import compare
from repro.runtime.serialization import (EVENT_BYTES, WireFormat,
                                         event_payload_size,
                                         message_size)

HEADERS_MODEL = ["format", "bytes/event", "1M-event message"]
HEADERS_E2E = ["system (format)", "total bytes", "bytes/event"]


def model_rows():
    rows = []
    for fmt in WireFormat:
        rows.append([fmt.value, EVENT_BYTES[fmt],
                     f"{message_size(n_events=1_000_000, fmt=fmt):,}"])
    return rows


def e2e_rows(scale):
    window = max(512, int(20_000 * scale))
    n_windows = max(10, int(30 * scale * 2))
    results = compare(["scotty", "disco"], n_nodes=2,
                      window_size=window, n_windows=n_windows,
                      rate_per_node=50_000, rate_change=0.01,
                      mode="latency", seed=3)
    events = n_windows * window
    return [[f"{name} ({'string' if name == 'disco' else 'binary'})",
             f"{s.result.total_bytes:,}",
             f"{s.result.total_bytes / events:.1f}"]
            for name, s in results.items()]


def test_ablation_serialization_model(benchmark, record_table):
    rows = benchmark.pedantic(model_rows, rounds=1, iterations=1)
    record_table("ablation_serialization_model",
                 "Ablation: wire-format size model", HEADERS_MODEL, rows)
    # This assertion *is about* the string-expansion factor itself.
    assert (3 * EVENT_BYTES[WireFormat.BINARY]
            == EVENT_BYTES[WireFormat.STRING])
    assert event_payload_size(10, WireFormat.STRING) == 720


def test_ablation_serialization_end_to_end(benchmark, scale,
                                           record_table):
    rows = benchmark.pedantic(e2e_rows, args=(scale,), rounds=1,
                              iterations=1)
    record_table("ablation_serialization_e2e",
                 "Ablation: wire format end-to-end", HEADERS_E2E, rows)
    scotty = float(rows[0][2])
    disco = float(rows[1][2])
    assert 2.5 < disco / scotty < 3.5
