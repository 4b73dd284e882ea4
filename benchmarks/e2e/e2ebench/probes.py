"""Per-layer probes: the cost of one unit of a layer's work.

Each probe times calls into one layer's *public* functions on inputs
taken from the workload being measured (its streams, window size,
feeder batch size, slot counts of its traced round).  Nothing inside
``src/`` is instrumented; a probe's unit cost times the count read at
the same boundary during the traced round estimates the layer's share
of a round (``bench.residual_share`` is what the estimates leave
unexplained).

Every probe returns ``{metric name: [samples]}`` in the metric's unit.
"""
# decolint: disable-file=DL001

from __future__ import annotations

import json
import socket
import time
from collections import deque
from collections.abc import Callable
from pathlib import Path

from repro.aggregates.registry import get_aggregate
from repro.core.buffers import PositionBuffer
from repro.core.multiquery import MultiQueryEngine
from repro.core.protocol import RawEvents, WindowAssignment, make_sizer
from repro.core.records import WindowOutcome
from repro.core.workload import load_workload_mmap, save_workload_mmap
from repro.runtime.api import ROOT_NAME, local_name
from repro.runtime.serialization import WireFormat
from repro.serve import framing
from repro.serve.merge import EpochMerge, slot_key
from repro.serve.protocol import (config_from_json, config_to_json,
                                  outcome_from_json, outcome_to_json)
from repro.sim.kernel import Simulator
from repro.sim.topology import build_star
from repro.streams.generator import RateChangeGenerator
from repro.wire.codec import MessageCodec, decode_batch, encode_batch

from e2ebench.workloads.base import BenchWorkload

Samples = dict[str, list[float]]

#: Events a throughput-style probe pushes through per sample.
PROBE_EVENTS = 200_000
#: Slots per EPOCH header when the traced round gives no count.
DEFAULT_SLOTS = 8
MAX_SLOTS = 2_000


def sample(fn: Callable[..., object], budget_s: float,
           min_reps: int = 3, max_reps: int = 50,
           prepare: Callable[[], object] | None = None) -> list[float]:
    """Seconds per call of ``fn``: at least ``min_reps`` samples, more
    while ``budget_s`` lasts.  ``prepare`` runs un-timed before each
    call and its result is passed to ``fn``."""
    out: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(out) < min_reps or (len(out) < max_reps
                                  and time.perf_counter() < deadline):
        args = () if prepare is None else (prepare(),)
        start = time.perf_counter()
        fn(*args)
        out.append(time.perf_counter() - start)
    return out


def _batches(wl: BenchWorkload, limit: int = PROBE_EVENTS):
    """Stream 0 cut the way the feeder cuts it for this workload."""
    stream = wl.workload.streams[0]
    n = min(limit, len(stream))
    size = wl.config().resolved_batch_size()
    return [stream.slice_range(at, min(at + size, n))
            for at in range(0, n, size)], n


def slots_per_frame(counts: dict[str, float]) -> int:
    """Kernel events per EPOCH frame of the traced round (each event
    the coordinator pops becomes one slot of one outgoing frame)."""
    sent = counts.get("serve.framing.frames", 0.0) / 2
    if not sent:
        return DEFAULT_SLOTS
    return max(1, min(MAX_SLOTS, round(
        counts.get("sim.kernel.events", 0.0) / sent)))


# -- set-up layers -----------------------------------------------------------

def setup(wl: BenchWorkload, budget_s: float, tmp: Path,
          counts: dict[str, float]) -> Samples:
    config = wl.config()
    n = min(PROBE_EVENTS, len(wl.workload.streams[0]))

    def generate() -> None:
        RateChangeGenerator(config.rate_per_node, config.rate_change,
                            epoch_seconds=config.epoch_seconds,
                            seed=wl.seed).generate(n)

    path = tmp / "probe.wlm"
    third = budget_s / 3
    gen = sample(generate, third)
    spill = sample(lambda: save_workload_mmap(path, wl.workload), third)
    load = sample(lambda: load_workload_mmap(path), third)
    return {"streams.generate_eps": [n / s for s in gen],
            "core.workload.spill_s": spill,
            "core.workload.mmap_load_s": load,
            "core.workload.bytes": [float(path.stat().st_size)]}


# -- aggregation layers ------------------------------------------------------

def aggregates(wl: BenchWorkload, budget_s: float, tmp: Path,
               counts: dict[str, float]) -> Samples:
    fn = get_aggregate(wl.config().aggregate)
    stream = wl.workload.streams[0]
    chunk = 512
    n_chunks = min(PROBE_EVENTS, len(stream)) // chunk
    block = stream.slice_range(0, n_chunks * chunk)
    starts = [i * chunk for i in range(n_chunks)]
    ends = [s + chunk for s in starts]
    times = sample(lambda: fn.lift_ranges(block, starts, ends),
                   budget_s)
    return {"aggregates.lift_ranges_eps":
            [len(block) / s for s in times]}


def agg_index(wl: BenchWorkload, budget_s: float, tmp: Path,
              counts: dict[str, float]) -> Samples:
    config = wl.config()
    fn = get_aggregate(config.aggregate)
    batches, n = _batches(wl)
    filled: list[PositionBuffer] = []

    def extend() -> None:
        buf = PositionBuffer(0, fn)
        for batch in batches:
            buf.append(batch)
        filled[:] = [buf]

    extend_s = sample(extend, budget_s / 2)
    buf = filled[0]
    span = min(n, max(1, config.window_size // config.n_nodes))
    starts = range(0, n - span + 1, max(1, (n - span) // 64))

    def lift() -> None:
        for start in starts:
            buf.lift_range(start, start + span)

    lift_s = sample(lift, budget_s / 2)
    return {"core.agg_index.extend_eps": [n / s for s in extend_s],
            "core.agg_index.lift_range_us":
                [1e6 * s / len(starts) for s in lift_s]}


def buffers(wl: BenchWorkload, budget_s: float, tmp: Path,
            counts: dict[str, float]) -> Samples:
    config = wl.config()
    batches, n = _batches(wl)
    span = max(1, config.window_size // config.n_nodes)

    def churn() -> None:
        buf = PositionBuffer(0)
        for batch in batches:
            buf.append(batch)
            if buf.retained >= 2 * span:
                buf.release_before(buf.end - span)

    times = sample(churn, budget_s)
    return {"core.buffers.append_release_eps": [n / s for s in times]}


def multiquery(wl: BenchWorkload, budget_s: float, tmp: Path,
               counts: dict[str, float]) -> Samples:
    """The engine alone at this workload's N, fed feeder-sized
    batches (admission is set-up, only the feed is timed)."""
    stream = local_name(0)
    batches, n = _batches(wl, limit=PROBE_EVENTS // 2)

    def admitted() -> MultiQueryEngine:
        engine = MultiQueryEngine()
        for spec in wl.specs:
            engine.admit(stream, spec, at=0)
        return engine

    def feed(engine: MultiQueryEngine) -> None:
        for batch in batches:
            engine.append(stream, batch)

    times = sample(feed, budget_s, min_reps=2, max_reps=20,
                   prepare=admitted)
    return {"core.multiquery.append_eps": [n / s for s in times]}


# -- wire and serve layers ---------------------------------------------------

def wire(wl: BenchWorkload, budget_s: float, tmp: Path,
         counts: dict[str, float]) -> Samples:
    batch = _batches(wl)[0][0]
    codec = MessageCodec(WireFormat.BINARY)
    msg = RawEvents(sender=local_name(0), window_index=0, events=batch,
                    start=0)
    frame, bare = codec.encode_message(msg), encode_batch(batch)
    mbytes = (len(frame) + len(bare)) / 1e6
    reps = 200

    def encode() -> None:
        for _ in range(reps):
            codec.encode_message(msg)
            encode_batch(batch)

    def decode() -> None:
        for _ in range(reps):
            codec.decode_message(frame)
            decode_batch(bare)

    return {"wire.encode_mbps": [reps * mbytes / s
                                 for s in sample(encode, budget_s / 2)],
            "wire.decode_mbps": [reps * mbytes / s
                                 for s in sample(decode, budget_s / 2)]}


def _epoch_header(n_slots: int) -> dict[str, object]:
    return {"h": 1.0001, "e": 7, "slots": [
        ["run", 1.0 + 1e-7 * i, 0, [local_name(0)], i]
        for i in range(n_slots)]}


def framing_probe(wl: BenchWorkload, budget_s: float, tmp: Path,
                  counts: dict[str, float]) -> Samples:
    header = _epoch_header(slots_per_frame(counts))
    reps = 50

    def encode() -> None:
        for _ in range(reps):
            framing.encode_frame(framing.EPOCH, header)

    left, right = socket.socketpair()
    try:
        def roundtrip() -> None:
            for _ in range(reps):
                framing.send_frame(left, framing.EPOCH, header)
                framing.recv_frame(right)

        return {"serve.framing.encode_us":
                [1e6 * s / reps for s in sample(encode, budget_s / 2)],
                "serve.framing.roundtrip_us":
                [1e6 * s / reps
                 for s in sample(roundtrip, budget_s / 2)]}
    finally:
        left.close()
        right.close()


def protocol(wl: BenchWorkload, budget_s: float, tmp: Path,
             counts: dict[str, float]) -> Samples:
    config = wl.config()
    outcome = WindowOutcome(
        index=17, result=12345.678901, emit_time=1.234567,
        spans={a: (40_000 + a, 44_000 + a)
               for a in range(config.n_nodes)},
        up_flows=2, down_flows=1)
    reps = 200

    def outcome_json() -> None:
        for _ in range(reps):
            outcome_from_json(json.loads(json.dumps(
                outcome_to_json(outcome), separators=(",", ":"))))

    def config_json() -> None:
        for _ in range(reps):
            config_from_json(json.loads(json.dumps(
                config_to_json(config))))

    return {"serve.protocol.outcome_json_us":
            [1e6 * s / reps for s in sample(outcome_json, budget_s / 2)],
            "serve.protocol.config_json_us":
            [1e6 * s / reps for s in sample(config_json, budget_s / 2)]}


def merge(wl: BenchWorkload, budget_s: float, tmp: Path,
          counts: dict[str, float]) -> Samples:
    """``EpochMerge.pop_next`` over one queue per node, each as long as
    a frame of the traced round, keys interleaved the way kernel pop
    order interleaves them."""
    names = [ROOT_NAME] + [local_name(i)
                           for i in range(wl.config().n_nodes)]
    per_node = slots_per_frame(counts)
    keys = {name: [slot_key(1.0 + 1e-7 * (i * len(names) + k), 0,
                            (name,), i * len(names) + k)
                   for i in range(per_node)]
            for k, name in enumerate(names)}
    order = {name: i for i, name in enumerate(names)}
    total = per_node * len(names)

    def drain() -> None:
        epoch = EpochMerge(2.0, order, keys)
        queues = {name: deque({"ref": ["slot", i], "ops": [], "c": []}
                              for i in range(per_node))
                  for name in names}
        while epoch.pop_next(queues) is not None:
            pass

    return {"serve.merge.pop_us":
            [1e6 * s / total for s in sample(drain, budget_s)]}


# -- simulator layers --------------------------------------------------------

def kernel(wl: BenchWorkload, budget_s: float, tmp: Path,
           counts: dict[str, float]) -> Samples:
    n = 20_000

    def noop() -> None:
        pass

    def run() -> None:
        sim = Simulator()
        for i in range(n):
            sim.schedule_at(1e-6 * i, noop)
        sim.run()

    return {"sim.kernel.events_per_s":
            [n / s for s in sample(run, budget_s)]}


def network(wl: BenchWorkload, budget_s: float, tmp: Path,
            counts: dict[str, float]) -> Samples:
    """``Network.send`` of a scalar-only control message through the
    codec and the NIC reservations (payload coding is ``wire``'s)."""
    n = 2_000
    msg = WindowAssignment(sender=ROOT_NAME, window_index=3, epoch=0,
                           predicted_size=4_000, delta=4)

    def run() -> None:
        topo = build_star(wl.config().n_nodes,
                          make_sizer(WireFormat.BINARY))
        topo.network.codec = MessageCodec(WireFormat.BINARY)
        dst = local_name(0)
        for _ in range(n):
            topo.network.send(ROOT_NAME, dst, msg)

    return {"sim.network.send_us":
            [1e6 * s / n for s in sample(run, budget_s)]}


PROBES: dict[str, Callable[..., Samples]] = {
    "setup": setup, "aggregates": aggregates, "agg_index": agg_index,
    "buffers": buffers, "multiquery": multiquery, "wire": wire,
    "framing": framing_probe, "protocol": protocol, "merge": merge,
    "kernel": kernel, "network": network}
