"""Golden digests: every scheme's outcomes, times, bytes and counters.

Every other gate compares two runs, so a refactor that shifts both
sides equally would pass them all.  These digests pin, per scheme and
load shape, ``determinism.TimedFingerprint.hexdigest()``: every window's
result, emission time, spans and flow counts, the run's virtual end
time, its counters, its byte and message totals and every node's busy
time, to the last bit.

A digest changes only together with a CHANGES.md line saying which
paper-visible number moved and why.  Never refresh one to make a
refactor pass: the refactor is wrong.

The workload is built from explicit streams (integer timestamp
arithmetic, small-integer values stored as float64), so neither the RNG
stream nor the summation order of the installed numpy can move a digest.
"""

import hashlib
import json

import numpy as np
import pytest

import repro.baselines  # noqa: F401 -- registers baseline schemes
from repro.analysis.determinism import TimedFingerprint
from repro.core import RunConfig, run_scheme
from repro.core.runner import available_schemes, get_scheme
from repro.core.workload import build_workload
from repro.runtime import ROOT_NAME, local_name
from repro.runtime.driver import build_run, run_simulation
from repro.obs.tracer import RunTracer
from repro.sim import MessageFaultInjector
from repro.streams.batch import EventBatch

N_NODES = 3
WINDOW_SIZE = 3_000
N_WINDOWS = 14


def stepped_stream(node, segments):
    """``segments`` is ``[(n_events, gap_ticks), ...]``: a piecewise
    constant rate.  Gaps are multiples of 10 and node ``a`` is offset by
    ``a`` ticks, so no two nodes ever share a timestamp."""
    gaps = np.concatenate([np.full(n, gap, dtype=np.int64)
                           for n, gap in segments])
    ts = np.cumsum(gaps) + node
    i = np.arange(len(ts), dtype=np.int64)
    values = ((i * (node + 3)) % 7 + 1).astype(np.float64)
    return EventBatch(i, values, ts)


#: Added to every value of the wide workload: each node's window sum
#: stays below 2**53, so every lift is exact whatever order numpy sums
#: in, while a window's total passes it, so the order the root combines
#: per-node partials in shows in the result bits.
WIDE_OFFSET = 5e12


def golden_workload(offset=0.0):
    """Three nodes, two rate steps each, large enough (2.5x and more)
    that both predicting schemes mispredict."""
    streams = [
        stepped_stream(0, [(6_000, 100), (7_000, 40), (9_000, 250)]),
        stepped_stream(1, [(9_000, 100), (4_000, 300), (12_000, 60)]),
        stepped_stream(2, [(22_000, 100)]),
    ]
    if offset:
        streams = [EventBatch(b.ids, b.values + offset, b.ts)
                   for b in streams]
    return build_workload(streams, WINDOW_SIZE, N_WINDOWS)


def golden_config(scheme, saturated, **overrides):
    return RunConfig(scheme=scheme, n_nodes=N_NODES,
                     window_size=WINDOW_SIZE, n_windows=N_WINDOWS,
                     saturated=saturated, delta_m=2, min_delta=2,
                     **overrides)


#: Taken at the parent of the PR that made Deco_async extend the shared
#: Deco_sync rounds; (scheme, "saturated" | "paced") -> digest.
GOLDEN = {
    ("central", "saturated"):
        "8f5beced869e3471471662a422a008f6642d9f995f890ad0c9366fd15b7b8010",
    ("central", "paced"):
        "b3326acc7947dd240eab1f2386bd3c9bd610df7e1700ccfefcc6ff3e069acaee",
    ("scotty", "saturated"):
        "638f57879565f23845be141e9387c1a1db2348173ab948c4981e5294a57e7cb6",
    ("scotty", "paced"):
        "22c509834cd9ba0ebafd0dac4b3f220544816bc3b944de8038a18d91ab55e900",
    ("disco", "saturated"):
        "c1b39b7ee99de7b30e9aa5d2a2dc5903adeac1c1cae1deb7b04f098445087dd4",
    ("disco", "paced"):
        "218d7d313255ed9c5d3e15cecc9abf6d1e47f1751b873387eb98c355f5db98f7",
    ("approx", "saturated"):
        "ccac88b467755980d7e9cd590438cba224c201b9c0e94b04d00cd84298cbd894",
    ("approx", "paced"):
        "b1c263e1930705c8b267de5b2ca308e466f1bbbfaccf77b173d9b0e1c566ff0e",
    ("deco_mon", "saturated"):
        "2b2c5c7dae91d0d8360e833e0f2f09c1d95d46d24692a6cd9035bcf3d044194d",
    ("deco_mon", "paced"):
        "0a4f03df6718a53ecd83c4a205173efe19dc82673bf517cf421fe2eacb8102e8",
    ("deco_monlocal", "saturated"):
        "23bf1adcaf1ddd3bbdef89605a8844ad3db26b32fc4b3c4d5c66c3e051cf9a23",
    ("deco_monlocal", "paced"):
        "672a229612471940ce06353d8d1097cc2e3692cf35466d9aff6a4735de0bbb7b",
    ("deco_sync", "saturated"):
        "90f1d2d8b87ea1f8c17f743e3a60407be5c673e72fe2ca158e081af56fbbee0b",
    ("deco_sync", "paced"):
        "e48f2a4a39a3cf67c75e1c3efd4908865c22c24845320c76ae4862ee37ba5375",
    ("deco_async", "saturated"):
        "8e2f407d1587b9ec67df18aa3410c4dd2c9a648664f48002945d8f62ef98d4fd",
    ("deco_async", "paced"):
        "e4a34103948fb10a7685b5b8b4fd874665dae142ebc43701f97340e4532a3601",
}

#: Deco_sync, saturated, under the seeded drop schedule below.
GOLDEN_SYNC_DROPS = (
    "8f7b153ac3df834f8be5c7364f25ba3eeb86ddae443d5ca0ba2e20df6c83028b")


#: The predicting schemes on ``golden_workload(WIDE_OFFSET)``: pins the
#: node order in which the root combines reports, which integer sums
#: below 2**53 cannot see.
GOLDEN_WIDE = {
    ("deco_sync", "saturated"):
        "21326c7576da76ec9af9bdd949805ee508f4cd66f71984457ff4e88017444c85",
    ("deco_sync", "paced"):
        "6de9b963ce51ff88e1eb416d382f2b2a611d8bca075121427da17d20bb236935",
    ("deco_async", "saturated"):
        "fa66f09e470c25976d8092388c839c1d241bf3877053be453c94769eb39ddf39",
    ("deco_async", "paced"):
        "7921eb82a3a85c2cc1f9b9e0d10d08741f638f6fa3df5412d6fa17998d402624",
}


#: SHA-256 over a traced run's whole event stream (see
#: :func:`trace_digest`), taken before the simulator's wire round trip
#: moved from send time to handle time.  Pins what the fingerprints do
#: not see: every trace label, including each CPU span's message class.
GOLDEN_TRACE = {
    ("central", "saturated"):
        "12ba8c166257dc00603b9f19ed9b680ffb5e28a2af67b57bd0d36e2717d0d58b",
    ("deco_async", "saturated"):
        "2c154b3267079bb9e2a68489625f33a092ca5c6a6a5f058dbc9907283e524243",
}


def trace_digest(tracer):
    """SHA-256 over every event's kind, time, node, duration and data,
    in recording order (floats by their exact repr)."""
    digest = hashlib.sha256()
    for event in tracer.events:
        digest.update(json.dumps(
            [event.kind, event.time, event.node, event.dur, event.data],
            sort_keys=True).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def workload():
    return golden_workload()


def test_every_shipped_scheme_has_a_digest():
    # Other tests register throwaway schemes; those live outside repro.
    shipped = [name for name in available_schemes()
               if get_scheme(name).root_cls.__module__.startswith("repro.")]
    assert sorted({scheme for scheme, _ in GOLDEN}) == sorted(shipped)


@pytest.mark.parametrize("scheme,load", sorted(GOLDEN))
def test_golden_digest(workload, scheme, load):
    result, _ = run_scheme(golden_config(scheme, load == "saturated"),
                           workload)
    if scheme in ("deco_sync", "deco_async"):
        # The rate steps must exercise the correction round.
        assert result.correction_steps >= 1
    assert (TimedFingerprint.of(result).hexdigest()
            == GOLDEN[scheme, load])


def sync_drops_run(workload):
    """Deco_sync, saturated, with every root<->local message dropped
    at probability 0.2 (seed 5); returns (result, injector)."""
    config = golden_config("deco_sync", True, retransmit_timeout_s=0.02)
    topo, ctx = build_run(config, workload)
    pairs = {(ROOT_NAME, local_name(a)) for a in range(N_NODES)}
    pairs |= {(local_name(a), ROOT_NAME) for a in range(N_NODES)}
    injector = MessageFaultInjector(topo, drop_probability=0.2,
                                    pairs=pairs, seed=5)
    return run_simulation(topo, ctx, config.resolved_batch_size(),
                          config.saturated), injector


def test_sync_retransmit_path_digest(workload):
    """Section 4.3.4 under a seeded drop schedule: the timeout,
    duplicate-assignment and rebroadcast paths are pinned too."""
    result, injector = sync_drops_run(workload)
    assert result.n_windows == N_WINDOWS
    assert injector.stats.dropped > 0
    assert result.retransmissions > 0
    assert result.correction_steps >= 1
    assert TimedFingerprint.of(result).hexdigest() == GOLDEN_SYNC_DROPS


@pytest.mark.parametrize("load", ["saturated", "paced"])
def test_async_does_not_inherit_sync_timers(workload, load):
    """Deco_async extends the rounds it shares with Deco_sync but not
    Section 4.3.4's timers: a retransmit timeout on a reliable fabric
    arms nothing and moves no number."""
    result, _ = run_scheme(
        golden_config("deco_async", load == "saturated",
                      retransmit_timeout_s=0.02), workload)
    assert result.retransmissions == 0
    assert (TimedFingerprint.of(result).hexdigest()
            == GOLDEN["deco_async", load])


def test_wide_workload_lifts_are_exact():
    wide = golden_workload(WIDE_OFFSET)
    per_node = np.diff(wide.bounds, axis=0)
    top = max(float(np.max(s.values)) for s in wide.streams)
    assert int(per_node.max()) * top < 2**53
    assert WINDOW_SIZE * WIDE_OFFSET > 2**53


@pytest.mark.parametrize("scheme,load", sorted(GOLDEN_WIDE))
def test_golden_wide_digest(scheme, load):
    result, _ = run_scheme(golden_config(scheme, load == "saturated"),
                           golden_workload(WIDE_OFFSET))
    assert (TimedFingerprint.of(result).hexdigest()
            == GOLDEN_WIDE[scheme, load])


@pytest.mark.parametrize("scheme,load", sorted(GOLDEN_TRACE))
def test_golden_trace(workload, scheme, load):
    tracer = RunTracer()
    run_scheme(golden_config(scheme, load == "saturated"), workload,
               tracer=tracer)
    assert trace_digest(tracer) == GOLDEN_TRACE[scheme, load]
