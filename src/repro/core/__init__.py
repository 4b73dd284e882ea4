"""Deco core: schemes, prediction, verification, and the runner."""

from repro.core.context import SchemeContext
from repro.core.deco_async import DecoAsyncLocal, DecoAsyncRoot
from repro.core.deco_mon import DecoMonLocal, DecoMonRoot
from repro.core.deco_monlocal import (DecoMonLocalPeerLocal,
                                      DecoMonLocalPeerRoot)
from repro.core.deco_sync import DecoSyncLocal, DecoSyncRoot
from repro.core.prediction import (DeltaSmoother, LastValuePredictor,
                                   LinearTrendPredictor,
                                   MovingAveragePredictor, PREDICTORS)
from repro.core.query import Query, tumbling_count_query
from repro.core.records import RunResult, WindowOutcome
from repro.core.runner import (RunConfig, SchemeSpec, available_schemes,
                               get_scheme, register_scheme, run_scheme)
from repro.core.slicing import (async_layout, mon_local_sizes,
                                sync_layout)
from repro.core.verification import async_global_check, sync_prediction_ok
from repro.core.workload import Workload, build_workload, \
    generate_workload

register_scheme(SchemeSpec(
    name="deco_mon", root_cls=DecoMonRoot, local_cls=DecoMonLocal))

register_scheme(SchemeSpec(
    name="deco_sync", root_cls=DecoSyncRoot, local_cls=DecoSyncLocal))

register_scheme(SchemeSpec(
    name="deco_async", root_cls=DecoAsyncRoot, local_cls=DecoAsyncLocal))

register_scheme(SchemeSpec(
    name="deco_monlocal", root_cls=DecoMonLocalPeerRoot,
    local_cls=DecoMonLocalPeerLocal, needs_peer_mesh=True))

__all__ = [
    "Query",
    "tumbling_count_query",
    "RunConfig",
    "run_scheme",
    "RunResult",
    "WindowOutcome",
    "Workload",
    "build_workload",
    "generate_workload",
    "SchemeContext",
    "SchemeSpec",
    "register_scheme",
    "get_scheme",
    "available_schemes",
    "DecoMonLocal",
    "DecoMonRoot",
    "DecoSyncLocal",
    "DecoSyncRoot",
    "PREDICTORS",
    "LastValuePredictor",
    "MovingAveragePredictor",
    "LinearTrendPredictor",
    "DeltaSmoother",
    "sync_layout",
    "async_layout",
    "mon_local_sizes",
    "sync_prediction_ok",
    "async_global_check",
]
