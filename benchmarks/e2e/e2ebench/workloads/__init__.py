"""The five named workloads, in reporting order."""

from e2ebench.workloads.base import BenchWorkload
from e2ebench.workloads.multiquery_fanout import MultiqueryFanout
from e2ebench.workloads.serve_paced_deco import ServePacedDeco
from e2ebench.workloads.serve_sat_central import ServeSatCentral
from e2ebench.workloads.serve_sat_deco import ServeSatDeco
from e2ebench.workloads.sim_figures import SimFigures

WORKLOADS: dict[str, type[BenchWorkload]] = {
    cls.NAME: cls
    for cls in (SimFigures, ServeSatDeco, ServeSatCentral,
                ServePacedDeco, MultiqueryFanout)}
