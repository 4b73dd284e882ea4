"""Network utilization metrics (Fig. 8, Fig. 10b, Fig. 11b).

The paper reports aggregate bytes moved between nodes ("we compute the
sustainable network utilization of every single node in each system and
then aggregate them") and the relative saving of Deco versus the
centralized baselines (up to 99%).
"""

from __future__ import annotations

from repro.core.records import RunResult
from repro.errors import ConfigurationError


def network_saving(result: RunResult, baseline: RunResult) -> float:
    """Fraction of the baseline's network cost avoided (0..1).

    ``network_saving(deco_async, central)`` reproduces the headline
    "reduces network traffic by up to 99%".
    """
    if baseline.total_bytes == 0:
        raise ConfigurationError("baseline moved no bytes")
    return 1.0 - result.total_bytes / baseline.total_bytes

