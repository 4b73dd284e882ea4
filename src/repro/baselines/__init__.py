"""Comparison baselines: Central, Scotty, Disco, Approx."""

from repro.baselines.approx import ApproxLocal, ApproxRoot
from repro.baselines.central import CentralLocal, CentralRoot
from repro.baselines.disco import (DiscoLocal, DiscoRoot,
                                   single_threaded)
from repro.baselines.scotty import ScottyLocal, ScottyRoot
from repro.core.runner import SchemeSpec, register_scheme
from repro.runtime.serialization import WireFormat

register_scheme(SchemeSpec(
    name="central", root_cls=CentralRoot, local_cls=CentralLocal))

register_scheme(SchemeSpec(
    name="scotty", root_cls=ScottyRoot, local_cls=ScottyLocal))

register_scheme(SchemeSpec(
    name="disco", root_cls=DiscoRoot, local_cls=DiscoLocal,
    fmt=WireFormat.STRING, profile_transform=single_threaded))

register_scheme(SchemeSpec(
    name="approx", root_cls=ApproxRoot, local_cls=ApproxLocal))

__all__ = [
    "CentralLocal", "CentralRoot",
    "ScottyLocal", "ScottyRoot",
    "DiscoLocal", "DiscoRoot", "single_threaded",
    "ApproxLocal", "ApproxRoot",
]
