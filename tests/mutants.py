"""Deliberately broken copies of production code, and the inputs that
make their defects visible.

A mutant is a copy of one production function with one defect; a test
installs it with ``monkeypatch.setattr`` and asserts that a checker
catches it, so the checkers are checked without any test-only mode in
``src/``.
"""

from repro.analysis.explore import _InProcessTransport
from repro.core.runner import RunConfig
from repro.obs.tracer import RunTracer
from repro.serve.coordinator import Coordinator


def drop_phase_pop_next(self, queues):
    """``EpochMerge.pop_next`` comparing ``(time, rank, class, tie)``:
    the canonical key without its phase.

    The keys it reports stay the canonical ones, so the model checker
    and the happens-before analyzer both see the inversions.
    """
    best = best_key = best_cmp = None
    for name, queue in queues.items():
        if not queue:
            continue
        key = self.head_key(name, queue[0])
        cmp = (key[0], *key[2:])
        if best_cmp is None or cmp < best_cmp:
            best, best_key, best_cmp = name, key, cmp
    if best is None:
        return None
    return best, queues[best].popleft(), best_key


def phase_inversion_trace(config: RunConfig) -> RunTracer:
    """One traced production merge of a hand-built epoch in which only
    the phase orders two workers' batches.

    On a real run phase never decides the merge: deliveries and source
    feeds have only node-local effects, so every shipped batch is a
    ``PHASE_PROTOCOL`` timer.  Here root's batch sorts first by rank
    and local-0's by phase, so a merge that drops the phase applies
    them out of canonical order, and the trace shows it.
    """
    tracer = RunTracer()
    coord = Coordinator(config, _InProcessTransport({}), tracer)
    root, local = coord.node_names[:2]
    coord._merge_epoch({
        root: ([{"ref": ["timer", 0], "k": [1.0, 1, ["a"]],
                 "ops": []}], b""),
        local: ([{"ref": ["timer", 0], "k": [1.0, 0, ["b"]],
                  "ops": []}], b"")}, 2.0)
    return tracer
