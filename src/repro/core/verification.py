"""Verification predicates (Sections 4.2.2-4.2.3).

Deco_sync accepts the prediction for node ``a`` when the actual local
window size satisfies (Eq. 5-6):

    l_{a,Gi} <  l-hat_{a,Gi} + Delta_{a,Gi}
    l_{a,Gi} >= l-hat_{a,Gi} - Delta_{a,Gi}

i.e. the actual window ends inside the shipped buffer and starts no
earlier than the slice.  Deco_async verifies globally on the root
(Eq. 14-15):

    l_global >= l_root,buffer + l_root,slice
    l_global <  l_root,buffer + l_root,slice + l-hat_root,buffer

with the per-node containment conditions those inequalities summarize
checked in :meth:`repro.core.deco_async.DecoAsyncRoot._verify_async`
(the root has the per-node actual sizes, Section 4.3.2).
"""

from __future__ import annotations

from typing import NamedTuple


def sync_prediction_ok(actual: int, predicted: int, delta: int) -> bool:
    """Eq. 5-6 for a single node.

    With ``delta == 0`` the paper's half-open interval is empty, yet an
    exactly-matching prediction is evidently correct (the slice covers
    the whole window); we accept that case, which is what makes the
    steady-rate / zero-buffer regime of Section 4.2.2 workable.
    """
    if delta == 0:
        return actual == predicted
    return predicted - delta <= actual < predicted + delta


class AsyncGlobalCheck(NamedTuple):
    """The three Eq. 14-15 quantities and the verdict."""

    root_slice: int
    prev_root_buffer: int
    current_root_buffer: int
    ok: bool


def async_global_check(global_window: int, root_slice: int,
                       prev_root_buffer: int,
                       current_root_buffer: int) -> AsyncGlobalCheck:
    """Eq. 14-15 on the root's aggregated sizes."""
    lower = prev_root_buffer + root_slice
    upper = lower + current_root_buffer
    ok = lower <= global_window < upper or (
        # Exact coverage with an empty current buffer is still correct:
        # every event of the window is on hand.
        lower == global_window and current_root_buffer == 0)
    return AsyncGlobalCheck(root_slice=root_slice,
                            prev_root_buffer=prev_root_buffer,
                            current_root_buffer=current_root_buffer,
                            ok=ok)
