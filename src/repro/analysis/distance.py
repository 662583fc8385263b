"""Per-trace branch distances (sFuzz feedback, §IV-B)."""

from __future__ import annotations

from repro.evm.trace import ExecutionTrace

#: distance assigned when a branch was never observed at all
UNSEEN_DISTANCE = 1 << 257


def distances_from_trace(trace: ExecutionTrace) -> dict:
    """Minimum observed distance to each *uncovered* branch direction.

    Returns ``{(address, jumpi_pc, desired_taken): distance}`` for every
    branch the trace executed, keyed by the direction it did **not** take,
    with the branch-distance the comparison shadow reported.  A ``None``
    distance (condition not produced by a comparison) maps to 1 — flipping a
    raw boolean is one "step" away, matching sFuzz's handling.
    """
    out: dict = {}
    for event in trace.branches:
        desired = not event.taken
        dist = event.distance_to_flip
        if dist is None:
            dist = 1
        key = (event.address, event.pc, desired)
        if dist < out.get(key, UNSEEN_DISTANCE):
            out[key] = dist
    return out

