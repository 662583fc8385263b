"""Per-execution branch feedback in one pass (sFuzz feedback, §IV-B).

:func:`distances_from_trace` is the only walk the campaign makes over an
execution's branch events: it yields both the branch-distance table that
drives seed selection (Algorithm 1) and the per-edge hit counts that the
energy scheduler, the seed's covered edges and its nested hits are
derived from (Algorithm 3).
"""

from __future__ import annotations

from repro.evm.trace import ExecutionTrace

#: distance assigned when a branch was never observed at all
UNSEEN_DISTANCE = 1 << 257


def distances_from_trace(trace: ExecutionTrace,
                         address: int) -> tuple[dict, dict]:
    """Hit counts and minimum distances of the branches run at ``address``.

    Returns ``(hits, distances)``:

    * ``hits`` — ``{(jumpi_pc, taken): count}`` over the events at
      ``address``, in first-seen order;
    * ``distances`` — ``{(address, jumpi_pc, desired_taken): distance}``,
      keyed by the direction each branch did **not** take, holding the
      smallest branch distance its comparison shadow reported, in the
      order each key first got one.  A ``None`` distance (condition not
      produced by a comparison) counts as 1 — flipping a raw boolean is
      one "step" away, matching sFuzz's handling.  Distances of
      :data:`UNSEEN_DISTANCE` or more are not recorded.

    Events at other addresses (contracts the target called into) are
    skipped.  The key
    order of ``distances`` reaches results: the seed selector appends new
    targets in that order and draws from them with ``rng.choice``.
    """
    hits: dict = {}
    best: dict = {}  # (pc, taken) -> smallest distance to its flip
    for event in trace.branches:
        if event.address != address:
            continue
        taken = event.taken
        edge = (event.pc, taken)
        hits[edge] = hits.get(edge, 0) + 1
        dist = event.dist_false if taken else event.dist_true
        if dist is None:
            dist = 1
        if dist < best.get(edge, UNSEEN_DISTANCE):
            best[edge] = dist
    distances = {(address, pc, not taken): dist
                 for (pc, taken), dist in best.items()}
    return hits, distances
