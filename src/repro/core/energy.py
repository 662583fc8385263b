"""Dynamic-adaptive energy adjustment (§IV-C, Algorithm 3).

A pre-fuzz run collects a path; every branch on it receives a weight:

* ``w1`` — its nested score (number of branch instructions on the path
  prefix up to it, Algorithm 3 lines 6–10), and
* ``w2`` — a bonus when the path-prefix analysis shows a vulnerable
  instruction is reachable past the branch (lines 11–15).

During fuzzing, a seed's mutation energy scales with the total weight of the
branches it exercises, so deeply nested and vulnerability-adjacent regions
receive more of the budget.  The scheduler also implements the baselines'
schemes: uniform (sFuzz) and rare-branch revisiting (IR-Fuzz).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.prefix import PrefixAnalyzer
from repro.core import config as cfg
from repro.core.seeds import Seed
from repro.evm.trace import ExecutionTrace

#: extra weight for a branch from which a vulnerable instruction is reachable
VULNERABLE_BONUS = 4.0
#: weight per unit of nested score
NESTED_UNIT = 1.0


@dataclass
class EnergyScheduler:
    """Per-campaign energy bookkeeping."""

    strategy: str
    prefix: PrefixAnalyzer
    base_energy: int = 4
    max_energy: int = 16
    weights: dict = field(default_factory=dict)      # pc -> weight
    hit_counts: dict = field(default_factory=dict)   # (pc, taken) -> hits
    _max_weight: float = 1.0

    # -- pre-fuzz phase (Algorithm 3) -----------------------------------------

    def prefuzz(self, trace: ExecutionTrace, target_address: int) -> None:
        """Initialize branch weights from one instrumented pre-fuzz path."""
        path = [e for e in trace.branches if e.address == target_address]
        nested = self.prefix.nested_scores(path)
        for event in path:
            w1 = NESTED_UNIT * nested.get(event.pc, 1)
            reach = self.prefix.reachability(event.pc)
            w2 = VULNERABLE_BONUS if reach.any_vulnerable else 0.0
            weight = w1 + w2
            if weight > self.weights.get(event.pc, 0.0):
                self.weights[event.pc] = weight
        if self.weights:
            self._max_weight = max(self.weights.values())

    # -- per-execution bookkeeping ------------------------------------------------

    def record(self, hits: dict) -> None:
        """Fold one execution's branch hits into the scheduler.

        ``hits`` is ``{(pc, taken): count}`` over the branches the
        execution ran in the target contract, in first-seen order (the
        ``hits`` half of :func:`~repro.analysis.distance.distances_from_trace`).
        The counts feed the revisit scheme; a pc seen for the first time
        gets a weight of :data:`NESTED_UNIT`, plus :data:`VULNERABLE_BONUS`
        when a vulnerable instruction is reachable past it, so the cost
        scales with the distinct edges, not with the events."""
        counts = self.hit_counts
        weights = self.weights
        for edge, n in hits.items():
            counts[edge] = counts.get(edge, 0) + n
            pc = edge[0]
            if pc not in weights:
                reach = self.prefix.reachability(pc)
                w2 = VULNERABLE_BONUS if reach.any_vulnerable else 0.0
                weights[pc] = NESTED_UNIT + w2
                self._max_weight = max(self._max_weight, weights[pc])

    # -- energy assignment ------------------------------------------------------------

    def energy_for(self, seed: Seed) -> int:
        """Mutation energy for one selected seed."""
        if self.strategy == cfg.ENERGY_UNIFORM:
            return self.base_energy
        if self.strategy == cfg.ENERGY_REVISIT:
            return self._revisit_energy(seed)
        return self._dynamic_energy(seed)

    def _dynamic_energy(self, seed: Seed) -> int:
        touched = {pc for (pc, _taken) in seed.covered_edges}
        if not touched or not self.weights:
            return self.base_energy
        top = max(self.weights.get(pc, 0.0) for pc in touched)
        scale = 1.0 + top / max(self._max_weight, 1.0)
        return min(self.max_energy, max(1, round(self.base_energy * scale)))

    def _revisit_energy(self, seed: Seed) -> int:
        """IR-Fuzz: seeds covering rarely-hit branches get more energy."""
        if not seed.covered_edges:
            return self.base_energy
        rarest = min(self.hit_counts.get(edge, 1)
                     for edge in seed.covered_edges)
        scale = 1.0 + 1.0 / max(rarest, 1)
        return min(self.max_energy, max(1, round(self.base_energy * scale)))

    # -- reporting ---------------------------------------------------------------------

    def weight_of(self, pc: int) -> float:
        return self.weights.get(pc, 0.0)

    # -- checkpoint serialization ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "weights": sorted([pc, w] for pc, w in self.weights.items()),
            "hit_counts": sorted([pc, taken, n] for (pc, taken), n
                                 in self.hit_counts.items()),
            "max_weight": self._max_weight,
        }

    def restore_state(self, data: dict) -> None:
        self.weights = {int(pc): float(w)
                        for pc, w in data.get("weights", ())}
        self.hit_counts = {(int(pc), bool(taken)): int(n)
                           for pc, taken, n in data.get("hit_counts", ())}
        self._max_weight = float(data.get("max_weight", 1.0))
