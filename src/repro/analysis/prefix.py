"""Lightweight path-prefix analysis (§IV-C, Algorithm 3 support).

The dynamic-energy scheduler needs two facts about each branch on an
exercised path:

1. its *nested score* — how many branch instructions precede it on the path
   prefix (Algorithm 3, lines 6–10), and
2. whether a *vulnerable instruction* (``CALL``, ``DELEGATECALL``,
   ``TIMESTAMP``, ``SELFDESTRUCT``, ...) is reachable from the branch
   (lines 11–15), computed here as static forward reachability over the CFG
   from either successor of the JUMPI — the "lightweight abstract
   interpreter" of the paper, without a full symbolic store.  The first
   query computes every block's reachable set in one fixpoint
   (:meth:`~repro.analysis.cfg.CFG.reachable_opcode_sets`); later queries
   are lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import CFG
from repro.evm.analysis import analyze_code
from repro.evm.opcodes import Op

#: Instructions the paper treats as potentially vulnerable (§IV-C mentions
#: call.value and block.timestamp; we include every opcode an oracle keys on).
VULNERABLE_OPCODES = frozenset({
    Op.CALL, Op.DELEGATECALL, Op.SELFDESTRUCT,
    Op.TIMESTAMP, Op.NUMBER, Op.BALANCE, Op.ORIGIN,
})


@dataclass(frozen=True)
class BranchReachability:
    """Which vulnerable opcodes each JUMPI direction can reach."""

    taken: frozenset
    fallthrough: frozenset

    @property
    def any_vulnerable(self) -> bool:
        return bool(self.taken or self.fallthrough)


_NO_REACH = BranchReachability(taken=frozenset(), fallthrough=frozenset())


class PrefixAnalyzer:
    """Per-contract cache of CFG reachability used by the energy scheduler.

    The analyzer reads the CFG of ``runtime_code``'s
    :class:`~repro.evm.analysis.CodeAnalysis` record, so every campaign
    over one code shares that CFG and the reachability fixpoint memoized
    on it.  When a :class:`~repro.analysis.surface.VulnerabilitySurface`
    is supplied, two of its whole-code facts also short-circuit the
    per-branch work: if no vulnerable opcode exists anywhere in the code,
    every reachability query is the empty set without touching the CFG;
    and per-bug-class candidate pcs become queryable via
    :meth:`candidate_pcs`.
    """

    def __init__(self, runtime_code: bytes, surface=None) -> None:
        self.cfg: CFG = analyze_code(runtime_code).cfg
        self.surface = surface
        self._cache: dict[int, BranchReachability] = {}
        #: whole-code absence proof: reachable ⊆ present, so an empty
        #: intersection here makes every per-branch query pointless
        self._any_vulnerable = (
            surface is None
            or bool(frozenset(surface.opcodes) & VULNERABLE_OPCODES))

    def candidate_pcs(self, bug_class) -> tuple:
        """Surface-derived candidate pcs for ``bug_class`` (empty without
        a surface)."""
        if self.surface is None:
            return ()
        return self.surface.candidates_for(bug_class)

    def reachability(self, jumpi_pc: int) -> BranchReachability:
        """Vulnerable-opcode reachability for the JUMPI at ``jumpi_pc``."""
        if not self._any_vulnerable:
            return _NO_REACH
        cached = self._cache.get(jumpi_pc)
        if cached is not None:
            return cached
        block = self.cfg.block_at(jumpi_pc)
        taken: frozenset = frozenset()
        fallthrough: frozenset = frozenset()
        if block is not None and block.terminator.pc == jumpi_pc:
            succs = block.successors
            # build_cfg appends the static jump target first, fallthrough second
            if len(succs) >= 1:
                taken = self._reachable_from(succs[0])
            if len(succs) >= 2:
                fallthrough = self._reachable_from(succs[1])
        result = BranchReachability(taken=taken, fallthrough=fallthrough)
        self._cache[jumpi_pc] = result
        return result

    def _reachable_from(self, pc: int) -> frozenset:
        reach = self.cfg.reachable_opcode_sets(VULNERABLE_OPCODES).get(pc)
        if reach is None:
            # a static jump target inside a block or past the code: only
            # block starts have a fixpoint entry, so walk from it
            reach = frozenset(self.cfg.reachable_opcodes_from(pc)
                              & VULNERABLE_OPCODES)
        return reach

    def vulnerable_reachable(self, jumpi_pc: int, taken: bool) -> frozenset:
        """Vulnerable opcodes reachable in the ``taken`` direction."""
        reach = self.reachability(jumpi_pc)
        return reach.taken if taken else reach.fallthrough

    def nested_scores(self, branch_path) -> dict:
        """Nested score per branch pc along one exercised path.

        ``branch_path`` is the ordered list of
        :class:`~repro.evm.trace.BranchEvent` from a pre-fuzz run.  The score
        of the i-th branch is the number of branch instructions on its prefix
        (itself included), exactly Algorithm 3's ``nested_score`` counter.
        """
        scores: dict[int, int] = {}
        count = 0
        for event in branch_path:
            count += 1
            # Keep the highest score seen (deepest occurrence on any prefix).
            if scores.get(event.pc, 0) < count:
                scores[event.pc] = count
        return scores
