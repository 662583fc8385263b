"""Control-flow graph over EVM bytecode.

Jump targets are resolved statically when the instruction immediately before
a JUMP/JUMPI is a PUSH (the shape the MiniSol compiler always emits for
intra-procedural control flow).  Function-return JUMPs pop a dynamic address
and get no static successor, which is the conservative choice for the
prefix-reachability analysis.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.analysis.disassembler import Instruction, disassemble
from repro.evm.opcodes import Op

#: opcodes that terminate a basic block
_TERMINATORS = frozenset({
    Op.JUMP, Op.JUMPI, Op.STOP, Op.RETURN, Op.REVERT, Op.INVALID,
    Op.SELFDESTRUCT,
})


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run."""

    start: int
    instructions: list = field(default_factory=list)
    successors: list = field(default_factory=list)  # start pcs

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.pc + last.size

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]


@dataclass
class CFG:
    """Basic blocks keyed by start pc."""

    blocks: dict = field(default_factory=dict)
    #: the linear disassembly the blocks were carved from
    instructions: list = field(default_factory=list, repr=False)
    #: sorted block starts for bisect lookup (rebuilt lazily when the block
    #: map grows — ``build_cfg`` mutates ``blocks`` while carving)
    _starts: list = field(default_factory=list, repr=False)
    #: opcode set -> :meth:`reachable_opcode_sets` result
    _reach: dict = field(default_factory=dict, repr=False)

    def block_at(self, pc: int) -> BasicBlock | None:
        """The block whose instruction range contains ``pc``.

        Blocks partition the instruction stream into disjoint pc ranges, so
        the containing block (if any) is the one with the greatest start
        ``<= pc`` — a single bisect probe.  This sits on the
        prefix-reachability hot path and is called once per probed pc.
        """
        starts = self._starts
        if len(starts) != len(self.blocks):
            starts = self._starts = sorted(self.blocks)
        index = bisect_right(starts, pc) - 1
        if index < 0:
            return None
        block = self.blocks[starts[index]]
        return block if pc < block.end else None

    def reachable_opcode_sets(self, opcodes: frozenset) -> dict:
        """Per block start, the members of ``opcodes`` statically
        reachable from that block (inclusive).

        Equal, block by block, to :meth:`reachable_opcodes_from` at the
        block's start intersected with ``opcodes``, but computed for every
        block at once: one fixpoint that pushes each block's set back
        along its predecessor edges until nothing grows.  Memoized per
        ``opcodes``, so every query after the first is a dict lookup.
        """
        reach = self._reach.get(opcodes)
        if reach is not None:
            return reach
        reach = {start: opcodes.intersection(
                     ins.opcode for ins in block.instructions)
                 for start, block in self.blocks.items()}
        preds: dict[int, list] = {start: [] for start in self.blocks}
        for start, block in self.blocks.items():
            for succ in block.successors:
                if succ in preds:
                    preds[succ].append(start)
        work = list(self.blocks)
        while work:
            start = work.pop()
            here = reach[start]
            for pred in preds[start]:
                if not here <= reach[pred]:
                    reach[pred] = reach[pred] | here
                    work.append(pred)
        self._reach[opcodes] = reach
        return reach

    def reachable_opcodes_from(self, start_pc: int) -> set:
        """All opcodes statically reachable from the block containing
        ``start_pc`` (inclusive): one walk per call, the reference for
        :meth:`reachable_opcode_sets`."""
        origin = self.block_at(start_pc)
        if origin is None:
            return set()
        seen_blocks: set[int] = set()
        opcodes_seen: set[int] = set()
        work = [origin.start]
        while work:
            bpc = work.pop()
            if bpc in seen_blocks:
                continue
            seen_blocks.add(bpc)
            block = self.blocks.get(bpc)
            if block is None:
                continue
            for ins in block.instructions:
                # For the origin block, only count from start_pc onward.
                if bpc == origin.start and ins.pc < start_pc:
                    continue
                opcodes_seen.add(ins.opcode)
            work.extend(block.successors)
        return opcodes_seen


def build_cfg(code: bytes) -> CFG:
    """Build the CFG of ``code`` (the shared, cached one is
    ``repro.evm.analysis.analyze_code(code).cfg``)."""
    instructions = disassemble(code)
    if not instructions:
        return CFG()
    by_pc = {ins.pc: ins for ins in instructions}

    # -- leaders: entry, jump targets, fallthroughs of terminators -----------
    leaders: set[int] = {0}
    prev: Instruction | None = None
    for ins in instructions:
        if ins.opcode == Op.JUMPDEST:
            leaders.add(ins.pc)
        if prev is not None and prev.opcode in _TERMINATORS:
            leaders.add(ins.pc)
        prev = ins

    # -- carve blocks ----------------------------------------------------------
    cfg = CFG(instructions=instructions)
    current: BasicBlock | None = None
    for ins in instructions:
        if ins.pc in leaders or current is None:
            current = BasicBlock(start=ins.pc)
            cfg.blocks[ins.pc] = current
        current.instructions.append(ins)
        if ins.opcode in _TERMINATORS:
            current = None

    # -- edges --------------------------------------------------------------------
    ordered = sorted(cfg.blocks)
    next_block = {pc: ordered[i + 1] for i, pc in enumerate(ordered[:-1])}
    for pc, block in cfg.blocks.items():
        term = block.terminator
        target = _static_target(block)
        if term.opcode == Op.JUMP:
            if target is not None:
                block.successors.append(target)
        elif term.opcode == Op.JUMPI:
            if target is not None:
                block.successors.append(target)
            fall = term.pc + term.size
            if fall in cfg.blocks:
                block.successors.append(fall)
        elif term.opcode in (Op.STOP, Op.RETURN, Op.REVERT, Op.INVALID,
                             Op.SELFDESTRUCT):
            pass
        else:
            # Block ended because the next instruction is a leader.
            fall = next_block.get(pc)
            if fall is not None:
                block.successors.append(fall)
    return cfg


def _static_target(block: BasicBlock) -> int | None:
    """Jump target when the penultimate instruction is a PUSH."""
    if len(block.instructions) < 2:
        return None
    maybe_push = block.instructions[-2]
    if 0x60 <= maybe_push.opcode <= 0x7F:
        return maybe_push.operand
    return None
