"""Per-contract vulnerability surface: what can possibly fire, and where.

:func:`compute_surface` combines the linear disassembly with one
abstract-interpretation pass (:mod:`repro.analysis.absint`) into a
:class:`VulnerabilitySurface`:

* **liveness** — which of the nine bug classes can possibly fire in this
  bytecode, with a human-readable proof for every ``dead`` verdict,
* **per-selector storage facts** — read/write/branch-read slot sets per
  external function, the bytecode-level counterpart of the AST dataflow
  (printed by ``repro analyze``),
* **mutation dictionary** — PUSH immediates plus constants the code
  compares against tainted (input-derived) values,
* **candidate pcs** — per bug class, the program points an oracle for that
  class could trigger on (consumed by the energy scheduler's prefix
  analysis).

The soundness contract
----------------------

Liveness verdicts gate oracle pruning, so a wrong ``dead`` verdict is a
lost finding.  Every verdict therefore rests **only on whole-code opcode
absence over the linear disassembly** — never on reachability, constant
propagation, or any other abstract fact.  The EVM decodes instructions
linearly from pc 0 (exactly like :func:`repro.evm.analysis.analyze_code`),
so an opcode byte absent from the linear decode stream can never execute;
absence of CALL really does prove no CallEvent can ever be emitted at this
address.  The one deliberate asymmetry: when DELEGATECALL is present,
foreign code can run under this contract's address, so every verdict except
UD/EF (whose proofs don't depend on what a delegate does) is forced live.

:func:`surface_for` computes a surface once per code, into the code's
:class:`~repro.evm.analysis.CodeAnalysis` record, from the CFG and
linear disassembly that record holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.absint import AbstractFacts, interpret
from repro.analysis.cfg import CFG
from repro.evm.analysis import analyze_code
from repro.evm.opcodes import Op, mnemonic
from repro.telemetry import metrics as _metrics

#: the nine bug-class codes, in oracle-registry order (plain strings so
#: this module never imports the oracle package — oracles import analysis)
BUG_CLASS_CODES = ("BD", "UD", "EF", "IO", "RE", "US", "SE", "TO", "UE")

#: opcodes whose result carries block-environment taint (BD trigger inputs)
_BLOCK_OPS = frozenset({Op.TIMESTAMP, Op.NUMBER, Op.COINBASE,
                        Op.DIFFICULTY, Op.GASLIMIT, Op.BLOCKHASH})
#: opcodes that can move ether out of the contract (EF's escape hatches)
SEND_OPS = frozenset({Op.CALL, Op.DELEGATECALL, Op.SELFDESTRUCT})
#: wrapping-arithmetic opcodes the overflow oracle observes
_ARITH_OPS = frozenset({Op.ADD, Op.SUB, Op.MUL})

#: mutation-dictionary bounds, matching the historical PUSH harvest: skip
#: tiny constants the interesting-value pools already cover, and huge
#: bitmask-like words
_DICT_MIN = 2
_DICT_MAX = 1 << 130


@dataclass(frozen=True)
class SelectorFacts:
    """Bytecode-level dataflow facts for one external function."""

    selector: int
    entry_pc: int
    reads: tuple = ()         # constant slots SLOADed in the body
    writes: tuple = ()        # constant slots SSTOREd in the body
    branch_reads: tuple = ()  # constant slots feeding a JUMPI condition
    self_deps: tuple = ()     # slots with a read-after-write self-dep

    def to_dict(self) -> dict:
        return {"selector": self.selector, "entry_pc": self.entry_pc,
                "reads": list(self.reads), "writes": list(self.writes),
                "branch_reads": list(self.branch_reads),
                "self_deps": list(self.self_deps)}


@dataclass(frozen=True)
class VulnerabilitySurface:
    """Everything the static layer proved or harvested for one bytecode."""

    code_size: int
    instruction_count: int
    #: opcode bytes present in the linear disassembly
    opcodes: frozenset
    #: bug-class codes that can possibly fire, registry order
    live: tuple
    #: bug-class codes proved impossible, registry order
    dead: tuple
    #: dead class code -> opcode-absence proof (human-readable)
    proofs: dict
    #: selector -> :class:`SelectorFacts`
    selectors: dict
    #: merged mutation dictionary (PUSH harvest + compare harvest), sorted
    dictionary_constants: tuple
    #: constants compared against tainted operands, sorted
    compare_constants: tuple
    #: bug-class code -> sorted candidate pcs
    candidate_pcs: dict
    #: CALL-family site facts as dicts, sorted by pc
    calls: tuple
    #: constant storage slots read / written anywhere in the code
    read_slots: tuple
    write_slots: tuple
    #: analysis wall time (diagnostic only — excluded from to_dict so the
    #: serialized report stays deterministic)
    analysis_seconds: float = field(default=0.0, compare=False)

    def dead_set(self) -> frozenset:
        """The proved-impossible classes as a frozenset of codes."""
        return frozenset(self.dead)

    def is_live(self, bug_class) -> bool:
        """Can an oracle for ``bug_class`` (code or enum) possibly fire?"""
        return getattr(bug_class, "value", bug_class) not in self.proofs

    def candidates_for(self, bug_class) -> tuple:
        """Sorted candidate pcs for ``bug_class`` (code or enum)."""
        code = getattr(bug_class, "value", bug_class)
        return self.candidate_pcs.get(code, ())

    def to_dict(self) -> dict:
        """Deterministic wire form (the ``repro analyze --json`` report)."""
        return {
            "code_size": self.code_size,
            "instruction_count": self.instruction_count,
            "opcodes": sorted(mnemonic(op) for op in self.opcodes),
            "live": list(self.live),
            "dead": list(self.dead),
            "proofs": dict(sorted(self.proofs.items())),
            "selectors": {format(sel, "#010x"): facts.to_dict()
                          for sel, facts in sorted(self.selectors.items())},
            "dictionary_constants": list(self.dictionary_constants),
            "compare_constants": list(self.compare_constants),
            "candidate_pcs": {code: list(pcs) for code, pcs
                              in sorted(self.candidate_pcs.items())},
            "calls": [dict(c) for c in self.calls],
            "read_slots": list(self.read_slots),
            "write_slots": list(self.write_slots),
        }


def _liveness_proofs(ops: frozenset) -> dict:
    """Opcode-absence proofs per dead class; see the module docstring."""
    proofs: dict[str, str] = {}
    delegates = Op.DELEGATECALL in ops
    if not delegates:
        proofs["UD"] = "no DELEGATECALL in code"
    sends = sorted(mnemonic(op) for op in (ops & SEND_OPS))
    if sends:
        proofs["EF"] = (f"ether can leave via {'/'.join(sends)} — "
                        "freeze requires a contract with no send opcode")
    if delegates:
        # Foreign code can execute under this address; nothing else is
        # provable from this bytecode alone.
        return proofs
    if Op.CALL not in ops:
        proofs["RE"] = "no CALL in code"
        proofs["UE"] = "no CALL in code"
    if Op.SELFDESTRUCT not in ops:
        proofs["US"] = "no SELFDESTRUCT in code"
    if not ops & _ARITH_OPS:
        proofs["IO"] = "no ADD/SUB/MUL in code"
    if Op.BALANCE not in ops:
        proofs["SE"] = "no BALANCE in code"
    elif Op.EQ not in ops:
        proofs["SE"] = "no EQ in code"
    if Op.ORIGIN not in ops:
        proofs["TO"] = "no ORIGIN in code"
    block_ops = ops & _BLOCK_OPS
    if not block_ops:
        proofs["BD"] = "no block-environment opcode in code"
    elif Op.JUMPI not in ops and Op.CALL not in ops:
        proofs["BD"] = "no JUMPI or CALL to consume a block-tainted value"
    return proofs


def _reachable_block_starts(cfg: CFG, entry_pc: int) -> frozenset:
    """Start pcs of every block statically reachable from ``entry_pc``."""
    origin = cfg.block_at(entry_pc)
    if origin is None:
        return frozenset()
    seen: set[int] = set()
    work = [origin.start]
    while work:
        start = work.pop()
        if start in seen:
            continue
        seen.add(start)
        block = cfg.blocks.get(start)
        if block is not None:
            work.extend(block.successors)
    return frozenset(seen)


def _selector_facts(cfg: CFG, facts: AbstractFacts) -> dict:
    """Aggregate pc-level storage facts into per-selector slot sets."""
    selectors: dict[int, SelectorFacts] = {}
    for selector, entry_pc in facts.selector_entries.items():
        reachable = _reachable_block_starts(cfg, entry_pc)

        def _in_body(pc: int) -> bool:
            block = cfg.block_at(pc)
            return block is not None and block.start in reachable

        reads = {slot for pc, slot in facts.storage_reads.items()
                 if slot is not None and _in_body(pc)}
        writes = {slot for pc, slot in facts.storage_writes.items()
                  if slot is not None and _in_body(pc)}
        branch_reads = {slot for pc, slot in facts.branch_read_slots
                        if _in_body(pc)}
        self_deps = {slot for pc, slot in facts.self_dep_slots
                     if _in_body(pc)}
        selectors[selector] = SelectorFacts(
            selector=selector, entry_pc=entry_pc,
            reads=tuple(sorted(reads)), writes=tuple(sorted(writes)),
            branch_reads=tuple(sorted(branch_reads)),
            self_deps=tuple(sorted(self_deps)))
    return selectors


def compute_surface(code: bytes) -> VulnerabilitySurface:
    """Analyze ``code`` over its record's CFG (use :func:`surface_for`,
    which computes the surface once per code)."""
    started = time.perf_counter()
    cfg = analyze_code(code).cfg
    instructions = cfg.instructions
    ops = frozenset(ins.opcode for ins in instructions)
    facts = interpret(cfg)

    proofs = _liveness_proofs(ops)
    dead = tuple(c for c in BUG_CLASS_CODES if c in proofs)
    live = tuple(c for c in BUG_CLASS_CODES if c not in proofs)

    push_harvest = {ins.operand for ins in instructions
                    if ins.operand is not None and ins.size >= 4
                    and _DICT_MIN < ins.operand < _DICT_MAX}
    compare_harvest = {v for v in facts.compare_constants
                       if _DICT_MIN < v < _DICT_MAX}

    candidate_pcs = {code_: tuple(sorted(pcs))
                     for code_, pcs in sorted(facts.candidates.items())}
    read_slots = {slot for slot in facts.storage_reads.values()
                  if slot is not None}
    write_slots = {slot for slot in facts.storage_writes.values()
                   if slot is not None}

    return VulnerabilitySurface(
        code_size=len(code),
        instruction_count=len(instructions),
        opcodes=ops,
        live=live,
        dead=dead,
        proofs=proofs,
        selectors=_selector_facts(cfg, facts),
        dictionary_constants=tuple(sorted(push_harvest | compare_harvest)),
        compare_constants=tuple(sorted(facts.compare_constants)),
        candidate_pcs=candidate_pcs,
        calls=tuple(fact.to_dict() for _, fact in sorted(facts.calls.items())),
        read_slots=tuple(sorted(read_slots)),
        write_slots=tuple(sorted(write_slots)),
        analysis_seconds=time.perf_counter() - started,
    )


#: surface analysis seconds, summed over the surfaces computed
_seconds = 0.0


def surface_for(code: bytes) -> VulnerabilitySurface:
    """The vulnerability surface of ``code``, computed once into its
    :class:`~repro.evm.analysis.CodeAnalysis` record."""
    global _seconds
    record = analyze_code(code)
    surface = record.surface
    if surface is None:
        surface = record.surface = compute_surface(code)
        _seconds += surface.analysis_seconds
    return surface


#: telemetry mirror, filled at snapshot time from the module total (the
#: collector idiom keeps the disabled path free and matches evm.analysis)
_T_SECONDS = _metrics.gauge("analysis.surface.seconds_total")


def _collect_surface_seconds() -> None:
    _T_SECONDS.set_value(_seconds)


_metrics.register_collector(_collect_surface_seconds)
