"""Static and hybrid analyses backing the fuzzer.

* :mod:`repro.analysis.disassembler` — bytecode → instruction stream.
* :mod:`repro.analysis.cfg` — basic blocks and edges over the bytecode.
* :mod:`repro.analysis.dataflow` — AST-level state-variable read/write and
  read-after-write analysis (§IV-A of the paper).
* :mod:`repro.analysis.absint` — stack-symbolic abstract interpretation
  over the CFG: a constant/taint lattice harvesting compare constants,
  SLOAD/SSTORE slot resolution, CALL-family sites and per-bug-class
  candidate pcs.
* :mod:`repro.analysis.surface` — the per-contract
  :class:`~repro.analysis.surface.VulnerabilitySurface`: sound
  opcode-absence liveness proofs per bug class (the oracle-pruning gate),
  the mutation dictionary, and report-only fields that ``repro analyze``
  prints.
* :mod:`repro.analysis.prefix` — lightweight path-prefix reachability of
  vulnerable instructions (§IV-C, Algorithm 3 support), fast-pathed by the
  surface's whole-code opcode facts.
* :mod:`repro.analysis.distance` — per-trace branch distances (sFuzz
  feedback).

A code's CFG, linear disassembly and surface are derived once per
process, on its :class:`~repro.evm.analysis.CodeAnalysis` record (the one
per-code cache): ``analyze_code(code).cfg`` and :func:`surface_for`.
:func:`build_cfg` stays the uncached builder, and :func:`compute_surface`
recomputes the surface facts over the record's CFG.

Division of labour between the last two analysis layers: *absint facts are
heuristic guidance* (a missed fact costs throughput), while *surface
liveness verdicts are proofs* (a wrong verdict costs findings) — so
verdicts rest only on whole-code opcode absence over the linear
disassembly, never on abstract interpretation.
"""

from repro.analysis.disassembler import Instruction, disassemble, jumpi_pcs
from repro.analysis.cfg import BasicBlock, CFG, build_cfg
from repro.analysis.dataflow import (
    FunctionDataflow,
    ContractDataflow,
    analyze_contract,
)
from repro.analysis.absint import AbstractFacts, AbsState, interpret
from repro.analysis.surface import (
    VulnerabilitySurface,
    compute_surface,
    surface_for,
)
from repro.analysis.prefix import PrefixAnalyzer

__all__ = [
    "Instruction",
    "disassemble",
    "jumpi_pcs",
    "BasicBlock",
    "CFG",
    "build_cfg",
    "FunctionDataflow",
    "ContractDataflow",
    "analyze_contract",
    "AbstractFacts",
    "AbsState",
    "interpret",
    "VulnerabilitySurface",
    "compute_surface",
    "surface_for",
    "PrefixAnalyzer",
]
