"""One analysis record per bytecode, shared by everything that reads it.

The fuzzing loop builds a fresh :class:`~repro.evm.machine.Machine` for
every transaction (`chain.Chain.apply`), so any per-instance cache of code
analysis is cold on every transaction of every iteration.  This module
hoists that work to a *process-level* LRU cache keyed on ``sha256(code)``:
one contract's bytecode is scanned exactly once per worker process, no
matter how many Machines, transactions, or campaign iterations execute it.
It is the only per-code cache: the other per-code facts hang off the same
record, so they are derived once per code and evicted with it.

``analyze_code`` returns a :class:`CodeAnalysis` with

* ``jumpdests`` — the valid JUMP/JUMPI targets (immediate bytes skipped);
* ``decoded``  — a per-pc dispatch table: ``decoded[pc]`` is ``None`` for
  undefined bytes (and unreachable immediate positions), else a tuple
  ``(kind, gas, a, b)`` the interpreter loop consumes without any further
  dict probes, ``is_push``/``push_width`` calls, enum constructions, or
  byte slicing:

  ====================  =========================  ======================
  kind                  a                          b
  ====================  =========================  ======================
  ``KIND_PUSH``         immediate value (padded)   next pc
  ``KIND_DUP``          n (1-based)                next pc
  ``KIND_SWAP``         n (1-based)                next pc
  ``KIND_JUMPDEST``     --                         next pc
  ``KIND_JUMP``         --                         --
  ``KIND_JUMPI``        --                         next pc (fallthrough)
  ``KIND_STOP``         --                         --
  ``KIND_SIMPLE``       handler function           next pc
  ====================  =========================  ======================

* ``cfg`` — the :class:`~repro.analysis.cfg.CFG`, built on first use,
  with the linear disassembly it was carved from (``cfg.instructions``):
  the surface, the abstract interpreter, the prefix analyzer, block
  fusion's tier classification and the static-analyzer baselines all
  read this one CFG;
* ``surface`` — the vulnerability surface, filled in by
  :func:`repro.analysis.surface.surface_for`;
* ``programs`` — the fused programs, one per event mask, filled in by
  :func:`repro.evm.fusion.fused_program`.

The dispatch table is decoded eagerly by its own tight loop: every frame
needs it, with block fusion off and with no surface too.

PUSH immediates that run past end-of-code decode as right-zero-padded
values (EVM spec), matching :mod:`repro.analysis.disassembler`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.evm import opcodes
from repro.evm.handlers import SIMPLE_HANDLERS, make_unhandled
from repro.evm.opcodes import Op
from repro.telemetry import metrics as _metrics

#: telemetry mirrors of the hit/miss counters.  analyze_code runs once
#: per *frame* — far too hot for even a no-op instrument call — so the
#: mirrors are filled by a snapshot-time collector from the module's own
#: ``_hits``/``_misses`` ints instead of being incremented per call.
_T_HITS = _metrics.counter("evm.analysis_cache.hits")
_T_MISSES = _metrics.counter("evm.analysis_cache.misses")


def _collect_cache_counters() -> None:
    _T_HITS.set_total(_hits)
    _T_MISSES.set_total(_misses)


_metrics.register_collector(_collect_cache_counters)

#: dispatch-entry kinds, ordered roughly by dynamic frequency.  CALL-family
#: opcodes get their own kind because they recurse into nested frames: the
#: interpreter syncs its local step counter with the machine around them
#: (every other kind runs counter-free).
(KIND_PUSH, KIND_SIMPLE, KIND_DUP, KIND_SWAP,
 KIND_JUMPI, KIND_JUMP, KIND_JUMPDEST, KIND_STOP, KIND_CALL) = range(9)

#: process-level cache bound: far above the distinct codes of any one
#: campaign (contract under test + agents), sized for long-lived workers
#: that fuzz many contracts back to back
CACHE_CAPACITY = 256


class CodeAnalysis:
    """Everything derived from one bytecode (see the module docstring)."""

    __slots__ = ("code", "jumpdests", "decoded", "code_len", "_cfg",
                 "surface", "programs")

    def __init__(self, code: bytes, jumpdests: frozenset,
                 decoded: list) -> None:
        self.code = code
        self.jumpdests = jumpdests
        self.decoded = decoded
        self.code_len = len(code)
        self._cfg = None
        #: the VulnerabilitySurface, once surface_for computed it
        self.surface = None
        #: event mask -> FusedProgram, filled in by fused_program
        self.programs: dict = {}

    @property
    def cfg(self):
        """The CFG of ``code``, built on first use."""
        cfg = self._cfg
        if cfg is None:
            # imported here: the analysis package imports this module
            from repro.analysis.cfg import build_cfg
            cfg = self._cfg = build_cfg(self.code)
        return cfg


_cache: OrderedDict[bytes, CodeAnalysis] = OrderedDict()
#: identity fast path over the sha256 cache: code bytes live in stable
#: objects (``Account.code`` / ``artifact.runtime_code``), so ``id(code)``
#: is a safe memo key *while the entry holds a strong reference to the
#: bytes* (which pins the id).  Skips one sha256 per frame.
_id_memo: dict[int, tuple] = {}
_ID_MEMO_CAPACITY = 64
_hits = 0
_misses = 0


def _analyze(code: bytes) -> CodeAnalysis:
    n = len(code)
    decoded: list = [None] * n
    dests = set()
    info_get = opcodes.OPCODE_INFO.get
    i = 0
    while i < n:
        op = code[i]
        info = info_get(op)
        if info is None:
            # undefined byte: left as None, raises InvalidOpcode if executed
            i += 1
            continue
        gas = info.gas
        if 0x60 <= op <= 0x7F:  # PUSH1..PUSH32
            width = op - 0x5F
            imm = code[i + 1: i + 1 + width]
            if len(imm) < width:
                # EVM spec: immediates past end-of-code read as zero —
                # the value is right-padded, not shrunk
                imm = imm.ljust(width, b"\x00")
            decoded[i] = (KIND_PUSH, gas, int.from_bytes(imm, "big"),
                          i + 1 + width)
            i += 1 + width
            continue
        if 0x80 <= op <= 0x8F:  # DUP1..DUP16
            decoded[i] = (KIND_DUP, gas, op - 0x80 + 1, i + 1)
        elif 0x90 <= op <= 0x9F:  # SWAP1..SWAP16
            decoded[i] = (KIND_SWAP, gas, op - 0x90 + 1, i + 1)
        elif op == Op.JUMPDEST:
            dests.add(i)
            decoded[i] = (KIND_JUMPDEST, gas, 0, i + 1)
        elif op == Op.JUMPI:
            decoded[i] = (KIND_JUMPI, gas, 0, i + 1)
        elif op == Op.JUMP:
            decoded[i] = (KIND_JUMP, gas, 0, 0)
        elif op == Op.STOP:
            decoded[i] = (KIND_STOP, gas, 0, 0)
        elif op == Op.CALL or op == Op.DELEGATECALL:
            decoded[i] = (KIND_CALL, gas, SIMPLE_HANDLERS[op], i + 1)
        else:
            handler = SIMPLE_HANDLERS.get(op)
            if handler is None:
                handler = make_unhandled(op)
            decoded[i] = (KIND_SIMPLE, gas, handler, i + 1)
        i += 1
    return CodeAnalysis(code, frozenset(dests), decoded)


def analyze_code(code: bytes) -> CodeAnalysis:
    """The (cached) analysis for ``code``."""
    global _hits, _misses
    memo = _id_memo.get(id(code))
    if memo is not None and memo[0] is code:
        _hits += 1
        return memo[1]
    key = hashlib.sha256(code).digest()
    entry = _cache.get(key)
    if entry is not None:
        _hits += 1
        _cache.move_to_end(key)
    else:
        _misses += 1
        entry = _analyze(code)
        _cache[key] = entry
        while len(_cache) > CACHE_CAPACITY:
            _cache.popitem(last=False)
    if len(_id_memo) >= _ID_MEMO_CAPACITY:
        _id_memo.clear()
    _id_memo[id(code)] = (code, entry)
    return entry


def cache_stats() -> dict:
    """Hit/miss counters and current size (tests and benches)."""
    return {"hits": _hits, "misses": _misses, "entries": len(_cache)}


def clear_cache() -> None:
    """Drop every record (and the surfaces and fused programs on it) and
    reset the counters."""
    global _hits, _misses
    _cache.clear()
    _id_memo.clear()
    _hits = 0
    _misses = 0
