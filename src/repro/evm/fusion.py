"""Block-fused execution: basic blocks compiled to superinstruction closures.

The table loop in :mod:`repro.evm.machine` still pays a Python-level loop
iteration, step-budget check, gas decrement, and kind dispatch for *every*
opcode.  This module amortizes that overhead across straight-line regions:
it walks the blocks of a bytecode's CFG (the one its
:class:`~repro.evm.analysis.CodeAnalysis` record holds) and compiles each
basic block a frame enters into **one** specialized Python closure:

* per-block gas is precomputed and charged as a single constant
  subtraction (every opcode cost is static except the CALL family, which
  never reaches this tier);
* the step budget is charged once per block, against the block's
  instruction count;
* stack depth is pre-validated once from the block's minimum-depth /
  maximum-growth effect, so no per-instruction underflow/overflow checks
  remain;
* PUSH immediates are baked into the generated source as literals, and
  adjacent PUSH/op pairs are constant-folded with exactly the value
  semantics of :func:`repro.analysis.absint.fold_binary` and exactly the
  shadow semantics of :mod:`repro.evm.handlers`;
* PUSH+JUMP / PUSH+JUMPI resolve to direct next-block links (threaded
  code), and statically known tail transfers **chain** the successor's
  guarded body inline into the same closure (up to
  :data:`FUSION_CHAIN_LIMIT` extra blocks per entry point): hot
  straight-line regions and acyclic diamonds run without re-entering any
  dispatch switch or trampoline — only loop back edges cross it;
* the hottest opcodes (context reads, MSTORE/MLOAD/CALLDATALOAD,
  comparisons, wrapping arithmetic, AND/OR/ISZERO, DUP/SWAP,
  SLOAD/SSTORE) are **open-coded inline** — their handler bodies emitted
  statement for statement into the closure, with compile-time constants
  baked in (see :func:`_emit_inline`) — instead of dispatched.

Closures are specialized per ``(sha256(code), event_mask)``.  Opcodes whose
trace events are *subscribed* in the mask are never folded away (their
event must be emitted); event recording itself is resolved **statically**
against the mask — the machine derives its ``rec_*`` flags from the same
``event_mask`` it compiles programs for, so subscribed events are emitted
unconditionally and unsubscribed ones produce no generated code at all.
Ops without an inline expansion dispatch through the **same per-opcode
handler functions** as the table loop, so trace and rollback semantics
are untouched by construction.  Two tiers:

* **fused** — the generated closure described above (the common case);
* **bailout** — blocks containing a gas-observing opcode (GAS / CALL /
  DELEGATECALL, whose handlers read the running gas counter), an
  undefined byte, or an always-raising opcode (CREATE, unhandled): the
  closure immediately returns the :data:`FUSION_BAILOUT` sentinel and the
  machine runs the block on the plain table loop, with exact
  per-instruction gas and steps (and the exact error, where there is one),
  until the frame reaches the next fused-tier entry.

The table loop and the fused emitter are thus the only two
implementations of per-opcode semantics.  Every CALL and DELEGATECALL
runs on the table loop, so nested frames start only from it: no fused
closure is ever suspended under another frame.

The table loop is **tier 0**, and superblocks compile only once **warm**.
:func:`fused_program` does the cheap whole-program work up front: code
analysis, the CFG, tier classification, the bailout closures, and the
namespace the generated code runs in.  Each fused-tier entry starts as a
stub, both in the program's block map and under its ``B{pc}`` name in
that namespace.  The stub counts its entries in the program's ``heat``
map and declines its first :data:`FUSION_WARMUP` − 1 (returning
:data:`FUSION_BAILOUT` at its own pc, so the table loop runs the block).
Its :data:`FUSION_WARMUP`-th call emits the entry's superblock, compiles
it and execs it into the namespace (rebinding ``B{pc}``), replaces itself
in the block map (and as ``FusedProgram.entry`` for pc 0), and runs the
compiled closure.  The block map holds fused-tier entries only, and the
machine's table loop looks every JUMP target and both JUMPI sides up in
it: a frame on the table loop — declined for warm-up, declined by a
guard, or handed over by a bailout-tier block — returns to the fused tier
at the next block boundary that has an entry (see
:meth:`repro.evm.machine.Machine._run`).  Generated code looks ``B{pc}``
and the block map up at call time, so threaded returns and dynamic jumps
reach compiled closures with no re-linking.

Continuation chaining (fallthrough, threaded JUMP, folded JUMPI) always
splices the successor in, but a *runtime* JUMPI arm is chained only when
its block has already run — compiled, or entered at least
:data:`FUSION_ARM_GATE` times — so an entry's emitted code depends on
which arms ran before it warmed.  An arm that was left out is reached
through the trampoline, warms, and compiles as an entry of its own.  A
campaign warms only a small share of a program's entries, so most
superblocks are never generated, and cold arms are not copied into the
ones that are.

A fused closure may also *decline* at runtime (insufficient gas for the
whole block, step budget nearly exhausted, stack precheck failure, dynamic
jump into code the CFG did not carve).  Declining happens **before any
instruction of the guarded region executes**: guards are merged per
*guard group* (a chain of segments statically guaranteed to execute
together shares one guard and one gas/steps pre-charge at its entry,
while conditionally reached arm chains carry their own), so the
table-loop replay is byte-identical — bailing out is always
semantics-preserving, never an error path.

Block closure protocol::

    block(machine, frame, depth, gas, steps)
        -> (next_block, gas, steps, payload)

``next_block`` is the next closure to run (``payload`` unused), ``None``
for a successful halt (``payload`` is the returndata), or
:data:`FUSION_BAILOUT` (``payload`` is the pc to resume the table loop
from; a cold stub's warm-up decline returns it too).  Exceptional
halts raise :class:`~repro.evm.errors` types exactly like the table loop;
closures sync ``machine._steps`` (and ``machine._sync_gas`` ahead of
REVERT) before any raising operation so the step count and revert gas
refund stay exact.

A program is built once per code and event mask, into the ``programs``
map of the code's :class:`~repro.evm.analysis.CodeAnalysis` record, from
the CFG that record holds.  Keying on the mask means a pool worker
serving campaigns with different oracle subscriptions never reuses a
closure compiled for a different mask.
"""

from __future__ import annotations

import hashlib

from repro import layers
from repro.analysis.absint import fold_binary
from repro.evm.analysis import CodeAnalysis, analyze_code
from repro.evm.errors import InvalidJump
from repro.evm.handlers import (
    CALLDATA_SHADOW,
    CALLER_SHADOW,
    CALLVALUE_SHADOW,
    ORIGIN_SHADOW,
    SIMPLE_HANDLERS,
)
from repro.evm.opcodes import OPCODE_INFO, Op
from repro.evm.stack import STACK_LIMIT
from repro.evm.trace import (
    EMPTY_SHADOW,
    EV_BRANCH,
    EV_COMPARE,
    EV_OVERFLOW,
    EV_STORAGE,
    BranchEvent,
    CompareEvent,
    OverflowEvent,
    Shadow,
    StorageEvent,
    Taint,
    U256_MAX,
    combine_and,
    combine_or,
    comparison_shadow,
    is_call_result_tag,
    merge_taints,
)
from repro.telemetry import metrics as _metrics

WORD = 1 << 256

#: ``REPRO_DISABLE=block_fusion`` turns the tier off process-wide (the
#: library default when a Machine is built without an explicit
#: ``block_fusion`` argument; see :mod:`repro.layers`).  Read once at
#: import: pool workers re-import this module, so the setting reaches
#: every worker.
_DEFAULT_ENABLED = "block_fusion" not in layers.resolve()


def default_enabled() -> bool:
    """Library-level default for ``Machine(block_fusion=None)``."""
    return _DEFAULT_ENABLED


class _BailoutSentinel:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<fusion bailout>"


#: returned as ``next_block`` when a closure declines to run: the machine
#: must resume the table loop at the pc carried in the payload slot
FUSION_BAILOUT = _BailoutSentinel()

#: opcodes that end a basic block (mirror of the CFG's terminator set)
_TERMINATOR_OPS = frozenset({
    Op.JUMP, Op.JUMPI, Op.STOP, Op.RETURN, Op.REVERT, Op.INVALID,
    Op.SELFDESTRUCT,
})

#: the only handlers that read their ``gas`` argument — blocks containing
#: one take the bailout tier, so the table loop runs them with exact
#: per-instruction gas
_GAS_OBSERVING = frozenset({Op.GAS, Op.CALL, Op.DELEGATECALL})

#: comparison opcodes → handler name string (folding mirrors
#: ``handlers._make_comparison`` exactly, including the branch-distance
#: shadow; never folded while EV_COMPARE is subscribed)
_CMP_NAME = {Op.LT: "LT", Op.GT: "GT", Op.SLT: "SLT", Op.SGT: "SGT",
             Op.EQ: "EQ"}

#: wrapping arithmetic: foldable, but not while EV_OVERFLOW is subscribed
#: and the constant result actually truncates (the event must be emitted)
_WRAP_FOLD = frozenset({Op.ADD, Op.SUB, Op.MUL})

#: event-free binaries folded through absint's fold_binary
_PURE_FOLD = frozenset({Op.DIV, Op.MOD, Op.EXP, Op.XOR, Op.SHL, Op.SHR})

TIER_FUSED = "fused"
TIER_BAILOUT = "bailout"

# -- telemetry ----------------------------------------------------------------
#
# Same discipline as evm.analysis / evm.machine: the compile path and the
# bailout path bump plain module ints (or, for fused steps, a list cell
# baked into the generated code), and a snapshot-time collector mirrors
# the totals into the registry's counters.  Programs and tier counts are
# counted when a program is classified; folded/inlined ops, threaded
# jumps, chained blocks and compiled entries as each entry compiles.
# The machine reports every hand-off to the table loop and every return
# from it; cold stubs count their own warm-up declines, which
# ``runtime_bailouts`` leaves out.

_T_PROGRAMS = _metrics.counter("fusion.programs_compiled")
_T_FUSED = _metrics.counter("fusion.blocks.fused")
_T_BAILOUT = _metrics.counter("fusion.blocks.bailout")
_T_FOLDED = _metrics.counter("fusion.folded_ops")
_T_INLINED = _metrics.counter("fusion.inlined_ops")
_T_THREADED = _metrics.counter("fusion.threaded_jumps")
_T_CHAINED = _metrics.counter("fusion.chained_blocks")
_T_ENTRIES = _metrics.counter("fusion.entries_compiled")
_T_FUSED_STEPS = _metrics.counter("fusion.fused_steps")
_T_RT_BAILOUTS = _metrics.counter("fusion.runtime_bailouts")
_T_WARMUP = _metrics.counter("fusion.warmup_declines")
_T_REENTRIES = _metrics.counter("fusion.reentries")
_T_REASONS = {
    "gas_observing": _metrics.counter("fusion.fallback.gas_observing"),
    "raising": _metrics.counter("fusion.fallback.raising"),
    "undefined": _metrics.counter("fusion.fallback.undefined"),
}

_programs = 0
_blocks_fused = 0
_blocks_bailout = 0
_folded_ops = 0
_inlined_ops = 0
_threaded_jumps = 0
_chained_blocks = 0
_entries_compiled = 0
#: every hand-off to the table loop, warm-up declines included
_handoffs = 0
_warmup_declines = 0
_reentries = 0
_fallback_reasons: dict[str, int] = {}
#: fused runtime step count — a list cell so generated code can bump it
#: with one indexed add, no global statement
_FUSED_STEPS = [0]


def _collect_fusion_counters() -> None:
    _T_PROGRAMS.set_total(_programs)
    _T_FUSED.set_total(_blocks_fused)
    _T_BAILOUT.set_total(_blocks_bailout)
    _T_FOLDED.set_total(_folded_ops)
    _T_INLINED.set_total(_inlined_ops)
    _T_THREADED.set_total(_threaded_jumps)
    _T_CHAINED.set_total(_chained_blocks)
    _T_ENTRIES.set_total(_entries_compiled)
    _T_FUSED_STEPS.set_total(_FUSED_STEPS[0])
    _T_RT_BAILOUTS.set_total(_handoffs - _warmup_declines)
    _T_WARMUP.set_total(_warmup_declines)
    _T_REENTRIES.set_total(_reentries)
    for reason, counter in _T_REASONS.items():
        counter.set_total(_fallback_reasons.get(reason, 0))


_metrics.register_collector(_collect_fusion_counters)


def note_handoff() -> None:
    """Called by the machine when a closure or stub hands a frame to the
    table loop."""
    global _handoffs
    _handoffs += 1


def note_reentry() -> None:
    """Called by the machine when the table loop hands a frame back."""
    global _reentries
    _reentries += 1


class FusedProgram:
    """The block map for one ``(code, event_mask)`` pair.

    Everything but the fused superblocks is built when the program is
    created: tiers, the bailout closures, the shared namespace.
    Each fused-tier entry starts as a stub (in ``blocks`` and, as
    ``B{pc}``, in the namespace) that counts its entries in ``heat`` and
    emits, compiles and installs its superblock on the
    :data:`FUSION_WARMUP`-th, replacing itself — and ``entry`` for pc 0 —
    before running the compiled closure.  ``sources`` holds the generated
    source of the entries compiled so far.
    """

    __slots__ = ("entry", "blocks", "tiers", "stats", "sources", "heat",
                 "_compile")

    def __init__(self, entry, blocks: dict, tiers: dict, stats: dict,
                 sources: dict, heat: dict, compile_entry) -> None:
        self.entry = entry          # closure or stub for pc 0, or None
        self.blocks = blocks        # fused-tier start pc -> closure or stub
        self.tiers = tiers          # start pc -> TIER_* string
        self.stats = stats          # compile-time counts (tests)
        self.sources = sources      # start pc -> source, compiled entries
        self.heat = heat            # start pc -> entries while cold
        self._compile = compile_entry

    @property
    def source(self) -> str:
        """Generated source of the compiled entries, in pc order (tests)."""
        return "\n".join(self.sources[pc] for pc in sorted(self.sources))

    def compile_all(self) -> None:
        """Compile every fused entry not compiled yet, chaining every
        runtime JUMPI arm as though each block had run (tests)."""
        for start in self.blocks:
            self.heat[start] = max(self.heat.get(start, 0), FUSION_ARM_GATE)
        for start in list(self.blocks):
            self._compile(start)


# -- classification -----------------------------------------------------------


def _classify(block) -> tuple[str, str | None]:
    """Tier for ``block`` plus the fallback reason (None when fused)."""
    reason = None
    for ins in block.instructions:
        op = ins.opcode
        if 0x60 <= op <= 0x9F:  # PUSH/DUP/SWAP
            continue
        if OPCODE_INFO.get(op) is None:
            return TIER_BAILOUT, "undefined"
        if op in _GAS_OBSERVING:
            reason = "gas_observing"
            continue
        if op == Op.CREATE:
            return TIER_BAILOUT, "raising"
        if op in (Op.JUMPDEST, Op.JUMP, Op.JUMPI, Op.STOP):
            continue
        if SIMPLE_HANDLERS.get(op) is None:
            # defined-but-unimplemented: raises InvalidOpcode when reached
            return TIER_BAILOUT, "raising"
    if reason is not None:
        return TIER_BAILOUT, reason
    return TIER_FUSED, None


def _stack_bounds(instructions) -> tuple[int, int, int]:
    """(min_entry_depth, max_growth, net_effect): the block underflows
    unless the entry stack holds at least ``min_entry_depth`` values,
    overflows unless ``entry_depth + max_growth <= STACK_LIMIT``, and
    exits with ``entry_depth + net_effect`` values.

    Arities come from OPCODE_INFO, whose pops/pushes match the stack's
    own error conditions exactly (DUPn needs n, SWAPn needs n+1, ...).
    The net effect lets guard groups compose bounds across chained
    segments: segment k's requirements are shifted by the accumulated
    net effect of the segments before it.
    """
    h = 0
    low = 0
    high = 0
    for ins in instructions:
        info = OPCODE_INFO[ins.opcode]
        p = info.pops
        q = info.pushes
        if h - p < low:
            low = h - p
        h += q - p
        if q and h > high:
            high = h
    return -low, high, h


# -- constant folding ---------------------------------------------------------


def _taint_shadow(taints: frozenset) -> Shadow:
    """Taint-only shadow, interned for the untainted case (handlers idiom)."""
    return Shadow(taints) if taints else EMPTY_SHADOW


class _Pend:
    """A value logically on top of the runtime stack but not (yet)
    materialized as list traffic: a compile-time constant, a named
    runtime temp bound by an earlier inline op, or a pure expression
    over immutable frame state (context reads).

    ``vexpr``/``sexpr`` are the source expressions that produce the
    value and its shadow; ``vconst``/``sconst`` are their compile-time
    values when known (``None`` otherwise).  ``dup_ok`` marks entries
    that may be duplicated without re-evaluation concerns (constants,
    single-assignment temps, and pure reads of immutable state).
    Entries are immutable, so DUP may alias them."""

    __slots__ = ("vexpr", "sexpr", "vconst", "sconst", "dup_ok")

    def __init__(self, vexpr, sexpr, vconst=None, sconst=None,
                 dup_ok=True):
        self.vexpr = vexpr
        self.sexpr = sexpr
        self.vconst = vconst
        self.sconst = sconst
        self.dup_ok = dup_ok


def _try_fold(op: int, pending: list, mask: int, sname) -> bool:
    """Fold ``op`` over pending compile-time constants, mirroring the
    runtime handler exactly (value *and* shadow).  Returns False when the
    op is not foldable here — the caller tries an inline expansion and
    finally falls back to a handler call.

    Folding needs every operand's value and shadow known at compile time
    (``vconst``/``sconst`` set), and is refused whenever the table loop
    would have emitted a trace event for the operation under ``mask``: a
    folded op executes zero runtime code, so it must be provably
    event-free.  Foldable constants are always untainted (PUSH
    immediates and folds thereof), so ``frame.caller_checked`` can never
    be affected by a folded compare.
    """

    def const(value, shadow) -> _Pend:
        return _Pend(str(value), sname(shadow), value, shadow)

    if op == Op.ISZERO:
        if not pending or pending[-1].vconst is None \
                or pending[-1].sconst is None:
            return False
        x, sx = pending[-1].vconst, pending[-1].sconst
        if sx.dist_true is None:
            sx = comparison_shadow("EQ", x, 0, sx.taints)
        pending[-1] = const(0 if x else 1, sx.negated())
        return True
    if op == Op.NOT:
        if not pending or pending[-1].vconst is None \
                or pending[-1].sconst is None:
            return False
        x, sx = pending[-1].vconst, pending[-1].sconst
        pending[-1] = const(U256_MAX ^ x, _taint_shadow(sx.taints))
        return True
    if len(pending) < 2:
        return False
    if (pending[-1].vconst is None or pending[-1].sconst is None
            or pending[-2].vconst is None or pending[-2].sconst is None):
        return False
    x, sx = pending[-1].vconst, pending[-1].sconst
    y, sy = pending[-2].vconst, pending[-2].sconst
    if op in _WRAP_FOLD:
        if op == Op.ADD:
            raw = x + y
        elif op == Op.SUB:
            raw = x - y
        else:
            raw = x * y
        result = raw % WORD
        if raw != result and mask & EV_OVERFLOW:
            return False  # the truncation event must be recorded at runtime
        del pending[-2:]
        pending.append(const(result, _taint_shadow(merge_taints(sx, sy))))
        return True
    name = _CMP_NAME.get(op)
    if name is not None:
        if mask & EV_COMPARE:
            return False  # the CompareEvent must be recorded at runtime
        shadow = comparison_shadow(name, x, y, merge_taints(sx, sy))
        del pending[-2:]
        pending.append(const(1 if shadow.dist_true == 0 else 0, shadow))
        return True
    if op == Op.AND or op == Op.OR:
        if sx.dist_true is not None and sy.dist_true is not None:
            shadow = (combine_and(sx, sy) if op == Op.AND
                      else combine_or(sx, sy))
        else:
            shadow = _taint_shadow(merge_taints(sx, sy))
        del pending[-2:]
        pending.append(const(x & y if op == Op.AND else x | y, shadow))
        return True
    if op in _PURE_FOLD:
        folded = fold_binary(op, ("const", x), ("const", y))
        if folded[0] != "const":
            return False
        del pending[-2:]
        pending.append(const(folded[1],
                             _taint_shadow(merge_taints(sx, sy))))
        return True
    return False


# -- inline superinstructions -------------------------------------------------

#: context reads held as pending pure expressions: (value expression,
#: shadow name, shadow object).  All read immutable per-frame message
#: state, so they may stay pending across any later op and may be
#: re-evaluated on DUP; the shadow object is compile-time known, which
#: feeds static taint decisions downstream (e.g. a CALLER comparison
#: marks ``caller_checked`` unconditionally)
_CONTEXT_INLINE = {
    Op.CALLER: ("frame.msg.caller", "CALLER_SH", CALLER_SHADOW),
    Op.CALLVALUE: ("frame.msg.value", "CALLVALUE_SH", CALLVALUE_SHADOW),
    Op.ORIGIN: ("frame.msg.origin", "ORIGIN_SH", ORIGIN_SHADOW),
    Op.ADDRESS: ("frame.msg.address", "ES", EMPTY_SHADOW),
    Op.CALLDATASIZE: ("len(frame.msg.data)", "ES", EMPTY_SHADOW),
}

_WRAP_EXPR = {Op.ADD: "{x} + {y}", Op.SUB: "{x} - {y}", Op.MUL: "{x} * {y}"}


def _emit_inline(op, pc, pending, out, sname, bname, flush, mask,
                 tmp) -> bool:
    """Open-code ``op`` directly into the block body, mirroring its
    handler statement for statement.  Returns False when the op has no
    inline expansion (the caller falls back to a handler call).

    The payoff over dispatching to the handler: no call frame, no
    redundant underflow check (the block prologue pre-validated depth),
    and pending compile-time constants become baked literals instead of
    materialized stack traffic.  Inline results are *not* pushed onto
    the value/shadow lists either: each lands in a fresh
    single-assignment local (``q{n}``/``qs{n}`` from the ``tmp``
    counter) and re-enters ``pending`` symbolically, so a value consumed
    by the next inline op (compare feeding JUMPI, arithmetic chains)
    flows through a Python local with zero list traffic.  Only event-
    exact expansions live here — every trace event a handler would emit
    is emitted identically, so this tier stays byte-compatible with the
    table loop.

    Event emission is resolved *statically* against ``mask``: programs
    are specialized per event mask, and the machine derives its
    ``rec_*`` flags from the same ``event_mask`` it compiles programs
    for, so ``m.rec_compare`` (etc.) is a compile-time constant here —
    subscribed events emit unconditionally, unsubscribed ones emit no
    code at all.
    """

    def pop_entry(name, shadow_name) -> _Pend:
        """Top-of-stack operand: the pending entry, or a runtime pop
        bound to ``name``/``shadow_name``."""
        if pending:
            return pending.pop()
        out.append(f"    {name} = values.pop()")
        out.append(f"    {shadow_name} = shadows.pop()")
        return _Pend(name, shadow_name)

    def newtemp() -> tuple:
        """Fresh single-assignment local names for an inline result."""
        n = tmp[0]
        tmp[0] += 1
        return f"q{n}", f"qs{n}"

    def taints_expr(px, py) -> tuple:
        """Expression for the merged operand taints, simplified when a
        side's shadow is compile-time known; returns (expr, const) with
        ``const`` the frozenset when both sides are known."""
        if px.sconst is not None and py.sconst is not None:
            tt = px.sconst.taints | py.sconst.taints
            if not tt:
                return "ES.taints", tt
            return f"{sname(Shadow(tt))}.taints", tt
        if px.sconst is not None and not px.sconst.taints:
            return f"{py.sexpr}.taints", None
        if py.sconst is not None and not py.sconst.taints:
            return f"{px.sexpr}.taints", None
        return f"{px.sexpr}.taints | {py.sexpr}.taints", None

    ctx = _CONTEXT_INLINE.get(op)
    if ctx is not None:
        value, shadow_name, shadow = ctx
        pending.append(_Pend(value, shadow_name, sconst=shadow))
        return True

    if op == Op.MSTORE:
        po = pop_entry("o", "_so")  # offset shadow is discarded
        pv = pop_entry("v", "s")
        if po.vconst is not None:
            # constant offset: the expansion check compares against a
            # literal end and the word write is a direct slice assign —
            # Memory.store_word's statements with the call peeled away
            off = po.vconst
            end = off + 32
            out.append(f"    if {end} > mem._paid:")
            out.append(f"        mem._expand({off}, 32)")
            if pv.vconst is not None:
                out.append(f"    mem.data[{off}:{end}] = "
                           f"{bname(pv.vconst)}")
            else:
                out.append(f"    mem.data[{off}:{end}] = "
                           f'{pv.vexpr}.to_bytes(32, "big")')
            if pv.sconst is not None:
                if pv.sconst.taints or pv.sconst.dist_true is not None:
                    out.append(f"    mem._shadows[{off}] = {pv.sexpr}")
                else:
                    out.append(f"    mem._shadows.pop({off}, None)")
            else:
                out.append(f"    if {pv.sexpr}.taints "
                           f"or {pv.sexpr}.dist_true is not None:")
                out.append(f"        mem._shadows[{off}] = {pv.sexpr}")
                out.append("    else:")
                out.append(f"        mem._shadows.pop({off}, None)")
        else:
            out.append(f"    mem.store_word({po.vexpr}, {pv.vexpr}, "
                       f"{pv.sexpr})")
        return True

    if op == Op.MLOAD:
        po = pop_entry("o", "_s")
        q, qs = newtemp()
        # bound eagerly: memory may be written before the value is used
        out.append(f"    {q}, {qs} = mem.load_word({po.vexpr})")
        pending.append(_Pend(q, qs))
        return True

    if op == Op.CALLDATALOAD:
        po = pop_entry("o", "_s")
        q, _qs = newtemp()
        if po.vconst is not None:
            out.append(f"    w = frame.msg.data"
                       f"[{po.vconst}:{po.vconst + 32}]")
        else:
            out.append(f"    w = frame.msg.data"
                       f"[{po.vexpr}:{po.vexpr} + 32]")
        out.append(f'    {q} = int.from_bytes(w, "big")'
                   " << ((32 - len(w)) << 3)")
        pending.append(_Pend(q, "CDS", sconst=CALLDATA_SHADOW))
        return True

    name = _CMP_NAME.get(op)
    if name is not None:
        px = pop_entry("x", "sx")
        py = pop_entry("y", "sy")
        x, y = px.vexpr, py.vexpr
        q, qs = newtemp()
        texpr, tconst = taints_expr(px, py)
        out.append(f"    t = {texpr}")
        # LT/GT/EQ: branch distances open-coded (comparison_shadow's
        # exact formulas, one predicate evaluation instead of a call).
        # SLT/SGT need the signed conversion — keep the library helper.
        if name == "LT":
            out.append(f"    if {x} < {y}:")
            out.append(f"        dt = 0; df = {y} - {x}; {q} = 1")
            out.append("    else:")
            out.append(f"        dt = {x} - {y} + 1; df = 0; {q} = 0")
            out.append(f"    {qs} = SH(t, dt, df)")
        elif name == "GT":
            out.append(f"    if {x} > {y}:")
            out.append(f"        dt = 0; df = {x} - {y}; {q} = 1")
            out.append("    else:")
            out.append(f"        dt = {y} - {x} + 1; df = 0; {q} = 0")
            out.append(f"    {qs} = SH(t, dt, df)")
        elif name == "EQ":
            # d_false is 0-if-diff-else-1: exactly the pushed result
            out.append(f"    d = {x} - {y} if {x} >= {y} else {y} - {x}")
            out.append(f"    {q} = 0 if d else 1")
            out.append(f"    {qs} = SH(t, d, {q})")
        else:
            out.append(f'    {qs} = CSH("{name}", {x}, {y}, t)')
            out.append(f"    {q} = 1 if {qs}.dist_true == 0 else 0")
        if mask & EV_COMPARE:
            out.append(f"    ev = CE({pc}, frame.msg.address, depth, "
                       f'"{name}", {x}, {y}, t)')
            out.append("    m.trace.compares.append(ev)")
            out.append("    for deliver in m.sub_compare:")
            out.append("        deliver(ev, m.oracle_ctx)")
        if tconst is None:
            out.append("    if t and TC in t:")
            out.append("        frame.caller_checked = True")
        elif Taint.CALLER in tconst:
            out.append("    frame.caller_checked = True")
        pending.append(_Pend(q, qs))
        return True

    expr = _WRAP_EXPR.get(op)
    if expr is not None:
        px = pop_entry("x", "sx")
        py = pop_entry("y", "sy")
        q, qs = newtemp()
        e = expr.format(x=px.vexpr, y=py.vexpr)
        if mask & EV_OVERFLOW:
            out.append(f"    raw = {e}")
            out.append(f"    {q} = raw & UM")
            out.append(f"    if raw != {q}:")
            out.append(f"        ev = OE({pc}, frame.msg.address, depth, "
                       f'"{Op(op).name}", {px.vexpr}, {py.vexpr}, {q})')
            out.append("        m.trace.overflows.append(ev)")
            out.append("        for deliver in m.sub_overflow:")
            out.append("            deliver(ev, m.oracle_ctx)")
        else:
            out.append(f"    {q} = ({e}) & UM")
        texpr, tconst = taints_expr(px, py)
        if tconst is not None:
            shadow = _taint_shadow(tconst)
            pending.append(_Pend(q, sname(shadow), sconst=shadow))
        else:
            out.append(f"    t = {texpr}")
            out.append(f"    {qs} = SH(t) if t else ES")
            pending.append(_Pend(q, qs))
        return True

    if op == Op.ISZERO:
        # a fully-constant operand always folds, so the operand here is
        # runtime-valued (its shadow may still be compile-time known)
        px = pop_entry("x", "sx")
        x = px.vexpr
        q, qs = newtemp()
        if px.sconst is not None and px.sconst.dist_true is None:
            out.append(f'    {qs} = CSH("EQ", {x}, 0, '
                       f"{px.sexpr}.taints).negated()")
        else:
            out.append(f"    {qs} = {px.sexpr}")
            out.append(f"    if {qs}.dist_true is None:")
            out.append(f'        {qs} = CSH("EQ", {x}, 0, {qs}.taints)')
            out.append(f"    {qs} = {qs}.negated()")
        out.append(f"    {q} = 0 if {x} else 1")
        pending.append(_Pend(q, qs))
        return True

    if op == Op.AND or op == Op.OR:
        px = pop_entry("x", "sx")
        py = pop_entry("y", "sy")
        q, qs = newtemp()
        sym = "&" if op == Op.AND else "|"
        combine = "CA" if op == Op.AND else "CO"
        out.append(f"    {q} = {px.vexpr} {sym} {py.vexpr}")
        no_dist = ((px.sconst is not None
                    and px.sconst.dist_true is None)
                   or (py.sconst is not None
                       and py.sconst.dist_true is None))
        if no_dist:
            # a side provably carries no branch distance: the combine
            # path is statically dead, only the taint merge remains
            texpr, tconst = taints_expr(px, py)
            if tconst is not None:
                shadow = _taint_shadow(tconst)
                pending.append(_Pend(q, sname(shadow), sconst=shadow))
                return True
            out.append(f"    t = {texpr}")
            out.append(f"    {qs} = SH(t) if t else ES")
        else:
            out.append(f"    if {px.sexpr}.dist_true is not None "
                       f"and {py.sexpr}.dist_true is not None:")
            out.append(f"        {qs} = {combine}({px.sexpr}, {py.sexpr})")
            out.append("    else:")
            out.append(f"        t = {px.sexpr}.taints | {py.sexpr}.taints")
            out.append(f"        {qs} = SH(t) if t else ES")
        pending.append(_Pend(q, qs))
        return True

    if op == Op.SLOAD:
        pslot = pop_entry("slot", "_s")  # slot shadow discarded
        q, qs = newtemp()
        # bound eagerly: storage may be written before the value is used
        out.append(f"    {q}, {qs} = m.world.get_storage("
                   f"frame.msg.address, {pslot.vexpr})")
        if mask & EV_STORAGE:
            out.append(f"    ev = SE({pc}, frame.msg.address, depth, "
                       f'"read", {pslot.vexpr}, {q})')
            out.append("    m.trace.storage_ops.append(ev)")
            out.append("    for deliver in m.sub_storage:")
            out.append("        deliver(ev, m.oracle_ctx)")
        pending.append(_Pend(q, qs))
        return True

    if op == Op.SSTORE:
        pslot = pop_entry("slot", "_s")  # slot shadow discarded
        pv = pop_entry("v", "s")
        if pv.sconst is not None:
            # _op_sstore's taint-only stripping rule, evaluated at
            # compile time against the known value shadow
            vsh = pv.sconst
            if not vsh.taints:
                stored = "ES"
            elif vsh.dist_true is None and vsh.dist_false is None:
                stored = pv.sexpr
            else:
                stored = sname(Shadow(vsh.taints))
        else:
            se = pv.sexpr
            out.append(f"    if not {se}.taints:")
            out.append("        stored = ES")
            out.append(f"    elif {se}.dist_true is None "
                       f"and {se}.dist_false is None:")
            out.append(f"        stored = {se}")
            out.append("    else:")
            out.append(f"        stored = SH({se}.taints)")
            stored = "stored"
        out.append("    m.world.set_storage("
                   f"frame.msg.address, {pslot.vexpr}, {pv.vexpr}, "
                   f"{stored})")
        if mask & EV_STORAGE:
            out.append(f"    ev = SE({pc}, frame.msg.address, depth, "
                       f'"write", {pslot.vexpr}, {pv.vexpr}, '
                       "frame.made_external_call)")
            out.append("    m.trace.storage_ops.append(ev)")
            out.append("    for deliver in m.sub_storage:")
            out.append("        deliver(ev, m.oracle_ctx)")
        return True

    return False


# -- fused-block code generation ----------------------------------------------


#: extra basic blocks greedily merged into one closure behind a
#: statically known transfer of control (threaded jump, JUMPI arm,
#: fallthrough): bounds generated-code growth (arm chaining duplicates
#: join blocks) while letting straight-line regions that the CFG carved
#: at JUMPDESTs run without any block transition
FUSION_CHAIN_LIMIT = 32

#: a fused-tier entry compiles on this entry; the ones before it decline
#: and run on the table loop (tier 0), so code entered only a few times
#: per process is never generated
FUSION_WARMUP = 8

#: a runtime JUMPI arm whose block is not compiled yet is chained only
#: once its stub has counted this many entries: an arm that never ran is
#: left to the trampoline instead of being copied into its parent
FUSION_ARM_GATE = 2


def _emit_fused_block(block, analysis, cfg, mask, ns, hname, sname, bname,
                      lines, stats, tiers, arm_ran) -> None:
    """Append the generated source for one fused *superblock* to ``lines``.

    The closure entered at ``block.start`` greedily **chains** statically
    reachable fused successors into the same function body: wherever the
    terminator resolves to a compile-time target in tail position (a
    threaded JUMP, a constant-folded JUMPI arm, a JUMPI fallthrough, or a
    plain fallthrough at a JUMPDEST boundary), the successor's body is
    spliced inline instead of returning its closure through the
    trampoline — no closure call, no result-tuple allocation.

    Decline guards are emitted per **guard group**, not per segment: a
    chain of segments connected by transfers that are *statically
    guaranteed to execute together* (fallthrough, threaded JUMP, folded
    JUMPI) shares one merged guard at the group's entry — gas, step
    count, and composed stack bounds summed across the whole chain — and
    one merged ``gas``/``steps`` pre-charge.  Declining returns ``FB``
    at the group's first pc before any of its instructions run, so the
    table-loop replay is byte-identical (it simply re-executes nothing).
    A *runtime* JUMPI's chained arms are only conditionally reached, so
    each arm chain starts a fresh group with its own guard and its own
    pre-charge mid-closure — resume pc and accounting there reflect
    exactly the groups that actually ran.  Such an arm chains only when
    ``arm_ran(target)`` says its block has already run; otherwise the
    closure returns the arm's entry.  Back edges never chain (the target
    is already part of the chain), so loops still cross the trampoline
    once per iteration.
    """
    start = block.start
    code_len = analysis.code_len
    jumpdests = analysis.jumpdests

    out: list[str] = []
    #: blocks on the current emission path — chaining into an ancestor
    #: would generate unbounded code (a loop), so back edges always go
    #: through the trampoline; reconverging on a join block from a
    #: *different* arm is fine (the body is duplicated, budget permitting)
    path: list[int] = []
    budget = [FUSION_CHAIN_LIMIT]
    #: guard groups: each holds the summed gas/steps and composed stack
    #: bounds of the segments it covers; a ``\\x00{gid}`` placeholder
    #: line marks where its merged guard is patched in afterwards
    groups: list[dict] = []
    #: stack of groups open along the current emission path — tail
    #: continuations join ``cur[-1]``, conditional arms push a new one
    cur: list[dict] = []

    def goto(target: int, indent: str = "    ") -> list[str]:
        """Transfer-of-control lines for a statically known target pc."""
        if target >= code_len:
            return [f'{indent}return None, gas, steps, b""']
        if target in cfg.blocks:
            return [f"{indent}return B{target}, gas, steps, None"]
        return [f"{indent}return FB, gas, steps, {target}"]

    def chain_or_goto(target: int, indent: str = "    ",
                      cont: bool = False) -> None:
        """Static transfer: splice the target block inline when it is
        fused-tier, not an ancestor on this emission path, and the
        growth budget allows; else fall back to a trampoline return.

        ``cont=True`` marks a transfer that is statically guaranteed to
        execute whenever the current segment does (fallthrough, threaded
        JUMP, folded JUMPI): the spliced segment joins the current guard
        group.  Conditionally reached transfers (runtime JUMPI arms)
        leave ``cont=False``, chain only into blocks that have run, and
        start a group of their own."""
        if (budget[0] > 0 and target not in path
                and tiers.get(target) == TIER_FUSED
                and (cont or arm_ran(target))):
            budget[0] -= 1
            stats["chained"] += 1
            mark = len(out)
            emit_segment(cfg.blocks[target], cont=cont)
            if indent != "    ":
                pad = indent[4:]
                out[mark:] = [pad + line for line in out[mark:]]
        else:
            out.extend(goto(target, indent))

    def emit_branch_record(pc, cond, taken, dest, shadow,
                           static_shadow=None) -> None:
        """Open-coded ``Machine._record_branch`` (statement for
        statement, including the call-result checked-flag scan — elided
        when a compile-time condition shadow is provably untainted).

        Gated statically: the machine sets ``rec_branch`` from the same
        ``event_mask`` the program is specialized for, so when the mask
        lacks ``EV_BRANCH`` no recording code is emitted at all."""
        if not mask & EV_BRANCH:
            return
        out.append("    tr = m.trace")
        out.append(f"    ev = BE({pc}, frame.msg.address, depth, {cond}, "
                   f"{taken}, {dest}, {shadow}.taints, "
                   f"{shadow}.dist_true, {shadow}.dist_false)")
        out.append("    tr.branches.append(ev)")
        out.append("    tr.branch_edges.add("
                   f"(frame.msg.address, {pc}, {taken}))")
        if static_shadow is None or any(
                is_call_result_tag(t) for t in static_shadow.taints):
            out.append(f"    for tag in {shadow}.taints:")
            out.append("        if ICR(tag):")
            out.append('            idx = int(tag.split(":", 1)[1])')
            out.append("            if idx < len(tr.calls):")
            out.append("                tr.calls[idx].checked = True")
        out.append("    for deliver in m.sub_branch:")
        out.append("        deliver(ev, m.oracle_ctx)")

    def emit_segment(blk, cont: bool = False) -> None:
        if not cont:
            g = {"start": blk.start, "gas": 0, "steps": 0,
                 "md": 0, "mg": 0, "off": 0}
            out.append(f"    \x00{len(groups)}")
            groups.append(g)
            cur.append(g)
        g = cur[-1]
        ins_list = blk.instructions
        md, mg, net = _stack_bounds(ins_list)
        # compose with the group's accumulated net effect: what this
        # segment needs at *its* entry, shifted back to the group's entry
        if md - g["off"] > g["md"]:
            g["md"] = md - g["off"]
        if g["off"] + mg > g["mg"]:
            g["mg"] = g["off"] + mg
        g["off"] += net
        g["gas"] += sum(OPCODE_INFO[i.opcode].gas for i in ins_list)
        g["steps"] += len(ins_list)
        path.append(blk.start)
        _emit_segment(blk, analysis, cfg, mask, ns, hname, sname, bname,
                      out, stats, goto, chain_or_goto, emit_branch_record)
        path.pop()
        if not cont:
            cur.pop()

    emit_segment(block)

    # patch each group's placeholder into its merged decline guard +
    # merged gas/steps pre-charge (everything the group covers is
    # statically guaranteed to execute once the guard passes)
    patched: list[str] = []
    for line in out:
        if "\x00" not in line:
            patched.append(line)
            continue
        indent, _, gid = line.partition("\x00")
        g = groups[int(gid)]
        checks = []
        if g["gas"]:
            checks.append(f"gas < {g['gas']}")
        checks.append(f"steps + {g['steps']} > m.max_steps")
        if g["md"] > 0:
            checks.append(f"len(values) < {g['md']}")
        if g["mg"] > 0:
            checks.append(f"len(values) + {g['mg']} > {STACK_LIMIT}")
        patched.append(f"{indent}if {' or '.join(checks)}:")
        patched.append(f"{indent}    return FB, gas, steps, {g['start']}")
        if g["gas"]:
            patched.append(f"{indent}gas -= {g['gas']}")
        patched.append(f"{indent}steps += {g['steps']}")
        patched.append(f"{indent}FS[0] += {g['steps']}")
    out = patched

    uses_stack = any("stack." in line for line in out)
    uses_values = any("values" in line or "shadows" in line for line in out)
    uses_mem = any("mem." in line for line in out)
    lines.append(f"def B{start}(m, frame, depth, gas, steps):")
    if uses_stack or uses_values:
        lines.append("    stack = frame.stack")
    if uses_values:
        lines.append("    values = stack.values")
        lines.append("    shadows = stack.shadows")
    if uses_mem:
        lines.append("    mem = frame.memory")
    lines.extend(out)
    lines.append("")


def _emit_segment(block, analysis, cfg, mask, ns, hname, sname, bname, out,
                  stats, goto, chain_or_goto, emit_branch_record) -> None:
    """Emit one basic block's body and terminator into ``out`` (one
    segment of a superblock — see :func:`_emit_fused_block`).  The
    decline guard and gas/steps pre-charge are *not* emitted here: the
    caller accounts this segment to its guard group and patches the
    merged guard in afterwards."""
    code_len = analysis.code_len
    jumpdests = analysis.jumpdests
    ins_list = block.instructions
    term = ins_list[-1]
    has_term = term.opcode in _TERMINATOR_OPS
    body = ins_list[:-1] if has_term else ins_list

    #: symbolic entries logically on top of the runtime stack — baked
    #: constants, pure context expressions, and single-assignment inline
    #: result temps; flushed (materialized as appends) before any op
    #: that needs the real stack
    pending: list[_Pend] = []

    def flush() -> None:
        for p in pending:
            out.append(f"    values.append({p.vexpr})")
            out.append(f"    shadows.append({p.sexpr})")
        pending.clear()

    tmp = [0]

    for ins in body:
        op = ins.opcode
        if 0x60 <= op <= 0x7F:  # PUSH: defer the constant
            pending.append(_Pend(str(ins.operand), "ES",
                                 ins.operand, EMPTY_SHADOW))
            continue
        if op == Op.PC:
            pending.append(_Pend(str(ins.pc), "ES", ins.pc, EMPTY_SHADOW))
            continue
        if op == Op.JUMPDEST:
            continue
        if 0x80 <= op <= 0x8F:  # DUPn
            n = op - 0x7F
            if len(pending) >= n:
                if pending[-n].dup_ok:
                    # entries are immutable, so DUP may alias them
                    pending.append(pending[-n])
                    stats["folded"] += 1
                    continue
                flush()
            # the copy binds to a temp and stays pending; the original
            # keeps its list slot.  Pending entries sit above the list,
            # so the source index shifts by however many are deferred.
            # Depth is guard-validated: direct indexing, no checks.
            idx = n - len(pending)
            q, qs = f"q{tmp[0]}", f"qs{tmp[0]}"
            tmp[0] += 1
            out.append(f"    {q} = values[-{idx}]")
            out.append(f"    {qs} = shadows[-{idx}]")
            pending.append(_Pend(q, qs))
            stats["inlined"] += 1
            continue
        if 0x90 <= op <= 0x9F:  # SWAPn
            n = op - 0x8F
            if len(pending) >= n + 1:
                pending[-1], pending[-n - 1] = pending[-n - 1], pending[-1]
                stats["folded"] += 1
                continue
            if pending:
                # top is pending, its swap partner is on the list: lift
                # the list slot into a temp, write the pending value in
                # its place, and the temp becomes the new pending top
                idx = n + 1 - len(pending)
                top = pending[-1]
                q, qs = f"q{tmp[0]}", f"qs{tmp[0]}"
                tmp[0] += 1
                out.append(f"    {q} = values[-{idx}]")
                out.append(f"    {qs} = shadows[-{idx}]")
                out.append(f"    values[-{idx}] = {top.vexpr}")
                out.append(f"    shadows[-{idx}] = {top.sexpr}")
                pending[-1] = _Pend(q, qs)
                stats["inlined"] += 1
                continue
            out.append(f"    values[-1], values[-{n + 1}] = "
                       f"values[-{n + 1}], values[-1]")
            out.append(f"    shadows[-1], shadows[-{n + 1}] = "
                       f"shadows[-{n + 1}], shadows[-1]")
            stats["inlined"] += 1
            continue
        if op == Op.POP:
            if pending:
                pending.pop()
                stats["folded"] += 1
            else:
                out.append("    values.pop()")
                out.append("    shadows.pop()")
            continue
        if _try_fold(op, pending, mask, sname):
            stats["folded"] += 1
            continue
        if _emit_inline(op, ins.pc, pending, out, sname, bname, flush,
                        mask, tmp):
            stats["inlined"] += 1
            continue
        flush()
        out.append(f"    {hname(op)}(m, {ins.pc}, frame, depth, gas)")

    # -- terminator ----------------------------------------------------------
    if not has_term:
        flush()
        chain_or_goto(block.end, cont=True)
    elif term.opcode == Op.STOP:
        flush()
        out.append('    return None, gas, steps, b""')
    elif term.opcode in (Op.RETURN, Op.SELFDESTRUCT):
        flush()
        out.append(f"    r = {hname(term.opcode)}"
                   f"(m, {term.pc}, frame, depth, gas)")
        out.append("    return None, gas, steps, r[1]")
    elif term.opcode == Op.REVERT:
        flush()
        out.append("    m._steps = steps")
        out.append("    m._sync_gas = gas")
        out.append(f"    {hname(term.opcode)}"
                   f"(m, {term.pc}, frame, depth, gas)")
    elif term.opcode == Op.INVALID:
        flush()
        out.append("    m._steps = steps")
        out.append(f"    {hname(term.opcode)}"
                   f"(m, {term.pc}, frame, depth, gas)")
    elif term.opcode == Op.JUMP:
        if pending and pending[-1].vconst is not None:
            dest = pending.pop().vconst
            flush()
            if dest in jumpdests:
                stats["threaded"] += 1
                chain_or_goto(dest, cont=True)
            else:
                out.append("    m._steps = steps")
                out.append('    raise IJ("JUMP to ' + str(dest)
                           + " at pc=" + str(term.pc) + '")')
        else:
            if pending:
                de = pending.pop().vexpr
                flush()
            else:
                out.append("    shadows.pop()")
                out.append("    dest = values.pop()")
                de = "dest"
            out.append(f"    if {de} not in JD:")
            out.append("        m._steps = steps")
            out.append(f'        raise IJ(f"JUMP to {{{de}}} at pc='
                       + str(term.pc) + '")')
            out.append(f"    nb = BL.get({de})")
            out.append("    if nb is None:")
            out.append(f"        return FB, gas, steps, {de}")
            out.append("    return nb, gas, steps, None")
    else:  # JUMPI
        pc = term.pc
        fall = pc + 1
        # stack order: dest on top, condition below — pending entries
        # always sit above any runtime list items
        if pending:
            pd = pending.pop()
            dest_c, dest_e = pd.vconst, pd.vexpr
        else:
            out.append("    dest = values.pop()")
            out.append("    shadows.pop()")
            dest_c, dest_e = None, "dest"
        if pending:
            pcnd = pending.pop()
            cond_c, cond_e = pcnd.vconst, pcnd.vexpr
            cs_e, cs_c = pcnd.sexpr, pcnd.sconst
        else:
            out.append("    cond = values.pop()")
            out.append("    cs = shadows.pop()")
            cond_c, cond_e, cs_e, cs_c = None, "cond", "cs", None
        flush()
        if cond_c is not None and dest_c is not None:
            taken = cond_c != 0
            emit_branch_record(pc, cond_c, taken, dest_c, cs_e,
                               static_shadow=cs_c)
            if taken:
                if dest_c in jumpdests:
                    stats["threaded"] += 1
                    chain_or_goto(dest_c, cont=True)
                else:
                    out.append("    m._steps = steps")
                    out.append('    raise IJ("JUMPI to ' + str(dest_c)
                               + " at pc=" + str(pc) + '")')
            else:
                chain_or_goto(fall, cont=True)
        elif dest_c is not None:
            out.append(f"    taken = {cond_e} != 0")
            emit_branch_record(pc, cond_e, "taken", dest_c, cs_e,
                               static_shadow=cs_c)
            out.append("    if taken:")
            if dest_c in jumpdests:
                stats["threaded"] += 1
                chain_or_goto(dest_c, indent="        ")
            else:
                out.append("        m._steps = steps")
                out.append('        raise IJ("JUMPI to ' + str(dest_c)
                           + " at pc=" + str(pc) + '")')
            chain_or_goto(fall)
        else:
            out.append(f"    taken = {cond_e} != 0")
            emit_branch_record(pc, cond_e, "taken", dest_e, cs_e,
                               static_shadow=cs_c)
            out.append("    if taken:")
            out.append(f"        if {dest_e} not in JD:")
            out.append("            m._steps = steps")
            out.append(f'            raise IJ(f"JUMPI to {{{dest_e}}} at pc='
                       + str(pc) + '")')
            out.append(f"        nb = BL.get({dest_e})")
            out.append("        if nb is None:")
            out.append(f"            return FB, gas, steps, {dest_e}")
            out.append("        return nb, gas, steps, None")
            chain_or_goto(fall)


# -- bailout tier -------------------------------------------------------------


def _make_bailout_block(start: int):
    def run(m, frame, depth, gas, steps):
        return FUSION_BAILOUT, gas, steps, start

    return run


# -- program compilation ------------------------------------------------------


def _make_stub(compile_entry, heat: dict, start: int):
    """Cold stand-in for the fused superblock at ``start``: declines
    before :data:`FUSION_WARMUP` entries, then compiles and runs it."""

    def stub(m, frame, depth, gas, steps):
        global _warmup_declines
        entries = heat.get(start, 0) + 1
        heat[start] = entries
        if entries < FUSION_WARMUP:
            _warmup_declines += 1
            return FUSION_BAILOUT, gas, steps, start
        return compile_entry(start)(m, frame, depth, gas, steps)

    return stub


def _compile_program(analysis: CodeAnalysis, mask: int) -> FusedProgram:
    """Classify every block and build everything but the fused
    superblocks, which compile once warm (see :class:`FusedProgram`)."""
    global _programs, _blocks_fused, _blocks_bailout
    cfg = analysis.cfg
    blocks: dict[int, object] = {}
    stats = {"blocks": len(cfg.blocks), "fused": 0, "bailout": 0,
             "folded": 0, "inlined": 0, "threaded": 0, "chained": 0,
             "reasons": {}}
    ns: dict = {
        "FB": FUSION_BAILOUT,
        "FS": _FUSED_STEPS,
        "ES": EMPTY_SHADOW,
        "IJ": InvalidJump,
        "JD": analysis.jumpdests,
        "BL": blocks,
        # inline-superinstruction support (see _emit_inline)
        "BE": BranchEvent,
        "CE": CompareEvent,
        "OE": OverflowEvent,
        "SE": StorageEvent,
        "ICR": is_call_result_tag,
        "CSH": comparison_shadow,
        "MT": merge_taints,
        "TC": Taint.CALLER,
        "SH": Shadow,
        "UM": U256_MAX,
        "CA": combine_and,
        "CO": combine_or,
        "CDS": CALLDATA_SHADOW,
        "CALLER_SH": CALLER_SHADOW,
        "CALLVALUE_SH": CALLVALUE_SHADOW,
        "ORIGIN_SH": ORIGIN_SHADOW,
    }

    #: chaining needs every block's tier before any block is emitted
    tiers: dict[int, str] = {}
    reasons: dict[int, str | None] = {}
    for start in sorted(cfg.blocks):
        tiers[start], reasons[start] = _classify(cfg.blocks[start])

    def hname(op: int) -> str:
        name = f"H{op:02X}"
        if name not in ns:
            ns[name] = SIMPLE_HANDLERS[op]
        return name

    shadow_names: dict[Shadow, str] = {}

    def sname(shadow: Shadow) -> str:
        if shadow == EMPTY_SHADOW:
            return "ES"
        name = shadow_names.get(shadow)
        if name is None:
            name = f"S{len(shadow_names)}"
            shadow_names[shadow] = name
            ns[name] = shadow
        return name

    word_names: dict[bytes, str] = {}

    def bname(value: int) -> str:
        """Interned 32-byte big-endian constant (baked MSTORE words)."""
        data = value.to_bytes(32, "big")
        name = word_names.get(data)
        if name is None:
            name = f"W{len(word_names)}"
            word_names[data] = name
            ns[name] = data
        return name

    digest = hashlib.sha256(analysis.code).hexdigest()
    filename = f"<fusion:{digest[:12]}:{mask:#x}>"
    sources: dict[int, str] = {}
    heat: dict[int, int] = {}

    def arm_ran(start: int) -> bool:
        return start in sources or heat.get(start, 0) >= FUSION_ARM_GATE

    def compile_entry(start: int):
        """Emit, compile and install the superblock entered at ``start``.
        Idempotent: a second call (from ``compile_all``, say) returns the
        closure the first one installed."""
        global _entries_compiled
        global _folded_ops, _inlined_ops, _threaded_jumps, _chained_blocks
        if start in sources:
            return blocks[start]
        counts = {"folded": 0, "inlined": 0, "threaded": 0, "chained": 0}
        lines: list[str] = []
        _emit_fused_block(cfg.blocks[start], analysis, cfg, mask, ns, hname,
                          sname, bname, lines, counts, tiers, arm_ran)
        source = "\n".join(lines)
        exec(compile(source, filename, "exec"), ns)  # rebinds B{start}
        closure = blocks[start] = ns[f"B{start}"]
        sources[start] = source
        if start == 0:
            program.entry = closure
        for key, count in counts.items():
            stats[key] += count
        _entries_compiled += 1
        _folded_ops += counts["folded"]
        _inlined_ops += counts["inlined"]
        _threaded_jumps += counts["threaded"]
        _chained_blocks += counts["chained"]
        return closure

    # every block closure (or stub) is reachable by name from generated
    # code (threaded returns may target bailout blocks too); the block
    # map, which dynamic jumps and the table loop look up, holds only
    # fused-tier entries
    for start in sorted(cfg.blocks):
        if tiers[start] == TIER_FUSED:
            closure = blocks[start] = _make_stub(compile_entry, heat, start)
            stats["fused"] += 1
        else:
            closure = _make_bailout_block(start)
            stats["bailout"] += 1
            reason = reasons[start]
            stats["reasons"][reason] = stats["reasons"].get(reason, 0) + 1
        ns[f"B{start}"] = closure

    _programs += 1
    _blocks_fused += stats["fused"]
    _blocks_bailout += stats["bailout"]
    for reason, count in stats["reasons"].items():
        _fallback_reasons[reason] = _fallback_reasons.get(reason, 0) + count
    # bound to a name: compile_entry installs entry 0 as ``program.entry``
    program = FusedProgram(ns.get("B0"), blocks, tiers, stats, sources,
                           heat, compile_entry)
    return program


# -- entry point --------------------------------------------------------------


def fused_program(code: bytes, event_mask: int,
                  analysis: CodeAnalysis | None = None) -> FusedProgram:
    """The fused program for ``code`` under ``event_mask``, built once
    into ``analysis`` (``code``'s record; looked up when not given)."""
    if analysis is None:
        analysis = analyze_code(code)
    program = analysis.programs.get(event_mask)
    if program is None:
        program = analysis.programs[event_mask] = _compile_program(
            analysis, event_mask)
    return program


def fusion_stats() -> dict:
    """Compile/runtime counters (tests, ``perfbench/trace.py``)."""
    return {
        "programs": _programs,
        "blocks_fused": _blocks_fused,
        # a constant, kept only because perfbench/trace.py reads this key
        "blocks_interp": 0,
        "blocks_bailout": _blocks_bailout,
        "folded_ops": _folded_ops,
        "inlined_ops": _inlined_ops,
        "threaded_jumps": _threaded_jumps,
        "chained_blocks": _chained_blocks,
        "entries_compiled": _entries_compiled,
        "fused_steps": _FUSED_STEPS[0],
        # hand-offs from compiled closures and bailout-tier blocks
        "runtime_bailouts": _handoffs - _warmup_declines,
        "warmup_declines": _warmup_declines,
        "reentries": _reentries,
        "fallback_reasons": dict(_fallback_reasons),
    }


def reset_stats() -> None:
    """Zero the compile/runtime counters (tests); the programs stay in
    their records (:func:`repro.evm.analysis.clear_cache` drops them)."""
    global _programs, _blocks_fused, _blocks_bailout
    global _folded_ops, _inlined_ops, _threaded_jumps, _chained_blocks
    global _entries_compiled, _handoffs, _warmup_declines, _reentries
    _programs = 0
    _blocks_fused = 0
    _blocks_bailout = 0
    _folded_ops = 0
    _inlined_ops = 0
    _threaded_jumps = 0
    _chained_blocks = 0
    _entries_compiled = 0
    _handoffs = 0
    _warmup_declines = 0
    _reentries = 0
    _fallback_reasons.clear()
    _FUSED_STEPS[0] = 0
