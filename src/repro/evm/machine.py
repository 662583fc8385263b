"""The EVM interpreter.

:class:`Machine` executes one *message call* (and, recursively, its nested
calls) against a ``world`` object supplied by :mod:`repro.chain.state`.  It
maintains taint shadows, records semantic trace events, and implements real
revert/rollback semantics via world snapshots, so that reentrancy, unhandled
exceptions, and overflow truncation behave exactly as they would on Ethereum.

Execution has two tiers.  Tier 0 is table-dispatched:
:func:`repro.evm.analysis.analyze_code` predecodes each bytecode once per
process (jumpdests, PUSH immediates, per-opcode gas, handler functions
from :mod:`repro.evm.handlers`), and ``_run_table`` walks that table with
no per-step dict probes or enum constructions.  With block fusion on,
warm basic blocks run as compiled superblocks (:mod:`repro.evm.fusion`),
and ``_run`` moves a frame between the two loops at block boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evm.analysis import (
    KIND_CALL,
    KIND_DUP,
    KIND_JUMP,
    KIND_JUMPDEST,
    KIND_JUMPI,
    KIND_PUSH,
    KIND_SIMPLE,
    KIND_STOP,
    KIND_SWAP,
    analyze_code,
)
from repro.evm.errors import (
    CallDepthExceeded,
    EVMError,
    InsufficientBalance,
    InvalidJump,
    InvalidOpcode,
    OutOfGas,
    Revert,
    StackOverflow,
    StackUnderflow,
)
from repro.evm import fusion
from repro.evm.fusion import FUSION_BAILOUT, fused_program
from repro.evm.handlers import keccak  # noqa: F401  (public API, re-export)
from repro.evm.memory import Memory
from repro.evm.stack import STACK_LIMIT, Stack
from repro.evm.trace import (
    EMPTY_SHADOW,
    EV_ALL,
    EV_BLOCK,
    EV_BRANCH,
    EV_CALL,
    EV_COMPARE,
    EV_ETHER,
    EV_OVERFLOW,
    EV_SELFDESTRUCT,
    EV_STORAGE,
    BranchEvent,
    CallEvent,
    EtherEvent,
    ExecutionTrace,
    Shadow,
    call_result_tag,
    is_call_result_tag,
)

from repro.telemetry import metrics as _metrics

#: per-transaction telemetry.  The transaction boundary is the hottest
#: instrumented point in the system (tx bodies can be a few microseconds),
#: so it self-counts with plain module ints — no cheaper operation exists
#: in CPython, enabled or not — and a snapshot-time collector mirrors the
#: totals into the registry's counters.  Only the rare revert path touches
#: a real instrument.
_T_TXS = _metrics.counter("evm.transactions")
_T_STEPS = _metrics.counter("evm.steps")
_T_REVERTS = _metrics.counter("evm.reverted_transactions")

_txs = 0
_steps_total = 0
_reverts = 0


def _collect_tx_counters() -> None:
    _T_TXS.set_total(_txs)
    _T_STEPS.set_total(_steps_total)
    _T_REVERTS.set_total(_reverts)


_metrics.register_collector(_collect_tx_counters)

WORD = 1 << 256
CALL_DEPTH_LIMIT = 1024
#: Gas stipend forwarded by ``transfer``/``send``; the reentrancy oracle keys
#: off calls forwarding *more* than this.
CALL_STIPEND = 2300


@dataclass(slots=True)
class Message:
    """One message call: the unit the machine executes."""

    address: int          # storage/balance context
    caller: int
    origin: int
    value: int
    data: bytes
    gas: int
    code: bytes
    is_delegate: bool = False


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of executing a message."""

    success: bool
    returndata: bytes = b""
    error: str | None = None
    gas_left: int = 0


@dataclass(slots=True)
class CallContext:
    """Per-frame execution context."""

    msg: Message
    stack: Stack = field(default_factory=Stack)
    memory: Memory = field(default_factory=Memory)
    pc: int = 0
    #: whether this frame already made an external CALL (for RE refinement)
    made_external_call: bool = False
    #: whether msg.sender was compared in this frame (modifier-guard signal)
    caller_checked: bool = False


class Machine:
    """Executes messages against a world, collecting an :class:`ExecutionTrace`.

    Parameters
    ----------
    world:
        Provides code/balance/storage plus snapshot/rollback; see
        :class:`repro.chain.state.WorldState`.
    block:
        Block environment (``number``, ``timestamp``, ...); see
        :class:`repro.chain.blockchain.BlockContext`.
    max_steps:
        Hard per-transaction instruction budget, protecting fuzzing campaigns
        from runaway loops independent of gas.
    event_mask:
        ``EV_*`` bitmask selecting which trace-event kinds are materialized
        at all.  The default records everything (library behaviour);
        fuzzing campaigns pass the union of what the feedback loop and the
        subscribed oracles actually consume, so unneeded kinds cost one
        boolean check per opcode instead of an allocation plus an append.
    bus:
        Optional :class:`~repro.oracles.bus.OracleBus`.  When present, its
        subscription mask is OR-ed into ``event_mask`` and every recorded
        event of a subscribed kind is dispatched to the subscribed oracles
        *while the transaction executes*; subcall-revert rollback is
        forwarded to the oracles' transactional buffers in lockstep with
        the trace's own rollback.
    """

    def __init__(self, world, block, max_steps: int = 200_000,
                 event_mask: int = EV_ALL, bus=None,
                 block_fusion: bool | None = None) -> None:
        self.world = world
        self.block = block
        self.max_steps = max_steps
        self.trace = ExecutionTrace()
        self._steps = 0
        #: gas at the most recent REVERT site — closures on the fused tier
        #: sync it just before the raising handler so the Revert catch can
        #: report the exact refund the table loop would have
        self._sync_gas = 0
        self.block_fusion = (fusion.default_enabled() if block_fusion is None
                             else block_fusion)
        self._executed = False
        self._active_addresses: list[int] = []
        self.bus = bus
        # machines are built once per transaction: the dispatch tables come
        # prebuilt from the bus, and the rec_* gates are plain ints (bit
        # test results) — cheap to set up, truthy to check
        if bus is not None:
            event_mask |= bus.mask  # subscribed kinds always materialize
            (self.sub_branch, self.sub_compare, self.sub_call,
             self.sub_overflow, self.sub_storage, self.sub_selfdestruct,
             self.sub_block, self.sub_ether) = bus.dispatch_tables
            self.oracle_ctx = bus.ctx
        else:
            self.sub_branch = self.sub_compare = self.sub_call = \
                self.sub_overflow = self.sub_storage = \
                self.sub_selfdestruct = self.sub_block = self.sub_ether = ()
            self.oracle_ctx = None
        self.event_mask = event_mask
        self.rec_branch = event_mask & EV_BRANCH
        self.rec_compare = event_mask & EV_COMPARE
        self.rec_call = event_mask & EV_CALL
        self.rec_overflow = event_mask & EV_OVERFLOW
        self.rec_storage = event_mask & EV_STORAGE
        self.rec_selfdestruct = event_mask & EV_SELFDESTRUCT
        self.rec_block = event_mask & EV_BLOCK
        self.rec_ether = event_mask & EV_ETHER

    # -- public API ---------------------------------------------------------

    def execute(self, msg: Message) -> ExecutionResult:
        """Execute ``msg`` as the outermost frame of a transaction."""
        self._steps = 0
        if self._executed:  # machines are usually single-use: reuse the
            self.trace = ExecutionTrace()  # __init__ trace on first execute
        self._executed = True
        if self.bus is not None:
            self.bus.begin_transaction()
        snapshot = self.world.snapshot()
        result = self._call(msg, depth=0)
        if not result.success:
            self.world.revert_to(snapshot)
            self.trace.reverted = True
            self.trace.error = result.error
        else:
            self.world.commit(snapshot)
        self.trace.steps = self._steps
        global _txs, _steps_total, _reverts
        _txs += 1
        _steps_total += self._steps
        if not result.success:
            _reverts += 1
        return result

    # -- internal call handling ----------------------------------------------

    def _call(self, msg: Message, depth: int) -> ExecutionResult:
        if depth > CALL_DEPTH_LIMIT:
            return ExecutionResult(False, error="call depth exceeded")
        if msg.value:
            try:
                self.world.transfer(msg.caller, msg.address, msg.value)
            except InsufficientBalance as exc:
                return ExecutionResult(False, error=str(exc))
            if self.rec_ether:
                self.trace.ether_received[msg.address] = (
                    self.trace.ether_received.get(msg.address, 0) + msg.value
                )
                if self.sub_ether:
                    event = EtherEvent(pc=0, address=msg.address,
                                       depth=depth, amount=msg.value)
                    for deliver in self.sub_ether:
                        deliver(event, self.oracle_ctx)
        agent = self.world.get_agent(msg.address)
        if agent is not None and not msg.is_delegate:
            return agent.on_call(self, msg, depth)
        if not msg.code:
            return ExecutionResult(True, gas_left=msg.gas)

        self._active_addresses.append(msg.address)
        frame = CallContext(msg=msg)
        try:
            return self._run(frame, depth)
        finally:
            self._active_addresses.pop()

    # -- the interpreter loop -------------------------------------------------

    def _run(self, frame: CallContext, depth: int) -> ExecutionResult:
        """Run ``frame`` to its end on the two tiers, one loop driving both.

        With block fusion on, the frame starts on the fused tier (see
        :mod:`repro.evm.fusion`).  A closure that declines — a cold entry
        warming up, a failed guard, a bailout-tier block — hands the frame
        to the table loop (tier 0) at the declining block's pc, and the
        table loop hands it back at the next JUMP target or JUMPI side that
        has a fused-tier entry.  Either loop returns the
        :class:`ExecutionResult` when the frame ends, else ``(block,
        gas)``: the closure to re-enter (``None``: the table loop, from
        ``frame.pc``) and the gas left; ``self._steps`` carries the step
        count across.
        """
        code = frame.msg.code
        analysis = analyze_code(code)
        gas = frame.msg.gas
        block = entries = None
        if self.block_fusion:
            program = fused_program(code, self.event_mask, analysis)
            block = program.entry
            entries = program.blocks
        while True:
            if block is None:
                out = self._run_table(frame, depth, analysis, gas, entries)
            else:
                out = self._run_fused(block, frame, depth, gas)
            if out.__class__ is ExecutionResult:
                return out
            block, gas = out

    def _run_fused(self, block, frame: CallContext, depth: int, gas: int):
        """Block-threaded loop (see :mod:`repro.evm.fusion`).

        Each closure returns the next block's closure directly, ``None``
        for a successful halt, or :data:`FUSION_BAILOUT` to hand the frame
        to the table loop (always before executing any part of the
        declining block, so the replay is byte-identical).
        """
        steps = self._steps
        try:
            while True:
                nxt, gas, steps, payload = block(self, frame, depth, gas,
                                                 steps)
                if nxt is None:
                    return ExecutionResult(True, payload, gas_left=gas)
                if nxt is FUSION_BAILOUT:
                    frame.pc = payload
                    fusion.note_handoff()
                    return None, gas
                block = nxt
        except Revert as exc:
            return ExecutionResult(False, error=f"revert: {exc}",
                                   gas_left=self._sync_gas)
        except EVMError as exc:
            return ExecutionResult(
                False, error=f"{type(exc).__name__}: {exc}", gas_left=0)
        finally:
            # raising closures sync self._steps themselves; the max keeps
            # the count exact when an exception escaped a nested call
            if steps > self._steps:
                self._steps = steps

    def _run_table(self, frame: CallContext, depth: int, analysis,
                   gas: int, entries: dict | None):
        """Per-instruction loop from ``frame.pc``.  ``entries`` is the
        fused program's block map (``None`` with block fusion off): the
        frame leaves for the fused tier at the first block boundary it
        crosses that has an entry."""
        msg = frame.msg
        code = msg.code
        stack = frame.stack
        jumpdests = analysis.jumpdests
        decoded = analysis.decoded
        n = analysis.code_len
        values = stack.values
        shadows = stack.shadows
        max_steps = self.max_steps
        address = msg.address
        pc = frame.pc
        # local step counter: synced with self._steps only around nested
        # calls (KIND_CALL) and on frame exit — see the finally clause
        steps = self._steps

        try:
            while pc < n:
                steps += 1
                if steps > max_steps:
                    raise OutOfGas("per-transaction step budget exhausted")
                entry = decoded[pc]
                if entry is None:
                    raise InvalidOpcode(
                        f"undefined opcode {code[pc]:#x} at pc={pc}")
                kind, cost, a, b = entry
                gas -= cost
                if gas < 0:
                    raise OutOfGas(f"out of gas at pc={pc}")

                if kind == KIND_PUSH:
                    # inlined stack.push(a) with the interned empty shadow
                    if len(values) >= STACK_LIMIT:
                        raise StackOverflow("stack limit of 1024 exceeded")
                    values.append(a)
                    shadows.append(EMPTY_SHADOW)
                    pc = b
                    continue

                if kind == KIND_SIMPLE:
                    result = a(self, pc, frame, depth, gas)
                    if result is not None:
                        tag, payload = result
                        if tag == "halt":
                            return ExecutionResult(True, payload,
                                                   gas_left=gas)
                        gas = payload
                    pc = b
                    continue

                if kind == KIND_DUP:
                    stack.dup(a)
                    pc = b
                    continue

                if kind == KIND_SWAP:
                    stack.swap(a)
                    pc = b
                    continue

                if kind == KIND_JUMPI:
                    if not values:
                        raise StackUnderflow("pop from empty stack")
                    dest = values.pop()
                    shadows.pop()
                    if not values:
                        raise StackUnderflow("pop from empty stack")
                    cond = values.pop()
                    cond_shadow = shadows.pop()
                    taken = cond != 0
                    self._record_branch(pc, address, depth, cond, taken,
                                        dest, cond_shadow)
                    if taken:
                        if dest not in jumpdests:
                            raise InvalidJump(f"JUMPI to {dest} at pc={pc}")
                        pc = dest
                    else:
                        pc = b
                elif kind == KIND_JUMP:
                    if not values:
                        raise StackUnderflow("pop from empty stack")
                    shadows.pop()
                    dest = values.pop()
                    if dest not in jumpdests:
                        raise InvalidJump(f"JUMP to {dest} at pc={pc}")
                    pc = dest
                elif kind == KIND_JUMPDEST:
                    pc = b
                    continue
                elif kind == KIND_CALL:
                    # nested frames advance self._steps: sync out, reload
                    self._steps = steps
                    result = a(self, pc, frame, depth, gas)
                    steps = self._steps
                    gas = result[1]
                    pc = b
                    continue
                else:  # KIND_STOP
                    return ExecutionResult(True, gas_left=gas)

                # a JUMP or JUMPI crossed a block boundary: hand the frame
                # back to the fused tier where the new block has an entry
                if entries is not None:
                    nb = entries.get(pc)
                    if nb is not None:
                        fusion.note_reentry()
                        return nb, gas

            return ExecutionResult(True, gas_left=gas)
        except Revert as exc:
            return ExecutionResult(False, error=f"revert: {exc}", gas_left=gas)
        except EVMError as exc:
            return ExecutionResult(
                False, error=f"{type(exc).__name__}: {exc}", gas_left=0)
        finally:
            # steps may lag self._steps when an exception escaped a nested
            # call (the callee already synced a larger total); take the max
            if steps > self._steps:
                self._steps = steps
            frame.pc = pc

    # -- calls -----------------------------------------------------------------

    def _op_call(self, pc: int, frame: CallContext, depth: int, gas: int) -> int:
        stack = frame.stack
        msg = frame.msg
        call_gas = stack.pop_value()
        target, target_shadow = stack.pop()
        value, value_shadow = stack.pop()
        args_off = stack.pop_value()
        args_size = stack.pop_value()
        ret_off = stack.pop_value()
        ret_size = stack.pop_value()

        call_gas = min(call_gas, max(gas - gas // 64, 0))
        data = frame.memory.read(args_off, args_size)
        event = None
        if self.rec_call:
            event = CallEvent(
                pc=pc, address=msg.address, depth=depth, kind="call",
                target=target, value=value, gas=call_gas,
                reentrant=target in self._active_addresses,
                target_taints=target_shadow.taints,
                value_taints=value_shadow.taints,
                guarded=frame.caller_checked, index=len(self.trace.calls))
            self.trace.calls.append(event)
            for deliver in self.sub_call:
                deliver(event, self.oracle_ctx)
        frame.made_external_call = True

        snapshot = self.world.snapshot()
        trace_mark = self.trace.subcall_mark()
        bus = self.bus
        bus_mark = bus.subcall_mark() if bus is not None else None
        inner = Message(
            address=target, caller=msg.address, origin=msg.origin,
            value=value, data=data, gas=call_gas,
            code=self.world.get_code(target))
        result = self._call(inner, depth + 1)
        if result.success:
            self.world.commit(snapshot)
        else:
            self.world.revert_to(snapshot)
            self.trace.rollback_subcall(trace_mark)
            if bus is not None:
                bus.rollback_subcall(bus_mark)
            if event is not None:
                event.callee_error = result.error
        if ret_size and result.returndata:
            frame.memory.write(ret_off, result.returndata[:ret_size])
        if event is not None:
            event.success = result.success
            # the success flag is tainted with the call's index so a later
            # JUMPI can mark the call *checked* — only meaningful while
            # call events are recorded at all
            stack.push(1 if result.success else 0,
                       Shadow(frozenset({call_result_tag(event.index)})))
        else:
            stack.push(1 if result.success else 0)
        return gas - (call_gas - result.gas_left)

    def _op_delegatecall(self, pc: int, frame: CallContext, depth: int,
                         gas: int) -> int:
        stack = frame.stack
        msg = frame.msg
        call_gas = stack.pop_value()
        target, target_shadow = stack.pop()
        args_off = stack.pop_value()
        args_size = stack.pop_value()
        ret_off = stack.pop_value()
        ret_size = stack.pop_value()

        call_gas = min(call_gas, max(gas - gas // 64, 0))
        data = frame.memory.read(args_off, args_size)
        event = None
        if self.rec_call:
            event = CallEvent(
                pc=pc, address=msg.address, depth=depth,
                kind="delegatecall", target=target, value=0, gas=call_gas,
                target_taints=target_shadow.taints,
                guarded=frame.caller_checked, index=len(self.trace.calls))
            self.trace.calls.append(event)
            for deliver in self.sub_call:
                deliver(event, self.oracle_ctx)
        frame.made_external_call = True

        snapshot = self.world.snapshot()
        trace_mark = self.trace.subcall_mark()
        bus = self.bus
        bus_mark = bus.subcall_mark() if bus is not None else None
        inner = Message(
            address=msg.address, caller=msg.caller, origin=msg.origin,
            value=msg.value, data=data, gas=call_gas,
            code=self.world.get_code(target), is_delegate=True)
        result = self._call(inner, depth + 1)
        if result.success:
            self.world.commit(snapshot)
        else:
            self.world.revert_to(snapshot)
            self.trace.rollback_subcall(trace_mark)
            if bus is not None:
                bus.rollback_subcall(bus_mark)
            if event is not None:
                event.callee_error = result.error
        if ret_size and result.returndata:
            frame.memory.write(ret_off, result.returndata[:ret_size])
        if event is not None:
            event.success = result.success
            stack.push(1 if result.success else 0,
                       Shadow(frozenset({call_result_tag(event.index)})))
        else:
            stack.push(1 if result.success else 0)
        return gas - (call_gas - result.gas_left)

    # -- branch recording -------------------------------------------------------

    def _record_branch(self, pc: int, address: int, depth: int, cond: int,
                       taken: bool, dest: int, shadow: Shadow) -> None:
        if not self.rec_branch:
            return
        event = BranchEvent(pc, address, depth, cond, taken, dest,
                            shadow.taints, shadow.dist_true,
                            shadow.dist_false)
        self.trace.branches.append(event)
        self.trace.branch_edges.add((address, pc, taken))
        for tag in shadow.taints:
            if is_call_result_tag(tag):
                idx = int(tag.split(":", 1)[1])
                if idx < len(self.trace.calls):
                    self.trace.calls[idx].checked = True
        for deliver in self.sub_branch:
            deliver(event, self.oracle_ctx)


