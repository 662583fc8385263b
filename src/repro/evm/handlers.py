"""Per-opcode handler functions for the table-dispatch interpreter.

Each handler executes one non-control-flow opcode against a
:class:`~repro.evm.machine.Machine` (passed explicitly — this module never
imports the machine, keeping the dependency graph acyclic:
``opcodes/trace/errors → handlers → analysis → machine``).

Handler signature::

    handler(machine, pc, frame, depth, gas) -> None | ("halt", bytes) | ("gas", int)

``None`` means ordinary fallthrough; ``("halt", returndata)`` ends the
frame successfully; ``("gas", new_gas)`` reports dynamic gas consumption
(the CALL family).  Exceptional halts raise :class:`~repro.evm.errors`
types exactly like the pre-table interpreter did.

Hot-loop discipline: opcode names are baked into the handlers as literal
strings (no ``Op(op).name`` enum construction per event), taint-source
shadows are interned module-level singletons, and merged-taint shadows
reuse :data:`EMPTY_SHADOW` whenever the union is empty.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.evm.errors import InvalidOpcode, Revert, StackUnderflow
from repro.evm.opcodes import Op
from repro.evm.trace import (
    EMPTY_SHADOW,
    BlockStateEvent,
    CompareEvent,
    OverflowEvent,
    SelfDestructEvent,
    Shadow,
    StorageEvent,
    Taint,
    U256_MAX,
    combine_and,
    combine_or,
    comparison_shadow,
    merge_taints,
)

WORD = 1 << 256

#: interned shadows for the taint-source opcodes (one frozenset + Shadow
#: allocation per process instead of one per executed instruction)
BALANCE_SHADOW = Shadow(frozenset({Taint.BALANCE}))
ORIGIN_SHADOW = Shadow(frozenset({Taint.ORIGIN}))
CALLER_SHADOW = Shadow(frozenset({Taint.CALLER}))
CALLVALUE_SHADOW = Shadow(frozenset({Taint.CALLVALUE}))
CALLDATA_SHADOW = Shadow(frozenset({Taint.CALLDATA}))
BLOCK_SHADOW = Shadow(frozenset({Taint.BLOCK}))


#: SHA3 preimages during a campaign are overwhelmingly repeated (storage
#: slot derivation over a handful of keys), so a small LRU in front of the
#: digest pays for itself; bounded to keep long-tail campaigns flat.
_KECCAK_CACHE: OrderedDict[bytes, int] = OrderedDict()
_KECCAK_CACHE_CAPACITY = 1024


def keccak(data: bytes) -> int:
    """Contract-visible hash (sha3-256 stands in for keccak-256 offline)."""
    cached = _KECCAK_CACHE.get(data)
    if cached is not None:
        _KECCAK_CACHE.move_to_end(data)
        return cached
    value = int.from_bytes(hashlib.sha3_256(data).digest(), "big")
    if len(_KECCAK_CACHE) >= _KECCAK_CACHE_CAPACITY:
        _KECCAK_CACHE.popitem(last=False)
    _KECCAK_CACHE[bytes(data)] = value
    return value


def _shadow(taints: frozenset) -> Shadow:
    """Taint-only shadow, interned for the (very common) untainted case."""
    return Shadow(taints) if taints else EMPTY_SHADOW


#: handlers with net-negative or neutral stack effect manipulate the
#: value/shadow lists directly (no push/pop method-call overhead); the
#: underflow message matches :meth:`repro.evm.stack.Stack.pop` exactly
_UNDERFLOW = "pop from empty stack"


# -- arithmetic ---------------------------------------------------------------


def _make_wrapping_arith(name: str, compute):
    """ADD / SUB / MUL: wraps mod 2**256 and records truncation events."""

    def handler(m, pc, frame, depth, gas):
        stack = frame.stack
        values = stack.values
        shadows = stack.shadows
        if len(values) < 2:
            raise StackUnderflow(_UNDERFLOW)
        x = values.pop()
        sx = shadows.pop()
        y = values.pop()
        sy = shadows.pop()
        raw = compute(x, y)
        result = raw % WORD
        if raw != result and m.rec_overflow:
            event = OverflowEvent(pc, frame.msg.address, depth, name, x, y,
                                  result)
            m.trace.overflows.append(event)
            for deliver in m.sub_overflow:
                deliver(event, m.oracle_ctx)
        values.append(result)
        shadows.append(_shadow(merge_taints(sx, sy)))

    return handler


def _op_div(m, pc, frame, depth, gas):
    stack = frame.stack
    x, sx = stack.pop()
    y, sy = stack.pop()
    stack.push(x // y if y else 0, _shadow(merge_taints(sx, sy)))


def _op_mod(m, pc, frame, depth, gas):
    stack = frame.stack
    x, sx = stack.pop()
    y, sy = stack.pop()
    stack.push(x % y if y else 0, _shadow(merge_taints(sx, sy)))


def _make_signed_divmod(is_div: bool):
    def handler(m, pc, frame, depth, gas):
        stack = frame.stack
        x, sx = stack.pop()
        y, sy = stack.pop()
        sx_v = x - WORD if x >= WORD // 2 else x
        sy_v = y - WORD if y >= WORD // 2 else y
        if sy_v == 0:
            result = 0
        elif is_div:
            result = abs(sx_v) // abs(sy_v) * (1 if sx_v * sy_v > 0 else -1)
        else:
            result = abs(sx_v) % abs(sy_v) * (1 if sx_v >= 0 else -1)
        stack.push(result % WORD, _shadow(merge_taints(sx, sy)))

    return handler


def _make_modular(is_add: bool):
    def handler(m, pc, frame, depth, gas):
        stack = frame.stack
        x, sx = stack.pop()
        y, sy = stack.pop()
        mod, sm = stack.pop()
        if mod == 0:
            result = 0
        elif is_add:
            result = (x + y) % mod
        else:
            result = (x * y) % mod
        stack.push(result, _shadow(merge_taints(sx, sy, sm)))

    return handler


def _op_exp(m, pc, frame, depth, gas):
    stack = frame.stack
    x, sx = stack.pop()
    y, sy = stack.pop()
    stack.push(pow(x, y, WORD), _shadow(merge_taints(sx, sy)))


def _op_signextend(m, pc, frame, depth, gas):
    stack = frame.stack
    b, sb = stack.pop()
    x, sx = stack.pop()
    if b < 31:
        bit = 8 * (b + 1) - 1
        if x & (1 << bit):
            x |= WORD - (1 << (bit + 1))
        else:
            x &= (1 << (bit + 1)) - 1
    stack.push(x % WORD, _shadow(merge_taints(sb, sx)))


# -- comparisons / boolean logic ----------------------------------------------


def _make_comparison(name: str):
    def handler(m, pc, frame, depth, gas):
        stack = frame.stack
        values = stack.values
        shadows = stack.shadows
        if len(values) < 2:
            raise StackUnderflow(_UNDERFLOW)
        x = values.pop()
        sx = shadows.pop()
        y = values.pop()
        sy = shadows.pop()
        taints = merge_taints(sx, sy)
        shadow = comparison_shadow(name, x, y, taints)
        if m.rec_compare:
            event = CompareEvent(pc, frame.msg.address, depth, name, x, y,
                                 taints)
            m.trace.compares.append(event)
            for deliver in m.sub_compare:
                deliver(event, m.oracle_ctx)
        if taints and Taint.CALLER in taints:
            frame.caller_checked = True
        values.append(1 if shadow.dist_true == 0 else 0)
        shadows.append(shadow)

    return handler


def _op_iszero(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if not values:
        raise StackUnderflow(_UNDERFLOW)
    x = values.pop()
    sx = shadows.pop()
    if sx.dist_true is None:
        sx = comparison_shadow("EQ", x, 0, sx.taints)
    values.append(0 if x else 1)
    shadows.append(sx.negated())


def _op_and(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if len(values) < 2:
        raise StackUnderflow(_UNDERFLOW)
    x = values.pop()
    sx = shadows.pop()
    y = values.pop()
    sy = shadows.pop()
    # Boolean AND of two comparison results keeps distance info.
    if sx.dist_true is not None and sy.dist_true is not None:
        shadow = combine_and(sx, sy)
    else:
        shadow = _shadow(merge_taints(sx, sy))
    values.append(x & y)
    shadows.append(shadow)


def _op_or(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if len(values) < 2:
        raise StackUnderflow(_UNDERFLOW)
    x = values.pop()
    sx = shadows.pop()
    y = values.pop()
    sy = shadows.pop()
    if sx.dist_true is not None and sy.dist_true is not None:
        shadow = combine_or(sx, sy)
    else:
        shadow = _shadow(merge_taints(sx, sy))
    values.append(x | y)
    shadows.append(shadow)


def _op_xor(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if len(values) < 2:
        raise StackUnderflow(_UNDERFLOW)
    x = values.pop()
    sx = shadows.pop()
    y = values.pop()
    sy = shadows.pop()
    values.append(x ^ y)
    shadows.append(_shadow(merge_taints(sx, sy)))


def _op_not(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if not values:
        raise StackUnderflow(_UNDERFLOW)
    x = values.pop()
    sx = shadows.pop()
    values.append(U256_MAX ^ x)
    shadows.append(_shadow(sx.taints))


def _op_byte(m, pc, frame, depth, gas):
    stack = frame.stack
    i, si = stack.pop()
    x, sx = stack.pop()
    result = (x >> (8 * (31 - i))) & 0xFF if i < 32 else 0
    stack.push(result, _shadow(merge_taints(si, sx)))


def _op_shl(m, pc, frame, depth, gas):
    stack = frame.stack
    shift, ss = stack.pop()
    x, sx = stack.pop()
    result = (x << shift) % WORD if shift < 256 else 0
    stack.push(result, _shadow(merge_taints(ss, sx)))


def _op_shr(m, pc, frame, depth, gas):
    stack = frame.stack
    shift, ss = stack.pop()
    x, sx = stack.pop()
    result = x >> shift if shift < 256 else 0
    stack.push(result, _shadow(merge_taints(ss, sx)))


def _op_sha3(m, pc, frame, depth, gas):
    stack = frame.stack
    offset = stack.pop_value()
    size = stack.pop_value()
    data = frame.memory.read(offset, size)
    taints = frame.memory.range_taints(offset, size)
    stack.push(keccak(data), _shadow(taints))


# -- environment --------------------------------------------------------------


def _op_address(m, pc, frame, depth, gas):
    frame.stack.push(frame.msg.address)


def _op_balance(m, pc, frame, depth, gas):
    target = frame.stack.pop_value()
    frame.stack.push(m.world.get_balance(target), BALANCE_SHADOW)


def _op_origin(m, pc, frame, depth, gas):
    frame.stack.push(frame.msg.origin, ORIGIN_SHADOW)


def _op_caller(m, pc, frame, depth, gas):
    frame.stack.push(frame.msg.caller, CALLER_SHADOW)


def _op_callvalue(m, pc, frame, depth, gas):
    frame.stack.push(frame.msg.value, CALLVALUE_SHADOW)


def _op_calldataload(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if not values:
        raise StackUnderflow(_UNDERFLOW)
    offset = values.pop()
    shadows.pop()
    word = frame.msg.data[offset:offset + 32]
    if len(word) < 32:
        word = word + b"\x00" * (32 - len(word))
    values.append(int.from_bytes(word, "big"))
    shadows.append(CALLDATA_SHADOW)


def _op_calldatasize(m, pc, frame, depth, gas):
    frame.stack.push(len(frame.msg.data))


def _op_codesize(m, pc, frame, depth, gas):
    frame.stack.push(len(frame.msg.code))


def _op_gasprice(m, pc, frame, depth, gas):
    frame.stack.push(1)


def _make_blockstate(name: str, read):
    """TIMESTAMP / NUMBER / COINBASE / DIFFICULTY / GASLIMIT."""

    def handler(m, pc, frame, depth, gas):
        if m.rec_block:
            event = BlockStateEvent(
                pc=pc, address=frame.msg.address, depth=depth, op_name=name)
            m.trace.block_reads.append(event)
            for deliver in m.sub_block:
                deliver(event, m.oracle_ctx)
        frame.stack.push(read(m), BLOCK_SHADOW)

    return handler


def _op_blockhash(m, pc, frame, depth, gas):
    if m.rec_block:
        event = BlockStateEvent(
            pc=pc, address=frame.msg.address, depth=depth,
            op_name="BLOCKHASH")
        m.trace.block_reads.append(event)
        for deliver in m.sub_block:
            deliver(event, m.oracle_ctx)
    height = frame.stack.pop_value()
    value = keccak(height.to_bytes(32, "big")) if height else 0
    frame.stack.push(value, BLOCK_SHADOW)


# -- stack / memory / storage -------------------------------------------------


def _op_pop(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    if not values:
        raise StackUnderflow(_UNDERFLOW)
    values.pop()
    stack.shadows.pop()


def _op_mload(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if not values:
        raise StackUnderflow(_UNDERFLOW)
    offset = values.pop()
    shadows.pop()
    value, shadow = frame.memory.load_word(offset)
    values.append(value)
    shadows.append(shadow)


def _op_mstore(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if len(values) < 2:
        raise StackUnderflow(_UNDERFLOW)
    offset = values.pop()
    shadows.pop()
    value = values.pop()
    shadow = shadows.pop()
    frame.memory.store_word(offset, value, shadow)


def _op_mstore8(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if len(values) < 2:
        raise StackUnderflow(_UNDERFLOW)
    offset = values.pop()
    shadows.pop()
    value = values.pop()
    shadows.pop()
    frame.memory.store_byte(offset, value)


def _op_sload(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if not values:
        raise StackUnderflow(_UNDERFLOW)
    slot = values.pop()
    shadows.pop()
    addr = frame.msg.address
    value, shadow = m.world.get_storage(addr, slot)
    if m.rec_storage:
        event = StorageEvent(pc, addr, depth, "read", slot, value)
        m.trace.storage_ops.append(event)
        for deliver in m.sub_storage:
            deliver(event, m.oracle_ctx)
    values.append(value)
    shadows.append(shadow)


def _op_sstore(m, pc, frame, depth, gas):
    stack = frame.stack
    values = stack.values
    shadows = stack.shadows
    if len(values) < 2:
        raise StackUnderflow(_UNDERFLOW)
    slot = values.pop()
    shadows.pop()
    value = values.pop()
    shadow = shadows.pop()
    addr = frame.msg.address
    if not shadow.taints:
        stored = EMPTY_SHADOW
    elif shadow.dist_true is None and shadow.dist_false is None:
        stored = shadow  # already taint-only: no stripping copy needed
    else:
        stored = Shadow(shadow.taints)
    m.world.set_storage(addr, slot, value, stored)
    if m.rec_storage:
        event = StorageEvent(pc, addr, depth, "write", slot, value,
                             frame.made_external_call)
        m.trace.storage_ops.append(event)
        for deliver in m.sub_storage:
            deliver(event, m.oracle_ctx)


def _op_pc(m, pc, frame, depth, gas):
    frame.stack.push(pc)


def _op_msize(m, pc, frame, depth, gas):
    frame.stack.push(len(frame.memory))


def _op_gas(m, pc, frame, depth, gas):
    frame.stack.push(max(gas, 0))


def _make_log(topics: int):
    def handler(m, pc, frame, depth, gas):
        pop = frame.stack.pop
        for _ in range(2 + topics):
            pop()

    return handler


# -- halting ------------------------------------------------------------------


def _op_return(m, pc, frame, depth, gas):
    stack = frame.stack
    offset = stack.pop_value()
    size = stack.pop_value()
    return ("halt", frame.memory.read(offset, size))


def _op_revert(m, pc, frame, depth, gas):
    stack = frame.stack
    offset = stack.pop_value()
    size = stack.pop_value()
    raise Revert(frame.memory.read(offset, size).hex() or "explicit revert")


def _op_invalid(m, pc, frame, depth, gas):
    raise InvalidOpcode(f"INVALID at pc={pc}")


def _op_selfdestruct(m, pc, frame, depth, gas):
    msg = frame.msg
    addr = msg.address
    beneficiary = frame.stack.pop_value()
    if m.rec_selfdestruct:
        event = SelfDestructEvent(
            pc=pc, address=addr, depth=depth,
            beneficiary=beneficiary, caller=msg.caller, origin=msg.origin,
            guarded_by_caller_check=frame.caller_checked)
        m.trace.selfdestructs.append(event)
        for deliver in m.sub_selfdestruct:
            deliver(event, m.oracle_ctx)
    balance = m.world.get_balance(addr)
    if balance:
        m.world.transfer(addr, beneficiary, balance)
    m.world.mark_destroyed(addr)
    return ("halt", b"")


def _op_call(m, pc, frame, depth, gas):
    return ("gas", m._op_call(pc, frame, depth, gas))


def _op_delegatecall(m, pc, frame, depth, gas):
    return ("gas", m._op_delegatecall(pc, frame, depth, gas))


def _op_create(m, pc, frame, depth, gas):
    raise InvalidOpcode("CREATE is not supported by the MiniSol EVM")


def make_unhandled(op: int):
    """Defined-but-unimplemented opcode: defer the error to execution time."""

    def handler(m, pc, frame, depth, gas):
        raise InvalidOpcode(f"unhandled opcode {op:#x} at pc={pc}")

    return handler


#: op byte → handler, for every opcode executed outside the dispatch loop's
#: inlined control-flow cases (PUSH/DUP/SWAP/JUMP/JUMPI/JUMPDEST/STOP)
SIMPLE_HANDLERS: dict[int, object] = {
    Op.ADD: _make_wrapping_arith("ADD", lambda x, y: x + y),
    Op.SUB: _make_wrapping_arith("SUB", lambda x, y: x - y),
    Op.MUL: _make_wrapping_arith("MUL", lambda x, y: x * y),
    Op.DIV: _op_div,
    Op.MOD: _op_mod,
    Op.SDIV: _make_signed_divmod(is_div=True),
    Op.SMOD: _make_signed_divmod(is_div=False),
    Op.ADDMOD: _make_modular(is_add=True),
    Op.MULMOD: _make_modular(is_add=False),
    Op.EXP: _op_exp,
    Op.SIGNEXTEND: _op_signextend,
    Op.LT: _make_comparison("LT"),
    Op.GT: _make_comparison("GT"),
    Op.SLT: _make_comparison("SLT"),
    Op.SGT: _make_comparison("SGT"),
    Op.EQ: _make_comparison("EQ"),
    Op.ISZERO: _op_iszero,
    Op.AND: _op_and,
    Op.OR: _op_or,
    Op.XOR: _op_xor,
    Op.NOT: _op_not,
    Op.BYTE: _op_byte,
    Op.SHL: _op_shl,
    Op.SHR: _op_shr,
    Op.SHA3: _op_sha3,
    Op.ADDRESS: _op_address,
    Op.BALANCE: _op_balance,
    Op.ORIGIN: _op_origin,
    Op.CALLER: _op_caller,
    Op.CALLVALUE: _op_callvalue,
    Op.CALLDATALOAD: _op_calldataload,
    Op.CALLDATASIZE: _op_calldatasize,
    Op.CODESIZE: _op_codesize,
    Op.GASPRICE: _op_gasprice,
    Op.BLOCKHASH: _op_blockhash,
    Op.TIMESTAMP: _make_blockstate(
        "TIMESTAMP", lambda m: m.block.timestamp),
    Op.NUMBER: _make_blockstate("NUMBER", lambda m: m.block.number),
    Op.COINBASE: _make_blockstate("COINBASE", lambda m: m.block.coinbase),
    Op.DIFFICULTY: _make_blockstate(
        "DIFFICULTY", lambda m: m.block.difficulty),
    Op.GASLIMIT: _make_blockstate("GASLIMIT", lambda m: m.block.gas_limit),
    Op.POP: _op_pop,
    Op.MLOAD: _op_mload,
    Op.MSTORE: _op_mstore,
    Op.MSTORE8: _op_mstore8,
    Op.SLOAD: _op_sload,
    Op.SSTORE: _op_sstore,
    Op.PC: _op_pc,
    Op.MSIZE: _op_msize,
    Op.GAS: _op_gas,
    Op.LOG0: _make_log(0),
    Op.LOG1: _make_log(1),
    Op.RETURN: _op_return,
    Op.REVERT: _op_revert,
    Op.INVALID: _op_invalid,
    Op.SELFDESTRUCT: _op_selfdestruct,
    Op.CALL: _op_call,
    Op.DELEGATECALL: _op_delegatecall,
    Op.CREATE: _op_create,
}
