"""Unit tests for the EVM: stack, memory, machine semantics, traces."""

import pytest

from repro.chain.blockchain import BlockContext
from repro.chain.state import WorldState
from repro.evm.errors import StackOverflow, StackUnderflow
from repro.evm.machine import Machine, Message, keccak
from repro.evm.memory import Memory
from repro.evm.opcodes import Op, is_push, mnemonic, push_width
from repro.evm.stack import STACK_LIMIT, Stack
from repro.evm.trace import (
    EMPTY_SHADOW,
    Shadow,
    Taint,
    combine_and,
    combine_or,
    comparison_shadow,
)

U256 = 1 << 256


def run_code(code: bytes, calldata: bytes = b"", value: int = 0,
             gas: int = 1_000_000):
    """Execute raw bytecode in a fresh world; returns (result, machine)."""
    world = WorldState()
    world.account(0xAAA)
    world.set_balance(0xBEEF, 10 ** 20)
    machine = Machine(world, BlockContext())
    msg = Message(address=0xAAA, caller=0xBEEF, origin=0xBEEF, value=value,
                  data=calldata, gas=gas, code=code)
    return machine.execute(msg), machine


def asm(*ops) -> bytes:
    """Tiny helper: ints are opcodes; tuples (PUSH-value, width)."""
    out = bytearray()
    for op in ops:
        if isinstance(op, tuple):
            value, width = op
            out.append(0x60 + width - 1)
            out.extend(value.to_bytes(width, "big"))
        else:
            out.append(op)
    return bytes(out)


def push1(v):
    return (v, 1)


class TestStack:
    def test_push_pop(self):
        stack = Stack()
        stack.push(42)
        value, shadow = stack.pop()
        assert value == 42
        assert shadow is EMPTY_SHADOW

    def test_underflow(self):
        with pytest.raises(StackUnderflow):
            Stack().pop()

    def test_overflow_at_limit(self):
        stack = Stack()
        for i in range(STACK_LIMIT):
            stack.push(i)
        with pytest.raises(StackOverflow):
            stack.push(0)

    def test_dup_copies_shadow(self):
        stack = Stack()
        shadow = Shadow(frozenset({Taint.BLOCK}))
        stack.push(7, shadow)
        stack.dup(1)
        _, top_shadow = stack.pop()
        assert top_shadow.taints == {Taint.BLOCK}

    def test_swap(self):
        stack = Stack()
        stack.push(1)
        stack.push(2)
        stack.swap(1)
        assert stack.pop_value() == 1
        assert stack.pop_value() == 2


class TestMemory:
    def test_word_roundtrip(self):
        memory = Memory()
        memory.store_word(64, 0xDEADBEEF)
        value, _ = memory.load_word(64)
        assert value == 0xDEADBEEF

    def test_expansion_is_zero_filled(self):
        memory = Memory()
        value, _ = memory.load_word(1000)
        assert value == 0

    def test_shadow_stored_and_loaded(self):
        memory = Memory()
        memory.store_word(0, 5, Shadow(frozenset({Taint.CALLDATA})))
        _, shadow = memory.load_word(0)
        assert Taint.CALLDATA in shadow.taints

    def test_range_taints(self):
        memory = Memory()
        memory.store_word(32, 5, Shadow(frozenset({Taint.BLOCK})))
        assert Taint.BLOCK in memory.range_taints(0, 64)
        assert memory.range_taints(64, 32) == frozenset()

    def test_byte_write(self):
        memory = Memory()
        memory.store_byte(31, 0xFF)
        value, _ = memory.load_word(0)
        assert value == 0xFF


class TestOpcodes:
    def test_push_detection(self):
        assert is_push(0x60) and is_push(0x7F)
        assert not is_push(0x5F) and not is_push(0x80)

    def test_push_width(self):
        assert push_width(0x60) == 1
        assert push_width(0x7F) == 32

    def test_mnemonics(self):
        assert mnemonic(Op.ADD) == "ADD"
        assert mnemonic(0x60) == "PUSH1"
        assert mnemonic(0xEF) == "UNKNOWN_ef"


class TestMachineArithmetic:
    @pytest.mark.parametrize("op,a,b,expected", [
        (Op.ADD, 3, 4, 7),
        (Op.MUL, 3, 4, 12),
        (Op.SUB, 4, 3, 1),           # top - second
        (Op.DIV, 12, 4, 3),
        (Op.DIV, 1, 0, 0),
        (Op.MOD, 14, 4, 2),
        (Op.EXP, 2, 10, 1024),
    ])
    def test_binary_op(self, op, a, b, expected):
        # push b then a so a is on top (first operand)
        code = asm(push1(b), push1(a), op,
                   push1(0), Op.MSTORE, push1(32), push1(0), Op.RETURN)
        result, _ = run_code(code)
        assert result.success
        assert int.from_bytes(result.returndata, "big") == expected

    def test_add_wraps_and_records_overflow(self):
        code = asm((U256 - 1, 32), push1(2), Op.ADD, Op.STOP)
        result, machine = run_code(code)
        assert result.success
        assert len(machine.trace.overflows) == 1
        assert machine.trace.overflows[0].result == 1

    def test_sub_underflow_recorded(self):
        code = asm(push1(1), push1(0), Op.SUB, Op.STOP)  # 0 - 1
        _, machine = run_code(code)
        assert machine.trace.overflows[0].op_name == "SUB"

    def test_no_overflow_event_for_exact_arithmetic(self):
        code = asm(push1(1), push1(2), Op.ADD, Op.STOP)
        _, machine = run_code(code)
        assert machine.trace.overflows == []


class TestMachineControl:
    def test_jump_to_jumpdest(self):
        # JUMP over an INVALID to a JUMPDEST then STOP
        code = asm(push1(4), Op.JUMP, Op.INVALID, Op.JUMPDEST, Op.STOP)
        # pc4 must be JUMPDEST: PUSH1(2) + JUMP(1) + INVALID(1) = offset 4 ✓
        result, _ = run_code(code)
        assert result.success

    def test_jump_to_non_jumpdest_fails(self):
        code = asm(push1(3), Op.JUMP, Op.STOP)
        result, _ = run_code(code)
        assert not result.success
        assert "InvalidJump" in result.error

    def test_jumpi_taken_and_not_taken(self):
        for cond, expect_success in ((1, True), (0, False)):
            # JUMPI over an INVALID when cond is true
            # layout: PUSH1 cond @0, PUSH1 9 @2, JUMPI @4, INVALID @5,
            #         STOP @6-8, JUMPDEST @9, STOP @10
            code = asm(push1(cond), push1(9), Op.JUMPI, Op.INVALID,
                       Op.STOP, Op.STOP, Op.STOP, Op.JUMPDEST, Op.STOP)
            result, machine = run_code(code)
            assert result.success is expect_success
            assert machine.trace.branches[0].taken is (cond == 1)

    def test_branch_event_records_distance(self):
        # compare 5 < 3 (false) then JUMPI
        code = asm(push1(3), push1(5), Op.LT, push1(9), Op.JUMPI,
                   Op.STOP, Op.STOP, Op.STOP, Op.STOP, Op.JUMPDEST, Op.STOP)
        _, machine = run_code(code)
        event = machine.trace.branches[0]
        assert event.taken is False
        assert event.dist_true == 3  # 5 < 3 needs 5 -> 2: distance 3

    def test_out_of_gas(self):
        code = asm(push1(0), push1(0), Op.SSTORE, Op.STOP)
        result, _ = run_code(code, gas=100)
        assert not result.success
        assert "OutOfGas" in result.error

    def test_step_budget_stops_infinite_loop(self):
        code = asm(Op.JUMPDEST, push1(0), Op.JUMP)
        result, _ = run_code(code, gas=10 ** 12)
        assert not result.success

    def test_revert(self):
        code = asm(push1(0), push1(0), Op.REVERT)
        result, _ = run_code(code)
        assert not result.success
        assert "revert" in result.error


class TestMachineEnvironment:
    def test_caller_and_origin_tainted(self):
        code = asm(Op.CALLER, Op.ORIGIN, Op.EQ, Op.STOP)
        _, machine = run_code(code)
        compare = machine.trace.compares[0]
        assert Taint.CALLER in compare.taints
        assert Taint.ORIGIN in compare.taints

    def test_timestamp_taints_branch(self):
        code = asm(Op.TIMESTAMP, push1(5), Op.JUMPI, Op.STOP,
                   Op.STOP, Op.JUMPDEST, Op.STOP)
        _, machine = run_code(code)
        assert Taint.BLOCK in machine.trace.branches[0].taints
        assert machine.trace.block_reads[0].op_name == "TIMESTAMP"

    def test_balance_taint_reaches_compare(self):
        code = asm(push1(0xAA), Op.BALANCE, push1(7), Op.EQ, Op.STOP)
        _, machine = run_code(code)
        assert Taint.BALANCE in machine.trace.compares[0].taints

    def test_calldataload(self):
        code = asm(push1(0), Op.CALLDATALOAD,
                   push1(0), Op.MSTORE, push1(32), push1(0), Op.RETURN)
        result, _ = run_code(code, calldata=(77).to_bytes(32, "big"))
        assert int.from_bytes(result.returndata, "big") == 77

    def test_callvalue(self):
        code = asm(Op.CALLVALUE, push1(0), Op.MSTORE,
                   push1(32), push1(0), Op.RETURN)
        result, _ = run_code(code, value=123)
        assert int.from_bytes(result.returndata, "big") == 123

    def test_sha3_deterministic(self):
        code = asm(push1(99), push1(0), Op.MSTORE,
                   push1(32), push1(0), Op.SHA3,
                   push1(0), Op.MSTORE, push1(32), push1(0), Op.RETURN)
        result, _ = run_code(code)
        expected = keccak((99).to_bytes(32, "big"))
        assert int.from_bytes(result.returndata, "big") == expected


class TestShadows:
    def test_shadow_is_immutable(self):
        """Interned shadows are shared by every frame: none may change."""
        shadow = Shadow(frozenset({Taint.CALLDATA}), 3, 0)
        with pytest.raises(AttributeError):
            shadow.dist_true = 0
        with pytest.raises(AttributeError):
            EMPTY_SHADOW.taints = frozenset({Taint.BLOCK})
        assert EMPTY_SHADOW == Shadow(frozenset(), None, None)

    def test_equal_shadows_hash_equal(self):
        """Fused code generation interns shadows in a dict by value."""
        shadow = Shadow(frozenset({Taint.CALLDATA}), 3, 0)
        twin = Shadow(frozenset({Taint.CALLDATA}), 3, 0)
        assert twin == shadow and hash(twin) == hash(shadow)
        assert {shadow: "S0"}[twin] == "S0"
        assert hash(Shadow()) == hash(EMPTY_SHADOW)
        assert shadow != Shadow(frozenset({Taint.CALLDATA}), 0, 3)

    def test_with_taints_and_negated(self):
        shadow = Shadow(frozenset({Taint.CALLDATA}), 3, 0)
        assert shadow.with_taints(frozenset()) is shadow
        assert shadow.with_taints(frozenset({Taint.BLOCK})) == Shadow(
            frozenset({Taint.CALLDATA, Taint.BLOCK}), 3, 0)
        assert shadow.negated() == Shadow(frozenset({Taint.CALLDATA}), 0, 3)

    def test_comparison_shadow_lt(self):
        shadow = comparison_shadow("LT", 5, 3, frozenset())
        assert shadow.dist_true == 3 and shadow.dist_false == 0
        shadow = comparison_shadow("LT", 2, 9, frozenset())
        assert shadow.dist_true == 0 and shadow.dist_false == 7

    def test_comparison_shadow_eq(self):
        shadow = comparison_shadow("EQ", 10, 4, frozenset())
        assert shadow.dist_true == 6 and shadow.dist_false == 0
        shadow = comparison_shadow("EQ", 4, 4, frozenset())
        assert shadow.dist_true == 0 and shadow.dist_false == 1

    def test_negated_swaps_distances(self):
        shadow = comparison_shadow("GT", 1, 5, frozenset()).negated()
        assert shadow.dist_true == 0  # NOT(1>5) is true

    def test_combine_and(self):
        a = comparison_shadow("LT", 5, 3, frozenset())   # false, dist 3
        b = comparison_shadow("LT", 1, 9, frozenset())   # true
        combined = combine_and(a, b)
        assert combined.dist_true == 3
        assert combined.dist_false == 0

    def test_combine_or(self):
        a = comparison_shadow("EQ", 5, 3, frozenset())   # false, dist 2
        b = comparison_shadow("EQ", 9, 4, frozenset())   # false, dist 5
        combined = combine_or(a, b)
        assert combined.dist_true == 2
        assert combined.dist_false == 0

    def test_signed_comparison(self):
        minus_one = U256 - 1
        shadow = comparison_shadow("SLT", minus_one, 1, frozenset())
        assert shadow.dist_true == 0  # -1 < 1
