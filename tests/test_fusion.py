"""Unit tests for block-fused execution (repro.evm.fusion).

Covers the compile-time machinery directly — constant folding (values and
shadows), PUSH+JUMP threading, tier classification and fallback reasons,
the mask-keyed program memo, warm-up compilation and arm gating — plus
end-to-end differential checks that a fused Machine reproduces the table
loop byte for byte on hand-written programs exercising every tier and
bailout path, on compiled contracts whose frames hand off to the table
loop at a CALL or DELEGATECALL and re-enter fused code at a later jump,
and on superblocks that compile mid-campaign or under a reentrant frame.
The hypothesis-based differential sweep lives in test_properties.py.
"""

import dataclasses
import sys
from collections import Counter

import pytest

from repro.chain import BenignAgent, Chain, ReentrantAgent, RejectingAgent
from repro.chain.blockchain import BlockContext
from repro.chain.state import WorldState
from repro.chain.transactions import Transaction
from repro.compiler import compile_source, encode_call
from repro.corpus import generate_d3
from repro.evm import analysis, fusion
from repro.evm.fusion import (
    FUSION_ARM_GATE,
    FUSION_BAILOUT,
    FUSION_WARMUP,
    TIER_BAILOUT,
    TIER_FUSED,
    FusedProgram,
    fused_program,
    fusion_stats,
)
from repro.evm.machine import Machine, Message
from repro.evm.opcodes import Op
from repro.evm.trace import (
    EV_ALL,
    EV_BRANCH,
    EV_COMPARE,
    EV_OVERFLOW,
    BranchEvent,
    CompareEvent,
    OverflowEvent,
    StorageEvent,
    Taint,
)
from repro.orchestrator import run_matrix
from repro.orchestrator.store import canonical_json
from tests.conftest import ALICE

U256 = 1 << 256


def asm(*ops) -> bytes:
    """Ints are opcodes; tuples are (PUSH-value, width)."""
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


def compiled_program(code: bytes, event_mask: int):
    """The fused program with every entry compiled and every arm chained,
    so its ``source`` and compile-time ``stats`` cover all of it (entries
    otherwise compile once warm)."""
    program = fused_program(code, event_mask)
    program.compile_all()
    return program


def run_code(code: bytes, *, block_fusion: bool, event_mask: int = EV_ALL,
             calldata: bytes = b"", gas: int = 1_000_000,
             max_steps: int = 200_000, precompile: bool = True):
    """One transaction.  With block fusion on, ``precompile`` first
    compiles the whole program, so the fused tier runs from the first
    entry; ``precompile=False`` runs the program as cached (from cold in
    a fresh test: warm-up declines and the table loop)."""
    if block_fusion and precompile:
        compiled_program(code, event_mask)
    world = WorldState()
    world.account(0xAAA)
    world.set_balance(0xBEEF, 10 ** 20)
    machine = Machine(world, BlockContext(), max_steps=max_steps,
                      event_mask=event_mask, block_fusion=block_fusion)
    msg = Message(address=0xAAA, caller=0xBEEF, origin=0xBEEF, value=0,
                  data=calldata, gas=gas, code=code)
    return machine.execute(msg), machine


def _trace_tuple(machine):
    t = machine.trace
    return (t.branches, t.compares, t.calls, t.overflows, t.storage_ops,
            t.selfdestructs, t.block_reads, t.branch_edges,
            t.ether_received, t.steps, t.reverted, t.error)


def assert_differential(code: bytes, *, event_mask: int = EV_ALL,
                        calldata: bytes = b"", gas: int = 1_000_000,
                        max_steps: int = 200_000, precompile: bool = True):
    """Fused and table execution must agree on result, trace, and state."""
    res_t, m_t = run_code(code, block_fusion=False, event_mask=event_mask,
                          calldata=calldata, gas=gas, max_steps=max_steps)
    res_f, m_f = run_code(code, block_fusion=True, event_mask=event_mask,
                          calldata=calldata, gas=gas, max_steps=max_steps,
                          precompile=precompile)
    assert (res_f.success, res_f.returndata, res_f.error, res_f.gas_left) \
        == (res_t.success, res_t.returndata, res_t.error, res_t.gas_left)
    assert _trace_tuple(m_f) == _trace_tuple(m_t)
    for addr in (0xAAA,):
        at, af = m_t.world.account(addr), m_f.world.account(addr)
        assert af.storage == at.storage
        assert af.storage_shadow == at.storage_shadow
    return res_f, m_f


@pytest.fixture(autouse=True)
def _fresh_fusion_cache():
    analysis.clear_cache()
    fusion.reset_stats()
    yield
    analysis.clear_cache()
    fusion.reset_stats()


# -- constant folding ---------------------------------------------------------


class TestFolding:
    def test_push_push_add_folds_to_literal(self):
        # PUSH 2, PUSH 3, ADD, PUSH 0, SSTORE
        code = asm(push1(2), push1(3), Op.ADD, push1(0), Op.SSTORE, Op.STOP)
        program = compiled_program(code, 0)
        assert program.stats["folded"] >= 1
        # the folded 5 flows straight into the inlined SSTORE as a baked
        # literal — it is never materialized on the runtime stack
        assert ("m.world.set_storage(frame.msg.address, 0, 5, ES)"
                in program.source)
        assert "values.append" not in program.source
        res, m = run_code(code, block_fusion=True, event_mask=0)
        assert res.success
        assert m.world.account(0xAAA).storage[0] == 5

    def test_overflow_event_blocks_wrapping_fold(self):
        # 2**255 * 2 truncates: must NOT fold while EV_OVERFLOW subscribed
        code = asm((1 << 255, 32), push1(2), Op.MUL, Op.POP, Op.STOP)
        masked = compiled_program(code, EV_OVERFLOW)
        unmasked = compiled_program(code, 0)
        assert masked.stats["folded"] < unmasked.stats["folded"]
        # ...and the runtime handler actually records the event
        _, m = run_code(code, block_fusion=True, event_mask=EV_OVERFLOW)
        assert len(m.trace.overflows) == 1
        # non-truncating arithmetic still folds under the same mask
        benign = asm(push1(2), push1(3), Op.ADD, Op.POP, Op.STOP)
        assert compiled_program(benign, EV_OVERFLOW).stats["folded"] >= 1

    def test_compare_event_blocks_comparison_fold(self):
        code = asm(push1(1), push1(2), Op.GT, push1(0), Op.SSTORE, Op.STOP)
        assert compiled_program(code, EV_COMPARE).stats["folded"] == 0
        folded = compiled_program(code, 0)
        assert folded.stats["folded"] >= 1
        # GT pops x=2 (top), y=1: 2 > 1 → 1, baked into the inlined SSTORE
        assert ("m.world.set_storage(frame.msg.address, 0, 1, "
                in folded.source)
        _, m = run_code(code, block_fusion=True, event_mask=EV_COMPARE)
        assert len(m.trace.compares) == 1

    def test_folded_compare_shadow_matches_handler(self):
        # fold ISZERO over a folded EQ: the branch-distance shadow chain
        # must survive into the JUMPI's recorded branch event
        code = asm(push1(5), push1(5), Op.EQ, Op.ISZERO,
                   push1(10), Op.JUMPI, Op.STOP,     # pc 8 JUMPI, pc 9 STOP
                   Op.JUMPDEST, Op.STOP)            # pc 10 JUMPDEST
        # EV_BRANCH records the JUMPI; EV_COMPARE stays off so EQ folds
        res, m = assert_differential(code, event_mask=EV_BRANCH)
        assert res.success
        (branch,) = m.trace.branches
        assert branch.taken is False  # EQ(5,5)→1, ISZERO→0: fallthrough
        # EQ's d_false=1 becomes d_true through ISZERO's negation
        assert branch.dist_true == 1

    def test_dup_swap_pop_operate_on_pending(self):
        code = asm(push1(7), push1(9), Op.SWAP1, Op.DUP2, Op.ADD, Op.POP,
                   Op.POP, Op.STOP)
        program = compiled_program(code, 0)
        # every op folded away: no runtime stack traffic at all (only the
        # overflow precheck inspects the stack)
        assert "append" not in program.source
        assert ".pop()" not in program.source
        assert program.stats["folded"] >= 5
        assert_differential(code, event_mask=0)

    def test_pure_binary_folds_via_absint(self):
        # DIV pops x=20 (top), y... handler computes top / next: 20/5 = 4
        code = asm(push1(5), push1(20), Op.DIV, push1(0), Op.SSTORE,
                   Op.STOP)
        program = compiled_program(code, EV_ALL)
        assert program.stats["folded"] >= 1
        _, m = run_code(code, block_fusion=True)
        assert m.world.account(0xAAA).storage[0] == 4
        assert_differential(code)

    def test_fold_never_taints_caller_checked(self):
        # folded EQ never marks the frame caller-checked (pending constants
        # are untainted by construction) — matching the table loop, where
        # comparing two PUSH immediates carries no CALLER taint either
        code = asm(push1(1), push1(1), Op.EQ, Op.POP, Op.STOP)
        for on in (False, True):
            res, m = run_code(code, block_fusion=on, event_mask=0)
            assert res.success


# -- threading ----------------------------------------------------------------


class TestThreading:
    def test_static_jump_threads_and_chains_inline(self):
        code = asm(push1(4), Op.JUMP, Op.INVALID,    # pc 3 INVALID padding
                   Op.JUMPDEST, Op.STOP)             # pc 4 JUMPDEST
        program = compiled_program(code, 0)
        assert program.stats["threaded"] == 1
        # the target block is spliced into B0's body (superblock chain):
        # its decline guard resumes the table at pc 4, and no trampoline
        # transition (`return B4,`) remains on the path
        assert program.stats["chained"] >= 1
        assert "return FB, gas, steps, 4" in program.source
        assert "return B4," not in program.source
        res, _ = run_code(code, block_fusion=True)
        assert res.success

    def test_countdown_loop_runs_block_to_block(self):
        # i = 3; while i: i -= 1  — JUMPDEST loop with a threaded back edge
        code = asm(push1(3),                       # pc 0..1
                   Op.JUMPDEST,                    # pc 2
                   Op.DUP1, push1(10), Op.JUMPI,   # pc 3..6
                   Op.POP, Op.STOP,                # pc 7..8
                   Op.INVALID,                     # pc 9 (padding)
                   Op.JUMPDEST,                    # pc 10
                   push1(1), Op.SWAP1, Op.SUB,     # pc 11..14
                   push1(2), Op.JUMP)              # pc 15..17
        program = compiled_program(code, 0)
        assert program.stats["threaded"] >= 2
        res, m = assert_differential(code, event_mask=EV_ALL)
        assert res.success
        assert len(m.trace.branches) == 4  # 3 taken + 1 fallthrough

    def test_static_jump_to_non_jumpdest_raises_exact_error(self):
        code = asm(push1(3), Op.JUMP, Op.STOP)
        res_f, _ = run_code(code, block_fusion=True)
        res_t, _ = run_code(code, block_fusion=False)
        assert not res_f.success
        assert res_f.error == res_t.error == "InvalidJump: JUMP to 3 at pc=2"

    def test_dynamic_jump_through_runtime_stack(self):
        # dest arrives via calldata: cannot thread, still must execute
        code = asm(push1(0), Op.CALLDATALOAD, Op.JUMP, Op.INVALID,
                   Op.JUMPDEST, Op.STOP)             # pc 5 JUMPDEST
        data = (5).to_bytes(32, "big")
        res, _ = assert_differential(code, calldata=data)
        assert res.success


# -- positional trace events ---------------------------------------------------


#: field order of the events the EVM builds positionally (fused code and
#: the table-loop handlers pass their arguments in exactly this order)
POSITIONAL_FIELDS = {
    BranchEvent: ("pc", "address", "depth", "condition", "taken", "dest",
                  "taints", "dist_true", "dist_false"),
    CompareEvent: ("pc", "address", "depth", "op_name", "lhs", "rhs",
                   "taints"),
    OverflowEvent: ("pc", "address", "depth", "op_name", "lhs", "rhs",
                    "result"),
    StorageEvent: ("pc", "address", "depth", "kind", "slot", "value",
                   "after_external_call"),
}


class TestPositionalEvents:
    """A reordered event dataclass must fail here, not silently swap
    fields in generated code or in a handler."""

    @pytest.mark.parametrize("cls", list(POSITIONAL_FIELDS),
                             ids=lambda cls: cls.__name__)
    def test_field_order_is_the_emitters_order(self, cls):
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert names == POSITIONAL_FIELDS[cls]

    @pytest.mark.parametrize("block_fusion", [True, False],
                             ids=["fused", "table"])
    def test_each_field_holds_its_value(self, block_fusion):
        """Runtime operands (calldata words) keep every event off the
        constant folder, so both tiers build all four kinds."""
        code = asm(push1(3), push1(0), Op.CALLDATALOAD, Op.LT,  # 5 < 3
                   push1(23), Op.JUMPI,                          # pc 8
                   push1(32), Op.CALLDATALOAD, push1(0), Op.CALLDATALOAD,
                   Op.ADD,                                       # pc 15
                   push1(7), Op.SSTORE, push1(7), Op.SLOAD,      # 18, 21
                   Op.STOP, Op.JUMPDEST, Op.STOP)
        data = (5).to_bytes(32, "big") + (U256 - 1).to_bytes(32, "big")
        result, machine = run_code(code, block_fusion=block_fusion,
                                   calldata=data)
        assert result.success
        trace = machine.trace
        tainted = frozenset({Taint.CALLDATA})
        assert trace.compares == [CompareEvent(
            pc=5, address=0xAAA, depth=0, op_name="LT", lhs=5, rhs=3,
            taints=tainted)]
        assert trace.branches == [BranchEvent(
            pc=8, address=0xAAA, depth=0, condition=0, taken=False,
            dest=23, taints=tainted, dist_true=3, dist_false=0)]
        assert trace.overflows == [OverflowEvent(
            pc=15, address=0xAAA, depth=0, op_name="ADD", lhs=5,
            rhs=U256 - 1, result=4)]
        assert trace.storage_ops == [
            StorageEvent(pc=18, address=0xAAA, depth=0, kind="write",
                         slot=7, value=4, after_external_call=False),
            StorageEvent(pc=21, address=0xAAA, depth=0, kind="read",
                         slot=7, value=4)]


# -- tiers and bailouts -------------------------------------------------------


class TestTiers:
    def test_gas_observing_block_takes_bailout_tier(self):
        code = asm(Op.GAS, Op.POP, Op.STOP)
        program = fused_program(code, 0)
        assert program.tiers[0] == TIER_BAILOUT
        assert program.stats["reasons"] == {"gas_observing": 1}
        before = fusion_stats()["runtime_bailouts"]
        res, _ = assert_differential(code)  # GAS reads the exact counter
        assert res.success
        # entering the block hands the whole frame to the table loop once
        assert fusion_stats()["runtime_bailouts"] - before == 1

    def test_create_block_takes_bailout_tier(self):
        code = asm(push1(0), push1(0), push1(0), Op.CREATE, Op.STOP)
        program = fused_program(code, 0)
        assert program.tiers[0] == TIER_BAILOUT
        assert program.stats["reasons"] == {"raising": 1}
        assert_differential(code)  # table replay raises the same error

    def test_undefined_byte_takes_bailout_tier(self):
        code = asm(push1(1), 0xEF, Op.STOP)
        program = fused_program(code, 0)
        assert program.tiers[0] == TIER_BAILOUT
        assert program.stats["reasons"] == {"undefined": 1}
        assert_differential(code)

    def test_bailout_closure_returns_sentinel_before_executing(self):
        code = asm(push1(0), push1(0), Op.SSTORE, Op.CREATE, Op.STOP)
        program = fused_program(code, 0)
        world = WorldState()
        world.account(0xAAA)
        machine = Machine(world, BlockContext(), block_fusion=True)
        msg = Message(address=0xAAA, caller=0xB, origin=0xB, value=0,
                      data=b"", gas=100, code=code)
        frame_stub = None  # the closure must not touch the frame at all
        nxt, gas, steps, payload = program.entry(machine, frame_stub, 0,
                                                 100, 0)
        assert nxt is FUSION_BAILOUT
        assert (gas, steps, payload) == (100, 0, 0)

    def test_out_of_gas_mid_program_declines_before_the_block(self):
        # enough gas for the first block, not the second: the fused loop
        # must bail to the table, which raises at the exact table pc
        body = [Op.JUMPDEST] + [push1(1), Op.POP] * 8 + [Op.STOP]
        code = asm(push1(3), Op.JUMP, *body)           # pc 3 JUMPDEST
        before = fusion_stats()["runtime_bailouts"]
        res_t, m_t = run_code(code, block_fusion=False, gas=20)
        res_f, m_f = run_code(code, block_fusion=True, gas=20)
        assert not res_f.success
        assert res_f.error == res_t.error
        assert res_f.error.startswith("OutOfGas: out of gas at pc=")
        assert m_f.trace.steps == m_t.trace.steps
        assert fusion_stats()["runtime_bailouts"] > before

    def test_step_budget_exhaustion_matches_table(self):
        # infinite loop, tiny step budget — the prepay precheck must bail
        # before the final block so the table raises at the same step
        code = asm(Op.JUMPDEST, push1(0), Op.JUMP)
        res_f, m_f = run_code(code, block_fusion=True, max_steps=50)
        res_t, m_t = run_code(code, block_fusion=False, max_steps=50)
        assert not res_f.success
        assert res_f.error == res_t.error \
            == "OutOfGas: per-transaction step budget exhausted"
        # the table counts the step that trips the budget before raising
        assert m_f.trace.steps == m_t.trace.steps == 51

    def test_revert_refunds_exact_gas(self):
        code = asm(push1(0), push1(0), Op.REVERT)
        res_f, _ = run_code(code, block_fusion=True, gas=1000)
        res_t, _ = run_code(code, block_fusion=False, gas=1000)
        assert not res_f.success and not res_t.success
        assert res_f.gas_left == res_t.gas_left > 0


# -- caching ------------------------------------------------------------------


class TestCache:
    def test_programs_specialize_per_mask(self):
        code = asm(push1(1), push1(2), Op.LT, Op.POP, Op.STOP)
        folded = compiled_program(code, 0)
        unfolded = compiled_program(code, EV_COMPARE)
        assert folded is not unfolded
        assert folded.stats["folded"] > unfolded.stats["folded"]

    def test_id_memo_keys_on_mask(self):
        # two configs (different oracle masks) sharing one worker process
        # interleave lookups over the *same* code object: the id-memo
        # fast path finds one record for both, and each must keep getting
        # its own specialization from the record's per-mask map
        code = asm(push1(1), push1(2), Op.GT, Op.POP, Op.STOP)
        a0 = fused_program(code, 0)
        b0 = fused_program(code, EV_COMPARE)
        for _ in range(3):
            assert fused_program(code, 0) is a0
            assert fused_program(code, EV_COMPARE) is b0
        assert analysis.analyze_code(code).programs == {0: a0,
                                                        EV_COMPARE: b0}
        assert fusion_stats()["programs"] == 2

    def test_equal_code_different_object_hits_sha_cache(self):
        code = asm(push1(3), Op.POP, Op.STOP)
        first = fused_program(code, 0)
        clone = bytes(bytearray(code))
        assert clone is not code
        assert fused_program(clone, 0) is first
        assert fusion_stats()["programs"] == 1

    def test_empty_code_has_no_entry(self):
        program = fused_program(b"", 0)
        assert isinstance(program, FusedProgram)
        assert program.entry is None
        res, _ = run_code(b"", block_fusion=True)
        assert res.success


# -- compile once warm --------------------------------------------------------

#: a dynamic dispatcher: B0 jumps to the pc held in calldata word 0, and
#: three JUMPDEST entries each store a distinct value and stop
DISPATCH = asm(push1(0), Op.CALLDATALOAD, Op.JUMP,        # pc 0..3
               Op.JUMPDEST, push1(1), push1(0), Op.SSTORE, Op.STOP,  # pc 4
               Op.JUMPDEST, push1(2), push1(0), Op.SSTORE, Op.STOP,  # pc 11
               Op.JUMPDEST, push1(3), push1(0), Op.SSTORE, Op.STOP)  # pc 18

#: B0 ends in a runtime JUMPI on calldata word 0: taken to the JUMPDEST at
#: pc 12, else falling through to the block at pc 6
FORK = asm(push1(0), Op.CALLDATALOAD, push1(12), Op.JUMPI,       # pc 0..5
           push1(1), push1(0), Op.SSTORE, Op.STOP,               # pc 6
           Op.JUMPDEST, push1(2), push1(0), Op.SSTORE, Op.STOP)  # pc 12


#: a reentrancy vault with one more function, ``poke``, whose loop header
#: (a back-edge target) is an entry that only a reentering agent enters
POKE_VAULT = """
contract Vault {
    mapping(address => uint256) shares;
    uint256 pokes;
    function join() public payable { shares[msg.sender] += msg.value; }
    function redeem() public {
        uint256 owed = shares[msg.sender];
        if (owed > 0) {
            bool sent = msg.sender.call.value(owed)();
            require(sent);
            shares[msg.sender] = 0;
        }
    }
    function poke(uint256 n) public {
        for (uint256 i = 0; i < n; i++) { pokes += 1; }
    }
}
"""


def _stub_calls(run) -> Counter:
    """Calls of cold-entry stubs during ``run()``, per entry pc: the
    entries counted toward warm-up (chained bodies and compiled closures
    are not stubs)."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "stub"
                and code.co_filename == fusion.__file__):
            calls[frame.f_locals["start"]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class TestLazyCompile:
    def test_nothing_compiles_until_entered(self):
        program = fused_program(DISPATCH, EV_ALL)
        assert sorted(program.tiers) == [0, 4, 11, 18]
        assert set(program.tiers.values()) == {TIER_FUSED}
        assert program.sources == {}
        assert program.source == ""
        stats = fusion_stats()
        # classification counts at creation, emission counts once warm
        assert stats["programs"] == 1 and stats["blocks_fused"] == 4
        assert stats["entries_compiled"] == 0
        assert stats["folded_ops"] == stats["inlined_ops"] == 0

        to_11 = (11).to_bytes(32, "big")
        for n in range(1, FUSION_WARMUP):
            res, m = assert_differential(DISPATCH, calldata=to_11,
                                         precompile=False)
            assert m.world.account(0xAAA).storage[0] == 2
            # B0 declined, the table loop jumped to 11 and handed the
            # frame back, and B11 declined too: nothing compiled
            assert program.heat == {0: n, 11: n}
            assert program.sources == {}
            stats = fusion_stats()
            assert stats["entries_compiled"] == 0
            assert stats["warmup_declines"] == 2 * n
            assert stats["reentries"] == n
            assert stats["runtime_bailouts"] == 0
        # the warm-up-th entry compiles both entries the frame enters
        assert_differential(DISPATCH, calldata=to_11, precompile=False)
        assert set(program.sources) == {0, 11}
        assert fusion_stats()["entries_compiled"] == 2
        # a cold entry behind compiled code declines and stays a stub
        res, m = assert_differential(DISPATCH, calldata=(18).to_bytes(32,
                                                                      "big"),
                                     precompile=False)
        assert m.world.account(0xAAA).storage[0] == 3
        assert program.heat[18] == 1
        assert set(program.sources) == {0, 11}
        assert fused_program(DISPATCH, EV_ALL) is program
        assert program.entry is program.blocks[0]
        assert program.entry.__name__ == "B0"
        assert program.blocks[4].__name__ == "stub"  # never entered
        # compile_all compiles only what is left
        program.compile_all()
        assert set(program.sources) == {0, 4, 11, 18}
        assert fusion_stats()["entries_compiled"] == 4

    def test_transaction_compiles_exactly_the_entries_it_enters(
            self, crowdsale_artifact):
        chain = Chain(block_fusion=True)
        chain.create_account(ALICE)
        deployed = chain.deploy(crowdsale_artifact, sender=ALICE)
        program = fused_program(crowdsale_artifact.runtime_code,
                                chain.event_mask)
        calls = [("invest", [5]), ("refund", []), ("invest", [10 ** 21]),
                 ("invest", [1]), ("withdraw", [])] * 3
        entries: Counter = Counter()
        for name, args in calls:
            data = encode_call(crowdsale_artifact.abi.function(name), args)
            before = set(program.sources)
            seen = dict(entries)
            entries.update(_stub_calls(lambda: chain.apply(Transaction(
                sender=ALICE, to=deployed.address, data=data))))
            warmed = {pc for pc, n in entries.items()
                      if n >= FUSION_WARMUP > seen.get(pc, 0)}
            assert set(program.sources) == before | warmed
        assert program.sources
        fused = {pc for pc, tier in program.tiers.items()
                 if tier == TIER_FUSED}
        assert set(program.sources) < fused  # never the whole program

    def test_unchained_arm_compiles_as_its_own_entry(self):
        program = fused_program(FORK, EV_ALL)
        fall, taken = (0).to_bytes(32, "big"), (1).to_bytes(32, "big")
        for _ in range(FUSION_WARMUP):
            assert_differential(FORK, calldata=fall, precompile=False)
        # B0 warmed after its fallthrough ran, so only that arm chained;
        # the taken arm, never run, is left to the trampoline
        assert set(program.sources) == {0}
        assert program.heat[6] >= FUSION_ARM_GATE and 12 not in program.heat
        parent = program.sources[0]
        assert "return B12, gas, steps, None" in parent
        assert "return B6," not in parent
        for n in range(1, FUSION_WARMUP + 1):
            res, m = assert_differential(FORK, calldata=taken,
                                         precompile=False)
            assert m.world.account(0xAAA).storage[0] == 2
            assert (12 in program.sources) == (n == FUSION_WARMUP)
        assert program.sources[0] == parent  # the parent never recompiles
        assert fusion_stats()["entries_compiled"] == 2

    def test_partially_compiled_program_serves_a_second_campaign(self):
        contract = generate_d3(count=2)[1]

        def campaign(preset: str) -> str:
            run = run_matrix([(contract.name, contract.source)],
                             presets=(preset,), trials=1,
                             overrides={"iterations": 30, "rng_seed": 11},
                             workers=1, backend="inline")
            assert not run.errors and not run.timeouts
            return canonical_json({o.job.job_id: {**o.result.to_dict(),
                                                  "wall_time": 0.0}
                                   for o in run.outcomes})

        campaign("mufuzz")
        first = fusion_stats()
        assert 0 < first["entries_compiled"] < first["blocks_fused"]
        reused = campaign("sfuzz")
        second = fusion_stats()
        # sfuzz found every program mufuzz built, and warmed new entries
        assert second["programs"] == first["programs"]
        assert second["entries_compiled"] > first["entries_compiled"]

        analysis.clear_cache()
        assert campaign("sfuzz") == reused

    def test_nested_frame_compiles_entries_while_outer_waits_on_table(
            self):
        artifact = compile_source(POKE_VAULT)
        attacker = 0x333

        class CountingAgent(ReentrantAgent):
            """Records, around each reentry, how many entries of the
            vault's program are compiled and how many frames have handed
            off to the table loop so far."""

            def __init__(self, address):
                super().__init__(address)
                self.compiled = []

            def on_call(self, machine, msg, depth):
                program = fused_program(artifact.runtime_code,
                                        machine.event_mask)
                before = len(program.sources)
                handoffs = fusion_stats()["runtime_bailouts"]
                result = super().on_call(machine, msg, depth)
                self.compiled.append((before, len(program.sources),
                                      handoffs))
                return result

        def attack(block_fusion: bool):
            chain = Chain(block_fusion=block_fusion)
            chain.create_account(ALICE)
            agent = CountingAgent(attacker)
            chain.register_agent(attacker, agent)
            deployed = chain.deploy(artifact, sender=ALICE)
            join = encode_call(artifact.abi.function("join"), [])
            redeem = encode_call(artifact.abi.function("redeem"), [])
            # warm redeem's path up to its CALL block
            for _ in range(FUSION_WARMUP):
                chain.apply(Transaction(sender=ALICE, to=deployed.address,
                                        value=10_000, data=join))
                chain.apply(Transaction(sender=ALICE, to=deployed.address,
                                        data=redeem))
            chain.apply(Transaction(sender=attacker, to=deployed.address,
                                    value=1_000, data=join))
            # the nested frame runs a loop no frame has entered yet, long
            # enough for its header to warm
            agent.arm(encode_call(artifact.abi.function("poke"),
                                  [FUSION_WARMUP]))
            start = fusion_stats()["runtime_bailouts"]
            receipt = chain.apply(Transaction(
                sender=attacker, to=deployed.address, data=redeem))
            account = chain.world.account(deployed.address)
            return (receipt.success, receipt.returndata, receipt.error,
                    _trace_tuple(receipt), account.storage,
                    account.storage_shadow, account.balance,
                    chain.world.get_balance(attacker)), \
                agent.compiled, start

        table, _, _ = attack(block_fusion=False)
        fused, compiled, start = attack(block_fusion=True)
        assert fused == table
        assert any(c.reentrant for c in table[3][2])
        # the outer frame ran compiled code to its CALL block and handed
        # off there before the reentry, and the nested frame then
        # compiled the loop's entries
        (before, after, handoffs), = compiled
        assert handoffs > start
        assert after > before


# -- hand-off to the table loop on compiled contracts ------------------------

#: each function's frame hands off to the table loop at its CALL or
#: DELEGATECALL block, then ends in a different tail: a require-revert
#: (``pay`` against a rejecting agent), out of gas in a storage loop
#: (``burn``), the step budget in a local loop (``spin``), or storage
#: written through DELEGATECALL (``run`` with ``Lib.bump``'s selector)
HANDOFF_SOURCE = """
contract Handoff {
    uint256 total;
    address lib;
    function setLib(address l) public { lib = l; }
    function pay(address to) public payable {
        total = total + msg.value;
        bool sent = to.call.value(msg.value)();
        require(sent);
        total = 0;
    }
    function burn(address to, uint256 n) public {
        bool sent = to.call.value(0)();
        for (uint256 i = 0; i < n; i++) { total = total + i; }
    }
    function spin(address to, uint256 n) public {
        bool sent = to.call.value(0)();
        uint256 acc = 0;
        for (uint256 i = 0; i < n; i++) { acc = acc + i; }
        total = acc;
    }
    function run(uint256 d) public {
        lib.delegatecall(d);
        total = total + 1;
    }
}

contract Lib {
    uint256 total;
    function bump() public { total = total + 7; }
}
"""

REJECTER = 0x222
BENIGN = 0x111


def _hand_off(tail: str, block_fusion: bool):
    """Run ``tail``'s transaction :data:`FUSION_WARMUP` times, so the
    entries on its path compile, then once more on a fresh Machine.
    Return everything a fused run must reproduce of that last run, and
    its hand-offs to the table loop and re-entries into fused code."""
    handoff = compile_source(HANDOFF_SOURCE, "Handoff")
    lib = compile_source(HANDOFF_SOURCE, "Lib")
    chain = Chain(block_fusion=block_fusion, max_steps=20_000)
    chain.create_account(ALICE)
    chain.register_agent(REJECTER, RejectingAgent(), balance=0)
    chain.register_agent(BENIGN, BenignAgent(), balance=0)
    target = chain.deploy(handoff, sender=ALICE).address
    library = chain.deploy(lib, sender=ALICE).address
    chain.apply(Transaction(sender=ALICE, to=target, data=encode_call(
        handoff.abi.function("setLib"), [library])))
    bump = encode_call(lib.abi.function("bump"), []).ljust(32, b"\0")
    name, args, gas, value = {
        "require_revert": ("pay", [REJECTER], 10_000_000, 500),
        "out_of_gas": ("burn", [BENIGN, 1000], 100_000, 0),
        "step_budget": ("spin", [BENIGN, 10 ** 9], 10_000_000, 0),
        "delegatecall_write": ("run", [int.from_bytes(bump, "big")],
                               10_000_000, 0),
    }[tail]
    data = encode_call(handoff.abi.function(name), args)
    for _ in range(FUSION_WARMUP):
        chain.apply(Transaction(sender=ALICE, to=target, value=value,
                                gas=gas, data=data))
    before = fusion_stats()
    machine = Machine(chain.world, chain.block, chain.max_steps,
                      event_mask=chain.event_mask, block_fusion=block_fusion)
    result = machine.execute(Message(
        address=target, caller=ALICE, origin=ALICE, value=value, data=data,
        gas=gas, code=chain.world.get_code(target)))
    after = fusion_stats()
    accounts = [chain.world.account(a) for a in (target, library)]
    return (result.success, result.returndata, result.error,
            result.gas_left, _trace_tuple(machine),
            [(a.storage, a.storage_shadow) for a in accounts],
            [chain.world.get_balance(a)
             for a in (target, library, ALICE, REJECTER, BENIGN)]), \
        after["runtime_bailouts"] - before["runtime_bailouts"], \
        after["reentries"] - before["reentries"]


class TestCompiledHandOff:
    @pytest.mark.parametrize("tail, error", [
        ("require_revert", "revert"),
        ("out_of_gas", "OutOfGas: out of gas at pc="),
        ("step_budget", "OutOfGas: per-transaction step budget exhausted"),
        ("delegatecall_write", None),
    ])
    def test_hand_off_then_tail_matches_table(self, tail, error):
        table, _, _ = _hand_off(tail, block_fusion=False)
        fused, handoffs, reentries = _hand_off(tail, block_fusion=True)
        # the warm frame hands off at its CALL or DELEGATECALL block, and
        # the table loop hands it back to compiled code at a later jump
        assert handoffs >= 1 and reentries >= 1
        assert fused == table  # result, gas, trace and steps, storage
        success, _, got, _, _, storage, _ = table
        if error is None:
            assert success
            # Lib's +7, then the caller's +1, in each transaction
            assert storage[0][0][0] == 8 * (FUSION_WARMUP + 1)
        else:
            assert not success
            assert got.startswith(error)


# -- telemetry ----------------------------------------------------------------


class TestTelemetry:
    def test_counters_flow_into_metrics_snapshot(self):
        from repro.telemetry import metrics
        # B0 threads to a bailout-tier block (GAS) whose JUMP leads to a
        # fused-tier entry at pc 10
        code = asm(push1(4), Op.JUMP, Op.INVALID,
                   Op.JUMPDEST, Op.GAS, Op.POP, push1(10), Op.JUMP,
                   Op.JUMPDEST, Op.STOP)
        fused_program(code, EV_ALL)
        for _ in range(FUSION_WARMUP):
            run_code(code, block_fusion=True, precompile=False)
        counters = metrics.snapshot()["counters"]
        assert counters["fusion.programs_compiled"] == 1
        assert counters["fusion.blocks.fused"] == 3  # INVALID's too
        assert counters["fusion.blocks.bailout"] == 1
        assert counters["fusion.fallback.gas_observing"] == 1
        # both fused entries declined until their warm-up-th entry, and
        # the table loop handed every frame back at pc 10
        assert counters["fusion.warmup_declines"] == 2 * (FUSION_WARMUP - 1)
        assert counters["fusion.reentries"] == FUSION_WARMUP
        assert counters["fusion.entries_compiled"] == 2
        assert counters["fusion.threaded_jumps"] >= 1
        # only the compiled B0 handed off, at the bailout-tier block
        assert counters["fusion.runtime_bailouts"] == 1
        assert counters["fusion.fused_steps"] >= 1

    def test_fused_steps_counts_executed_instructions(self):
        code = asm(push1(2), push1(3), Op.ADD, Op.POP, Op.STOP)
        for n in range(1, FUSION_WARMUP + 1):
            run_code(code, block_fusion=True, precompile=False)
            # cold runs execute on the table loop; the warm-up-th compiles
            assert fusion_stats()["fused_steps"] == \
                (5 if n == FUSION_WARMUP else 0)  # prepaid per block
        assert fusion_stats()["warmup_declines"] == FUSION_WARMUP - 1
