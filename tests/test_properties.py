"""Property-based tests (hypothesis) for core invariants (DESIGN.md §6)."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain.blockchain import BlockContext
from repro.chain.state import WorldState
from repro.compiler.abi import decode_words, encode_words
from repro.compiler.layout import StorageLayout
from repro.core.masking import (
    ALL_MUTATIONS,
    MutationMask,
    MutationType,
    SeedMutator,
    mutate_stream,
)
from repro.core.seeds import TxCall
from repro.evm.machine import Machine, Message, keccak
from repro.evm.opcodes import Op
from repro.evm.trace import (
    EV_ALL,
    EV_BRANCH,
    EV_COMPARE,
    EV_OVERFLOW,
    combine_and,
    combine_or,
    comparison_shadow,
)
from repro.analysis.absint import transfer_block
from repro.analysis.cfg import build_cfg
from repro.analysis.disassembler import disassemble
from repro.evm.analysis import analyze_code
from repro.evm.opcodes import is_push
from repro.lang.parser import parse_source

U256 = 1 << 256
u256 = st.integers(min_value=0, max_value=U256 - 1)


def exec_binop(op: int, top: int, second: int):
    """Run one binary opcode in a fresh machine; returns (result, machine)."""
    code = bytes([0x7F]) + second.to_bytes(32, "big") + \
        bytes([0x7F]) + top.to_bytes(32, "big") + \
        bytes([op, 0x60, 0x00, Op.MSTORE, 0x60, 0x20, 0x60, 0x00, Op.RETURN])
    world = WorldState()
    world.account(1)
    machine = Machine(world, BlockContext())
    result = machine.execute(Message(address=1, caller=2, origin=2, value=0,
                                     data=b"", gas=10 ** 6, code=code))
    assert result.success, result.error
    return int.from_bytes(result.returndata, "big"), machine


class TestArithmeticProperties:
    @given(a=u256, b=u256)
    @settings(max_examples=60, deadline=None)
    def test_add_is_mod_2_256(self, a, b):
        result, machine = exec_binop(Op.ADD, a, b)
        assert result == (a + b) % U256
        # overflow event iff the mathematical result was truncated
        assert bool(machine.trace.overflows) == (a + b >= U256)

    @given(a=u256, b=u256)
    @settings(max_examples=60, deadline=None)
    def test_sub_is_mod_2_256(self, a, b):
        result, machine = exec_binop(Op.SUB, a, b)
        assert result == (a - b) % U256
        assert bool(machine.trace.overflows) == (a < b)

    @given(a=u256, b=u256)
    @settings(max_examples=40, deadline=None)
    def test_mul_is_mod_2_256(self, a, b):
        result, machine = exec_binop(Op.MUL, a, b)
        assert result == (a * b) % U256
        assert bool(machine.trace.overflows) == (a * b >= U256)

    @given(a=u256, b=u256)
    @settings(max_examples=40, deadline=None)
    def test_div_matches_python_floor(self, a, b):
        result, _ = exec_binop(Op.DIV, a, b)
        assert result == (a // b if b else 0)


class TestShadowProperties:
    @given(a=u256, b=u256)
    @settings(max_examples=80, deadline=None)
    def test_lt_distance_zero_iff_true(self, a, b):
        shadow = comparison_shadow("LT", a, b, frozenset())
        assert (shadow.dist_true == 0) == (a < b)
        assert (shadow.dist_false == 0) == (a >= b)
        assert shadow.dist_true == 0 or shadow.dist_false == 0

    @given(a=u256, b=u256)
    @settings(max_examples=80, deadline=None)
    def test_eq_distance_zero_iff_equal(self, a, b):
        shadow = comparison_shadow("EQ", a, b, frozenset())
        assert (shadow.dist_true == 0) == (a == b)

    @given(a=u256, b=u256)
    @settings(max_examples=50, deadline=None)
    def test_negation_is_involution(self, a, b):
        shadow = comparison_shadow("GT", a, b, frozenset())
        assert shadow.negated().negated() == shadow

    @given(a1=u256, b1=u256, a2=u256, b2=u256)
    @settings(max_examples=50, deadline=None)
    def test_and_or_distance_consistency(self, a1, b1, a2, b2):
        x = comparison_shadow("LT", a1, b1, frozenset())
        y = comparison_shadow("LT", a2, b2, frozenset())
        both = combine_and(x, y)
        either = combine_or(x, y)
        assert (both.dist_true == 0) == (a1 < b1 and a2 < b2)
        assert (either.dist_true == 0) == (a1 < b1 or a2 < b2)


class TestAbiProperties:
    @given(words=st.lists(u256, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_roundtrip(self, words):
        assert decode_words(encode_words(words)) == words

    @given(words=st.lists(u256, min_size=1, max_size=6), value=u256)
    @settings(max_examples=60, deadline=None)
    def test_txcall_stream_roundtrip(self, words, value):
        call = TxCall(function="f", args=words, value=value)
        decoded = call.apply_stream(call.to_stream())
        assert decoded.args == words
        assert decoded.value == value

    @given(words=st.lists(u256, max_size=6), value=u256, sender=u256,
           delta=st.integers(min_value=-64, max_value=64))
    @settings(max_examples=80, deadline=None)
    def test_txcall_stream_roundtrip_grown_and_shrunk(self, words, value,
                                                      sender, delta):
        """INSERT/DELETE mutations resize the stream; applying any resized
        stream must restore the call's exact word count (shrunk streams
        zero-pad on the right, grown streams truncate), and must never
        touch the function name or sender."""
        call = TxCall(function="f", args=words, value=value, sender=sender)
        stream = call.to_stream()
        resized = (stream[:len(stream) + delta] if delta < 0
                   else stream + b"\xa5" * delta)
        decoded = call.apply_stream(resized)
        assert len(decoded.args) == len(words)
        assert decoded.function == call.function
        assert decoded.sender == call.sender
        # re-encoding yields exactly the resized stream normalized back
        # to the canonical width (pad/truncate is idempotent)
        canonical = (resized[:len(stream)]
                     + b"\x00" * max(0, len(stream) - len(resized)))
        assert decoded.to_stream() == canonical

    @given(words=st.lists(u256, max_size=6), value=u256, sender=u256)
    @settings(max_examples=60, deadline=None)
    def test_txcall_dict_roundtrip_through_json(self, words, value, sender):
        """Checkpoint serialization: to_dict/from_dict is exact through a
        JSON wire hop."""
        import json as _json
        call = TxCall(function="g", args=words, value=value, sender=sender)
        restored = TxCall.from_dict(_json.loads(_json.dumps(call.to_dict())))
        assert restored == call


class TestStorageLayoutProperties:
    @given(n=st.integers(min_value=1, max_value=20),
           key=u256, seed=st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=50, deadline=None)
    def test_mapping_slots_never_collide_with_scalars(self, n, key, seed):
        """keccak(key ‖ slot) must not land in the scalar slot range."""
        slot = seed % n
        element = keccak(key.to_bytes(32, "big") + slot.to_bytes(32, "big"))
        assert element >= n  # scalar slots are 0..n-1

    @given(key1=u256, key2=u256, slot1=st.integers(0, 100),
           slot2=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_mapping_elements_unique(self, key1, key2, slot1, slot2):
        if (key1, slot1) == (key2, slot2):
            return
        e1 = keccak(key1.to_bytes(32, "big") + slot1.to_bytes(32, "big"))
        e2 = keccak(key2.to_bytes(32, "big") + slot2.to_bytes(32, "big"))
        assert e1 != e2


class TestMutationProperties:
    @given(data=st.binary(min_size=32, max_size=160),
           pos=st.integers(0, 200), n=st.integers(1, 64),
           op=st.sampled_from(list(ALL_MUTATIONS)),
           seed=st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_mutate_stream_size_law(self, data, pos, n, op, seed):
        rng = random.Random(seed)
        out = mutate_stream(data, op, pos, n, rng)
        if op is MutationType.INSERT:
            assert len(out) > len(data)
        elif op is MutationType.DELETE:
            assert len(out) < len(data)
        else:
            assert len(out) == len(data)

    @given(allowed_word=st.integers(0, 2), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_masked_mutation_confined_to_allowed_region(self, allowed_word,
                                                        seed):
        rng = random.Random(seed)
        mutator = SeedMutator(rng)
        call = TxCall(function="f", args=[0xAB, 0xCD], value=0xEF)
        mask = MutationMask(length=96)
        lo, hi = allowed_word * 32, allowed_word * 32 + 32
        for pos in range(lo, hi):
            mask.allow(pos, MutationType.OVERWRITE)
        mutated = mutator.masked_mutate(call, mask)
        assert mutated is not None
        original_words = [0xAB, 0xCD, 0xEF]
        mutated_words = mutated.args + [mutated.value]
        for i in range(3):
            if i != allowed_word:
                assert mutated_words[i] == original_words[i]


class TestWorldStateProperties:
    @given(ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 5), u256), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_snapshot_revert_restores_exact_state(self, ops):
        world = WorldState()
        for slot in range(6):
            world.set_storage(1, slot, slot * 7)
        baseline = {slot: world.get_storage(1, slot)[0] for slot in range(6)}
        token = world.snapshot()
        for kind, slot, value in ops:
            if kind == 0:
                world.set_storage(1, slot, value)
            elif kind == 1:
                world.set_balance(slot, value)
            elif kind == 2:
                world.account(100 + slot)
            else:
                world.mark_destroyed(1)
        world.revert_to(token)
        for slot in range(6):
            assert world.get_storage(1, slot)[0] == baseline[slot]
        assert not world.is_destroyed(1)


class TestCompilerProperties:
    @given(a=st.integers(0, 10 ** 18), b=st.integers(0, 10 ** 18),
           op=st.sampled_from(["+", "-", "*", "/", "%"]))
    @settings(max_examples=30, deadline=None)
    def test_compiled_arithmetic_matches_python(self, a, b, op):
        from repro.chain import Chain
        from repro.chain.transactions import Transaction
        from repro.compiler import compile_source, encode_call
        source = f"""
        contract T {{
            function f(uint256 a, uint256 b) public returns (uint256) {{
                return a {op} b;
            }}
        }}
        """
        artifact = compile_source(source)
        chain = Chain()
        chain.create_account(0xA)
        deployed = chain.deploy(artifact, sender=0xA)
        fn = artifact.abi.function("f")
        receipt = chain.apply(Transaction(
            sender=0xA, to=deployed.address, data=encode_call(fn, [a, b])))
        assert receipt.success
        got = decode_words(receipt.returndata)[0]
        if op == "+":
            expected = (a + b) % U256
        elif op == "-":
            expected = (a - b) % U256
        elif op == "*":
            expected = (a * b) % U256
        elif op == "/":
            expected = a // b if b else 0
        else:
            expected = a % b if b else 0
        assert got == expected


# -- disassembly / abstract-interpretation properties (PR 8) ------------------


class TestDisassemblyProperties:
    """The linear disassembly is the decode the machine executes."""

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_disassembly_partitions_code(self, code):
        """Instruction extents tile [0, len(code)) exactly: consecutive,
        gap-free, starting at 0 (a truncated trailing PUSH may extend
        past the end — its immediate reads as zero-padded)."""
        instructions = disassemble(code)
        if not code:
            assert instructions == []
            return
        expected_pc = 0
        for ins in instructions:
            assert ins.pc == expected_pc
            expected_pc = ins.pc + ins.size
        assert instructions[-1].pc < len(code)
        assert expected_pc >= len(code)

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    @example(bytes([0x7F, 0x01]))          # PUSH32 with 31 missing bytes
    @example(bytes([Op.PUSH2, 0xAB]))      # PUSH2 with 1 missing byte
    def test_push_operands_agree_with_machine_predecode(self, code):
        """The disassembler's PUSH immediates (including right-padded
        truncated ones) equal the interpreter's predecoded operands —
        one decode, two consumers, no drift."""
        analysis = analyze_code(code)
        for ins in disassemble(code):
            if is_push(ins.opcode):
                entry = analysis.decoded[ins.pc]
                assert entry is not None
                assert entry[2] == ins.operand


_FOLDABLE_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
                 Op.AND, Op.OR, Op.XOR, Op.LT, Op.GT, Op.EQ)


class TestAbstractInterpreterProperties:
    """On straight-line constant code the abstract interpreter is exact."""

    @given(u256, st.lists(st.tuples(st.sampled_from(_FOLDABLE_OPS), u256),
                          min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_const_facts_agree_with_concrete_machine(self, x0, steps):
        body = bytes([0x7F]) + x0.to_bytes(32, "big")
        for op, k in steps:
            body += bytes([0x7F]) + k.to_bytes(32, "big") + bytes([op])

        # concrete: store the accumulator and return it
        code = body + bytes([0x60, 0x00, Op.MSTORE,
                             0x60, 0x20, 0x60, 0x00, Op.RETURN])
        world = WorldState()
        world.account(1)
        machine = Machine(world, BlockContext())
        result = machine.execute(Message(
            address=1, caller=2, origin=2, value=0, data=b"",
            gas=10 ** 6, code=code))
        assert result.success, result.error
        concrete = int.from_bytes(result.returndata, "big")

        # abstract: the same straight line is one basic block
        cfg = build_cfg(body + bytes([Op.STOP]))
        block = cfg.blocks[min(cfg.blocks)]
        out = transfer_block(block)
        assert out.stack
        assert out.stack[-1] == ("const", concrete)


# -- block-fusion differential ------------------------------------------------

#: ops safe for random straight-line programs (no control flow, no calls);
#: arities are tracked by the composer so generated code never underflows
_FUSION_BINOPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR,
                  Op.XOR, Op.SHL, Op.SHR, Op.LT, Op.GT, Op.SLT, Op.SGT,
                  Op.EQ)
_FUSION_UNOPS = (Op.ISZERO, Op.NOT)
_FUSION_SOURCES = (Op.CALLER, Op.CALLVALUE, Op.NUMBER, Op.TIMESTAMP,
                   Op.ADDRESS, Op.CALLDATASIZE)

_fusion_step = st.one_of(
    st.tuples(st.just("push"), u256),
    st.tuples(st.just("binop"), st.sampled_from(_FUSION_BINOPS)),
    st.tuples(st.just("unop"), st.sampled_from(_FUSION_UNOPS)),
    st.tuples(st.just("source"), st.sampled_from(_FUSION_SOURCES)),
    st.tuples(st.just("dup"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("swap"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("mstore"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("mload"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("sstore"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("sload"), st.integers(min_value=0, max_value=3)),
)


def _compose_straight_line(steps) -> bytes:
    """Assemble a valid straight-line program: ops that would underflow the
    statically tracked stack depth are skipped, so fused and table runs
    only ever diverge through a real semantics bug, never a bad input."""
    out = bytearray()
    depth = 0
    for tag, arg in steps:
        if tag == "push":
            out += bytes([0x7F]) + arg.to_bytes(32, "big")
            depth += 1
        elif tag == "binop" and depth >= 2:
            out.append(arg)
            depth -= 1
        elif tag == "unop" and depth >= 1:
            out.append(arg)
        elif tag == "source":
            out.append(arg)
            depth += 1
        elif tag == "dup" and depth >= arg:
            out.append(0x80 + arg - 1)
            depth += 1
        elif tag == "swap" and depth >= arg + 1:
            out.append(0x90 + arg - 1)
        elif tag == "pop" and depth >= 1:
            out.append(Op.POP)
            depth -= 1
        elif tag == "mstore" and depth >= 1:
            out += bytes([0x60, arg * 32, Op.MSTORE])
            depth -= 1
        elif tag == "mload":
            out += bytes([0x60, arg * 32, Op.MLOAD])
            depth += 1
        elif tag == "sstore" and depth >= 1:
            out += bytes([0x60, arg, Op.SSTORE])
            depth -= 1
        elif tag == "sload":
            out += bytes([0x60, arg, Op.SLOAD])
            depth += 1
    out.append(Op.STOP)
    return bytes(out)


def _run_fusion_arm(code: bytes, mask: int, fused: bool):
    """Execute ``code`` via Machine._run so the final frame stack survives
    for comparison (execute() would drop the frame).  The fused arm
    compiles the whole program first, so it runs compiled closures from
    the first entry instead of warming up on the table loop."""
    from repro.evm.fusion import fused_program
    from repro.evm.machine import CallContext

    if fused:
        fused_program(code, mask).compile_all()
    world = WorldState()
    world.account(1)
    machine = Machine(world, BlockContext(), event_mask=mask,
                      block_fusion=fused)
    machine._steps = 0
    msg = Message(address=1, caller=2, origin=2, value=7,
                  data=b"\x5a" * 36, gas=10 ** 6, code=code)
    frame = CallContext(msg=msg)
    result = machine._run(frame, 0)
    storage = dict(world.account(1).storage)
    trace = machine.trace
    return {
        "success": result.success,
        "returndata": result.returndata,
        "error": result.error,
        "gas_left": result.gas_left,
        "stack_values": list(frame.stack.values),
        "stack_shadows": list(frame.stack.shadows),
        "memory": bytes(frame.memory.data),
        "storage": storage,
        "steps": machine._steps,
        "branches": trace.branches,
        "compares": trace.compares,
        "overflows": trace.overflows,
        "storage_ops": trace.storage_ops,
        "block_reads": trace.block_reads,
        "caller_checked": frame.caller_checked,
    }


class TestBlockFusionDifferential:
    """Fused superinstruction closures are observationally identical to the
    per-opcode table loop: same stack (values *and* shadows), gas, steps,
    memory, storage, and trace-event streams, under every event mask."""

    @given(steps=st.lists(_fusion_step, min_size=1, max_size=24),
           mask=st.sampled_from((0, EV_ALL,
                                 EV_COMPARE | EV_BRANCH, EV_OVERFLOW)))
    @settings(max_examples=120, deadline=None)
    def test_fused_equals_table_on_straight_line_code(self, steps, mask):
        code = _compose_straight_line(steps)
        table = _run_fusion_arm(code, mask, fused=False)
        fused = _run_fusion_arm(code, mask, fused=True)
        assert fused == table

    @given(a=u256, b=u256,
           op=st.sampled_from((Op.ADD, Op.SUB, Op.MUL, Op.LT, Op.EQ)))
    @settings(max_examples=60, deadline=None)
    def test_folded_constants_match_runtime_handlers(self, a, b, op):
        """PUSH/PUSH/op folds at compile time under mask 0 and runs the
        real handler under EV_ALL — both must agree with the table loop."""
        code = (bytes([0x7F]) + b.to_bytes(32, "big")
                + bytes([0x7F]) + a.to_bytes(32, "big")
                + bytes([op, Op.STOP]))
        for mask in (0, EV_ALL):
            table = _run_fusion_arm(code, mask, fused=False)
            fused = _run_fusion_arm(code, mask, fused=True)
            assert fused == table
