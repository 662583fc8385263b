"""Unit tests for the shared code-analysis cache and the predecoded stream."""

import sys
from collections import Counter

import pytest

from repro.evm import analysis
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
from repro.evm.opcodes import OPCODE_INFO, Op


@pytest.fixture(autouse=True)
def fresh_cache():
    analysis.clear_cache()
    yield
    analysis.clear_cache()


class TestDecodedStream:
    def test_push_entry_carries_value_and_next_pc(self):
        code = bytes([0x61, 0x12, 0x34, Op.STOP])  # PUSH2 0x1234
        decoded = analyze_code(code).decoded
        kind, gas, value, next_pc = decoded[0]
        assert kind == KIND_PUSH
        assert value == 0x1234
        assert next_pc == 3
        assert gas == OPCODE_INFO[0x61].gas
        # immediate positions are never decoded as instructions
        assert decoded[1] is None and decoded[2] is None
        assert decoded[3][0] == KIND_STOP

    def test_truncated_push_zero_pads_right(self):
        # EVM spec: a PUSH3 whose immediate runs past end-of-code reads the
        # missing bytes as zero — value 0x010000, not 1.
        decoded = analyze_code(bytes([0x62, 0x01])).decoded
        kind, _, value, next_pc = decoded[0]
        assert kind == KIND_PUSH
        assert value == 0x010000
        assert next_pc == 4  # declared width, past end-of-code: frame halts

    def test_control_flow_kinds(self):
        code = bytes([Op.JUMPDEST, Op.JUMP, Op.JUMPI, 0x80, 0x90, Op.STOP])
        decoded = analyze_code(code).decoded
        assert decoded[0][0] == KIND_JUMPDEST
        assert decoded[1][0] == KIND_JUMP
        assert decoded[2][0] == KIND_JUMPI
        assert decoded[3][:3] == (KIND_DUP, OPCODE_INFO[0x80].gas, 1)
        assert decoded[4][:3] == (KIND_SWAP, OPCODE_INFO[0x90].gas, 1)
        assert decoded[5][0] == KIND_STOP

    def test_call_family_gets_call_kind(self):
        code = bytes([Op.CALL, Op.DELEGATECALL, Op.ADD])
        decoded = analyze_code(code).decoded
        assert decoded[0][0] == KIND_CALL
        assert decoded[1][0] == KIND_CALL
        assert decoded[2][0] == KIND_SIMPLE

    def test_undefined_byte_is_none(self):
        decoded = analyze_code(bytes([0x37])).decoded  # CALLDATACOPY: undefined
        assert decoded[0] is None

    def test_jumpdests_skip_push_immediates(self):
        # 0x5B inside a PUSH2 immediate is data, not a jump target
        code = bytes([0x61, 0x5B, 0x5B, Op.JUMPDEST])
        assert analyze_code(code).jumpdests == frozenset({3})


class TestProcessLevelCache:
    def test_same_code_analyzed_once(self):
        code = bytes([Op.CALLER, Op.STOP])
        first = analyze_code(code)
        # equal-but-distinct bytes objects share the sha256-keyed entry
        assert analyze_code(bytes([Op.CALLER, Op.STOP])) is first
        stats = analysis.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_identity_fast_path_hits(self):
        code = bytes([Op.CALLER, Op.STOP])
        first = analyze_code(code)
        assert analyze_code(code) is first  # id-memo, no re-hash
        assert analysis.cache_stats()["hits"] == 1

    def test_capacity_is_bounded(self):
        for i in range(analysis.CACHE_CAPACITY + 10):
            analyze_code(bytes([0x61]) + i.to_bytes(2, "big") + bytes([0x00]))
        assert analysis.cache_stats()["entries"] == analysis.CACHE_CAPACITY

    def test_shared_across_machines(self):
        from repro.chain.blockchain import BlockContext
        from repro.chain.state import WorldState
        from repro.evm.machine import Machine, Message

        code = bytes([Op.CALLER, Op.STOP])
        for _ in range(3):
            world = WorldState()
            world.account(0xAAA)
            machine = Machine(world, BlockContext())
            msg = Message(address=0xAAA, caller=0xB, origin=0xB, value=0,
                          data=b"", gas=10 ** 6, code=code)
            assert machine.execute(msg).success
        assert analysis.cache_stats()["misses"] == 1


class TestOneRecordPerCode:
    """The record is the one per-code cache: a campaign decodes its
    runtime code once, and the surface, the prefix analyzer and block
    fusion all read the one CFG built from that decode."""

    @staticmethod
    def _count_decodes(monkeypatch, code: bytes) -> Counter:
        """Count ``disassemble``/``build_cfg`` calls on ``code``, through
        every module that bound either function by name."""
        from repro.analysis.cfg import build_cfg
        from repro.analysis.disassembler import disassemble

        counts: Counter = Counter()
        for func in (disassemble, build_cfg):
            def counting(arg, *rest, _func=func):
                if arg == code:
                    counts[_func.__name__] += 1
                return _func(arg, *rest)

            for name, module in list(sys.modules.items()):
                if name.startswith("repro") \
                        and getattr(module, func.__name__, None) is func:
                    monkeypatch.setattr(module, func.__name__, counting)
        return counts

    def test_campaign_decodes_runtime_code_once(self, monkeypatch):
        from repro.analysis.prefix import PrefixAnalyzer
        from repro.analysis.surface import surface_for
        from repro.compiler import compile_source
        from repro.core import Fuzzer, mufuzz_config, sfuzz_config
        from repro.evm.fusion import fused_program
        from tests.conftest import CROWDSALE_SOURCE

        artifact = compile_source(CROWDSALE_SOURCE)
        code = artifact.runtime_code
        counts = self._count_decodes(monkeypatch, code)
        fuzzer = Fuzzer(artifact, mufuzz_config(iterations=40, rng_seed=1))
        fuzzer.run()
        assert counts == {"disassemble": 1, "build_cfg": 1}

        record = analyze_code(code)
        cfg = record.cfg
        assert fuzzer.surface is surface_for(code) is record.surface
        assert fuzzer.prefix.cfg is PrefixAnalyzer(code).cfg is cfg
        mask = fuzzer.base_chain.event_mask
        program = fused_program(code, mask)
        assert program is record.programs[mask]
        assert sorted(program.tiers) == sorted(cfg.blocks)

        # a second campaign over the same code builds nothing
        Fuzzer(artifact, sfuzz_config(iterations=40, rng_seed=2)).run()
        assert counts == {"disassemble": 1, "build_cfg": 1}
