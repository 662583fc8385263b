"""Unit tests for fuzzer internals added during tuning: covering initial
populations, constant harvesting, rare-edge retention, fallback probing."""

import pytest

from repro.compiler import compile_source
from repro.core import Fuzzer, mufuzz_config, sfuzz_config
from repro.core.fuzzer import BAD_SELECTOR_CALL, FALLBACK_CALL
from tests.conftest import CROWDSALE_SOURCE

MANY_FUNCTIONS = "contract Many {\n" + "\n".join(
    f"    uint256 v{i} = 0;\n"
    f"    function set{i}(uint256 x) public {{ v{i} = x; }}"
    for i in range(12)) + "\n}"

MAGIC_GATE = """
contract Gate {
    uint256 unlocked = 0;
    function open(uint256 code) public {
        require(code == 77553311);
        unlocked = 1;
    }
}
"""


class TestCoverSequences:
    def test_cover_sequences_hit_every_function(self):
        fuzzer = Fuzzer(MANY_FUNCTIONS, mufuzz_config(iterations=1,
                                                      rng_seed=1))
        chunks = fuzzer.seqgen.cover_sequences()
        called = {fn for chunk in chunks for fn in chunk}
        assert called == {f"set{i}" for i in range(12)}

    def test_chunks_respect_max_length(self):
        config = mufuzz_config(iterations=1, max_sequence_length=4)
        fuzzer = Fuzzer(MANY_FUNCTIONS, config)
        for chunk in fuzzer.seqgen.cover_sequences():
            assert len(chunk) <= 4

    def test_initial_population_calls_all_functions(self):
        fuzzer = Fuzzer(MANY_FUNCTIONS, mufuzz_config(iterations=5,
                                                      rng_seed=2))
        fuzzer.run()
        exercised = {fn for seed in fuzzer.queue for fn in seed.functions}
        assert {f"set{i}" for i in range(12)} <= exercised

    def test_random_strategy_also_covers(self):
        fuzzer = Fuzzer(MANY_FUNCTIONS, sfuzz_config(iterations=1,
                                                     rng_seed=3))
        chunks = fuzzer.seqgen.cover_sequences()
        called = {fn for chunk in chunks for fn in chunk}
        assert called == {f"set{i}" for i in range(12)}


class TestConstantHarvesting:
    def test_magic_constant_harvested(self):
        fuzzer = Fuzzer(MAGIC_GATE, mufuzz_config(iterations=1))
        constants = fuzzer.constants
        assert 77553311 in constants

    def test_small_offsets_excluded(self):
        fuzzer = Fuzzer(MAGIC_GATE, mufuzz_config(iterations=1))
        constants = fuzzer.constants
        assert 32 not in constants  # PUSH1/PUSH2 offsets are noise

    def test_gate_crossed_via_dictionary(self):
        fuzzer = Fuzzer(MAGIC_GATE, mufuzz_config(iterations=120,
                                                  rng_seed=4))
        fuzzer.run()
        address = fuzzer.address
        unlocked = fuzzer.base_chain.world.get_storage(address, 0)[0]
        # state resets per execution; check coverage of the require-true edge
        require_pcs = [pc for pc, info in fuzzer.artifact.branch_info.items()
                       if info.kind == "require"]
        assert any((pc, True) in fuzzer.coverage.covered
                   for pc in require_pcs)


class TestRetention:
    def test_rare_edge_seed_retained_without_new_coverage(self):
        fuzzer = Fuzzer(CROWDSALE_SOURCE, mufuzz_config(iterations=80,
                                                        rng_seed=5))
        fuzzer.run()
        # retention keeps at most ~2 seeds per edge, so the queue stays
        # bounded but larger than the initial population
        assert len(fuzzer.queue) >= 3
        assert len(fuzzer.queue) <= 2 * fuzzer.artifact.total_branches + 8


class TestFallbackProbing:
    def test_fallback_calls_cover_dispatcher_edges(self):
        fuzzer = Fuzzer(CROWDSALE_SOURCE,
                        mufuzz_config(iterations=200, rng_seed=6,
                                      fallback_probability=0.3))
        fuzzer.run()
        calldata_pcs = [pc for pc, info
                        in fuzzer.artifact.branch_info.items()
                        if info.kind == "calldata"]
        assert calldata_pcs
        for pc in calldata_pcs:
            assert (pc, True) in fuzzer.coverage.covered, \
                "empty-calldata edge never exercised"

    def test_special_calls_encode(self):
        fuzzer = Fuzzer(CROWDSALE_SOURCE, mufuzz_config(iterations=1))
        fallback = fuzzer._fresh_call(FALLBACK_CALL)
        bad = fuzzer._fresh_call(BAD_SELECTOR_CALL)
        assert fuzzer._encode_call(fallback) == b""
        assert len(fuzzer._encode_call(bad)) == 32
