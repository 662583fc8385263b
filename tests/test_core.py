"""Unit tests for the fuzzer core: sequences, masks, energy, coverage."""

import random

import pytest

from repro.analysis.dataflow import analyze_contract
from repro.analysis.distance import distances_from_trace
from repro.analysis.prefix import PrefixAnalyzer
from repro.compiler import compile_source
from repro.core import (
    CoverageTracker,
    EnergyScheduler,
    MutationType,
    Seed,
    SeedQueue,
    SequenceGenerator,
    SeedMutator,
    TxCall,
    config as cfg_mod,
)
from repro.core.config import (
    ENERGY_DYNAMIC,
    ENERGY_REVISIT,
    ENERGY_UNIFORM,
    SEQ_DATAFLOW,
    SEQ_DATAFLOW_REPEAT,
    SEQ_RANDOM,
)
from repro.core.masking import MutationMask, compute_mask, mutate_stream
from repro.evm.trace import BranchEvent, ExecutionTrace
from repro.lang.parser import parse_source
from tests.conftest import CROWDSALE_SOURCE


def make_seqgen(strategy, source=CROWDSALE_SOURCE, seed=1, max_length=8):
    contract = parse_source(source).contracts[0]
    dataflow = analyze_contract(contract)
    return SequenceGenerator(contract, dataflow, random.Random(seed),
                             strategy, max_length)


class TestSequenceGenerator:
    def test_dataflow_order_puts_invest_first(self):
        gen = make_seqgen(SEQ_DATAFLOW)
        order = gen.dependency_order()
        assert order.index("invest") < order.index("withdraw")
        assert order.index("invest") < order.index("refund")

    def test_repeat_mutation_duplicates_invest(self):
        """§IV-A: [invest, refund, withdraw] → [..., invest, withdraw]."""
        gen = make_seqgen(SEQ_DATAFLOW_REPEAT)
        mutated = gen.apply_repeat_mutation(["invest", "refund", "withdraw"])
        assert mutated.count("invest") == 2
        # the duplicate lands before withdraw (the phase reader)
        last_invest = max(i for i, f in enumerate(mutated)
                          if f == "invest")
        assert last_invest < mutated.index("withdraw") or \
            mutated[last_invest + 1] == "withdraw"

    def test_repeat_candidates_match_paper(self):
        gen = make_seqgen(SEQ_DATAFLOW_REPEAT)
        assert gen.repeat_candidates() == {"invest"}

    def test_random_strategy_contains_all_functions(self):
        gen = make_seqgen(SEQ_RANDOM)
        seq = gen.base_sequence()
        assert set(seq) >= {"invest", "refund", "withdraw"}

    def test_sequence_respects_max_length(self):
        gen = make_seqgen(SEQ_DATAFLOW_REPEAT, max_length=3)
        assert len(gen.base_sequence()) <= 3

    def test_single_function_padded_with_repetition(self):
        source = """
        contract T {
            uint256 total = 0;
            function mint(uint256 v) public { total += v; }
        }
        """
        gen = make_seqgen(SEQ_DATAFLOW, source=source)
        assert len(gen.base_sequence()) >= 3

    def test_mutate_sequence_stays_in_pool(self):
        gen = make_seqgen(SEQ_RANDOM)
        seq = ["invest", "refund"]
        for _ in range(50):
            seq = gen.mutate_sequence(seq)
            assert all(f in {"invest", "refund", "withdraw"} for f in seq)
            assert 1 <= len(seq) <= 8


class TestTxCallStreams:
    def test_stream_roundtrip(self):
        call = TxCall(function="f", args=[1, 2, 3], value=7, sender=9)
        decoded = call.apply_stream(call.to_stream())
        assert decoded.args == [1, 2, 3]
        assert decoded.value == 7
        assert decoded.sender == 9

    def test_stream_length(self):
        call = TxCall(function="f", args=[5, 6], value=0)
        assert len(call.to_stream()) == 3 * 32

    def test_shortened_stream_zero_pads(self):
        call = TxCall(function="f", args=[5, 6], value=1)
        decoded = call.apply_stream(b"\x01" * 16)
        assert len(decoded.args) == 2
        assert decoded.args[1] == 0

    def test_oversized_stream_truncates(self):
        call = TxCall(function="f", args=[5], value=1)
        decoded = call.apply_stream(b"\xff" * 500)
        assert len(decoded.args) == 1


class TestMutationOperators:
    def test_overwrite_changes_bytes_in_place(self):
        rng = random.Random(0)
        stream = bytes(64)
        out = mutate_stream(stream, MutationType.OVERWRITE, 10, 4, rng)
        assert len(out) == 64
        assert out != stream

    def test_insert_grows_stream(self):
        rng = random.Random(0)
        out = mutate_stream(bytes(64), MutationType.INSERT, 0, 8, rng)
        assert len(out) == 72

    def test_delete_shrinks_stream(self):
        rng = random.Random(0)
        out = mutate_stream(bytes(64), MutationType.DELETE, 0, 8, rng)
        assert len(out) == 56

    def test_replace_word_aligned_uses_interesting(self):
        rng = random.Random(0)
        out = mutate_stream(bytes(64), MutationType.REPLACE, 0, 32, rng)
        from repro.core.inputs import INTERESTING_UINTS
        assert int.from_bytes(out[:32], "big") in INTERESTING_UINTS

    def test_empty_stream_tolerated(self):
        rng = random.Random(0)
        out = mutate_stream(b"", MutationType.OVERWRITE, 0, 1, rng)
        assert len(out) == 32


class TestMaskComputation:
    def test_mask_allows_positions_that_keep_property(self):
        # probe says: mutations in the first 16 bytes break the property
        def probe(stream: bytes) -> bool:
            return stream[:16] == bytes(16)

        mask = compute_mask(bytes(64), probe, random.Random(1),
                            probe_limit=16)
        allowed_positions = set(mask.allowed)
        # positions late in the stream must be allowed for some op
        assert any(pos >= 32 for pos in allowed_positions)

    def test_ok_to_mutate_respects_mask(self):
        mask = MutationMask(length=4)
        mask.allow(2, MutationType.OVERWRITE)
        assert mask.ok_to_mutate(2, MutationType.OVERWRITE)
        assert not mask.ok_to_mutate(2, MutationType.DELETE)
        assert not mask.ok_to_mutate(0, MutationType.OVERWRITE)

    def test_spread_fills_gaps(self):
        mask = MutationMask(length=10)
        mask.allow(0, MutationType.INSERT)
        mask.spread(10)
        assert mask.ok_to_mutate(9, MutationType.INSERT)

    def test_masked_mutator_never_touches_disallowed(self):
        """Invariant: the masked mutator only mutates allowed pairs."""
        rng = random.Random(2)
        mutator = SeedMutator(rng)
        call = TxCall(function="f", args=[0xAA] * 2, value=0)
        mask = MutationMask(length=96)
        # allow only overwrites in the last word (the value word)
        for pos in range(64, 96):
            mask.allow(pos, MutationType.OVERWRITE)
        for _ in range(50):
            mutated = mutator.masked_mutate(call, mask)
            assert mutated is not None
            assert mutated.args[0] == 0xAA  # first word untouched

    def test_masked_mutator_returns_none_for_empty_mask(self):
        mutator = SeedMutator(random.Random(0))
        call = TxCall(function="f", args=[1], value=0)
        assert mutator.masked_mutate(call, MutationMask(length=64)) is None

    def test_afl_mutate_changes_something_eventually(self):
        mutator = SeedMutator(random.Random(3), constants=(12345,))
        call = TxCall(function="f", args=[7, 8], value=9)
        changed = any(mutator.afl_mutate(call).to_stream() != call.to_stream()
                      for _ in range(10))
        assert changed


class TestEnergyScheduler:
    def _scheduler(self, strategy, artifact):
        return EnergyScheduler(strategy=strategy,
                               prefix=PrefixAnalyzer(artifact.runtime_code),
                               base_energy=4, max_energy=16)

    def _trace(self, pcs, address=1):
        trace = ExecutionTrace()
        for pc in pcs:
            trace.branches.append(BranchEvent(pc=pc, address=address,
                                              depth=0, taken=True))
        return trace

    def test_uniform_energy_constant(self, crowdsale_artifact):
        scheduler = self._scheduler(ENERGY_UNIFORM, crowdsale_artifact)
        assert scheduler.energy_for(Seed()) == 4

    def test_prefuzz_assigns_growing_weights(self, crowdsale_artifact):
        scheduler = self._scheduler(ENERGY_DYNAMIC, crowdsale_artifact)
        pcs = sorted(crowdsale_artifact.branch_info)[:3]
        scheduler.prefuzz(self._trace(pcs), target_address=1)
        weights = [scheduler.weight_of(pc) for pc in pcs]
        assert weights[0] < weights[2]  # deeper on path → higher w1

    def test_dynamic_energy_scales_with_weight(self, crowdsale_artifact):
        scheduler = self._scheduler(ENERGY_DYNAMIC, crowdsale_artifact)
        pcs = sorted(crowdsale_artifact.branch_info)
        scheduler.prefuzz(self._trace(pcs), target_address=1)
        shallow = Seed(covered_edges={(pcs[0], True)})
        deep = Seed(covered_edges={(pcs[-1], True)})
        assert scheduler.energy_for(deep) >= scheduler.energy_for(shallow)

    def test_revisit_energy_boosts_rare_edges(self, crowdsale_artifact):
        scheduler = self._scheduler(ENERGY_REVISIT, crowdsale_artifact)
        pc = sorted(crowdsale_artifact.branch_info)[0]
        for _ in range(10):
            hits, _ = distances_from_trace(self._trace([pc]), 1)
            scheduler.record(hits)
        common = Seed(covered_edges={(pc, True)})
        rare_pc = sorted(crowdsale_artifact.branch_info)[1]
        hits, _ = distances_from_trace(self._trace([rare_pc]), 1)
        scheduler.record(hits)
        rare = Seed(covered_edges={(rare_pc, True)})
        assert scheduler.hit_counts == {(pc, True): 10, (rare_pc, True): 1}
        assert scheduler.energy_for(rare) > scheduler.energy_for(common)

    def test_energy_capped(self, crowdsale_artifact):
        scheduler = self._scheduler(ENERGY_DYNAMIC, crowdsale_artifact)
        pcs = sorted(crowdsale_artifact.branch_info)
        scheduler.prefuzz(self._trace(pcs * 5), target_address=1)
        seed = Seed(covered_edges={(pc, True) for pc in pcs})
        assert scheduler.energy_for(seed) <= 16


class TestCoverageTracker:
    def _tracker(self, artifact):
        return CoverageTracker(artifact=artifact, address=1)

    def _trace(self, edges, address=1, steps=10):
        trace = ExecutionTrace()
        trace.branch_edges = {(address, pc, taken) for pc, taken in edges}
        trace.steps = steps
        return trace

    def test_new_edges_counted(self, crowdsale_artifact):
        tracker = self._tracker(crowdsale_artifact)
        pc = sorted(crowdsale_artifact.branch_info)[0]
        assert tracker.add_trace(self._trace([(pc, True)])) == 1
        assert tracker.add_trace(self._trace([(pc, True)])) == 0

    def test_coverage_fraction(self, crowdsale_artifact):
        tracker = self._tracker(crowdsale_artifact)
        pc = sorted(crowdsale_artifact.branch_info)[0]
        tracker.add_trace(self._trace([(pc, True), (pc, False)]))
        expected = 2 / crowdsale_artifact.total_branches
        assert tracker.coverage() == pytest.approx(expected)

    def test_other_address_ignored(self, crowdsale_artifact):
        tracker = self._tracker(crowdsale_artifact)
        pc = sorted(crowdsale_artifact.branch_info)[0]
        assert tracker.add_trace(self._trace([(pc, True)], address=2)) == 0

    def test_curve_monotone_nondecreasing(self, crowdsale_artifact):
        tracker = self._tracker(crowdsale_artifact)
        pcs = sorted(crowdsale_artifact.branch_info)
        for pc in pcs:
            tracker.add_trace(self._trace([(pc, True)]))
        values = [cov for _, cov in tracker.curve]
        assert values == sorted(values)

    def test_uncovered_targets_shrink(self, crowdsale_artifact):
        tracker = self._tracker(crowdsale_artifact)
        initial = len(tracker.uncovered_targets())
        pc = sorted(crowdsale_artifact.branch_info)[0]
        tracker.add_trace(self._trace([(pc, True)]))
        assert len(tracker.uncovered_targets()) == initial - 1

    def test_step_multiplier_scales_time_axis(self, crowdsale_artifact):
        tracker = self._tracker(crowdsale_artifact)
        pc = sorted(crowdsale_artifact.branch_info)[0]
        tracker.add_trace(self._trace([(pc, True)], steps=100),
                          step_multiplier=1.6)
        assert tracker.total_steps == 160


class TestSeedQueue:
    def test_best_for_target(self):
        queue = SeedQueue()
        near = Seed(distances={(1, 5, True): 3})
        far = Seed(distances={(1, 5, True): 30})
        queue.add(far)
        queue.add(near)
        assert queue.best_for_target((1, 5, True)) is near

    def test_best_for_unknown_target_is_none(self):
        queue = SeedQueue()
        queue.add(Seed())
        assert queue.best_for_target((1, 99, True)) is None

    def test_maskable_selection(self):
        queue = SeedQueue()
        plain = Seed()
        nested = Seed(nested_hits={5})
        improver = Seed(improved_distance=True)
        for seed in (plain, nested, improver):
            queue.add(seed)
        assert set(map(id, queue.maskable())) == {id(nested), id(improver)}

    def test_clone_bumps_generation(self):
        seed = Seed(calls=[TxCall(function="f", args=[1])], generation=2)
        child = seed.clone()
        assert child.generation == 3
        assert child.calls is not seed.calls


class TestConfigs:
    def test_named_presets_shapes(self):
        assert cfg_mod.mufuzz_config().use_mask
        assert not cfg_mod.sfuzz_config().use_mask
        assert cfg_mod.sfuzz_config().sequence_strategy == SEQ_RANDOM
        assert cfg_mod.smartian_config().reexecution_overhead > 1.0
        assert cfg_mod.irfuzz_config().energy_strategy == ENERGY_REVISIT

    def test_variant_override(self):
        config = cfg_mod.mufuzz_config(iterations=5).variant(use_mask=False)
        assert config.iterations == 5
        assert not config.use_mask
        assert config.name == "MuFuzz"


class TestSamplePositions:
    def test_short_stream_probes_everything(self):
        from repro.core.masking import _sample_positions
        assert _sample_positions(8, 24) == list(range(8))

    def test_word_boundaries_always_probed(self):
        from repro.core.masking import _sample_positions
        # regression: length 33, limit 24 used to never probe position 32,
        # skipping the entire second argument word
        for length, limit in ((33, 24), (65, 4), (96, 8), (129, 24)):
            positions = _sample_positions(length, limit)
            boundaries = set(range(0, length, 32))
            assert boundaries <= set(positions), (length, limit, positions)

    def test_budget_tighter_than_word_count_samples_boundaries(self):
        from repro.core.masking import _sample_positions
        positions = _sample_positions(32 * 10, 4)
        assert len(positions) <= 4
        assert all(p % 32 == 0 for p in positions)
        # evenly spread across the whole stream, not truncated from the
        # front: the first and last words are both probed
        assert positions[0] == 0
        assert positions[-1] == 32 * 9

    def test_long_stream_tail_words_still_probed(self):
        from repro.core.masking import _sample_positions
        # regression: 33 words at limit 24 used to probe only words 0-23
        positions = _sample_positions(32 * 33, 24)
        assert positions[-1] == 32 * 32
        assert len(positions) <= 24

    def test_interior_budget_is_spent(self):
        from repro.core.masking import _sample_positions
        # regression: length 64 at limit 4 used to return only [0, 32]
        # (interior stride landed on word boundaries and was filtered out)
        positions = _sample_positions(64, 4)
        assert len(positions) == 4
        assert any(p % 32 != 0 for p in positions)
