"""Tests for the staged campaign engine: budgets, stages, checkpoints.

The headline guarantee lives in ``TestCheckpointResume``: interrupting a
campaign at *any* checkpoint boundary and resuming from the serialized
checkpoint (through its JSON wire format) produces a ``CampaignResult``
byte-identical — modulo ``wall_time`` — to the uninterrupted run.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import Fuzzer, mufuzz_config
from repro.core.config import FuzzerConfig
from repro.core.coverage import CoverageTracker
from repro.core.energy import EnergyScheduler
from repro.core.seeds import Seed, SeedQueue, TxCall
from repro.engine.budget import Budget
from repro.engine.checkpoint import CampaignCheckpoint
from repro.orchestrator.store import canonical_json
from tests.conftest import CROWDSALE_SOURCE, GAME_SOURCE


def result_bytes(result) -> str:
    """Canonical JSON of a campaign result with wall time zeroed."""
    return canonical_json({**result.to_dict(), "wall_time": 0.0})


# -- Budget: the single stopping authority ----------------------------------------


class TestBudget:
    def test_iteration_budget(self):
        budget = Budget(max_iterations=3)
        for _ in range(3):
            assert not budget.exhausted()
            budget.note_execution()
        assert budget.exhausted()

    def test_transaction_budget(self):
        budget = Budget(max_transactions=5)
        budget.note_transaction(4)
        assert not budget.exhausted()
        budget.note_transaction()
        assert budget.exhausted()

    def test_wall_clock_budget(self):
        budget = Budget(max_wall_clock=0.01)
        budget.start()
        assert not budget.exhausted() or budget.elapsed() >= 0.01
        time.sleep(0.02)
        assert budget.exhausted()

    def test_first_exhausted_limit_stops(self):
        budget = Budget(max_iterations=100, max_transactions=2)
        budget.note_transaction(2)
        assert budget.exhausted()

    def test_prior_wall_carries_across_sessions(self):
        budget = Budget(max_wall_clock=10.0)
        budget.restore_state({"iterations_used": 7, "transactions_used": 9,
                              "prior_wall": 4.5})
        assert budget.iterations_used == 7
        assert budget.transactions_used == 9
        assert budget.elapsed() >= 4.5

    def test_from_config_rejects_unbounded(self):
        config = mufuzz_config()
        config.iterations = None
        with pytest.raises(ValueError, match="unbounded"):
            Budget.from_config(config)

    def test_from_config_combines_all_three(self):
        config = mufuzz_config(iterations=50)
        config.tx_budget = 400
        config.time_budget = 2.5
        budget = Budget.from_config(config)
        assert budget.max_iterations == 50
        assert budget.max_transactions == 400
        assert budget.max_wall_clock == 2.5

    def test_state_roundtrip(self):
        budget = Budget(max_iterations=100)
        budget.note_execution()
        budget.note_transaction(3)
        restored = Budget(max_iterations=100)
        restored.restore_state(budget.state_dict())
        assert restored.iterations_used == 1
        assert restored.transactions_used == 3


class TestMaskProbeCap:
    """Regression: ``int(iterations * fraction)`` used to truncate to zero
    on small campaigns, so a nonzero mask budget computed no masks at all."""

    def test_small_campaign_still_affords_one_mask(self):
        assert Budget(max_iterations=5).mask_probe_cap(0.15) == 1

    def test_zero_fraction_stays_zero(self):
        assert Budget(max_iterations=1000).mask_probe_cap(0.0) == 0

    def test_large_campaign_unchanged(self):
        assert Budget(max_iterations=1000).mask_probe_cap(0.15) == 150

    def test_tx_budget_cap_counts_executions_not_transactions(self):
        """Probes are full-sequence executions: a transaction budget is
        converted through the observed transactions-per-execution ratio,
        so probing spends ~fraction of the budget, not sequence-length
        times more."""
        budget = Budget(max_transactions=1000)
        # campaign history: 5 transactions per execution on average
        budget.iterations_used = 20
        budget.transactions_used = 100
        assert budget.mask_probe_cap(0.15) == 30  # 150 tx / 5 tx-per-exec

    def test_tx_budget_cap_before_any_execution(self):
        assert Budget(max_transactions=40).mask_probe_cap(0.15) == 6

    def test_pure_wall_clock_budget_uncapped(self):
        assert Budget(max_wall_clock=60.0).mask_probe_cap(0.15) is None

    def test_small_masked_campaign_computes_a_mask(self):
        """End to end: a 12-iteration mufuzz campaign (cap would have been
        int(12*0.15) == 0) still runs Algorithm 2 probes."""
        fuzzer = Fuzzer(GAME_SOURCE, mufuzz_config(iterations=12,
                                                   rng_seed=5))
        fuzzer.run()
        assert fuzzer.budget.mask_probe_cap(
            fuzzer.config.mask_budget_fraction) == 1


# -- Coverage curve: bounded recording --------------------------------------------


class StubArtifact:
    total_branches = 4
    branch_info: dict = {}


class FakeTrace:
    def __init__(self, edges=(), steps=10):
        self.branch_edges = {(1, pc, taken) for pc, taken in edges}
        self.steps = steps


def make_tracker(capacity) -> CoverageTracker:
    return CoverageTracker(artifact=StubArtifact(), address=1,
                           curve_capacity=capacity)


class TestBoundedCurve:
    def test_short_campaigns_record_every_execution(self):
        tracker = make_tracker(capacity=64)
        for _ in range(63):
            tracker.add_trace(FakeTrace(steps=10))
        assert len(tracker.curve) == 63
        assert tracker.curve[-1] == (630, 0.0)

    def test_curve_stays_bounded(self):
        tracker = make_tracker(capacity=64)
        for _ in range(10_000):
            tracker.add_trace(FakeTrace(steps=10))
        assert len(tracker.curve) < 64
        # samples stay in recording order with monotone steps,
        # and total_steps accounting is unaffected by decimation
        steps = [s for s, _ in tracker.curve]
        assert steps == sorted(steps)
        assert tracker.total_steps == 100_000
        assert tracker.curve[-1][0] > 90_000  # recent samples retained

    def test_state_roundtrip_preserves_recording_state(self):
        tracker = make_tracker(capacity=16)
        for i in range(200):
            tracker.add_trace(FakeTrace(edges=[(i % 3, True)], steps=5))
        restored = make_tracker(capacity=16)
        restored.restore_state(
            json.loads(json.dumps(tracker.state_dict())))
        assert restored.covered == tracker.covered
        assert restored.curve == tracker.curve
        assert restored._samples_seen == tracker._samples_seen
        assert restored._record_interval == tracker._record_interval
        # identical future recording behavior
        tracker.add_trace(FakeTrace(steps=5))
        restored.add_trace(FakeTrace(steps=5))
        assert restored.curve == tracker.curve

    def test_campaign_curve_bounded_and_result_stable(self):
        """A real campaign with a tiny capacity keeps the curve bounded
        while leaving every other result field untouched."""
        config = mufuzz_config(iterations=80, rng_seed=3)
        unbounded = Fuzzer(CROWDSALE_SOURCE, config)
        bounded = Fuzzer(CROWDSALE_SOURCE, config)
        bounded.coverage.curve_capacity = 16
        r_unbounded = unbounded.run()
        r_bounded = bounded.run()
        assert len(r_bounded.curve) < 16 < len(r_unbounded.curve)
        assert r_bounded.coverage == r_unbounded.coverage
        assert r_bounded.iterations == r_unbounded.iterations
        assert r_bounded.findings == r_unbounded.findings
        # the decimated curve is a subsequence of the full one
        assert set(map(tuple, r_bounded.curve)) <= \
            set(map(tuple, r_unbounded.curve))

    def test_sample_curve_still_resamples(self):
        tracker = make_tracker(capacity=8)
        tracker.curve = [(i, i / 10.0) for i in range(7)]
        sampled = tracker.sample_curve(points=4)
        assert sampled[-1] == (6, 0.6)
        assert len(sampled) == 5


# -- SeedQueue: incremental target -> best-seed index ------------------------------


class TestSeedQueueTargetIndex:
    @staticmethod
    def seed_with(distances):
        return Seed(calls=[TxCall(function="f")], distances=dict(distances))

    def brute_force(self, queue, target):
        best, best_dist = None, None
        for seed in queue.seeds:
            dist = seed.distances.get(target)
            if dist is None:
                continue
            if best_dist is None or dist < best_dist:
                best, best_dist = seed, dist
        return best

    def test_index_matches_brute_force(self):
        import random
        rng = random.Random(42)
        targets = [(1, pc, True) for pc in range(6)]
        queue = SeedQueue()
        for _ in range(40):
            distances = {t: rng.randrange(100)
                         for t in rng.sample(targets, rng.randint(0, 4))}
            queue.add(self.seed_with(distances))
            for target in targets:
                assert queue.best_for_target(target) \
                    is self.brute_force(queue, target)

    def test_ties_keep_the_earliest_seed(self):
        """On equal distance the first-added seed must win — that is the
        answer the historical first-match scan produced."""
        target = (1, 10, True)
        queue = SeedQueue()
        first = self.seed_with({target: 5})
        second = self.seed_with({target: 5})
        queue.add(first)
        queue.add(second)
        assert queue.best_for_target(target) is first
        assert queue.index_for_target(target) == 0

    def test_unknown_target_returns_none(self):
        queue = SeedQueue()
        queue.add(self.seed_with({}))
        assert queue.best_for_target((1, 99, False)) is None
        assert queue.index_for_target((1, 99, False)) is None


# -- EnergyScheduler checkpoint state ----------------------------------------------


class TestSchedulerState:
    def test_state_roundtrip(self):
        scheduler = EnergyScheduler(strategy="dynamic", prefix=None,
                                    base_energy=4, max_energy=16)
        scheduler.weights = {10: 0.5, 20: 2.0}
        scheduler.hit_counts = {(10, True): 3, (20, False): 1}
        scheduler._max_weight = 2.0
        restored = EnergyScheduler(strategy="dynamic", prefix=None,
                                   base_energy=4, max_energy=16)
        restored.restore_state(
            json.loads(json.dumps(scheduler.state_dict())))
        assert restored.weights == scheduler.weights
        assert restored.hit_counts == scheduler.hit_counts
        assert restored._max_weight == scheduler._max_weight


# -- Checkpoint: wire format and the determinism guarantee -------------------------


class TestCheckpointWire:
    def _checkpoint(self):
        fuzzer = Fuzzer(CROWDSALE_SOURCE, mufuzz_config(iterations=25,
                                                        rng_seed=9))
        fuzzer.run()
        return fuzzer.checkpoint()

    def test_json_roundtrip_is_exact(self):
        checkpoint = self._checkpoint()
        text = checkpoint.to_json()
        assert CampaignCheckpoint.from_json(text).to_json() == text

    def test_canonical_bytes(self):
        checkpoint = self._checkpoint()
        text = checkpoint.to_json()
        assert text == checkpoint.to_json()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == 2

    def test_unknown_schema_rejected(self):
        data = json.loads(self._checkpoint().to_json())
        data["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            CampaignCheckpoint.from_dict(data)

    def test_checkpoint_before_run_rejected(self):
        fuzzer = Fuzzer(CROWDSALE_SOURCE, mufuzz_config(iterations=5))
        with pytest.raises(ValueError, match="not started"):
            fuzzer.checkpoint()

    def test_resume_without_source_requires_artifact(self):
        checkpoint = self._checkpoint()
        checkpoint.source = None
        with pytest.raises(ValueError, match="artifact"):
            Fuzzer.resume(checkpoint)

    def test_resume_rejects_wrong_contract(self):
        """A checkpoint must never be restored into a campaign for a
        different contract — overlapping function names would silently
        corrupt results instead of crashing."""
        from repro.compiler import compile_source
        checkpoint = self._checkpoint()
        assert checkpoint.contract == "Crowdsale"
        # source without the contract: fails at compile selection
        with pytest.raises(ValueError, match="Crowdsale"):
            Fuzzer.resume(checkpoint, artifact=GAME_SOURCE)
        # prebuilt artifact for the wrong contract: fails the name guard
        with pytest.raises(ValueError, match="Crowdsale"):
            Fuzzer.resume(checkpoint,
                          artifact=compile_source(GAME_SOURCE))

    def test_resume_picks_the_right_contract_from_multi_source(self):
        """Embedded-source resume compiles the checkpoint's contract even
        when the source file holds several and another comes first."""
        multi = GAME_SOURCE + CROWDSALE_SOURCE
        from repro.compiler import compile_source
        artifact = compile_source(multi, "Crowdsale")
        config = mufuzz_config(iterations=25, rng_seed=9)
        fuzzer = Fuzzer(artifact, config)
        fuzzer.run()
        resumed = Fuzzer.resume(fuzzer.checkpoint())  # source embedded
        assert resumed.artifact.name == "Crowdsale"

    def test_state_cache_campaigns_checkpoint_and_resume(self):
        """The prefix-snapshot tree is checkpoint-transparent: a cached
        campaign interrupted mid-flight resumes (cache rebuilt cold) to
        the same bytes as the uninterrupted run."""
        config = mufuzz_config(iterations=40, rng_seed=13)
        baseline = result_bytes(Fuzzer(CROWDSALE_SOURCE, config,
                                       disable=()).run())
        checkpoints = []
        Fuzzer(CROWDSALE_SOURCE, config, disable=()).run(
            checkpoint_every=9, checkpoint_sink=checkpoints.append)
        assert checkpoints, "campaign too short to emit checkpoints"
        for checkpoint in checkpoints:
            restored = CampaignCheckpoint.from_json(checkpoint.to_json())
            resumed = Fuzzer.resume(restored, artifact=CROWDSALE_SOURCE,
                                    disable=())
            assert resumed.state_cache is not None
            assert result_bytes(resumed.run()) == baseline


class TestCheckpointResume:
    """The hard guarantee: interrupt at any iteration + resume reproduces
    the uninterrupted ``CampaignResult`` byte-for-byte (sans wall time)."""

    CONFIGS = [
        ("mufuzz-crowdsale", CROWDSALE_SOURCE,
         dict(iterations=60, rng_seed=7)),
        ("mufuzz-game", GAME_SOURCE, dict(iterations=45, rng_seed=3)),
    ]

    @pytest.mark.parametrize("label,source,kwargs",
                             CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_resume_at_every_boundary_is_byte_identical(self, label,
                                                        source, kwargs):
        config = mufuzz_config(**kwargs)
        baseline = result_bytes(Fuzzer(source, config).run())

        checkpoints = []
        Fuzzer(source, config).run(checkpoint_every=7,
                                   checkpoint_sink=checkpoints.append)
        assert checkpoints, "campaign too short to emit checkpoints"
        for checkpoint in checkpoints:
            # through the wire: what a killed process would leave on disk
            restored = CampaignCheckpoint.from_json(checkpoint.to_json())
            resumed = Fuzzer.resume(restored, artifact=source).run()
            assert result_bytes(resumed) == baseline

    def test_resume_from_embedded_source(self):
        config = mufuzz_config(iterations=40, rng_seed=11)
        baseline = result_bytes(Fuzzer(CROWDSALE_SOURCE, config).run())
        checkpoints = []
        Fuzzer(CROWDSALE_SOURCE, config).run(
            checkpoint_every=13, checkpoint_sink=checkpoints.append)
        # no artifact argument: the checkpoint embeds the MiniSol source
        resumed = Fuzzer.resume(checkpoints[0]).run()
        assert result_bytes(resumed) == baseline

    def test_interrupting_sink_models_a_crash(self):
        """A sink that raises aborts the campaign mid-flight; resuming from
        its last emitted checkpoint still converges to the baseline."""
        config = mufuzz_config(iterations=50, rng_seed=2)
        baseline = result_bytes(Fuzzer(CROWDSALE_SOURCE, config).run())

        class Interrupt(Exception):
            pass

        captured = []

        def sink(checkpoint):
            captured.append(checkpoint)
            if len(captured) == 2:
                raise Interrupt

        with pytest.raises(Interrupt):
            Fuzzer(CROWDSALE_SOURCE, config).run(checkpoint_every=5,
                                                 checkpoint_sink=sink)
        resumed = Fuzzer.resume(captured[-1], artifact=CROWDSALE_SOURCE)
        assert result_bytes(resumed.run()) == baseline

    def test_tx_budget_campaign_resumes_exactly(self):
        config = mufuzz_config(iterations=None, rng_seed=4)
        config.tx_budget = 260
        baseline = result_bytes(Fuzzer(CROWDSALE_SOURCE, config).run())
        checkpoints = []
        Fuzzer(CROWDSALE_SOURCE, config).run(
            checkpoint_every=9, checkpoint_sink=checkpoints.append)
        assert checkpoints
        resumed = Fuzzer.resume(checkpoints[-1], artifact=CROWDSALE_SOURCE)
        assert result_bytes(resumed.run()) == baseline

    def test_run_kwargs_validation(self):
        fuzzer = Fuzzer(CROWDSALE_SOURCE, mufuzz_config(iterations=5))
        with pytest.raises(ValueError, match=">= 1"):
            fuzzer.run(checkpoint_every=0, checkpoint_sink=lambda c: None)
        with pytest.raises(ValueError, match="sink"):
            fuzzer.run(checkpoint_every=5)


# -- Budgeted campaigns end to end -------------------------------------------------


class TestBudgetedCampaigns:
    def test_tx_budget_stops_the_campaign(self):
        config = mufuzz_config(iterations=None, rng_seed=1)
        config.tx_budget = 120
        fuzzer = Fuzzer(CROWDSALE_SOURCE, config)
        result = fuzzer.run()
        assert result.transactions >= 120
        # overshoot is at most one sequence (budget checked per iteration)
        assert result.transactions <= 120 + config.max_sequence_length + 1

    def test_time_budget_stops_the_campaign(self):
        config = mufuzz_config(iterations=None, rng_seed=1)
        config.time_budget = 0.3
        start = time.perf_counter()
        result = Fuzzer(CROWDSALE_SOURCE, config).run()
        elapsed = time.perf_counter() - start
        assert result.iterations > 0
        assert elapsed < 30.0  # stopped by time, not by running forever

    def test_fuzzer_counters_route_through_budget(self):
        fuzzer = Fuzzer(CROWDSALE_SOURCE, mufuzz_config(iterations=10,
                                                        rng_seed=1))
        fuzzer.run()
        assert fuzzer.executions == fuzzer.budget.iterations_used
        assert fuzzer.transactions == fuzzer.budget.transactions_used
        assert fuzzer.executions >= 10

    def test_config_dataclass_carries_budget_fields(self):
        config = FuzzerConfig(iterations=None, tx_budget=5,
                              time_budget=1.0)
        assert config.iterations is None
        assert config.tx_budget == 5
        assert config.time_budget == 1.0

    def test_dead_energy_field_removed(self):
        assert not hasattr(Seed(), "energy")
