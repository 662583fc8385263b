"""The one feedback pass equals the walks it replaced.

:func:`repro.analysis.distance.distances_from_trace` walks an execution's
branch events once and ``Fuzzer._feedback`` derives everything else from
its result.  The reference below keeps the earlier feedback, which walked
the events three times: a distance table over every address (filtered to
the target afterwards), one ``EnergyScheduler.record`` step per event,
and two set comprehensions.  Both are run on traces recorded from real
campaigns, prefix receipts merged in by the state cache included, and
must agree on every value and on every order that reaches results.
"""

from __future__ import annotations

import pytest

from repro.analysis.distance import UNSEEN_DISTANCE, distances_from_trace
from repro.analysis.prefix import PrefixAnalyzer
from repro.compiler import compile_source
from repro.core.config import ENERGY_DYNAMIC, mufuzz_config
from repro.core.energy import NESTED_UNIT, VULNERABLE_BONUS, EnergyScheduler
from repro.core.fuzzer import Fuzzer
from repro.corpus import generate_d3
from repro.evm.trace import (
    U256_MAX,
    BranchEvent,
    ExecutionTrace,
    combine_and,
    comparison_shadow,
)
from tests.conftest import CROWDSALE_SOURCE


# -- the walks the one pass replaced -------------------------------------------


def reference_distances(trace: ExecutionTrace) -> dict:
    """The distance table over every address, as first computed."""
    out: dict = {}
    for event in trace.branches:
        desired = not event.taken
        dist = event.dist_false if event.taken else event.dist_true
        if dist is None:
            dist = 1
        key = (event.address, event.pc, desired)
        if dist < out.get(key, UNSEEN_DISTANCE):
            out[key] = dist
    return out


def reference_record(scheduler: EnergyScheduler, trace: ExecutionTrace,
                     address: int) -> None:
    """``EnergyScheduler.record`` as it was: one step per event."""
    for event in trace.branches:
        if event.address != address:
            continue
        key = (event.pc, event.taken)
        scheduler.hit_counts[key] = scheduler.hit_counts.get(key, 0) + 1
        if event.pc not in scheduler.weights:
            reach = scheduler.prefix.reachability(event.pc)
            w2 = VULNERABLE_BONUS if reach.any_vulnerable else 0.0
            scheduler.weights[event.pc] = NESTED_UNIT + w2
            scheduler._max_weight = max(scheduler._max_weight,
                                        scheduler.weights[event.pc])


def reference_seed_sets(trace: ExecutionTrace, address: int,
                        branch_info: dict) -> tuple:
    """``seed.covered_edges`` and ``seed.nested_hits`` as they were."""
    def nesting_of(pc: int) -> int:
        info = branch_info.get(pc)
        return info.nesting if info else 0

    covered = {(pc, taken) for addr, pc, taken in trace.branch_edges
               if addr == address}
    nested = {event.pc for event in trace.branches
              if event.address == address and nesting_of(event.pc) >= 1}
    return covered, nested


# -- recorded traces -------------------------------------------------------------


def _recorded_campaign(source: str, name: str | None, iterations: int):
    """Run a MuFuzz campaign and keep every execution's merged trace."""
    artifact = compile_source(source, name)
    fuzzer = Fuzzer(artifact, mufuzz_config(iterations=iterations))
    traces = []
    execute = fuzzer._execute

    def recording_execute(seed):
        trace = execute(seed)
        traces.append(trace)
        return trace

    fuzzer._execute = recording_execute
    fuzzer.run()
    assert len(traces) >= iterations
    return fuzzer, traces


@pytest.fixture(scope="module", params=["crowdsale", "d3"])
def campaign(request):
    if request.param == "crowdsale":
        return _recorded_campaign(CROWDSALE_SOURCE, None, 120)
    contract = generate_d3(count=2)[1]
    fuzzer, traces = _recorded_campaign(contract.source, contract.name, 150)
    # prefix receipts were merged into some of these traces
    assert fuzzer.state_cache.hits > 0
    return fuzzer, traces


def _new_scheduler(fuzzer) -> EnergyScheduler:
    return EnergyScheduler(strategy=ENERGY_DYNAMIC,
                           prefix=PrefixAnalyzer(
                               fuzzer.artifact.runtime_code))


class TestOnePassEqualsTheWalks:
    def test_hits_are_per_event_counts_in_first_seen_order(self, campaign):
        fuzzer, traces = campaign
        for trace in traces:
            hits, _ = distances_from_trace(trace, fuzzer.address)
            expected: dict = {}
            for event in trace.branches:
                if event.address == fuzzer.address:
                    edge = (event.pc, event.taken)
                    expected[edge] = expected.get(edge, 0) + 1
            assert list(hits.items()) == list(expected.items())

    def test_distances_match_the_filtered_table_key_for_key(self, campaign):
        fuzzer, traces = campaign
        recorded = 0
        for trace in traces:
            _, distances = distances_from_trace(trace, fuzzer.address)
            expected = {key: dist
                        for key, dist in reference_distances(trace).items()
                        if key[0] == fuzzer.address}
            # key order reaches results: the selector's targets follow it
            assert list(distances.items()) == list(expected.items())
            recorded += len(distances)
        assert recorded

    def test_seed_sets_match_the_comprehensions(self, campaign):
        fuzzer, traces = campaign
        nested_seen = 0
        for trace in traces:
            hits, _ = distances_from_trace(trace, fuzzer.address)
            covered, nested = reference_seed_sets(
                trace, fuzzer.address, fuzzer.artifact.branch_info)
            assert set(hits) == covered
            assert {pc for pc, _ in hits
                    if pc in fuzzer._nested_pcs} == nested
            nested_seen += bool(nested)
        assert nested_seen

    def test_scheduler_state_matches_per_event_recording(self, campaign):
        fuzzer, traces = campaign
        one_pass, reference = _new_scheduler(fuzzer), _new_scheduler(fuzzer)
        for trace in traces:
            hits, _ = distances_from_trace(trace, fuzzer.address)
            one_pass.record(hits)
            reference_record(reference, trace, fuzzer.address)
        assert list(one_pass.hit_counts.items()) == \
            list(reference.hit_counts.items())
        assert list(one_pass.weights.items()) == \
            list(reference.weights.items())
        assert one_pass._max_weight == reference._max_weight

    def test_feedback_sets_what_the_walks_set(self, campaign):
        """``Fuzzer._feedback`` on a recorded trace leaves the seed with
        the reference's covered edges and nested hits."""
        fuzzer, traces = campaign
        for trace in traces[:20]:
            seed = fuzzer.queue.seeds[0].clone()
            fuzzer._feedback(seed, trace)
            covered, nested = reference_seed_sets(
                trace, fuzzer.address, fuzzer.artifact.branch_info)
            assert seed.covered_edges == covered
            assert seed.nested_hits == nested


class TestDistanceCap:
    ADDRESS = 1

    def _event(self, pc, taken, dist_true=None, dist_false=None,
               address=ADDRESS):
        return BranchEvent(pc=pc, address=address, depth=0, taken=taken,
                           dist_true=dist_true, dist_false=dist_false)

    def test_and_of_two_lts_at_their_largest_distance_is_the_cap(self):
        far = comparison_shadow("LT", U256_MAX, 0, frozenset())
        assert far.dist_true == 1 << 256
        assert combine_and(far, far).dist_true == UNSEEN_DISTANCE

    def test_a_distance_at_the_cap_stays_unrecorded(self):
        far = comparison_shadow("LT", U256_MAX, 0, frozenset())
        capped = combine_and(far, far)
        trace = ExecutionTrace()
        trace.branches += [
            # not taken at the cap: counted as a hit, no distance
            self._event(5, False, dist_true=capped.dist_true),
            self._event(9, True, dist_false=3),
            self._event(7, False, dist_true=4, address=2),  # other address
            self._event(5, False, dist_true=UNSEEN_DISTANCE - 1),
            self._event(9, True, dist_false=None),
        ]
        hits, distances = distances_from_trace(trace, self.ADDRESS)
        assert list(hits.items()) == [((5, False), 2), ((9, True), 2)]
        # pc 5 got its first recordable distance after pc 9 did
        assert list(distances.items()) == [
            ((1, 9, False), 1), ((1, 5, True), UNSEEN_DISTANCE - 1)]
        expected = {key: dist
                    for key, dist in reference_distances(trace).items()
                    if key[0] == self.ADDRESS}
        assert list(distances.items()) == list(expected.items())

    def test_only_the_cap_is_never_recorded(self):
        trace = ExecutionTrace()
        trace.branches.append(self._event(5, True,
                                          dist_false=UNSEEN_DISTANCE))
        hits, distances = distances_from_trace(trace, self.ADDRESS)
        assert hits == {(5, True): 1}
        assert distances == {}
        assert reference_distances(trace) == {}
