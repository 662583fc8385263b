"""Tests for the §VI prefix-snapshot tree (the default-on state cache).

The cache is a pure performance layer, so the contract under test is
twofold: *mechanics* (selective insertion, leaf-first LRU eviction, no
deep world copies anywhere on the hot path) and *transparency* (campaign
results byte-identical with the cache on or off, including findings,
witnesses, budget accounting, and checkpoint/resume).
"""

import pytest

from repro.chain.blockchain import Chain
from repro.chain.state import WorldState
from repro.core import Fuzzer, mufuzz_config
from repro.core.seeds import Seed, TxCall
from repro.core.statecache import PrefixStateCache, call_key
from repro.engine.checkpoint import canonical_json
from tests.conftest import CROWDSALE_SOURCE, GAME_SOURCE


def calls(*specs):
    return [TxCall(function=f, args=list(a), value=v, sender=s)
            for f, a, v, s in specs]


def result_json(result) -> str:
    return canonical_json({**result.to_dict(), "wall_time": 0.0})


def _cache_fuzzer(source, config, use_cache=True) -> Fuzzer:
    """A fuzzer with the state cache pinned on or off."""
    return Fuzzer(source, config,
                  disable=() if use_cache else ("state_cache",))


def _run(source, use_cache, **overrides):
    overrides.setdefault("rng_seed", 21)
    fuzzer = _cache_fuzzer(source, mufuzz_config(**overrides), use_cache)
    return fuzzer, fuzzer.run()


def _tree_nodes(cache):
    stack = [cache.root]
    while stack:
        node = stack.pop()
        if node is not cache.root:
            yield node
        stack.extend(node.children.values())


class TestCacheMechanics:
    def test_call_key_covers_all_effect_inputs(self):
        base = TxCall(function="f", args=[1], value=2, sender=3)
        assert call_key(base) == call_key(base.clone())
        for mutated in (
                TxCall(function="g", args=[1], value=2, sender=3),
                TxCall(function="f", args=[9], value=2, sender=3),
                TxCall(function="f", args=[1], value=9, sender=3),
                TxCall(function="f", args=[1], value=2, sender=9)):
            assert call_key(mutated) != call_key(base)

    def test_miss_on_empty_cache(self):
        cache = PrefixStateCache()
        assert cache.match(calls(("f", [1], 0, 1))) == []
        assert cache.misses == 1 and cache.hits == 0

    def test_selective_insertion_memoizes_on_recurrence(self):
        """First execution of a prefix costs a skeleton, the second
        materializes it, and only the third is a hit."""
        fuzzer = _cache_fuzzer(CROWDSALE_SOURCE,
                               mufuzz_config(iterations=10, rng_seed=1))
        seed = Seed(calls=calls(("invest", [7], 0, 0x00CA_FE01)))
        cache = fuzzer.state_cache

        fuzzer._execute(seed)
        assert len(cache) == 0 and cache.node_count == 1  # skeleton only
        fuzzer._execute(seed)
        assert len(cache) == 1          # materialized on recurrence...
        assert cache.hits == 0          # ...but that visit still executed
        fuzzer._execute(seed)
        assert cache.hits == 1
        assert cache.steps_saved > 0
        assert cache.transactions_skipped == 1

    def test_lru_capacity_and_leaf_first_eviction(self):
        """The materialized set stays within capacity, and eviction never
        strands a materialized node below an unmaterialized ancestor."""
        fuzzer, _ = _run(CROWDSALE_SOURCE, True, iterations=80,
                         state_cache_capacity=4)
        cache = fuzzer.state_cache
        assert cache.hits > 0
        assert len(cache) <= 4
        for node in _tree_nodes(cache):
            if node.receipt is None:
                continue
            parent = node.parent
            while parent is not cache.root:
                assert parent.receipt is not None, \
                    "materialized node stranded below an evicted parent"
                parent = parent.parent

    def test_skeleton_pruning_bounds_tree_size(self):
        fuzzer, _ = _run(CROWDSALE_SOURCE, True, iterations=120,
                         state_cache_capacity=4)
        cache = fuzzer.state_cache
        assert cache.node_count <= cache.max_nodes
        assert sum(1 for _ in _tree_nodes(cache)) == cache.node_count

    def test_no_world_fork_on_the_cache_path(self, monkeypatch):
        """Acceptance criterion: neither hits nor inserts deep-copy the
        world — a cached campaign must complete with forking forbidden."""
        def forbidden(self):
            raise AssertionError("deep fork on the state-cache hot path")

        monkeypatch.setattr(WorldState, "fork", forbidden)
        monkeypatch.setattr(Chain, "fork", forbidden)
        fuzzer, result = _run(CROWDSALE_SOURCE, True, iterations=60)
        assert result.iterations == 60
        assert fuzzer.state_cache.hits > 0

    def test_stats_shape(self):
        fuzzer, _ = _run(GAME_SOURCE, True, iterations=40)
        stats = fuzzer.state_cache.stats()
        assert set(stats) == {"hits", "misses", "hit_rate", "steps_saved",
                              "transactions_skipped", "nodes",
                              "materialized", "bytes_estimate"}
        assert 0.0 < stats["hit_rate"] < 1.0
        assert stats["bytes_estimate"] > 0
        assert stats["materialized"] == len(fuzzer.state_cache)


class TestCacheTransparency:
    """The cache must be invisible in campaign results."""

    @pytest.mark.parametrize("source", [CROWDSALE_SOURCE, GAME_SOURCE],
                             ids=["crowdsale", "game"])
    def test_campaign_json_byte_identical(self, source):
        _, with_cache = _run(source, True, iterations=80)
        _, without = _run(source, False, iterations=80)
        assert result_json(with_cache) == result_json(without)

    def test_replayed_steps_still_counted(self):
        """Skipped prefixes keep their recorded steps and transactions —
        the saving is wall clock, not accounting."""
        fuzzer, cached = _run(CROWDSALE_SOURCE, True, iterations=80)
        _, plain = _run(CROWDSALE_SOURCE, False, iterations=80)
        assert cached.total_steps == plain.total_steps
        assert cached.transactions == plain.transactions
        stats = fuzzer.state_cache.stats()
        assert stats["hits"] > 0
        assert stats["steps_saved"] > 0

    def test_findings_equal_per_bug_class(self):
        _, with_cache = _run(GAME_SOURCE, True, iterations=80)
        _, without = _run(GAME_SOURCE, False, iterations=80)

        def by_class(result):
            grouped: dict = {}
            for f in result.findings:
                grouped.setdefault(f.bug_class, []).append(
                    (f.pc, f.witness))
            return grouped

        assert by_class(with_cache) == by_class(without)

    def test_suffix_replay_matches_full_execution(self):
        """Execute a sequence until its prefix is memoized, then a
        one-call extension: the fast-forwarded suffix run must equal a
        cold full execution."""
        config = mufuzz_config(iterations=10, rng_seed=1)
        fuzzer = _cache_fuzzer(CROWDSALE_SOURCE, config)
        base = Seed(calls=calls(
            ("invest", [10 ** 20], 0, 0x00CA_FE01),
            ("invest", [5], 0, 0x00CA_FE01)))
        fuzzer._execute(base)
        fuzzer._execute(base)  # second visit materializes the prefix

        extended = Seed(calls=base.calls + calls(
            ("withdraw", [], 0, 0x00CA_FE01)))
        warm = fuzzer._execute(extended)
        assert fuzzer.state_cache.hits == 1

        cold_fuzzer = _cache_fuzzer(CROWDSALE_SOURCE, config,
                                    use_cache=False)
        cold = cold_fuzzer._execute(
            Seed(calls=[c.clone() for c in extended.calls]))

        assert warm.branch_edges == cold.branch_edges
        assert warm.steps == cold.steps
        assert [a.balance for a in fuzzer.base_chain.world.accounts()] \
            == [a.balance for a in cold_fuzzer.base_chain.world.accounts()]

    def test_witness_from_skipped_prefix_replays(self):
        """A finding whose witness prefix was fast-forwarded from the
        cache must still re-trigger deterministically on replay."""
        fuzzer, result = _run(GAME_SOURCE, True, iterations=80, rng_seed=5)
        assert fuzzer.state_cache.hits > 0
        assert result.findings
        multi_tx = [f for f in result.findings if len(f.witness) > 1]
        assert multi_tx, "campaign produced no multi-transaction witness"
        for finding in result.findings:
            replayer = _cache_fuzzer(GAME_SOURCE, mufuzz_config(
                rng_seed=5, iterations=80))
            assert replayer.replay(finding), finding
