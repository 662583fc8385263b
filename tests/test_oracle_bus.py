"""Streaming oracle bus: parity, subscription filtering, witnesses, replay.

The bus refactor's contract: campaigns driven by incremental event dispatch
must report exactly what the historical per-receipt batch scan reported;
restricting the oracle set must only *remove* findings (strict subset) and
must stop the machine from materializing the event kinds nobody consumes;
and every finding's stored witness must re-trigger it deterministically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import mufuzz_config, normalize_bug_classes
from repro.core.fuzzer import Fuzzer
from repro.core.replay import replay_findings
from repro.evm.trace import (
    EV_ALL,
    EV_BRANCH,
    EV_CALL,
    EV_COMPARE,
    EV_ETHER,
    EV_OVERFLOW,
    EV_SELFDESTRUCT,
    EV_STORAGE,
    events_from_trace,
)
from repro.oracles import ALL_BUG_CLASSES, BugClass, Finding, all_oracles
from repro.oracles.base import FindingCollector
from tests.conftest import CROWDSALE_SOURCE, GAME_SOURCE

#: a contract whose short campaigns reliably produce IO + EF findings
VULNERABLE_SOURCE = """
contract Lockbox {
    uint256 total = 0;
    mapping(address => uint256) shares;
    function put(uint256 v) public payable {
        shares[msg.sender] += v;
        total += v;
    }
    function take(uint256 v) public {
        shares[msg.sender] -= v;
        total -= v;
    }
}
"""


def _campaign(source: str, iterations: int = 40, disable=None,
              **overrides):
    config = mufuzz_config(iterations=iterations, rng_seed=5, **overrides)
    fuzzer = Fuzzer(source, config, disable=disable)
    return fuzzer, fuzzer.run()


class TestStreamingBatchParity:
    """Bus-driven findings == re-scanning every recorded receipt with
    fresh oracles, kind-major (the order the state cache's replay path
    feeds memoized receipts)."""

    @pytest.mark.parametrize("source", [VULNERABLE_SOURCE, GAME_SOURCE,
                                        CROWDSALE_SOURCE])
    def test_streamed_equals_batch_rescan(self, source):
        config = mufuzz_config(iterations=25, rng_seed=3)
        fuzzer = Fuzzer(source, config)

        receipts = []
        original_end = fuzzer.bus.end_transaction

        def spy(receipt):
            receipts.append(receipt)
            return original_end(receipt)

        fuzzer.bus.end_transaction = spy
        result = fuzzer.run()

        batch = FindingCollector()
        oracles = all_oracles()
        for receipt in receipts:
            for oracle in oracles:
                oracle.begin_transaction()
                for event in events_from_trace(receipt.trace,
                                               oracle.subscriptions):
                    oracle.on_event(event, fuzzer.ctx)
                batch.extend(oracle.end_transaction(receipt, fuzzer.ctx))
        for oracle in oracles:
            batch.extend(oracle.finalize(fuzzer.ctx))

        streamed = {(f.key, f.description) for f in result.findings}
        rescanned = {(f.key, f.description) for f in batch.all()}
        assert streamed == rescanned
        if source is VULNERABLE_SOURCE:
            assert result.findings  # parity must have checked something


class TestSubscriptionFiltering:
    def test_full_oracle_mask_skips_unconsumed_kinds(self):
        """No oracle subscribes to storage reads/writes, so even an
        all-oracles campaign must not pay to materialize them."""
        fuzzer, _ = _campaign(VULNERABLE_SOURCE, iterations=5)
        mask = fuzzer.base_chain.event_mask
        assert mask & EV_BRANCH
        assert mask & EV_OVERFLOW
        assert not mask & EV_STORAGE

    def test_restricted_mask_matches_selection(self):
        fuzzer, _ = _campaign(VULNERABLE_SOURCE, iterations=5,
                              bug_classes=("IO",))
        mask = fuzzer.base_chain.event_mask
        assert mask == EV_BRANCH | EV_OVERFLOW

    def test_unsubscribed_events_not_materialized(self):
        fuzzer = Fuzzer(VULNERABLE_SOURCE,
                        mufuzz_config(iterations=5, rng_seed=5,
                                      bug_classes=("IO",)))
        seed = fuzzer._fresh_seed()
        trace = fuzzer._execute(seed)
        assert trace.branches          # engine feedback always recorded
        assert not trace.compares      # SE/TO deselected
        assert not trace.calls         # RE/UE/UD/BD deselected
        assert not trace.storage_ops   # never subscribed
        assert not trace.block_reads   # never subscribed
        assert not trace.ether_received

    def test_no_oracle_campaign_records_branches_only(self):
        fuzzer = Fuzzer(VULNERABLE_SOURCE,
                        mufuzz_config(iterations=5, rng_seed=5,
                                      bug_classes=()))
        assert fuzzer.oracles == []
        assert fuzzer.base_chain.event_mask == EV_BRANCH
        result = fuzzer.run()
        assert result.findings == []
        assert result.coverage > 0

    def test_default_machine_still_records_everything(self):
        """Library users constructing Chain/Machine directly keep the full
        trace — filtering is opt-in by the fuzzer."""
        from repro.chain import Chain
        assert Chain().event_mask == EV_ALL


class TestRestrictedCampaigns:
    def test_single_oracle_findings_are_strict_subset(self):
        _, full = _campaign(VULNERABLE_SOURCE)
        full_keys = {f.key for f in full.findings}
        assert {f.bug_class for f in full.findings} >= {BugClass.IO,
                                                        BugClass.EF}
        for bug_class in (BugClass.IO, BugClass.EF, BugClass.RE):
            _, restricted = _campaign(VULNERABLE_SOURCE,
                                      bug_classes=(bug_class.value,))
            keys = {f.key for f in restricted.findings}
            assert keys <= full_keys
            assert all(f.bug_class == bug_class
                       for f in restricted.findings)
            # the selected class loses nothing by running alone
            assert keys == {k for k in full_keys if k[0] == bug_class}

    def test_restriction_composes_with_supported_set(self):
        config = mufuzz_config(iterations=10, rng_seed=5,
                               bug_classes=("IO", "RE"))
        fuzzer = Fuzzer(VULNERABLE_SOURCE, config,
                        supported_bug_classes={BugClass.IO, BugClass.EF})
        assert [o.bug_class for o in fuzzer.oracles] == [BugClass.IO]

    def test_normalize_bug_classes(self):
        assert normalize_bug_classes(None) is None
        assert normalize_bug_classes(()) == ()
        assert normalize_bug_classes(["RE", BugClass.IO, "RE"]) == \
            ("IO", "RE")
        with pytest.raises(ValueError):
            normalize_bug_classes(["XX"])

    def test_coverage_identical_under_restriction(self):
        """Oracle selection must not perturb the campaign itself — same
        seeds, same coverage, same curve; only findings differ."""
        _, full = _campaign(VULNERABLE_SOURCE, iterations=15)
        _, none = _campaign(VULNERABLE_SOURCE, iterations=15,
                            bug_classes=())
        assert none.coverage == full.coverage
        assert none.curve == full.curve
        assert none.iterations == full.iterations
        assert none.transactions == full.transactions


class TestFindingKey:
    def test_key_includes_contract(self):
        """Two findings at the same pc in different contracts must not
        collapse (multi-contract campaign regression)."""
        a = Finding(BugClass.IO, "TokenA", pc=42, line=3, description="x")
        b = Finding(BugClass.IO, "TokenB", pc=42, line=3, description="x")
        collector = FindingCollector()
        assert collector.add(a)
        assert collector.add(b)
        assert len(collector.all()) == 2
        assert a.key != b.key

    def test_same_contract_same_pc_still_dedups(self):
        a = Finding(BugClass.IO, "Token", pc=42, line=3, description="x")
        b = Finding(BugClass.IO, "Token", pc=42, line=3, description="y")
        collector = FindingCollector()
        assert collector.add(a)
        assert not collector.add(b)
        assert collector.all() == [a]


class TestWitnesses:
    def test_every_finding_carries_a_witness(self):
        _, result = _campaign(VULNERABLE_SOURCE)
        assert result.findings
        for finding in result.findings:
            assert finding.witness, finding
            for call in finding.witness:
                assert {"function", "args", "value", "sender"} <= set(call)

    def test_witness_replay_retriggers_all(self):
        config = mufuzz_config(iterations=40, rng_seed=5)
        fuzzer = Fuzzer(VULNERABLE_SOURCE, config)
        result = fuzzer.run()
        assert result.findings
        outcomes = replay_findings(VULNERABLE_SOURCE, config,
                                   result.findings)
        assert all(o.ok for o in outcomes), \
            [(o.finding.bug_class, o.status) for o in outcomes]

    def test_witness_is_triggering_prefix(self):
        """An IO witness ends at the transaction that overflowed — later
        transactions of the triggering sequence are not dragged along."""
        config = mufuzz_config(iterations=40, rng_seed=5)
        fuzzer = Fuzzer(VULNERABLE_SOURCE, config)
        result = fuzzer.run()
        io = [f for f in result.findings if f.bug_class == BugClass.IO]
        assert io
        for finding in io:
            assert finding.witness[-1]["function"] in ("put", "take")

    def test_ether_freeze_witness_survives_checkpoint(self):
        from repro.oracles.ether_freeze import EtherFreezeOracle
        oracle = EtherFreezeOracle()
        oracle._received = True
        oracle._witness = ({"function": "put", "args": [1],
                            "value": 5, "sender": 7},)
        clone = EtherFreezeOracle()
        clone.restore_state(oracle.state_dict())
        assert clone._received
        assert clone._witness == oracle._witness


class TestPrefixSkipLockstep:
    """The prefix-snapshot state cache fast-forwards memoized prefixes by
    re-dispatching their recorded trace events through the bus
    (``replay_transaction``) instead of re-executing them — stateful
    oracles must observe the identical event stream either way."""

    @pytest.mark.parametrize("source", [VULNERABLE_SOURCE, GAME_SOURCE,
                                        CROWDSALE_SOURCE])
    def test_findings_equal_per_bug_class_with_cache(self, source):
        cached_fuzzer, cached = _campaign(source, iterations=40, disable=())
        _, plain = _campaign(source, iterations=40, disable=("state_cache",))
        assert cached_fuzzer.state_cache.hits > 0

        def by_class(result):
            grouped: dict = {}
            for f in result.findings:
                grouped.setdefault(f.bug_class, []).append(f.to_dict())
            return grouped

        assert by_class(cached) == by_class(plain)
        assert cached.coverage == plain.coverage

    def test_witness_with_skipped_prefix_replays(self):
        """Findings surfaced while their witness prefix was served from
        the cache must still re-trigger through ``replay_findings``."""
        config = mufuzz_config(iterations=40, rng_seed=5)
        fuzzer = Fuzzer(VULNERABLE_SOURCE, config, disable=())
        result = fuzzer.run()
        assert fuzzer.state_cache.hits > 0
        assert result.findings
        outcomes = replay_findings(VULNERABLE_SOURCE, config,
                                   result.findings)
        assert all(o.ok for o in outcomes), \
            [(o.finding.bug_class, o.status) for o in outcomes]

    def test_replay_keeps_cross_transaction_oracle_state(self):
        """Unit-level lockstep: a fast-forwarded transaction must still
        update every replay-sensitive oracle (ether-freeze tracks the
        first ether-delivering prefix across the whole campaign), and
        must advance the bus's sequence position like a live one."""
        from repro.oracles.ether_freeze import EtherFreezeOracle

        config = mufuzz_config(iterations=12, rng_seed=3)
        fuzzer = Fuzzer(VULNERABLE_SOURCE, config, disable=("state_cache",))
        receipts = []
        original_end = fuzzer.bus.end_transaction

        def spy(receipt):
            receipts.append(receipt)
            return original_end(receipt)

        fuzzer.bus.end_transaction = spy
        fuzzer.run()
        ether = [r for r in receipts if r.trace.ether_received and r.success]
        assert ether, "campaign delivered no ether to replay"

        replayer = Fuzzer(VULNERABLE_SOURCE, config)
        ef = next(o for o in replayer.bus.oracles
                  if isinstance(o, EtherFreezeOracle))
        assert not ef._received
        from repro.core.seeds import TxCall
        sequence = [TxCall(function="put", args=[1], value=5, sender=7)]
        replayer.bus.begin_sequence(sequence)
        before = replayer.bus._tx_index
        replayer.bus.replay_transaction(ether[0])
        assert ef._received, \
            "replayed ether receipt missed the ether-freeze oracle"
        assert ef._witness == (sequence[0].to_dict(),)
        assert replayer.bus._tx_index == before + 1

    def test_replay_skips_transaction_local_oracles(self):
        """Transaction-local oracles never see fast-forwarded receipts:
        whatever they would emit is already in the campaign collector (a
        prefix only memoizes after settling live twice), so replay
        returns no duplicate findings for them."""
        from repro.oracles.overflow import IntegerOverflowOracle

        config = mufuzz_config(iterations=12, rng_seed=3)
        fuzzer = Fuzzer(VULNERABLE_SOURCE, config, disable=("state_cache",))
        receipts = []
        original_end = fuzzer.bus.end_transaction

        def spy(receipt):
            receipts.append(receipt)
            return original_end(receipt)

        fuzzer.bus.end_transaction = spy
        result = fuzzer.run()
        overflowing = [r for r in receipts
                       if r.trace.overflows and r.success]
        assert overflowing, "campaign recorded no overflow to replay"
        assert any(f.bug_class == BugClass.IO for f in result.findings)

        replayer = Fuzzer(VULNERABLE_SOURCE, config)
        io_oracle = next(o for o in replayer.bus.oracles
                         if isinstance(o, IntegerOverflowOracle))
        assert not io_oracle.replay_sensitive
        replayer.bus.begin_sequence([])
        findings = replayer.bus.replay_transaction(overflowing[0])
        assert not [f for f in findings if f.bug_class == BugClass.IO]


class TestSubcallRollback:
    """Oracle-local transactional buffers honor subcall_mark/rollback."""

    def test_overflow_buffer_rolls_back(self):
        from repro.oracles.overflow import IntegerOverflowOracle
        from repro.evm.trace import OverflowEvent

        oracle = IntegerOverflowOracle()
        oracle.begin_transaction()
        ev = OverflowEvent(pc=1, address=7, depth=1, op_name="ADD")

        class Ctx:
            address = 7
        oracle.on_event(ev, Ctx)
        mark = oracle.subcall_mark()
        oracle.on_event(OverflowEvent(pc=2, address=7, depth=2,
                                      op_name="SUB"), Ctx)
        oracle.rollback_subcall(mark)
        assert oracle._pending == [ev]

    def test_streamed_reverted_subcall_not_reported(self):
        """End to end: overflow inside a guarded (reverting) call must not
        surface through the streaming path (mirrors the batch regression
        in test_oracles.TestRevertedSubcallRegressions)."""
        source = """
        contract T {
            uint256 total = 0;
            function add(uint256 v) public {
                require(total + v >= total);
                total += v;
            }
        }
        """
        _, result = _campaign(source, iterations=30)
        assert BugClass.IO not in {f.bug_class for f in result.findings}


BENIGN_SOURCES = {
    BugClass.BD: """
    contract B { uint256 last = 0;
        function ping() public { last = block.timestamp; } }
    """,
    BugClass.UD: """
    contract B { address lib;
        constructor() public { lib = msg.sender; }
        function run(uint256 d) public { lib.delegatecall(d); } }
    """,
    BugClass.EF: """
    contract B { function put() public payable {}
        function take(uint256 v) public { msg.sender.transfer(v); } }
    """,
    BugClass.IO: """
    contract B { uint256 total = 0;
        function add(uint256 v) public {
            require(total + v >= total); total += v; } }
    """,
    BugClass.RE: """
    contract B { mapping(address => uint256) shares;
        function join() public payable { shares[msg.sender] += msg.value; }
        function redeem() public {
            uint256 owed = shares[msg.sender];
            shares[msg.sender] = 0;
            msg.sender.transfer(owed); } }
    """,
    BugClass.US: """
    contract B { address owner;
        constructor() public { owner = msg.sender; }
        function kill() public {
            require(msg.sender == owner); selfdestruct(owner); } }
    """,
    BugClass.SE: """
    contract B { uint256 ok = 0;
        function check() public {
            if (this.balance >= 1 finney) { ok = 1; } } }
    """,
    BugClass.TO: """
    contract B { address owner;
        constructor() public { owner = msg.sender; }
        function claim() public { require(msg.sender == owner); } }
    """,
    BugClass.UE: """
    contract B { uint256 failures = 0;
        function pay(address to, uint256 v) public {
            bool ok = to.send(v);
            if (!ok) { failures += 1; } } }
    """,
}


class TestNegativeCases:
    """False-positive guard: one benign-but-tempting contract per bug
    class; a short all-oracles campaign must report nothing for it."""

    @pytest.mark.parametrize(
        "bug_class", ALL_BUG_CLASSES,
        ids=[bc.value for bc in ALL_BUG_CLASSES])
    def test_benign_contract_yields_no_finding(self, bug_class):
        _, result = _campaign(BENIGN_SOURCES[bug_class], iterations=25)
        found = {f.bug_class for f in result.findings}
        assert bug_class not in found, result.findings


# -- extended Finding wire format (hypothesis round-trips) --------------------

witness_calls = st.lists(
    st.fixed_dictionaries({
        "function": st.sampled_from(["put", "take", "#fallback"]),
        "args": st.lists(st.integers(min_value=0,
                                     max_value=(1 << 256) - 1),
                         max_size=3),
        "value": st.integers(min_value=0, max_value=10 ** 19),
        "sender": st.integers(min_value=0, max_value=(1 << 160) - 1),
    }),
    max_size=4)

findings = st.builds(
    Finding,
    bug_class=st.sampled_from(ALL_BUG_CLASSES),
    contract=st.text(min_size=1, max_size=12),
    pc=st.integers(min_value=0, max_value=1 << 16),
    line=st.integers(min_value=0, max_value=9999),
    description=st.text(max_size=60),
    severity=st.sampled_from(["high", "medium", "low"]),
    confidence=st.floats(min_value=0.0, max_value=1.0,
                         allow_nan=False),
    witness=witness_calls.map(tuple),
)


class TestFindingWireFormat:
    @given(finding=findings)
    @settings(max_examples=60, deadline=None)
    def test_dict_roundtrip_exact(self, finding):
        assert Finding.from_dict(finding.to_dict()) == finding
        assert Finding.from_dict(finding.to_dict()).witness == \
            finding.witness

    @given(finding=findings)
    @settings(max_examples=60, deadline=None)
    def test_json_stable(self, finding):
        import json
        once = json.dumps(finding.to_dict(), sort_keys=True)
        twice = json.dumps(
            Finding.from_dict(json.loads(once)).to_dict(), sort_keys=True)
        assert once == twice

    def test_legacy_record_without_new_fields(self):
        legacy = {"bug_class": "IO", "contract": "T", "pc": 5,
                  "line": 2, "description": "d"}
        finding = Finding.from_dict(legacy)
        assert finding.witness == ()
        assert finding.severity == "medium"
        assert finding.confidence == 0.5
