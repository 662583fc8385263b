"""Unit tests for the analysis layer: disassembler, CFG, data-flow, prefix."""

import pytest

from repro.analysis import (
    analyze_contract,
    build_cfg,
    disassemble,
    jumpi_pcs,
    PrefixAnalyzer,
)
from repro.analysis.surface import (
    BUG_CLASS_CODES,
    compute_surface,
    surface_for,
)
from repro.analysis.distance import distances_from_trace
from repro.compiler import compile_source
from repro.evm import analysis as evm_analysis
from repro.evm.analysis import analyze_code
from repro.evm.opcodes import Op
from repro.evm.trace import BranchEvent, ExecutionTrace
from repro.lang.parser import parse_source
from tests.conftest import CROWDSALE_SOURCE
from tests.test_oracles import Harness


class TestDisassembler:
    def test_simple_sequence(self):
        code = bytes([Op.CALLER, Op.ORIGIN, Op.EQ, Op.STOP])
        instructions = disassemble(code)
        assert [i.name for i in instructions] == [
            "CALLER", "ORIGIN", "EQ", "STOP"]

    def test_push_operand_decoded(self):
        code = bytes([0x61, 0x12, 0x34, Op.STOP])  # PUSH2 0x1234
        instructions = disassemble(code)
        assert instructions[0].operand == 0x1234
        assert instructions[1].pc == 3

    def test_truncated_push_zero_pads_right(self):
        # PUSH3 with 1 byte of data: the EVM reads the two missing
        # immediate bytes as zero, so the value is 0x010000, not 1.
        code = bytes([0x62, 0x01])
        instructions = disassemble(code)
        assert instructions[0].operand == 0x010000

    def test_jumpi_pcs(self, crowdsale_artifact):
        pcs = jumpi_pcs(crowdsale_artifact.runtime_code)
        assert pcs == sorted(crowdsale_artifact.branch_info)


class TestCFG:
    def test_blocks_partition_code(self, crowdsale_artifact):
        cfg = build_cfg(crowdsale_artifact.runtime_code)
        instruction_count = len(disassemble(crowdsale_artifact.runtime_code))
        total = sum(len(b.instructions) for b in cfg.blocks.values())
        assert total == instruction_count

    def test_jumpi_block_has_two_successors(self, crowdsale_artifact):
        cfg = build_cfg(crowdsale_artifact.runtime_code)
        jumpi_blocks = [b for b in cfg.blocks.values()
                        if b.terminator.opcode == Op.JUMPI]
        assert jumpi_blocks
        for block in jumpi_blocks:
            assert len(block.successors) == 2

    def test_revert_block_has_no_successors(self, crowdsale_artifact):
        cfg = build_cfg(crowdsale_artifact.runtime_code)
        for block in cfg.blocks.values():
            if block.terminator.opcode == Op.REVERT:
                assert block.successors == []

    def test_block_at_lookup(self, crowdsale_artifact):
        cfg = build_cfg(crowdsale_artifact.runtime_code)
        for pc in jumpi_pcs(crowdsale_artifact.runtime_code):
            block = cfg.block_at(pc)
            assert block is not None
            assert block.terminator.pc == pc

    def test_reachability_finds_call_from_entry(self, crowdsale_artifact):
        cfg = build_cfg(crowdsale_artifact.runtime_code)
        reachable = cfg.reachable_opcodes_from(0)
        assert Op.CALL in reachable  # transfers exist downstream of entry


class TestDataflow:
    def test_crowdsale_read_write_sets(self):
        contract = parse_source(CROWDSALE_SOURCE).contracts[0]
        dataflow = analyze_contract(contract)
        invest = dataflow.of("invest")
        assert invest.writes == {"invests", "invested", "phase"}
        assert {"invested", "goal"} <= invest.reads
        refund = dataflow.of("refund")
        assert "phase" in refund.reads
        assert refund.writes == {"invests"}
        withdraw = dataflow.of("withdraw")
        assert {"phase", "invested", "owner"} <= withdraw.reads
        assert withdraw.writes == set()

    def test_crowdsale_raw_self_dependency(self):
        contract = parse_source(CROWDSALE_SOURCE).contracts[0]
        dataflow = analyze_contract(contract)
        assert "invested" in dataflow.of("invest").raw_self_deps
        assert "invests" in dataflow.of("invest").raw_self_deps

    def test_crowdsale_repeat_candidates(self):
        """The paper's core example: invest must be repeatable (§IV-A)."""
        contract = parse_source(CROWDSALE_SOURCE).contracts[0]
        dataflow = analyze_contract(contract)
        assert "invest" in dataflow.repeat_candidates()

    def test_branch_reads(self):
        contract = parse_source(CROWDSALE_SOURCE).contracts[0]
        dataflow = analyze_contract(contract)
        assert {"invested", "goal"} <= dataflow.of("invest").branch_reads
        assert "phase" in dataflow.of("withdraw").branch_reads

    def test_write_read_edges_order_invest_first(self):
        contract = parse_source(CROWDSALE_SOURCE).contracts[0]
        dataflow = analyze_contract(contract)
        edges = dataflow.write_read_edges()
        assert ("invest", "withdraw", "phase") in edges
        assert ("invest", "refund", "phase") in edges

    def test_local_alias_counts_as_branch_read(self):
        source = """
        contract T {
            uint256 level = 0;
            function f() public {
                uint256 snapshot = level;
                if (snapshot > 5) { level = 0; }
            }
        }
        """
        contract = parse_source(source).contracts[0]
        dataflow = analyze_contract(contract)
        assert "level" in dataflow.of("f").branch_reads

    def test_internal_call_effects_propagate(self):
        source = """
        contract T {
            uint256 total = 0;
            function bump() internal { total += 1; }
            function f() public { bump(); }
        }
        """
        contract = parse_source(source).contracts[0]
        dataflow = analyze_contract(contract)
        assert "total" in dataflow.of("f").writes
        assert "total" in dataflow.of("f").raw_self_deps

    def test_modifier_reads_merge_into_function(self):
        source = """
        contract T {
            address owner;
            uint256 x = 0;
            modifier onlyOwner() { require(msg.sender == owner); _; }
            constructor() public { owner = msg.sender; }
            function f() public onlyOwner { x = 1; }
        }
        """
        contract = parse_source(source).contracts[0]
        dataflow = analyze_contract(contract)
        assert "owner" in dataflow.of("f").reads

    def test_stateless_function_not_stateful(self):
        source = """
        contract T {
            uint256 x = 0;
            function pure_fn(uint256 v) public {}
            function writes(uint256 v) public { x = v; }
        }
        """
        contract = parse_source(source).contracts[0]
        dataflow = analyze_contract(contract)
        assert dataflow.stateful_functions() == ["writes"]


class TestPrefixAnalyzer:
    def test_nested_scores_count_prefix_branches(self):
        analyzer = PrefixAnalyzer(b"")
        path = [
            BranchEvent(pc=10, address=1, depth=0),
            BranchEvent(pc=20, address=1, depth=0),
            BranchEvent(pc=30, address=1, depth=0),
        ]
        scores = analyzer.nested_scores(path)
        assert scores == {10: 1, 20: 2, 30: 3}

    def test_nested_scores_keep_deepest(self):
        analyzer = PrefixAnalyzer(b"")
        path = [
            BranchEvent(pc=10, address=1, depth=0),
            BranchEvent(pc=20, address=1, depth=0),
            BranchEvent(pc=10, address=1, depth=0),
        ]
        assert analyzer.nested_scores(path)[10] == 3

    def test_vulnerable_reachability_on_crowdsale(self, crowdsale_artifact):
        analyzer = PrefixAnalyzer(crowdsale_artifact.runtime_code)
        # the withdraw `if` guards a transfer: CALL must be reachable from
        # at least one branch direction of some JUMPI
        any_call = any(
            Op.CALL in analyzer.reachability(pc).taken
            or Op.CALL in analyzer.reachability(pc).fallthrough
            for pc in crowdsale_artifact.branch_info)
        assert any_call

    def test_reachability_cached(self, crowdsale_artifact):
        analyzer = PrefixAnalyzer(crowdsale_artifact.runtime_code)
        pc = next(iter(crowdsale_artifact.branch_info))
        first = analyzer.reachability(pc)
        assert analyzer.reachability(pc) is first

    def test_campaigns_share_one_cfg_and_fixpoint(self, crowdsale_artifact,
                                                  monkeypatch):
        code = crowdsale_artifact.runtime_code
        surface = surface_for(code)
        cfg = analyze_code(code).cfg
        first = PrefixAnalyzer(code, surface=surface)
        second = PrefixAnalyzer(code, surface=surface)
        # an equal code in another bytes object finds the same record
        fresh = PrefixAnalyzer(bytes(bytearray(code)))
        assert first.cfg is second.cfg is fresh.cfg is cfg
        walks = []
        reference = type(cfg).reachable_opcodes_from
        monkeypatch.setattr(type(cfg), "reachable_opcodes_from",
                            lambda cfg, pc: walks.append(pc)
                            or reference(cfg, pc))
        for pc in crowdsale_artifact.branch_info:
            # every JUMPI successor is a block start: no per-query walk
            assert first.reachability(pc) == second.reachability(pc) \
                == fresh.reachability(pc)
        assert walks == []
        assert len(cfg._reach) == 1

    def test_fixpoint_matches_bfs_on_every_corpus_block(self):
        """The one-pass reachability fixpoint equals the per-block walk
        on every block of the D1, D2 and D3 corpora."""
        from repro.analysis.prefix import VULNERABLE_OPCODES
        from repro.corpus import generate_d1, generate_d2, generate_d3

        blocks = 0
        for contract in [*generate_d1(), *generate_d2(), *generate_d3()]:
            code = compile_source(contract.source,
                                  contract.name).runtime_code
            cfg = build_cfg(code)
            fixpoint = cfg.reachable_opcode_sets(VULNERABLE_OPCODES)
            assert fixpoint.keys() == cfg.blocks.keys()
            for start in cfg.blocks:
                assert fixpoint[start] == (
                    cfg.reachable_opcodes_from(start)
                    & VULNERABLE_OPCODES), (contract.name, start)
            blocks += len(cfg.blocks)
        assert blocks > 30_000


class TestDistances:
    def _trace_with_branch(self, pc=5, taken=False, dist_true=7,
                           dist_false=0):
        trace = ExecutionTrace()
        event = BranchEvent(pc=pc, address=1, depth=0, taken=taken,
                            dist_true=dist_true, dist_false=dist_false)
        trace.branches.append(event)
        return trace

    def test_distance_to_untaken_direction(self):
        trace = self._trace_with_branch(taken=False, dist_true=7)
        hits, distances = distances_from_trace(trace, 1)
        assert distances[(1, 5, True)] == 7
        assert hits == {(5, False): 1}

    def test_none_distance_maps_to_one(self):
        trace = self._trace_with_branch(dist_true=None, dist_false=None)
        _, distances = distances_from_trace(trace, 1)
        assert distances[(1, 5, True)] == 1


# -- vulnerability surface: per-class dead/live contract pairs (PR 8) ---------
#
# For every bug class, one contract the surface *proves* impossible (dead:
# the class's opcodes are absent from the whole code) and one where it stays
# live AND the corresponding oracle actually finds the bug end to end — so
# the pruning proofs are exercised against ground truth in both directions.


class TestSurfaceDeadLivePairs:
    DEAD = {
        # no block-environment opcode anywhere (arithmetic is irrelevant)
        "BD": """
        contract T {
            uint256 total = 0;
            function add(uint256 v) public { total += v; }
        }
        """,
        # a plain CALL (send) but no DELEGATECALL
        "UD": """
        contract T {
            function pay(address to, uint256 v) public {
                require(to.send(v));
            }
        }
        """,
        # ether can leave via transfer's CALL — freeze needs *no* send path
        "EF": """
        contract T {
            function put() public payable {}
            function take(uint256 v) public { msg.sender.transfer(v); }
        }
        """,
        # storage writes without any ADD/SUB/MUL
        "IO": """
        contract T {
            uint256 stored = 0;
            function set(uint256 v) public { stored = v; }
        }
        """,
        # no external call at all
        "RE": """
        contract T {
            uint256 x = 0;
            function poke() public { x = 1; }
        }
        """,
        # no SELFDESTRUCT
        "US": """
        contract T {
            uint256 x = 0;
            function poke() public { x = 1; }
        }
        """,
        # EQ on a calldata word, but no BALANCE read
        "SE": """
        contract T {
            uint256 ok = 0;
            function check(uint256 v) public { if (v == 88) { ok = 1; } }
        }
        """,
        # CALLER-based auth, no ORIGIN
        "TO": """
        contract T {
            address owner;
            constructor() public { owner = msg.sender; }
            function claim() public { require(msg.sender == owner); }
        }
        """,
        # no external call whose result could go unchecked
        "UE": """
        contract T {
            uint256 x = 0;
            function poke() public { x = 1; }
        }
        """,
    }

    LIVE = {
        "BD": ("""
        contract T {
            uint256 wins = 0;
            function roll() public {
                if (block.timestamp % 10 == 3) { wins += 1; }
            }
        }
        """, 10 ** 18, lambda h: h.call("roll")),
        "UD": ("""
        contract T {
            function run(address target, uint256 data) public {
                target.delegatecall(data);
            }
        }
        """, 10 ** 18, lambda h: h.call("run", 0xB0B, 1)),
        "EF": ("""
        contract T {
            mapping(address => uint256) deposits;
            function put() public payable {
                deposits[msg.sender] += msg.value;
            }
        }
        """, 0, lambda h: h.call("put", value=1000)),
        "IO": ("""
        contract T {
            uint256 total = 0;
            function add(uint256 v) public { total += v; }
        }
        """, 10 ** 18, lambda h: (h.call("add", (1 << 256) - 1),
                                  h.call("add", 2))),
        "RE": ("""
        contract T {
            mapping(address => uint256) shares;
            function join() public payable {
                shares[msg.sender] += msg.value;
            }
            function redeem() public {
                uint256 owed = shares[msg.sender];
                if (owed > 0) {
                    bool sent = msg.sender.call.value(owed)();
                    require(sent);
                    shares[msg.sender] = 0;
                }
            }
        }
        """, 10 ** 18, lambda h: (
            h.call("join", sender=0xA11CE, value=10_000, arm=False),
            h.call("join", sender=0x999, value=1_000, arm=False),
            h.call("redeem", sender=0x999))),
        "US": ("""
        contract T {
            function kill() public { selfdestruct(msg.sender); }
        }
        """, 10 ** 18, lambda h: h.call("kill", sender=0xB0B)),
        "SE": ("""
        contract T {
            uint256 bonus = 0;
            function check() public {
                if (this.balance == 88 finney) { bonus = 1; }
            }
        }
        """, 10 ** 18, lambda h: h.call("check")),
        "TO": ("""
        contract T {
            address owner;
            constructor() public { owner = msg.sender; }
            function claim() public { require(tx.origin == owner); }
        }
        """, 10 ** 18, lambda h: h.call("claim")),
        "UE": ("""
        contract T {
            function pay(address to, uint256 v) public { to.send(v); }
        }
        """, 10 ** 18, lambda h: h.call("pay", 0x888, 100)),
    }

    @pytest.mark.parametrize("code", sorted(BUG_CLASS_CODES))
    def test_dead_contract_is_proved_impossible(self, code):
        artifact = compile_source(self.DEAD[code])
        surface = compute_surface(artifact.runtime_code)
        assert code in surface.dead
        assert not surface.is_live(code)
        assert surface.proofs[code]

    @pytest.mark.parametrize("code", sorted(BUG_CLASS_CODES))
    def test_live_contract_stays_live_and_oracle_fires(self, code):
        source, deploy_value, drive = self.LIVE[code]
        artifact = compile_source(source)
        surface = compute_surface(artifact.runtime_code)
        assert surface.is_live(code)
        assert code not in surface.dead

        harness = Harness(source, deploy_value=deploy_value)
        drive(harness)
        found = harness.finalize()
        assert code in {bc.value for bc in found}


class TestSurfaceCache:
    def test_cache_hits_on_same_code(self):
        evm_analysis.clear_cache()
        artifact = compile_source(CROWDSALE_SOURCE)
        code = artifact.runtime_code
        first = surface_for(code)
        # an equal code in another bytes object finds the same record
        second = surface_for(bytes(bytearray(code)))
        assert first is second is analyze_code(code).surface
        stats = evm_analysis.cache_stats()
        assert stats["misses"] == 1 and stats["hits"] >= 1

    def test_cached_surface_equals_fresh_compute(self):
        artifact = compile_source(CROWDSALE_SOURCE)
        cached = surface_for(artifact.runtime_code)
        fresh = compute_surface(artifact.runtime_code)
        assert cached.to_dict() == fresh.to_dict()

    def test_to_dict_is_deterministic(self):
        artifact = compile_source(CROWDSALE_SOURCE)
        a = compute_surface(artifact.runtime_code).to_dict()
        b = compute_surface(artifact.runtime_code).to_dict()
        assert a == b
