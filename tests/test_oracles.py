"""Oracle tests: each bug class has a triggering and a non-triggering case."""

import pytest

from repro.chain import Chain, ReentrantAgent, RejectingAgent
from repro.chain.transactions import Transaction
from repro.compiler import compile_source, encode_call
from repro.evm.opcodes import Op
from repro.oracles import BugClass, OracleContext, all_oracles, oracle_for
from repro.oracles.base import FindingCollector
from repro.oracles.bus import OracleBus
from tests.conftest import ALICE, BOB

ATTACKER = 0x999
REJECTOR = 0x888


class Harness:
    """Deploy a contract, run transactions, collect oracle findings (the
    oracles stream each transaction's events through a bus, as in a
    campaign)."""

    def __init__(self, source: str, deploy_value: int = 10 ** 18) -> None:
        self.chain = Chain()
        self.chain.create_account(ALICE)
        self.chain.create_account(BOB)
        self.agent = ReentrantAgent(ATTACKER)
        self.chain.register_agent(ATTACKER, self.agent)
        self.chain.register_agent(REJECTOR, RejectingAgent())
        self.artifact = compile_source(source)
        self.deployed = self.chain.deploy(self.artifact, sender=ALICE,
                                          value=deploy_value)
        self.ctx = OracleContext(
            artifact=self.artifact, address=self.deployed.address,
            deployer=ALICE,
            attacker_addresses=frozenset({ATTACKER, REJECTOR}))
        self.collector = FindingCollector()
        self.bus = OracleBus(all_oracles(), self.ctx, self.collector)
        self.chain.oracle_bus = self.bus

    def call(self, function: str, *args, sender: int = ALICE,
             value: int = 0, arm: bool = True):
        fn = self.artifact.abi.function(function)
        data = encode_call(fn, list(args))
        if arm:
            self.agent.arm(data)
        receipt = self.chain.apply(Transaction(
            sender=sender, to=self.deployed.address, value=value, data=data))
        self.collector.extend(self.bus.end_transaction(receipt))
        return receipt

    def finalize(self) -> set:
        self.collector.extend(self.bus.finalize())
        return self.collector.classes()

    @property
    def classes(self) -> set:
        return self.collector.classes()


class TestBlockDependency:
    def test_timestamp_branch_flagged(self):
        harness = Harness("""
        contract T {
            uint256 wins = 0;
            function roll() public {
                if (block.timestamp % 10 == 3) { wins += 1; }
            }
        }
        """)
        harness.call("roll")
        assert BugClass.BD in harness.classes

    def test_block_number_branch_flagged(self):
        harness = Harness("""
        contract T {
            uint256 wins = 0;
            function roll() public {
                if (block.number > 100) { wins += 1; }
            }
        }
        """)
        harness.call("roll")
        assert BugClass.BD in harness.classes

    def test_timestamp_stored_without_branch_not_flagged(self):
        harness = Harness("""
        contract T {
            uint256 last = 0;
            function ping() public { last = block.timestamp; }
        }
        """)
        harness.call("ping")
        assert BugClass.BD not in harness.classes

    def test_taint_through_storage_across_transactions(self):
        harness = Harness("""
        contract T {
            uint256 seed = 0;
            uint256 wins = 0;
            function set() public { seed = block.timestamp; }
            function use() public { if (seed % 2 == 0) { wins += 1; } }
        }
        """)
        harness.call("set")
        harness.call("use")
        assert BugClass.BD in harness.classes


class TestUnprotectedDelegatecall:
    def test_calldata_target_unguarded_flagged(self):
        harness = Harness("""
        contract T {
            function run(address target, uint256 data) public {
                target.delegatecall(data);
            }
        }
        """)
        harness.call("run", BOB, 1)
        assert BugClass.UD in harness.classes

    def test_guarded_delegatecall_not_flagged(self):
        harness = Harness("""
        contract T {
            address owner;
            constructor() public { owner = msg.sender; }
            function run(address target, uint256 data) public {
                require(msg.sender == owner);
                target.delegatecall(data);
            }
        }
        """)
        harness.call("run", BOB, 1, sender=ALICE)
        assert BugClass.UD not in harness.classes

    def test_fixed_target_not_flagged(self):
        harness = Harness("""
        contract T {
            address lib;
            constructor() public { lib = msg.sender; }
            function run(uint256 data) public { lib.delegatecall(data); }
        }
        """)
        harness.call("run", 1)
        assert BugClass.UD not in harness.classes


class TestEtherFreeze:
    def test_deposit_only_contract_flagged(self):
        harness = Harness("""
        contract T {
            mapping(address => uint256) deposits;
            function put() public payable { deposits[msg.sender] += msg.value; }
        }
        """, deploy_value=0)
        harness.call("put", value=1000)
        assert BugClass.EF in harness.finalize()

    def test_contract_with_withdraw_not_flagged(self):
        harness = Harness("""
        contract T {
            function put() public payable {}
            function take(uint256 v) public { msg.sender.transfer(v); }
        }
        """)
        harness.call("put", value=1000)
        assert BugClass.EF not in harness.finalize()

    def test_never_receives_not_flagged(self):
        harness = Harness("""
        contract T {
            uint256 x = 0;
            function poke() public { x += 1; }
        }
        """, deploy_value=0)
        harness.call("poke")
        assert BugClass.EF not in harness.finalize()


class TestIntegerOverflow:
    def test_add_overflow_flagged(self):
        harness = Harness("""
        contract T {
            uint256 total = 0;
            function add(uint256 v) public { total += v; }
        }
        """)
        harness.call("add", (1 << 256) - 1)
        harness.call("add", 2)
        assert BugClass.IO in harness.classes

    def test_sub_underflow_flagged(self):
        harness = Harness("""
        contract T {
            mapping(address => uint256) bal;
            function take(uint256 v) public { bal[msg.sender] -= v; }
        }
        """)
        harness.call("take", 1)
        assert BugClass.IO in harness.classes

    def test_guarded_arithmetic_not_flagged(self):
        harness = Harness("""
        contract T {
            uint256 total = 0;
            function add(uint256 v) public {
                require(total + v >= total);
                total += v;
            }
        }
        """)
        harness.call("add", (1 << 256) - 1)
        harness.call("add", 2)  # reverts: overflow is caught by the guard
        assert BugClass.IO not in harness.classes

    def test_normal_arithmetic_not_flagged(self):
        harness = Harness("""
        contract T {
            uint256 total = 0;
            function add(uint256 v) public { total += v; }
        }
        """)
        harness.call("add", 10)
        harness.call("add", 20)
        assert BugClass.IO not in harness.classes


class TestReentrancy:
    VULNERABLE = """
    contract T {
        mapping(address => uint256) shares;
        function join() public payable { shares[msg.sender] += msg.value; }
        function redeem() public {
            uint256 owed = shares[msg.sender];
            if (owed > 0) {
                bool sent = msg.sender.call.value(owed)();
                require(sent);
                shares[msg.sender] = 0;
            }
        }
    }
    """

    def test_dao_pattern_flagged(self):
        harness = Harness(self.VULNERABLE)
        harness.call("join", sender=ALICE, value=10_000, arm=False)
        harness.call("join", sender=ATTACKER, value=1_000, arm=False)
        harness.call("redeem", sender=ATTACKER)
        assert BugClass.RE in harness.classes

    def test_transfer_based_withdraw_not_flagged(self):
        harness = Harness("""
        contract T {
            mapping(address => uint256) shares;
            function join() public payable { shares[msg.sender] += msg.value; }
            function redeem() public {
                uint256 owed = shares[msg.sender];
                shares[msg.sender] = 0;
                msg.sender.transfer(owed);
            }
        }
        """)
        harness.call("join", sender=ATTACKER, value=1_000, arm=False)
        harness.call("redeem", sender=ATTACKER)
        assert BugClass.RE not in harness.classes

    def test_no_reentry_without_attacker_share(self):
        harness = Harness(self.VULNERABLE)
        harness.call("join", sender=ALICE, value=10_000, arm=False)
        harness.call("redeem", sender=BOB)
        assert BugClass.RE not in harness.classes


class TestUnprotectedSelfDestruct:
    def test_anyone_can_kill_flagged(self):
        harness = Harness("""
        contract T {
            function kill() public { selfdestruct(msg.sender); }
        }
        """)
        harness.call("kill", sender=BOB)
        assert BugClass.US in harness.classes

    def test_owner_guarded_kill_not_flagged(self):
        harness = Harness("""
        contract T {
            address owner;
            constructor() public { owner = msg.sender; }
            function kill() public {
                require(msg.sender == owner);
                selfdestruct(owner);
            }
        }
        """)
        harness.call("kill", sender=BOB)     # reverts
        harness.call("kill", sender=ALICE)   # deployer destroys own contract
        assert BugClass.US not in harness.classes


class TestStrictEquality:
    def test_balance_equality_flagged(self):
        harness = Harness("""
        contract T {
            uint256 bonus = 0;
            function check() public {
                if (this.balance == 88 finney) { bonus = 1; }
            }
        }
        """)
        harness.call("check")
        assert BugClass.SE in harness.classes

    def test_balance_inequality_not_flagged(self):
        harness = Harness("""
        contract T {
            uint256 ok = 0;
            function check() public {
                if (this.balance >= 1 finney) { ok = 1; }
            }
        }
        """)
        harness.call("check")
        assert BugClass.SE not in harness.classes

    def test_plain_equality_not_flagged(self):
        harness = Harness("""
        contract T {
            uint256 ok = 0;
            function check(uint256 v) public {
                if (v == 88) { ok = 1; }
            }
        }
        """)
        harness.call("check", 88)
        assert BugClass.SE not in harness.classes


class TestTxOrigin:
    def test_origin_auth_flagged(self):
        harness = Harness("""
        contract T {
            address owner;
            constructor() public { owner = msg.sender; }
            function claim() public { require(tx.origin == owner); }
        }
        """)
        harness.call("claim")
        assert BugClass.TO in harness.classes

    def test_sender_auth_not_flagged(self):
        harness = Harness("""
        contract T {
            address owner;
            constructor() public { owner = msg.sender; }
            function claim() public { require(msg.sender == owner); }
        }
        """)
        harness.call("claim")
        assert BugClass.TO not in harness.classes


class TestUnhandledException:
    def test_failed_unchecked_send_flagged(self):
        harness = Harness("""
        contract T {
            function pay(address to, uint256 v) public { to.send(v); }
        }
        """)
        harness.call("pay", REJECTOR, 100)
        assert BugClass.UE in harness.classes

    def test_successful_send_not_flagged(self):
        harness = Harness("""
        contract T {
            function pay(address to, uint256 v) public { to.send(v); }
        }
        """)
        harness.call("pay", BOB, 100)
        assert BugClass.UE not in harness.classes

    def test_checked_send_not_flagged(self):
        harness = Harness("""
        contract T {
            function pay(address to, uint256 v) public {
                require(to.send(v));
            }
        }
        """)
        harness.call("pay", REJECTOR, 100)  # reverts, but flag was checked
        assert BugClass.UE not in harness.classes

    def test_if_checked_send_not_flagged(self):
        harness = Harness("""
        contract T {
            uint256 failures = 0;
            function pay(address to, uint256 v) public {
                bool ok = to.send(v);
                if (!ok) { failures += 1; }
            }
        }
        """)
        harness.call("pay", REJECTOR, 100)
        assert BugClass.UE not in harness.classes


class TestInfrastructure:
    def test_findings_deduplicate_by_pc(self):
        harness = Harness("""
        contract T {
            uint256 wins = 0;
            function roll() public {
                if (block.timestamp % 10 == 3) { wins += 1; }
            }
        }
        """)
        harness.call("roll")
        harness.call("roll")
        bd = [f for f in harness.collector.all()
              if f.bug_class == BugClass.BD]
        assert len(bd) == 1

    def test_findings_carry_source_lines(self):
        harness = Harness("""
        contract T {
            function kill() public { selfdestruct(msg.sender); }
        }
        """)
        harness.call("kill", sender=BOB)
        finding = harness.collector.all()[0]
        assert finding.line == 3

    def test_oracle_registry_covers_all_classes(self):
        oracles = all_oracles()
        assert {o.bug_class for o in oracles} == set(BugClass)

    def test_oracle_subset_restriction(self):
        oracles = all_oracles({BugClass.RE, BugClass.UE})
        assert {o.bug_class for o in oracles} == {BugClass.RE, BugClass.UE}

    def test_oracle_for_single_class(self):
        assert oracle_for(BugClass.IO).bug_class == BugClass.IO


class TestRevertedSubcallRegressions:
    """Oracles must not fire on state recorded inside a subcall that later
    reverted — the machine rolls those trace events back (the ether-freeze
    and overflow cases from the trace-pollution fix)."""

    TRIVIAL_NO_SEND = """
    contract Hoarder {
        uint256 total = 0;
        function poke() public { total = total + 1; }
    }
    """

    def _receipt_from_raw(self, callee_code: bytes, cut: int, bus,
                          value: int = 0):
        """Run an attacker frame that CALLs ``cut`` (which reverts), with
        ``bus`` streaming its events, and wrap the resulting trace in a
        successful receipt."""
        from repro.chain.blockchain import BlockContext
        from repro.chain.state import WorldState
        from repro.chain.transactions import Transaction, TransactionReceipt
        from repro.evm.machine import Machine, Message
        from tests.test_evm import asm, push1

        world = WorldState()
        world.account(cut)
        world.set_code(cut, callee_code)
        world.account(0xA77)
        world.set_balance(0xA77, 10 ** 6)
        machine = Machine(world, BlockContext(), bus=bus)
        outer = asm(push1(0), push1(0), push1(0), push1(0), (value, 2),
                    (cut, 2), (100000, 3), Op.CALL, Op.STOP)
        msg = Message(address=0xA77, caller=0xB, origin=0xB, value=0,
                      data=b"", gas=10 ** 6, code=outer)
        result = machine.execute(msg)
        assert result.success
        tx = Transaction(sender=0xB, to=0xA77)
        return TransactionReceipt(tx=tx, success=True, trace=machine.trace)

    def test_ether_freeze_not_fired_on_reverted_receive(self):
        from repro.oracles.ether_freeze import EtherFreezeOracle
        from repro.compiler import compile_source
        from repro.oracles import OracleContext
        from tests.test_evm import asm, push1

        artifact = compile_source(self.TRIVIAL_NO_SEND)
        cut = 0xC07
        # the contract under test receives ether, then reverts the frame:
        # the transfer rolled back, so no ether was actually frozen
        ctx = OracleContext(artifact=artifact, address=cut, deployer=ALICE)
        bus = OracleBus([EtherFreezeOracle()], ctx)
        receipt = self._receipt_from_raw(
            asm(push1(0), push1(0), Op.REVERT), cut, bus, value=500)
        assert bus.end_transaction(receipt) == []
        assert bus.finalize() == []

    def test_overflow_in_reverted_subcall_not_reported(self):
        from repro.oracles.overflow import IntegerOverflowOracle
        from repro.compiler import compile_source
        from repro.oracles import OracleContext
        from tests.test_evm import asm, push1

        artifact = compile_source(self.TRIVIAL_NO_SEND)
        cut = 0xC07
        callee = asm(push1(2), ((1 << 256) - 1, 32), Op.ADD, Op.POP,
                     push1(0), push1(0), Op.REVERT)
        ctx = OracleContext(artifact=artifact, address=cut, deployer=ALICE)
        bus = OracleBus([IntegerOverflowOracle()], ctx)
        receipt = self._receipt_from_raw(callee, cut, bus)
        assert bus.end_transaction(receipt) == []
