"""High-level chain API: deploy contracts, apply transactions, advance blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.state import WorldState
from repro.chain.transactions import Transaction, TransactionReceipt
from repro.evm.machine import Machine, Message
from repro.evm.trace import EV_ALL
from repro.telemetry.spans import span as _span

#: wall time spent restoring the post-deployment snapshot between
#: iterations (no-op unless telemetry is enabled)
_S_JOURNAL_RESET = _span("chain.journal_reset")

#: Base address for deployed contracts; user/agent accounts live below this.
CONTRACT_ADDRESS_BASE = 0xC0000000
#: Default funded balance for user accounts (plenty of ether, in wei).
DEFAULT_USER_BALANCE = 10**24


@dataclass
class BlockContext:
    """Block environment visible to contracts."""

    number: int = 1
    timestamp: int = 1_600_000_000
    coinbase: int = 0xC0FFEE
    difficulty: int = 2_500_000
    gas_limit: int = 30_000_000

    def advance(self, seconds: int = 13) -> None:
        """Move to the next block (one transaction per block, like the paper's
        per-transaction fuzzing harness)."""
        self.number += 1
        self.timestamp += seconds


@dataclass
class DeployedContract:
    """Handle for a deployed contract instance."""

    address: int
    artifact: object  # repro.compiler.artifacts.CompiledContract
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name and self.artifact is not None:
            self.name = getattr(self.artifact, "name", "")


class Chain:
    """A single-node blockchain simulator.

    One transaction per block; the block timestamp/number advance between
    transactions so block-dependency bugs are genuinely observable.
    """

    def __init__(self, world: WorldState | None = None,
                 max_steps: int = 200_000,
                 event_mask: int = EV_ALL, oracle_bus=None,
                 block_fusion: bool | None = None) -> None:
        self.world = world if world is not None else WorldState()
        self.block = BlockContext()
        self.max_steps = max_steps
        #: trace-event kinds transactions materialize (EV_* bitmask); the
        #: fuzzer narrows this to what its feedback loop + oracles consume
        self.event_mask = event_mask
        #: optional streaming :class:`~repro.oracles.bus.OracleBus`
        #: attached to every transaction machine (never to deployments:
        #: oracles observe transactions, not constructor runs)
        self.oracle_bus = oracle_bus
        #: block-fusion tier toggle forwarded to every Machine; None defers
        #: to the library default (REPRO_DISABLE, see repro.layers)
        self.block_fusion = block_fusion
        self._next_contract = CONTRACT_ADDRESS_BASE
        self.receipts: list[TransactionReceipt] = []
        #: set by :meth:`mark_base`; while active, the world journal is
        #: retained across transactions so :meth:`reset_to_base` can undo them
        self._base: tuple | None = None

    # -- accounts ---------------------------------------------------------------

    def create_account(self, address: int,
                       balance: int = DEFAULT_USER_BALANCE) -> int:
        """Fund a user account and return its address."""
        self.world.account(address)
        self.world.set_balance(address, balance)
        if self._base is None:
            self.world.clear_journal()
        return address

    def register_agent(self, address: int, agent,
                       balance: int = DEFAULT_USER_BALANCE) -> int:
        """Install an agent (attacker/benign) behind ``address``."""
        self.create_account(address, balance)
        self.world.register_agent(address, agent)
        return address

    # -- deployment ----------------------------------------------------------------

    def deploy(self, artifact, ctor_args: bytes = b"", sender: int = 0xA11CE,
               value: int = 0) -> DeployedContract:
        """Deploy a compiled contract: run its init code, install runtime code."""
        if not self.world.exists(sender):
            self.create_account(sender)
        address = self._next_contract
        self._next_contract += 1
        self.world.account(address)

        machine = Machine(self.world, self.block, self.max_steps,
                          block_fusion=self.block_fusion)
        msg = Message(
            address=address, caller=sender, origin=sender, value=value,
            data=ctor_args, gas=20_000_000, code=artifact.init_code)
        result = machine.execute(msg)
        if not result.success:
            raise RuntimeError(
                f"deployment of {artifact.name} failed: {result.error}")
        self.world.set_code(address, artifact.runtime_code)
        if self._base is None:
            self.world.clear_journal()
        self.block.advance()
        return DeployedContract(address=address, artifact=artifact)

    # -- transactions ----------------------------------------------------------------

    def apply(self, tx: Transaction) -> TransactionReceipt:
        """Execute one transaction in its own block and return the receipt."""
        if not self.world.exists(tx.sender):
            self.create_account(tx.sender)
        machine = Machine(self.world, self.block, self.max_steps,
                          event_mask=self.event_mask, bus=self.oracle_bus,
                          block_fusion=self.block_fusion)
        msg = Message(
            address=tx.to, caller=tx.sender, origin=tx.sender,
            value=tx.value, data=tx.data, gas=tx.gas,
            code=self.world.get_code(tx.to))
        result = machine.execute(msg)
        if self._base is None:
            self.world.clear_journal()
        receipt = TransactionReceipt(
            tx=tx, success=result.success, returndata=result.returndata,
            error=result.error, trace=machine.trace,
            block_number=self.block.number)
        self.receipts.append(receipt)
        self.block.advance()
        return receipt

    def replay_delta(self, redo_ops: tuple, receipt) -> None:
        """Fast-forward one memoized transaction without executing it.

        The state-cache restore path: applies the transaction's captured
        redo delta through the journaled setters (so a later
        :meth:`reset_to_base` still undoes it), re-appends its receipt,
        and advances the block exactly as :meth:`apply` would have — the
        chain ends up bit-identical to having executed the transaction,
        in O(slots it touched) instead of O(its instruction count).
        """
        self.world.apply_redo(redo_ops)
        self.receipts.append(receipt)
        self.block.advance()

    def fork(self) -> "Chain":
        """Deep-copy the chain (point-in-time snapshot, no base mark)."""
        clone = Chain(self.world.fork(), self.max_steps,
                      event_mask=self.event_mask,
                      oracle_bus=self.oracle_bus,
                      block_fusion=self.block_fusion)
        clone.block = BlockContext(
            number=self.block.number, timestamp=self.block.timestamp,
            coinbase=self.block.coinbase, difficulty=self.block.difficulty,
            gas_limit=self.block.gas_limit)
        clone._next_contract = self._next_contract
        return clone

    # -- journal-based campaign reset ------------------------------------------

    def mark_base(self) -> None:
        """Pin the current state as the reset point for :meth:`reset_to_base`.

        From here on the world journal is *retained* across transactions
        (instead of cleared after each one), so every committed mutation
        stays undoable.  The fuzzer marks the post-deployment state once and
        then restores it between iterations in O(touched slots) — replacing
        the former fork-per-iteration deep copy of every account and
        storage dict, which was O(world) regardless of what the iteration
        touched.
        """
        self.world.clear_journal()
        self._base = (self.block.number, self.block.timestamp,
                      len(self.receipts), self._next_contract)

    def reset_to_base(self) -> "Chain":
        """Undo everything since :meth:`mark_base` and return ``self``."""
        if self._base is None:
            raise RuntimeError("reset_to_base() without mark_base()")
        with _S_JOURNAL_RESET:
            self.world.revert_to(0)
            number, timestamp, n_receipts, next_contract = self._base
            self.block.number = number
            self.block.timestamp = timestamp
            del self.receipts[n_receipts:]
            self._next_contract = next_contract
        return self
