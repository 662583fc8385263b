"""Ether freezing oracle (EF).

ContractFuzzer-style (§IV-D "we implement the same bug oracles as ...
ContractFuzzer (e.g., EF)"): the contract *received* ether during the
campaign, yet its runtime bytecode contains no instruction that can ever
send ether out (CALL, DELEGATECALL, SELFDESTRUCT) — funds are frozen.

This is a whole-campaign property, so the check runs in ``finalize``.
Ether events are state effects: value received by a subcall that later
reverts is rolled back out of the per-transaction tally.  The first
successful transaction that actually delivered ether is captured as the
finding's witness (and serialized into campaign checkpoints, so a resumed
campaign replays the same witness).
"""

from __future__ import annotations

from repro.analysis.surface import SEND_OPS, surface_for
from repro.evm.trace import EV_ETHER
from repro.oracles.base import BugClass, Oracle, OracleContext


class EtherFreezeOracle(Oracle):
    bug_class = BugClass.EF
    subscriptions = EV_ETHER
    severity = "medium"
    confidence = 0.8
    #: tracks whether the contract *ever* received ether (and the prefix
    #: that first delivered it) — cross-transaction state, so memoized
    #: transactions must still be replayed through this oracle
    replay_sensitive = True

    def __init__(self) -> None:
        self._received = False
        #: transaction prefix that first delivered ether (finding witness)
        self._witness: tuple = ()
        #: ether credited to the contract under test this transaction
        self._tx_received = 0

    def begin_transaction(self) -> None:
        self._tx_received = 0

    def on_event(self, event, ctx: OracleContext) -> None:
        if event.address == ctx.address:
            self._tx_received += event.amount

    def subcall_mark(self) -> int:
        return self._tx_received

    def rollback_subcall(self, mark: int) -> None:
        self._tx_received = mark

    def end_transaction(self, receipt, ctx: OracleContext):
        if receipt.success and self._tx_received > 0 \
                and not self._received:
            self._received = True
            self._witness = ctx.current_witness()
        return ()

    def state_dict(self) -> dict:
        if not self._received:
            return {}
        return {"received": True, "witness": list(self._witness)}

    def restore_state(self, data: dict) -> None:
        self._received = bool(data.get("received", False))
        self._witness = tuple(data.get("witness", ()))

    def finalize(self, ctx: OracleContext):
        if not self._received:
            return
        if surface_for(ctx.artifact.runtime_code).opcodes & SEND_OPS:
            return
        yield self.finding(
            ctx, 0,
            "contract accepts ether but has no instruction that "
            "can send it out (funds frozen)",
            line=ctx.artifact.contract_ast.line,
        ).with_witness(self._witness)
