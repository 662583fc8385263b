"""The streaming oracle bus: subscription-filtered event dispatch.

One :class:`OracleBus` serves one campaign.  It computes the union
subscription mask of its oracles (the machine materializes *only* those
event kinds), fans each recorded event out to the oracles subscribed to
its kind while the transaction is still executing, and settles findings at
transaction end — attaching a **witness** (the transaction prefix that
triggered the finding) to every new finding before it reaches the
collector.

Subcall-revert rollback is forwarded to the oracles' transactional
buffers: when the machine rolls a reverted frame's state-effect events out
of the trace, the bus rolls the same events out of every subscribed
oracle, so streaming and per-receipt batch scanning are observationally
identical.
"""

from __future__ import annotations

from repro.evm.trace import (
    EV_BRANCH,
    EV_BLOCK,
    EV_CALL,
    EV_COMPARE,
    EV_ETHER,
    EV_OVERFLOW,
    EV_SELFDESTRUCT,
    EV_STATE_EFFECTS,
    EV_STORAGE,
    EtherEvent,
)
from repro.oracles.base import FindingCollector, OracleContext


class OracleBus:
    """Dispatches trace events to subscribed oracles during execution.

    Parameters
    ----------
    oracles:
        The campaign's oracle instances, in registry order (dispatch and
        settlement preserve this order, so finding deduplication behaves
        exactly like the historical per-receipt oracle loop).
    ctx:
        The :class:`~repro.oracles.base.OracleContext` passed to every
        hook.
    collector:
        Optional :class:`~repro.oracles.base.FindingCollector`; used to
        decide which findings are *new* (only those pay for witness
        serialization).
    dead_classes:
        Bug-class codes the vulnerability surface *proved* impossible for
        the contract under test (whole-code opcode absence — see
        :mod:`repro.analysis.surface`).  Their oracles are dropped from
        every dispatch table and from the subscription mask, so the event
        kinds only they consume are never materialized.  ``self.oracles``
        keeps the full registry-ordered list (checkpoints key oracle state
        by bug class, so capture/restore is pruning-agnostic); only the
        live subset participates in dispatch and settlement.
    """

    def __init__(self, oracles, ctx: OracleContext,
                 collector: FindingCollector | None = None,
                 dead_classes: frozenset = frozenset()) -> None:
        self.oracles = list(oracles)
        self.ctx = ctx
        ctx.witness_provider = self.current_witness
        self.collector = collector
        #: oracles whose bug class survived surface pruning, registry order
        self.live_oracles = [
            o for o in self.oracles
            if o.bug_class.value not in dead_classes]
        #: bug classes of the oracles pruned away, registry order
        self.pruned = tuple(o.bug_class for o in self.oracles
                            if o.bug_class.value in dead_classes)
        #: union of the live oracles' subscriptions — the machine's mask
        self.mask = 0
        for oracle in self.live_oracles:
            self.mask |= oracle.subscriptions
        #: per-kind tuples of *bound* ``on_event`` methods (binding once
        #: per campaign keeps the per-event dispatch to a plain call)
        self._subs = {
            kind: tuple(o.on_event for o in self.live_oracles
                        if o.subscriptions & kind)
            for kind in (EV_BRANCH, EV_COMPARE, EV_CALL, EV_OVERFLOW,
                         EV_STORAGE, EV_SELFDESTRUCT, EV_BLOCK, EV_ETHER)
        }
        #: the per-kind tables in machine attribute order — built once per
        #: campaign, unpacked by every per-transaction Machine
        self.dispatch_tables = tuple(
            self._subs[kind]
            for kind in (EV_BRANCH, EV_COMPARE, EV_CALL, EV_OVERFLOW,
                         EV_STORAGE, EV_SELFDESTRUCT, EV_BLOCK, EV_ETHER))
        #: oracles holding transactional (state-effect) buffers
        self._transactional = tuple(
            o for o in self.live_oracles
            if o.subscriptions & EV_STATE_EFFECTS)
        #: bound per-transaction hooks (one method lookup per campaign,
        #: not one per transaction)
        self._begin_hooks = tuple(o.begin_transaction
                                  for o in self.live_oracles)
        self._end_hooks = tuple(o.end_transaction for o in self.live_oracles)
        #: the state-cache fast-forward path only replays memoized
        #: transactions through oracles that keep cross-transaction state
        #: (``replay_sensitive``) — a transaction-local oracle fed an
        #: already-settled receipt could only re-emit duplicates the
        #: campaign collector drops anyway
        replay_oracles = tuple(o for o in self.live_oracles
                               if o.replay_sensitive)
        self._replay_subs = {
            kind: tuple(o.on_event for o in replay_oracles
                        if o.subscriptions & kind)
            for kind in (EV_BRANCH, EV_COMPARE, EV_CALL, EV_OVERFLOW,
                         EV_STORAGE, EV_SELFDESTRUCT, EV_BLOCK, EV_ETHER)
        }
        self._replay_begin = tuple(o.begin_transaction
                                   for o in replay_oracles)
        self._replay_end = tuple(o.end_transaction for o in replay_oracles)
        #: the sequence currently executing and the index of the live tx
        self._calls: list = []
        self._tx_index = 0

    # -- sequence / witness bookkeeping ----------------------------------------

    def begin_sequence(self, calls, start_at: int = 0) -> None:
        """Announce the transaction sequence about to execute.

        ``calls`` are the seed's :class:`~repro.core.seeds.TxCall`
        records.  A memoized state-cache prefix does *not* move
        ``start_at``: every skipped transaction is re-dispatched through
        :meth:`replay_transaction`, which advances the sequence position
        just like a live one — oracles stay in lockstep and witnesses
        keep their full prefixes.
        """
        self._calls = list(calls)
        self._tx_index = start_at

    def current_witness(self) -> tuple:
        """Serialized prefix of the running sequence up to the live tx."""
        return tuple(call.to_dict()
                     for call in self._calls[:self._tx_index + 1])

    # -- transaction lifecycle -------------------------------------------------

    def begin_transaction(self) -> None:
        for hook in self._begin_hooks:
            hook()

    def subcall_mark(self) -> tuple:
        return tuple(oracle.subcall_mark()
                     for oracle in self._transactional)

    def rollback_subcall(self, marks: tuple) -> None:
        for oracle, mark in zip(self._transactional, marks):
            oracle.rollback_subcall(mark)

    def end_transaction(self, receipt) -> list:
        """Settle the finished transaction: collect findings, attach
        witnesses to new ones, and advance the sequence position."""
        findings = []
        witness = None
        ctx = self.ctx
        for hook in self._end_hooks:
            for finding in hook(receipt, ctx):
                if self._is_new(finding):
                    if witness is None:
                        witness = self.current_witness()
                    finding = finding.with_witness(witness)
                findings.append(finding)
        self._tx_index += 1
        return findings

    def replay_transaction(self, receipt) -> list:
        """Fast-forward a memoized transaction from its recorded trace.

        The state-cache hit path: the transaction's machine never runs,
        so the bus feeds the receipt's recorded events to the
        **replay-sensitive** oracles — the ones whose cross-transaction
        state must observe every transaction, skipped or not.  One pass
        over the trace, kind-major in the canonical
        :func:`~repro.evm.trace.events_from_trace` order, which the parity
        tests pin as observationally identical to live streaming.
        Transaction-local oracles are not consulted at all: a
        prefix is memoized only after executing (and settling) live at
        least twice, so anything they would emit from this receipt is
        already in the campaign collector.  Reverted-subcall state
        effects were pruned from the trace when it was recorded, so no
        mark/rollback cycling is needed.  Settlement mirrors
        :meth:`end_transaction` (witness attachment, sequence advance)
        over the replayed oracles, keeping campaign results
        byte-identical to a cache-off run.
        """
        for hook in self._replay_begin:
            hook()
        ctx = self.ctx
        trace = receipt.trace
        subs = self._replay_subs
        for kind, events in (
                (EV_BRANCH, trace.branches),
                (EV_COMPARE, trace.compares),
                (EV_CALL, trace.calls),
                (EV_OVERFLOW, trace.overflows),
                (EV_STORAGE, trace.storage_ops),
                (EV_SELFDESTRUCT, trace.selfdestructs),
                (EV_BLOCK, trace.block_reads)):
            handlers = subs[kind]
            if handlers and events:
                for event in events:
                    for on_event in handlers:
                        on_event(event, ctx)
        handlers = subs[EV_ETHER]
        if handlers and trace.ether_received:
            for address, amount in trace.ether_received.items():
                event = EtherEvent(pc=0, address=address, depth=0,
                                   amount=amount)
                for on_event in handlers:
                    on_event(event, ctx)
        findings = []
        witness = None
        for hook in self._replay_end:
            for finding in hook(receipt, ctx):
                if self._is_new(finding):
                    if witness is None:
                        witness = self.current_witness()
                    finding = finding.with_witness(witness)
                findings.append(finding)
        self._tx_index += 1
        return findings

    def finalize(self) -> list:
        """End-of-campaign findings (whole-campaign oracles attach their
        own witnesses — see the ether-freeze oracle).  Pruned oracles are
        skipped: their liveness proof means finalize could only ever
        return empty anyway."""
        findings = []
        for oracle in self.live_oracles:
            findings.extend(oracle.finalize(self.ctx))
        return findings

    def _is_new(self, finding) -> bool:
        return (self.collector is None
                or finding.key not in self.collector.findings)
