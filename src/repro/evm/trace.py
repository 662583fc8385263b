"""Execution tracing, taint tags, and branch-distance shadows.

The machine maintains a *shadow* for every stack value: a set of taint tags
plus, for boolean-ish values produced by comparisons, the branch distances
that the sFuzz-style feedback needs (§IV-B of the paper).  Oracles operate on
the stream of semantic :class:`TraceEvent` records collected here rather than
on a raw instruction log, which keeps a fuzzing campaign affordable in pure
Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


U256_MAX = (1 << 256) - 1


class Taint(str, Enum):
    """Taint tags attached to stack values."""

    BLOCK = "block"          # TIMESTAMP / NUMBER / BLOCKHASH / COINBASE / DIFFICULTY
    BALANCE = "balance"      # BALANCE opcode result
    ORIGIN = "origin"        # ORIGIN opcode result
    CALLDATA = "calldata"    # CALLDATALOAD result (attacker-controlled input)
    CALLVALUE = "callvalue"  # CALLVALUE result
    CALLER = "caller"        # CALLER result (used by modifier-guard detection)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def call_result_tag(call_index: int) -> str:
    """Taint tag carried by the success flag of the ``call_index``-th call."""
    return f"cr:{call_index}"


def is_call_result_tag(tag: str) -> bool:
    """True if ``tag`` marks a call-success flag (see :func:`call_result_tag`)."""
    return isinstance(tag, str) and tag.startswith("cr:")


class Shadow(NamedTuple):
    """Taint + branch-distance metadata for one stack value.

    ``dist_true``/``dist_false`` are the sFuzz branch distances: how far the
    producing comparison was from evaluating true (resp. false).  ``None``
    means the value was not produced by a comparison chain.

    A tuple, because the machine builds one for nearly every comparison
    and taint merge it executes, and a tuple costs about half what a
    frozen dataclass does to build.  It must stay immutable, because
    interned shadows (:data:`EMPTY_SHADOW`, ``handlers.CALLDATA_SHADOW``
    ...) are shared by every frame, and hashable by value, because fused
    code generation interns the shadows it bakes in as constants.
    """

    taints: frozenset = frozenset()
    dist_true: int | None = None
    dist_false: int | None = None

    def with_taints(self, extra: frozenset) -> "Shadow":
        """A copy of this shadow with ``extra`` taints unioned in."""
        if not extra:
            return self
        return Shadow(self.taints | extra, self.dist_true, self.dist_false)

    def negated(self) -> "Shadow":
        """Shadow of ISZERO(value): distances swap, taints persist."""
        return Shadow(self.taints, self.dist_false, self.dist_true)


EMPTY_SHADOW = Shadow()


def merge_taints(*shadows: Shadow | None) -> frozenset:
    """Union of taints across shadows, treating ``None`` as untainted."""
    out: frozenset = frozenset()
    for s in shadows:
        if s is not None and s.taints:
            out |= s.taints
    return out


def comparison_shadow(op_name: str, x: int, y: int, taints: frozenset) -> Shadow:
    """Branch-distance shadow for a comparison ``x <op> y`` (x was stack top).

    Distances follow the standard branch-distance definitions used by sFuzz:
    zero when the desired outcome already holds, otherwise a positive measure
    of how far the operands are from flipping the predicate.
    """

    def signed(v: int) -> int:
        return v - (1 << 256) if v >= (1 << 255) else v

    if op_name == "LT":
        d_true = 0 if x < y else x - y + 1
        d_false = 0 if x >= y else y - x
    elif op_name == "GT":
        d_true = 0 if x > y else y - x + 1
        d_false = 0 if x <= y else x - y
    elif op_name == "SLT":
        sx, sy = signed(x), signed(y)
        d_true = 0 if sx < sy else sx - sy + 1
        d_false = 0 if sx >= sy else sy - sx
    elif op_name == "SGT":
        sx, sy = signed(x), signed(y)
        d_true = 0 if sx > sy else sy - sx + 1
        d_false = 0 if sx <= sy else sx - sy
    elif op_name == "EQ":
        diff = abs(x - y)
        d_true = diff
        d_false = 0 if diff else 1
    else:  # pragma: no cover - guarded by callers
        raise ValueError(f"not a comparison: {op_name}")
    return Shadow(taints, d_true, d_false)


def combine_and(a: Shadow, b: Shadow) -> Shadow:
    """Shadow of a boolean AND of two comparison results."""
    taints = a.taints | b.taints
    if a.dist_true is None or b.dist_true is None:
        return Shadow(taints)
    return Shadow(taints, a.dist_true + b.dist_true, min(a.dist_false, b.dist_false))


def combine_or(a: Shadow, b: Shadow) -> Shadow:
    """Shadow of a boolean OR of two comparison results."""
    taints = a.taints | b.taints
    if a.dist_true is None or b.dist_true is None:
        return Shadow(taints)
    return Shadow(taints, min(a.dist_true, b.dist_true), a.dist_false + b.dist_false)


# ---------------------------------------------------------------------------
# Semantic trace events
# ---------------------------------------------------------------------------

#: Event-kind flags: one bit per :class:`TraceEvent` family.  The machine's
#: ``event_mask`` (union of what the engine's feedback loop needs and what
#: the subscribed oracles declare) decides which kinds are *materialized at
#: all* — an unsubscribed kind costs one boolean check per opcode instead of
#: a dataclass allocation plus a list append.
(EV_BRANCH, EV_COMPARE, EV_CALL, EV_OVERFLOW, EV_STORAGE,
 EV_SELFDESTRUCT, EV_BLOCK, EV_ETHER) = (1 << i for i in range(8))

EV_ALL = (EV_BRANCH | EV_COMPARE | EV_CALL | EV_OVERFLOW | EV_STORAGE
          | EV_SELFDESTRUCT | EV_BLOCK | EV_ETHER)

#: flag → human name (docs, bench labels, debugging)
EVENT_KIND_NAMES = {
    EV_BRANCH: "branch",
    EV_COMPARE: "compare",
    EV_CALL: "call",
    EV_OVERFLOW: "overflow",
    EV_STORAGE: "storage",
    EV_SELFDESTRUCT: "selfdestruct",
    EV_BLOCK: "block",
    EV_ETHER: "ether",
}

#: the kinds whose events describe *state effects* and are rolled back when
#: the subcall that produced them reverts (see ExecutionTrace.subcall_mark)
EV_STATE_EFFECTS = EV_OVERFLOW | EV_STORAGE | EV_SELFDESTRUCT | EV_ETHER


@dataclass(slots=True)
class TraceEvent:
    """Base record: where in which contract, at what call depth.

    :class:`BranchEvent`, :class:`CompareEvent`, :class:`OverflowEvent`
    and :class:`StorageEvent` are built positionally on the EVM's hot
    paths (fused code and the table-loop handlers), so their field order
    is part of their interface.
    """

    pc: int
    address: int
    depth: int


@dataclass(slots=True)
class BranchEvent(TraceEvent):
    """One executed JUMPI."""

    condition: int = 0
    taken: bool = False
    dest: int = 0
    taints: frozenset = frozenset()
    dist_true: int | None = None
    dist_false: int | None = None


@dataclass(slots=True)
class CompareEvent(TraceEvent):
    """One executed comparison instruction (LT/GT/SLT/SGT/EQ)."""

    op_name: str = ""
    lhs: int = 0
    rhs: int = 0
    taints: frozenset = frozenset()


@dataclass(slots=True)
class CallEvent(TraceEvent):
    """One CALL / DELEGATECALL, including gas and value observed."""

    kind: str = "call"  # "call" | "delegatecall"
    target: int = 0
    value: int = 0
    gas: int = 0
    success: bool = True
    reentrant: bool = False
    target_taints: frozenset = frozenset()
    value_taints: frozenset = frozenset()
    callee_error: str | None = None
    index: int = 0  # position in trace.calls, for result-taint matching
    checked: bool = False  # success flag later reached a JUMPI
    guarded: bool = False  # a msg.sender comparison preceded this call


@dataclass(slots=True)
class OverflowEvent(TraceEvent):
    """An ADD/MUL/SUB whose mathematical result was truncated mod 2**256."""

    op_name: str = ""
    lhs: int = 0
    rhs: int = 0
    result: int = 0


@dataclass(slots=True)
class StorageEvent(TraceEvent):
    """An SLOAD (kind='read') or SSTORE (kind='write')."""

    kind: str = "read"
    slot: int = 0
    value: int = 0
    after_external_call: bool = False


@dataclass(slots=True)
class SelfDestructEvent(TraceEvent):
    """A SELFDESTRUCT, with the transaction context that reached it."""

    beneficiary: int = 0
    caller: int = 0
    origin: int = 0
    guarded_by_caller_check: bool = False


@dataclass(slots=True)
class BlockStateEvent(TraceEvent):
    """A block-state read (TIMESTAMP / NUMBER / ...)."""

    op_name: str = ""


@dataclass(slots=True)
class EtherEvent(TraceEvent):
    """Ether credited to an account by a message call's value transfer.

    ``address`` is the *recipient*.  The trace aggregates these into its
    ``ether_received`` dict; the streaming bus delivers them individually
    so subscribed oracles (ether freezing) see transfers as they happen —
    and can roll them back with the subcall that produced them.
    """

    amount: int = 0


@dataclass(slots=True)
class ExecutionTrace:
    """Everything recorded during one transaction's execution."""

    branches: list[BranchEvent] = field(default_factory=list)
    compares: list[CompareEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    overflows: list[OverflowEvent] = field(default_factory=list)
    storage_ops: list[StorageEvent] = field(default_factory=list)
    selfdestructs: list[SelfDestructEvent] = field(default_factory=list)
    block_reads: list[BlockStateEvent] = field(default_factory=list)
    #: (address, jumpi_pc, taken) triples — the branch-coverage units.
    branch_edges: set = field(default_factory=set)
    #: addresses that received ether during this transaction.
    ether_received: dict = field(default_factory=dict)
    #: instruction count, used as the "time" axis of coverage curves.
    steps: int = 0
    reverted: bool = False
    error: str | None = None

    def subcall_mark(self) -> tuple:
        """Mark the state-effect event streams before entering a subcall.

        Only *state-effect* events are marked (storage ops, overflows,
        selfdestructs, ether received): if the subcall reverts, those
        describe state that was rolled back and must not reach the oracles.
        Control-flow events (branches, compares, calls, block reads) stay —
        they are coverage/feedback signals and really did execute, and
        ``calls`` must never shrink because call-result taint tags index
        into it.
        """
        return (len(self.storage_ops), len(self.overflows),
                len(self.selfdestructs), dict(self.ether_received))

    def rollback_subcall(self, mark: tuple) -> None:
        """Drop state-effect events recorded since ``mark`` (reverted frame)."""
        n_storage, n_overflows, n_selfdestructs, ether = mark
        del self.storage_ops[n_storage:]
        del self.overflows[n_overflows:]
        del self.selfdestructs[n_selfdestructs:]
        self.ether_received.clear()
        self.ether_received.update(ether)

    def merge(self, other: "ExecutionTrace") -> None:
        """Append another trace's events into this one (sequence-level view)."""
        self.branches.extend(other.branches)
        self.compares.extend(other.compares)
        self.calls.extend(other.calls)
        self.overflows.extend(other.overflows)
        self.storage_ops.extend(other.storage_ops)
        self.selfdestructs.extend(other.selfdestructs)
        self.block_reads.extend(other.block_reads)
        self.branch_edges |= other.branch_edges
        for addr, amount in other.ether_received.items():
            self.ether_received[addr] = self.ether_received.get(addr, 0) + amount
        self.steps += other.steps


def events_from_trace(trace: ExecutionTrace, mask: int):
    """Replay a recorded trace as a flat event stream filtered by ``mask``.

    The order :meth:`repro.oracles.bus.OracleBus.replay_transaction` feeds
    a memoized receipt to the oracles: kind-major, each kind in the order
    the machine recorded it (reverted-subcall state effects were already
    pruned from the trace, so no rollback is needed here).
    """
    if mask & EV_BRANCH:
        yield from trace.branches
    if mask & EV_COMPARE:
        yield from trace.compares
    if mask & EV_CALL:
        yield from trace.calls
    if mask & EV_OVERFLOW:
        yield from trace.overflows
    if mask & EV_STORAGE:
        yield from trace.storage_ops
    if mask & EV_SELFDESTRUCT:
        yield from trace.selfdestructs
    if mask & EV_BLOCK:
        yield from trace.block_reads
    if mask & EV_ETHER:
        for address, amount in trace.ether_received.items():
            yield EtherEvent(pc=0, address=address, depth=0, amount=amount)
