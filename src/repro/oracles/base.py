"""Oracle infrastructure: bug classes, findings, and the oracle protocol.

Oracles are *streaming* consumers of the machine's semantic trace events:
each declares the :data:`~repro.evm.trace.EV_BRANCH`-style event kinds it
subscribes to, receives those events incrementally through
:meth:`Oracle.on_event` while a transaction executes, and reports findings
from :meth:`Oracle.end_transaction` once the receipt (success flag,
call-checked marks) is final.  State-effect events an oracle buffered
mid-transaction are rolled back with the subcall that produced them via
:meth:`Oracle.subcall_mark` / :meth:`Oracle.rollback_subcall` — the same
transactional semantics :class:`~repro.evm.trace.ExecutionTrace` applies
to its own event lists.  :class:`~repro.oracles.bus.OracleBus` drives the
hooks; attach one to a :class:`~repro.chain.blockchain.Chain` to run
oracles outside a campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.chain.transactions import TransactionReceipt
from repro.compiler.artifacts import CompiledContract


class BugClass(str, Enum):
    """The paper's nine bug classes (Table I abbreviations)."""

    BD = "BD"  # block dependency
    UD = "UD"  # unprotected delegatecall
    EF = "EF"  # ether freezing
    IO = "IO"  # integer over-/under-flow
    RE = "RE"  # reentrancy
    US = "US"  # unprotected selfdestruct
    SE = "SE"  # strict ether equality
    TO = "TO"  # transaction origin use
    UE = "UE"  # unhandled exception

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ALL_BUG_CLASSES = tuple(BugClass)

#: finding severity levels, most severe first (report ordering)
SEVERITIES = ("high", "medium", "low")


@dataclass(frozen=True)
class Finding:
    """One reported vulnerability.

    Beyond the classification fields, a finding carries triage metadata —
    ``severity`` and ``confidence`` (how often the detection pattern is a
    true positive for its class) — and a **witness**: the serialized
    transaction prefix (:meth:`repro.core.seeds.TxCall.to_dict` records,
    in order) that triggered it, ending with the triggering transaction.
    ``repro replay`` re-executes witnesses to confirm findings
    deterministically.  The witness is excluded from equality/hash: two
    reports of the same defect compare equal regardless of which input
    sequence first exposed it.
    """

    bug_class: BugClass
    contract: str
    pc: int
    line: int
    description: str
    severity: str = "medium"
    confidence: float = 0.5
    #: transaction sequence (TxCall wire dicts) that triggered the finding
    witness: tuple = field(default=(), compare=False)

    @property
    def key(self) -> tuple:
        """Deduplication key: one finding per (class, contract, pc).

        ``contract`` is part of the key so multi-contract campaigns never
        collapse two findings that happen to share a pc.
        """
        return (self.bug_class, self.contract, self.pc)

    def with_witness(self, witness) -> "Finding":
        """A copy carrying ``witness`` (no-op when one is already set)."""
        if self.witness:
            return self
        return Finding(
            bug_class=self.bug_class, contract=self.contract, pc=self.pc,
            line=self.line, description=self.description,
            severity=self.severity, confidence=self.confidence,
            witness=tuple(witness))

    def to_dict(self) -> dict:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "bug_class": self.bug_class.value,
            "contract": self.contract,
            "pc": self.pc,
            "line": self.line,
            "description": self.description,
            "severity": self.severity,
            "confidence": self.confidence,
            "witness": [dict(call) for call in self.witness],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            bug_class=BugClass(data["bug_class"]),
            contract=data["contract"],
            pc=int(data["pc"]),
            line=int(data["line"]),
            description=data["description"],
            severity=data.get("severity", "medium"),
            confidence=float(data.get("confidence", 0.5)),
            witness=tuple(dict(call)
                          for call in data.get("witness", ())),
        )


@dataclass
class OracleContext:
    """Everything oracles may consult about the contract under test."""

    artifact: CompiledContract
    address: int
    deployer: int
    attacker_addresses: frozenset = frozenset()
    #: when a streaming bus drives the campaign, returns the serialized
    #: transaction prefix currently executing — whole-campaign oracles use
    #: it to capture witnesses for findings they only report in finalize
    witness_provider: object = None

    def line_of(self, pc: int) -> int:
        return self.artifact.srcmap.get(pc, 0)

    def current_witness(self) -> tuple:
        """The live transaction prefix, or () outside a bus-driven run."""
        if self.witness_provider is None:
            return ()
        return tuple(self.witness_provider())


class Oracle:
    """Base oracle: subscribe to event kinds, stream, report per transaction.

    Subclasses set :attr:`subscriptions` (an ``EV_*`` bitmask) and override
    the streaming hooks they need:

    * :meth:`begin_transaction` — reset per-transaction buffers;
    * :meth:`on_event` — one subscribed event, in execution order.  CALL
      events arrive when the call *starts*; their mutable fields
      (``success``, ``callee_error``, ``checked``) are final only by
      :meth:`end_transaction`, so buffer the reference and inspect late;
    * :meth:`subcall_mark` / :meth:`rollback_subcall` — transactional
      buffer marks for oracles that buffer *state-effect* events
      (overflow / storage / selfdestruct / ether): when a subcall reverts,
      everything buffered since the mark must be dropped;
    * :meth:`end_transaction` — yield findings for the finished
      transaction (the receipt carries the final success flag);
    * :meth:`finalize` — whole-campaign properties, once at the end.
    """

    bug_class: BugClass
    #: EV_* bitmask of the trace-event kinds this oracle consumes
    subscriptions: int = 0
    #: triage defaults stamped onto this oracle's findings
    severity: str = "medium"
    confidence: float = 0.5
    #: whether the oracle keeps state *across* transactions (anything not
    #: reset by :meth:`begin_transaction`).  The state cache replays
    #: memoized transactions only to replay-sensitive oracles: a
    #: transaction-local oracle fed an already-settled receipt can only
    #: re-emit findings the campaign collector already holds, so the bus
    #: skips it on the fast-forward path.  Set True on any oracle that
    #: accumulates cross-transaction evidence (see the ether-freeze
    #: oracle); forgetting to would silently change campaign results —
    #: the golden-fixture cache-on/off byte-identity guard exists to
    #: catch exactly that.
    replay_sensitive: bool = False

    # -- streaming protocol ---------------------------------------------------

    def begin_transaction(self) -> None:
        pass

    def on_event(self, event, ctx: OracleContext) -> None:
        pass

    def subcall_mark(self):
        return None

    def rollback_subcall(self, mark) -> None:
        pass

    def end_transaction(self, receipt: TransactionReceipt,
                        ctx: OracleContext):
        return ()

    def finalize(self, ctx: OracleContext):
        return ()

    def finding(self, ctx: OracleContext, pc: int, description: str,
                line: int | None = None) -> Finding:
        """A finding at ``pc`` carrying this oracle's triage defaults."""
        return Finding(
            bug_class=self.bug_class,
            contract=ctx.artifact.name,
            pc=pc,
            line=ctx.line_of(pc) if line is None else line,
            description=description,
            severity=self.severity,
            confidence=self.confidence,
        )

    # -- checkpoint serialization (campaign interrupt/resume) -----------------

    def state_dict(self) -> dict:
        """Whole-campaign state this oracle carries between receipts.

        Stateless oracles (the default) return ``{}``; stateful ones
        (e.g. ether freezing) override both hooks so a resumed campaign
        observes exactly what the uninterrupted one would.  Per-transaction
        buffers are *not* part of this: checkpoints happen at iteration
        boundaries, where every transactional buffer is empty."""
        return {}

    def restore_state(self, data: dict) -> None:
        pass


class BufferedOracle(Oracle):
    """Oracle that accumulates findings per transaction from control-flow
    events (never rolled back): subclasses append to ``self._found`` in
    :meth:`on_event`; the buffer is handed out at transaction end and is
    valid until the next :meth:`begin_transaction` (no per-tx copy)."""

    def __init__(self) -> None:
        self._found: list = []

    def begin_transaction(self) -> None:
        self._found.clear()

    def end_transaction(self, receipt: TransactionReceipt,
                        ctx: OracleContext):
        return self._found


class TransactionalOracle(Oracle):
    """Oracle that buffers *state-effect* events for the contract under
    test per transaction, with mark/rollback honoring subcall reverts:
    subclasses implement :meth:`end_transaction` over ``self._pending``
    (which holds only events that survived every rollback)."""

    def __init__(self) -> None:
        self._pending: list = []

    def begin_transaction(self) -> None:
        self._pending.clear()

    def on_event(self, event, ctx: OracleContext) -> None:
        if event.address == ctx.address:
            self._pending.append(event)

    def subcall_mark(self) -> int:
        return len(self._pending)

    def rollback_subcall(self, mark: int) -> None:
        del self._pending[mark:]


@dataclass
class FindingCollector:
    """Deduplicating sink for findings during a campaign."""

    findings: dict = field(default_factory=dict)

    def add(self, finding: Finding) -> bool:
        """Record ``finding``; True if it was new."""
        if finding.key in self.findings:
            return False
        self.findings[finding.key] = finding
        return True

    def extend(self, findings) -> int:
        count = 0
        add = self.add
        for finding in findings:
            if add(finding):
                count += 1
        return count

    def all(self) -> list:
        return sorted(self.findings.values(),
                      key=lambda f: (f.bug_class.value, f.contract, f.pc))

    def by_class(self) -> dict:
        out: dict = {}
        for finding in self.findings.values():
            out.setdefault(finding.bug_class, []).append(finding)
        return out

    def classes(self) -> set:
        return {f.bug_class for f in self.findings.values()}

    # -- checkpoint serialization ---------------------------------------------

    def state_dict(self) -> dict:
        return {"findings": [f.to_dict() for f in self.findings.values()]}

    def restore_state(self, data: dict) -> None:
        self.findings = {}
        for item in data.get("findings", ()):
            self.add(Finding.from_dict(item))
