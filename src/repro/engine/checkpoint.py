"""Durable mid-campaign state: checkpoint/resume for the staged engine.

A :class:`CampaignCheckpoint` serializes the *complete* campaign state to
canonical JSON at an iteration boundary: the seed queue with all fitness
facts, coverage set + curve (with its bounded-buffer recording state),
mutation masks and probe spend, the global branch-distance table, energy
scheduler weights, oracle and finding-collector state, the RNG state via
``random.Random.getstate()``, the budget consumption counters, and the
campaign loop position itself (phase, pending initial seeds, current seed,
remaining energy).

The hard guarantee (pinned by tests and CI): interrupting a campaign at
any iteration and resuming from the checkpoint produces a
:class:`~repro.core.campaign.CampaignResult` byte-identical — modulo
``wall_time`` — to the uninterrupted run.  Everything the loop reads is
either serialized here or rebuilt deterministically from it.

The prefix-snapshot state cache (§VI) is deliberately *not* part of a
checkpoint: it is a pure accelerator whose hits produce byte-identical
results to cold execution, so a resumed campaign simply rebuilds it cold
— the first post-resume visits re-learn hot prefixes and results stay
pinned to the golden fixture either way (CI runs the interrupt/resume
sweep with each perf layer disabled in turn to prove it).  No perf layer
is part of a checkpoint, so a campaign may resume under other layers
than it started with.
"""

from __future__ import annotations

import dataclasses
import json

from repro.core.seeds import Seed

#: Schema history —
#: 1: initial complete-campaign-state format.
#: 2: streaming-oracle-bus era: findings carry severity/confidence/witness
#:    (collector state), per-oracle state may embed witness buffers (ether
#:    freeze stores the sequence that first delivered ether), and the
#:    config gained ``bug_classes`` (per-oracle campaign restriction).
#:    v1 checkpoints are refused rather than silently resumed without
#:    witness state.
SCHEMA_VERSION = 2


def canonical_json(record: dict) -> str:
    """The one canonical JSON form shared by checkpoints and the result
    store: sorted keys, fixed separators, trailing newline — identical
    state always serializes to identical bytes."""
    return json.dumps(record, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def checkpoint_fingerprint(source: str, contract: str | None,
                           config) -> str:
    """Ownership fingerprint for a standalone campaign checkpoint.

    Hashes everything that determines the campaign: the source text, the
    *contract name* (one source file can hold several contracts), and the
    full config (which includes the RNG seed).  A checkpoint whose
    fingerprint no longer matches must never be resumed.  Matrix jobs use
    :meth:`~repro.orchestrator.jobs.CampaignJob.fingerprint` instead,
    which covers the same facts through the job identity.
    """
    import hashlib

    payload = json.dumps({"source": source, "contract": contract,
                          "config": dataclasses.asdict(config)},
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass
class CampaignState:
    """The loop position of a running campaign (part of the checkpoint)."""

    phase: str = "init"  # "init" | "main"
    #: initial-population seeds not yet executed
    pending_initial: list = dataclasses.field(default_factory=list)
    #: queue index of the currently selected parent (None = select next)
    current_index: int | None = None
    #: mutation energy remaining for the current parent
    energy: int = 0
    #: executions counter value at the last emitted checkpoint
    last_checkpoint: int = 0

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "pending_initial": [s.to_dict() for s in self.pending_initial],
            "current_index": self.current_index,
            "energy": self.energy,
            "last_checkpoint": self.last_checkpoint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignState":
        current = data.get("current_index")
        return cls(
            phase=data.get("phase", "init"),
            pending_initial=[Seed.from_dict(s)
                             for s in data.get("pending_initial", ())],
            current_index=None if current is None else int(current),
            energy=int(data.get("energy", 0)),
            last_checkpoint=int(data.get("last_checkpoint", 0)),
        )


@dataclasses.dataclass
class CampaignCheckpoint:
    """Serialized mid-campaign state; see the module docstring."""

    config: dict
    rng_state: tuple
    budget: dict
    queue: list
    coverage: dict
    selector: dict
    masked: dict
    scheduler: dict
    collector: dict
    oracle_state: dict
    loop: dict
    fuzzer: str = ""
    contract: str = ""
    #: MiniSol source when known, so ``Fuzzer.resume(checkpoint)`` can
    #: recompile without external context (None for prebuilt artifacts
    #: compiled from sources the campaign never saw)
    source: str | None = None
    supported_bug_classes: list | None = None
    schema: int = SCHEMA_VERSION

    # -- capture ---------------------------------------------------------------

    @classmethod
    def capture(cls, campaign) -> "CampaignCheckpoint":
        """Snapshot a running :class:`~repro.core.fuzzer.Fuzzer`.

        Pure observation: consumes no randomness and mutates nothing, so
        emitting checkpoints cannot perturb the campaign.
        """
        supported = campaign.supported_bug_classes
        return cls(
            config=dataclasses.asdict(campaign.config),
            rng_state=campaign.rng.getstate(),
            budget=campaign.budget.state_dict(),
            queue=[seed.to_dict() for seed in campaign.queue.seeds],
            coverage=campaign.coverage.state_dict(),
            selector=campaign.selector.state_dict(),
            masked=campaign.pipeline.masked.state_dict(),
            scheduler=campaign.scheduler.state_dict(),
            collector=campaign.collector.state_dict(),
            oracle_state={oracle.bug_class.value: state
                          for oracle in campaign.oracles
                          if (state := oracle.state_dict())},
            loop=campaign._state.to_dict(),
            fuzzer=campaign.config.name,
            contract=campaign.artifact.name,
            source=campaign.artifact.source or None,
            supported_bug_classes=(
                None if supported is None
                else sorted(getattr(bc, "value", bc) for bc in supported)),
        )

    # -- restore ---------------------------------------------------------------

    def restore_into(self, campaign) -> None:
        """Install this state into a freshly constructed campaign.

        The campaign must have been built from the same contract and the
        checkpoint's config (``Fuzzer.resume`` guarantees both); the
        deployed base chain is rebuilt deterministically by construction
        and is *not* part of the checkpoint — every iteration starts from
        the post-deployment mark anyway.
        """
        state = self.rng_state
        campaign.rng.setstate((state[0], tuple(state[1]), state[2]))
        campaign.budget.restore_state(self.budget)
        for seed_data in self.queue:
            campaign.queue.add(Seed.from_dict(seed_data))
        campaign.coverage.restore_state(self.coverage)
        campaign.selector.restore_state(self.selector)
        campaign.retention.rebuild()
        campaign.pipeline.masked.restore_state(self.masked)
        campaign.scheduler.restore_state(self.scheduler)
        campaign.collector.restore_state(self.collector)
        for oracle in campaign.oracles:
            data = self.oracle_state.get(oracle.bug_class.value)
            if data:
                oracle.restore_state(data)
        campaign._state = CampaignState.from_dict(self.loop)

    # -- wire format ------------------------------------------------------------

    def to_dict(self) -> dict:
        state = self.rng_state
        return {
            "schema": self.schema,
            "fuzzer": self.fuzzer,
            "contract": self.contract,
            "source": self.source,
            "supported_bug_classes": self.supported_bug_classes,
            "config": dict(self.config),
            "rng_state": [state[0], list(state[1]), state[2]],
            "budget": dict(self.budget),
            "queue": list(self.queue),
            "coverage": dict(self.coverage),
            "selector": dict(self.selector),
            "masked": dict(self.masked),
            "scheduler": dict(self.scheduler),
            "collector": dict(self.collector),
            "oracle_state": dict(self.oracle_state),
            "loop": dict(self.loop),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignCheckpoint":
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported checkpoint schema {data.get('schema')!r} "
                f"(expected {SCHEMA_VERSION})")
        rng_state = data["rng_state"]
        return cls(
            fuzzer=data.get("fuzzer", ""),
            contract=data.get("contract", ""),
            source=data.get("source"),
            supported_bug_classes=data.get("supported_bug_classes"),
            config=dict(data["config"]),
            rng_state=(rng_state[0], tuple(rng_state[1]), rng_state[2]),
            budget=dict(data["budget"]),
            queue=list(data["queue"]),
            coverage=dict(data["coverage"]),
            selector=dict(data["selector"]),
            masked=dict(data["masked"]),
            scheduler=dict(data["scheduler"]),
            collector=dict(data["collector"]),
            oracle_state=dict(data.get("oracle_state", {})),
            loop=dict(data["loop"]),
        )

    def to_json(self) -> str:
        """Canonical JSON text — two checkpoints of identical state are
        byte-identical."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CampaignCheckpoint":
        return cls.from_dict(json.loads(text))
