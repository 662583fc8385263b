"""Deterministic witness replay: re-trigger findings from stored sequences.

Every :class:`~repro.oracles.base.Finding` a campaign reports carries a
*witness* — the serialized transaction prefix that first triggered it.
Replaying a witness rebuilds the campaign's execution environment from the
same config (same RNG seed → same constructor arguments and deployment,
same agents and account set), runs exactly the witness transactions from
the post-deployment base state, and checks that the finding's dedup key
fires again.  ``repro replay`` drives this from persisted result records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.cache import compile_cached
from repro.core.config import FuzzerConfig, config_from_dict
from repro.core.fuzzer import Fuzzer
from repro.oracles.base import BugClass, Finding


@dataclass
class ReplayOutcome:
    """The verdict for one finding's witness."""

    finding: Finding
    #: "retriggered" | "missed" | "no-witness"
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "retriggered"


def replay_finding(artifact, config: FuzzerConfig, finding: Finding,
                   supported=None) -> bool:
    """True when ``finding``'s witness re-triggers it (fresh environment)."""
    fuzzer = Fuzzer(artifact, config, supported)
    return fuzzer.replay(finding)


def replay_findings(source_or_artifact, config: FuzzerConfig, findings,
                    contract: str | None = None,
                    supported=None) -> list:
    """Replay each finding's witness; one :class:`ReplayOutcome` apiece.

    ``source_or_artifact`` is MiniSol source (compiled through the
    process-local cache) or a prebuilt
    :class:`~repro.compiler.artifacts.CompiledContract`.  Each finding
    replays in a *fresh* fuzzer so verdicts are independent.
    """
    artifact = source_or_artifact
    if isinstance(artifact, str):
        artifact = compile_cached(artifact, contract)
    outcomes = []
    for finding in findings:
        if not finding.witness:
            outcomes.append(ReplayOutcome(finding, "no-witness"))
            continue
        ok = replay_finding(artifact, config, finding, supported)
        outcomes.append(ReplayOutcome(finding,
                                      "retriggered" if ok else "missed"))
    return outcomes


def replay_record(record: dict) -> list:
    """Replay every finding of one persisted result-store record.

    The record (see :meth:`repro.orchestrator.store.ResultStore.save`)
    embeds the contract source, the resolved config, the oracle
    restriction, and the findings — everything replay needs, so a results
    directory is self-contained evidence.
    """
    config = config_from_dict(record["config"])
    supported = record.get("supported_bug_classes")
    if supported is not None:
        supported = {BugClass(value) for value in supported}
    findings = [Finding.from_dict(data)
                for data in record["result"].get("findings", ())]
    return replay_findings(record["source"], config, findings,
                           contract=record.get("contract"),
                           supported=supported)
