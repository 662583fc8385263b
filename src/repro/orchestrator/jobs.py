"""Campaign job model: the unit of work the orchestrator schedules.

A :class:`CampaignJob` is one (contract, fuzzer preset, trial) cell of a
campaign matrix.  Jobs are plain data — contract *source* rather than a
compiled artifact — so they pickle cheaply onto a pool worker's dispatch
queue and serialize into the persistent result store.

Per-trial RNG seeds are derived deterministically from
``(base_seed, contract name, preset, trial)`` via SHA-256, so the same
matrix always fuzzes with the same seeds regardless of worker count,
scheduling order, or ``PYTHONHASHSEED``.  An explicit ``rng_seed`` override
bypasses derivation (used by the paper benchmarks, which pin one seed
across the whole cohort).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from repro.core.campaign import CampaignResult
from repro.core.config import FuzzerConfig, preset_config
from repro.oracles.base import BugClass

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text) or "unnamed"


@dataclass
class CampaignJob:
    """One schedulable campaign: contract × preset × trial."""

    #: display name; also keys the result store (sanitized)
    name: str
    #: MiniSol source the worker compiles
    source: str
    #: key into :data:`repro.core.config.PRESET_CONFIGS`
    preset: str
    #: contract to compile within ``source`` (None = first contract)
    contract: str | None = None
    trial: int = 0
    base_seed: int = 1
    #: FuzzerConfig field overrides (must be JSON-serializable)
    overrides: dict = field(default_factory=dict)
    #: restricted oracle set as BugClass values (None = all nine)
    supported_bug_classes: list | None = None
    #: memoized :meth:`fingerprint` — jobs are immutable once built, and
    #: a resume scan hashes every job several times (fresh-id check,
    #: cached-result load, checkpoint session) without this
    _fingerprint: str | None = field(default=None, init=False,
                                     repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.supported_bug_classes is not None:
            self.supported_bug_classes = sorted(self.supported_bug_classes)

    @property
    def job_id(self) -> str:
        """Stable, filesystem-safe identity within one matrix."""
        return (f"{_slug(self.name)}__{_slug(self.preset)}"
                f"__t{self.trial:03d}")

    def derived_seed(self) -> int:
        """Deterministic per-trial RNG seed (see module docstring)."""
        if "rng_seed" in self.overrides:
            return int(self.overrides["rng_seed"])
        token = f"{self.base_seed}|{self.name}|{self.preset}|{self.trial}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def build_config(self) -> FuzzerConfig:
        overrides = dict(self.overrides)
        overrides["rng_seed"] = self.derived_seed()
        return preset_config(self.preset, **overrides)

    def supported_set(self) -> set | None:
        if self.supported_bug_classes is None:
            return None
        return {BugClass(v) for v in self.supported_bug_classes}

    def fingerprint(self) -> str:
        """Content hash of everything that determines the job's result.

        Stored alongside persisted results so a rerun only reuses a cached
        result when the source, preset, seed, and overrides all still
        match — stale results re-run instead of silently surviving."""
        if self._fingerprint is None:
            payload = json.dumps(self.to_dict(), sort_keys=True)
            self._fingerprint = hashlib.sha256(
                payload.encode("utf-8")).hexdigest()[:16]
        return self._fingerprint

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "source": self.source,
            "preset": self.preset,
            "contract": self.contract,
            "trial": self.trial,
            "base_seed": self.base_seed,
            "overrides": dict(self.overrides),
            "supported_bug_classes": (
                None if self.supported_bug_classes is None
                else list(self.supported_bug_classes)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignJob":
        return cls(
            name=data["name"],
            source=data["source"],
            preset=data["preset"],
            contract=data.get("contract"),
            trial=int(data.get("trial", 0)),
            base_seed=int(data.get("base_seed", 1)),
            overrides=dict(data.get("overrides") or {}),
            supported_bug_classes=data.get("supported_bug_classes"),
        )


@dataclass
class JobOutcome:
    """What happened to one job: an ok result, an error, or a timeout."""

    job: CampaignJob
    status: str  # 'ok' | 'error' | 'timeout'
    result: object = None  # CampaignResult when status == 'ok'
    error: str = ""
    #: wall-clock seconds observed by the scheduler (never persisted:
    #: timing is environment noise, not part of the canonical artifact)
    elapsed: float = 0.0
    #: per-job telemetry registry delta (a :func:`repro.telemetry.snapshot`
    #: dict) when the run collected telemetry; never part of the result
    #: payload or any fingerprint
    telemetry: dict | None = None
    #: the job's last worker heartbeat (a ProgressSnapshot wire dict) —
    #: attached by the scheduler when the worker died or overran, so a
    #: post-mortem shows where the campaign was (stage, iteration, seed)
    heartbeat: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # -- wire format (worker process -> scheduler results queue) -----------------

    def to_wire(self) -> dict:
        """Plain-dict form a worker sends back over the results queue.

        Only the fields the scheduler cannot reconstruct travel: the job
        itself is identified by ``job_id`` (the scheduler already holds
        the full :class:`CampaignJob`), so sources never cross the
        boundary twice."""
        return {
            "job_id": self.job.job_id,
            "status": self.status,
            "result": self.result.to_dict() if self.ok else None,
            "error": self.error,
            "elapsed": self.elapsed,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_wire(cls, job: CampaignJob, wire: dict) -> "JobOutcome":
        """Rebuild an outcome from a wire record (inverse of
        :meth:`to_wire`; raises on a mangled record)."""
        return cls(
            job=job,
            status=wire["status"],
            result=(CampaignResult.from_dict(wire["result"])
                    if wire["status"] == "ok" else None),
            error=wire["error"],
            elapsed=wire["elapsed"],
            telemetry=wire.get("telemetry"),
        )


def build_matrix(contracts, presets, trials: int = 1, base_seed: int = 1,
                 overrides: dict | None = None,
                 supported: dict | None = None) -> list:
    """Expand contracts × presets × trials into a job list.

    ``contracts`` holds objects with ``.name``/``.source`` (corpus entries)
    or ``(name, source)`` pairs.  ``supported`` optionally maps preset key →
    iterable of :class:`BugClass` restricting that preset's oracles.
    """
    jobs = []
    for entry in contracts:
        if isinstance(entry, tuple):
            name, source = entry
            contract = None
        else:
            name, source = entry.name, entry.source
            contract = entry.name
        for preset in presets:
            classes = None
            if supported is not None and supported.get(preset) is not None:
                classes = sorted(bc.value for bc in supported[preset])
            for trial in range(trials):
                jobs.append(CampaignJob(
                    name=name, source=source, preset=preset,
                    contract=contract, trial=trial, base_seed=base_seed,
                    overrides=dict(overrides or {}),
                    supported_bug_classes=classes))
    seen: dict = {}
    for job in jobs:
        if job.job_id in seen:
            raise ValueError(
                f"duplicate job id {job.job_id!r}: contract names must be "
                f"unique within a matrix")
        seen[job.job_id] = job
    return jobs
