"""The canonical record form and crash-safe file helpers of the result store.

What makes a persisted record a byte-identical, reusable cache lives here:
the canonical record form (:func:`build_record` +
:func:`repro.engine.checkpoint.canonical_json`), the freshness rules
(:func:`record_is_fresh`), the findings projection derived from a record
(:func:`finding_rows_from_record`), the crash-safe atomic file writer
(:func:`atomic_write_text`: write → flush → fsync → rename, so a powerloss
can never leave a truncated-but-renamed record), the stale ``*.tmp`` sweep,
and the checkpoint file helpers workers use directly (they hold a path,
not a store).  The store itself is
:class:`~repro.orchestrator.store.jsonfile.JsonResultStore`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

from repro.core.campaign import CampaignResult
from repro.engine.checkpoint import CampaignCheckpoint, canonical_json
from repro.orchestrator.jobs import CampaignJob, JobOutcome
from repro.telemetry.spans import span as _span

#: wall time spent serializing + atomically writing campaign checkpoints
_S_CHECKPOINT_WRITE = _span("checkpoint.write")

#: Schema history —
#: 1: job identity + result.
#: 2: records additionally embed the contract source, contract name, the
#:    fully-resolved config, and the oracle restriction, making each record
#:    self-contained evidence: ``repro replay record.json`` re-executes
#:    every finding's witness without any external context.  v1 records
#:    simply re-run (they are caches, not data).
SCHEMA_VERSION = 2

#: suffix distinguishing checkpoint files from result records
CHECKPOINT_SUFFIX = ".checkpoint.json"

#: suffix distinguishing live telemetry files from result records
TELEMETRY_SUFFIX = ".telemetry.json"

#: the matrix-level live progress file ``repro top`` follows
LIVE_TELEMETRY_NAME = f"live{TELEMETRY_SUFFIX}"

#: suffix of in-flight atomic-write temporaries (swept when stale)
TMP_SUFFIX = ".tmp"

#: a ``*.tmp`` older than this is an orphan from a crashed writer; a
#: younger one may be a concurrent writer's in-flight rename and is left
#: alone (the sweep runs on store open, not on a schedule)
STALE_TMP_AGE = 60.0

# -- crash-safe file writes ---------------------------------------------------

def atomic_write_text(path, text: str, fsync: bool = True) -> Path:
    """Atomically replace ``path`` with ``text``.

    The temporary is ``<name>.tmp`` *appended* to the full file name —
    never ``with_suffix``, which would silently rewrite a compound suffix
    like ``.checkpoint.json`` and let two different targets collide on one
    temp path.  With ``fsync`` (the default for durable artifacts) the
    data is flushed to disk *before* the rename, so a powerloss leaves
    either the old complete file or the new complete file, never a
    truncated hybrid; the directory entry is fsynced best-effort after.
    Observational files (live telemetry) pass ``fsync=False``: atomicity
    without the per-write disk stall.  When any step before the rename
    fails, the temporary is removed and the error re-raised, so the
    target keeps its old content and nothing is left behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + TMP_SUFFIX)
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # a failed write (a full disk, an interrupt) leaves no temporary
        # for the next open's sweep to find
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise
    if fsync:
        try:  # the rename itself must survive powerloss too
            dir_fd = os.open(str(path.parent), os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return path
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - platform-specific
            pass
        finally:
            os.close(dir_fd)
    return path


def sweep_stale_temps(root, min_age: float = STALE_TMP_AGE) -> int:
    """Remove orphaned ``*.tmp`` files under ``root`` (non-recursive).

    A crash between ``write`` and ``replace`` leaks the temporary forever
    — nothing else ever references it.  Swept on store open; files
    younger than ``min_age`` seconds are kept because they may belong to
    a concurrent writer mid-rename.
    """
    removed = 0
    cutoff = time.time() - min_age
    for tmp in Path(root).glob(f"*{TMP_SUFFIX}"):
        try:
            if tmp.stat().st_mtime <= cutoff:
                tmp.unlink()
                removed += 1
        except OSError:  # raced with the owner's rename/cleanup
            continue
    return removed


# -- the canonical record form ------------------------------------------------

def build_record(outcome: JobOutcome) -> dict:
    """The persistent record for an ``ok`` outcome.

    The store writes exactly this dict through :func:`canonical_json`, so
    the same outcome always persists as the same bytes.
    """
    job = outcome.job
    result_data = outcome.result.to_dict()
    result_data["wall_time"] = 0.0
    record = {
        "schema": SCHEMA_VERSION,
        "job_id": job.job_id,
        "fingerprint": job.fingerprint(),
        "name": job.name,
        "preset": job.preset,
        "trial": job.trial,
        "rng_seed": job.derived_seed(),
        "status": outcome.status,
        # self-contained replay context: source + resolved config +
        # oracle restriction (see repro.core.replay.replay_record)
        "source": job.source,
        "contract": job.contract,
        "config": dataclasses.asdict(job.build_config()),
        "supported_bug_classes": (
            None if job.supported_bug_classes is None
            else list(job.supported_bug_classes)),
        "result": result_data,
    }
    if outcome.telemetry is not None:
        # observability sidecar: the job's telemetry registry delta.
        # Deliberately outside "result" and outside the fingerprint —
        # records with and without it are equally valid caches, and
        # the campaign's canonical artifact stays byte-identical
        # whether telemetry ran or not.
        record["telemetry"] = outcome.telemetry
    return record


def record_is_fresh(record, job: CampaignJob) -> bool:
    """Whether a parsed record is a reusable cache for ``job``."""
    return (isinstance(record, dict)
            and record.get("schema") == SCHEMA_VERSION
            and record.get("fingerprint") == job.fingerprint()
            and record.get("status") == "ok")


def outcome_from_record(job: CampaignJob, record: dict) -> JobOutcome | None:
    """Rebuild a cached outcome from a fresh record (None when mangled)."""
    try:
        result = CampaignResult.from_dict(record["result"])
    except (KeyError, ValueError, TypeError):
        return None
    return JobOutcome(job=job, status="ok", result=result,
                      telemetry=record.get("telemetry"))


def finding_fingerprint(bug_class: str, contract: str, pc) -> str:
    """Cross-run identity of one defect — the stable hash of
    :attr:`repro.oracles.base.Finding.key` (class, contract, pc), so the
    same defect found by different trials/presets/runs aggregates under
    one fingerprint in ``repro report``."""
    token = f"{bug_class}|{contract}|{pc}"
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:16]


def finding_rows_from_record(record: dict) -> list:
    """The findings projection of one record: flat, indexable dicts.

    One row per finding, carrying the matrix coordinates (job, preset,
    trial) and triage fields, plus the cross-run defect fingerprint.
    Derived purely from the record, so the projection can always be
    rebuilt and never adds information to the canonical artifact.
    """
    rows = []
    result = record.get("result") or {}
    for finding in result.get("findings", ()):
        rows.append({
            "job_id": record.get("job_id", ""),
            "name": record.get("name", ""),
            "preset": record.get("preset", ""),
            "trial": int(record.get("trial", 0)),
            "bug_class": finding["bug_class"],
            "contract": finding["contract"],
            "pc": int(finding["pc"]),
            "line": int(finding["line"]),
            "severity": finding.get("severity", "medium"),
            "confidence": float(finding.get("confidence", 0.5)),
            "description": finding.get("description", ""),
            "fingerprint": finding_fingerprint(
                finding["bug_class"], finding["contract"], finding["pc"]),
        })
    return rows


# -- checkpoint files (module-level: workers hold a path, not a store) --------

def write_checkpoint_file(path, checkpoint: CampaignCheckpoint,
                          fingerprint: str) -> None:
    """Atomically persist one campaign checkpoint with its owner's
    fingerprint."""
    with _S_CHECKPOINT_WRITE:
        record = {
            "schema": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "checkpoint": checkpoint.to_dict(),
        }
        atomic_write_text(path, canonical_json(record))


def read_checkpoint_file(path, fingerprint: str) -> CampaignCheckpoint | None:
    """Load a checkpoint file; None when absent, mangled, or stale
    (fingerprint mismatch — the job's source/config/seed changed since it
    was taken)."""
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if (not isinstance(record, dict)
            or record.get("schema") != SCHEMA_VERSION
            or record.get("fingerprint") != fingerprint):
        return None
    try:
        return CampaignCheckpoint.from_dict(record["checkpoint"])
    except (KeyError, ValueError, TypeError, IndexError):
        return None


def clear_checkpoint_file(path) -> None:
    Path(path).unlink(missing_ok=True)


class CheckpointSession:
    """The checkpoint lifecycle of one campaign run against one file:
    read-by-fingerprint, sink wiring, consume-on-completion.

    Shared by ``repro fuzz`` and the backend workers so the two paths
    cannot drift.  The file is *owned* — and therefore consumed by
    :meth:`complete` — only once this run resumed from a matching
    checkpoint or actually wrote one; a mismatched checkpoint that was
    merely probed belongs to some other campaign and is left alone.
    """

    def __init__(self, path, fingerprint: str,
                 every: int | None = None) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.every = every
        self._owned = False

    def load(self) -> CampaignCheckpoint | None:
        """The checkpoint to resume from, if a matching one is here."""
        checkpoint = read_checkpoint_file(self.path, self.fingerprint)
        if checkpoint is not None:
            self._owned = True
        return checkpoint

    def run_kwargs(self) -> dict:
        """Keyword arguments for :meth:`Fuzzer.run`: the periodic sink
        when checkpointing is on, nothing otherwise."""
        if not self.every:
            return {}

        def sink(checkpoint) -> None:
            write_checkpoint_file(self.path, checkpoint, self.fingerprint)
            self._owned = True

        return {"checkpoint_every": int(self.every),
                "checkpoint_sink": sink}

    def complete(self) -> None:
        """Consume the checkpoint after a completed campaign."""
        if self._owned:
            clear_checkpoint_file(self.path)
