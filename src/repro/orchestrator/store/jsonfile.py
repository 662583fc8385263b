"""The result store: one canonical-JSON file per job.

One result file per job under the results directory, named by ``job_id``.
Files are written in canonical form — sorted keys, fixed separators,
trailing newline, and ``wall_time`` normalized to 0.0 — so two runs of the
same matrix with the same seeds produce *byte-identical* artifacts no
matter the worker count or scheduling order.  Wall-clock timing is
environment noise; the scheduler reports it live but it never enters the
store.

Each record carries the job's content :meth:`fingerprint
<repro.orchestrator.jobs.CampaignJob.fingerprint>`; a cached result is
only reused when the fingerprint still matches, so editing a contract or
a config re-runs exactly the affected cells.  Only ``ok`` outcomes are
persisted — errors and timeouts are retried on the next run.  Every
write is atomic and fsynced before its rename (see
:func:`~repro.orchestrator.store.base.atomic_write_text`), so a record is
durable once :meth:`JsonResultStore.save` returns.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.checkpoint import CampaignCheckpoint, canonical_json
from repro.orchestrator.jobs import CampaignJob, JobOutcome
from repro.orchestrator.store.base import (
    CHECKPOINT_SUFFIX,
    LIVE_TELEMETRY_NAME,
    TELEMETRY_SUFFIX,
    atomic_write_text,
    build_record,
    clear_checkpoint_file,
    finding_rows_from_record,
    outcome_from_record,
    read_checkpoint_file,
    record_is_fresh,
    sweep_stale_temps,
    write_checkpoint_file,
)
from repro.telemetry import metrics as _metrics

#: the database file an earlier SQLite result store kept under its root;
#: this store cannot read it, so a directory holding one is refused
LEGACY_DB_NAME = "results.db"

# -- telemetry ----------------------------------------------------------------
# plain-int process totals mirrored into the registry by a snapshot-time
# collector (the zero-overhead pattern of core/statecache.py): the store
# hot path pays integer adds, never a registry probe.
_T_RECORDS_SAVED = _metrics.counter("store.records_saved")
_T_RECORDS_LOADED = _metrics.counter("store.records_loaded")

_records_saved_total = 0
_records_loaded_total = 0


def _collect_store_counters() -> None:
    _T_RECORDS_SAVED.set_total(_records_saved_total)
    _T_RECORDS_LOADED.set_total(_records_loaded_total)


_metrics.register_collector(_collect_store_counters)


# named for perfbench/trace.py, which imports and wraps it by this name
class JsonResultStore:
    """Directory of per-job campaign result records and checkpoints."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        if (self.root / LEGACY_DB_NAME).exists():
            raise ValueError(
                f"{self.root / LEGACY_DB_NAME} is a SQLite result store, "
                f"which this version cannot read: use a fresh "
                f"--results-dir, or export its records with an earlier "
                f"version (ResultStore(dir).export())")
        self.root.mkdir(parents=True, exist_ok=True)
        self.temps_swept = sweep_stale_temps(self.root)
        # per-store observability (mirrored process-wide via the module
        # totals + snapshot collector above)
        self.records_saved = 0
        self.records_loaded = 0
        self.records_unreadable = 0

    # -- paths ----------------------------------------------------------------

    def path_for(self, job: CampaignJob) -> Path:
        """Where ``job``'s record lives."""
        return self.root / f"{job.job_id}.json"

    def live_telemetry_path(self) -> Path:
        """Where the orchestrator publishes live matrix progress."""
        return self.root / LIVE_TELEMETRY_NAME

    def record_paths(self) -> list:
        """The record files, sorted: every ``*.json`` but checkpoints and
        live telemetry."""
        return sorted(path for path in self.root.glob("*.json")
                      if not path.name.endswith(CHECKPOINT_SUFFIX)
                      and not path.name.endswith(TELEMETRY_SUFFIX))

    # -- records --------------------------------------------------------------

    def load(self, job: CampaignJob) -> JobOutcome | None:
        """The cached outcome for ``job``, or None when absent, stale or
        unreadable (see :meth:`_note_unreadable`)."""
        try:
            record = json.loads(self.path_for(job).read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            record = None
        if not isinstance(record, dict):
            self._note_unreadable(job.job_id)
            return None
        if not record_is_fresh(record, job):
            return None
        outcome = outcome_from_record(job, record)
        if outcome is None:
            self._note_unreadable(job.job_id)
            return None
        self._count_loaded()
        return outcome

    def load_fresh(self, jobs) -> dict:
        """``job_id`` → cached outcome for every job with a fresh record:
        the resume path."""
        out = {}
        for job in jobs:
            outcome = self.load(job)
            if outcome is not None:
                out[job.job_id] = outcome
        return out

    def save(self, outcome: JobOutcome) -> Path | None:
        """Persist an ``ok`` outcome; no-op for errors and timeouts."""
        if not outcome.ok:
            return None
        path = atomic_write_text(self.path_for(outcome.job),
                                 canonical_json(build_record(outcome)))
        self._count_saved()
        return path

    def flush(self) -> None:
        """No-op: every record is durable once :meth:`save` returns."""
        # kept: perfbench/trace.py wraps it by name and fails if never called

    def close(self) -> None:
        """No-op: the store holds no open handles."""

    def __enter__(self) -> "JsonResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def completed_ids(self) -> set:
        """Job ids holding a record (fingerprint-unchecked)."""
        return {path.stem for path in self.record_paths()}

    def canonical_records(self) -> dict:
        """``job_id`` → exact canonical record text, for every record."""
        out = {}
        for path in self.record_paths():
            try:
                out[path.stem] = path.read_text()
            except OSError:  # raced with a concurrent delete
                continue
        return out

    def record_for(self, job_id: str) -> dict | None:
        """The parsed record for ``job_id`` (None when absent/mangled)."""
        try:
            record = json.loads((self.root / f"{job_id}.json").read_text())
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def delete_record(self, job_id: str) -> bool:
        """Drop one record; True if it existed."""
        path = self.root / f"{job_id}.json"
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def query_findings(self, contract=None, bug_class=None, severity=None,
                       fingerprint=None, job_id=None, preset=None) -> list:
        """Finding rows (see
        :func:`~repro.orchestrator.store.base.finding_rows_from_record`)
        filtered by any combination of coordinates, in deterministic
        order.  Scans and parses every record."""
        rows = []
        for _jid, text in sorted(self.canonical_records().items()):
            try:
                record = json.loads(text)
            except ValueError:
                continue
            rows.extend(finding_rows_from_record(record))
        rows = [row for row in rows
                if _row_matches(row, contract, bug_class, severity,
                                fingerprint, job_id, preset)]
        rows.sort(key=_row_order)
        return rows

    # -- mid-campaign checkpoints ---------------------------------------------
    # Live checkpoints are written *by the workers themselves* (single
    # writer per job, holding only a path), so they never contend with
    # the scheduler's record writes.

    def checkpoint_path_for(self, job: CampaignJob) -> Path:
        return self.root / f"{job.job_id}{CHECKPOINT_SUFFIX}"

    def save_checkpoint(self, job: CampaignJob,
                        checkpoint: CampaignCheckpoint) -> Path:
        path = self.checkpoint_path_for(job)
        write_checkpoint_file(path, checkpoint, job.fingerprint())
        return path

    def load_checkpoint(self, job: CampaignJob) -> CampaignCheckpoint | None:
        return read_checkpoint_file(self.checkpoint_path_for(job),
                                    job.fingerprint())

    def clear_checkpoint(self, job: CampaignJob) -> None:
        clear_checkpoint_file(self.checkpoint_path_for(job))

    def checkpoint_ids(self) -> set:
        """Job ids with a pending mid-campaign checkpoint."""
        return {path.name[:-len(CHECKPOINT_SUFFIX)]
                for path in self.root.glob(f"*{CHECKPOINT_SUFFIX}")}

    # -- observability --------------------------------------------------------

    def stats_dict(self) -> dict:
        """This store's counters, for ``MatrixRun.stats`` / ``repro top``."""
        return {
            "records_saved": self.records_saved,
            "records_loaded": self.records_loaded,
            "temps_swept": self.temps_swept,
            "records_unreadable": self.records_unreadable,
        }

    def _note_unreadable(self, job_id: str) -> None:
        """A record for ``job_id`` exists but does not parse: the caller
        treats it as missing, so the cell reruns and its fresh record
        replaces this one.  Counted and logged, never silent (a missing
        record or a stale fingerprint is an ordinary miss)."""
        # imported here, on this rare path: ``logging`` would otherwise
        # load into every process that opens a store
        from repro.telemetry import log
        self.records_unreadable += 1
        log.warning("unreadable result record; rerunning its cell",
                    job=job_id)

    def _count_saved(self) -> None:
        global _records_saved_total
        self.records_saved += 1
        _records_saved_total += 1

    def _count_loaded(self) -> None:
        global _records_loaded_total
        self.records_loaded += 1
        _records_loaded_total += 1


def _row_matches(row, contract, bug_class, severity, fingerprint,
                 job_id, preset) -> bool:
    if contract is not None and row["contract"] != contract:
        return False
    if bug_class is not None:
        wanted = ({bug_class} if isinstance(bug_class, str)
                  else set(bug_class))
        if row["bug_class"] not in wanted:
            return False
    if severity is not None and row["severity"] != severity:
        return False
    if fingerprint is not None and row["fingerprint"] != fingerprint:
        return False
    if job_id is not None and row["job_id"] != job_id:
        return False
    if preset is not None and row["preset"] != preset:
        return False
    return True


def _row_order(row) -> tuple:
    return (row["job_id"], row["bug_class"], row["contract"], row["pc"])
