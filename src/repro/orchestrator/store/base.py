"""Shared machinery for the result-store backends.

Everything both backends must agree on lives here, because agreement *is*
the product: the canonical record form (:func:`build_record` +
:func:`repro.engine.checkpoint.canonical_json`), the freshness rules
(:func:`record_is_fresh`), the findings projection derived from a record
(:func:`finding_rows_from_record`), the crash-safe atomic file writer
(:func:`atomic_write_text`: write → flush → fsync → rename, so a powerloss
can never leave a truncated-but-renamed record), the stale ``*.tmp`` sweep,
and the checkpoint file helpers workers use directly (they hold a path,
not a store).

:class:`StoreBackend` is the interface contract: a backend persists
canonical records keyed by ``job_id``, answers resume queries
(:meth:`~StoreBackend.load_fresh` / :meth:`~StoreBackend.fresh_ids`),
exposes the findings projection (:meth:`~StoreBackend.query_findings`),
and owns the mid-campaign checkpoint lifecycle.  Whatever the storage
engine, :meth:`~StoreBackend.canonical_records` must return byte-identical
text for the same outcomes — the golden-fixture tests hold both backends
to that.
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
from repro.telemetry import metrics as _metrics
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

# -- telemetry ----------------------------------------------------------------
# plain-int process totals mirrored into the registry by a snapshot-time
# collector (the zero-overhead pattern of core/statecache.py): the store
# hot path pays integer adds, never a registry probe.
_T_RECORDS_SAVED = _metrics.counter("store.records_saved")
_T_RECORDS_LOADED = _metrics.counter("store.records_loaded")
_T_ROWS_WRITTEN = _metrics.counter("store.rows_written")
_T_BATCH_FLUSHES = _metrics.counter("store.batch_flushes")
_T_QUERIES = _metrics.counter("store.queries")
_T_QUERY_US = _metrics.counter("store.query_us")

_records_saved_total = 0
_records_loaded_total = 0
_rows_written_total = 0
_batch_flushes_total = 0
_queries_total = 0
_query_us_total = 0


def _collect_store_counters() -> None:
    _T_RECORDS_SAVED.set_total(_records_saved_total)
    _T_RECORDS_LOADED.set_total(_records_loaded_total)
    _T_ROWS_WRITTEN.set_total(_rows_written_total)
    _T_BATCH_FLUSHES.set_total(_batch_flushes_total)
    _T_QUERIES.set_total(_queries_total)
    _T_QUERY_US.set_total(_query_us_total)


_metrics.register_collector(_collect_store_counters)


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
    without the per-write disk stall.
    """
    path = Path(path)
    tmp = path.with_name(path.name + TMP_SUFFIX)
    with open(tmp, "w") as handle:
        handle.write(text)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
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

    Both backends serialize exactly this dict through
    :func:`canonical_json`, which is what makes them interchangeable: the
    SQLite backend stores the very text the JSON backend would have
    written, and ``export`` round-trips it byte-identically.
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


def checkpoint_from_record_text(text: str,
                                fingerprint: str) -> CampaignCheckpoint | None:
    """Parse a checkpoint record; None when mangled or stale (fingerprint
    mismatch — the job's source/config/seed changed since it was taken)."""
    try:
        record = json.loads(text)
    except ValueError:
        return None
    if (not isinstance(record, dict)
            or record.get("schema") != SCHEMA_VERSION
            or record.get("fingerprint") != fingerprint):
        return None
    try:
        return CampaignCheckpoint.from_dict(record["checkpoint"])
    except (KeyError, ValueError, TypeError, IndexError):
        return None


def read_checkpoint_file(path, fingerprint: str) -> CampaignCheckpoint | None:
    """Load a checkpoint file; None when absent, mangled, or stale."""
    try:
        text = Path(path).read_text()
    except OSError:
        return None
    return checkpoint_from_record_text(text, fingerprint)


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


class StoreBackend:
    """The result-store interface both backends implement.

    Subclasses must provide :meth:`load`, :meth:`save`,
    :meth:`completed_ids`, :meth:`canonical_records`, and
    :meth:`delete_record`; everything else has a correct (if unindexed)
    default built on those.  ``flush``/``close`` are no-ops for backends
    that write through immediately.
    """

    #: backend key as selected by ``--store`` / ``REPRO_STORE``
    name = "abstract"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.temps_swept = sweep_stale_temps(self.root)
        # per-store observability (mirrored process-wide via the module
        # totals + snapshot collector above)
        self.records_saved = 0
        self.records_loaded = 0
        self.rows_written = 0
        self.batch_flushes = 0
        self.queries = 0
        self.query_time_s = 0.0
        self.records_unreadable = 0

    # -- paths ----------------------------------------------------------------

    def path_for(self, job: CampaignJob) -> Path:
        """The per-file layout path for ``job``'s record — where the JSON
        backend keeps it, and where ``export`` materializes it."""
        return self.root / f"{job.job_id}.json"

    def live_telemetry_path(self) -> Path:
        """Where the orchestrator publishes live matrix progress."""
        return self.root / LIVE_TELEMETRY_NAME

    # -- records --------------------------------------------------------------

    def load(self, job: CampaignJob) -> JobOutcome | None:
        """The cached outcome for ``job``, or None when absent, stale or
        unreadable (see :meth:`_note_unreadable`)."""
        raise NotImplementedError

    def save(self, outcome: JobOutcome):
        """Persist an ``ok`` outcome; no-op (None) for errors/timeouts."""
        raise NotImplementedError

    def completed_ids(self) -> set:
        """Job ids holding an ``ok`` record (fingerprint-unchecked)."""
        raise NotImplementedError

    def canonical_records(self) -> dict:
        """``job_id`` → exact canonical record text, for every record.

        This is the byte-identity surface: both backends must return the
        same text for the same outcomes, whatever their storage engine.
        """
        raise NotImplementedError

    def record_for(self, job_id: str) -> dict | None:
        """The parsed record for ``job_id`` (None when absent/mangled)."""
        text = self.canonical_records().get(job_id)
        if text is None:
            return None
        try:
            record = json.loads(text)
        except ValueError:
            return None
        return record if isinstance(record, dict) else None

    def delete_record(self, job_id: str) -> bool:
        """Drop one record (and its projection rows); True if it existed."""
        raise NotImplementedError

    def export(self, dest=None) -> list:
        """Materialize every record into the per-file layout under
        ``dest`` (default: this store's root) and return the paths.

        Because records are stored as exact canonical text, an export
        from any backend is byte-identical to what the JSON backend
        would have written in the first place — this is the round-trip
        the golden-fixture tests diff.
        """
        dest = self.root if dest is None else Path(dest)
        dest.mkdir(parents=True, exist_ok=True)
        return [atomic_write_text(dest / f"{job_id}.json", text)
                for job_id, text in sorted(self.canonical_records().items())]

    def load_fresh(self, jobs) -> dict:
        """``job_id`` → cached outcome for every job with a fresh record.

        The resume path.  The default loads job-by-job; the SQLite
        backend overrides it with one indexed query.
        """
        out = {}
        for job in jobs:
            outcome = self.load(job)
            if outcome is not None:
                out[job.job_id] = outcome
        return out

    def fresh_ids(self, jobs) -> set:
        """Job ids whose persisted record is a reusable cache (matching
        fingerprint, ``ok`` status) — the resume *scan*, without
        materializing outcomes."""
        return set(self.load_fresh(jobs))

    def query_findings(self, contract=None, bug_class=None, severity=None,
                       fingerprint=None, job_id=None, preset=None) -> list:
        """Finding rows (see :func:`finding_rows_from_record`) filtered by
        any combination of coordinates, in deterministic order.

        The default scans and parses every record — correct everywhere,
        O(records); the SQLite backend answers from its indexed
        projection instead.
        """
        start = time.perf_counter()
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
        self._count_query(time.perf_counter() - start)
        return rows

    def flush(self) -> None:
        """Make every buffered write durable (no-op for write-through)."""

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- mid-campaign checkpoints ---------------------------------------------
    # Live checkpoints are plain files on every backend: they are written
    # *by the workers themselves* (single writer per job, holding only a
    # path), so they never contend with the scheduler's record writes.

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
            "backend": self.name,
            "records_saved": self.records_saved,
            "records_loaded": self.records_loaded,
            "rows_written": self.rows_written,
            "batch_flushes": self.batch_flushes,
            "queries": self.queries,
            "query_ms": round(self.query_time_s * 1000.0, 3),
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
                    job=job_id, store=self.name)

    def _count_saved(self, rows: int = 1) -> None:
        global _records_saved_total, _rows_written_total
        self.records_saved += 1
        self.rows_written += rows
        _records_saved_total += 1
        _rows_written_total += rows

    def _count_loaded(self, n: int = 1) -> None:
        global _records_loaded_total
        self.records_loaded += n
        _records_loaded_total += n

    def _count_flush(self, rows: int = 0) -> None:
        global _batch_flushes_total, _rows_written_total
        self.batch_flushes += 1
        self.rows_written += rows
        _batch_flushes_total += 1
        _rows_written_total += rows

    def _count_query(self, seconds: float) -> None:
        global _queries_total, _query_us_total
        self.queries += 1
        self.query_time_s += seconds
        _queries_total += 1
        _query_us_total += int(seconds * 1e6)


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
