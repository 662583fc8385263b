"""The canonical-JSON-per-file backend — the determinism reference.

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
persisted — errors and timeouts are retried on the next run.

This layout *is* the export format: :meth:`StoreBackend.export` of any
backend materializes exactly these files, and the golden-fixture tests
hold the SQLite backend byte-identical to it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.checkpoint import canonical_json
from repro.orchestrator.jobs import CampaignJob, JobOutcome
from repro.orchestrator.store.base import (
    CHECKPOINT_SUFFIX,
    TELEMETRY_SUFFIX,
    StoreBackend,
    atomic_write_text,
    build_record,
    outcome_from_record,
    record_is_fresh,
)


class JsonResultStore(StoreBackend):
    """Directory of per-job campaign result records."""

    name = "json"

    def _record_paths(self):
        return sorted(path for path in self.root.glob("*.json")
                      if not path.name.endswith(CHECKPOINT_SUFFIX)
                      and not path.name.endswith(TELEMETRY_SUFFIX))

    def load(self, job: CampaignJob) -> JobOutcome | None:
        """The cached outcome for ``job``, or None when absent, stale or
        unreadable."""
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

    def save(self, outcome: JobOutcome) -> Path | None:
        """Persist an ``ok`` outcome; no-op for errors and timeouts."""
        if not outcome.ok:
            return None
        path = atomic_write_text(self.path_for(outcome.job),
                                 canonical_json(build_record(outcome)))
        self._count_saved()
        return path

    def completed_ids(self) -> set:
        return {path.stem for path in self._record_paths()}

    def canonical_records(self) -> dict:
        out = {}
        for path in self._record_paths():
            try:
                out[path.stem] = path.read_text()
            except OSError:  # raced with a concurrent delete
                continue
        return out

    def record_for(self, job_id: str) -> dict | None:
        # direct read: no need to load every record to parse one
        try:
            record = json.loads((self.root / f"{job_id}.json").read_text())
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def delete_record(self, job_id: str) -> bool:
        path = self.root / f"{job_id}.json"
        try:
            path.unlink()
        except OSError:
            return False
        return True
