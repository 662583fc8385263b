"""Persistent, resumable store for campaign results and checkpoints.

:class:`ResultStore` keeps one canonical-JSON file per job under a
results directory (:mod:`~repro.orchestrator.store.jsonfile`); the record
form, freshness rules, atomic writes and checkpoint files it is built on
live in :mod:`~repro.orchestrator.store.base`.  The files *are* the
artifact: two runs of the same matrix write byte-identical records
whatever the worker count or backend.
"""

from __future__ import annotations

from repro.engine.checkpoint import canonical_json
from repro.orchestrator.store.base import (
    CHECKPOINT_SUFFIX,
    LIVE_TELEMETRY_NAME,
    SCHEMA_VERSION,
    TELEMETRY_SUFFIX,
    CheckpointSession,
    atomic_write_text,
    build_record,
    clear_checkpoint_file,
    finding_fingerprint,
    finding_rows_from_record,
    read_checkpoint_file,
    sweep_stale_temps,
    write_checkpoint_file,
)
from repro.orchestrator.store.jsonfile import JsonResultStore

__all__ = ["ResultStore", "CheckpointSession", "canonical_json",
           "write_checkpoint_file", "read_checkpoint_file",
           "clear_checkpoint_file", "CHECKPOINT_SUFFIX",
           "TELEMETRY_SUFFIX", "LIVE_TELEMETRY_NAME", "JsonResultStore",
           "atomic_write_text", "sweep_stale_temps", "build_record",
           "finding_fingerprint", "finding_rows_from_record",
           "SCHEMA_VERSION"]

#: the result store everything opens: ``ResultStore(results_dir)``
ResultStore = JsonResultStore
