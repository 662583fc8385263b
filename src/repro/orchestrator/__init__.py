"""Parallel campaign orchestration with a persistent result store.

Turns the one-shot :class:`repro.core.Fuzzer` into a scalable matrix
runner: (contract × fuzzer preset × trial) jobs with deterministic
per-trial seeds, pluggable execution backends (inline / persistent worker
pool with per-worker compile caches) with per-job timeouts and crash
isolation, canonical-JSON result persistence with
fingerprint-checked resume, and trial aggregation feeding the paper-style
reporting tables.  ``repro campaign`` on the command line and the
coverage/bug-detection benchmarks both run on this subsystem.
"""

from repro.orchestrator.aggregate import (
    TrialSummary,
    average_curves,
    fuzzer_coverage_bars,
    matrix_table,
    merge_trials,
    summarize,
)
from repro.orchestrator.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    ExecutionBackend,
    backend_for,
    create_backend,
    execute_job,
    resolve_workers,
    run_jobs,
)
from repro.orchestrator.jobs import CampaignJob, JobOutcome, build_matrix
from repro.orchestrator.runner import MatrixRun, run_matrix
from repro.orchestrator.store import ResultStore

__all__ = [
    "BACKENDS",
    "CampaignJob",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "JobOutcome",
    "MatrixRun",
    "ResultStore",
    "TrialSummary",
    "average_curves",
    "backend_for",
    "build_matrix",
    "create_backend",
    "execute_job",
    "fuzzer_coverage_bars",
    "matrix_table",
    "merge_trials",
    "resolve_workers",
    "run_jobs",
    "run_matrix",
    "summarize",
]
