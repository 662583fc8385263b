"""Pluggable execution backends for the campaign orchestrator.

Two strategies for pushing a batch of :class:`CampaignJob`s through the
machine, both settling byte-identical results:

``inline``
    everything in the calling process — the debugging mode and the
    determinism reference; no isolation, no timeouts.
``pool`` (default)
    persistent worker processes, forked from the scheduler, pulling
    jobs from it, each with a warm per-process compile cache, with
    per-job timeouts and crash isolation via kill-and-respawn.
    ``recycle_after=1`` gives every job a fresh fork: no state of any
    kind survives between jobs, at the price of a fork and a cold
    compile per job.

``create_backend(None, ...)`` auto-selects: inline for the explicit
single-worker no-timeout debugging mode, otherwise the pool.
"""

from __future__ import annotations

from repro.orchestrator.backends.base import (
    ExecutionBackend,
    SchedulerCore,
    execute_job,
    resolve_workers,
)
from repro.orchestrator.backends.inline import InlineBackend
from repro.orchestrator.backends.pool import PoolBackend

#: registry: CLI choice / ``run_matrix(backend=...)`` name -> class
BACKENDS = {
    InlineBackend.name: InlineBackend,
    PoolBackend.name: PoolBackend,
}

DEFAULT_BACKEND = PoolBackend.name


def backend_for(workers: int | None = None,
                job_timeout: float | None = None) -> str:
    """Auto-selected backend name: inline for the single-worker
    no-timeout debugging mode (no subprocesses), otherwise the pool."""
    if job_timeout is None and resolve_workers(workers) <= 1:
        return InlineBackend.name
    return DEFAULT_BACKEND


def create_backend(name: str | None = None, **options) -> ExecutionBackend:
    """Instantiate a backend by name (``None`` = auto, see
    :func:`backend_for`); ``options`` are the
    :class:`~repro.orchestrator.backends.base.ExecutionBackend` keyword
    arguments."""
    if name is None:
        name = backend_for(options.get("workers"), options.get("job_timeout"))
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown execution backend {name!r}: expected "
                         f"one of {', '.join(sorted(BACKENDS))}") from None
    return cls(**options)


def run_jobs(jobs, progress=None, backend: str | None = None,
             **options) -> list:
    """Execute every job; returns :class:`JobOutcome` per job, in job
    order (one-call convenience over :func:`create_backend`)."""
    return create_backend(backend, **options).run(jobs, progress=progress)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "InlineBackend",
    "PoolBackend",
    "SchedulerCore",
    "backend_for",
    "create_backend",
    "execute_job",
    "resolve_workers",
    "run_jobs",
]
