"""The inline backend: every job in the calling process.

No subprocesses, no isolation, no timeouts — this is the debugging mode
and the reference the determinism guard compares the process-based
backends against.  It still compiles through the process-local compile
cache, so repeated cells over the same contract amortize compilation
exactly like a pool worker does.
"""

from __future__ import annotations

from repro.orchestrator.backends.base import (
    ExecutionBackend,
    execute_with_cache_delta,
    heartbeat_wire,
)
from repro.telemetry.progress import TelemetrySession


class InlineBackend(ExecutionBackend):
    name = "inline"

    def __init__(self, workers=None, **options) -> None:
        # one logical worker regardless of the requested count
        super().__init__(workers=1, **options)
        if self.job_timeout is not None:
            raise ValueError(
                "the inline backend cannot enforce a wall-clock job "
                "timeout (nothing to kill); use the pool backend")

    def _run(self, jobs, progress) -> list:
        # with no worker process, heartbeats flow straight from the
        # in-process emitter to the scheduler-side callback
        sink = None
        if self.telemetry and self.heartbeat is not None:
            def sink(snapshot):
                self.heartbeat(heartbeat_wire(snapshot))

        outcomes = []
        for job in jobs:
            transport = self.checkpoint_transport(job) or {}
            kwargs = dict(checkpoint_every=transport.get("every"),
                          checkpoint_path=transport.get("path"),
                          disable=self.disabled_layers)
            if self.telemetry:
                with TelemetrySession(
                        job.job_id, heartbeat_sink=sink,
                        heartbeat_every=self.heartbeat_every) as session:
                    outcome, delta = execute_with_cache_delta(job, **kwargs)
                outcome.telemetry = session.delta
                self._absorb_telemetry(session.delta)
            else:
                outcome, delta = execute_with_cache_delta(job, **kwargs)
            self._absorb_cache_stats(delta)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
        return outcomes
