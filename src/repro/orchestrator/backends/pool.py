"""The pool backend: persistent workers with warm compile caches.

``workers`` long-lived child processes each pull jobs from the scheduler
until the matrix is done, so interpreter boot and package import are paid
once per worker instead of once per job, and each worker's process-local
compile cache (:mod:`repro.compiler.cache`) means a contract fuzzed
across presets × trials compiles once per worker instead of once per
cell.

The scheduler dispatches exactly one job at a time to each worker over a
per-worker queue, so it always knows which job a worker holds — the
invariant behind the pool's guarantees:

* **timeouts** — a worker overrunning the per-job wall-clock budget is
  terminated, its in-flight job settles as ``timeout`` (never requeued),
  and a replacement worker is spawned;
* **crash isolation** — a worker that dies settles only its in-flight job
  as ``error`` and is replaced; queued jobs are unaffected;
* **recycling** — with ``recycle_after=K`` a worker is retired after
  completing K jobs and replaced fresh, bounding per-process memory
  growth on long matrices (at the cost of a cold compile cache);
  ``recycle_after=1`` runs every job in a fresh process, the strongest
  isolation on offer;
* **boot-failure breaker** — once :data:`BOOT_DEATH_LIMIT` workers in a
  row have died before finishing any job, no more are spawned and every
  pending job settles as ``error`` with :data:`BOOT_DEATH_ERROR`.  A
  worker that cannot boot (classically: a script calling
  ``run_matrix`` without a ``__main__`` guard, which every spawned
  worker re-imports) would otherwise be respawned for every cell.

Results are byte-identical to the inline backend at any worker count:
job seeds derive from job identity alone, and compiled artifacts are
immutable, so cache reuse cannot leak state between cells.  The
determinism guard in the test suite enforces this.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

from repro.orchestrator.backends.base import (
    SWEEP_INTERVAL,
    ExecutionBackend,
    SchedulerCore,
    execute_to_wire,
    heartbeat_wire,
)
from repro.orchestrator.jobs import JobOutcome

#: consecutive workers that may die before finishing any job before the
#: pool stops spawning them
BOOT_DEATH_LIMIT = 3

BOOT_DEATH_ERROR = (
    f"{BOOT_DEATH_LIMIT} pool workers in a row died before finishing a "
    f"job, so no more were spawned. Each worker re-imports the main "
    f"module: a script that calls run_matrix must do so under "
    f"'if __name__ == \"__main__\":'.")


def _pool_worker_main(worker_key: int, dispatch_queue,
                      results_queue) -> None:
    """Long-lived child entry point (module-level: spawn picklable).

    Pulls serialized jobs until the ``None`` sentinel arrives; the
    process-local compile cache stays warm across jobs.  Heartbeats share
    the results queue (tagged ``kind="heartbeat"``) and carry the worker
    key, so the scheduler can show who is doing what."""
    def sink(snapshot) -> None:
        results_queue.put(heartbeat_wire(snapshot))

    while True:
        job_data = dispatch_queue.get()
        if job_data is None:
            break
        wire = execute_to_wire(job_data, heartbeat_sink=sink,
                               worker=worker_key)
        wire["worker"] = worker_key
        results_queue.put(wire)


@dataclass
class _PoolWorker:
    """Scheduler-side record of one live worker process."""

    key: int
    proc: object
    dispatch: object  # per-worker job queue (one in-flight job at a time)
    job_id: str | None = None
    started: float = field(default=0.0)
    jobs_done: int = 0


class PoolBackend(ExecutionBackend):
    name = "pool"

    def _run(self, jobs, progress) -> list:
        core = SchedulerCore(jobs, progress, on_heartbeat=self.heartbeat)
        pending = deque(jobs)
        workers: dict = {}  # key -> _PoolWorker
        keys = itertools.count()
        boot_deaths = 0  # consecutive workers dead before finishing a job

        def spawn_worker() -> None:
            key = next(keys)
            dispatch = core.ctx.Queue()
            proc = core.ctx.Process(
                target=_pool_worker_main,
                args=(key, dispatch, core.results_queue), daemon=True)
            proc.start()
            workers[key] = _PoolWorker(key=key, proc=proc,
                                       dispatch=dispatch)

        def retire(worker: _PoolWorker, kill: bool = False) -> None:
            """Remove a worker: sentinel + join for idle workers, hard
            terminate for overrunning ones."""
            workers.pop(worker.key, None)
            if kill:
                worker.proc.terminate()
            else:
                worker.dispatch.put(None)
            worker.proc.join()
            worker.dispatch.close()

        def on_wire(wire) -> None:
            nonlocal boot_deaths
            self._absorb_cache_stats(wire)
            self._absorb_telemetry(wire.get("telemetry"))
            # match against the live incarnation only: a result racing in
            # from an already-terminated worker must not free anything
            worker = workers.get(wire.get("worker"))
            if worker is not None and worker.job_id == wire.get("job_id"):
                worker.job_id = None
                worker.jobs_done += 1
                boot_deaths = 0

        def bury(worker: _PoolWorker) -> None:
            """Drop a dead worker (terminate on a dead process is a
            harmless no-op), counting it when it never finished a job."""
            nonlocal boot_deaths
            retire(worker, kill=True)
            if not worker.jobs_done:
                boot_deaths += 1

        def sweep() -> None:
            """Settle timeouts and dead workers; replacements are spawned
            by the top-of-loop headcount."""
            for worker in list(workers.values()):
                now = time.monotonic()
                if worker.job_id is None:
                    if not worker.proc.is_alive():
                        bury(worker)  # died idle (rare)
                    continue
                job_id = worker.job_id
                if (self.job_timeout is not None
                        and now - worker.started > self.job_timeout
                        and worker.proc.is_alive()):
                    retire(worker, kill=True)
                    self.stats["workers_killed"] += 1
                    core.settle_timeout(job_id, self.job_timeout,
                                        worker.started)
                elif not worker.proc.is_alive():
                    core.settle_dead_worker(job_id, worker.proc.exitcode,
                                            worker.started,
                                            handler=on_wire,
                                            label="pool worker")
                    bury(worker)

        try:
            while not core.all_settled():
                if boot_deaths >= BOOT_DEATH_LIMIT:
                    # workers cannot boot: fail what is left instead of
                    # respawning (jobs in flight still settle as usual)
                    while pending:
                        core.settle(JobOutcome(job=pending.popleft(),
                                               status="error",
                                               error=BOOT_DEATH_ERROR))

                # retire idle workers that served their recycling quota
                # (the headcount below spawns fresh replacements)
                if self.recycle_after is not None:
                    for worker in [w for w in workers.values()
                                   if w.job_id is None
                                   and w.jobs_done >= self.recycle_after]:
                        retire(worker)
                        self.stats["workers_recycled"] += 1

                # headcount: enough workers for the remaining jobs, never
                # more than the configured pool size
                in_flight = sum(1 for w in workers.values()
                                if w.job_id is not None)
                while len(workers) < min(self.workers,
                                         len(pending) + in_flight):
                    spawn_worker()

                # dispatch one job to each idle worker; never hand work
                # to a worker that died while idle (sweep reaps it and
                # the headcount replaces it — the job stays pending)
                for worker in workers.values():
                    if not pending:
                        break
                    if worker.job_id is None and worker.proc.is_alive():
                        job = pending.popleft()
                        worker.job_id = job.job_id
                        worker.started = time.monotonic()
                        worker.dispatch.put(self.job_payload(job))

                core.drain(block_for=SWEEP_INTERVAL, handler=on_wire)
                sweep()
        finally:
            # wind down politely, then terminate stragglers (a worker
            # still mid-job after an interrupt will not see its sentinel)
            for worker in workers.values():
                try:
                    worker.dispatch.put(None)
                except Exception:
                    pass
            deadline = time.monotonic() + 1.0
            for worker in workers.values():
                worker.proc.join(
                    timeout=max(0.0, deadline - time.monotonic()))
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join()
                worker.dispatch.close()
            core.close()

        return core.outcomes_in_job_order()
