"""The pool backend: persistent workers with warm compile caches.

``workers`` long-lived child processes each run jobs the scheduler hands
them until the matrix is done, so interpreter boot and package import are
paid once per worker instead of once per job.  Each worker keeps
process-local caches keyed on the contract — the compile cache
(:mod:`repro.compiler.cache`), and the surface, prefix and fusion caches
built on its bytecode — so the scheduler dispatches by **contract
affinity** (:class:`AffinityQueue`): a free worker takes the oldest
pending job of a contract it has already run, otherwise the oldest
pending job of a contract no live worker has run, otherwise it steals the
oldest pending job.  A contract fuzzed across presets × trials is thus
set up once per matrix, plus once per worker that steals one of its jobs.

The scheduler dispatches exactly one job at a time to each worker over a
per-worker queue.  A worker whose result arrives is handed its next job
before that result settles, so it runs while the parent saves the
record.  The scheduler thus always knows which job a worker holds — the
invariant behind the pool's guarantees:

* **timeouts** — a worker overrunning the per-job wall-clock budget is
  terminated, its in-flight job settles as ``timeout`` (never requeued),
  and a replacement worker is spawned;
* **crash isolation** — a worker that dies settles only its in-flight job
  as ``error`` and is replaced; queued jobs are unaffected;
* **recycling** — with ``recycle_after=K`` a worker is retired after
  completing K jobs and replaced fresh, bounding per-process memory
  growth on long matrices (at the cost of a cold compile cache; a
  retired worker's contracts count as run by no one);
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
from collections import Counter, deque
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


class AffinityQueue:
    """The pending jobs, kept per contract in job order, and the
    contracts each live worker has run: the pool's dispatch rule.

    A pick scans the contracts with pending jobs once, so it costs
    O(contracts), not O(pending jobs)."""

    def __init__(self, jobs) -> None:
        #: contract key -> deque of (job index, job), oldest first; the
        #: key is what the compile cache keys on
        self._pending: dict = {}
        for index, job in enumerate(jobs):
            self._pending.setdefault((job.source, job.contract),
                                     deque()).append((index, job))
        self._size = len(jobs)
        self._ran: dict = {}       # worker key -> contract keys it ran
        self._owners = Counter()   # contract key -> live workers that ran it

    def __len__(self) -> int:
        return self._size

    def pick(self, worker):
        """Pop the job free worker ``worker`` runs next (some job must be
        pending): the oldest pending job of a contract it has run, else
        of a contract no live worker has run, else the oldest pending
        job."""
        ran = self._ran.setdefault(worker, set())

        def rank(key) -> tuple:
            tier = 0 if key in ran else 1 if not self._owners[key] else 2
            return tier, self._pending[key][0][0]

        key = min(self._pending, key=rank)
        queue = self._pending[key]
        _, job = queue.popleft()
        if not queue:
            del self._pending[key]
        self._size -= 1
        if key not in ran:
            ran.add(key)
            self._owners[key] += 1
        return job

    def retire(self, worker) -> None:
        """A worker left the pool: its contracts are no longer run by it."""
        for key in self._ran.pop(worker, ()):
            self._owners[key] -= 1

    def take_all(self) -> list:
        """Pop every pending job, in job order."""
        items = sorted((item for queue in self._pending.values()
                        for item in queue), key=lambda item: item[0])
        self._pending.clear()
        self._size = 0
        return [job for _, job in items]


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
        pending = AffinityQueue(jobs)
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
            pending.retire(worker.key)
            if kill:
                worker.proc.terminate()
            else:
                worker.dispatch.put(None)
            worker.proc.join()
            worker.dispatch.close()

        def assign(worker: _PoolWorker) -> None:
            job = pending.pick(worker.key)
            worker.job_id = job.job_id
            worker.started = time.monotonic()
            worker.dispatch.put(self.job_payload(job))

        def quota_served(worker: _PoolWorker) -> bool:
            return (self.recycle_after is not None
                    and worker.jobs_done >= self.recycle_after)

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
                # hand the freed worker its next job now: settlement saves
                # this result's record after the handler returns
                if (pending and not quota_served(worker)
                        and worker.proc.is_alive()):
                    assign(worker)

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
                    for job in pending.take_all():
                        core.settle(JobOutcome(job=job, status="error",
                                               error=BOOT_DEATH_ERROR))

                # retire idle workers that served their recycling quota
                # (the headcount below spawns fresh replacements)
                for worker in [w for w in workers.values()
                               if w.job_id is None and quota_served(w)]:
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
                        assign(worker)

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
