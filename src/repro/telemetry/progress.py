"""Worker heartbeats and progress snapshots.

A :class:`ProgressSnapshot` is one worker's view of one running campaign
at an instant: loop position (stage, executions, transactions, current
seed), rates, coverage, queue depth, findings count, cache hit rates, and
remaining budget.  Backend workers periodically fold their telemetry
registry into one and ship it over the existing results queue (tagged
``kind="heartbeat"``); the scheduler keeps the latest per job, feeds the
live ``repro top`` view, and attaches the final snapshot to a job's
outcome when its worker dies or overruns — so a post-mortem shows where
the campaign was, not just that it stopped.

The emitter is a process-global singleton, a deliberate mirror of the
metrics registry: the engine calls :meth:`HeartbeatEmitter.tick` once per
iteration, which is a single attribute load plus a None check unless a
backend has installed a sink.  Heartbeat cadence is wall-clock-throttled
(default 1s); emission timing never influences campaign behaviour, so
heartbeats are as inert as the metrics they carry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from time import perf_counter

from repro.telemetry import metrics

__all__ = ["ProgressSnapshot", "HeartbeatEmitter", "HEARTBEAT",
           "TelemetrySession", "snapshot_of"]

#: default seconds between heartbeats from a busy worker
DEFAULT_HEARTBEAT_EVERY = 1.0


@dataclass
class ProgressSnapshot:
    """One campaign's progress at an instant, as shipped in heartbeats."""

    job_id: str | None = None
    worker: int | None = None
    #: innermost active pipeline stage span (``engine.execution``, ...)
    stage: str | None = None
    executions: int = 0
    transactions: int = 0
    coverage: float = 0.0
    queue_depth: int = 0
    findings: int = 0
    #: index of the seed being mutated (None between selections)
    seed_index: int | None = None
    elapsed_s: float = 0.0
    execs_per_sec: float = 0.0
    txs_per_sec: float = 0.0
    #: compile/code-analysis cache hit counters for this process
    cache: dict = field(default_factory=dict)
    #: remaining budget per axis (absent axes are unlimited)
    budget_remaining: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        return asdict(self)

    @classmethod
    def from_wire(cls, data: dict) -> "ProgressSnapshot":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def snapshot_of(fuzzer) -> ProgressSnapshot:
    """Fold a live :class:`~repro.core.fuzzer.Fuzzer` into a snapshot.

    Pure observation: reads counters and aggregates, mutates nothing.
    """
    from repro.compiler.cache import compile_cache_stats
    from repro.evm import analysis as code_analysis
    from repro.telemetry import spans

    budget = fuzzer.budget
    elapsed = budget.elapsed()
    remaining: dict = {}
    if budget.max_iterations is not None:
        remaining["iterations"] = max(
            0, budget.max_iterations - budget.iterations_used)
    if budget.max_transactions is not None:
        remaining["transactions"] = max(
            0, budget.max_transactions - budget.transactions_used)
    if budget.max_wall_clock is not None:
        remaining["wall_clock_s"] = round(
            max(0.0, budget.max_wall_clock - elapsed), 3)
    compile_stats = compile_cache_stats()
    analysis_stats = code_analysis.cache_stats()
    state = getattr(fuzzer, "_state", None)
    return ProgressSnapshot(
        stage=spans.current_stage(),
        executions=budget.iterations_used,
        transactions=budget.transactions_used,
        coverage=round(fuzzer.coverage.coverage(), 6),
        queue_depth=len(fuzzer.queue),
        findings=len(fuzzer.collector.all()),
        seed_index=(state.current_index if state is not None else None),
        elapsed_s=round(elapsed, 3),
        execs_per_sec=(round(budget.iterations_used / elapsed, 1)
                       if elapsed > 0 else 0.0),
        txs_per_sec=(round(budget.transactions_used / elapsed, 1)
                     if elapsed > 0 else 0.0),
        cache=_cache_stats(fuzzer, compile_stats, analysis_stats),
        budget_remaining=remaining,
    )


def _cache_stats(fuzzer, compile_stats: dict, analysis_stats: dict) -> dict:
    """The snapshot's cache block: process-wide compile/analysis caches
    plus (when the campaign runs with one) the prefix-snapshot state
    cache's effectiveness counters."""
    cache = {
        "compile_hits": compile_stats["hits"],
        "compile_misses": compile_stats["misses"],
        "analysis_hits": analysis_stats["hits"],
        "analysis_misses": analysis_stats["misses"],
    }
    state_cache = getattr(fuzzer, "state_cache", None)
    if state_cache is not None:
        cache["state_hits"] = state_cache.hits
        cache["state_misses"] = state_cache.misses
        cache["state_steps_saved"] = state_cache.steps_saved
        cache["state_txs_skipped"] = state_cache.transactions_skipped
        cache["state_nodes"] = state_cache.node_count
        cache["state_materialized"] = state_cache.materialized_count
        cache["state_bytes"] = state_cache.bytes_estimate()
    return cache


class HeartbeatEmitter:
    """Process-global heartbeat hook the engine ticks once per iteration.

    Uninstalled (the default), :meth:`tick` costs one attribute load and
    a None check.  A backend installs a sink + cadence around each job;
    the engine then emits a :class:`ProgressSnapshot` whenever the
    wall-clock throttle allows.
    """

    __slots__ = ("_sink", "_every", "_last", "job_id", "worker")

    def __init__(self) -> None:
        self._sink = None
        self._every = DEFAULT_HEARTBEAT_EVERY
        self._last = 0.0
        self.job_id: str | None = None
        self.worker: int | None = None

    def install(self, sink, every: float = DEFAULT_HEARTBEAT_EVERY,
                job_id: str | None = None,
                worker: int | None = None) -> None:
        """Route heartbeats to ``sink(snapshot)`` every ``every`` s."""
        self._sink = sink
        self._every = max(0.0, float(every))
        self._last = 0.0  # first tick after install always emits
        self.job_id = job_id
        self.worker = worker

    def uninstall(self) -> None:
        self._sink = None
        self.job_id = None
        self.worker = None

    def tick(self, fuzzer) -> None:
        """Maybe emit a heartbeat for ``fuzzer`` (engine-called)."""
        sink = self._sink
        if sink is None:
            return
        now = perf_counter()
        if now - self._last < self._every:
            return
        self._last = now
        snapshot = snapshot_of(fuzzer)
        snapshot.job_id = self.job_id
        snapshot.worker = self.worker
        sink(snapshot)


#: the process-global emitter the engine ticks
HEARTBEAT = HeartbeatEmitter()


class TelemetrySession:
    """Telemetry scope for one job in one worker process.

    Enables the registry on entry (restoring the previous switch state on
    exit), installs the heartbeat sink, and exposes the job's registry
    *delta* as :attr:`delta` after exit — a long-lived pool worker's
    cumulative counters are turned into per-job numbers the same way the
    compile-cache delta already is.
    """

    def __init__(self, job_id: str | None = None,
                 heartbeat_sink=None,
                 heartbeat_every: float = DEFAULT_HEARTBEAT_EVERY,
                 worker: int | None = None) -> None:
        self.job_id = job_id
        self.heartbeat_sink = heartbeat_sink
        self.heartbeat_every = heartbeat_every
        self.worker = worker
        self.delta: dict | None = None
        self._before: dict | None = None
        self._was_enabled = False

    def __enter__(self) -> "TelemetrySession":
        self._was_enabled = metrics.enabled()
        metrics.enable()
        self._before = metrics.snapshot()
        if self.heartbeat_sink is not None:
            HEARTBEAT.install(self.heartbeat_sink,
                              every=self.heartbeat_every,
                              job_id=self.job_id, worker=self.worker)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.heartbeat_sink is not None:
            HEARTBEAT.uninstall()
        self.delta = metrics.diff_snapshots(metrics.snapshot(),
                                            self._before)
        if not self._was_enabled:
            metrics.disable()
        return False
