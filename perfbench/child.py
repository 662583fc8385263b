"""Run one campaign matrix the way ``repro campaign`` does.

Usage: ``python3 perfbench/child.py SPEC.json RESULTS_DIR [--resume]``
(``src`` on ``PYTHONPATH``).  The benchmark launches this script as a
fresh process per measured run, so interpreter start, imports, store
open and worker boot all land inside the timed span.  It runs the spec's
matrix with production defaults — store on (default backend), telemetry
off, the pool at ``workers > 1`` and inline otherwise — and prints one
JSON report as its last line of output.

All times in the report are ``time.monotonic()`` readings, which on
Linux share one clock across processes, so the launching process can
subtract its own launch time from them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from repro.engine.checkpoint import canonical_json
from repro.orchestrator.runner import run_matrix
from repro.orchestrator.store import ResultStore

#: ``FuzzerConfig`` fields of the perf layers: a layer switched off
#: changes only these fields (and the fingerprint that hashes them) in a
#: result record, so the digest leaves them out
LAYER_FIELDS = ("use_state_cache", "use_surface_pruning",
                "use_block_fusion")


class _Contract:
    """The ``.name``/``.source`` pair ``build_matrix`` expects of a corpus
    entry (the contract to compile is the one named ``name``)."""

    def __init__(self, name: str, source: str) -> None:
        self.name = name
        self.source = source


def record_digest(text: str) -> str:
    """sha256 of one canonical result record, blind to the perf layers.

    The record keeps everything the campaign produced and the config it
    ran under, with ``wall_time`` already 0; only the layer switches and
    the fingerprint over them are dropped, so a run with layers off
    digests the same as one at the defaults exactly when the layers are
    inert."""
    record = json.loads(text)
    record.pop("fingerprint", None)
    for key in LAYER_FIELDS:
        record["config"].pop(key, None)
    return hashlib.sha256(canonical_json(record).encode()).hexdigest()


def matrix_digest(cell_digests: dict) -> str:
    """One digest over every cell's record digest."""
    lines = "".join(f"{job_id} {digest}\n"
                    for job_id, digest in sorted(cell_digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def _matrix_kwargs(spec: dict, results_dir) -> dict:
    # the spec names layers by their run_matrix keyword
    return dict(
        contracts=[_Contract(c["name"], c["source"])
                   for c in spec["contracts"]],
        presets=spec["presets"], trials=1, base_seed=spec["base_seed"],
        overrides={"iterations": spec["iterations"]},
        workers=spec["workers"],
        backend="inline" if spec["workers"] <= 1 else "pool",
        results_dir=str(results_dir),
        **{layer: False for layer in spec["layers_off"]})


def run_spec(spec: dict, results_dir, resume: bool = False) -> dict:
    """Run the spec's matrix into ``results_dir`` and report on it."""
    cells = []

    def progress(outcome) -> None:
        cells.append({"job_id": outcome.job.job_id,
                      "status": outcome.status,
                      "elapsed": outcome.elapsed,
                      "settled": time.monotonic()})

    kwargs = _matrix_kwargs(spec, results_dir)
    started = time.monotonic()
    run = run_matrix(progress=progress, **kwargs)
    durable = time.monotonic()
    stats = run.stats
    report = {
        "matrix_start": started,
        "durable": durable,
        "cells": cells,
        "jobs": len(run.outcomes),
        "cached": run.cached,
        "backend": run.backend,
        "workers": stats.workers,
        "executions": stats.executions,
        "compile_cache_hit_rate": stats.cache_hit_rate,
        "workers_killed": stats.workers_killed,
        "workers_recycled": stats.workers_recycled,
        "store_records": (stats.store or {}).get("records_saved", 0),
        "peak_rss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    }
    with ResultStore(results_dir) as store:
        report["digests"] = {job_id: record_digest(text) for job_id, text
                             in store.canonical_records().items()}
    if resume:
        # the read path: a rerun against the finished store must find
        # every cell cached and execute nothing
        t0 = time.monotonic()
        rerun = run_matrix(**kwargs)
        report["resume_s"] = time.monotonic() - t0
        report["resume_cached"] = rerun.cached
        report["resume_executed"] = rerun.executed
    return report


def _stop_resource_tracker() -> None:
    """Wait for the semaphore tracker the pool's queues started, so no
    process of this run outlives it."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list) -> int:
    spec_path, results_dir = argv[0], argv[1]
    with open(spec_path) as handle:
        spec = json.load(handle)
    report = run_spec(spec, results_dir, resume="--resume" in argv[2:])
    _stop_resource_tracker()
    print(json.dumps(report), flush=True)
    return 0


# spawn-context pool workers re-import this file as ``__mp_main__``;
# without the guard every worker would rerun the matrix and die
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
