"""End-to-end fuzzing benchmark: campaign matrices from launch to durable
results, with an outside-in layer trace and a correctness gate.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload d2-matrix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload d3-deep --seed 1 --trace 1
    python3 perfbench/run.py --mode loo --workload d1-large --seed 1

``--trace 0`` launches the workload's matrix as a fresh process (see
``child.py``) again and again for ``--seconds`` (at least
:data:`MIN_REPS` times) and reports the medians of the end-to-end
metrics.  ``--trace 1`` reports the per-layer metrics instead: two
untraced launches (the second also reruns the finished matrix against
its store), then the same jobs inline inside this process with every
layer entry point wrapped (``trace.py``).  ``--mode loo`` is the
leave-one-out layer table, over :data:`LOO_ROUNDS` rounds.

Every run passes the correctness gate: each cell must be ``ok`` and its
record digest must equal the reference digest for that workload and
seed.  The reference comes from running the same matrix, on the same
program source, with all perf layers off.  It is recorded under
``.perfbench/reference``, keyed by the inputs and a digest of ``src/``,
so a seed computes it once per checkout and program.  The last line of
output is one JSON object: ``correct``, ``attempted`` and ``failed``
count matrix cells (one per launch and cell), and ``metrics`` maps names
to values and units.  The line before it records the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: fewest launches per ``--trace 0`` run, whatever ``--seconds`` says:
#: setup_s is a median over at least this many set-ups
MIN_REPS = 3
MAX_REPS = 40
#: rounds of the leave-one-out mode
LOO_ROUNDS = 3
#: seconds one launch may take before it is killed as failed
CHILD_TIMEOUT = 60

END_TO_END = {
    "execs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed
    reference)."""


# -- launching the program ----------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}  # production defaults only
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch(spec: dict, resume: bool = False) -> dict:
    """Run the spec's matrix in a fresh process and return its report,
    with ``launched`` (this side's clock reading just before the
    launch) added.  ``resume`` also reruns the finished matrix against
    its store."""
    WORK.mkdir(exist_ok=True)
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    spec_path = WORK / f"spec-{tag}.json"
    results_dir = WORK / f"store-{tag}"
    spec_path.write_text(json.dumps(spec))
    argv = [sys.executable, str(HERE / "child.py"), str(spec_path),
            str(results_dir)] + (["--resume"] if resume else [])
    try:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=_child_env(), start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except BaseException as exc:
            # a hung launch, or this benchmark being stopped: take the
            # launch's whole process group (its pool workers too) with it
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"campaign process exceeded "
                                 f"{CHILD_TIMEOUT}s") from None
            raise
        if proc.returncode != 0:
            raise BenchError(f"campaign process exited {proc.returncode}:\n"
                             + err[-4000:])
        report = json.loads(out.strip().splitlines()[-1])
    finally:
        spec_path.unlink(missing_ok=True)
        shutil.rmtree(results_dir, ignore_errors=True)
    report["launched"] = launched
    return report


def summarize(report: dict) -> dict:
    """End-to-end and orchestrator figures of one launch."""
    cells = report["cells"]
    elapsed = [c["elapsed"] for c in cells]
    # a cell started at its settle time minus its worker-reported elapsed
    setup = (min(c["settled"] - c["elapsed"] for c in cells)
             - report["launched"])
    matrix_wall = report["durable"] - report["matrix_start"]
    capacity = report["workers"] * matrix_wall
    deciles = statistics.quantiles(elapsed, n=10, method="inclusive")
    return {
        "execs_per_s": (report["executions"]
                        / (report["durable"] - report["launched"])),
        "setup_s": setup,
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "matrix_wall_s": matrix_wall,
        "orchestrator.worker_boot_s": (report["launched"] + setup
                                       - report["matrix_start"]),
        "orchestrator.busy_share": sum(elapsed) / capacity,
        "orchestrator.idle_s": capacity - sum(elapsed),
        "orchestrator.cell_s.p50": statistics.median(elapsed),
        "orchestrator.cell_s.p90": deciles[8],
        "orchestrator.workers_killed": report["workers_killed"],
        "orchestrator.workers_recycled": report["workers_recycled"],
        "store.records": report["store_records"],
        "compiler.cache_hit_rate": report["compile_cache_hit_rate"],
    }


def failed_cells(report: dict, reference: dict) -> int:
    """Cells that are not ``ok`` or whose record digest differs from the
    reference (a missing or extra record counts too)."""
    ok = {c["job_id"] for c in report["cells"] if c["status"] == "ok"}
    digests = report["digests"]
    bad = {job_id for job_id, digest in reference.items()
           if job_id not in ok or digests.get(job_id) != digest}
    bad |= set(digests) - set(reference)
    if "resume_cached" in report and (report["resume_cached"]
                                      != report["jobs"]
                                      or report["resume_executed"]):
        bad |= set(reference)  # the store lost or mis-keyed records
    return len(bad)


# -- the reference digests ----------------------------------------------------


def source_digest() -> str:
    """sha256 over the program's source files, paths included."""
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return source.hexdigest()


def reference_digests(spec: dict) -> dict:
    """job_id -> record digest for the spec's matrix, run on the 2-worker
    pool with all perf layers off; computed once per matrix and program
    source, and recorded on disk.  Records do not depend on the backend,
    so the pool serves the inline workload's reference too, in half the
    time."""
    from perfbench.workloads import LAYERS
    core = {k: spec[k] for k in ("contracts", "presets", "iterations",
                                 "base_seed")}
    core["source_sha256"] = source_digest()
    key = hashlib.sha256(json.dumps(core, sort_keys=True).encode())
    path = (WORK / "reference"
            / f"{spec['workload']}-{spec['seed']}-{key.hexdigest()[:16]}.json")
    if path.exists():
        return json.loads(path.read_text())
    report = launch({**spec, "layers_off": list(LAYERS), "workers": 2})
    bad = [c["job_id"] for c in report["cells"] if c["status"] != "ok"]
    if bad or len(report["digests"]) != report["jobs"]:
        raise BenchError(f"reference run failed on cells: {bad}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report["digests"], sort_keys=True))
    return report["digests"]


# -- the traced run -----------------------------------------------------------


def run_traced(spec: dict) -> tuple:
    """The spec's jobs inline in this process with every layer entry point
    wrapped; returns (report, traced layer metrics)."""
    from perfbench import child
    from perfbench.trace import Tracer
    from repro.evm.fusion import fusion_stats

    results_dir = WORK / f"store-traced-{os.getpid()}"
    shutil.rmtree(results_dir, ignore_errors=True)
    tracer = Tracer()
    before = fusion_stats()
    tracer.install()
    try:
        report = child.run_spec({**spec, "workers": 1}, results_dir)
    finally:
        tracer.uninstall()
        shutil.rmtree(results_dir, ignore_errors=True)
    return report, tracer.layer_metrics(before, fusion_stats())


# -- modes --------------------------------------------------------------------


def measure(spec: dict, seconds: float, reference: dict) -> tuple:
    reps = []
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS or (time.monotonic() < deadline
                                   and len(reps) < MAX_REPS):
        reps.append(launch(spec))
    figures = [summarize(r) for r in reps]
    metrics = {name: statistics.median(f[name] for f in figures)
               for name in END_TO_END}
    failed = sum(failed_cells(r, reference) for r in reps)
    attempted = sum(len(reference) for _ in reps)
    return metrics, END_TO_END, attempted, failed, reps


def measure_traced(spec: dict, reference: dict) -> tuple:
    from perfbench.trace import LAYER_METRICS
    reps = [launch(spec), launch(spec, resume=True)]
    figures = [summarize(r) for r in reps]
    metrics = {name: statistics.median(f[name] for f in figures)
               for name in figures[0] if name in LAYER_METRICS}
    metrics["store.resume_s"] = reps[1]["resume_s"]
    traced, layer = run_traced(spec)
    metrics.update(layer)
    if spec["workers"] == 1:
        # both runs inline: traced matrix wall over untraced matrix wall
        metrics["trace.overhead"] = (
            (traced["durable"] - traced["matrix_start"])
            / statistics.median(f["matrix_wall_s"] for f in figures))
    else:
        # the untraced launches ran on the pool: compare the cells' own
        # seconds instead (pool contention and per-worker caches stretch
        # the untraced cells, so this reads low)
        metrics["trace.overhead"] = (
            sum(c["elapsed"] for c in traced["cells"])
            / statistics.median(sum(c["elapsed"] for c in r["cells"])
                                for r in reps))
    checked = reps + [traced]
    failed = sum(failed_cells(r, reference) for r in checked)
    attempted = len(reference) * len(checked)
    units = {name: LAYER_METRICS[name][0] for name in LAYER_METRICS}
    return metrics, units, attempted, failed, checked


def leave_one_out(workload: str, seed: int, reference: dict) -> tuple:
    """Paired, interleaved launches at the defaults and with each perf
    layer (then all three) off; each layer's figure is the median over
    rounds of defaults' execs/s over the variant's execs/s."""
    from perfbench.workloads import LAYERS, make_spec
    variants = [("defaults", ())] + [(layer, (layer,)) for layer in LAYERS]
    variants.append(("all_off", LAYERS))
    execs = {name: [] for name, _ in variants}
    failed = attempted = 0
    for round_ in range(LOO_ROUNDS):
        shift = round_ % len(variants)  # rotate who runs first
        for name, off in variants[shift:] + variants[:shift]:
            report = launch(make_spec(workload, seed, layers_off=off))
            execs[name].append(summarize(report)["execs_per_s"])
            failed += failed_cells(report, reference)
            attempted += len(reference)
    metrics = {}
    for name, _ in variants[1:]:
        ratios = [d / v for d, v in zip(execs["defaults"], execs[name])]
        metrics[f"layer.{name}.loo"] = statistics.median(ratios)
    table = {"method": ("median over rounds of execs_per_s(defaults) / "
                        "execs_per_s(variant); variants run in rotated "
                        "order each round, each launch a fresh process"),
             "execs_per_s": execs}
    return metrics, {m: "ratio" for m in metrics}, attempted, failed, table


# -- host facts ---------------------------------------------------------------


def host_facts(workload: str, seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "source_sha256": source_digest(),
            "workload": workload, "seed": seed}


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("measure", "loo"),
                        default="measure")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS, make_spec
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     + ", ".join(WORKLOADS))

    try:
        spec = make_spec(args.workload, args.seed)
        reference = reference_digests(spec)
        extra = {}
        if args.mode == "loo":
            metrics, units, attempted, failed, extra["loo"] = \
                leave_one_out(args.workload, args.seed, reference)
        elif args.trace:
            metrics, units, attempted, failed, reports = \
                measure_traced(spec, reference)
            extra["launches"] = [summarize(r) for r in reports[:-1]]
            traced = reports[-1]["digests"]
            extra["traced_digest_matches"] = all(
                r["digests"] == traced for r in reports)
        else:
            metrics, units, attempted, failed, reports = \
                measure(spec, args.seconds, reference)
            extra["launches"] = [summarize(r) for r in reports]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    from perfbench.child import matrix_digest
    correct = failed == 0 and extra.get("traced_digest_matches", True)
    record = {"host": host_facts(args.workload, args.seed),
              "mode": args.mode, "trace": args.trace,
              "reference_digest": matrix_digest(reference), **extra}
    record["result"] = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.mode}-{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: record[k] for k in record if k != "result"}))
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
