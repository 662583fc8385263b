"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``fuzz FILE``      run a fuzzing campaign on a MiniSol source file
``campaign``       run a contract × fuzzer × trial matrix across workers
``report DIR``     aggregate persisted findings across runs
``top DIR``        live view of a running campaign matrix
``replay PATH``    re-trigger persisted findings from their witnesses
``compile FILE``   compile and print bytecode size, ABI, storage layout
``disasm FILE``    disassemble the runtime bytecode
``analyze FILE``   print the vulnerability surface + data-flow analysis
``scan FILE``      run the five static-analyzer models
``corpus``         generate and summarize the benchmark corpora

All user-facing output goes through the structured logger
(:mod:`repro.telemetry.log`): INFO renders bare on stdout (it *is* the
CLI output), warnings/errors go to stderr, and ``-q``/``-v``/
``--log-level`` tune the threshold.  Errors always pair a stderr message
with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.analysis.dataflow import analyze_contract
from repro.analysis.disassembler import format_disassembly
from repro.baselines import STATIC_ANALYZERS
from repro.compiler import compile_cached
from repro.core import PRESET_CONFIGS, Fuzzer
from repro.lang.errors import MiniSolError
from repro.reporting import format_percentage_bars, format_table
from repro.telemetry import log


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MuFuzz reproduction: smart-contract fuzzing toolkit")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less output (-q = warnings and errors only, "
                             "-qq = errors only)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more output (debug level)")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="explicit log threshold (overrides -q/-v)")
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="fuzz a MiniSol contract")
    fuzz.add_argument("file", help="MiniSol source file")
    fuzz.add_argument("--contract", default=None,
                      help="contract name (default: first in file)")
    fuzz.add_argument("--fuzzer", choices=sorted(PRESET_CONFIGS),
                      default="mufuzz")
    fuzz.add_argument("--iterations", type=int, default=None,
                      help="execution budget (default: 300 when no other "
                           "budget is given, else unlimited)")
    fuzz.add_argument("--seed", type=int, default=1)
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="wall-clock budget; combines with the other "
                           "budgets (first exhausted stops the campaign)")
    fuzz.add_argument("--tx-budget", type=int, default=None, metavar="N",
                      help="transaction budget; combines with the other "
                           "budgets")
    fuzz.add_argument("--checkpoint-every", type=int, default=None,
                      metavar="N",
                      help="persist a resumable campaign checkpoint every "
                           "N executions (see --checkpoint-file)")
    fuzz.add_argument("--checkpoint-file", default=None, metavar="PATH",
                      help="checkpoint location (default: "
                           "FILE.checkpoint.json next to the source)")
    fuzz.add_argument("--resume", action="store_true",
                      help="resume from the checkpoint file if present "
                           "(byte-identical to an uninterrupted run)")
    fuzz.add_argument("--oracles", default=None, metavar="CLASSES",
                      help="restrict the campaign to these bug classes "
                           "(comma-separated codes, e.g. RE,IO; 'all' = "
                           "all nine, 'none' = coverage only). The "
                           "machine skips materializing trace events no "
                           "selected oracle subscribes to")
    _add_layer_options(fuzz)
    fuzz.add_argument("--metrics", default=None, metavar="FILE",
                      help="collect telemetry during the campaign "
                           "(provably inert: results are byte-identical "
                           "with it on or off) and write the metrics "
                           "snapshot — counters, histograms, span times — "
                           "to FILE as canonical JSON")

    camp = sub.add_parser(
        "campaign",
        help="run a contract × fuzzer × trial matrix across worker "
             "processes, with resumable JSON result persistence")
    camp.add_argument("files", nargs="*",
                      help="MiniSol source files (default: a generated "
                           "corpus sample, see --dataset/--count)")
    camp.add_argument("--dataset", choices=("d1", "d2", "d3"), default="d2",
                      help="corpus to sample when no files are given")
    camp.add_argument("--count", type=int, default=4,
                      help="number of corpus contracts to fuzz")
    camp.add_argument("--fuzzers", nargs="+",
                      choices=sorted(PRESET_CONFIGS),
                      default=["mufuzz", "sfuzz"], metavar="FUZZER")
    camp.add_argument("--trials", type=int, default=2,
                      help="independent trials per (contract, fuzzer) cell")
    camp.add_argument("--iterations", type=int, default=None,
                      help="per-campaign execution budget (default: 100 "
                           "when no other budget is given, else unlimited)")
    camp.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="per-campaign wall-clock budget; combines with "
                           "the other budgets")
    camp.add_argument("--tx-budget", type=int, default=None, metavar="N",
                      help="per-campaign transaction budget; combines with "
                           "the other budgets")
    camp.add_argument("--checkpoint-every", type=int, default=None,
                      metavar="N",
                      help="persist mid-campaign checkpoints to "
                           "--results-dir every N executions; an "
                           "interrupted matrix resumes mid-campaign")
    camp.add_argument("--seed", type=int, default=1,
                      help="matrix base seed; per-trial seeds derive "
                           "deterministically from it")
    camp.add_argument("--workers", type=int, default=None,
                      help="worker processes (default: all CPU cores; "
                           "1 = inline, no subprocesses — unless "
                           "--job-timeout forces isolation)")
    camp.add_argument("--results-dir", default=None,
                      help="persist per-job results here and skip "
                           "already-completed jobs on rerun")
    camp.add_argument("--job-timeout", type=float, default=None,
                      help="per-job wall-clock timeout in seconds, "
                           "measured from dispatch to a worker process — "
                           "a worker's first job also absorbs ~1s of "
                           "interpreter startup (every job does under "
                           "--recycle-after 1)")
    camp.add_argument("--backend", choices=("pool", "inline"),
                      default=None,
                      help="execution backend (default: pool — persistent "
                           "workers with per-worker compile caches; inline "
                           "auto-selected at --workers 1 with no timeout). "
                           "inline = no subprocesses. Results are "
                           "byte-identical across backends")
    camp.add_argument("--recycle-after", type=int, default=None,
                      metavar="K",
                      help="pool backend: retire and respawn each worker "
                           "after K jobs to bound per-process memory "
                           "growth (1 = a fresh process per job, the "
                           "strongest isolation)")
    camp.add_argument("--oracles", default=None, metavar="CLASSES",
                      help="restrict every campaign to these bug classes "
                           "(comma-separated codes, e.g. RE,IO; 'all' = "
                           "all nine, 'none' = coverage only)")
    _add_layer_options(camp)
    camp.add_argument("--telemetry", action="store_true",
                      help="collect per-job telemetry and worker "
                           "heartbeats; with --results-dir the scheduler "
                           "publishes a live progress file 'repro top' "
                           "can follow. Results stay byte-identical")
    camp.add_argument("--metrics", default=None, metavar="FILE",
                      help="implies --telemetry; additionally write the "
                           "run's merged metrics (counters, histograms, "
                           "spans, throughput) to FILE as canonical JSON")

    report = sub.add_parser(
        "report",
        help="aggregate persisted findings across runs (per-class "
             "counts, severity rollups, per-contract tables)")
    report.add_argument("results_dir",
                        help="a results directory produced by 'repro "
                             "campaign --results-dir'")
    report.add_argument("--contract", default=None,
                        help="only findings in this contract")
    report.add_argument("--bug-class", default=None, metavar="CLASSES",
                        help="only these bug classes (comma-separated "
                             "codes, e.g. RE,IO)")
    report.add_argument("--severity", default=None,
                        choices=("high", "medium", "low"),
                        help="only findings of this severity")
    report.add_argument("--preset", default=None,
                        help="only findings reported by this fuzzer "
                             "preset")
    report.add_argument("--json", action="store_true",
                        help="emit the aggregated report as canonical "
                             "JSON instead of tables")

    top = sub.add_parser(
        "top",
        help="live view of a running campaign matrix (follows the "
             "telemetry file a 'campaign --telemetry --results-dir' run "
             "publishes)")
    top.add_argument("results_dir",
                     help="the campaign's --results-dir (or a direct path "
                          "to its live telemetry file)")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="refresh interval (default: 1s)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no refresh loop)")

    replay = sub.add_parser(
        "replay",
        help="re-execute persisted findings from their stored witnesses "
             "(deterministic re-trigger check)")
    replay.add_argument("paths", nargs="+", metavar="PATH",
                        help="result-store record files (*.json) or "
                             "results directories produced by 'repro "
                             "campaign --results-dir'")

    for name, help_text in (
            ("compile", "compile and show artifact summary"),
            ("disasm", "disassemble runtime bytecode"),
            ("analyze", "show the vulnerability surface and data-flow "
                        "analysis"),
            ("scan", "run the static-analyzer models")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file")
        cmd.add_argument("--contract", default=None)
        if name == "analyze":
            cmd.add_argument("--json", action="store_true",
                             help="emit the surface report as canonical "
                                  "JSON instead of tables")

    corpus = sub.add_parser("corpus", help="generate benchmark corpora")
    corpus.add_argument("--dataset", choices=("d1", "d2", "d3"),
                        default="d2")
    corpus.add_argument("--count", type=int, default=10)
    corpus.add_argument("--show-source", action="store_true")
    return parser


def _add_layer_options(cmd) -> None:
    """The perf-layer options ``fuzz`` and ``campaign`` share."""
    cmd.add_argument("--disable", default=None, metavar="LAYERS",
                     help="switch perf layers off (comma-separated: "
                          "block_fusion, state_cache, surface_pruning, or "
                          "'all'; default: $REPRO_DISABLE, else none). The "
                          "layers only make campaigns faster: results are "
                          "byte-identical either way")
    cmd.add_argument("--state-cache-capacity", type=int, default=None,
                     metavar="N",
                     help="memoized prefix states the state cache keeps "
                          "per campaign (default: 64; leaf-first LRU "
                          "eviction beyond that)")


def _layer_settings(args) -> tuple:
    """(disabled layers, config overrides) from the perf-layer options;
    the layers are None when ``--disable`` is absent, which defers to
    ``REPRO_DISABLE``.  Raises ``ValueError`` naming the bad option."""
    from repro import layers

    overrides = {}
    if args.state_cache_capacity is not None:
        if args.state_cache_capacity < 1:
            raise ValueError("--state-cache-capacity must be >= 1")
        overrides["state_cache_capacity"] = args.state_cache_capacity
    try:
        disable = (None if args.disable is None
                   else layers.parse(args.disable))
    except ValueError as exc:
        raise ValueError(f"--disable: {exc}") from None
    return disable, overrides


class _InputError(Exception):
    """A FILE argument that cannot be read or compiled; :func:`main`
    reports it as one ``error:`` line and exits 2."""


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised as an interrupt; :func:`main` exits 143 on it and
    130 on a plain :class:`KeyboardInterrupt` (SIGINT)."""


def _raise_terminated(signum, frame):
    raise _Terminated


def _missing_directory(flag: str, path: str) -> bool:
    """True (and one ``error:`` line logged) when the directory ``path``
    is to be written in does not exist; checked before a campaign starts,
    so a bad path costs nothing."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(directory):
        return False
    log.error(f"error: {flag} {path}: directory {directory} does not exist")
    return True


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None


def _load(args) -> object:
    source = _read(args.file)
    try:
        return compile_cached(source, args.contract)
    except MiniSolError as exc:
        raise _InputError(f"{args.file}: {exc}") from None
    except KeyError as exc:  # --contract names no contract in the file
        raise _InputError(f"{args.file}: {exc.args[0]}") from None


def _resolve_iterations(args, default_iterations: int) -> int | None:
    """The effective iteration budget.

    An explicit ``--iterations`` always applies; otherwise the historical
    default is used *unless* another budget was given, in which case the
    iteration budget is lifted (open-ended, governed by time/transactions).
    """
    if args.iterations is not None:
        return args.iterations
    if args.time_budget is None and args.tx_budget is None:
        return default_iterations
    return None


def _budget_overrides(args, default_iterations: int) -> dict:
    """Config overrides for the three campaign budgets."""
    overrides: dict = {
        "iterations": _resolve_iterations(args, default_iterations)}
    if args.time_budget is not None:
        overrides["time_budget"] = args.time_budget
    if args.tx_budget is not None:
        overrides["tx_budget"] = args.tx_budget
    return overrides


def _parse_oracles(text: str | None):
    """``--oracles`` value → a ``bug_classes`` tuple (None = all nine).

    Accepts comma- or space-separated class codes, case-insensitive, plus
    the keywords ``all`` (no restriction) and ``none`` (coverage-only
    campaign, no oracles).  Raises ``ValueError`` on unknown codes.
    """
    from repro.core.config import normalize_bug_classes

    if text is None:
        return None
    token = text.strip().lower()
    if token == "all":
        return None
    if token == "none":
        return ()
    codes = [code.strip().upper()
             for code in text.replace(",", " ").split() if code.strip()]
    if not codes:
        raise ValueError(
            "no bug-class codes given (use 'all', 'none', or codes "
            "like RE,IO)")
    return normalize_bug_classes(codes)


def _findings_table(findings) -> str:
    """The findings report: most severe first, with triage metadata and
    witness length."""
    from repro.oracles.base import SEVERITIES

    ordered = sorted(findings,
                     key=lambda f: (SEVERITIES.index(f.severity),
                                    f.bug_class.value, f.pc))
    rows = [[f.bug_class.value, f.severity, f"{f.confidence:.2f}",
             f.line, len(f.witness), f.description]
            for f in ordered]
    return format_table(
        ["class", "severity", "conf", "line", "witness txs",
         "description"],
        rows, title="findings")


def _write_metrics_file(path, data: dict) -> None:
    """Persist a metrics snapshot as canonical JSON."""
    from repro.engine.checkpoint import canonical_json
    with open(path, "w") as handle:
        handle.write(canonical_json(data))
    log.info(f"metrics written to {path}")


def cmd_fuzz(args) -> int:
    from repro.orchestrator.store import CheckpointSession

    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        log.error("error: --checkpoint-every must be >= 1")
        return 2
    if (args.checkpoint_file is not None and args.checkpoint_every is None
            and not args.resume):
        log.error("error: --checkpoint-file does nothing on its own; add "
                  "--checkpoint-every N (write checkpoints) or --resume "
                  "(read one)")
        return 2
    if args.metrics and _missing_directory("--metrics", args.metrics):
        return 2

    artifact = _load(args)
    overrides = _budget_overrides(args, default_iterations=300)
    try:
        bug_classes = _parse_oracles(args.oracles)
    except ValueError as exc:
        log.error(f"error: --oracles: {exc}")
        return 2
    if bug_classes is not None:
        overrides["bug_classes"] = bug_classes
    try:
        disable, layer_overrides = _layer_settings(args)
    except ValueError as exc:
        log.error(f"error: {exc}")
        return 2
    overrides.update(layer_overrides)
    config = PRESET_CONFIGS[args.fuzzer](rng_seed=args.seed, **overrides)

    session = None
    fuzzer = None
    if args.checkpoint_every is not None or args.resume:
        from repro.engine.checkpoint import checkpoint_fingerprint
        checkpoint_path = (args.checkpoint_file
                           or args.file + ".checkpoint.json")
        if args.checkpoint_every is not None and _missing_directory(
                "--checkpoint-file", checkpoint_path):
            return 2
        session = CheckpointSession(
            checkpoint_path,
            checkpoint_fingerprint(artifact.source, artifact.name, config),
            args.checkpoint_every)
        checkpoint = session.load()
        if (checkpoint is None and args.checkpoint_every is not None
                and os.path.exists(checkpoint_path)):
            # the file holds some *other* campaign's resumable state
            # (different source/contract/config/seed); our first emitted
            # checkpoint would destroy it
            log.error(f"error: {checkpoint_path} belongs to a different "
                      f"campaign; refusing to overwrite it — pass another "
                      f"--checkpoint-file or delete it first")
            return 2
        if args.resume:
            if checkpoint is not None:
                fuzzer = Fuzzer.resume(checkpoint, artifact=artifact,
                                       disable=disable)
                log.info(f"resumed from {session.path} "
                         f"at execution {fuzzer.executions}")
            else:
                log.info(f"no matching checkpoint at {session.path}; "
                         f"starting fresh")
    if fuzzer is None:
        fuzzer = Fuzzer(artifact, config, disable=disable)

    run_kwargs = session.run_kwargs() if session else {}
    try:
        if args.metrics:
            from repro.telemetry.progress import TelemetrySession
            with TelemetrySession() as telemetry:
                result = fuzzer.run(**run_kwargs)
        else:
            result = fuzzer.run(**run_kwargs)
    except OSError as exc:  # e.g. a full disk; the last checkpoint stays
        where = f" (checkpoint {session.path})" if session else ""
        log.error(f"error: campaign stopped{where}: {exc}")
        return 1
    if session is not None:
        session.complete()

    log.info(f"{result.fuzzer} on {result.contract}: "
             f"{result.coverage:.1%} branch coverage, "
             f"{result.iterations} executions, "
             f"{result.transactions} transactions, "
             f"{result.wall_time:.2f}s")
    if result.findings:
        log.info(_findings_table(result.findings))
    else:
        log.info("no findings")
    if args.metrics:
        _write_metrics_file(args.metrics, telemetry.delta or {})
    return 0


def _campaign_contracts(args) -> list:
    """(name, source) pairs / corpus entries for the campaign matrix."""
    if args.files:
        contracts = []
        used: set = set()
        for path in args.files:
            # read here, compiled per job: a file that does not compile
            # fails its own jobs with an ``error`` row
            source = _read(path)
            base = os.path.splitext(os.path.basename(path))[0]
            # files may share a basename; job names must be unique
            name, suffix = base, 1
            while name in used:
                suffix += 1
                name = f"{base}-{suffix}"
            used.add(name)
            contracts.append((name, source))
        return contracts
    return _sample_corpus(args.dataset, args.count)


def _sample_corpus(dataset: str, count: int) -> list:
    """``count`` contracts from a generated dataset (shared by the
    ``corpus`` and ``campaign`` subcommands so the same flags yield the
    same sample)."""
    from repro.corpus import generate_d1, generate_d2, generate_d3
    if dataset == "d1":
        # keep D1's small/large mix within the requested count (larges
        # are generated after smalls, so slicing would drop them all);
        # any sample of 2+ includes at least one large contract
        n_large = max(1, count // 4) if count > 1 else 0
        return generate_d1(n_small=count - n_large, n_large=n_large)
    if dataset == "d2":
        return generate_d2()[:count]
    return generate_d3(count=count)


def cmd_campaign(args) -> int:
    """Run the matrix with SIGTERM raised as an interrupt, so the pool
    winds its workers down and :func:`main` reports it in one line; the
    caller's handler is back in place afterwards."""
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        return _run_campaign(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run_campaign(args) -> int:
    from repro.orchestrator import (
        backend_for,
        fuzzer_coverage_bars,
        matrix_table,
        resolve_workers,
        run_matrix,
    )

    if args.metrics and _missing_directory("--metrics", args.metrics):
        return 2
    try:
        oracles = _parse_oracles(args.oracles)
    except ValueError as exc:
        log.error(f"error: --oracles: {exc}")
        return 2
    try:
        disable, overrides = _layer_settings(args)
    except ValueError as exc:
        log.error(f"error: {exc}")
        return 2
    overrides["iterations"] = _resolve_iterations(args,
                                                  default_iterations=100)
    contracts = _campaign_contracts(args)
    workers = resolve_workers(args.workers)
    if args.backend is None and args.recycle_after:
        backend = "pool"  # a pool-only knob implies the pool backend
    else:
        backend = args.backend or backend_for(workers, args.job_timeout)
    if args.recycle_after and backend != "pool":
        log.error(f"error: --recycle-after only applies to the pool "
                  f"backend (got {backend})")
        return 2
    if backend == "inline":
        workers = 1  # inline runs serially whatever --workers says
    telemetry = bool(args.telemetry or args.metrics)
    # tolerate repeated --fuzzers values (they would collide as job ids)
    args.fuzzers = list(dict.fromkeys(args.fuzzers))
    total = len(contracts) * len(args.fuzzers) * args.trials
    log.info(f"campaign matrix: {len(contracts)} contracts x "
             f"{len(args.fuzzers)} fuzzers x {args.trials} trials = "
             f"{total} jobs on {workers} worker(s), {backend} backend")
    if total <= 0:
        log.error("error: empty campaign matrix: check --count/--trials "
                  "and the input files")
        return 2

    def progress(outcome):
        if outcome.ok:
            detail = (f"{outcome.result.coverage:.1%} coverage, "
                      f"{len(outcome.result.findings)} finding(s)")
        else:
            detail = outcome.error.strip().splitlines()[-1]
            if outcome.heartbeat:
                # the worker's dying heartbeat: where the campaign was
                detail += (f" [last seen: stage="
                           f"{outcome.heartbeat.get('stage') or '-'} "
                           f"execs={outcome.heartbeat.get('executions', 0)}"
                           f"]")
        log.info(f"  [{outcome.status}] {outcome.job.job_id}: {detail} "
                 f"({outcome.elapsed:.2f}s)")

    try:
        run = run_matrix(
            contracts, presets=args.fuzzers, trials=args.trials,
            base_seed=args.seed, overrides=overrides,
            time_budget=args.time_budget, tx_budget=args.tx_budget,
            workers=workers, results_dir=args.results_dir,
            job_timeout=args.job_timeout, progress=progress,
            backend=backend, recycle_after=args.recycle_after,
            checkpoint_every=args.checkpoint_every, oracles=oracles,
            disable=disable, telemetry=telemetry)
    except ValueError as exc:  # e.g. a results dir this store refuses
        log.error(f"error: {exc}")
        return 2
    except OSError as exc:  # e.g. a full disk; saved records stay
        where = (f" (results dir {args.results_dir})"
                 if args.results_dir is not None else "")
        log.error(f"error: campaign stopped{where}: {exc}")
        return 1

    if run.results_dir is not None:
        store_stats = run.stats.store or {}
        counts = f"{run.cached} cached, {run.executed} executed"
        if store_stats.get("records_unreadable"):
            counts += (f", {store_stats['records_unreadable']} unreadable "
                       f"record(s) rerun")
        log.info(f"results dir: {run.results_dir} ({counts})")
    stats = run.stats
    if run.executed and (stats.compile_cache_hits
                         or stats.compile_cache_misses):
        line = (f"compile cache: {stats.compile_cache_hits} hit(s), "
                f"{stats.compile_cache_misses} miss(es)")
        if stats.workers_recycled:
            line += f"; {stats.workers_recycled} worker(s) recycled"
        log.info(line)
    if telemetry and run.executed:
        log.info(f"throughput: {stats.execs_per_sec:.1f} execs/s, "
                 f"{stats.txs_per_sec:.1f} txs/s over {run.executed} "
                 f"fresh job(s)")
    log.info("")

    summaries = run.summaries()
    if summaries:
        headers, rows = matrix_table(summaries)
        log.info(format_table(headers, rows,
                              title="campaign matrix - per-cell aggregate "
                                    "over trials"))
        log.info("")
        log.info(format_percentage_bars(
            fuzzer_coverage_bars(summaries),
            title="mean branch coverage per fuzzer"))
    failures = run.errors + run.timeouts
    if failures:
        log.info("")
        rows = [[o.job.job_id, o.status,
                 o.error.strip().splitlines()[-1][:70]] for o in failures]
        log.info(format_table(["job", "status", "detail"], rows,
                              title="failed jobs (retried on next run)"))
    if args.metrics:
        _write_metrics_file(args.metrics, run.stats.to_wire())
    # nonzero whenever any cell failed, so scripts/CI never mistake a
    # partially-failed campaign for a clean one
    return 0 if summaries and not failures else 1


def _render_top_frame(record: dict) -> None:
    """One frame of the live matrix view."""
    settled = record.get("settled", 0)
    total = record.get("total", 0)
    cached = record.get("cached", 0)
    state = "done" if record.get("done") else "running"
    log.info(f"campaign {state}: {settled}/{total} job(s) settled "
             f"({cached} cached), {record.get('elapsed_s', 0.0):.0f}s "
             f"elapsed")
    in_flight = record.get("in_flight") or {}
    if in_flight:
        rows = []
        for job_id, snap in sorted(in_flight.items()):
            budget = snap.get("budget_remaining") or {}
            cache = snap.get("cache") or {}
            state_hits = cache.get("state_hits")
            if state_hits is None:  # campaign runs without the state cache
                scache = "-"
            else:
                probes = state_hits + cache.get("state_misses", 0)
                scache = (f"{state_hits / probes:.0%}" if probes else "0%")
            rows.append([
                job_id,
                snap.get("worker", "-"),
                snap.get("stage") or "-",
                snap.get("executions", 0),
                f"{snap.get('execs_per_sec', 0.0):.0f}/s",
                f"{snap.get('coverage', 0.0):.1%}",
                snap.get("queue_depth", 0),
                snap.get("findings", 0),
                scache,
                ",".join(f"{k}={v}" for k, v in sorted(budget.items()))
                or "-",
            ])
        log.info(format_table(
            ["job", "worker", "stage", "execs", "rate", "cov", "queue",
             "findings", "scache", "budget left"],
            rows, title="in flight"))
    stats = record.get("stats")
    if stats:
        log.info(f"totals: {stats.get('executions', 0)} executions, "
                 f"{stats.get('transactions', 0)} transactions, "
                 f"{stats.get('execs_per_sec', 0.0):.1f} execs/s, "
                 f"compile cache hit rate "
                 f"{stats.get('cache_hit_rate', 0.0):.0%}")
        store = stats.get("store")
        if store:
            log.info(f"store: {store.get('records_saved', 0)} record(s) "
                     f"saved")


def cmd_top(args) -> int:
    import json
    import time
    from pathlib import Path
    from repro.orchestrator.store import LIVE_TELEMETRY_NAME

    path = Path(args.results_dir)
    if path.is_dir():
        path = path / LIVE_TELEMETRY_NAME
    interval = max(0.1, float(args.interval))
    waiting_logged = False
    while True:
        record = None
        try:
            record = json.loads(path.read_text())
        except OSError:
            if args.once:
                log.error(f"error: no live telemetry at {path} (start the "
                          f"campaign with --telemetry --results-dir, or "
                          f"wait for its first heartbeat)")
                return 2
            if not waiting_logged:
                log.info(f"waiting for {path} ...")
                waiting_logged = True
        except ValueError:
            pass  # replaced mid-read by a concurrent writer: retry
        if record is not None:
            if sys.stdout.isatty() and not args.once:  # pragma: no cover
                sys.stdout.write("\x1b[2J\x1b[H")
            _render_top_frame(record)
            if record.get("done"):
                return 0
        if args.once:
            return 0
        time.sleep(interval)


def _replay_records(paths) -> list:
    """(path, record) pairs from record files and results directories
    (raises ``ValueError`` for a directory the store refuses)."""
    import json
    from pathlib import Path
    from repro.orchestrator.store import ResultStore

    records = []
    for raw in paths:
        path = Path(raw)
        files = (ResultStore(path).record_paths() if path.is_dir()
                 else [path])
        for file in files:
            try:
                record = json.loads(file.read_text())
            except (OSError, ValueError) as exc:
                raise ValueError(f"{file}: not a readable JSON record "
                                 f"({exc})") from None
            if not isinstance(record, dict) or "result" not in record:
                raise ValueError(f"{file}: not a campaign result record")
            if "source" not in record:
                raise ValueError(
                    f"{file}: record predates the witness schema (no "
                    f"embedded source); re-run the campaign to refresh it")
            records.append((file, record))
    return records


def cmd_replay(args) -> int:
    from repro.core.replay import replay_record

    try:
        records = _replay_records(args.paths)
    except ValueError as exc:
        log.error(f"error: {exc}")
        return 2
    if not records:
        log.error("error: no result records found")
        return 2

    rows = []
    failed = 0
    total = 0
    for path, record in records:
        job_id = record.get("job_id", path.stem)
        outcomes = replay_record(record)
        if not outcomes:
            rows.append([job_id, "-", "-", "-", "no findings"])
            continue
        for outcome in outcomes:
            finding = outcome.finding
            total += 1
            if not outcome.ok:
                failed += 1
            rows.append([job_id, finding.bug_class.value,
                         finding.pc, len(finding.witness),
                         outcome.status])
    log.info(format_table(
        ["job", "class", "pc", "witness txs", "status"], rows,
        title="witness replay"))
    log.info(f"\n{total - failed}/{total} findings re-triggered"
             if total else "\nno findings to replay")
    return 0 if failed == 0 else 1


def cmd_report(args) -> int:
    from pathlib import Path
    from repro.engine.checkpoint import canonical_json
    from repro.orchestrator.store import ResultStore
    from repro.reporting import aggregate_findings, format_findings_report

    root = Path(args.results_dir)
    if not root.is_dir():
        log.error(f"error: {root} is not a results directory")
        return 2
    bug_classes = None
    if args.bug_class is not None:
        try:
            parsed = _parse_oracles(args.bug_class)
        except ValueError as exc:
            log.error(f"error: --bug-class: {exc}")
            return 2
        if parsed == ():
            log.error("error: --bug-class: 'none' selects nothing")
            return 2
        if parsed is not None:
            bug_classes = [bc.value for bc in parsed]
    try:
        store = ResultStore(root)
    except ValueError as exc:  # a results dir this store refuses
        log.error(f"error: {exc}")
        return 2
    rows = store.query_findings(contract=args.contract,
                                bug_class=bug_classes,
                                severity=args.severity,
                                preset=args.preset)
    n_records = len(store.completed_ids())
    report = aggregate_findings(rows)
    if args.json:
        log.info(canonical_json(report.to_dict()))
    else:
        log.info(f"results dir {root}: {n_records} result record(s)")
        log.info("")
        log.info(format_findings_report(report))
    return 0


def cmd_compile(args) -> int:
    artifact = _load(args)
    log.info(f"contract {artifact.name}")
    log.info(f"  runtime: {len(artifact.runtime_code)} bytes, "
             f"{artifact.instruction_count} instructions, "
             f"{len(artifact.branch_info)} branches")
    log.info(f"  init   : {len(artifact.init_code)} bytes")
    log.info("  storage layout:")
    for name, slot in sorted(artifact.layout.slots.items(),
                             key=lambda kv: kv[1]):
        log.info(f"    slot {slot}: {name} "
                 f"({artifact.layout.types[name]})")
    log.info("  ABI:")
    for fn in artifact.abi.functions:
        payable = " payable" if fn.payable else ""
        log.info(f"    {fn.signature}{payable} "
                 f"selector={fn.selector:#010x}")
    return 0


def cmd_disasm(args) -> int:
    artifact = _load(args)
    log.info(format_disassembly(artifact.runtime_code))
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis.surface import surface_for
    from repro.engine.checkpoint import canonical_json

    artifact = _load(args)
    surface = surface_for(artifact.runtime_code)
    if args.json:
        log.info(canonical_json(surface.to_dict()))
        return 0

    rows = [[code,
             "live" if code in surface.live else "dead",
             surface.proofs.get(code, "-")]
            for code in sorted(surface.live + surface.dead)]
    log.info(format_table(
        ["class", "verdict", "proof"],
        rows, title=f"vulnerability surface of {artifact.name} "
                    f"({surface.instruction_count} instructions)"))
    log.info("")

    candidates = {code: len(surface.candidate_pcs.get(code, ()))
                  for code in surface.live
                  if surface.candidate_pcs.get(code)}
    log.info(f"dictionary constants: {len(surface.dictionary_constants)}")
    log.info(f"candidate pcs: "
             + (", ".join(f"{c}={n}" for c, n in sorted(candidates.items()))
                or "none"))
    log.info(f"call sites: {len(surface.calls)}")

    log.info("")
    dataflow = analyze_contract(artifact.contract_ast)
    rows = []
    for fn_name, df in dataflow.functions.items():
        rows.append([fn_name,
                     ",".join(sorted(df.reads)) or "-",
                     ",".join(sorted(df.writes)) or "-",
                     ",".join(sorted(df.branch_reads)) or "-",
                     ",".join(sorted(df.raw_self_deps)) or "-"])
    log.info(format_table(
        ["function", "reads", "writes", "branch reads", "RAW self-deps"],
        rows, title=f"source-level data-flow analysis of {artifact.name}"))
    log.info("")
    log.info(f"write→read edges: {dataflow.write_read_edges()}")
    log.info(f"repeat candidates: {sorted(dataflow.repeat_candidates())}")
    return 0


def cmd_scan(args) -> int:
    artifact = _load(args)
    rows = []
    for tool_cls in STATIC_ANALYZERS:
        tool = tool_cls()
        result = tool.analyze(artifact)
        if result.timeout:
            verdict = "TIMEOUT"
        elif result.error:
            verdict = "ERROR"
        else:
            verdict = ",".join(sorted(bc.value for bc in result.findings)) \
                or "clean"
        rows.append([tool.name, verdict, result.paths_explored])
    log.info(format_table(["tool", "verdict", "paths"], rows,
                          title=f"static scan of {artifact.name}"))
    return 0


def cmd_corpus(args) -> int:
    corpus = _sample_corpus(args.dataset, args.count)
    rows = []
    for contract in corpus:
        rows.append([
            contract.name,
            contract.size_class,
            ",".join(sorted(bc.value for bc in contract.expected_bugs))
            or "-",
            contract.instruction_count,
        ])
        if args.show_source:
            log.info(contract.source)
            log.info("")
    log.info(format_table(
        ["name", "size", "annotated bugs", "instructions"],
        rows, title=f"{args.dataset.upper()} sample"))
    return 0


_COMMANDS = {
    "fuzz": cmd_fuzz,
    "campaign": cmd_campaign,
    "report": cmd_report,
    "top": cmd_top,
    "replay": cmd_replay,
    "compile": cmd_compile,
    "disasm": cmd_disasm,
    "analyze": cmd_analyze,
    "scan": cmd_scan,
    "corpus": cmd_corpus,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        log.configure(args.log_level, quiet=args.quiet,
                      verbose=args.verbose)
    except ValueError as exc:
        log.configure()
        log.error(f"error: {exc}")
        return 2
    try:
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        log.error(f"error: {exc}")
        return 2
    except KeyboardInterrupt as exc:
        log.error("error: interrupted")
        return 128 + (signal.SIGTERM if isinstance(exc, _Terminated)
                      else signal.SIGINT)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
