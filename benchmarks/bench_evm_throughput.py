"""EVM interpreter throughput microbench.

The orchestrator benches (``BENCH_orchestrator.json``) measure jobs/sec at
the campaign-matrix level; this bench measures the layer below them — raw
interpreter steps/sec on the d2 corpus — so regressions in the dispatch
table, the shared code-analysis cache, or the journal-based state reset are
visible even when job-level numbers are dominated by compile/setup cost.

Two workloads, both fully deterministic:

* ``replay``  — one fixed transaction sequence per contract executed over
  and over against a reset state (the ``Fuzzer._execute`` hot path with the
  fuzzing logic factored out: interpreter + state-reset cost only);
* ``campaign`` — a short full MuFuzz campaign per contract (interpreter
  plus mutation/oracle/feedback overhead, i.e. the real per-iteration mix).

Results land in ``BENCH_evm.json`` at the repo root under a variant key
(``REPRO_BENCH_EVM_VARIANT``, default ``current``).  When both a ``seed``
entry and a ``current`` entry exist the file also records the speedup, so
the interpreter's perf trajectory is tracked across PRs alongside the
orchestrator's.

Run directly (``python benchmarks/bench_evm_throughput.py [--smoke]``) or
via pytest; ``REPRO_BENCH_EVM_SMOKE=1`` (or ``--smoke``) shrinks the
workload for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.core.config import mufuzz_config
from repro.core.fuzzer import Fuzzer
from repro.corpus import generate_d2, generate_d3
from repro.telemetry import metrics as telemetry_metrics

EVM_BENCH_PATH = Path(__file__).parent.parent / "BENCH_evm.json"

#: contracts drawn from the deterministic d2 corpus
N_CONTRACTS = 6
N_CONTRACTS_SMOKE = 2
#: replay iterations (sequence re-executions) per contract
REPLAY_ITERS = 120
REPLAY_ITERS_SMOKE = 25
#: campaign iterations per contract
CAMPAIGN_ITERS = 120
CAMPAIGN_ITERS_SMOKE = 25
#: interleaved A/B rounds for the telemetry-overhead series (best-of)
OVERHEAD_ROUNDS = 3
#: the observability budget: enabled telemetry may cost at most this
#: fraction of replay throughput (ISSUE acceptance criterion)
OVERHEAD_BUDGET = 0.03
#: campaign iterations for the state-cache A/B series — longer than the
#: throughput workloads so prefixes recur enough for the snapshot tree
#: to reach its steady-state hit rate
STATE_CACHE_ITERS = 400
STATE_CACHE_ITERS_SMOKE = 60
#: interleaved A/B rounds per contract for the state-cache series
STATE_CACHE_ROUNDS = 2
#: d3 contracts sampled for the series' second corpus
STATE_CACHE_D3 = 3
#: campaign iterations for the surface-pruning A/B series
SURFACE_ITERS = 300
SURFACE_ITERS_SMOKE = 50
#: interleaved A/B rounds per contract for the surface-pruning series
SURFACE_ROUNDS = 2
#: campaign iterations for the block-fusion A/B series
BLOCK_FUSION_ITERS = 300
BLOCK_FUSION_ITERS_SMOKE = 50
#: interleaved A/B rounds per contract for the block-fusion series
BLOCK_FUSION_ROUNDS = 2
#: d3 contracts sampled for the block-fusion series' second corpus
BLOCK_FUSION_D3 = 3
#: acceptance floor: fused campaigns must be at least this much faster
#: than the table loop on the d2 corpus (median of paired ratios)
BLOCK_FUSION_TARGET_D2 = 1.25


def _smoke() -> bool:
    return (os.environ.get("REPRO_BENCH_EVM_SMOKE") == "1"
            or "--smoke" in sys.argv)


def _bench_contracts(count: int) -> list:
    corpus = generate_d2()
    # Spread across the corpus so several bug templates / gate depths are
    # represented, deterministically.
    stride = max(1, len(corpus) // count)
    return [corpus[i * stride] for i in range(count)]


def _replay_throughput(contracts, iters: int) -> dict:
    """Fixed-sequence replay: interpreter + per-iteration state reset.

    Runs with the state cache pinned off (as do the campaign and
    telemetry series): these series track the *interpreter's* perf
    trajectory against the seed entry, and with the cache on a re-executed
    fixed sequence degenerates to a 100%-hit fast-forward.  The cache gets
    its own A/B series (``state_cache``) below.
    """
    steps = 0
    elapsed = 0.0
    executions = 0
    for contract in contracts:
        fuzzer = Fuzzer(contract.artifact,
                        mufuzz_config(iterations=iters, rng_seed=7),
                        disable=("state_cache",))
        seed = fuzzer._fresh_seed()
        start = time.perf_counter()
        for _ in range(iters):
            trace = fuzzer._execute(seed)
            steps += trace.steps
        elapsed += time.perf_counter() - start
        executions += iters
    return {"steps": steps, "wall_clock_s": round(elapsed, 3),
            "executions": executions,
            "steps_per_sec": round(steps / elapsed) if elapsed else None}


def _campaign_throughput(contracts, iters: int) -> dict:
    """Short full campaigns: the realistic per-iteration instruction mix."""
    steps = 0
    elapsed = 0.0
    executions = 0
    for contract in contracts:
        fuzzer = Fuzzer(contract.artifact,
                        mufuzz_config(iterations=iters, rng_seed=7),
                        disable=("state_cache",))
        start = time.perf_counter()
        result = fuzzer.run()
        elapsed += time.perf_counter() - start
        steps += result.total_steps
        executions += result.iterations
    return {"steps": steps, "wall_clock_s": round(elapsed, 3),
            "executions": executions,
            "steps_per_sec": round(steps / elapsed) if elapsed else None}


def _telemetry_overhead(contracts, iters: int) -> dict:
    """A/B series: replay throughput with telemetry off vs on.

    The effect under measurement (a few percent at most) is far below the
    noise floor of a shared CI machine, so the estimator is built for
    hostile conditions: each round times the two arms *back to back* on
    the same warmed fuzzer and records the on/off time ratio of that pair,
    the arm order alternates every round (so monotonic frequency / thermal
    drift penalizes each arm equally often), and the reported overhead is
    the **median of the paired ratios** across every (contract, round)
    pair — robust to the asymmetric slow-tail that wrecks mean- and
    best-of estimators.
    """
    was_enabled = telemetry_metrics.enabled()
    ratios = []
    total = {"off": 0.0, "on": 0.0}
    steps = {"off": 0, "on": 0}
    # keep at least ~12 paired samples even on the shrunk smoke workload
    rounds = max(OVERHEAD_ROUNDS, 12 // max(1, len(contracts)))
    try:
        for contract in contracts:
            fuzzer = Fuzzer(contract.artifact,
                            mufuzz_config(iterations=iters, rng_seed=7),
                            disable=("state_cache",))
            seed = fuzzer._fresh_seed()
            fuzzer._execute(seed)  # warm the analysis/compile caches
            for round_no in range(rounds):
                arms = (("off", "on") if round_no % 2 == 0
                        else ("on", "off"))
                elapsed = {}
                for arm in arms:
                    if arm == "on":
                        telemetry_metrics.enable()
                    else:
                        telemetry_metrics.disable()
                    start = time.perf_counter()
                    round_steps = 0
                    for _ in range(iters):
                        round_steps += fuzzer._execute(seed).steps
                    elapsed[arm] = time.perf_counter() - start
                    total[arm] += elapsed[arm]
                    steps[arm] += round_steps
                ratios.append(elapsed["on"] / elapsed["off"])
    finally:
        if was_enabled:
            telemetry_metrics.enable()
        else:
            telemetry_metrics.disable()
    ratios.sort()
    median = ratios[len(ratios) // 2] if ratios else 1.0
    return {
        "disabled_steps_per_sec": (round(steps["off"] / total["off"])
                                   if total["off"] else None),
        "enabled_steps_per_sec": (round(steps["on"] / total["on"])
                                  if total["on"] else None),
        "overhead": round(median - 1.0, 4),
        "budget": OVERHEAD_BUDGET,
        "rounds": rounds,
        "pairs": len(ratios),
    }


def _state_cache_series(contracts, iters: int) -> dict:
    """A/B series: identical campaigns with the prefix-snapshot state
    cache on vs off.

    Campaign results are byte-identical either way (the golden-fixture
    guard pins that), so both arms do the same logical work and the
    series isolates pure wall-clock savings.  Same hostile-conditions
    estimator as the telemetry series: each round times the two arms back
    to back, the arm order alternates every round, and the reported
    speedup is the **median of the paired off/on time ratios** across
    every (contract, round) pair.
    """
    ratios = []
    total = {"off": 0.0, "on": 0.0}
    steps = hits = misses = saved = 0
    for contract in contracts:
        # warm the compile/analysis caches outside the timed region
        Fuzzer(contract.artifact,
               mufuzz_config(iterations=2, rng_seed=7)).run()
        for round_no in range(STATE_CACHE_ROUNDS):
            arms = ("off", "on") if round_no % 2 == 0 else ("on", "off")
            elapsed = {}
            for arm in arms:
                fuzzer = Fuzzer(contract.artifact, mufuzz_config(
                    iterations=iters, rng_seed=7),
                    disable=() if arm == "on" else ("state_cache",))
                start = time.perf_counter()
                result = fuzzer.run()
                elapsed[arm] = time.perf_counter() - start
                total[arm] += elapsed[arm]
                if arm == "on":
                    steps += result.total_steps
                    stats = fuzzer.state_cache.stats()
                    hits += stats["hits"]
                    misses += stats["misses"]
                    saved += stats["steps_saved"]
            ratios.append(elapsed["off"] / elapsed["on"])
    ratios.sort()
    probes = hits + misses
    return {
        "speedup": round(ratios[len(ratios) // 2], 3) if ratios else None,
        "hit_rate": round(hits / probes, 4) if probes else 0.0,
        "steps_saved": saved,
        "cached_steps_per_sec": (round(steps / total["on"])
                                 if total["on"] else None),
        "uncached_steps_per_sec": (round(steps / total["off"])
                                   if total["off"] else None),
        "iterations": iters,
        "rounds": STATE_CACHE_ROUNDS,
        "pairs": len(ratios),
    }


def _surface_pruning_series(contracts, iters: int) -> dict:
    """A/B series: identical campaigns with surface-proof oracle pruning
    on vs off, over contracts the surface actually prunes something for.

    Pruned oracles are provably dead (whole-code opcode absence), so both
    arms produce byte-identical results (the golden-fixture guard pins
    that) and the series isolates the wall-clock cost of carrying dead
    oracles: their event subscriptions (which force the machine to
    materialize trace events) and their per-receipt dispatch.  Same
    hostile-conditions estimator as the other A/B series: back-to-back
    arms per round, alternating order, median of the paired off/on time
    ratios.
    """
    from repro.analysis.surface import surface_for

    pruned_contracts = [
        c for c in contracts
        if surface_for(c.artifact.runtime_code).dead]
    ratios = []
    total = {"off": 0.0, "on": 0.0}
    pruned = 0
    for contract in pruned_contracts:
        # warm the compile/analysis/surface caches outside the timed region
        Fuzzer(contract.artifact,
               mufuzz_config(iterations=2, rng_seed=7)).run()
        for round_no in range(SURFACE_ROUNDS):
            arms = ("off", "on") if round_no % 2 == 0 else ("on", "off")
            elapsed = {}
            for arm in arms:
                fuzzer = Fuzzer(contract.artifact, mufuzz_config(
                    iterations=iters, rng_seed=7),
                    disable=() if arm == "on" else ("surface_pruning",))
                start = time.perf_counter()
                fuzzer.run()
                elapsed[arm] = time.perf_counter() - start
                total[arm] += elapsed[arm]
                if arm == "on" and round_no == 0:
                    pruned += len(fuzzer.bus.pruned)
            ratios.append(elapsed["off"] / elapsed["on"])
    ratios.sort()
    return {
        "speedup": round(ratios[len(ratios) // 2], 3) if ratios else None,
        "oracles_pruned": pruned,
        "contracts_with_dead_classes": len(pruned_contracts),
        "contracts_total": len(contracts),
        "iterations": iters,
        "rounds": SURFACE_ROUNDS,
        "pairs": len(ratios),
    }


def _block_fusion_series(contracts, iters: int) -> dict:
    """A/B series: identical campaigns with block-fused execution on vs
    off (the table loop).

    Campaign results are byte-identical either way (the golden-fixture
    guard pins that), so the series isolates the dispatch overhead the
    fused tier amortizes away: per-opcode loop iterations, gas/step
    checks, and stack traffic that constant folding elides.  Same
    hostile-conditions estimator as the other A/B series: back-to-back
    arms per round, alternating order, median of the paired off/on time
    ratios.

    Both arms run with the prefix-snapshot state cache *off* (like the
    replay/campaign series): the cache skips whole transaction replays,
    which is orthogonal to how each executed step is dispatched, and
    leaving it on would dilute the interpreter share of wall time until
    the series mostly measures scheduling noise.  This series tracks the
    *interpreter's* perf trajectory.
    """
    from repro.evm import fusion

    ratios = []
    total = {"off": 0.0, "on": 0.0}
    steps = 0
    for contract in contracts:
        # warm the compile/analysis/fusion caches outside the timed region,
        # every fused entry included: the "on" arm times dispatch, not
        # compile-on-first-entry
        Fuzzer(contract.artifact,
               mufuzz_config(iterations=2, rng_seed=7)).run()
        for program in fusion._cache.values():
            program.compile_all()
        for round_no in range(BLOCK_FUSION_ROUNDS):
            arms = ("off", "on") if round_no % 2 == 0 else ("on", "off")
            elapsed = {}
            for arm in arms:
                fuzzer = Fuzzer(contract.artifact, mufuzz_config(
                    iterations=iters, rng_seed=7),
                    disable=(("state_cache",) if arm == "on"
                             else ("state_cache", "block_fusion")))
                start = time.perf_counter()
                result = fuzzer.run()
                elapsed[arm] = time.perf_counter() - start
                total[arm] += elapsed[arm]
                if arm == "on":
                    steps += result.total_steps
            ratios.append(elapsed["off"] / elapsed["on"])
    ratios.sort()
    stats = fusion.fusion_stats()
    blocks = stats["blocks_fused"] + stats["blocks_bailout"]
    return {
        "speedup": round(ratios[len(ratios) // 2], 3) if ratios else None,
        "fused_steps_per_sec": (round(steps / total["on"])
                                if total["on"] else None),
        "table_steps_per_sec": (round(steps / total["off"])
                                if total["off"] else None),
        "blocks_fused_share": (round(stats["blocks_fused"] / blocks, 4)
                               if blocks else 0.0),
        "folded_ops": stats["folded_ops"],
        "threaded_jumps": stats["threaded_jumps"],
        "runtime_bailouts": stats["runtime_bailouts"],
        "iterations": iters,
        "rounds": BLOCK_FUSION_ROUNDS,
        "pairs": len(ratios),
    }


def _profile_breakdown(contracts, iters: int) -> list[str]:
    """``--profile``: run a fused campaign under cProfile and attribute
    interpreter time per opcode handler and per fused block.

    Handler functions are mapped back to mnemonics through
    ``SIMPLE_HANDLERS`` (the factory-made closures all share the name
    ``handler``; their code objects disambiguate), and generated fused
    blocks are recognized by their ``<fusion:digest:mask>`` filenames —
    so the report shows where interpreter time actually lands after
    fusion, not just aggregate throughput.
    """
    import cProfile
    import pstats

    from repro.evm import fusion
    from repro.evm.handlers import SIMPLE_HANDLERS
    from repro.evm.opcodes import mnemonic

    handler_keys = {}
    for op, fn in SIMPLE_HANDLERS.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        handler_keys.setdefault(key, []).append(mnemonic(op))

    fuzzers = [Fuzzer(c.artifact,
                      mufuzz_config(iterations=iters, rng_seed=7))
               for c in contracts]
    for fuzzer in fuzzers:  # warm compile/analysis/fusion caches
        fuzzer._execute(fuzzer._fresh_seed())
    profile = cProfile.Profile()
    profile.enable()
    for fuzzer in fuzzers:
        fuzzer.run()
    profile.disable()

    per_opcode: dict[str, float] = {}
    per_block: dict[str, float] = {}
    other = 0.0
    stats = pstats.Stats(profile)
    for key, (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        names = handler_keys.get(key)
        if names is not None:
            label = "/".join(sorted(names))
            per_opcode[label] = per_opcode.get(label, 0.0) + tottime
        elif key[0].startswith("<fusion:"):
            label = f"{key[2]} {key[0]}"
            per_block[label] = per_block.get(label, 0.0) + tottime
        elif key[2] in ("run", "_run_fused", "_run_table"):
            per_block[key[2]] = per_block.get(key[2], 0.0) + tottime
        else:
            other += tottime

    lines = ["per-opcode handler time (tottime, seconds):"]
    for label, t in sorted(per_opcode.items(), key=lambda kv: -kv[1])[:20]:
        lines.append(f"  {label:<24} {t:8.4f}")
    lines.append("per-block / dispatch-loop time (tottime, seconds):")
    for label, t in sorted(per_block.items(), key=lambda kv: -kv[1])[:20]:
        lines.append(f"  {label:<48} {t:8.4f}")
    lines.append(f"everything else: {other:.4f}s")
    fstats = fusion.fusion_stats()
    lines.append(f"fusion: {fstats['programs']} programs, "
                 f"{fstats['blocks_fused']} fused / "
                 f"{fstats['blocks_bailout']} bailout blocks, "
                 f"{fstats['folded_ops']} ops folded, "
                 f"{fstats['threaded_jumps']} jumps threaded, "
                 f"{fstats['entries_compiled']} entries compiled, "
                 f"{fstats['fused_steps']} steps on the fused tier, "
                 f"{fstats['runtime_bailouts']} runtime bailouts")
    return lines


def run_evm_bench(smoke: bool | None = None) -> dict:
    """Run both workloads and persist the variant entry in BENCH_evm.json."""
    if smoke is None:
        smoke = _smoke()
    contracts = _bench_contracts(
        N_CONTRACTS_SMOKE if smoke else N_CONTRACTS)
    replay = _replay_throughput(
        contracts, REPLAY_ITERS_SMOKE if smoke else REPLAY_ITERS)
    campaign = _campaign_throughput(
        contracts, CAMPAIGN_ITERS_SMOKE if smoke else CAMPAIGN_ITERS)
    overhead = _telemetry_overhead(
        contracts, REPLAY_ITERS_SMOKE if smoke else REPLAY_ITERS)
    cache_iters = STATE_CACHE_ITERS_SMOKE if smoke else STATE_CACHE_ITERS
    d3_sample = generate_d3(count=STATE_CACHE_D3)
    state_cache = {
        "d2": _state_cache_series(contracts, cache_iters),
        "d3": _state_cache_series(d3_sample, cache_iters),
    }
    surface_pruning = _surface_pruning_series(
        contracts, SURFACE_ITERS_SMOKE if smoke else SURFACE_ITERS)
    fusion_iters = (BLOCK_FUSION_ITERS_SMOKE if smoke
                    else BLOCK_FUSION_ITERS)
    block_fusion = {
        "d2": _block_fusion_series(contracts, fusion_iters),
        "d3": _block_fusion_series(generate_d3(count=BLOCK_FUSION_D3),
                                   fusion_iters),
    }
    entry = {
        "replay": replay,
        "campaign": campaign,
        "telemetry_overhead": overhead,
        "state_cache": state_cache,
        "surface_pruning": surface_pruning,
        "block_fusion": block_fusion,
        "contracts": [c.name for c in contracts],
        "smoke": smoke,
    }

    variant = os.environ.get("REPRO_BENCH_EVM_VARIANT", "current")
    try:
        data = json.loads(EVM_BENCH_PATH.read_text())
    except (OSError, ValueError):
        data = {}
    data[variant] = entry
    seed = data.get("seed")
    current = data.get("current")
    if seed and current and not (seed["smoke"] or current["smoke"]):
        data["speedup"] = {
            workload: round(current[workload]["steps_per_sec"]
                            / seed[workload]["steps_per_sec"], 2)
            for workload in ("replay", "campaign")
            if seed[workload]["steps_per_sec"]
        }
    EVM_BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True)
                              + "\n")
    return entry


def test_evm_throughput(report):
    """Pytest entry point: run the bench and report steps/sec."""
    entry = run_evm_bench()
    lines = ["EVM interpreter throughput (d2 corpus)"]
    for workload in ("replay", "campaign"):
        w = entry[workload]
        lines.append(f"  {workload:<9} {w['steps_per_sec']:>10} steps/sec "
                     f"({w['steps']} steps / {w['wall_clock_s']}s, "
                     f"{w['executions']} executions)")
    o = entry["telemetry_overhead"]
    lines.append(f"  telemetry {o['disabled_steps_per_sec']:>10} steps/sec "
                 f"off, {o['enabled_steps_per_sec']} on "
                 f"({o['overhead'] * 100:+.1f}% overhead, "
                 f"budget {o['budget'] * 100:.0f}%)")
    for corpus, series in entry["state_cache"].items():
        lines.append(f"  state-cache [{corpus}] {series['speedup']}x "
                     f"campaign speedup, {series['hit_rate']:.0%} hit "
                     f"rate, {series['steps_saved']} steps fast-forwarded "
                     f"({series['pairs']} pairs)")
    p = entry["surface_pruning"]
    lines.append(f"  surface-pruning {p['speedup']}x campaign speedup, "
                 f"{p['oracles_pruned']} oracle(s) pruned over "
                 f"{p['contracts_with_dead_classes']}/{p['contracts_total']} "
                 f"contracts ({p['pairs']} pairs)")
    for corpus, series in entry["block_fusion"].items():
        lines.append(f"  block-fusion [{corpus}] {series['speedup']}x "
                     f"campaign speedup, "
                     f"{series['blocks_fused_share']:.0%} blocks fused, "
                     f"{series['folded_ops']} ops folded, "
                     f"{series['threaded_jumps']} jumps threaded "
                     f"({series['pairs']} pairs)")
    report("evm_throughput", "\n".join(lines))
    assert entry["replay"]["steps_per_sec"] > 0
    # enabled telemetry must stay within the observability budget of the
    # disabled hot path (best-of-N interleaved rounds absorbs CI noise)
    assert o["overhead"] <= o["budget"], (
        f"telemetry costs {o['overhead']:.1%} of replay throughput "
        f"(budget {o['budget']:.0%})")
    # the state cache must actually win: campaigns with it on may never
    # be slower than with it off (median of paired interleaved rounds —
    # the point estimate itself lands well above 1; the floor is kept
    # loose only to absorb shared-CI noise)
    for corpus, series in entry["state_cache"].items():
        assert series["hit_rate"] > 0, f"{corpus}: cache never hit"
        assert series["speedup"] >= 1.0, (
            f"{corpus}: state cache slowed campaigns down "
            f"({series['speedup']}x)")
    # surface pruning must actually drop oracles on this corpus and must
    # never cost wall-clock (the floor sits a hair under 1.0 only to
    # absorb shared-CI noise on a small effect)
    assert p["oracles_pruned"] > 0, "surface pruned nothing on d2"
    assert p["speedup"] >= 0.97, (
        f"surface pruning slowed campaigns down ({p['speedup']}x)")
    # block fusion must clear its acceptance floor on d2 and must never
    # cost wall-clock on d3 (both medians of paired interleaved rounds)
    fd2 = entry["block_fusion"]["d2"]
    assert fd2["blocks_fused_share"] > 0.5, (
        f"fusion compiled only {fd2['blocks_fused_share']:.0%} of blocks "
        f"to the fused tier")
    assert fd2["speedup"] >= BLOCK_FUSION_TARGET_D2, (
        f"block fusion d2 campaign speedup {fd2['speedup']}x is below the "
        f"{BLOCK_FUSION_TARGET_D2}x acceptance floor")
    fd3 = entry["block_fusion"]["d3"]
    assert fd3["speedup"] >= 1.0, (
        f"block fusion slowed d3 campaigns down ({fd3['speedup']}x)")


if __name__ == "__main__":
    if "--profile" in sys.argv:
        contracts = _bench_contracts(N_CONTRACTS_SMOKE)
        for line in _profile_breakdown(contracts, CAMPAIGN_ITERS_SMOKE
                                       if _smoke() else CAMPAIGN_ITERS):
            print(line)
        raise SystemExit(0)
    result = run_evm_bench()
    print(json.dumps(result, indent=2))
