"""Observation-overhead bench: what detection and telemetry cost.

Two observers ride on every campaign's hot path, and each carries a
budget that the end-to-end benchmark (``perfbench/``) cannot check: its
workloads run the default oracle set with telemetry off.  This bench
times both over the same fixed-sequence replay workload on the d2
corpus (interpreter + state reset + detection), with the state cache
pinned off so every replay executes all of its transactions:

* **oracles** — replay cost with ``all`` nine oracles, a ``single`` one
  (integer overflow: the restricted-campaign case) and ``none``
  (coverage only).  The bus derives the machine's event-materialization
  mask from the subscribed oracles, so a restricted campaign may cost at
  most :data:`ORACLE_BOUND` × ``all``.
* **telemetry** — replay time with telemetry on against off.  Enabled
  telemetry may cost at most :data:`TELEMETRY_BUDGET` of it.

Both series use one estimator, :func:`_paired_series`: the arms run back
to back in every round and each budget gates a median of per-round
ratios.

It prints a table and writes nothing.  Run it directly
(``python benchmarks/bench_observation_overhead.py [--smoke]``; ``--smoke``
shrinks the workload for CI), which exits nonzero when either budget is
broken, or via pytest, which reports through the ``report`` fixture and
asserts the same budgets.
"""

from __future__ import annotations

import sys
import time

from repro.core.config import mufuzz_config
from repro.core.fuzzer import Fuzzer
from repro.corpus import generate_d2
from repro.reporting import format_table
from repro.telemetry import metrics as telemetry_metrics

N_CONTRACTS = 6
N_CONTRACTS_SMOKE = 2
REPLAY_ITERS = 120
REPLAY_ITERS_SMOKE = 25
#: fewest paired ratios behind each median: one pair's ratio swings by
#: several percent on a shared machine, so a median of a dozen lands on
#: either side of a 3% budget by chance
PAIRS = 48

#: oracle selections benched (config.bug_classes values)
VARIANTS = {
    "all": None,
    "single": ("IO",),
    "none": (),
}
#: a restricted selection may cost at most this multiple of ``all``
#: per transaction (headroom for shared-runner jitter)
ORACLE_BOUND = 1.10
#: enabled telemetry may cost at most this fraction of replay time
TELEMETRY_BUDGET = 0.03


def _bench_contracts(count: int) -> list:
    corpus = generate_d2()
    # spread across the corpus so several bug templates / gate depths
    # are represented, deterministically
    stride = max(1, len(corpus) // count)
    return [corpus[i * stride] for i in range(count)]


def _replay_fuzzer(contract, iters: int, bug_classes=None) -> Fuzzer:
    """A fuzzer for fixed-sequence replay.  The state cache is pinned
    off: replaying one seed over and over would otherwise hit the cache
    and skip the whole sequence, timing the cache instead of the
    observers."""
    return Fuzzer(contract.artifact,
                  mufuzz_config(iterations=iters, rng_seed=7,
                                bug_classes=bug_classes),
                  disable=("state_cache",))


def _paired_series(contracts, iters: int, arms_for) -> dict:
    """Time the arms of one series against its first (base) arm.

    ``arms_for(contract)`` maps each arm's label to ``(fuzzer, seed,
    switch)``: the fuzzer and seed it replays (warmed here by one
    replay), and a callable that puts the process into that arm's mode
    (or None).  The effect under measurement (a few percent at most) is
    far below the noise floor of a shared CI machine, so the estimator
    is built for hostile conditions: each round times every arm *back to
    back* over the same ``iters`` replays, the arm order rotates by one
    every round (so monotonic frequency / thermal drift penalizes each
    arm equally often), and each arm's figure is the **median of its
    per-round ratios** to the base arm across every (contract, round)
    pair — robust to the asymmetric slow tail that wrecks mean- and
    best-of estimators.  Returns per arm the summed ``elapsed`` seconds,
    ``steps`` and ``transactions``, the median ``ratio`` and its
    ``pairs``.
    """
    rounds = -(-PAIRS // len(contracts))
    series: dict = {}
    ratios: dict = {}
    for contract in contracts:
        arms = arms_for(contract)
        labels = list(arms)
        for fuzzer, seed, switch in arms.values():
            if switch is not None:
                switch()
            fuzzer._execute(seed)  # warm the analysis/compile caches
        for round_no in range(rounds):
            shift = round_no % len(labels)
            elapsed = {}
            for label in labels[shift:] + labels[:shift]:
                fuzzer, seed, switch = arms[label]
                if switch is not None:
                    switch()
                transactions = fuzzer.transactions
                steps = 0
                start = time.perf_counter()
                for _ in range(iters):
                    steps += fuzzer._execute(seed).steps
                elapsed[label] = time.perf_counter() - start
                arm = series.setdefault(
                    label, {"elapsed": 0.0, "steps": 0, "transactions": 0})
                arm["elapsed"] += elapsed[label]
                arm["steps"] += steps
                arm["transactions"] += fuzzer.transactions - transactions
            for label in labels:
                ratios.setdefault(label, []).append(
                    elapsed[label] / elapsed[labels[0]])
    for label, arm in series.items():
        arm_ratios = sorted(ratios[label])
        arm["ratio"] = arm_ratios[len(arm_ratios) // 2]
        arm["pairs"] = len(arm_ratios)
    return series


def _oracle_costs(contracts, iters: int) -> dict:
    """Fixed-sequence replay under each oracle selection, each on its own
    fuzzer: per-tx cost and the median paired ratio to ``all``.  Every
    selection replays the same seed, so transaction counts are identical
    across selections by construction."""
    fuzzers: dict = {label: [] for label in VARIANTS}

    def arms_for(contract) -> dict:
        arms = {}
        for label, bug_classes in VARIANTS.items():
            fuzzer = _replay_fuzzer(contract, iters, bug_classes)
            fuzzers[label].append(fuzzer)
            arms[label] = (fuzzer, fuzzer._fresh_seed(), None)
        return arms

    series = _paired_series(contracts, iters, arms_for)
    return {label: {"transactions": arm["transactions"],
                    "findings": sum(len(fuzzer.collector.findings)
                                    for fuzzer in fuzzers[label]),
                    "us_per_tx": round(arm["elapsed"]
                                       / arm["transactions"] * 1e6, 2),
                    "vs_all": round(arm["ratio"], 3),
                    "pairs": arm["pairs"]}
            for label, arm in series.items()}


def _telemetry_overhead(contracts, iters: int) -> dict:
    """Replay time with telemetry on against off, both arms on one
    fuzzer per contract."""
    was_enabled = telemetry_metrics.enabled()

    def arms_for(contract) -> dict:
        fuzzer = _replay_fuzzer(contract, iters)
        seed = fuzzer._fresh_seed()
        return {"off": (fuzzer, seed, telemetry_metrics.disable),
                "on": (fuzzer, seed, telemetry_metrics.enable)}

    try:
        series = _paired_series(contracts, iters, arms_for)
    finally:
        if was_enabled:
            telemetry_metrics.enable()
        else:
            telemetry_metrics.disable()
    off, on = series["off"], series["on"]
    return {
        "disabled_steps_per_sec": round(off["steps"] / off["elapsed"]),
        "enabled_steps_per_sec": round(on["steps"] / on["elapsed"]),
        "overhead": round(on["ratio"] - 1.0, 4),
        "pairs": on["pairs"],
    }


def run_bench(smoke: bool = False) -> dict:
    """Time every oracle selection, then the telemetry series."""
    contracts = _bench_contracts(
        N_CONTRACTS_SMOKE if smoke else N_CONTRACTS)
    iters = REPLAY_ITERS_SMOKE if smoke else REPLAY_ITERS
    return {
        "contracts": [c.name for c in contracts],
        "oracles": _oracle_costs(contracts, iters),
        "telemetry": _telemetry_overhead(contracts, iters),
    }


def budget_failures(entry: dict) -> list:
    """One line per broken budget; empty when both hold."""
    failures = []
    oracles = entry["oracles"]
    for label in ("single", "none"):
        ratio = oracles[label]["vs_all"]
        if ratio > ORACLE_BOUND:
            failures.append(f"oracles {label!r} cost {ratio} x all (median "
                            f"of {oracles[label]['pairs']} paired ratios), "
                            f"above {ORACLE_BOUND}")
    overhead = entry["telemetry"]["overhead"]
    if overhead > TELEMETRY_BUDGET:
        failures.append(f"telemetry costs {overhead:+.2%} of replay time "
                        f"(budget {TELEMETRY_BUDGET:.0%})")
    return failures


def format_report(entry: dict) -> str:
    oracles = entry["oracles"]
    rows = [[label, cost["us_per_tx"], f"{cost['vs_all']:.2f}",
             cost["transactions"], cost["findings"]]
            for label, cost in oracles.items()]
    table = format_table(
        ["oracles", "us/tx", "vs all", "txs", "finding keys"], rows,
        title=f"observation overhead, d2 replay with the state cache off "
              f"({len(entry['contracts'])} contracts; vs all: median of "
              f"{oracles['all']['pairs']} paired ratios)")
    t = entry["telemetry"]
    return (f"{table}\ntelemetry: {t['disabled_steps_per_sec']} steps/s "
            f"off, {t['enabled_steps_per_sec']} on, overhead "
            f"{t['overhead']:+.2%} (median of {t['pairs']} paired ratios, "
            f"budget {TELEMETRY_BUDGET:.0%})")


def test_observation_overhead(report):
    """Pytest entry point: run the bench, report it, check both budgets."""
    entry = run_bench()
    report("observation_overhead", format_report(entry))
    failures = budget_failures(entry)
    assert not failures, failures


if __name__ == "__main__":
    entry = run_bench(smoke="--smoke" in sys.argv[1:])
    print(format_report(entry))
    failures = budget_failures(entry)
    for failure in failures:
        print(f"budget broken: {failure}", file=sys.stderr)
    raise SystemExit(1 if failures else 0)
