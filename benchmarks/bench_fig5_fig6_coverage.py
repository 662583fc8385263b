"""Figures 5 and 6: branch coverage over time and overall, D1 small/large.

Paper reference values — Fig. 6: MuFuzz 90/82, IR-Fuzz 86/76, ConFuzzius
82/70, sFuzz 65/56 (% on small/large); Fig. 5: MuFuzz dominates every
baseline along the whole time axis and ramps fastest early.  The shape to
reproduce is the ordering and the early ramp, not the absolute numbers.

Runs on the campaign orchestrator (:func:`repro.orchestrator.run_matrix`):
the contract × fuzzer matrix fans out across worker processes
(``REPRO_BENCH_WORKERS`` sets the count) with per-cohort pinned RNG
seeds, so results are identical to the former in-process loop at any
parallelism.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_persistence, bench_workers, scaled
from repro.corpus import generate_d1
from repro.orchestrator import average_curves, run_matrix
from repro.reporting import format_percentage_bars, format_table
from repro.reporting.tables import format_curve

#: preset registry keys, strongest first (display names come from results)
PRESET_KEYS = ("mufuzz", "irfuzz", "confuzzius", "sfuzz")


def _cohort_results(run, preset: str) -> list:
    """One result per contract (single-trial matrix), job order."""
    return [trials[0] for trials in run.results_for(preset).values()]


def _run_cohort(contracts, iterations: int, label: str) -> dict:
    """Average final coverage and merged curves per fuzzer."""
    run = run_matrix(
        contracts, presets=PRESET_KEYS, trials=1,
        overrides={"iterations": iterations, "rng_seed": 17},
        workers=bench_workers(), **bench_persistence(label))
    assert not run.errors and not run.timeouts, run.errors + run.timeouts
    out = {}
    for preset in PRESET_KEYS:
        results = _cohort_results(run, preset)
        out[results[0].fuzzer] = {
            "coverage": sum(r.coverage for r in results) / len(results),
            "curve": average_curves([r.curve for r in results]),
        }
    return out


@pytest.fixture(scope="module")
def d1():
    corpus = generate_d1(n_small=scaled(10, 24), n_large=scaled(3, 8),
                         seed=2024)
    small = [c for c in corpus if c.size_class == "small"]
    large = [c for c in corpus if c.size_class == "large"]
    return small, large


def test_fig5a_fig6_small_contracts(d1, once, report):
    small, _ = d1
    cohort = once(_run_cohort, small, scaled(250, 500), "fig5_fig6_small")
    bars = [(name, data["coverage"]) for name, data in cohort.items()]
    curves = {name: data["curve"] for name, data in cohort.items()}
    report("fig6_small", format_percentage_bars(
        bars, title="Fig. 6 (small contracts) — overall branch coverage"))
    report("fig5a_small_curves", format_curve(
        curves, title="Fig. 5a — coverage over time (small contracts), "
                      "x = executed EVM instructions"))
    by_name = dict(bars)
    best = max(cov for _, cov in bars)
    assert by_name["MuFuzz"] >= best - 0.02, \
        f"MuFuzz should lead or tie on small contracts: {bars}"


def test_fig5b_fig6_large_contracts(d1, once, report):
    _, large = d1
    cohort = once(_run_cohort, large, scaled(200, 400), "fig5_fig6_large")
    bars = [(name, data["coverage"]) for name, data in cohort.items()]
    curves = {name: data["curve"] for name, data in cohort.items()}
    report("fig6_large", format_percentage_bars(
        bars, title="Fig. 6 (large contracts) — overall branch coverage"))
    report("fig5b_large_curves", format_curve(
        curves, title="Fig. 5b — coverage over time (large contracts), "
                      "x = executed EVM instructions"))
    by_name = dict(bars)
    best = max(cov for _, cov in bars)
    assert by_name["MuFuzz"] >= best - 0.05, \
        f"MuFuzz fell behind on large contracts: {bars}"


def test_fig6_slippage_summary(d1, report, benchmark):
    """MuFuzz's small→large coverage slippage should stay the smallest
    (the paper reports ~8 points for MuFuzz vs 10–14 for the others)."""
    small, large = d1

    def measure():
        small_run = run_matrix(
            small, presets=PRESET_KEYS, trials=1,
            overrides={"iterations": scaled(100, 300), "rng_seed": 5},
            workers=bench_workers())
        large_run = run_matrix(
            large, presets=PRESET_KEYS, trials=1,
            overrides={"iterations": scaled(80, 250), "rng_seed": 5},
            workers=bench_workers())
        for run in (small_run, large_run):
            assert not run.errors and not run.timeouts, \
                run.errors + run.timeouts
        rows = []
        for preset in PRESET_KEYS:
            small_res = _cohort_results(small_run, preset)
            large_res = _cohort_results(large_run, preset)
            small_cov = sum(r.coverage for r in small_res) / len(small_res)
            large_cov = sum(r.coverage for r in large_res) / len(large_res)
            rows.append([small_res[0].fuzzer, f"{small_cov:.1%}",
                         f"{large_cov:.1%}",
                         f"{small_cov - large_cov:+.1%}"])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("fig6_slippage", format_table(
        ["fuzzer", "small", "large", "slippage"], rows,
        title="Fig. 6 companion — small→large coverage slippage"))
