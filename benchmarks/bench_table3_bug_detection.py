"""Table III: TP / FN / timeout-or-error per bug class for ten tools on D2.

Paper reference totals: MuFuzz 195/20/0; IR-Fuzz 136/54/0; ConFuzzius
110/60/24; Smartian 94/102/0; sFuzz 88/83/0; Mythril 78/43/72; Oyente
68/30/3; Osiris 62/37/2; Slither 51/98/1; Securify 26/21/0.  The shape to
reproduce: MuFuzz detects the most with the fewest misses; fuzzers beat
static analyzers; Mythril loses much of the dataset to timeouts.

The fuzzer rows run on the campaign orchestrator
(:func:`repro.orchestrator.run_matrix`): one matrix per tool with its
Table I oracle-capability set, fanned out across worker processes
(``REPRO_BENCH_WORKERS``) with the cohort's pinned RNG seed — results
are identical to the former in-process loop at any parallelism.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_persistence, bench_workers, scaled
from repro.baselines import STATIC_ANALYZERS
from repro.core import preset_config
from repro.corpus import generate_d2
from repro.oracles.base import ALL_BUG_CLASSES, BugClass
from repro.orchestrator import run_matrix
from repro.reporting import (
    aggregate_fuzzer_detection,
    aggregate_static_detection,
    format_table,
)
from repro.reporting.results import mark_unsupported, totals

#: Table I capability rows for the fuzzer baselines
FUZZER_SUPPORT = {
    "MuFuzz": set(ALL_BUG_CLASSES),
    "IR-Fuzz": {BugClass.BD, BugClass.UD, BugClass.EF, BugClass.IO,
                BugClass.RE, BugClass.SE, BugClass.UE},
    "ConFuzzius": {BugClass.BD, BugClass.UD, BugClass.EF, BugClass.IO,
                   BugClass.RE, BugClass.US, BugClass.UE},
    "Smartian": {BugClass.BD, BugClass.UD, BugClass.EF, BugClass.IO,
                 BugClass.RE, BugClass.US, BugClass.TO, BugClass.UE},
    "sFuzz": {BugClass.BD, BugClass.UD, BugClass.EF, BugClass.IO,
              BugClass.RE, BugClass.UE},
}

FUZZER_PRESET_KEYS = ("mufuzz", "irfuzz", "confuzzius", "smartian",
                      "sfuzz")


@pytest.fixture(scope="module")
def d2():
    corpus = generate_d2()
    if scaled(1, 0):
        # small scale: a stratified subsample that keeps every class
        keep = []
        seen: dict = {}
        for contract in corpus:
            for bug_class in contract.expected_bugs:
                if seen.get(bug_class, 0) < 8:
                    keep.append(contract)
                    for bc in contract.expected_bugs:
                        seen[bc] = seen.get(bc, 0) + 1
                    break
        return keep
    return corpus


def _fuzzer_rows(corpus, iterations: int):
    names = {key: preset_config(key).name for key in FUZZER_PRESET_KEYS}
    supported = {key: FUZZER_SUPPORT[names[key]]
                 for key in FUZZER_PRESET_KEYS}
    # one matrix over all five tools keeps every worker busy to the end
    # (per-job seeds are independent of matrix grouping)
    run = run_matrix(
        corpus, presets=FUZZER_PRESET_KEYS, trials=1,
        overrides={"iterations": iterations, "rng_seed": 11},
        supported=supported, workers=bench_workers(),
        **bench_persistence("table3_fuzzers"))
    assert not run.errors and not run.timeouts, run.errors + run.timeouts
    rows = []
    for key in FUZZER_PRESET_KEYS:
        results = {name: trials[0]
                   for name, trials in run.results_for(key).items()}
        cells = aggregate_fuzzer_detection(corpus, results, supported[key])
        rows.append((names[key], cells))
    return rows


def _static_rows(corpus):
    rows = []
    for tool_cls in STATIC_ANALYZERS:
        tool = tool_cls()
        results = {c.name: tool.analyze(c.artifact) for c in corpus}
        cells = aggregate_static_detection(corpus, results)
        mark_unsupported(cells, tool.supported)
        rows.append((tool.name, cells))
    return rows


def test_table3_bug_detection(d2, once, report):
    iterations = scaled(250, 500)
    fuzzer_rows = once(_fuzzer_rows, d2, iterations)
    static_rows = _static_rows(d2)

    headers = ["tool"] + [bc.value for bc in ALL_BUG_CLASSES] + ["total"]
    table_rows = []
    for name, cells in static_rows + fuzzer_rows:
        row = [name] + [str(cells[bc]) for bc in ALL_BUG_CLASSES]
        row.append(str(totals(cells)))
        table_rows.append(row)
    report("table3", format_table(
        headers, table_rows,
        title="Table III — true positives / false negatives / "
              "timeout-or-error per class (D2)"))

    by_name = dict(fuzzer_rows)
    mufuzz_total = totals(by_name["MuFuzz"])
    for name, cells in fuzzer_rows[1:]:
        assert mufuzz_total.tp >= totals(cells).tp, \
            f"MuFuzz should lead {name} in total true positives"
    # Mythril's documented failure mode: a large share of timeouts
    mythril_cells = dict(static_rows)["Mythril"]
    assert totals(mythril_cells).failed > 0
