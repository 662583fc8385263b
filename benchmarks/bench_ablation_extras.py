"""Extra ablations beyond the paper's Fig. 7 (DESIGN.md commitments):

* mask probe budget sweep — how much campaign budget Algorithm 2 may spend;
* RAW-repetition on/off inside the dataflow strategy (isolating §IV-A's
  repetition rule from mere dependency ordering);
* energy weight scheme comparison (uniform / revisit / dynamic).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import scaled
from repro.core import Fuzzer, mufuzz_config
from repro.core.config import (
    ENERGY_DYNAMIC,
    ENERGY_REVISIT,
    ENERGY_UNIFORM,
    SEQ_DATAFLOW,
    SEQ_DATAFLOW_REPEAT,
)
from repro.corpus import generate_d1
from repro.reporting import format_table


@pytest.fixture(scope="module")
def sample():
    corpus = generate_d1(n_small=scaled(8, 24), n_large=0, seed=99)
    return corpus


def _avg_cov(contracts, config_factory):
    total = 0.0
    for contract in contracts:
        total += Fuzzer(contract.artifact, config_factory()).run().coverage
    return total / len(contracts)


def test_mask_budget_sweep(sample, once, report):
    iterations = scaled(100, 250)

    def sweep():
        rows = []
        for fraction in (0.0, 0.15, 0.25, 0.5):
            cov = _avg_cov(sample, lambda: mufuzz_config(
                iterations=iterations, rng_seed=41,
                mask_budget_fraction=fraction,
                use_mask=fraction > 0))
            rows.append([f"{fraction:.0%}", f"{cov:.1%}"])
        return rows

    rows = once(sweep)
    report("ablation_mask_budget", format_table(
        ["mask probe budget", "avg coverage"], rows,
        title="Extra ablation — Algorithm 2 probe-budget sweep (D1 small)"))


def test_repetition_rule_isolated(sample, once, report):
    iterations = scaled(100, 250)

    def compare():
        with_repeat = _avg_cov(sample, lambda: mufuzz_config(
            iterations=iterations, rng_seed=42,
            sequence_strategy=SEQ_DATAFLOW_REPEAT))
        without = _avg_cov(sample, lambda: mufuzz_config(
            iterations=iterations, rng_seed=42,
            sequence_strategy=SEQ_DATAFLOW))
        return with_repeat, without

    with_repeat, without = once(compare)
    report("ablation_repetition", format_table(
        ["strategy", "avg coverage"],
        [["dataflow + RAW repetition", f"{with_repeat:.1%}"],
         ["dataflow ordering only", f"{without:.1%}"]],
        title="Extra ablation — §IV-A repetition rule isolated"))
    assert with_repeat >= without - 0.05


def test_state_cache_speedup(sample, once, report):
    """§VI future-work extension: the prefix-snapshot tree fast-forwards
    memoized prefixes instead of re-executing them.  It is a pure
    performance layer, so the campaign *accounting* — recorded steps,
    coverage, findings — must come out identical with it on or off; the
    work it actually removed shows up in the cache's own counters
    (perfbench's leave-one-out table, ``layer.state_cache.loo``, measures
    the wall-clock side)."""
    iterations = scaled(120, 300)

    def compare():
        rows = []
        for use_cache in (False, True):
            steps = 0
            cov = 0.0
            hits = saved = 0
            for contract in sample:
                fuzzer = Fuzzer(contract.artifact, mufuzz_config(
                    iterations=iterations, rng_seed=44),
                    disable=() if use_cache else ("state_cache",))
                result = fuzzer.run()
                steps += result.total_steps
                cov += result.coverage
                if fuzzer.state_cache is not None:
                    stats = fuzzer.state_cache.stats()
                    hits += stats["hits"]
                    saved += stats["steps_saved"]
            rows.append([("with cache" if use_cache else "no cache"),
                         steps, f"{cov / len(sample):.1%}", hits, saved])
        return rows

    rows = once(compare)
    report("ablation_state_cache", format_table(
        ["mode", "recorded steps", "avg coverage", "cache hits",
         "steps fast-forwarded"], rows,
        title="Extra ablation — §VI prefix-snapshot tree"))
    no_cache, cached = rows
    assert cached[1] == no_cache[1], \
        "the state cache must not change recorded campaign steps"
    assert cached[2] == no_cache[2], \
        "the state cache must not change coverage"
    assert cached[3] > 0, "campaigns never hit the state cache"
    assert cached[4] > 0, "cache hits fast-forwarded no steps"


def test_energy_scheme_comparison(sample, once, report):
    iterations = scaled(100, 250)

    def compare():
        rows = []
        for scheme in (ENERGY_DYNAMIC, ENERGY_REVISIT, ENERGY_UNIFORM):
            cov = _avg_cov(sample, lambda: mufuzz_config(
                iterations=iterations, rng_seed=43,
                energy_strategy=scheme))
            rows.append([scheme, f"{cov:.1%}"])
        return rows

    rows = once(compare)
    report("ablation_energy", format_table(
        ["energy scheme", "avg coverage"], rows,
        title="Extra ablation — energy allocation schemes (D1 small)"))
