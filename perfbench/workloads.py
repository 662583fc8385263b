"""The benchmark's workloads and the inputs it draws for them.

A workload names a corpus, a sample size, the fuzzer presets, the
campaign length and the worker count.  :func:`make_spec` turns a
workload and a seed into a *spec*: the generated contracts (name and
source only) plus the matrix parameters.  The program under test only
ever sees a spec; the seed never reaches it except as the matrix
``base_seed`` drawn from it.

The sample is stratified by source length: the corpus is sorted by it,
cut into as many equal strata as contracts are drawn, and the seed picks
one contract per stratum.  Source length tracks a contract's campaign
cost (correlation ~0.8 on D2, ~0.6 on D3), so stratifying keeps the
per-seed spread of throughput small without fixing the contracts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: the perf layers a spec can switch off, as ``run_matrix`` keyword names
LAYERS = ("state_cache", "surface_pruning", "block_fusion")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``repro.corpus`` generator name and its keyword arguments
    corpus: str
    corpus_kwargs: tuple
    sample: int
    presets: tuple
    iterations: int
    workers: int
    #: (sample, iterations) for the benchmark's own tests
    reduced: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        name="d2-matrix",
        why=("many small D2 contracts on the 2-worker pool: cells of "
             "~30-60 ms, so worker boot, dispatch, settlement and store "
             "writes weigh most"),
        corpus="generate_d2", corpus_kwargs=(),
        sample=52, presets=("mufuzz", "sfuzz"), iterations=150,
        workers=2, reduced=(3, 20)),
    Workload(
        name="d3-deep",
        why=("a few D3 contracts with long campaigns run inline: "
             "execution, state-cache hits, oracles and mutation weigh "
             "most"),
        corpus="generate_d3", corpus_kwargs=(),
        sample=4, presets=("mufuzz", "irfuzz"), iterations=1500,
        workers=1, reduced=(1, 60)),
    Workload(
        name="d1-large",
        why=("large D1 contracts with short campaigns on the 2-worker "
             "pool: per-cell set-up (compile, fusion, surface analysis, "
             "deploy) weighs most"),
        corpus="generate_d1", corpus_kwargs=(("n_small", 0),
                                             ("n_large", 24)),
        sample=4, presets=("mufuzz", "sfuzz", "irfuzz"), iterations=30,
        workers=2, reduced=(1, 10)),
)}


def corpus_for(workload: Workload) -> list:
    import repro.corpus
    generate = getattr(repro.corpus, workload.corpus)
    return generate(**dict(workload.corpus_kwargs))


def stratified_sample(corpus, k: int, rng: random.Random) -> list:
    """One contract from each of ``k`` source-length strata, in corpus
    order."""
    ranked = sorted(corpus, key=lambda c: (len(c.source), c.name))
    n = len(ranked)
    if not 1 <= k <= n:
        raise ValueError(f"cannot draw {k} of {n} contracts")
    picked = {ranked[rng.randrange(i * n // k, (i + 1) * n // k)].name
              for i in range(k)}
    return [c for c in corpus if c.name in picked]


def make_spec(name: str, seed: int, reduced: bool = False,
              layers_off=(), workers: int | None = None) -> dict:
    """The inputs for one run of workload ``name`` under ``seed``."""
    workload = WORKLOADS[name]
    unknown = set(layers_off) - set(LAYERS)
    if unknown:
        raise ValueError(f"unknown layers: {sorted(unknown)}")
    sample, iterations = (workload.reduced if reduced
                          else (workload.sample, workload.iterations))
    # a str seed is hashed with SHA-512: stable across processes and
    # PYTHONHASHSEED values
    rng = random.Random(f"{name}:{seed}")
    contracts = stratified_sample(corpus_for(workload), sample, rng)
    return {
        "workload": name,
        "seed": seed,
        "contracts": [{"name": c.name, "source": c.source}
                      for c in contracts],
        "presets": list(workload.presets),
        "iterations": iterations,
        "base_seed": rng.randrange(1, 2 ** 31),
        "workers": workload.workers if workers is None else workers,
        "layers_off": sorted(layers_off),
    }
