"""Golden-result determinism guard for the EVM hot path.

The interpreter overhaul (shared code-analysis cache, table dispatch,
journal-based state reset) must be *behavior-preserving*: campaign results
have to come out byte-identical to the pre-overhaul implementation.  The
committed fixture ``tests/data/golden_campaign.json`` was generated with
the straight-line interpreter and fork-per-iteration reset (post
semantics-bugfixes); this test replays the same matrix on every execution
backend and asserts the canonical JSON still matches, so a dispatch-table
or journal-reset regression that silently changes results is caught — not
just one that crashes.

The same fixture pins everything that must leave results alone: the
backends, the result store, interrupt/resume, and each perf layer on and
off.  The library itself reads ``REPRO_DISABLE`` and ``REPRO_TELEMETRY``,
so CI re-runs this module unchanged under each.

Regenerate (only after an *intentional* semantics change):

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src:. python tests/test_golden_determinism.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.corpus import generate_d2
from repro.orchestrator import run_matrix
from repro.orchestrator.store import canonical_json
from tests.conftest import CROWDSALE_SOURCE, GAME_SOURCE

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_campaign.json"

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

#: the matrix is small but deliberately diverse: the two hand-written
#: contracts plus two generated d2 entries (different bug templates and
#: gate depths), across the masked and unmasked mutation strategies
PRESETS = ("mufuzz", "sfuzz")
OVERRIDES = {"iterations": 30, "rng_seed": 11}

#: execution configurations swept against the fixture: both backends,
#: plus the pool with a fresh worker process per job (the strongest
#: isolation the orchestrator offers)
EXECUTIONS = {
    "inline": {"backend": "inline"},
    "pool": {"backend": "pool"},
    "pool-recycle1": {"backend": "pool", "recycle_after": 1},
}


def _golden_contracts() -> list:
    d2 = generate_d2()
    picks = [d2[0], d2[len(d2) // 2]]
    return ([("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
            + [(c.name, c.source) for c in picks])


def _canonical_run(backend: str = "inline", **run_kwargs) -> str:
    run = run_matrix(_golden_contracts(), presets=PRESETS, trials=1,
                     overrides=dict(OVERRIDES), workers=WORKERS,
                     backend=backend, **run_kwargs)
    assert not run.errors and not run.timeouts, (backend, run.errors)
    record = {o.job.job_id: {**o.result.to_dict(), "wall_time": 0.0}
              for o in run.outcomes}
    return canonical_json(record)


@pytest.mark.parametrize("execution", sorted(EXECUTIONS))
def test_backend_matches_golden_fixture(execution):
    assert GOLDEN_PATH.exists(), \
        "golden fixture missing — see module docstring to regenerate"
    assert _canonical_run(**EXECUTIONS[execution]) == \
        GOLDEN_PATH.read_text(), \
        (f"{execution} diverged from the golden campaign fixture; "
         f"if the semantics change was intentional, regenerate it "
         f"(see module docstring)")


def test_result_store_transparent_to_golden_fixture(tmp_path):
    """Persisting through the result store changes nothing: the in-memory
    and the persisted results both match the golden fixture, and the
    persisted canonical records are byte-identical to saving the same
    outcomes afresh."""
    from repro.orchestrator.store import ResultStore

    assert GOLDEN_PATH.exists(), \
        "golden fixture missing — see module docstring to regenerate"
    results_dir = tmp_path / "results"
    run = run_matrix(_golden_contracts(), presets=PRESETS, trials=1,
                     overrides=dict(OVERRIDES), workers=WORKERS,
                     backend="inline", results_dir=results_dir)
    assert not run.errors and not run.timeouts, run.errors
    record = {o.job.job_id: {**o.result.to_dict(), "wall_time": 0.0}
              for o in run.outcomes}
    assert canonical_json(record) == GOLDEN_PATH.read_text(), \
        ("persisted run diverged from the golden campaign fixture — the "
         "result store must never touch results")

    persisted = ResultStore(results_dir).canonical_records()
    stored = {job_id: json.loads(text)["result"]
              for job_id, text in persisted.items()}
    assert canonical_json(stored) == GOLDEN_PATH.read_text(), \
        "persisted records diverged from the golden campaign fixture"
    reference = ResultStore(tmp_path / "reference")
    for outcome in run.outcomes:
        reference.save(outcome)
    assert reference.canonical_records() == persisted, \
        "persisted records diverged from a fresh save of the same outcomes"


@pytest.mark.skipif(os.environ.get("REPRO_TEST_WORKERS") is not None,
                    reason="starts two interpreters: once per suite is "
                           "enough; skip in the CI worker sweep")
def test_pool_results_do_not_depend_on_the_hash_seed(tmp_path):
    """Forked workers share the scheduler's hash seed, so the backend
    parity checks above never cross hash seeds within a run.  This one
    does it on purpose: the golden matrix on the 2-worker pool, in
    interpreters started with different ``PYTHONHASHSEED`` values,
    persists the golden records in both."""
    from repro.orchestrator.store import ResultStore

    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""\
        import sys
        from repro.orchestrator import run_matrix
        from tests.test_golden_determinism import (
            OVERRIDES, PRESETS, _golden_contracts)
        run = run_matrix(_golden_contracts(), presets=PRESETS, trials=1,
                         overrides=dict(OVERRIDES), workers=2,
                         backend="pool", results_dir=sys.argv[1])
        sys.exit(1 if run.errors or run.timeouts else 0)
        """)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    for seed in ("0", "4242"):
        results = tmp_path / seed
        proc = subprocess.run(
            [sys.executable, "-c", script, str(results)], cwd=root,
            env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        stored = {job_id: json.loads(text)["result"] for job_id, text
                  in ResultStore(results).canonical_records().items()}
        assert canonical_json(stored) == GOLDEN_PATH.read_text(), \
            f"the pool diverged from the golden fixture at " \
            f"PYTHONHASHSEED={seed}"


@pytest.mark.parametrize("execution", sorted(EXECUTIONS))
def test_interrupted_matrix_resumes_to_golden_fixture(execution, tmp_path):
    """Interrupt/resume determinism against the golden fixture, swept
    across every execution configuration.

    Every golden cell is interrupted at an arbitrary mid-campaign
    iteration: the campaign runs inline with a checkpoint sink that aborts
    after its second emission (the engine's crash model), and the captured
    checkpoint is persisted into the results directory exactly as a killed
    worker would have left it.  The full matrix then runs on
    ``execution`` — each worker must *resume* the half-finished campaigns
    from those checkpoints — and the settled results must still match the
    golden fixture byte for byte."""
    from repro.compiler.cache import compile_cached
    from repro.core.fuzzer import Fuzzer
    from repro.orchestrator.jobs import build_matrix
    from repro.orchestrator.store import ResultStore

    jobs = build_matrix(_golden_contracts(), PRESETS, trials=1,
                        overrides=dict(OVERRIDES))
    store = ResultStore(tmp_path / "results")

    class Interrupt(Exception):
        pass

    for job in jobs:
        captured = []

        def sink(checkpoint):
            captured.append(checkpoint)
            if len(captured) == 2:
                raise Interrupt

        fuzzer = Fuzzer(compile_cached(job.source, job.contract),
                        job.build_config(), job.supported_set())
        try:
            fuzzer.run(checkpoint_every=7, checkpoint_sink=sink)
        except Interrupt:
            pass
        assert captured, f"{job.job_id}: campaign emitted no checkpoint"
        store.save_checkpoint(job, captured[-1])

    assert store.checkpoint_ids() == {job.job_id for job in jobs}

    run = run_matrix(_golden_contracts(), presets=PRESETS, trials=1,
                     overrides=dict(OVERRIDES), workers=WORKERS,
                     results_dir=store.root, checkpoint_every=7,
                     **EXECUTIONS[execution])
    assert not run.errors and not run.timeouts, (execution, run.errors)
    assert not store.checkpoint_ids()  # consumed on completion
    record = {o.job.job_id: {**o.result.to_dict(), "wall_time": 0.0}
              for o in run.outcomes}
    assert canonical_json(record) == GOLDEN_PATH.read_text(), \
        (f"{execution} resumed-from-checkpoint results diverged from the "
         f"golden campaign fixture")


def _layer_run(layer: str, on: bool) -> str:
    """The golden matrix with only ``layer`` off, or with every perf layer
    on (either way overriding ``REPRO_DISABLE``)."""
    assert GOLDEN_PATH.exists(), \
        "golden fixture missing — see module docstring to regenerate"
    return _canonical_run(disable=() if on else (layer,))


@pytest.mark.parametrize("use_cache", [False, True],
                         ids=["cache-off", "cache-on"])
def test_state_cache_is_transparent_to_golden_fixture(use_cache):
    """One fixture, both cache modes: the prefix-snapshot tree must leave
    campaign results byte-identical whether prefixes are re-executed or
    fast-forwarded (this is the guard behind the cache being on by
    default)."""
    assert _layer_run("state_cache", use_cache) == GOLDEN_PATH.read_text(), \
        (f"state cache on={use_cache} diverged from the golden fixture — "
         f"the state cache is supposed to be a pure performance layer")


@pytest.mark.parametrize("use_pruning", [False, True],
                         ids=["pruning-off", "pruning-on"])
def test_surface_pruning_is_transparent_to_golden_fixture(use_pruning):
    """One fixture, both pruning modes: oracles dropped on the surface's
    opcode-absence proofs could never have fired, so campaign results must
    stay byte-identical with pruning on or off (the guard behind pruning
    being on by default)."""
    assert _layer_run("surface_pruning", use_pruning) == \
        GOLDEN_PATH.read_text(), \
        (f"surface pruning on={use_pruning} diverged from the golden "
         f"fixture — pruned oracles must be provably-dead, never merely "
         f"unlikely")


@pytest.mark.parametrize("use_fusion", [False, True],
                         ids=["fusion-off", "fusion-on"])
def test_block_fusion_is_transparent_to_golden_fixture(use_fusion):
    """One fixture, both execution tiers: block-fused superinstruction
    closures must leave campaign results byte-identical to the per-opcode
    table loop (the guard behind fusion being on by default)."""
    assert _layer_run("block_fusion", use_fusion) == \
        GOLDEN_PATH.read_text(), \
        (f"block fusion on={use_fusion} diverged from the golden fixture "
         f"— fused blocks must replay the table loop's exact semantics")


def test_golden_findings_replay_from_witnesses():
    """Every finding in the golden fixture re-triggers when its stored
    witness sequence is re-executed in a fresh campaign environment (the
    witness/replay half of the streaming-oracle-bus guarantee)."""
    from repro.core.replay import replay_findings
    from repro.oracles.base import Finding
    from repro.orchestrator.jobs import build_matrix

    data = json.loads(GOLDEN_PATH.read_text())
    jobs = {job.job_id: job
            for job in build_matrix(_golden_contracts(), PRESETS, trials=1,
                                    overrides=dict(OVERRIDES))}
    replayed = 0
    for job_id, cell in data.items():
        findings = [Finding.from_dict(f) for f in cell["findings"]]
        if not findings:
            continue
        job = jobs[job_id]
        outcomes = replay_findings(job.source, job.build_config(),
                                   findings, contract=job.contract,
                                   supported=job.supported_set())
        bad = [(o.finding.bug_class.value, o.finding.pc, o.status)
               for o in outcomes if not o.ok]
        assert not bad, f"{job_id}: witnesses failed to re-trigger: {bad}"
        replayed += len(outcomes)
    assert replayed, "golden fixture contains no findings to replay"


if __name__ == "__main__":
    if os.environ.get("REPRO_REGEN_GOLDEN") != "1":
        raise SystemExit("set REPRO_REGEN_GOLDEN=1 to rewrite the fixture")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    text = _canonical_run("inline")
    GOLDEN_PATH.write_text(text)
    print(f"wrote {GOLDEN_PATH} ({len(text)} bytes, "
          f"{len(json.loads(text))} cells)")
