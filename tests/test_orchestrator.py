"""The campaign orchestrator: jobs, backends, store, determinism."""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from repro import layers
from repro.core.campaign import CampaignResult
from repro.oracles.base import BugClass, Finding
from repro.orchestrator import (
    BACKENDS,
    CampaignJob,
    ResultStore,
    backend_for,
    build_matrix,
    create_backend,
    execute_job,
    merge_trials,
    run_jobs,
    run_matrix,
    summarize,
)
from repro.orchestrator.backends import PoolBackend, pool
from repro.orchestrator.backends.pool import BOOT_DEATH_ERROR, AffinityQueue
from repro.telemetry import log as tlog
from tests.conftest import CROWDSALE_SOURCE, GAME_SOURCE

BROKEN_SOURCE = "contract Broken { function f( public"

#: tiny budget: orchestration behaviour, not fuzzing quality, is under test
FAST = {"iterations": 15}

#: parallel worker count for the backend-parity tests; CI sweeps 1/2/4
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def _job(**kw) -> CampaignJob:
    base = dict(name="Crowdsale", source=CROWDSALE_SOURCE,
                preset="mufuzz", overrides=dict(FAST))
    base.update(kw)
    return CampaignJob(**base)


class TestJobModel:
    def test_trial_seeds_are_distinct_and_stable(self):
        seeds = [_job(trial=t).derived_seed() for t in range(10)]
        assert len(set(seeds)) == 10
        assert seeds == [_job(trial=t).derived_seed() for t in range(10)]

    def test_seed_varies_along_every_matrix_axis(self):
        base = _job().derived_seed()
        assert _job(preset="sfuzz").derived_seed() != base
        assert _job(name="Other").derived_seed() != base
        assert _job(base_seed=2).derived_seed() != base

    def test_explicit_rng_seed_bypasses_derivation(self):
        job = _job(overrides={"rng_seed": 17})
        assert job.derived_seed() == 17
        assert job.build_config().rng_seed == 17

    def test_config_comes_from_preset_registry(self):
        config = _job(overrides={"iterations": 33}).build_config()
        assert config.name == "MuFuzz"
        assert config.iterations == 33
        with pytest.raises(ValueError):
            _job(preset="nonesuch").build_config()

    def test_job_id_is_filesystem_safe(self):
        job_id = _job(name="weird name/../x").job_id
        assert "/" not in job_id and " " not in job_id

    def test_fingerprint_tracks_content(self):
        assert _job().fingerprint() == _job().fingerprint()
        assert _job().fingerprint() != _job(source=GAME_SOURCE).fingerprint()
        assert _job().fingerprint() != \
            _job(overrides={"iterations": 16}).fingerprint()

    def test_supported_classes_round_trip(self):
        job = _job(supported_bug_classes=["RE", "IO"])
        assert job.supported_set() == {BugClass.RE, BugClass.IO}
        assert CampaignJob.from_dict(job.to_dict()) == job

    def test_build_matrix_shape_and_uniqueness(self):
        jobs = build_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)],
            presets=("mufuzz", "sfuzz"), trials=2)
        assert len(jobs) == 8
        assert len({job.job_id for job in jobs}) == 8

    def test_build_matrix_rejects_duplicate_contract_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_matrix([("A", CROWDSALE_SOURCE), ("A", GAME_SOURCE)],
                         presets=("mufuzz",))


class TestExecuteJob:
    def test_ok_outcome_carries_result(self):
        outcome = execute_job(_job())
        assert outcome.ok and outcome.status == "ok"
        assert isinstance(outcome.result, CampaignResult)
        assert outcome.result.iterations > 0

    def test_compile_error_is_captured_not_raised(self):
        outcome = execute_job(_job(name="Broken", source=BROKEN_SOURCE))
        assert outcome.status == "error"
        assert outcome.result is None
        assert outcome.error  # traceback text


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        job = _job()
        outcome = execute_job(job)
        store = ResultStore(tmp_path)
        assert store.save(outcome) is not None
        loaded = store.load(job)
        assert loaded is not None and loaded.ok
        # wall-clock time is normalized out of the canonical artifact
        expected = CampaignResult.from_dict(
            {**outcome.result.to_dict(), "wall_time": 0.0})
        assert loaded.result == expected

    def test_stale_fingerprint_is_not_reused(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(execute_job(_job()))
        edited = _job(source=CROWDSALE_SOURCE + "\n// edited\n")
        assert store.path_for(edited) == store.path_for(_job())
        assert store.load(edited) is None
        assert store.stats_dict()["records_unreadable"] == 0  # a plain miss

    def test_failures_are_not_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        outcome = execute_job(_job(name="Broken", source=BROKEN_SOURCE))
        assert store.save(outcome) is None
        assert store.completed_ids() == set()

    def test_persisted_bytes_are_reproducible(self, tmp_path):
        job = _job()
        store = ResultStore(tmp_path)
        store.save(execute_job(job))
        first = store.canonical_records()[job.job_id]
        store.save(execute_job(job))
        assert store.canonical_records()[job.job_id] == first


class TestRunMatrix:
    def test_resume_skips_completed_jobs(self, tmp_path):
        contracts = [("Crowdsale", CROWDSALE_SOURCE)]
        kw = dict(presets=("mufuzz", "sfuzz"), trials=2, overrides=FAST,
                  workers=1, results_dir=tmp_path)
        first = run_matrix(contracts, **kw)
        assert first.executed == 4 and first.cached == 0
        second = run_matrix(contracts, **kw)
        assert second.executed == 0 and second.cached == 4
        assert [(o.job.job_id, o.result) for o in second.outcomes] == \
            [(o.job.job_id,
              CampaignResult.from_dict(
                  {**o.result.to_dict(), "wall_time": 0.0}))
             for o in first.outcomes]

    def test_unreadable_record_is_counted_logged_and_rerun(
            self, tmp_path, capsys):
        """A record that exists but no longer parses (a truncated file)
        reruns its cell: counted in the store stats, logged once with the
        job's id, and replaced by the record a fresh run writes.  Missing
        records stay silent."""
        tlog.configure(logging.INFO)
        contracts = [("Crowdsale", CROWDSALE_SOURCE)]
        kw = dict(presets=("mufuzz",), trials=2, overrides=FAST, workers=1,
                  results_dir=tmp_path)
        first = run_matrix(contracts, **kw)
        assert first.stats.store["records_unreadable"] == 0
        assert "unreadable" not in capsys.readouterr().err
        with ResultStore(tmp_path) as store:
            fresh = store.canonical_records()
        victim = sorted(fresh)[0]
        text = fresh[victim]
        (tmp_path / f"{victim}.json").write_text(text[:len(text) // 2])

        rerun = run_matrix(contracts, **kw)
        assert (rerun.cached, rerun.executed) == (1, 1)
        assert rerun.stats.store["records_unreadable"] == 1
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "unreadable" in line]
        assert len(warnings) == 1 and f"job={victim}" in warnings[0]
        with ResultStore(tmp_path) as store:
            assert store.canonical_records() == fresh

    def test_leftover_sqlite_store_is_refused(self, tmp_path):
        """A results dir holding an earlier version's SQLite
        ``results.db`` stops the matrix before any cell runs, rather than
        rerunning every cell into JSON files beside the database."""
        (tmp_path / "results.db").write_bytes(b"")
        with pytest.raises(ValueError, match="results.db"):
            run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                       presets=("mufuzz",), overrides=FAST, workers=1,
                       results_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["results.db"]

    def test_budget_specs_fold_into_every_job(self):
        """run_matrix's budget parameters reach each campaign's config
        and govern it through the engine's single Budget authority."""
        run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                         presets=("mufuzz",),
                         overrides={"iterations": None, "rng_seed": 5},
                         tx_budget=120, workers=1)
        (result,) = (o.result for o in run.outcomes)
        assert result.transactions >= 120

    def test_budget_spec_conflicts_with_override(self):
        with pytest.raises(ValueError, match="tx_budget"):
            run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                       presets=("mufuzz",),
                       overrides={"iterations": None, "tx_budget": 5},
                       tx_budget=120, workers=1)

    def test_one_broken_contract_does_not_kill_the_matrix(self):
        run = run_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Broken", BROKEN_SOURCE)],
            presets=("mufuzz",), overrides=FAST, workers=1)
        assert len(run.errors) == 1
        assert run.errors[0].job.name == "Broken"
        assert [job.name for job, _ in run.ok_results()] == ["Crowdsale"]

    def test_summaries_aggregate_trials(self):
        run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                         presets=("mufuzz",), trials=3, overrides=FAST,
                         workers=1)
        (summary,) = summarize(run.outcomes)
        assert summary.trials == 3
        results = run.results_for("mufuzz")["Crowdsale"]
        assert summary.mean_coverage == pytest.approx(
            sum(r.coverage for r in results) / 3)
        assert summary.best_coverage == max(r.coverage for r in results)


class TestBackends:
    """The pluggable execution backends: registry and auto-selection,
    the determinism guard, compile-cache amortization, worker recycling,
    and timeout kill-and-respawn."""

    def test_registry_and_auto_selection(self):
        assert set(BACKENDS) == {"inline", "pool"}
        assert backend_for(workers=1, job_timeout=None) == "inline"
        assert backend_for(workers=4, job_timeout=None) == "pool"
        assert backend_for(workers=1, job_timeout=5.0) == "pool"
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("nonesuch")

    def test_inline_rejects_job_timeout(self):
        with pytest.raises(ValueError, match="inline"):
            create_backend("inline", job_timeout=1.0)

    def test_invalid_recycle_after_rejected(self):
        with pytest.raises(ValueError, match="recycle_after"):
            create_backend("pool", recycle_after=-5)
        with pytest.raises(ValueError, match="recycle_after"):
            create_backend("pool", recycle_after=0.5)  # would truncate to 0
        with pytest.raises(ValueError, match="recycle_after"):
            create_backend("pool", recycle_after=2.5)  # silent truncation
        # 0 and None both mean "never recycle"
        assert create_backend("pool", recycle_after=0).recycle_after is None
        assert create_backend("pool").recycle_after is None

    def test_rejected_option_writes_no_results_dir(self, tmp_path):
        """The backend is built before the store opens, so an option it
        rejects leaves nothing on disk."""
        results_dir = tmp_path / "results"
        for bad in ({"checkpoint_every": 0},
                    {"backend": "inline", "job_timeout": 5.0},
                    {"recycle_after": -1}):
            with pytest.raises(ValueError):
                run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                           presets=("mufuzz",), overrides=FAST,
                           results_dir=results_dir, **bad)
            assert not results_dir.exists(), bad

    def test_all_backends_byte_identical(self, tmp_path):
        """The determinism guard: every backend must persist exactly the
        same bytes for the same matrix, at any worker count (CI sweeps
        ``REPRO_TEST_WORKERS`` over 1, 2, and 4)."""
        contracts = [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
        kw = dict(presets=("mufuzz", "sfuzz"), trials=2, overrides=FAST)
        persisted = {}
        for backend in sorted(BACKENDS):
            results_dir = tmp_path / backend
            run = run_matrix(contracts, backend=backend, workers=WORKERS,
                             results_dir=results_dir, **kw)
            assert not run.errors and not run.timeouts, backend
            assert run.backend == backend
            assert run.executed == 8
            persisted[backend] = ResultStore(results_dir) \
                .canonical_records()
        assert len(persisted["inline"]) == 8
        assert persisted["inline"] == persisted["pool"]

    @pytest.mark.skipif(os.environ.get("REPRO_TEST_WORKERS") is not None,
                        reason="wall-clock comparison: once per suite is "
                               "enough; skip in the CI worker sweep")
    def test_pool_amortizes_compilation_and_beats_fresh_workers(self):
        """20 cells over 2 contracts: contract-affinity dispatch compiles
        each contract once per matrix, plus once when the worker that
        runs out of its own contract's jobs steals one of the other's
        (misses <= contracts + 1), and skipping a fork and a cold compile
        and set-up per job makes the warm pool measurably faster than a
        fresh fork per job (``recycle_after=1``) at the same worker
        count."""
        contracts = [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
        kw = dict(presets=("mufuzz", "sfuzz"), trials=5, overrides=FAST,
                  workers=2, backend="pool")
        warm = run_matrix(contracts, **kw)
        fresh = run_matrix(contracts, recycle_after=1, **kw)
        assert not warm.errors and not fresh.errors
        assert warm.executed == fresh.executed == 20
        assert warm.stats.compile_cache_hits >= 20 - 3
        assert warm.stats.compile_cache_misses <= 3
        assert fresh.stats.compile_cache_hits == 0  # always-cold caches
        assert warm.elapsed < fresh.elapsed, \
            f"warm {warm.elapsed:.2f}s vs fresh {fresh.elapsed:.2f}s"

    def test_freed_worker_holds_its_next_job_before_the_save(
            self, tmp_path, monkeypatch):
        """A result's worker is handed its next job before settlement
        saves the record, so it never waits on the parent's encode and
        fsync: while jobs remain, every save finds both workers holding
        one (dispatched >= saved + 2)."""
        events = []
        job_payload, save = PoolBackend.job_payload, ResultStore.save

        def logged_payload(backend, job):
            events.append("dispatch")
            return job_payload(backend, job)

        def logged_save(store, outcome):
            events.append("save")
            return save(store, outcome)

        monkeypatch.setattr(PoolBackend, "job_payload", logged_payload)
        monkeypatch.setattr(ResultStore, "save", logged_save)
        contracts = [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
        run = run_matrix(contracts, presets=("mufuzz", "sfuzz"), trials=2,
                         overrides=FAST, workers=2, backend="pool",
                         results_dir=tmp_path)
        assert not run.errors and run.executed == 8
        assert events.count("dispatch") == events.count("save") == 8
        dispatched = saved = 0
        for event in events:
            if event == "dispatch":
                dispatched += 1
                continue
            saved += 1
            assert dispatched >= min(8, saved + 2), events

    def test_pool_recycles_workers_after_quota(self):
        jobs = build_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                            presets=("mufuzz",), trials=6, overrides=FAST)
        engine = create_backend("pool", workers=1, recycle_after=2)
        outcomes = engine.run(jobs)
        assert all(o.ok for o in outcomes)
        assert engine.stats["workers_recycled"] == 2
        # every fresh incarnation recompiles once: recycling trades cache
        # warmth for bounded per-process memory
        assert engine.stats["compile_cache_misses"] == 3
        assert engine.stats["compile_cache_hits"] == 3

    def test_recycled_workers_contract_passes_to_its_replacement(
            self, monkeypatch):
        """A recycled worker's contracts count as run by no one, so its
        fresh replacement resumes the oldest pending contract instead of
        treating it as another live worker's: with one worker, jobs are
        handed out in job order across every incarnation."""
        handed = []
        job_payload = PoolBackend.job_payload

        def logged_payload(backend, job):
            handed.append(job.job_id)
            return job_payload(backend, job)

        monkeypatch.setattr(PoolBackend, "job_payload", logged_payload)
        jobs = build_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)],
            presets=("mufuzz",), trials=3, overrides=FAST)
        engine = create_backend("pool", workers=1, recycle_after=2)
        assert all(o.ok for o in engine.run(jobs))
        assert engine.stats["workers_recycled"] == 2
        assert handed == [job.job_id for job in jobs]

    def test_pool_timeout_kills_worker_and_queue_continues(self):
        hang = _job(name="Hang", overrides={"iterations": 50_000_000})
        fast = [_job(trial=t) for t in range(4)]
        engine = create_backend("pool", workers=2, job_timeout=2.0)
        outcomes = engine.run([hang] + fast)
        by_id = {o.job.job_id: o for o in outcomes}
        assert by_id["Hang__mufuzz__t000"].status == "timeout"
        assert "timeout" in by_id["Hang__mufuzz__t000"].error
        assert all(o.ok for job_id, o in by_id.items()
                   if job_id != "Hang__mufuzz__t000")
        assert engine.stats["workers_killed"] == 1

    def test_fresh_worker_timeout_and_error_parity(self):
        """A fresh worker process per job (``recycle_after=1``, the
        strongest isolation on offer) keeps every pool guarantee: timeout
        kill, captured per-job errors, and unaffected neighbours."""
        hang = _job(name="Hang", overrides={"iterations": 50_000_000})
        broken = _job(name="Broken", source=BROKEN_SOURCE)
        engine = create_backend("pool", workers=2, job_timeout=2.0,
                                recycle_after=1)
        outcomes = engine.run([hang, broken, _job()])
        by_name = {o.job.name: o for o in outcomes}
        assert by_name["Hang"].status == "timeout"
        assert "timeout" in by_name["Hang"].error
        assert by_name["Broken"].status == "error"
        assert "Traceback" in by_name["Broken"].error
        assert by_name["Crowdsale"].ok
        assert engine.stats["workers_killed"] == 1

    def test_pool_isolates_a_broken_job(self):
        jobs = build_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Broken", BROKEN_SOURCE)],
            presets=("mufuzz",), trials=2, overrides=FAST)
        outcomes = run_jobs(jobs, workers=2, backend="pool")
        by_name: dict = {}
        for outcome in outcomes:
            by_name.setdefault(outcome.job.name, []).append(outcome)
        assert all(o.ok for o in by_name["Crowdsale"])
        assert all(o.status == "error" for o in by_name["Broken"])
        assert "Traceback" in by_name["Broken"][0].error


class TestPerfLayerSwitch:
    """One switch for the perf layers: parsed in one place, carried to
    every worker beside the jobs, and absent from every record."""

    def test_layer_specs(self):
        assert layers.parse(None) == frozenset()
        assert layers.parse("") == frozenset()
        assert layers.parse("all") == set(layers.PERF_LAYERS)
        assert layers.parse("State_Cache, block_fusion") == \
            {"state_cache", "block_fusion"}
        assert layers.parse(["surface_pruning"]) == {"surface_pruning"}
        with pytest.raises(ValueError, match="warp_drive"):
            layers.parse("state_cache,warp_drive")

    def test_disabled_layers_reach_pool_workers(self):
        kw = dict(presets=("mufuzz",), overrides=FAST, workers=2,
                  backend="pool", telemetry=True)

        def fused_steps(disable) -> int:
            run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                             disable=disable, **kw)
            assert all(o.ok for o in run.outcomes)
            return run.stats.telemetry["counters"].get(
                "fusion.fused_steps", 0)

        assert fused_steps(()) > 0
        assert fused_steps("block_fusion") == 0

    def test_disabled_layers_leave_records_unchanged(self, tmp_path):
        """Layer keywords and ``disable`` are one switch, and it is no
        part of a job: the records (config and fingerprint included) are
        byte-identical with every layer off, so either run is a valid
        cache for the other."""
        contracts = [("Crowdsale", CROWDSALE_SOURCE)]
        kw = dict(presets=("mufuzz", "sfuzz"), overrides=FAST, workers=1)
        run_matrix(contracts, results_dir=tmp_path / "on", disable=(), **kw)
        run_matrix(contracts, results_dir=tmp_path / "off",
                   state_cache=False, surface_pruning=False,
                   block_fusion=False, **kw)
        on = ResultStore(tmp_path / "on").canonical_records()
        assert len(on) == 2
        assert ResultStore(tmp_path / "off").canonical_records() == on
        rerun = run_matrix(contracts, results_dir=tmp_path / "on",
                           disable="all", **kw)
        assert rerun.cached == 2 and rerun.executed == 0

    def test_configs_stored_with_retired_layer_fields_still_load(self):
        """Records and checkpoints written while the layers were config
        fields carry ``use_*`` keys; replay and resume must still read
        them."""
        from dataclasses import asdict
        from repro.core.config import config_from_dict, mufuzz_config
        stored = {**asdict(mufuzz_config(rng_seed=4)),
                  "use_state_cache": False, "use_surface_pruning": True,
                  "use_block_fusion": True}
        assert config_from_dict(stored) == mufuzz_config(rng_seed=4)


class TestAffinityQueue:
    """The pool's dispatch rule, without processes: a free worker takes
    the oldest pending job of a contract it has run, else of a contract
    no live worker has run, else it steals the oldest pending job."""

    @staticmethod
    def _jobs(*names) -> list:
        """One job per name; the letter is the contract (its source), so
        ``"A1"`` is contract A's job 1."""
        return [_job(name=name, source=f"contract {name[0]} {{}}")
                for name in names]

    @staticmethod
    def _picks(queue, *workers) -> list:
        return [queue.pick(worker).name for worker in workers]

    def test_own_contract_then_oldest_unowned_then_steal(self):
        queue = AffinityQueue(self._jobs("A0", "A1", "A2", "B0", "B1", "C0"))
        assert self._picks(queue, 0, 1) == ["A0", "B0"]
        assert self._picks(queue, 0, 0) == ["A1", "A2"]
        # A is done and B is worker 1's: C is the one nobody has run
        assert self._picks(queue, 0) == ["C0"]
        # nothing of its own or unowned is left: steal the oldest job
        assert self._picks(queue, 0) == ["B1"]
        assert len(queue) == 0

    def test_job_order_is_kept_within_a_contract(self):
        queue = AffinityQueue(self._jobs("A0", "B0", "A1", "B1", "A2", "B2"))
        assert self._picks(queue, 0, 1, 1, 0) == ["A0", "B0", "B1", "A1"]
        assert len(queue) == 2
        assert [job.name for job in queue.take_all()] == ["A2", "B2"]
        assert len(queue) == 0

    def test_a_retired_workers_contracts_become_unowned(self):
        jobs = self._jobs("A0", "A1", "B0", "C0")
        kept, retired = AffinityQueue(jobs), AffinityQueue(jobs)
        for queue in (kept, retired):
            assert self._picks(queue, 0, 1) == ["A0", "B0"]
        retired.retire(0)
        # A is older than C: a newcomer takes it once its runner left
        assert self._picks(kept, 2) == ["C0"]
        assert self._picks(retired, 2) == ["A1"]


class TestParallelExecution:
    """The worker-pool path: workers forked from the scheduler, crash
    capture, timeouts, and the determinism guard — parallel runs must
    persist byte-identical results to a serial run of the same matrix."""

    def test_parallel_run_matches_serial_byte_for_byte(self, tmp_path):
        contracts = [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
        kw = dict(presets=("mufuzz", "sfuzz"), trials=1, overrides=FAST)
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial = run_matrix(contracts, workers=1, results_dir=serial_dir,
                            **kw)
        parallel = run_matrix(contracts, workers=2,
                              results_dir=parallel_dir, **kw)
        assert not serial.errors and not parallel.errors
        serial_records = ResultStore(serial_dir).canonical_records()
        parallel_records = ResultStore(parallel_dir).canonical_records()
        assert sorted(serial_records) == sorted(parallel_records)
        assert len(serial_records) == 4
        for job_id, text in serial_records.items():
            assert parallel_records[job_id] == text, job_id

    def test_worker_error_is_captured_and_others_finish(self):
        jobs = build_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Broken", BROKEN_SOURCE)],
            presets=("mufuzz",), overrides=FAST)
        outcomes = run_jobs(jobs, workers=2)
        by_name = {o.job.name: o for o in outcomes}
        assert by_name["Crowdsale"].ok
        assert by_name["Broken"].status == "error"
        assert "Traceback" in by_name["Broken"].error

    def test_job_timeout_terminates_the_worker(self):
        job = _job(overrides={"iterations": 50_000_000})
        (outcome,) = run_jobs([job], workers=2, job_timeout=1.0)
        assert outcome.status == "timeout"
        assert outcome.result is None
        assert "timeout" in outcome.error

    def test_workers_dying_at_boot_stop_being_respawned(self, monkeypatch):
        """Workers that die before finishing a job (here each forked child
        exits at once) are replaced only until three in a row have died;
        then the pool starts no more and fails the pending cells with the
        breaker's message."""
        monkeypatch.setattr(pool, "_pool_worker_main",
                            lambda *args: os._exit(3))
        run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                         presets=("mufuzz", "sfuzz"), trials=4,
                         overrides=FAST, workers=2, backend="pool")
        errors = [o.error for o in run.outcomes]
        assert len(errors) == 8
        assert all(o.status == "error" for o in run.outcomes)
        died = [e for e in errors if "died with exit code 3" in e]
        tripped = [e for e in errors if e == BOOT_DEATH_ERROR]
        assert len(died) <= 4, errors
        assert len(died) + len(tripped) == 8, errors

    def test_unguarded_script_runs_its_matrix(self, tmp_path):
        """A forked worker never re-imports the main module, so a script
        that runs a matrix without a ``__main__`` guard simply works."""
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent(f"""\
            from repro.orchestrator import run_matrix
            run = run_matrix([("Crowdsale", {CROWDSALE_SOURCE!r})],
                             presets=("mufuzz", "sfuzz"), trials=4,
                             overrides={FAST!r}, workers=2,
                             backend="pool")
            for outcome in run.outcomes:
                print("outcome:", outcome.status)
            """))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outcomes = [line for line in proc.stdout.splitlines()
                    if line.startswith("outcome:")]
        assert outcomes == ["outcome: ok"] * 8, proc.stdout[-2000:]

    def test_every_fork_is_single_threaded(self, monkeypatch):
        """A fork copies only the calling thread, so the scheduler must
        hold no other thread at any fork (a dispatch ``Queue`` would
        start a feeder thread at its first ``put``).  Every job here
        runs in a fresh fork, one of them after a timeout kill."""
        threads = []
        real_fork = os.fork

        def fork():
            threads.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        hang = _job(name="Hang", overrides={"iterations": 50_000_000})
        jobs = [hang] + [_job(trial=t) for t in range(5)]
        engine = create_backend("pool", workers=2, job_timeout=1.0,
                                recycle_after=1)
        outcomes = engine.run(jobs)
        assert [o.status for o in outcomes] == ["timeout"] + ["ok"] * 5
        assert engine.stats["workers_killed"] == 1
        assert len(threads) >= len(jobs), threads
        assert threads == [1] * len(threads), threads

    def test_forked_worker_starts_with_cold_caches(self):
        """A worker clears the caches it inherits: a contract the
        scheduler process has already compiled and run is still a
        compile-cache miss and an analysis-record miss in the worker."""
        job = _job()
        assert execute_job(job).ok  # warms this process's caches
        engine = create_backend("pool", workers=2, telemetry=True)
        (outcome,) = engine.run([job])
        assert outcome.ok
        assert engine.stats["compile_cache_misses"] == 1
        assert engine.stats["compile_cache_hits"] == 0
        counters = engine.telemetry_totals["counters"]
        assert counters.get("evm.analysis_cache.misses", 0) >= 1, counters


class TestMergeTrials:
    def _result(self, coverage, findings=()):
        return CampaignResult(
            fuzzer="MuFuzz", contract="C", coverage=coverage,
            iterations=10, total_steps=100, wall_time=0.1,
            findings=list(findings), curve=[(50, coverage)])

    def test_merges_mean_coverage_and_unions_findings(self):
        reentrancy = Finding(bug_class=BugClass.RE, contract="C", pc=4,
                             line=2, description="re")
        overflow = Finding(bug_class=BugClass.IO, contract="C", pc=9,
                           line=3, description="io")
        merged = merge_trials([
            self._result(0.4, [reentrancy]),
            self._result(0.8, [reentrancy, overflow]),
        ])
        assert merged.coverage == pytest.approx(0.6)
        assert merged.bug_classes == {BugClass.RE, BugClass.IO}
        assert len(merged.findings) == 2  # deduplicated union
        assert merged.iterations == 20

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_trials([])
