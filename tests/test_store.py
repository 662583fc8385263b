"""The result store: round trips, the findings projection, and durability.

Covers save/load/resume of canonical per-file records, the findings
projection ``repro report`` reads, atomic writes (appended temp names, no
temporary left behind by a failed write, stale temp-file sweeping),
concurrent multi-process writers (no lost or torn records), the refusal
of a directory holding a leftover SQLite ``results.db``, and a hypothesis
round-trip of arbitrary records through save → canonical text → load.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignResult
from repro.engine.checkpoint import CampaignCheckpoint, canonical_json
from repro.oracles.base import SEVERITIES, BugClass, Finding
from repro.orchestrator import CampaignJob
from repro.orchestrator.jobs import JobOutcome
from repro.orchestrator.store import (
    ResultStore,
    atomic_write_text,
    build_record,
    finding_fingerprint,
)

#: a source that is never compiled here — store tests exercise
#: persistence, not fuzzing, so records are synthesized
SOURCE = "contract C { function f() public { } }"


def _job(name: str = "C", preset: str = "mufuzz",
         trial: int = 0, **kw) -> CampaignJob:
    base = dict(name=name, source=SOURCE, preset=preset, trial=trial,
                overrides={"iterations": 5})
    base.update(kw)
    return CampaignJob(**base)


def _finding(contract: str = "C", bug_class: BugClass = BugClass.RE,
             pc: int = 7, severity: str = "high") -> Finding:
    return Finding(bug_class=bug_class, contract=contract, pc=pc,
                   line=3, description=f"{bug_class.value} at {pc}",
                   severity=severity, confidence=0.9,
                   witness=({"fn": "f", "args": [], "value": 0,
                             "sender": 1},))


def _outcome(job: CampaignJob, findings=(), telemetry=None,
             coverage: float = 0.5) -> JobOutcome:
    result = CampaignResult(
        fuzzer="MuFuzz", contract=job.name, coverage=coverage,
        iterations=10, total_steps=400, wall_time=1.25,
        findings=list(findings), curve=[(100, 0.25), (400, coverage)],
        seeds_in_queue=3, transactions=20)
    return JobOutcome(job=job, status="ok", result=result,
                      telemetry=telemetry)


def _checkpoint(contract: str = "C") -> CampaignCheckpoint:
    return CampaignCheckpoint(
        config={"iterations": 5}, rng_state=(3, tuple(range(6)), None),
        budget={"iterations_used": 2}, queue=[], coverage={},
        selector={}, masked={}, scheduler={}, collector={},
        oracle_state={}, loop={}, fuzzer="MuFuzz", contract=contract)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results")


class TestRoundTrip:
    def test_save_load_round_trip(self, store):
        job = _job()
        outcome = _outcome(job, findings=[_finding()],
                           telemetry={"counters": {"x": 1}})
        assert store.save(outcome) is not None
        loaded = store.load(job)
        assert loaded is not None and loaded.ok
        expected = CampaignResult.from_dict(
            {**outcome.result.to_dict(), "wall_time": 0.0})
        assert loaded.result == expected
        assert loaded.telemetry == {"counters": {"x": 1}}

    def test_stale_fingerprint_not_reused(self, store):
        store.save(_outcome(_job()))
        edited = _job(source=SOURCE + "\n// edited\n")
        assert store.load(edited) is None
        assert store.load_fresh([edited]) == {}
        assert store.completed_ids() == {_job().job_id}

    def test_mangled_result_counts_as_unreadable(self, store):
        """A fresh record whose result no longer decodes is counted as
        unreadable (its cell reruns), not served as a cache hit."""
        job = _job()
        path = store.save(_outcome(job))
        record = json.loads(path.read_text())
        path.write_text(canonical_json({**record, "result": "corrupt"}))
        assert store.load(job) is None
        assert store.stats_dict()["records_unreadable"] == 1

    def test_load_fresh(self, store):
        jobs = [_job(trial=t) for t in range(3)]
        for job in jobs[:2]:
            store.save(_outcome(job))
        loaded = store.load_fresh(jobs)
        assert sorted(loaded) == sorted(j.job_id for j in jobs[:2])
        assert all(o.ok for o in loaded.values())

    def test_failures_not_persisted(self, store):
        failed = JobOutcome(job=_job(), status="error", error="boom")
        assert store.save(failed) is None
        assert store.completed_ids() == set()

    def test_delete_record_drops_everything(self, store):
        job = _job()
        store.save(_outcome(job, findings=[_finding()]))
        assert store.delete_record(job.job_id)
        assert store.completed_ids() == set()
        assert store.query_findings() == []
        assert not store.delete_record(job.job_id)  # already gone

    def test_checkpoint_round_trip_and_clear(self, store):
        job = _job()
        path = store.save_checkpoint(job, _checkpoint())
        # the worker-visible transport: a plain file next to the records
        assert path == store.root / f"{job.job_id}.checkpoint.json"
        assert store.load_checkpoint(job).contract == "C"
        assert store.checkpoint_ids() == {job.job_id}
        assert store.completed_ids() == set()  # not a result record
        store.clear_checkpoint(job)
        assert not path.exists()
        assert store.checkpoint_ids() == set()

    def test_record_for_returns_parsed_record(self, store):
        job = _job()
        store.save(_outcome(job))
        record = store.record_for(job.job_id)
        assert record["job_id"] == job.job_id
        assert record["schema"] == 2
        assert store.record_for("nonesuch") is None


class TestFindingsProjection:
    def _populate(self, store):
        specs = [("C", BugClass.RE, 7, "high", "mufuzz", 0),
                 ("C", BugClass.RE, 7, "high", "sfuzz", 0),
                 ("C", BugClass.IO, 21, "medium", "mufuzz", 1),
                 ("D", BugClass.TO, 33, "low", "mufuzz", 0)]
        by_job: dict = {}
        for contract, bug_class, pc, severity, preset, trial in specs:
            job = _job(name=contract, preset=preset, trial=trial)
            by_job.setdefault(job.job_id, (job, []))[1].append(
                _finding(contract=contract, bug_class=bug_class, pc=pc,
                         severity=severity))
        for job, findings in by_job.values():
            store.save(_outcome(job, findings=findings))

    def test_rows_carry_coordinates_and_fingerprint(self, store):
        self._populate(store)
        rows = store.query_findings()
        assert len(rows) == 4
        assert {row["preset"] for row in rows} == {"mufuzz", "sfuzz"}
        re_rows = [r for r in rows if r["bug_class"] == "RE"]
        # the same defect reported by two presets shares one fingerprint
        assert len({r["fingerprint"] for r in re_rows}) == 1
        assert re_rows[0]["fingerprint"] == \
            finding_fingerprint("RE", "C", 7)

    def test_filters(self, store):
        self._populate(store)
        assert len(store.query_findings(contract="C")) == 3
        assert len(store.query_findings(bug_class="RE")) == 2
        assert len(store.query_findings(bug_class=["RE", "IO"])) == 3
        assert len(store.query_findings(severity="low")) == 1
        assert len(store.query_findings(preset="sfuzz")) == 1
        assert store.query_findings(contract="C", severity="low") == []
        assert store.query_findings(bug_class=[]) == []

    def test_severities_cover_the_ladder(self, store):
        self._populate(store)
        assert {r["severity"] for r in store.query_findings()} == \
            set(SEVERITIES)


class TestAtomicWrites:
    def test_temp_name_appends_never_rewrites_suffix(self, tmp_path,
                                                     monkeypatch):
        """The checkpoint temp must be <name>.tmp appended to the full
        compound suffix — with_suffix('.tmp') would collapse
        'j.checkpoint.json' and 'j.telemetry.json' onto one temp path."""
        renames = []
        real_replace = os.replace

        def spy(src, dst):
            renames.append((os.path.basename(str(src)),
                            os.path.basename(str(dst))))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        atomic_write_text(tmp_path / "j.checkpoint.json", "{}\n")
        assert renames == [("j.checkpoint.json.tmp", "j.checkpoint.json")]

    def test_checkpoint_write_uses_appended_temp(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        path = store.save_checkpoint(job, _checkpoint())
        assert path.name == f"{job.job_id}.checkpoint.json"
        assert store.load_checkpoint(job) is not None
        # no stray temp, and no file with a mangled suffix
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("*.checkpoint"))

    def test_stale_temps_swept_on_open(self, tmp_path):
        root = tmp_path / "results"
        root.mkdir()
        stale = root / "dead.json.tmp"
        stale.write_text("{ torn")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = root / "live.json.tmp"
        fresh.write_text("{ in flight")
        store = ResultStore(root)
        assert not stale.exists()  # crashed writer's orphan: swept
        assert fresh.exists()      # a concurrent writer's: kept
        assert store.temps_swept == 1

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_write_leaves_no_temp(self, tmp_path, monkeypatch,
                                         failing):
        """A write that fails before its rename (a full disk at fsync, a
        failed rename) re-raises, removes its temporary at once rather
        than leaving it for a later open's sweep, and leaves the target
        with its previous content."""
        target = tmp_path / "j.json"
        target.write_text("old\n")

        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, failing, full_disk)
        with pytest.raises(OSError) as info:
            atomic_write_text(target, "new\n")
        assert info.value.errno == errno.ENOSPC
        assert not list(tmp_path.glob("*.tmp"))
        assert target.read_text() == "old\n"


_STRESS_WORKER = r"""
import sys
from repro.core.campaign import CampaignResult
from repro.orchestrator import CampaignJob
from repro.orchestrator.jobs import JobOutcome
from repro.orchestrator.store import ResultStore

root, worker, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = ResultStore(root)
for i in range(count):
    job = CampaignJob(name=f"W{worker}", preset="mufuzz", trial=i,
                      source="contract C { function f() public { } }",
                      overrides={"iterations": 5})
    result = CampaignResult(fuzzer="MuFuzz", contract=job.name,
                            coverage=0.5, iterations=10, total_steps=400,
                            wall_time=1.25, transactions=20)
    store.save(JobOutcome(job=job, status="ok", result=result))
"""


class TestConcurrentWriters:
    def test_parallel_processes_lose_nothing(self, tmp_path):
        """N processes hammer one store; every record must land intact
        (parseable, canonical, fingerprint-correct) — no lost writes, no
        torn records."""
        workers, per_worker = 4, 25
        root = tmp_path / "shared"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        procs = [subprocess.Popen(
            [sys.executable, "-c", _STRESS_WORKER, str(root), str(w),
             str(per_worker)], env=env)
            for w in range(workers)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        with ResultStore(root) as store:
            canonical = store.canonical_records()
            assert len(canonical) == workers * per_worker
            jobs = [_job(name=f"W{w}", trial=i)
                    for w in range(workers) for i in range(per_worker)]
            assert set(store.load_fresh(jobs)) == {j.job_id for j in jobs}
            for job in jobs:
                # byte-exact: the canonical text is exactly what a lone
                # writer would have produced — torn or interleaved
                # records cannot survive this comparison
                expected = canonical_json(build_record(
                    JobOutcome(job=job, status="ok",
                               result=CampaignResult(
                                   fuzzer="MuFuzz", contract=job.name,
                                   coverage=0.5, iterations=10,
                                   total_steps=400, wall_time=1.25,
                                   transactions=20))))
                assert canonical[job.job_id] == expected, job.job_id


_description = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=0, max_size=40)

_findings = st.lists(
    st.builds(
        Finding,
        bug_class=st.sampled_from(sorted(BugClass,
                                         key=lambda bc: bc.value)),
        contract=st.just("C"),
        pc=st.integers(min_value=0, max_value=10_000),
        line=st.integers(min_value=0, max_value=500),
        description=_description,
        severity=st.sampled_from(SEVERITIES),
        confidence=st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False, width=64),
    ),
    max_size=5, unique_by=lambda f: (f.bug_class, f.pc))


class TestHypothesisRoundTrip:
    @given(findings=_findings,
           coverage=st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False, width=64),
           telemetry=st.one_of(
               st.none(),
               st.dictionaries(st.text(max_size=8),
                               st.integers(min_value=0,
                                           max_value=2**40),
                               max_size=3)))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trips_to_canonical_json(self, tmp_path, findings,
                                           coverage, telemetry):
        """Any record saved comes back as the exact canonical JSON of its
        outcome, and loads back to an equal result (the directory is
        reused across examples: each save replaces the one record)."""
        job = _job()
        outcome = _outcome(job, findings=findings, telemetry=telemetry,
                           coverage=coverage)
        expected_text = canonical_json(build_record(outcome))
        with ResultStore(tmp_path / "results") as store:
            store.save(outcome)
            assert store.canonical_records() == {job.job_id: expected_text}
            loaded = store.load(job)
            assert loaded is not None
            assert loaded.result == CampaignResult.from_dict(
                {**outcome.result.to_dict(), "wall_time": 0.0})
            assert loaded.telemetry == telemetry
            assert len(store.query_findings(job_id=job.job_id)) == \
                len(findings)


class TestStoreStats:
    def test_stats_dict_counts_activity(self, store):
        job = _job()
        store.save(_outcome(job, findings=[_finding()]))
        store.load(job)
        assert store.stats_dict() == {
            "records_saved": 1, "records_loaded": 1, "temps_swept": 0,
            "records_unreadable": 0}


class TestLeftoverDatabase:
    def test_results_db_is_refused_untouched(self, tmp_path):
        """A directory holding a SQLite ``results.db`` (written by an
        earlier version) is refused with a way out, never read as an
        empty store and filled with JSON records beside the database."""
        (tmp_path / "results.db").write_bytes(b"")
        with pytest.raises(ValueError) as info:
            ResultStore(tmp_path)
        message = str(info.value)
        assert "results.db" in message
        assert "--results-dir" in message and "export()" in message
        assert [p.name for p in tmp_path.iterdir()] == ["results.db"]
