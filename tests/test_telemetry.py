"""Telemetry: metrics registry, spans, heartbeats, and the inertness
guarantee.

The load-bearing test here is the determinism guard: enabling telemetry
must change **nothing** about campaign results — not one byte, on any
execution backend.  Everything else (bucketing, merge algebra, heartbeat
plumbing) supports that guarantee or the live introspection built on it.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro import telemetry
from repro.engine.checkpoint import canonical_json
from repro.orchestrator import CampaignJob, create_backend, run_matrix
from repro.telemetry import log as tlog
from repro.telemetry import metrics
from repro.telemetry.metrics import (
    Registry,
    diff_snapshots,
    merge_snapshots,
)
from repro.telemetry.progress import (
    HEARTBEAT,
    ProgressSnapshot,
    TelemetrySession,
)
from tests.conftest import CROWDSALE_SOURCE

#: tiny budget: telemetry behaviour, not fuzzing quality, is under test
FAST = {"iterations": 15}


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with the registry disabled and clean."""
    metrics.disable()
    metrics.reset()
    yield
    HEARTBEAT.uninstall()
    metrics.disable()
    metrics.reset()


def _job(**kw) -> CampaignJob:
    base = dict(name="Crowdsale", source=CROWDSALE_SOURCE,
                preset="mufuzz", overrides=dict(FAST))
    base.update(kw)
    return CampaignJob(**base)


class TestRegistry:
    def test_disabled_instruments_record_nothing(self):
        reg = Registry()
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h", (1, 2))
        c.inc()
        c.add(5)
        g.set(9)
        h.observe(1)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 0
        assert snap["gauges"]["g"] == 0
        assert snap["histograms"]["h"]["count"] == 0

    def test_enable_disable_round_trip(self):
        reg = Registry()
        c = reg.counter("c")
        reg.enable()
        c.inc()
        c.add(2)
        reg.disable()
        c.add(100)  # swallowed: disabled again
        assert reg.snapshot()["counters"]["c"] == 3

    def test_instruments_are_idempotent_by_name(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z", (1,)) is reg.histogram("z", (1,))

    def test_snapshot_is_canonical_jsonable(self):
        reg = Registry()
        reg.enable()
        reg.counter("b").inc()
        reg.counter("a").inc()
        text = canonical_json(reg.snapshot())
        assert json.loads(text)["counters"] == {"a": 1, "b": 1}

    def test_module_registry_reset(self):
        metrics.enable()
        metrics.counter("test.reset").inc()
        metrics.reset()
        assert metrics.snapshot()["counters"]["test.reset"] == 0


class TestHistogramBucketing:
    def _hist(self, bounds):
        reg = Registry()
        reg.enable()
        return reg.histogram("h", bounds), reg

    def test_inclusive_upper_edges_and_overflow(self):
        h, reg = self._hist((1, 2, 4, 8))
        for value in (0, 1):        # <= 1 -> bucket 0
            h.observe(value)
        h.observe(2)                # == 2 -> bucket 1 (inclusive edge)
        h.observe(3)                # <= 4 -> bucket 2
        h.observe(4)
        h.observe(5)                # <= 8 -> bucket 3
        h.observe(9)                # > 8  -> overflow cell
        h.observe(10_000)
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["bounds"] == [1, 2, 4, 8]
        assert snap["counts"] == [2, 1, 2, 1, 2]
        assert snap["count"] == 8
        assert snap["total"] == 0 + 1 + 2 + 3 + 4 + 5 + 9 + 10_000

    def test_single_bucket(self):
        h, reg = self._hist((10,))
        h.observe(10)
        h.observe(11)
        assert reg.snapshot()["histograms"]["h"]["counts"] == [1, 1]


class TestSnapshotAlgebra:
    def _snap(self, c=0, g=0, counts=(0, 0), spans=0, span_s=0.0):
        return {
            "counters": {"c": c},
            "gauges": {"g": g},
            "histograms": {"h": {"bounds": [5], "counts": list(counts),
                                 "total": sum(counts), "count":
                                 sum(counts)}},
            "spans": {"s": {"count": spans, "total_s": span_s}},
        }

    def test_merge_adds_counters_and_histograms_maxes_gauges(self):
        merged = merge_snapshots(self._snap(c=2, g=7, counts=(1, 0),
                                            spans=3, span_s=0.5),
                                 self._snap(c=5, g=3, counts=(0, 2),
                                            spans=1, span_s=0.25))
        assert merged["counters"]["c"] == 7
        assert merged["gauges"]["g"] == 7  # max, not sum
        assert merged["histograms"]["h"]["counts"] == [1, 2]
        assert merged["spans"]["s"] == {"count": 4, "total_s": 0.75}

    def test_merge_is_associative_and_commutative(self):
        a = self._snap(c=1, g=4, counts=(1, 0), spans=1, span_s=0.1)
        b = self._snap(c=2, g=9, counts=(0, 3), spans=2, span_s=0.2)
        c = self._snap(c=4, g=2, counts=(5, 5), spans=4, span_s=0.4)
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert canonical_json(left) == canonical_json(right)
        assert canonical_json(merge_snapshots(a, b)) == \
            canonical_json(merge_snapshots(b, a))

    def test_merge_tolerates_disjoint_names(self):
        a = {"counters": {"x": 1}, "gauges": {}, "histograms": {},
             "spans": {}}
        b = {"counters": {"y": 2}, "gauges": {}, "histograms": {},
             "spans": {}}
        assert merge_snapshots(a, b)["counters"] == {"x": 1, "y": 2}

    def test_diff_inverts_merge(self):
        a = self._snap(c=3, g=5, counts=(2, 1), spans=2, span_s=0.3)
        b = self._snap(c=1, g=5, counts=(1, 0), spans=1, span_s=0.1)
        delta = diff_snapshots(merge_snapshots(a, b), b)
        assert delta["counters"]["c"] == 3
        assert delta["histograms"]["h"]["counts"] == [2, 1]
        assert delta["spans"]["s"]["count"] == 2


class TestSpans:
    def test_span_counts_only_when_enabled(self):
        from repro.telemetry.spans import span
        s = span("test.span_counts")
        with s:
            pass
        metrics.enable()
        with s:
            pass
        snap = metrics.snapshot()["spans"]["test.span_counts"]
        assert snap["count"] == 1
        assert snap["total_s"] >= 0.0

    def test_reentrant_span_times_outermost_only(self):
        from repro.telemetry.spans import span
        s = span("test.reentrant")
        metrics.enable()
        with s:
            with s:
                pass
        assert metrics.snapshot()["spans"]["test.reentrant"]["count"] == 1

    def test_stage_stack_tracks_innermost(self):
        from repro.telemetry.spans import current_stage, span
        outer = span("test.outer", stage=True)
        inner = span("test.inner", stage=True)
        metrics.enable()
        assert current_stage() is None
        with outer:
            assert current_stage() == "test.outer"
            with inner:
                assert current_stage() == "test.inner"
            assert current_stage() == "test.outer"
        assert current_stage() is None


class TestDeterminismGuard:
    """Telemetry must be provably inert: byte-identical campaign results
    with collection on or off, on every backend."""

    @pytest.mark.parametrize("backend", ["inline", "pool"])
    def test_results_byte_identical_with_telemetry(self, backend,
                                                   tmp_path):
        def result_bytes(telemetry: bool, subdir: str) -> str:
            run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                             presets=["mufuzz"], trials=2,
                             overrides=dict(FAST), workers=2,
                             backend=backend,
                             results_dir=tmp_path / subdir,
                             telemetry=telemetry, heartbeat_every=0.0)
            assert all(o.ok for o in run.outcomes)
            if telemetry:
                assert run.stats.telemetry is not None
                counters = run.stats.telemetry["counters"]
                assert counters["engine.executions"] > 0
                assert counters["evm.transactions"] > 0
            else:
                assert run.stats.telemetry is None
            return canonical_json(
                {o.job.job_id: {**o.result.to_dict(), "wall_time": 0.0}
                 for o in run.outcomes})

        off = result_bytes(False, "off")
        on = result_bytes(True, "on")
        assert on == off

    def test_inprocess_enable_does_not_change_results(self):
        from repro.core.fuzzer import fuzz_contract
        config = _job().build_config()

        baseline = fuzz_contract(CROWDSALE_SOURCE, config).to_dict()
        metrics.enable()
        with_telemetry = fuzz_contract(CROWDSALE_SOURCE, config).to_dict()
        metrics.disable()
        baseline["wall_time"] = with_telemetry["wall_time"] = 0.0
        assert canonical_json(baseline) == canonical_json(with_telemetry)

    def test_telemetry_kept_out_of_result_records(self, tmp_path):
        """The telemetry sidecar lives next to the result, never in it —
        and the record parses back to an identical CampaignResult."""
        run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                         presets=["mufuzz"], trials=1,
                         overrides=dict(FAST), workers=1,
                         backend="inline", results_dir=tmp_path,
                         telemetry=True)
        (outcome,) = run.outcomes
        from repro.orchestrator.store import ResultStore
        record = ResultStore(tmp_path).record_for(outcome.job.job_id)
        assert record is not None and "telemetry" in record
        assert "telemetry" not in record["result"]
        assert record["result"]["iterations"] >= FAST["iterations"]


class TestProgressSnapshots:
    def test_wire_round_trip_ignores_unknown_fields(self):
        snap = ProgressSnapshot(job_id="j", stage="engine.execution",
                                executions=7)
        wire = snap.to_wire()
        wire["from_the_future"] = True
        back = ProgressSnapshot.from_wire(wire)
        assert back.job_id == "j"
        assert back.executions == 7

    def test_session_restores_prior_state_and_yields_delta(self):
        assert not metrics.enabled()
        with TelemetrySession("job-1") as session:
            assert metrics.enabled()
            metrics.counter("test.session").inc()
        assert not metrics.enabled()
        assert session.delta["counters"]["test.session"] == 1

    def test_session_delta_excludes_prior_counts(self):
        metrics.enable()
        metrics.counter("test.prior").add(10)
        with TelemetrySession("job-2") as session:
            metrics.counter("test.prior").add(5)
        assert session.delta["counters"]["test.prior"] == 5
        assert metrics.enabled()  # was enabled before: stays enabled

    def test_heartbeats_flow_from_running_campaign(self):
        from repro.core.fuzzer import Fuzzer
        beats = []
        fuzzer = Fuzzer(CROWDSALE_SOURCE, _job().build_config())
        with TelemetrySession("job-3", heartbeat_sink=beats.append,
                              heartbeat_every=0.0):
            fuzzer.run()
        assert beats
        beat = beats[-1]
        assert beat.job_id == "job-3"
        assert beat.executions > 0
        assert beat.transactions > 0
        assert 0.0 <= beat.coverage <= 1.0
        assert beat.stage is not None


class TestHeartbeatPlumbing:
    def test_timeout_outcome_carries_last_heartbeat(self):
        """A worker killed mid-job leaves its dying heartbeat on the
        outcome: the post-mortem shows where the campaign was."""
        hang = _job(name="Hang", overrides={"iterations": 50_000_000})
        engine = create_backend("pool", workers=2, job_timeout=2.0,
                                telemetry=True, heartbeat_every=0.1)
        outcomes = engine.run([hang, _job()])
        by_name = {o.job.name: o for o in outcomes}
        assert by_name["Hang"].status == "timeout"
        assert engine.stats["workers_killed"] == 1
        beat = by_name["Hang"].heartbeat
        assert beat is not None
        assert beat["job_id"] == hang.job_id
        assert beat["executions"] > 0
        assert beat["stage"] is not None
        # the queue continued on a respawned worker, telemetry intact
        assert by_name["Crowdsale"].ok
        assert by_name["Crowdsale"].telemetry is not None

    def test_scheduler_invokes_heartbeat_callback(self):
        beats = []
        engine = create_backend("pool", workers=2, telemetry=True,
                                heartbeat_every=0.0, heartbeat=beats.append)
        outcomes = engine.run([_job()])
        assert outcomes[0].ok
        assert beats
        assert all(b["kind"] == "heartbeat" for b in beats)
        assert beats[-1]["snapshot"]["executions"] > 0

    def test_no_heartbeats_without_telemetry(self):
        beats = []
        engine = create_backend("inline", telemetry=False,
                                heartbeat=beats.append)
        outcomes = engine.run([_job()])
        assert outcomes[0].ok
        assert outcomes[0].telemetry is None
        assert not beats

    def test_live_progress_file_excluded_from_store_and_replay(
            self, tmp_path):
        from repro.cli import _replay_records
        from repro.orchestrator.store import ResultStore
        run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                         presets=["mufuzz"], trials=1,
                         overrides=dict(FAST), workers=1,
                         backend="inline", results_dir=tmp_path,
                         telemetry=True)
        assert (tmp_path / "live.telemetry.json").exists()
        live = json.loads((tmp_path / "live.telemetry.json").read_text())
        assert live["done"] is True
        assert live["settled"] == live["total"] == 1
        assert live["stats"]["executions"] >= FAST["iterations"]
        # the sidecar never masquerades as a completed job or a record
        store = ResultStore(tmp_path)
        assert store.completed_ids() == {run.outcomes[0].job.job_id}
        assert len(_replay_records([tmp_path])) == 1


class TestStructuredLog:
    @pytest.fixture(autouse=True)
    def _restore_log(self):
        yield
        tlog.configure(logging.INFO)

    def test_info_renders_bare_to_stdout(self, capsys):
        tlog.configure(logging.INFO)
        tlog.info("hello", n=3, rate=1.5)
        captured = capsys.readouterr()
        assert captured.out == "hello n=3 rate=1.500\n"
        assert captured.err == ""

    def test_errors_route_to_stderr(self, capsys):
        tlog.configure(logging.INFO)
        tlog.error("error: boom")
        tlog.warning("careful")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: boom\nwarning: careful\n"

    def test_quiet_and_verbose_levels(self):
        assert tlog.resolve_level(None, quiet=1) == logging.WARNING
        assert tlog.resolve_level(None, quiet=2) == logging.ERROR
        assert tlog.resolve_level(None, verbose=1) == logging.DEBUG
        assert tlog.resolve_level("warning") == logging.WARNING
        with pytest.raises(ValueError):
            tlog.resolve_level(None, quiet=1, verbose=1)
        with pytest.raises(ValueError):
            tlog.resolve_level("nonesuch")

    def test_threshold_suppresses_below(self, capsys):
        tlog.configure(logging.WARNING)
        tlog.info("invisible")
        tlog.debug("also invisible")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""


class TestTelemetryCLI:
    def test_fuzz_metrics_flag_writes_snapshot(self, tmp_path, capsys):
        from repro.cli import main
        source = tmp_path / "c.sol"
        source.write_text(CROWDSALE_SOURCE)
        metrics_file = tmp_path / "m.json"
        assert main(["fuzz", str(source), "--iterations", "10",
                     "--metrics", str(metrics_file)]) == 0
        data = json.loads(metrics_file.read_text())
        assert data["counters"]["engine.executions"] == 10
        assert "engine.execution" in data["spans"]
        assert not metrics.enabled()  # CLI restored the prior state
        assert "metrics written" in capsys.readouterr().out

    def test_top_once_renders_final_frame(self, tmp_path, capsys):
        from repro.cli import main
        source = tmp_path / "c.sol"
        source.write_text(CROWDSALE_SOURCE)
        results = tmp_path / "rd"
        assert main(["-q", "campaign", str(source), "--trials", "1",
                     "--iterations", "10", "--workers", "1",
                     "--backend", "inline",
                     "--results-dir", str(results), "--telemetry"]) == 0
        capsys.readouterr()
        assert main(["top", str(results), "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign done" in out
        assert "job(s) settled" in out
        assert "totals:" in out

    def test_top_once_without_live_file_errors(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["top", str(tmp_path), "--once"]) == 2
        assert "no live telemetry" in capsys.readouterr().err


class TestEnvEnable:
    def test_env_var_enables_collection_in_workers(self):
        """REPRO_TELEMETRY=1 is how pool workers inherit the switch;
        the module hook honours it at import."""
        import subprocess
        import sys
        code = ("import repro.telemetry as t; "
                "print(t.enabled())")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"REPRO_TELEMETRY": "1",
                 "PYTHONPATH": "src",
                 "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, cwd=".")
        assert out.stdout.strip() == "True"
