"""Tests for the command-line interface."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from tests.conftest import CROWDSALE_SOURCE


@pytest.fixture
def crowdsale_file(tmp_path):
    path = tmp_path / "crowdsale.sol"
    path.write_text(CROWDSALE_SOURCE)
    return str(path)


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCli:
    def test_compile(self, capsys, crowdsale_file):
        out = run_cli(capsys, "compile", crowdsale_file)
        assert "contract Crowdsale" in out
        assert "slot 0: phase" in out
        assert "invest(uint256) payable" in out

    def test_disasm(self, capsys, crowdsale_file):
        out = run_cli(capsys, "disasm", crowdsale_file)
        assert "JUMPI" in out
        assert "SSTORE" in out

    def test_analyze_shows_raw_deps(self, capsys, crowdsale_file):
        out = run_cli(capsys, "analyze", crowdsale_file)
        assert "repeat candidates: ['invest']" in out
        assert "invested" in out

    def test_analyze_reports_surface_and_source_dataflow(self, capsys,
                                                         crowdsale_file):
        """``--json`` prints one object with exactly the surface report's
        keys; the text mode shows the source-level data flow, which is
        the one per-function storage table."""
        import json
        report = json.loads(run_cli(capsys, "analyze", crowdsale_file,
                                    "--json"))
        assert set(report) == {
            "code_size", "instruction_count", "opcodes", "live", "dead",
            "proofs", "dictionary_constants", "compare_constants",
            "candidate_pcs", "calls", "read_slots", "write_slots"}
        out = run_cli(capsys, "analyze", crowdsale_file)
        assert "source-level data-flow analysis of Crowdsale" in out
        assert "repeat candidates: ['invest']" in out
        assert "bytecode-level" not in out

    def test_fuzz(self, capsys, crowdsale_file):
        out = run_cli(capsys, "fuzz", crowdsale_file,
                      "--iterations", "30", "--seed", "3")
        assert "branch coverage" in out
        assert "MuFuzz" in out

    def test_fuzz_with_baseline(self, capsys, crowdsale_file):
        out = run_cli(capsys, "fuzz", crowdsale_file,
                      "--fuzzer", "sfuzz", "--iterations", "20")
        assert "sFuzz" in out

    def test_scan(self, capsys, crowdsale_file):
        out = run_cli(capsys, "scan", crowdsale_file)
        for tool in ("Oyente", "Mythril", "Osiris", "Securify", "Slither"):
            assert tool in out

    def test_corpus_d2(self, capsys):
        out = run_cli(capsys, "corpus", "--dataset", "d2", "--count", "5")
        assert "D2 sample" in out
        assert "Vuln0" in out

    def test_campaign_runs_and_resumes(self, capsys, tmp_path,
                                       crowdsale_file):
        results_dir = str(tmp_path / "results")
        argv = ("campaign", crowdsale_file, "--fuzzers", "mufuzz", "sfuzz",
                "--trials", "2", "--iterations", "15", "--workers", "1",
                "--results-dir", results_dir)
        out = run_cli(capsys, *argv)
        assert "campaign matrix: 1 contracts x 2 fuzzers x 2 trials" in out
        assert "0 cached, 4 executed" in out
        assert "MuFuzz" in out and "sFuzz" in out
        assert "mean branch coverage per fuzzer" in out
        rerun = run_cli(capsys, *argv)
        assert "4 cached, 0 executed" in rerun

    def test_campaign_resume_reruns_only_the_missing_cell(self, capsys,
                                                          tmp_path,
                                                          crowdsale_file):
        """End-to-end resume: delete one persisted result and rerun — only
        that cell re-executes, the other three are cache hits."""
        results_dir = tmp_path / "results"
        argv = ("campaign", crowdsale_file, "--fuzzers", "mufuzz", "sfuzz",
                "--trials", "2", "--iterations", "15", "--workers", "1",
                "--results-dir", str(results_dir))
        run_cli(capsys, *argv)
        from repro.orchestrator.store import ResultStore
        store = ResultStore(results_dir)
        ids = sorted(store.completed_ids())
        assert len(ids) == 4
        victim, survivors = ids[0], ids[1:]
        assert store.delete_record(victim)
        store.close()
        out = run_cli(capsys, *argv)
        assert "3 cached, 1 executed" in out
        # progress lines are printed only for cells that actually ran
        assert f"[ok] {victim}:" in out
        for survivor in survivors:
            assert f"[ok] {survivor}:" not in out
        with ResultStore(results_dir) as store:
            assert victim in store.completed_ids()  # re-persisted

    def test_campaign_backend_and_recycle_flags(self, capsys,
                                                crowdsale_file):
        # one worker, 4 jobs, quota 2: the worker is deterministically
        # recycled after its second job (two jobs still pending)
        out = run_cli(capsys, "campaign", crowdsale_file,
                      "--fuzzers", "mufuzz", "--trials", "4",
                      "--iterations", "15", "--workers", "1",
                      "--backend", "pool", "--recycle-after", "2")
        assert "pool backend" in out
        assert "compile cache:" in out
        assert "worker(s) recycled" in out

    def test_campaign_inline_backend_rejects_job_timeout(self,
                                                         crowdsale_file):
        assert main(["campaign", crowdsale_file, "--fuzzers", "mufuzz",
                     "--trials", "1", "--backend", "inline",
                     "--job-timeout", "5"]) == 2

    def test_campaign_rejects_negative_recycle_after(self, crowdsale_file):
        assert main(["campaign", crowdsale_file, "--fuzzers", "mufuzz",
                     "--trials", "1", "--backend", "pool",
                     "--recycle-after", "-1"]) == 2

    def test_campaign_rejects_recycle_after_off_pool(self, crowdsale_file):
        assert main(["campaign", crowdsale_file, "--fuzzers", "mufuzz",
                     "--trials", "1", "--backend", "inline",
                     "--recycle-after", "5"]) == 2

    def test_campaign_on_corpus_sample(self, capsys, tmp_path):
        out = run_cli(capsys, "campaign", "--dataset", "d2", "--count", "2",
                      "--fuzzers", "mufuzz", "--trials", "1",
                      "--iterations", "15", "--workers", "1")
        assert "Vuln0" in out and "Vuln1" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


def enospc_on_fsync(monkeypatch, call: int) -> None:
    """Make the ``call``-th ``os.fsync`` from now on fail as on a full
    disk; ``monkeypatch.undo()`` restores the real one."""
    import errno

    real_fsync = os.fsync
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == call:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)


def strip_wall_time(fuzz_output: str) -> str:
    """The fuzz summary line minus its wall-clock suffix (timing is
    environment noise; everything else must be deterministic)."""
    import re
    return re.sub(r", \d+\.\d+s$", "", fuzz_output.strip().splitlines()[0])


VULNERABLE_SOURCE = """
contract Lockbox {
    uint256 total = 0;
    mapping(address => uint256) shares;
    function put(uint256 v) public payable {
        shares[msg.sender] += v;
        total += v;
    }
    function take(uint256 v) public {
        shares[msg.sender] -= v;
        total -= v;
    }
}
"""


@pytest.fixture
def lockbox_file(tmp_path):
    path = tmp_path / "lockbox.sol"
    path.write_text(VULNERABLE_SOURCE)
    return str(path)


@pytest.fixture
def lockbox_results(capsys, tmp_path, lockbox_file):
    """A results dir holding one Lockbox campaign record with findings."""
    results = tmp_path / "results"
    run_cli(capsys, "campaign", lockbox_file,
            "--fuzzers", "mufuzz", "--trials", "1",
            "--iterations", "40", "--workers", "1",
            "--results-dir", str(results))
    return results


class TestOracleSelection:
    def test_fuzz_restricted_oracles(self, capsys, lockbox_file):
        out = run_cli(capsys, "fuzz", lockbox_file,
                      "--iterations", "40", "--seed", "5",
                      "--oracles", "IO")
        assert "IO" in out
        assert "EF" not in out  # ether freezing deselected
        assert "severity" in out

    def test_fuzz_oracles_none_disables_findings(self, capsys,
                                                 lockbox_file):
        out = run_cli(capsys, "fuzz", lockbox_file,
                      "--iterations", "40", "--seed", "5",
                      "--oracles", "none")
        assert "no findings" in out

    def test_fuzz_rejects_unknown_oracle_code(self, capsys, lockbox_file):
        assert main(["fuzz", lockbox_file, "--oracles", "ZZ"]) == 2
        assert "--oracles" in capsys.readouterr().err

    def test_fuzz_rejects_empty_oracles_value(self, capsys, lockbox_file):
        # a fat-fingered empty value must not silently run oracle-free
        assert main(["fuzz", lockbox_file, "--oracles", " , "]) == 2
        assert "no bug-class codes" in capsys.readouterr().err

    def test_campaign_oracles_flag(self, capsys, tmp_path, lockbox_file):
        results = tmp_path / "results"
        out = run_cli(capsys, "campaign", lockbox_file,
                      "--fuzzers", "mufuzz", "--trials", "1",
                      "--iterations", "40", "--workers", "1",
                      "--oracles", "IO,RE",
                      "--results-dir", str(results))
        assert "IO" in out
        assert "EF" not in out

    def test_replay_retriggers_findings(self, capsys, lockbox_results):
        out = run_cli(capsys, "replay", str(lockbox_results))
        assert "retriggered" in out
        assert "missed" not in out

    def test_replay_rejects_non_record(self, capsys, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        assert main(["replay", str(bogus)]) == 2
        assert "not a campaign result record" in capsys.readouterr().err

    def test_replay_dir_skips_checkpoint_and_telemetry_files(
            self, capsys, lockbox_results):
        (record,) = lockbox_results.glob("*.json")
        (lockbox_results / f"{record.stem}.checkpoint.json").write_text("{}")
        (lockbox_results / "live.telemetry.json").write_text("{}")
        out = run_cli(capsys, "replay", str(lockbox_results))
        assert "retriggered" in out and "missed" not in out

    def test_replay_refuses_leftover_sqlite_store(self, capsys,
                                                  lockbox_results):
        """A results dir holding a ``results.db`` gets the store's
        one-line refusal, as ``repro report`` does."""
        (lockbox_results / "results.db").write_bytes(b"")
        assert main(["replay", str(lockbox_results)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "results.db" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "witness replay" not in captured.out


#: (command, fault) pairs for the bad-FILE test: every command that
#: compiles one FILE, with each way FILE can fail, plus ``campaign`` (whose
#: FILE compiles per job, so only a missing one stops the command)
BAD_FILE_CASES = [(command, fault)
                  for command in ("fuzz", "compile", "disasm", "analyze",
                                  "scan")
                  for fault in ("missing", "syntax", "contract")]
BAD_FILE_CASES.append(("campaign", "missing"))


@pytest.mark.parametrize("command,fault", BAD_FILE_CASES)
def test_bad_file_is_one_error_line_and_exit_2(capsys, tmp_path,
                                               crowdsale_file, command,
                                               fault):
    if fault == "missing":
        path = str(tmp_path / "absent.sol")
        argv = [command, path]
    elif fault == "syntax":
        broken = tmp_path / "broken.sol"
        broken.write_text("contract Broken { uint256 x = ; }")
        path = str(broken)
        argv = [command, path]
    else:
        path = crowdsale_file
        argv = [command, path, "--contract", "Nope"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("fuzz",),
    ("campaign", "--fuzzers", "mufuzz", "--trials", "1", "--workers", "1")],
    ids=["fuzz", "campaign"])
def test_metrics_into_missing_directory_is_refused(capsys, tmp_path,
                                                   crowdsale_file, argv):
    """A metrics file whose directory does not exist is refused before
    the campaign starts, not after it has run."""
    missing = tmp_path / "missing"
    assert main([argv[0], crowdsale_file, *argv[1:], "--iterations", "5",
                 "--metrics", str(missing / "m.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --metrics {missing / 'm.json'}: "
                            f"directory {missing} does not exist\n")
    assert captured.out == ""
    assert not missing.exists()


class TestPerfLayerFlag:
    def test_fuzz_disable_all_changes_no_result(self, capsys,
                                                lockbox_file):
        argv = ("fuzz", lockbox_file, "--iterations", "30", "--seed", "5")
        plain = run_cli(capsys, *argv, "--disable", "")
        off = run_cli(capsys, *argv, "--disable", "all")
        assert strip_wall_time(plain) == strip_wall_time(off)
        assert plain.splitlines()[1:] == off.splitlines()[1:]

    @pytest.mark.parametrize("command", ["fuzz", "campaign"])
    def test_disable_rejects_unknown_layer(self, capsys, crowdsale_file,
                                           command):
        assert main([command, crowdsale_file, "--disable",
                     "state_cache,warp_drive"]) == 2
        assert "--disable" in capsys.readouterr().err


class TestBudgetFlags:
    def test_fuzz_tx_budget_stops_open_ended_campaign(self, capsys,
                                                      crowdsale_file):
        # no --iterations: the transaction budget alone governs the run
        out = run_cli(capsys, "fuzz", crowdsale_file,
                      "--tx-budget", "150", "--seed", "3")
        assert "branch coverage" in out
        transactions = int(out.split(" transactions")[0].rsplit(", ", 1)[1])
        assert transactions >= 150

    def test_fuzz_time_budget_stops_open_ended_campaign(self, capsys,
                                                        crowdsale_file):
        out = run_cli(capsys, "fuzz", crowdsale_file,
                      "--time-budget", "0.3", "--seed", "3")
        assert "branch coverage" in out

    def test_fuzz_budgets_combine_with_iterations(self, capsys,
                                                  crowdsale_file):
        # generous time budget alongside a tiny iteration budget: the
        # iteration budget wins, result identical to --iterations alone
        plain = run_cli(capsys, "fuzz", crowdsale_file,
                        "--iterations", "20", "--seed", "3")
        combined = run_cli(capsys, "fuzz", crowdsale_file,
                           "--iterations", "20", "--seed", "3",
                           "--time-budget", "3600")
        assert strip_wall_time(plain) == strip_wall_time(combined)

    def test_campaign_time_budget(self, capsys, crowdsale_file):
        out = run_cli(capsys, "campaign", crowdsale_file,
                      "--fuzzers", "mufuzz", "--trials", "1",
                      "--time-budget", "0.3", "--workers", "1",
                      "--backend", "inline")
        assert "mean branch coverage per fuzzer" in out

    def test_campaign_checkpoint_every_requires_results_dir(self,
                                                            crowdsale_file):
        assert main(["campaign", crowdsale_file, "--fuzzers", "mufuzz",
                     "--trials", "1", "--iterations", "10",
                     "--checkpoint-every", "5"]) == 2

    def test_campaign_rejects_non_positive_checkpoint_every(
            self, capsys, tmp_path, crowdsale_file):
        """Rejected before the store opens: no results dir is left."""
        results_dir = tmp_path / "r"
        assert main(["campaign", crowdsale_file, "--fuzzers", "mufuzz",
                     "--trials", "1", "--iterations", "10",
                     "--results-dir", str(results_dir),
                     "--checkpoint-every", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not results_dir.exists()


class TestCheckpointFlags:
    def test_fuzz_checkpoint_consumed_on_completion(self, capsys, tmp_path,
                                                    crowdsale_file):
        """A completed campaign leaves no checkpoint behind, and emitting
        checkpoints does not perturb the result (pure observation)."""
        checkpoint = tmp_path / "fuzz.checkpoint.json"
        plain = run_cli(capsys, "fuzz", crowdsale_file,
                        "--iterations", "30", "--seed", "3")
        checked = run_cli(capsys, "fuzz", crowdsale_file,
                          "--iterations", "30", "--seed", "3",
                          "--checkpoint-every", "5",
                          "--checkpoint-file", str(checkpoint))
        assert strip_wall_time(plain) == strip_wall_time(checked)
        assert not checkpoint.exists()

    def test_fuzz_resume_without_checkpoint_starts_fresh(self, capsys,
                                                         tmp_path,
                                                         crowdsale_file):
        checkpoint = tmp_path / "none.checkpoint.json"
        out = run_cli(capsys, "fuzz", crowdsale_file,
                      "--iterations", "20", "--seed", "3", "--resume",
                      "--checkpoint-file", str(checkpoint))
        assert "no matching checkpoint" in out
        assert "branch coverage" in out

    def test_fuzz_rejects_non_positive_checkpoint_every(self, capsys,
                                                        crowdsale_file):
        assert main(["fuzz", crowdsale_file, "--iterations", "10",
                     "--checkpoint-every", "0",
                     "--checkpoint-file", "x.json"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_fuzz_rejects_checkpoint_file_alone(self, capsys, tmp_path,
                                                crowdsale_file):
        """--checkpoint-file without --checkpoint-every/--resume would be
        a silent no-op; refuse it instead of losing the user's progress."""
        assert main(["fuzz", crowdsale_file, "--iterations", "10",
                     "--checkpoint-file",
                     str(tmp_path / "cp.json")]) == 2
        assert "does nothing on its own" in capsys.readouterr().err

    def test_fuzz_checkpoint_not_shared_across_contracts(self, capsys,
                                                         tmp_path):
        """One source file, two contracts: a checkpoint taken for one
        must not be resumed into a campaign for the other (the
        fingerprint covers the contract name)."""
        from tests.conftest import GAME_SOURCE
        multi = tmp_path / "multi.sol"
        multi.write_text(CROWDSALE_SOURCE + GAME_SOURCE)
        checkpoint = tmp_path / "multi.checkpoint.json"
        # leave a mid-campaign checkpoint behind for Crowdsale
        from repro.compiler import compile_source
        from repro.core import Fuzzer, mufuzz_config
        from repro.engine.checkpoint import checkpoint_fingerprint
        from repro.orchestrator.store import write_checkpoint_file
        config = mufuzz_config(iterations=300, rng_seed=1)
        artifact = compile_source(multi.read_text(), "Crowdsale")
        fuzzer = Fuzzer(artifact, config)
        captured = []
        fuzzer.run(checkpoint_every=250, checkpoint_sink=captured.append)
        write_checkpoint_file(
            checkpoint, captured[0],
            checkpoint_fingerprint(artifact.source, "Crowdsale", config))
        out = run_cli(capsys, "fuzz", str(multi), "--contract", "Game",
                      "--iterations", "300", "--seed", "1", "--resume",
                      "--checkpoint-file", str(checkpoint))
        assert "no matching checkpoint" in out
        # the mismatched run must not consume the other campaign's
        # checkpoint: its rightful owner can still resume from it
        assert checkpoint.exists()
        out = run_cli(capsys, "fuzz", str(multi), "--contract",
                      "Crowdsale", "--iterations", "300", "--seed", "1",
                      "--resume", "--checkpoint-file", str(checkpoint))
        assert "resumed from" in out
        assert not checkpoint.exists()

    def test_fuzz_stale_checkpoint_ignored(self, capsys, tmp_path,
                                           crowdsale_file):
        """A checkpoint from a different config must not be resumed."""
        checkpoint = tmp_path / "stale.checkpoint.json"
        checkpoint.write_text('{"schema": 1, "fingerprint": "deadbeef", '
                              '"checkpoint": {}}\n')
        out = run_cli(capsys, "fuzz", crowdsale_file,
                      "--iterations", "20", "--seed", "3", "--resume",
                      "--checkpoint-file", str(checkpoint))
        assert "no matching checkpoint" in out

    def test_fuzz_never_clobbers_a_foreign_checkpoint(self, capsys,
                                                      tmp_path,
                                                      crowdsale_file):
        """Checkpointing onto a file that holds another campaign's state
        is refused outright — neither the sink nor consume-on-completion
        may destroy someone else's resumable state."""
        checkpoint = tmp_path / "foreign.checkpoint.json"
        foreign = ('{"schema": 1, "fingerprint": "deadbeef", '
                   '"checkpoint": {}}\n')
        checkpoint.write_text(foreign)
        assert main(["fuzz", crowdsale_file,
                     "--iterations", "20", "--seed", "3", "--resume",
                     "--checkpoint-every", "5",
                     "--checkpoint-file", str(checkpoint)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert checkpoint.read_text() == foreign
        # read-only --resume against the same file still runs fresh and
        # leaves it untouched
        out = run_cli(capsys, "fuzz", crowdsale_file,
                      "--iterations", "20", "--seed", "3", "--resume",
                      "--checkpoint-file", str(checkpoint))
        assert "no matching checkpoint" in out
        assert checkpoint.read_text() == foreign

    def test_fuzz_rejects_checkpoint_in_missing_directory(self, capsys,
                                                          tmp_path,
                                                          crowdsale_file):
        """A checkpoint file whose directory does not exist is refused
        before the campaign starts, not at its first checkpoint."""
        missing = tmp_path / "missing"
        assert main(["fuzz", crowdsale_file, "--iterations", "5",
                     "--checkpoint-every", "2",
                     "--checkpoint-file", str(missing / "x.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --checkpoint-file ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "branch coverage" not in captured.out
        assert not missing.exists()

    def test_fuzz_checkpoint_disk_full_is_bounded_and_reported(
            self, capsys, tmp_path, crowdsale_file, monkeypatch):
        """ENOSPC on the second checkpoint (the 3rd fsync: each write
        fsyncs its file, then its directory) ends the campaign with one
        error line naming the checkpoint and exit 1, leaves no temporary
        behind, and a rerun with --resume continues from the first
        checkpoint."""
        checkpoint = tmp_path / "fuzz.checkpoint.json"
        argv = ["fuzz", crowdsale_file, "--iterations", "30", "--seed", "3",
                "--checkpoint-every", "5", "--checkpoint-file",
                str(checkpoint)]
        enospc_on_fsync(monkeypatch, 3)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "No space left" in err and str(checkpoint) in err
        assert not list(tmp_path.glob("*.tmp"))
        assert checkpoint.exists()

        monkeypatch.undo()
        assert "resumed from" in run_cli(capsys, *argv, "--resume")
        assert not checkpoint.exists()


def _repro(*argv, cwd, **kwargs):
    """``python -m repro ARGV`` in a fresh process, ``src`` on its path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    return subprocess.Popen([sys.executable, "-m", "repro", *argv],
                            cwd=cwd, env=env, **kwargs)


class TestKillAndResume:
    """True interrupt/resume: SIGKILL a running CLI process mid-campaign,
    resume from its persisted checkpoints, and compare byte-for-byte
    against an uninterrupted run."""

    @staticmethod
    def _spawn(*argv, cwd):
        return _repro(*argv, cwd=cwd, stdout=subprocess.DEVNULL,
                      stderr=subprocess.DEVNULL)

    @staticmethod
    def _kill_once_checkpointed(proc, probe, timeout=60.0):
        """Wait until ``probe()`` reports a persisted checkpoint, then
        SIGKILL the process; returns False if it finished first."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if probe():
                proc.kill()
                proc.wait()
                return True
            if proc.poll() is not None:
                return False
            time.sleep(0.01)
        proc.kill()
        proc.wait()
        raise AssertionError("no checkpoint appeared within the timeout")

    def test_fuzz_kill_and_resume_byte_identical(self, capsys, tmp_path,
                                                 crowdsale_file):
        checkpoint = tmp_path / "fuzz.checkpoint.json"
        budget = ("--iterations", "400", "--seed", "3")
        baseline = run_cli(capsys, "fuzz", crowdsale_file, *budget)

        proc = self._spawn("fuzz", crowdsale_file, *budget,
                           "--checkpoint-every", "5",
                           "--checkpoint-file", str(checkpoint),
                           cwd=str(tmp_path))
        interrupted = self._kill_once_checkpointed(proc, checkpoint.exists)
        assert interrupted, "campaign finished before it could be killed"
        assert checkpoint.exists()

        resumed = run_cli(capsys, "fuzz", crowdsale_file, *budget,
                          "--resume", "--checkpoint-file", str(checkpoint))
        assert "resumed from" in resumed
        assert strip_wall_time(baseline) == \
            strip_wall_time(resumed.splitlines()[1])
        assert not checkpoint.exists()  # consumed on completion

    def test_campaign_kill_and_resume_mid_campaign(self, capsys, tmp_path,
                                                   crowdsale_file):
        """An interrupted matrix resumes *mid-campaign* from per-job
        checkpoints, settling results byte-identical to an uninterrupted
        matrix."""
        ref_dir = tmp_path / "reference"
        hot_dir = tmp_path / "interrupted"
        argv = ("campaign", crowdsale_file, "--fuzzers", "mufuzz", "sfuzz",
                "--trials", "3", "--iterations", "120", "--workers", "1",
                "--backend", "inline", "--seed", "3")
        run_cli(capsys, *argv, "--results-dir", str(ref_dir))

        hot_argv = argv + ("--results-dir", str(hot_dir),
                           "--checkpoint-every", "5")
        proc = self._spawn(*hot_argv, cwd=str(tmp_path))
        interrupted = self._kill_once_checkpointed(
            proc, lambda: any(hot_dir.glob("*.checkpoint.json")))
        assert interrupted, "matrix finished before it could be killed"
        assert any(hot_dir.glob("*.checkpoint.json"))

        resumed = run_cli(capsys, *hot_argv)
        assert "executed" in resumed
        assert not any(hot_dir.glob("*.checkpoint.json"))  # all consumed

        from repro.orchestrator.store import ResultStore
        ref = ResultStore(ref_dir).canonical_records()
        hot = ResultStore(hot_dir).canonical_records()
        assert ref and hot == ref


class TestInterrupt:
    """Ctrl-C (SIGINT to the whole process group) and SIGTERM (to the
    scheduler alone) end a pool campaign with one error line and the
    signal's exit code, wind every worker down, and keep every record
    saved so far for the next run.  SIGKILL of the scheduler leaves no
    worker behind either: each sees EOF on its job pipe and exits."""

    @staticmethod
    def _launch(tmp_path, crowdsale_file, **kwargs):
        """Start a 2-worker pool campaign in its own session and return
        once its first record is saved: (process, argv, results dir)."""
        results = tmp_path / "results"
        argv = ("campaign", crowdsale_file, "--fuzzers", "mufuzz", "sfuzz",
                "--trials", "4", "--iterations", "800", "--workers", "2",
                "--results-dir", str(results))
        proc = _repro(*argv, cwd=str(tmp_path), stdout=subprocess.DEVNULL,
                      start_new_session=True, **kwargs)
        try:
            deadline = time.monotonic() + 60
            while not list(results.glob("*.json")):
                assert proc.poll() is None, "matrix ended before a record"
                assert time.monotonic() < deadline, "no record within 60 s"
                time.sleep(0.01)
        except BaseException:
            TestInterrupt._kill_group(proc)
            raise
        return proc, argv, results

    @staticmethod
    def _group_empties(pgid, within: float) -> bool:
        """True once no process of group ``pgid`` is left (its leader
        must be reaped already), False after ``within`` seconds."""
        deadline = time.monotonic() + within
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    @staticmethod
    def _kill_group(proc) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    @pytest.mark.parametrize("signum, to_group, code", [
        (signal.SIGINT, True, 130), (signal.SIGTERM, False, 143)],
        ids=["sigint-group", "sigterm-scheduler"])
    def test_interrupted_campaign_is_one_line_and_leaves_no_worker(
            self, capsys, tmp_path, crowdsale_file, signum, to_group, code):
        from repro.orchestrator.store import ResultStore

        proc, argv, results = self._launch(
            tmp_path, crowdsale_file, stderr=subprocess.PIPE, text=True)
        try:
            if to_group:
                os.killpg(proc.pid, signum)
            else:
                os.kill(proc.pid, signum)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == code, err[-2000:]
            assert err.splitlines() == ["error: interrupted"], err[-2000:]
            # the scheduler's process group empties: no worker outlives it
            assert self._group_empties(proc.pid, 2.0), \
                "a worker outlived the interrupted scheduler"
        finally:
            self._kill_group(proc)

        store = ResultStore(results)
        saved = store.canonical_records()
        assert 1 <= len(saved) < 8
        assert all(store.record_for(job_id) for job_id in saved)
        assert not list(results.glob("*.tmp"))
        rerun = run_cli(capsys, *argv)
        assert f"({len(saved)} cached, {8 - len(saved)} executed)" in rerun

    def test_killed_scheduler_leaves_no_worker(self, capsys, tmp_path,
                                               crowdsale_file):
        """SIGKILL gives the scheduler no chance to wind its workers
        down; each finishes its in-flight job, reads EOF from its job
        pipe and exits.  A SIGKILL can land mid-write, so a leftover
        ``*.tmp`` is allowed here: the store sweeps it when it opens."""
        from repro.orchestrator.store import ResultStore

        proc, argv, results = self._launch(
            tmp_path, crowdsale_file, stderr=subprocess.DEVNULL)
        try:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
            assert self._group_empties(proc.pid, 10.0), \
                "a worker outlived the killed scheduler"
        finally:
            self._kill_group(proc)

        saved = ResultStore(results).canonical_records()
        assert 1 <= len(saved) < 8
        rerun = run_cli(capsys, *argv)
        assert f"({len(saved)} cached, {8 - len(saved)} executed)" in rerun


class TestResultsDirFailures:
    """A results directory the store cannot use stops the command loudly
    and in a bounded way: an error line, a nonzero exit, nothing left
    half-written."""

    def test_campaign_refuses_leftover_sqlite_store(self, capsys, tmp_path,
                                                    crowdsale_file):
        results = tmp_path / "results"
        results.mkdir()
        (results / "results.db").write_bytes(b"")
        assert main(["campaign", crowdsale_file, "--fuzzers", "mufuzz",
                     "--trials", "1", "--iterations", "15", "--workers",
                     "1", "--results-dir", str(results)]) == 2
        err = capsys.readouterr().err
        assert "results.db" in err and "--results-dir" in err
        assert [p.name for p in results.iterdir()] == ["results.db"]

    def test_report_refuses_leftover_sqlite_store(self, capsys, tmp_path):
        (tmp_path / "results.db").write_bytes(b"")
        assert main(["report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "results.db" in captured.err
        assert "result record(s)" not in captured.out

    def test_campaign_disk_full_is_bounded_and_reported(
            self, capsys, tmp_path, crowdsale_file, monkeypatch):
        """ENOSPC on the second record (the 3rd fsync: each record
        fsyncs its file, then its directory) ends the campaign with one
        error line and exit 1, keeps the record already saved, leaves no
        temporary behind, and a rerun after the fault resumes from it."""
        results = tmp_path / "results"
        argv = ["campaign", crowdsale_file, "--fuzzers", "mufuzz",
                "--trials", "3", "--iterations", "15", "--workers", "1",
                "--results-dir", str(results)]
        enospc_on_fsync(monkeypatch, 3)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "No space left" in err and str(results) in err
        assert not list(results.glob("*.tmp"))
        assert len(list(results.glob("*.json"))) == 1

        monkeypatch.undo()
        assert "1 cached, 2 executed" in run_cli(capsys, *argv)
