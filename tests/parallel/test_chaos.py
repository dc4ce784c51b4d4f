"""The chaos determinism matrix.

The headline robustness contract: a sweep full of injected worker
crashes, hangs, and raises merges **byte-identically** (after
:meth:`ExperimentResult.strip_timings`) to a fault-free run — a
retried replica reruns the same derived seed, and every trace of the
turbulence lives only in the stripped execution metadata.  The matrix
here drives one plan holding a crash, a hang and a raise across
workers 1 and 4; the subprocess tests cover the two ways a sweep dies
from the outside (Ctrl-C and SIGKILL) and the checkpoint-journal
resume that follows.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.parallel import (
    FAULT_PLAN_ENV,
    FaultPlan,
    ReplicaFailedError,
    replica_seed,
    run_replicated,
)
from repro.parallel.supervisor import CRASH_EXIT_CODE

_REPLICAS = 8
_DRIVER = Path(__file__).with_name("_sweep_driver.py")
_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _stripped(result) -> str:
    return json.dumps(result.strip_timings(), sort_keys=True)


@pytest.fixture(scope="module")
def clean_baseline():
    """The fault-free e14 sweep every chaos run must reproduce."""
    return _stripped(run_replicated("e14", replicas=_REPLICAS,
                                    workers=1))


class TestChaosMatrix:
    # One "mixed" plan drives all three supervisor failure paths: the
    # pipe closing empty (crash), the deadline kill (hang) and the
    # shipped error message (raise).
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("kind", ["mixed"])
    def test_chaos_merge_matches_clean_run(self, kind, workers,
                                           clean_baseline):
        retries = []

        def on_event(event, info):
            if event == "retry":
                retries.append(info["error"])

        result = run_replicated(
            "e14", replicas=_REPLICAS, workers=workers,
            fault_plan=FaultPlan().crash(0).hang(2).raise_(6),
            replica_timeout=2.0, backoff_base=0.01, on_event=on_event)
        assert _stripped(result) == clean_baseline
        assert len(retries) == 3
        assert sum(f"exit code {CRASH_EXIT_CODE}" in error
                   for error in retries) == 1
        assert sum("hung" in error for error in retries) == 1
        assert sum("InjectedFault" in error for error in retries) == 1

    def test_retry_counts_land_in_report(self):
        result = run_replicated(
            "e14", replicas=4, workers=2,
            fault_plan=FaultPlan().crash(1).raise_(3, (1, 2)),
            backoff_base=0.01, retries=2)
        replication = result.report.replication
        assert replication["attempts"] == [1, 2, 1, 3]
        assert replication["failed_replicas"] == []
        # Attempts are execution history, not science.
        stripped = result.strip_timings()
        assert "attempts" not in stripped["report"]["replication"]

    def test_exhausted_retries_raise_typed_error(self):
        with pytest.raises(ReplicaFailedError) as excinfo:
            run_replicated(
                "e14", replicas=4, workers=2, retries=1,
                fault_plan=FaultPlan().crash(2, (1, 2)),
                backoff_base=0.01)
        error = excinfo.value
        assert error.index == 2
        assert error.seed == replica_seed(0, 2)
        assert "replica 2" in str(error)
        assert str(error.seed) in str(error)

    def test_partial_merges_survivors_with_accounting(self,
                                                      clean_baseline):
        result = run_replicated(
            "e14", replicas=_REPLICAS, workers=2, retries=0,
            partial=True, fault_plan=FaultPlan().raise_(3),
            backoff_base=0.01)
        replication = result.report.replication
        assert replication["replicas"] == _REPLICAS - 1
        failed = replication["failed_replicas"]
        assert [f["index"] for f in failed] == [3]
        assert failed[0]["seed"] == replica_seed(0, 3)
        assert failed[0]["attempts"] == 1
        assert "InjectedFault" in failed[0]["error"]
        # A partial merge is a legitimately different payload.
        assert _stripped(result) != clean_baseline
        # The accounting survives stripping — it is science.
        stripped = result.strip_timings()
        assert stripped["report"]["replication"]["failed_replicas"]

    def test_partial_with_no_survivors_still_raises(self):
        plan = FaultPlan()
        for index in range(2):
            plan.raise_(index, (1, 2, 3))
        with pytest.raises(ReplicaFailedError):
            run_replicated("e14", replicas=2, workers=2, retries=2,
                           partial=True, fault_plan=plan,
                           backoff_base=0.01)


class TestCheckpointResume:
    def test_resumed_sweep_matches_uninterrupted(self, tmp_path,
                                                 clean_baseline):
        journal = tmp_path / "sweep.jsonl"
        # First pass: replica 4 fails every attempt; survivors are
        # journaled as they complete.
        first = run_replicated(
            "e14", replicas=_REPLICAS, workers=2, retries=0,
            partial=True, checkpoint=journal,
            fault_plan=FaultPlan().raise_(4), backoff_base=0.01)
        assert len(first.report.replication["failed_replicas"]) == 1
        # Second pass: resume skips the journaled replicas, reruns
        # only the casualty, and the merge equals the clean run.
        resumed = run_replicated("e14", replicas=_REPLICAS, workers=2,
                                 resume=journal)
        assert resumed.report.replication["resumed"] == _REPLICAS - 1
        assert _stripped(resumed) == clean_baseline
        # Resume history is stripped with the timings.
        assert "resumed" not in (
            resumed.strip_timings()["report"]["replication"])

    def test_fully_journaled_sweep_runs_nothing(self, tmp_path,
                                                clean_baseline):
        journal = tmp_path / "sweep.jsonl"
        run_replicated("e14", replicas=_REPLICAS, workers=2,
                       checkpoint=journal)
        again = run_replicated("e14", replicas=_REPLICAS, workers=2,
                               resume=journal)
        assert again.report.replication["resumed"] == _REPLICAS
        assert _stripped(again) == clean_baseline


# ----------------------------------------------------------------------
# Killing the sweep from the outside
# ----------------------------------------------------------------------
def _driver_env(plan: FaultPlan | None) -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (_SRC if not existing
                         else _SRC + os.pathsep + existing)
    if plan is not None:
        env[FAULT_PLAN_ENV] = plan.to_json()
    return env


def _procs_with_marker(marker: str) -> list[int]:
    """PIDs whose command line carries ``marker`` (driver + forks)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def _wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="scans /proc for orphan detection")
class TestExternalKills:
    def test_sigint_leaves_no_orphan_workers(self, tmp_path):
        """Ctrl-C mid-sweep: children are terminated, none survive."""
        marker = f"repro-sigint-{os.getpid()}-{id(self)}"
        plan = FaultPlan()
        for index in range(3):
            plan.hang(index, (1, 2, 3))  # every worker wedges
        process = subprocess.Popen(
            [sys.executable, str(_DRIVER), "--experiment", "e14",
             "--replicas", "3", "--workers", "2", "--marker", marker],
            env=_driver_env(plan), cwd=str(tmp_path),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            _wait_until(lambda: len(_procs_with_marker(marker)) >= 2,
                        timeout=30.0,
                        message="workers never started")
            # Like a human: keep pressing Ctrl-C until the sweep dies.
            # A single SIGINT can be swallowed outright if it lands
            # inside an os.register_at_fork callback (CPython runs
            # those with exceptions *ignored* — the KeyboardInterrupt
            # never reaches the supervisor), so delivery, not cleanup,
            # needs the retry.  The property under test is what
            # happens after delivery: no orphans.
            deadline = time.monotonic() + 30.0
            while process.poll() is None:
                assert time.monotonic() < deadline, (
                    "driver outlived repeated SIGINTs")
                os.kill(process.pid, signal.SIGINT)
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    pass
            assert process.returncode != 0
            _wait_until(lambda: not _procs_with_marker(marker),
                        timeout=10.0,
                        message="orphan worker processes survived "
                                "SIGINT")
        finally:
            process.kill()
            process.wait()

    def test_sigkill_then_resume_matches_clean_run(self, tmp_path):
        """The CI resume smoke, as a test: kill a sweep mid-run with
        SIGKILL (nothing gets to clean up), resume from its journal,
        and land on the byte-identical clean merge."""
        journal = tmp_path / "sweep.jsonl"
        marker = f"repro-sigkill-{os.getpid()}-{id(self)}"
        # Replica 2 hangs on every attempt, so the sweep can never
        # finish by itself; everyone else completes and checkpoints.
        plan = FaultPlan().hang(2, (1, 2, 3))
        process = subprocess.Popen(
            [sys.executable, str(_DRIVER), "--experiment", "e14",
             "--replicas", "5", "--workers", "2",
             "--checkpoint", str(journal), "--marker", marker],
            env=_driver_env(plan), cwd=str(tmp_path),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Count newline-*terminated* records: a racing read can
            # observe the prefix of an append in flight, and a partial
            # trailing line must not count toward readiness (resume
            # would then legitimately drop it as truncated).
            _wait_until(
                lambda: journal.exists()
                and journal.read_text().count("\n") >= 3,
                timeout=60.0,
                message="journal never accumulated 3 replicas")
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30.0)
            # Even the wedged worker must notice the orphaning and
            # exit on its own (FaultPlan hangs poll their parentage).
            _wait_until(lambda: not _procs_with_marker(marker),
                        timeout=10.0,
                        message="orphan worker processes survived "
                                "SIGKILL of the sweep")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        resumed = run_replicated("e14", replicas=5, workers=2,
                                 resume=journal)
        assert resumed.report.replication["resumed"] >= 3
        clean = run_replicated("e14", replicas=5, workers=1)
        assert _stripped(resumed) == _stripped(clean)
