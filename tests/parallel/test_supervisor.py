"""Unit tests for the fault-tolerance layer: fault plans, the
checkpoint journal, and the supervisor loop's retry/timeout/degradation
mechanics."""

import gc
import json
import multiprocessing
import random
import time

import pytest

from repro.parallel import (
    FAULT_PLAN_ENV,
    CheckpointJournal,
    FaultPlan,
    InjectedFault,
    JournalMismatchError,
    ReplicaFailedError,
    ReplicaResult,
    SupervisorPolicy,
    supervise,
)
from repro.parallel import supervisor as supervisor_module
from repro.parallel.supervisor import _backoff


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_builders_and_lookup(self):
        plan = FaultPlan().crash(0).hang(2, (1, 2)).raise_(3)
        assert plan.action_for(0, 1) == "crash"
        assert plan.action_for(0, 2) is None
        assert plan.action_for(2, 2) == "hang"
        assert plan.action_for(3, 1) == "raise"
        assert plan.action_for(7, 1) is None
        assert len(plan) == 4

    def test_json_round_trip(self):
        plan = FaultPlan().crash(1).raise_(4, (2,))
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()

    def test_env_hook(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None
        plan = FaultPlan().hang(5)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert FaultPlan.from_env().action_for(5, 1) == "hang"

    def test_apply_raise(self):
        plan = FaultPlan().raise_(1)
        plan.apply(0, 1)  # no fault planned: no-op
        with pytest.raises(InjectedFault, match="replica 1 attempt 1"):
            plan.apply(1, 1)

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            FaultPlan().crash(0, (0,))


# ----------------------------------------------------------------------
# CheckpointJournal
# ----------------------------------------------------------------------
def _result(index, seed=7, attempts=1):
    return ReplicaResult(index=index, seed=seed, kpis={"x": 1.0},
                         attempts=attempts)


class TestCheckpointJournal:
    def _journal(self, tmp_path, **kwargs):
        defaults = dict(experiment="e14", master_seed=0)
        defaults.update(kwargs)
        return CheckpointJournal(tmp_path / "j.jsonl", **defaults)

    def test_append_load_round_trip(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(_result(0))
        journal.append(_result(2, attempts=3))
        done = CheckpointJournal.load(journal.path, experiment="e14",
                                      master_seed=0)
        assert sorted(done) == [0, 2]
        assert done[2].attempts == 3
        assert done[0].kpis == {"x": 1.0}

    def test_mismatched_sweep_rejected(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(_result(0))
        with pytest.raises(JournalMismatchError):
            CheckpointJournal.load(journal.path, experiment="e3",
                                   master_seed=0)
        with pytest.raises(JournalMismatchError):
            CheckpointJournal.load(journal.path, experiment="e14",
                                   master_seed=1)

    def test_truncated_tail_tolerated(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(_result(0))
        journal.append(_result(1))
        text = journal.path.read_text()
        journal.path.write_text(text + text.splitlines()[0][:40])
        done = CheckpointJournal.load(journal.path, experiment="e14",
                                      master_seed=0)
        assert sorted(done) == [0, 1]

    def test_last_record_per_index_wins(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(_result(0, attempts=1))
        journal.append(_result(0, attempts=2))
        done = CheckpointJournal.load(journal.path, experiment="e14",
                                      master_seed=0)
        assert done[0].attempts == 2

    def test_shrunk_sweep_ignores_extra_indices(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(_result(0))
        journal.append(_result(9))
        done = CheckpointJournal.load(journal.path, experiment="e14",
                                      master_seed=0, replicas=4)
        assert sorted(done) == [0]

    def test_journal_is_greppable_jsonl(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(_result(3, seed=42))
        record = json.loads(journal.path.read_text())
        assert record["index"] == 3
        assert record["seed"] == 42
        assert record["experiment"] == "e14"


# ----------------------------------------------------------------------
# The supervisor loop (driven directly, tiny workers)
# ----------------------------------------------------------------------
def _echo_worker(payload):
    index, seed, attempt, mode = payload
    if mode == "fail-first" and attempt == 1:
        raise RuntimeError("transient")
    if mode == "sleep" or (mode == "fail-zero" and index > 0):
        time.sleep(60)
    if mode == "fail-zero":
        raise RuntimeError("zero fails at once")
    return ReplicaResult(index=index, seed=seed,
                         kpis={"v": float(index)}, attempts=attempt)


class _FlakySpawnCtx:
    """Fork context whose first N Process() calls fail with OSError —
    the resource-exhaustion shape of a pool-creation failure."""

    def __init__(self, failures: int):
        self._real = multiprocessing.get_context("fork")
        self.failures = failures

    def Pipe(self, duplex=True):
        return self._real.Pipe(duplex=duplex)

    def Process(self, *args, **kwargs):
        if self.failures > 0:
            self.failures -= 1
            raise OSError("fork: Resource temporarily unavailable")
        return self._real.Process(*args, **kwargs)


def _supervise(tasks, mode, policy, ctx=None):
    return supervise(
        tasks,
        worker=_echo_worker,
        make_payload=lambda i, s, attempt: (i, s, attempt, mode),
        ctx=ctx or multiprocessing.get_context("fork"),
        workers=2,
        policy=policy,
        rng=random.Random(0),
    )


class TestSupervise:
    def test_collects_all_results(self):
        results, failures = _supervise(
            [(0, 10), (1, 11), (2, 12)], "ok", SupervisorPolicy())
        assert sorted(results) == [0, 1, 2]
        assert results[1].kpis == {"v": 1.0}
        assert failures == []

    def test_transient_error_retries_and_succeeds(self):
        results, failures = _supervise(
            [(0, 10)], "fail-first",
            SupervisorPolicy(retries=1, backoff_base=0.01))
        assert results[0].attempts == 2
        assert failures == []

    def test_exhausted_attempts_raise(self):
        with pytest.raises(ReplicaFailedError) as excinfo:
            _supervise([(0, 10)], "fail-first",
                       SupervisorPolicy(retries=0))
        assert excinfo.value.index == 0
        assert excinfo.value.seed == 10
        assert "RuntimeError" in str(excinfo.value)

    def test_failure_leaves_no_sibling_running(self):
        before = set(multiprocessing.active_children())
        start = time.perf_counter()
        with pytest.raises(ReplicaFailedError) as excinfo:
            _supervise([(0, 10), (1, 11), (2, 12)], "fail-zero",
                       SupervisorPolicy(retries=0))
        assert excinfo.value.index == 0
        assert time.perf_counter() - start < 30.0
        assert set(multiprocessing.active_children()) <= before

    def test_timeout_terminates_and_reports_hang(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "TERM_GRACE", 0.5)
        policy = SupervisorPolicy(timeout=0.5, retries=0, partial=True)
        results, failures = _supervise([(0, 10)], "sleep", policy)
        assert results == {}
        assert len(failures) == 1
        assert "hung" in failures[0].error

    def test_spawn_failures_degrade_instead_of_aborting(self):
        ctx = _FlakySpawnCtx(failures=3)
        results, failures = _supervise(
            [(0, 10), (1, 11)], "ok",
            SupervisorPolicy(backoff_base=0.01), ctx=ctx)
        assert sorted(results) == [0, 1]
        assert failures == []
        assert ctx.failures == 0  # the flaky spawns were all consumed

    def test_relentless_spawn_failure_eventually_raises(
            self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_SPAWN_FAILURES", 4)
        ctx = _FlakySpawnCtx(failures=10_000)
        with pytest.raises(OSError):
            _supervise([(0, 10)], "ok",
                       SupervisorPolicy(backoff_base=0.001), ctx=ctx)
        assert ctx.failures == 10_000 - 4

    def test_heap_unfrozen_when_process_start_fails(self, monkeypatch):
        def refuse(process):
            raise OSError("fork: Resource temporarily unavailable")

        monkeypatch.setattr(supervisor_module, "MAX_SPAWN_FAILURES", 1)
        monkeypatch.setattr(multiprocessing.context.ForkProcess,
                            "start", refuse)
        with pytest.raises(OSError):
            _supervise([(0, 10)], "ok", SupervisorPolicy())
        assert gc.get_freeze_count() == 0

    def test_backoff_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "JITTER", 0.0)
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=0.4)
        rng = random.Random(0)
        delays = [_backoff(policy, attempt, rng)
                  for attempt in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_stretches_within_bounds(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "JITTER", 0.5)
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=10.0)
        rng = random.Random(1)
        for attempt in range(1, 6):
            base = min(10.0, 0.1 * 2 ** (attempt - 1))
            delay = _backoff(policy, attempt, rng)
            assert base <= delay <= base * 1.5
