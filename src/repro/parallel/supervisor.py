"""Fault-tolerant supervision of worker processes.

:mod:`repro.parallel.engine` fans replicas onto worker processes;
this module is the layer that keeps a sweep alive when those
processes misbehave.  The supervisor owns one
:class:`multiprocessing.Process` per task *attempt* (a fresh process
every time, so no task observes state left behind by another) and a
result pipe per process, and multiplexes them through
:func:`multiprocessing.connection.wait`:

* a replica that exceeds :attr:`SupervisorPolicy.timeout` wall-clock
  seconds is terminated (SIGTERM, then SIGKILL after a grace period)
  and requeued;
* a replica whose worker **crashes** — nonzero exit, OOM kill, a
  segfault — is detected by the pipe closing with no result and
  requeued; repeated crashes shrink the effective worker count toward
  1 (the classic OOM spiral: fewer concurrent workers, smaller
  footprint) instead of aborting the sweep;
* each requeue retries with **exponential backoff plus jitter**, up to
  ``retries`` extra attempts; the retried attempt reruns the *same*
  ``replica_seed(master, i)``, so a retry can never change the merged
  payload — only the attempt count, which
  :meth:`ExperimentResult.strip_timings` removes;
* a replica that exhausts its attempts raises
  :class:`ReplicaFailedError` naming the replica index and seed — or,
  under ``partial=True``, is recorded in
  ``report.replication["failed_replicas"]`` and the sweep merges what
  survived.

Completed results stream through an optional callback into a
:class:`CheckpointJournal` (append-only JSONL); an interrupted sweep
restarted with ``run_replicated(..., resume=path)`` skips every
replica the journal already holds.

The **chaos harness** lives here too: a :class:`FaultPlan` injects
crash/hang/raise faults into :func:`repro.parallel.engine._run_replica`
by ``(replica index, attempt)`` — either passed explicitly
(``run_replicated(..., fault_plan=plan)``) or through the
:data:`FAULT_PLAN_ENV` environment variable so subprocess-driven tests
and CI can reach inside the workers.  The chaos determinism matrix in
``tests/parallel/test_chaos.py`` asserts that a sweep full of injected
crashes and hangs still merges byte-identically to a fault-free run.
"""

from __future__ import annotations

import base64
import gc
import json
import os
import pickle
import random
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.parallel.live import TelemetrySampler
from repro.parallel.merge import ReplicaResult

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "InjectedFault",
    "ReplicaFailure",
    "ReplicaFailedError",
    "JournalMismatchError",
    "CheckpointJournal",
    "SupervisorPolicy",
    "supervise",
]

#: Environment variable carrying a JSON :class:`FaultPlan` into worker
#: processes (test hook; see :meth:`FaultPlan.from_env`).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of a worker killed by an injected ``crash`` fault; any
#: nonzero exit (OOM killer, segfault) is handled identically, the
#: fixed value just makes chaos tests recognisable in process tables.
CRASH_EXIT_CODE = 23

#: Largest fraction by which seeded jitter stretches a backoff delay.
JITTER = 0.25
#: Crashes in a row before each further one drops a worker slot.
CRASH_SHRINK_AFTER = 2
#: Give up after this many failed process spawns.
MAX_SPAWN_FAILURES = 8
#: Seconds between SIGTERM and SIGKILL for a timed-out worker.
TERM_GRACE = 2.0


# ----------------------------------------------------------------------
# Failure vocabulary
# ----------------------------------------------------------------------
class InjectedFault(RuntimeError):
    """Raised inside a worker by a ``raise`` fault of a :class:`FaultPlan`."""


@dataclass(frozen=True)
class ReplicaFailure:
    """One replica that exhausted every attempt."""

    index: int
    seed: int
    attempts: int
    error: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "attempts": self.attempts,
            "error": self.error,
        }


class ReplicaFailedError(RuntimeError):
    """A replica failed on every attempt (and ``partial`` was off, or
    nothing survived to merge).

    ``failures`` lists every exhausted replica; ``index``/``seed``
    name the first one for the common single-failure case.
    """

    def __init__(self, failures: Sequence[ReplicaFailure]):
        self.failures = list(failures)
        first = self.failures[0]
        extra = (f" (and {len(self.failures) - 1} more)"
                 if len(self.failures) > 1 else "")
        super().__init__(
            f"replica {first.index} (seed {first.seed}) failed after "
            f"{first.attempts} attempt(s): {first.error}{extra}"
        )

    @property
    def index(self) -> int:
        return self.failures[0].index

    @property
    def seed(self) -> int:
        return self.failures[0].seed


# ----------------------------------------------------------------------
# Chaos harness: the fault plan
# ----------------------------------------------------------------------
class FaultPlan:
    """Deterministic fault injection for the chaos harness.

    A plan maps ``(replica index, attempt)`` — attempts are 1-based —
    to an action executed inside the worker **before** the experiment
    runs:

    * ``"crash"`` — ``os._exit(CRASH_EXIT_CODE)``: the process dies
      without a result, exactly like an OOM kill;
    * ``"hang"`` — sleep forever (the worker busy-waits in short
      sleeps and exits on its own if it is ever orphaned, so a leaked
      hang can not outlive the test that injected it);
    * ``"raise"`` — raise :class:`InjectedFault`.

    Faults target specific attempts, so ``plan.crash(3)`` crashes
    replica 3's first attempt and lets the retry — same seed —
    succeed: the canonical chaos-determinism scenario.
    """

    def __init__(self) -> None:
        self._actions: dict[tuple[int, int], str] = {}

    # -- builders ------------------------------------------------------
    def _add(self, action: str, replica: int,
             attempts: Iterable[int]) -> "FaultPlan":
        for attempt in attempts:
            if attempt < 1:
                raise ValueError(f"attempts are 1-based, got {attempt}")
            self._actions[(int(replica), int(attempt))] = action
        return self

    def crash(self, replica: int,
              attempts: Iterable[int] = (1,)) -> "FaultPlan":
        """Kill the worker abruptly on the given attempts."""
        return self._add("crash", replica, attempts)

    def hang(self, replica: int,
             attempts: Iterable[int] = (1,)) -> "FaultPlan":
        """Make the worker hang (until terminated) on the attempts."""
        return self._add("hang", replica, attempts)

    def raise_(self, replica: int,
               attempts: Iterable[int] = (1,)) -> "FaultPlan":
        """Raise :class:`InjectedFault` in the worker on the attempts."""
        return self._add("raise", replica, attempts)

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._actions)

    def action_for(self, replica: int, attempt: int) -> str | None:
        """The action planned for this (replica, attempt), if any."""
        return self._actions.get((replica, attempt))

    def apply(self, replica: int, attempt: int) -> None:
        """Execute the planned fault inside the worker (no-op when the
        plan holds nothing for this (replica, attempt))."""
        action = self.action_for(replica, attempt)
        if action is None:
            return
        if action == "raise":
            raise InjectedFault(
                f"injected fault: replica {replica} attempt {attempt}"
            )
        if action == "crash":
            os._exit(CRASH_EXIT_CODE)
        if action == "hang":
            # Hang until the supervisor terminates us — but never
            # outlive the parent: a SIGKILLed sweep must not leak an
            # immortal child, so the hang polls its parentage and
            # exits once orphaned (ppid changes when the parent dies).
            parent = os.getppid()
            while True:
                time.sleep(0.05)  # simlint: ignore[SL202]
                if os.getppid() != parent:
                    os._exit(0)
        raise ValueError(f"unknown fault action {action!r}")

    # -- serialization (env-var test hook) -----------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "faults": [
                {"replica": replica, "attempt": attempt,
                 "action": action}
                for (replica, attempt), action
                in sorted(self._actions.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        plan = cls()
        for fault in data.get("faults", []):
            plan._add(fault["action"], int(fault["replica"]),
                      (int(fault["attempt"]),))
        return plan

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan in :data:`FAULT_PLAN_ENV`, or ``None``."""
        text = os.environ.get(FAULT_PLAN_ENV)
        if not text:
            return None
        return cls.from_json(text)


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------
class JournalMismatchError(ValueError):
    """A resume journal belongs to a different sweep."""


class CheckpointJournal:
    """Append-only JSONL journal of completed :class:`ReplicaResult`\\ s.

    One JSON object per line: a greppable header (experiment, master
    seed, replica index, seed, attempts) plus the pickled result as
    base64 in ``"payload"``.  Appends are flushed per record, so a
    sweep killed mid-run loses at most the record being written; a
    truncated final line is tolerated on load.
    """

    VERSION = 1

    def __init__(self, path: str | Path, *, experiment: str,
                 master_seed: int):
        self.path = Path(path)
        self.experiment = experiment
        self.master_seed = master_seed

    def append(self, result: ReplicaResult) -> None:
        record = {
            "v": self.VERSION,
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "index": result.index,
            "seed": result.seed,
            "attempts": result.attempts,
            "payload": base64.b64encode(
                pickle.dumps(result)).decode("ascii"),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One pre-encoded write per record: a text-mode stream chunks
        # long lines through its encoder, so a concurrent reader (or a
        # kill mid-append) could observe a partial line that *counts*
        # as a record before its payload is complete.  A single
        # buffered binary write keeps each line all-or-nothing.
        data = (json.dumps(record, sort_keys=True) + "\n").encode(
            "utf-8")
        with self.path.open("ab") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        experiment: str,
        master_seed: int,
        replicas: int | None = None,
    ) -> dict[int, ReplicaResult]:
        """Completed replicas recorded in the journal at ``path``.

        Raises :class:`JournalMismatchError` when a record belongs to
        a different (experiment, master seed) — resuming someone
        else's sweep would silently merge wrong science.  Records with
        an index beyond ``replicas`` are ignored (the sweep shrank);
        the last record per index wins; a truncated trailing line
        (interrupted append) ends the read without error.
        """
        done: dict[int, ReplicaResult] = {}
        text = Path(path).read_text(encoding="utf-8")
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # interrupted final append; everything before is good
            if record.get("experiment") != experiment or (
                    record.get("master_seed") != master_seed):
                raise JournalMismatchError(
                    f"journal {path} records "
                    f"{record.get('experiment')!r} with master seed "
                    f"{record.get('master_seed')!r}; this sweep is "
                    f"{experiment!r} with master seed {master_seed!r}"
                )
            index = int(record["index"])
            if replicas is not None and index >= replicas:
                continue
            result = pickle.loads(
                base64.b64decode(record["payload"]))
            done[index] = result
        return done


# ----------------------------------------------------------------------
# The supervisor loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorPolicy:
    """Fault-tolerance knobs of one supervised sweep.

    ``timeout`` is per-attempt wall-clock seconds (``None`` = wait
    forever); ``retries`` is *extra* attempts after the first, so a
    replica runs at most ``retries + 1`` times.  Backoff before
    attempt ``n+1`` is ``min(backoff_max, backoff_base * 2**(n-1))``
    stretched by up to :data:`JITTER` (a fraction, drawn from the
    seeded supervisor RNG so sweeps stay reproducible).  ``partial``
    merges the survivors of exhausted replicas instead of raising.
    """

    timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    partial: bool = False


@dataclass
class _Attempt:
    index: int
    seed: int
    attempt: int  # 1-based: the attempt about to run
    not_before: float = 0.0  # perf_counter gate for backoff


@dataclass
class _Running:
    process: Any
    conn: Any
    task: _Attempt
    started: float
    deadline: float | None


def _worker_shell(fn: Callable[[tuple], Any],
                  payload: tuple, conn,
                  telemetry: float | None = None,
                  inherited: Sequence[Any] = ()) -> None:
    """Process target: run ``fn`` and ship the outcome up the pipe.

    A missing message (pipe closed, nonzero exit) is how the parent
    detects a crash; errors are reported as short descriptions — the
    supervisor retries by replica, it never needs the live exception.

    ``inherited`` lists the *parent-side* pipe ends this fork-context
    child copied from the supervisor — its own pipe's read end plus
    every sibling's.  They must be closed here, first thing: a result
    larger than the pipe buffer blocks in ``conn.send`` until the
    parent reads it, and if the parent is SIGKILLed mid-sweep the
    write can only fail with ``EPIPE`` (freeing the worker to exit)
    once *no* process holds a read end — a leaked copy in this child
    or a sibling would keep the blocked writer alive as an orphan
    forever.

    With ``telemetry`` set, a :class:`~repro.parallel.live.
    TelemetrySampler` thread additionally sends ``("telemetry",
    frame)`` messages every ``telemetry`` wall seconds on the *same*
    pipe — a lock serializes them against the final result send, so
    frames and results never interleave mid-message.  Telemetry is
    out-of-band gossip: the parent renders it and throws it away,
    so the merged payload is identical with it on or off.
    """
    for stale in inherited:
        stale.close()
    send_lock = threading.Lock()
    sampler: TelemetrySampler | None = None
    if telemetry is not None:
        def _send_frame(frame: dict) -> None:
            with send_lock:
                conn.send(("telemetry", frame))

        sampler = TelemetrySampler(_send_frame, interval=telemetry)
        sampler.start()
    try:
        result = fn(payload)
        if sampler is not None:
            sampler.stop()
        with send_lock:
            conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - reported, not hidden
        if sampler is not None:
            sampler.stop()
        message = f"{type(exc).__name__}: {exc}"
        try:
            with send_lock:
                conn.send(("error", message))
        except OSError:
            os._exit(1)  # parent gone; count as crash
        if isinstance(exc, KeyboardInterrupt):
            os._exit(1)
    finally:
        conn.close()


def _kill(process) -> None:
    """Terminate a worker: SIGTERM, a short grace, then SIGKILL."""
    if process.is_alive():
        process.terminate()
        process.join(TERM_GRACE)
    if process.is_alive():
        process.kill()
    process.join()


def _backoff(policy: SupervisorPolicy, attempt: int,
             rng: random.Random) -> float:
    base = min(policy.backoff_max,
               policy.backoff_base * (2 ** max(0, attempt - 1)))
    return base * (1.0 + JITTER * rng.random())


def supervise(
    tasks: Sequence[tuple[int, int]],
    *,
    worker: Callable[[tuple], Any],
    make_payload: Callable[[int, int, int], tuple],
    ctx,
    workers: int,
    policy: SupervisorPolicy,
    rng: random.Random,
    on_result: Callable[[Any], None] | None = None,
    telemetry: float | None = None,
    on_event: Callable[[str, dict[str, Any]], None] | None = None,
) -> tuple[dict[int, Any], list[ReplicaFailure]]:
    """Run ``tasks`` (``(index, seed)`` pairs) to completion under the
    fault-tolerance ``policy``.

    Spawns one fresh process per attempt (``worker`` receives
    ``make_payload(index, seed, attempt)`` and returns any picklable
    value), collects results asynchronously, retries
    timeouts/crashes/errors with backoff, and returns ``(results by
    index, exhausted failures)``.  An ``on_result`` raise aborts the
    sweep.  Raises
    :class:`ReplicaFailedError` at the first exhausted replica unless
    ``policy.partial``.  On *any* exit — including
    ``KeyboardInterrupt`` — every child still running is terminated
    and joined before the exception propagates: a cancelled sweep
    leaves no orphan processes.

    ``telemetry`` (wall seconds) makes every worker stream heartbeat
    frames up its result pipe; ``on_event`` receives them as
    ``("telemetry", {index, attempt, wall, sim_now, events_executed,
    events_per_sec, ...})`` plus the lifecycle events ``("start",
    ...)``, ``("done", ...)``, ``("retry", ...)`` and ``("failed",
    ...)``.  The callback is display-plumbing: exceptions it raises
    are swallowed (a broken progress bar must not kill a sweep), and
    nothing it observes can reach the merged payload.  Telemetry
    frames never extend a replica's ``policy.timeout`` deadline — a
    hung simulation with a live heartbeat thread is still hung.
    """
    def emit(kind: str, info: dict[str, Any]) -> None:
        if on_event is None:
            return
        try:
            on_event(kind, info)
        except Exception:  # simlint: ignore[SL207] - display-only
            pass
    pending: list[_Attempt] = [
        _Attempt(index=index, seed=seed, attempt=1)
        for index, seed in tasks
    ]
    running: list[_Running] = []
    results: dict[int, Any] = {}
    failures: list[ReplicaFailure] = []
    effective = max(1, min(int(workers), max(1, len(pending))))
    spawn_failures = 0
    crash_streak = 0

    def handle_failure(task: _Attempt, message: str,
                       *, crashed: bool) -> None:
        nonlocal crash_streak, effective
        if crashed:
            crash_streak += 1
            if crash_streak > CRASH_SHRINK_AFTER:
                effective = max(1, effective - 1)
        if task.attempt <= policy.retries:
            pending.append(_Attempt(
                index=task.index,
                seed=task.seed,
                attempt=task.attempt + 1,
                not_before=(time.perf_counter()
                            + _backoff(policy, task.attempt, rng)),
            ))
            emit("retry", {"index": task.index, "seed": task.seed,
                           "attempt": task.attempt + 1,
                           "error": message})
            return
        failure = ReplicaFailure(index=task.index, seed=task.seed,
                                 attempts=task.attempt, error=message)
        failures.append(failure)
        emit("failed", {"index": task.index, "seed": task.seed,
                        "attempts": task.attempt, "error": message})
        if not policy.partial:
            raise ReplicaFailedError([failure])

    def finish(record: _Running, message: tuple | None) -> None:
        nonlocal crash_streak
        if message is None:
            record.process.join()  # reap first, so exitcode is real
            kind, value = "crash", (
                f"worker crashed without a result "
                f"(exit code {record.process.exitcode})"
            )
        else:
            kind, value = message
        record.conn.close()
        record.process.join()
        if kind == "ok":
            crash_streak = 0
            results[record.task.index] = value
            emit("done", {"index": record.task.index,
                          "seed": record.task.seed,
                          "attempts": record.task.attempt,
                          "wall_seconds": (time.perf_counter()
                                           - record.started)})
            if on_result is not None:
                on_result(value)
        else:
            handle_failure(record.task, str(value),
                           crashed=(kind == "crash"))

    try:
        while pending or running:
            now = time.perf_counter()
            # Launch every ready task a free slot can take, in replica
            # order (retries queue behind first attempts naturally).
            ready = [t for t in pending if t.not_before <= now]
            while ready and len(running) < effective:
                task = ready.pop(0)
                try:
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    # A fork-context child copies every open fd, so it
                    # must close the parent-side pipe ends it inherits
                    # (its own and its running siblings') — otherwise
                    # a worker blocked sending a larger-than-buffer
                    # result never sees EPIPE after the parent dies
                    # and leaks as an orphan.  Spawn children inherit
                    # nothing, and Connections don't pickle into them.
                    method = getattr(ctx, "get_start_method",
                                     lambda: "fork")()
                    stale_ends = (
                        [record.conn for record in running]
                        + [parent_conn]
                        if method == "fork" else [])
                    # daemon=True: if a signal lands between start()
                    # and the bookkeeping below, interpreter exit
                    # *terminates* the stray child instead of joining
                    # it — joining would deadlock against a worker
                    # that only quits once its parent is gone.
                    process = ctx.Process(
                        target=_worker_shell,
                        args=(worker,
                              make_payload(task.index, task.seed,
                                           task.attempt),
                              child_conn, telemetry, stale_ends),
                        daemon=True,
                    )
                    # Frozen objects sit in the permanent generation,
                    # which a fork child's collector never walks: the
                    # child neither pays for a pass over the parent's
                    # heap nor dirties (copies) its pages doing so.
                    gc.freeze()
                    try:
                        process.start()
                    finally:
                        gc.unfreeze()
                except OSError as error:
                    spawn_failures += 1
                    if spawn_failures >= MAX_SPAWN_FAILURES:
                        raise
                    # Degrade instead of aborting: halve the pool and
                    # back the task off — fork failures are almost
                    # always transient resource exhaustion.
                    effective = max(1, effective // 2)
                    task.not_before = (
                        time.perf_counter()
                        + _backoff(policy, spawn_failures, rng))
                    del error
                    break
                child_conn.close()
                pending.remove(task)
                running.append(_Running(
                    process=process,
                    conn=parent_conn,
                    task=task,
                    started=now,
                    deadline=(now + policy.timeout
                              if policy.timeout is not None else None),
                ))
                emit("start", {"index": task.index, "seed": task.seed,
                               "attempt": task.attempt})
            if not running:
                if pending:
                    delay = max(0.0, min(t.not_before for t in pending)
                                - time.perf_counter())
                    # Everyone is backing off; the supervisor itself
                    # is the only thing awake to wait for them.
                    time.sleep(min(delay, 0.25))  # simlint: ignore[SL202]
                continue

            # Sleep until a result arrives or the nearest deadline /
            # backoff expiry, whichever is first.
            now = time.perf_counter()
            wakeups = [r.deadline - now for r in running
                       if r.deadline is not None]
            wakeups += [t.not_before - now for t in pending
                        if t.not_before > now]
            timeout = max(0.0, min(wakeups)) if wakeups else None
            ready_conns = _mp_connection.wait(
                [r.conn for r in running], timeout)

            for conn in ready_conns:
                record = next(r for r in running if r.conn is conn)
                try:
                    message = record.conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is not None and message[0] == "telemetry":
                    # Heartbeat, not a result: the replica stays
                    # running (and keeps its original deadline).
                    emit("telemetry", {
                        "index": record.task.index,
                        "attempt": record.task.attempt,
                        **message[1],
                    })
                    continue
                running.remove(record)
                finish(record, message)

            now = time.perf_counter()
            for record in [r for r in running
                           if r.deadline is not None
                           and r.deadline <= now]:
                running.remove(record)
                _kill(record.process)
                record.conn.close()
                # The wall clock only decides *whether* a hung
                # replica is retried; the retry reuses the replica's
                # original derived seed, so results stay a pure
                # function of the master seed.
                # simlint: ignore[SF307]
                handle_failure(
                    record.task,
                    f"replica hung: no result within "
                    f"{policy.timeout:g}s (worker terminated)",
                    crashed=True,
                )
    finally:
        # Ctrl-C, a raise, or a clean return all come through here:
        # no child may outlive the sweep.
        for record in running:
            _kill(record.process)
            record.conn.close()

    return results, failures
