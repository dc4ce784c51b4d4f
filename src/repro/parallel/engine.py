"""Multiprocessing replication engine.

:func:`run_replicated` fans one experiment out over ``replicas``
independent replicas onto ``workers`` OS processes and merges the
results deterministically:

* replica *i* runs with seed ``replica_seed(master_seed, i)`` —
  derived through :meth:`RandomStreams.fork`, whose ``"fork:"``-
  prefixed hashing guarantees the replica's streams can never collide
  with the parent run's plain streams (see
  :func:`repro.utils.rng.derive_seed`);
* workers ship back plain picklable :class:`~repro.parallel.merge.
  ReplicaResult` records — including a kernel-counter snapshot, since
  the process-global :func:`~repro.des.kernel_counters` of a worker
  is invisible to the parent — and the parent merges them in replica-
  index order regardless of completion order;
* the merged payload is byte-identical (modulo the timing and
  execution-geometry fields removed by
  :meth:`ExperimentResult.strip_timings`) for any worker count.

Execution is **fault tolerant**: replicas run under the
:mod:`repro.parallel.supervisor`, which retries crashed or erroring
workers with exponential backoff, terminates and requeues hung
replicas past ``replica_timeout``, streams completed results into a
checkpoint journal an interrupted sweep can ``resume=`` from, and —
because a retried replica reruns the *same* derived seed — keeps the
byte-identical merge contract intact through all of it.

:func:`parallel_map` is the generic all-or-nothing primitive on the
same supervisor (no retries), used by the SA mapper's multi-start
mode (:func:`repro.noc.parallel_annealing_mapping`).

This module is the **only** sanctioned home for ``multiprocessing``
in the repository: the SL206 lint rule flags process fan-out
anywhere else, because ad-hoc pools silently break the seed-derivation
and counter-merging contracts centralised here.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from repro import experiments
from repro.des import kernel_counters
from repro.obs.slo import as_slo_specs
from repro.obs.timeseries import as_probe_spec
from repro.parallel.live import DEFAULT_TELEMETRY_INTERVAL, SweepView
from repro.parallel.merge import ReplicaResult, merge_replicas
from repro.parallel.supervisor import (
    CheckpointJournal,
    FaultPlan,
    ParallelItemError,
    ReplicaFailedError,
    SupervisorPolicy,
    supervise,
)
from repro.utils.rng import RandomStreams

__all__ = ["fork_seed", "replica_seed", "parallel_map",
           "run_replicated"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def fork_seed(master_seed: int, name: str) -> int:
    """The master seed of ``RandomStreams(master_seed).fork(name)``.

    Forked seeds hash under a ``"fork:"`` prefix, so streams drawn
    from a fork can never collide with streams drawn from the parent
    by plain :meth:`~repro.utils.rng.RandomStreams.get`.
    """
    return RandomStreams(master_seed).fork(name).master_seed


def replica_seed(master_seed: int, index: int) -> int:
    """Deterministic per-replica seed: a pure function of the master
    seed and the replica index, independent of worker count and
    scheduling order."""
    if index < 0:
        raise ValueError(f"replica index must be >= 0, got {index}")
    return fork_seed(master_seed, f"replica/{index}")


def _context() -> multiprocessing.context.BaseContext:
    # fork is dramatically cheaper (no re-import of the repro stack
    # per worker) and available on the platforms we target (Linux).
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # the platform has no fork
        return multiprocessing.get_context("spawn")


def _call_captured(payload: tuple) -> tuple:
    """One :func:`parallel_map` item as ``(index, result, error)``; the
    error is a value so its type survives the trip from a worker."""
    fn, index, item = payload
    try:
        return index, fn(item), None
    except Exception as exc:
        return index, None, exc


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: int | None = None,
) -> list[_R]:
    """Map ``fn`` over ``items`` on worker processes, in input order.

    ``workers=None`` uses ``os.cpu_count()``, capped at the number of
    items.  Each item runs in a fresh process under
    :func:`~repro.parallel.supervisor.supervise` (``fork`` where the
    platform offers it, else ``spawn``).  ``workers<=1`` maps inline
    in this process — only safe for *pure* functions; anything
    touching process-global state (like experiment replicas, which
    reset kernel counters) must go through :func:`run_replicated`.

    **All-or-nothing:** the first item whose ``fn`` raises aborts the
    map with a :class:`~repro.parallel.supervisor.ParallelItemError`
    naming the input ``index`` and ``item``, with the exception as
    ``original`` (and ``__cause__``); a worker that dies without a
    result gives a :class:`~repro.parallel.supervisor.
    ReplicaFailedError` as ``original``.  In-flight siblings are
    terminated; nothing is retried.  Work that must survive
    individual failures belongs in :func:`run_replicated`, whose
    supervisor retries per replica.
    """
    items = list(items)
    if not items:
        return []
    if workers is None:
        workers = multiprocessing.cpu_count()
    workers = max(1, min(int(workers), len(items)))

    def unwrap(outcome: tuple) -> Any:
        index, result, error = outcome
        if error is not None:
            raise ParallelItemError(index, items[index], error) from error
        return result

    if workers <= 1:
        return [unwrap(_call_captured((fn, i, item)))
                for i, item in enumerate(items)]
    try:
        outcomes, _ = supervise(
            [(index, 0) for index in range(len(items))],
            worker=_call_captured,
            make_payload=lambda index, _seed, _attempt: (
                fn, index, items[index]),
            ctx=_context(),
            workers=workers,
            policy=SupervisorPolicy(retries=0),
            rng=random.Random(0),
            on_result=unwrap,
        )
    except ReplicaFailedError as error:
        raise ParallelItemError(
            error.index, items[error.index], error) from error
    return [unwrap(outcomes[index]) for index in range(len(items))]


def _run_replica(payload: tuple) -> ReplicaResult:
    """Worker body: run one replica and ship back a plain record.

    Runs in a child process; resetting the (process-local) kernel
    counters first makes the shipped snapshot exactly this replica's
    kernel activity.  Any planned chaos fault for this
    ``(replica, attempt)`` fires *before* the experiment runs — a
    crashed/hung/raised attempt therefore never produces a partial
    result, and the retry (same seed) reproduces the clean payload.
    """
    exp_id, index, seed, verify, attempt, plan, probe, slo = payload
    if plan is None:
        plan = FaultPlan.from_env()
    if plan is not None:
        plan.apply(index, attempt)
    # Collect any objects inherited from the parent (or a previous
    # task in this process) *before* the timed run, so that freeing
    # them is not charged to this replica.
    gc.collect()
    counters = kernel_counters()
    counters.reset()
    start = time.perf_counter()
    result = experiments.run(exp_id, seed=seed, verify=verify,
                             probe=probe, slo=slo)
    wall = time.perf_counter() - start
    return ReplicaResult(
        index=index,
        seed=seed,
        kpis=dict(result.metrics),
        tables=list(result.tables),
        report=result.report,
        registry=result.registry,
        kernel=counters.snapshot(),
        wall_seconds=wall,
        attempts=attempt,
    )


def run_replicated(
    exp_id: str,
    *,
    replicas: int,
    workers: int | None = None,
    seed: int | None = None,
    verify: bool = True,
    replica_timeout: float | None = None,
    retries: int = 2,
    backoff_base: float = 0.05,
    partial: bool = False,
    checkpoint: str | Path | None = None,
    resume: str | Path | None = None,
    fault_plan: FaultPlan | None = None,
    probe: Any = None,
    slo: Any = None,
    live: bool = False,
    telemetry: float | None = None,
    on_event: Callable[[str, dict], None] | None = None,
):
    """Run ``replicas`` independent replicas of one experiment and
    merge them into a pooled :class:`ExperimentResult`.

    Parameters
    ----------
    exp_id:
        Experiment id (case-insensitive), as for
        :func:`repro.experiments.run`.
    replicas:
        Number of independent replicas; replica *i* runs with
        :func:`replica_seed(master, i) <replica_seed>`.
    workers:
        Worker processes (default ``os.cpu_count()``, capped at
        ``replicas``).  **Every** worker count — including 1 — runs
        replicas in child processes: a replica resets its process-
        global kernel counters, so running it inline would clobber
        the parent's, and keeping one code path is what makes the
        workers=1 and workers=16 payloads byte-identical.  Each
        attempt gets a *fresh* process, so no replica ever observes
        interpreter state left behind by another.  Workers start with
        ``fork`` where the platform offers it, else ``spawn``.
    seed:
        Master seed (default 0, matching ``experiments.run``).
    verify:
        Pre-flight the experiment's models in the **parent** before
        any worker starts (fail fast, once) and skip re-verification
        in the workers.
    replica_timeout:
        Per-attempt wall-clock budget in seconds; a replica past it is
        terminated and retried.  ``None`` (default) waits forever.
    retries:
        Extra attempts after the first for a crashed, hung, or
        erroring replica (default 2; every attempt reruns the same
        derived seed, so retries never change the merged payload).
    backoff_base:
        First delay of the exponential backoff between attempts,
        stretched by deterministic jitter from a seed-derived RNG.
    partial:
        When a replica exhausts every attempt, merge the surviving
        replicas (with the casualties accounted in
        ``report.replication["failed_replicas"]``) instead of raising
        :class:`~repro.parallel.supervisor.ReplicaFailedError`.
    checkpoint:
        Append each completed replica to this JSONL journal
        (:class:`~repro.parallel.supervisor.CheckpointJournal`).
    resume:
        Load completed replicas from this journal and skip them; new
        completions keep appending to the same journal unless a
        separate ``checkpoint`` path is given.  A journal recorded by
        a different (experiment, master seed) sweep is rejected.
    fault_plan:
        Chaos-harness injection
        (:class:`~repro.parallel.supervisor.FaultPlan`): crash, hang,
        or raise inside chosen ``(replica, attempt)`` workers.  Test
        hook — production sweeps leave it ``None`` (workers then
        honour the :data:`~repro.parallel.supervisor.FAULT_PLAN_ENV`
        variable, so subprocess-driven tests can inject too).
    probe:
        KPI time-series probe for every replica, as accepted by
        :func:`repro.obs.timeseries.as_probe_spec` (``True``, an
        interval, or a :class:`~repro.obs.timeseries.ProbeSpec`).
        Probe series sample *simulated* time only, so they merge
        byte-identically across worker counts like every other
        metric.
    slo:
        Service-level objectives, as accepted by
        :func:`repro.obs.slo.as_slo_specs`.  Each replica evaluates
        them independently; the merged report carries the per-replica
        verdicts and a pooled verdict in ``report.slo``.
    live:
        Render live sweep progress to stderr via a
        :class:`~repro.parallel.live.SweepView` (implies telemetry at
        :data:`~repro.parallel.live.DEFAULT_TELEMETRY_INTERVAL` when
        ``telemetry`` is unset).  Display only: the merged payload is
        byte-identical with ``live`` on or off.
    telemetry:
        Wall-clock seconds between out-of-band telemetry frames from
        each worker (``None`` disables frames unless ``live`` turns
        them on).  Frames ride the existing result pipes and never
        reach the merged payload.
    on_event:
        Callback ``(kind, info)`` for supervisor lifecycle events
        (``start``/``telemetry``/``done``/``retry``/``failed``).
        Overrides the default live renderer; exceptions raised by the
        callback are swallowed.

    Returns the pooled :class:`~repro.experiments.result.
    ExperimentResult`; ``result.report.replication`` carries the
    across-replica KPI statistics, per-replica seeds, summed kernel
    counters, per-replica wall times and attempt counts, and the
    failed-replica accounting.  The parent's own
    :func:`~repro.des.kernel_counters` are advanced by the merged
    worker totals, so cross-process kernel activity is visible
    exactly once.  A ``KeyboardInterrupt`` mid-sweep terminates and
    joins every worker before re-raising — no orphan processes — and
    a later ``resume=`` picks the sweep up from its journal.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    experiment = experiments.get(exp_id)
    if verify and experiment.scenario is not None:
        from repro.check import ModelVerificationError, has_errors

        diagnostics = experiments.preflight(exp_id)
        if has_errors(diagnostics):
            raise ModelVerificationError(diagnostics)
    master = 0 if seed is None else int(seed)
    if workers is None:
        workers = multiprocessing.cpu_count()
    workers = max(1, min(int(workers), replicas))

    probe_spec = as_probe_spec(probe)
    slo_specs = as_slo_specs(slo)
    if live:
        if telemetry is None:
            telemetry = DEFAULT_TELEMETRY_INTERVAL
        if on_event is None:
            on_event = SweepView(stream=sys.stderr).handle

    done: dict[int, ReplicaResult] = {}
    if resume is not None and Path(resume).exists():
        done = CheckpointJournal.load(
            resume, experiment=experiment.id, master_seed=master,
            replicas=replicas)
    journal_path = checkpoint if checkpoint is not None else resume
    journal = (CheckpointJournal(journal_path,
                                 experiment=experiment.id,
                                 master_seed=master)
               if journal_path is not None else None)

    tasks = [(index, replica_seed(master, index))
             for index in range(replicas) if index not in done]
    policy = SupervisorPolicy(
        timeout=replica_timeout,
        retries=retries,
        backoff_base=backoff_base,
        partial=partial,
    )
    # Jitter draws are seeded off the master so a sweep's retry
    # schedule is reproducible; the draws only pace retries — they
    # can never reach the merged payload.
    rng = random.Random(fork_seed(master, "supervisor/backoff"))

    def make_payload(index: int, seed_i: int, attempt: int) -> tuple:
        return (experiment.id, index, seed_i, False, attempt,
                fault_plan, probe_spec, slo_specs)

    start = time.perf_counter()
    fresh, failures = supervise(
        tasks,
        worker=_run_replica,
        make_payload=make_payload,
        ctx=_context(),
        workers=workers,
        policy=policy,
        rng=rng,
        on_result=journal.append if journal is not None else None,
        telemetry=telemetry,
        on_event=on_event,
    )
    wall = time.perf_counter() - start

    results = sorted([*done.values(), *fresh.values()],
                     key=lambda r: r.index)
    if not results:
        # partial=True but nothing survived: there is no result to
        # degrade to, so this is a hard failure after all.
        raise ReplicaFailedError(failures)

    parent_counters = kernel_counters()
    for replica in results:
        parent_counters.merge(replica.kernel)

    return merge_replicas(
        experiment.id,
        experiment.claim,
        results,
        master_seed=master,
        workers=workers,
        wall_seconds=wall,
        failed=failures,
        resumed=len(done),
    )
