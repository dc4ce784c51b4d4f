"""Workloads of the benchmark: which experiments run, and how each
operation is timed and checked.

One *operation* is one experiment id run once: ``experiments.run`` for
the in-process workloads, ``parallel.run_replicated`` for ``sweep``.
One *pass* runs every id of the workload once, in a fixed order, in a
fresh fork of the prepared benchmark process (:func:`in_fork`).  An
operation fails when it raises, when a replica of a sweep ends up
failed, or when the paper-claim asserts of its
``benchmarks/bench_<id>_*.py`` module reject its result.  Alongside
the time, every operation yields a fingerprint (its seeded KPIs and
the exact kernel counts) that must repeat on every pass of a run.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import inspect
import io
import multiprocessing
import os
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLAIMS_DIR = ROOT / "benchmarks"

#: Replicas per ``run_replicated`` call on ``sweep``.
SWEEP_REPLICAS = 2

#: KPIs that record host wall time rather than a simulated statistic;
#: they are left out of the fingerprint because they never repeat.
HOST_TIMED_KPIS = frozenset({
    "analysis_speedup",      # e10: simulation time / analysis time
    "exact_seconds_final",   # e17: CTMC solve time
    "sim_seconds_final",     # e17: DES run time
})

#: Thread-pool sizes of the BLAS and OpenMP runtimes numpy may load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

#: Model packages imported before timing starts, so that the first
#: pass does not pay for imports the runners make lazily.
MODEL_PACKAGES = ("ambient", "analysis", "asip", "core", "manet", "noc",
                  "resilience", "streaming", "streams", "traffic",
                  "wireless", "parallel", "check", "scenario")


@dataclass(frozen=True)
class Workload:
    """A fixed list of experiment ids and the seeds it may run at."""

    name: str
    ids: tuple[str, ...]
    sweep: bool
    #: Experiment seeds whose paper claims all hold on this code; the
    #: benchmark seed picks one (see ``experiment_seed``).
    seeds: tuple[int, ...]


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("analytic",
                 ("f2", "e1", "e2", "e3", "e4", "e6", "e7", "e8", "e9",
                  "e15"),
                 sweep=False,
                 seeds=(0, 3, 9, 10, 11, 12, 13, 14, 18, 22, 23)),
        Workload("des-deep", ("e5", "e12", "e13"), sweep=False,
                 seeds=tuple(range(24))),
        Workload("sweep",
                 ("f1", "e10", "e11", "e14", "e16", "e17", "r1"),
                 sweep=True,
                 seeds=(0, 9, 10, 12, 13, 17, 20, 22, 24, 25, 27, 30, 31,
                        35, 36, 37, 40, 41, 42, 43, 44, 47)),
    )
}


def experiment_seed(workload: Workload, seed: int) -> int:
    """The experiment seed (or sweep master seed) for benchmark seed
    ``seed``: a pure function of it, drawn from the vetted list."""
    return workload.seeds[seed % len(workload.seeds)]


def limit_threads() -> None:
    """One BLAS/OpenMP thread in this process and in every child it
    starts; effective only before numpy is first imported (NOTES.md,
    "Threads and processes")."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def host_cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has waited
    for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def load_claims(exp_id: str) -> list[Callable[[Callable], None]]:
    """The ``bench_*`` claim functions of ``benchmarks/bench_<id>_*.py``.

    Each takes one ``experiment`` fixture; the benchmark passes a
    stand-in that returns a result it already computed, so no claim
    band is copied here.
    """
    matches = sorted(CLAIMS_DIR.glob(f"bench_{exp_id}_*.py"))
    if len(matches) != 1:
        raise RuntimeError(f"expected one claim module for {exp_id}, "
                           f"found {[m.name for m in matches]}")
    spec = importlib.util.spec_from_file_location(
        f"_claims_{exp_id}", matches[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    claims = [value for name, value in vars(module).items()
              if name.startswith("bench_") and inspect.isfunction(value)]
    for claim in claims:
        params = list(inspect.signature(claim).parameters)
        if params != ["experiment"]:
            raise RuntimeError(f"{matches[0].name}:{claim.__name__} takes "
                               f"{params}, expected ['experiment']")
    if not claims:
        raise RuntimeError(f"{matches[0].name} defines no bench_* claim")
    return claims


def claim_failures(claims: list[Callable], result: Any) -> list[str]:
    """Run every claim against ``result``; one line per failed claim."""
    failures = []
    for claim in claims:
        try:
            with redirect_stdout(io.StringIO()):  # claims print tables
                claim(lambda *args, **kwargs: result)
        except Exception as exc:  # any raise means the claim failed
            frames = [frame for frame in traceback.extract_tb(
                exc.__traceback__)
                if frame.filename == claim.__code__.co_filename]
            where = (f" at line {frames[-1].lineno}: {frames[-1].line}"
                     if frames else "")
            failures.append(f"{claim.__name__}: {type(exc).__name__}"
                            f"{where}")
    return failures


def fingerprint(result: Any, kernel: dict[str, int]) -> tuple:
    """What must repeat exactly on every run of one (id, seed), traced
    or not.

    ``events_scheduled`` is left out: it also counts the clean-up
    events that finalizers of suspended simulation generators schedule
    when the cycle collector reaches them, so anything that allocates
    (the sampling profiler does) can move it.  It is compared only
    between passes that run without the profiler.
    """
    kpis = tuple(sorted((name, repr(value))
                        for name, value in result.metrics.items()
                        if name not in HOST_TIMED_KPIS))
    counts = tuple(sorted((name, value) for name, value in kernel.items()
                          if name != "events_scheduled"))
    replication = result.report.replication or {}
    geometry = (replication.get("replicas"),
                sum(replication.get("attempts", ())))
    return kpis, counts, geometry


@dataclass
class OpRecord:
    """One timed operation."""

    exp_id: str
    wall: float
    cpu: float
    failures: list[str] = field(default_factory=list)
    fingerprint: tuple | None = None
    kernel: dict[str, int] = field(default_factory=dict)
    replication: dict[str, Any] | None = None


class Runner:
    """Runs passes of one workload at one experiment seed.

    Construction loads the claim modules and imports the model
    packages; :meth:`close` undoes the one patch a sweep needs.
    """

    def __init__(self, workload: Workload, exp_seed: int):
        from repro import experiments, parallel
        from repro.des import kernel_counters

        self.workload = workload
        self.exp_seed = exp_seed
        self._experiments = experiments
        self._parallel = parallel
        self._counters = kernel_counters()
        for package in MODEL_PACKAGES:
            importlib.import_module(f"repro.{package}")
        self.claims = {exp_id: load_claims(exp_id)
                       for exp_id in workload.ids}
        self._restore: Callable[[], None] | None = None
        if workload.sweep:
            self._check_claims_in_replicas()

    def _check_claims_in_replicas(self) -> None:
        """Check the claims inside each sweep replica.

        A replica's native result never leaves its worker, so the
        check runs there: ``repro.experiments.run`` (the name the
        replica worker looks up) is wrapped before the workers fork,
        and each replica that fails a claim writes one byte to a pipe
        this process reads after the operation.
        """
        read_end, write_end = os.pipe()
        os.set_blocking(read_end, False)
        original = self._experiments.run
        claims = self.claims

        def run_and_check(*args, **kwargs):
            result = original(*args, **kwargs)
            if claim_failures(claims[result.id], result):
                os.write(write_end, b"!")
            return result

        self._experiments.run = run_and_check
        self._failure_pipe = read_end

        def restore() -> None:
            self._experiments.run = original
            os.close(read_end)
            os.close(write_end)

        self._restore = restore

    def _replica_claim_failures(self) -> int:
        """Replicas that failed a claim since the last call."""
        failed = 0
        while True:
            try:
                chunk = os.read(self._failure_pipe, 4096)
            except BlockingIOError:
                return failed
            failed += len(chunk)

    def close(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    def run_op(self, exp_id: str,
               around: Callable[[], Any] = nullcontext) -> OpRecord:
        """Time one operation, run inside ``around()``, then check its
        output."""
        gc.collect()  # earlier garbage must not finalize into the counts
        self._counters.reset()
        cpu0 = host_cpu_seconds()
        start = time.perf_counter()
        try:
            with around():
                if self.workload.sweep:
                    result = self._parallel.run_replicated(
                        exp_id, replicas=SWEEP_REPLICAS, workers=1,
                        seed=self.exp_seed)
                else:
                    result = self._experiments.run(exp_id,
                                                   seed=self.exp_seed)
        except Exception as exc:  # a raising operation is a failed one
            wall = time.perf_counter() - start
            cpu = host_cpu_seconds() - cpu0
            if self.workload.sweep:
                self._replica_claim_failures()  # belongs to this op
            return OpRecord(exp_id, wall, cpu,
                            failures=[f"raised {type(exc).__name__}: "
                                      f"{exc}".splitlines()[0]])
        wall = time.perf_counter() - start
        cpu = host_cpu_seconds() - cpu0
        kernel = self._counters.snapshot()
        record = OpRecord(exp_id, wall, cpu, kernel=kernel,
                          fingerprint=fingerprint(result, kernel),
                          replication=result.report.replication)
        if self.workload.sweep:
            failed = self._replica_claim_failures()
            if failed:
                record.failures.append(
                    f"{failed} replica(s) failed a claim")
            if record.replication["failed_replicas"]:
                record.failures.append("a replica failed to run")
        else:
            record.failures.extend(
                claim_failures(self.claims[exp_id], result))
        return record

    def run_pass(self, around: Callable[[], Any] = nullcontext
                 ) -> list[OpRecord]:
        """Every id of the workload once, in order."""
        return [self.run_op(exp_id, around)
                for exp_id in self.workload.ids]


def in_fork(task: Callable[[], Any]) -> Any:
    """Run ``task`` in a fork of this process and return its result.

    The benchmark runs each pass this way, so every pass starts from
    the same prepared state: packages imported and claims loaded, but
    the program's module-level memos as empty as in a fresh
    ``repro run``.  The parent only waits, so one process is busy at a
    time.
    """
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def body() -> None:
        reader.close()
        try:
            outcome = ("ok", task())
        except Exception:  # reported by the parent, which raises
            outcome = ("error", traceback.format_exc())
        writer.send(outcome)
        writer.close()

    sys.stdout.flush()
    sys.stderr.flush()
    process = context.Process(target=body, name="perfbench-pass")
    process.start()
    writer.close()
    try:
        status, value = reader.recv()
    except EOFError:
        status, value = "error", "pass process died without a result"
    finally:
        reader.close()
        process.join()
    if status != "ok":
        raise RuntimeError(f"pass failed (exit code {process.exitcode}):"
                           f"\n{value}")
    return value
