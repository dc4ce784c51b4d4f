#!/usr/bin/env python3
"""Benchmark of the reproduction, end to end and layer by layer.

Run from the root of the repository::

    python3 perfbench/run.py --workload analytic --seed 0 --seconds 30 \\
        --trace 0

Progress and failures go to stderr.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
listed in ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones, and the spans of the traced pass are written to
``.perfbench/``.  ``perfbench/NOTES.md`` explains the workloads, the
metrics and which layer should move which end-to-end number.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import (ROOT, SRC, WORKLOADS, Runner, experiment_seed,
                       in_fork, limit_threads)

limit_threads()  # before anything imports numpy

HERE = Path(__file__).resolve().parent
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"

#: Fewest timed passes in one run, however long a pass takes.
MIN_PASSES = 3
#: Fresh processes timed for ``setup_s``.
SETUP_REPEATS = 5

SETUP_PROBE = """\
import time
start = time.perf_counter()
from repro import experiments
imported = time.perf_counter()
experiments.ids()
ready = time.perf_counter()
print(imported - start, ready - imported, flush=True)
"""


def measure_setup() -> dict[str, float]:
    """Median launch-to-ready time of a fresh process that imports
    ``repro.experiments`` and loads the experiment registry.

    Called after this process imported the package, so the bytecode
    caches are warm, as they are for every ``repro run`` but the
    first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    totals, imports, registries = [], [], []
    for _ in range(SETUP_REPEATS):
        launched = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            if probe.wait(timeout=120) != 0 or not line:
                raise RuntimeError("set-up probe process failed")
        import_s, registry_s = map(float, line.split())
        totals.append(ready - launched)
        imports.append(import_s)
        registries.append(registry_s)
    return {"setup_s": statistics.median(totals),
            "setup.import_s": statistics.median(imports),
            "setup.registry_s": statistics.median(registries)}


def calibrate() -> float:
    """Seconds of a fixed Python-plus-numpy loop: a reference for how
    fast the host is right now.  Reported, never used to normalise."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i % 7
    matrix = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    for _ in range(150):
        matrix = np.tanh(matrix @ matrix.T / 160.0)
    return time.perf_counter() - start


def pass_wall(ops) -> float:
    return sum(op.wall for op in ops)


def best_of_passes(passes, attr: str) -> float:
    """Each operation's fastest ``attr`` over the passes, summed.

    Interference from the rest of the host only ever adds time, and on
    a shared VM it comes in phases of seconds, so the per-operation
    minimum over interleaved passes is the steadiest estimate of the
    program's own cost (NOTES.md, "Estimator").
    """
    fastest: dict[str, float] = {}
    for ops in passes:
        for op in ops:
            value = getattr(op, attr)
            fastest[op.exp_id] = min(fastest.get(op.exp_id, value), value)
    return sum(fastest.values())


def fingerprint(op):
    return op.fingerprint


def scheduled(op):
    return op.kernel.get("events_scheduled")


def differing_ids(passes, key) -> set[str]:
    """Ids whose ``key(op)`` differs from the first pass's."""
    expected = {op.exp_id: key(op) for op in passes[0]}
    return {op.exp_id for ops in passes[1:] for op in ops
            if key(op) is not None
            and expected.get(op.exp_id) is not None
            and key(op) != expected[op.exp_id]}


def peak_rss_mb(sweep: bool) -> float:
    """Peak RSS of this process, or of its largest child on a sweep."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if sweep
                               else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def end_to_end(runner, workload, seconds: float, setup: dict):
    """Passes until the next one would end past ``seconds`` (at least
    ``MIN_PASSES``); times are best of passes, memory the median."""
    def measured_pass():
        return runner.run_pass(), peak_rss_mb(workload.sweep)

    start = time.perf_counter()
    passes, peaks, durations = [], [], []
    while (len(passes) < MIN_PASSES or time.perf_counter() - start
           + statistics.median(durations) <= seconds):
        began = time.perf_counter()
        ops, peak = in_fork(measured_pass)
        passes.append(ops)
        peaks.append(peak)
        durations.append(time.perf_counter() - began)
    values = {
        "wall_s": best_of_passes(passes, "wall"),
        "cpu_s": best_of_passes(passes, "cpu"),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": statistics.median(peaks),
    }
    print(f"[perfbench] {len(passes)} passes, wall "
          f"{[round(pass_wall(p), 3) for p in passes]}", file=sys.stderr)
    print("[perfbench] op walls " + json.dumps(
        {op.exp_id: [o.wall for p in passes for o in p
                     if o.exp_id == op.exp_id] for op in passes[0]}),
        file=sys.stderr)
    return passes, values, []


def per_layer(runner, workload, setup: dict, trace_path: Path):
    """One plain pass, one pass with spans, and (in-process workloads)
    one pass under the sampling profiler, each after a host
    calibration."""
    import layers
    from repro.obs.perf import Profiler

    def spanned_pass():
        recorder = layers.SpanRecorder()
        layers.install_spans(recorder)
        try:
            return runner.run_pass(), recorder
        finally:
            recorder.restore()

    def sampled_pass():
        folded: dict[str, float] = {}

        @contextmanager
        def sampled():
            profiler = Profiler(mode="sample", trace=False)
            with profiler:
                yield
            for stack, seconds in profiler.report.folded.items():
                folded[stack] = folded.get(stack, 0.0) + seconds

        return runner.run_pass(around=sampled), folded

    calibrations = [calibrate()]
    plain = in_fork(runner.run_pass)
    calibrations.append(calibrate())
    spanned, recorder = in_fork(spanned_pass)
    recorder.write(trace_path)
    passes = [plain, spanned]

    profiled = []
    self_time = dict.fromkeys(layers.SELF_LAYERS, 0.0)
    if not workload.sweep:  # replicas run in children, out of reach
        calibrations.append(calibrate())
        sampled, folded = in_fork(sampled_pass)
        profiled.append(sampled)
        self_time = layers.self_time_by_layer(
            folded, layers.repro_code_index(SRC),
            layers.numpy_file_names())

    totals, calls = recorder.totals(), recorder.calls()
    kernel = [op.kernel for op in plain]
    replication = [op.replication for op in spanned if op.replication]
    values = {"host.calib_s": statistics.median(calibrations)}
    for name in WORKLOADS["analytic"].ids + WORKLOADS["des-deep"].ids:
        values[f"exp.{name}.s"] = totals.get(f"exp.{name}", 0.0)
    for name in WORKLOADS["sweep"].ids:
        values[f"sweep.{name}.s"] = totals.get(f"sweep.{name}", 0.0)
    for span in ("noc.sa_mapping", "traffic.autocorrelation",
                 "traffic.rs_hurst", "manet.compare_protocols",
                 "noc.packet_size_sweep", "noc.bus_vs_noc_sweep",
                 "noc.memory_study", "des.run", "check.preflight",
                 "obs.run_report", "parallel.merge"):
        values[f"{span}.s"] = totals.get(span, 0.0)
    values["noc.sa_mapping.calls"] = calls.get("noc.sa_mapping", 0)
    values["noc.mesh_hops.calls"] = calls["noc.mesh_hops"]
    values["des.run.calls"] = calls.get("des.run", 0)
    for counter in ("events_executed", "events_scheduled",
                    "environments"):
        values[f"des.{counter}"] = sum(k.get(counter, 0) for k in kernel)
    values["des.peak_heap_depth"] = max(
        (k.get("peak_heap_depth", 0) for k in kernel), default=0)
    replicated = sum((seconds for name, seconds in totals.items()
                      if name.startswith("sweep.")), 0.0)
    replica_wall = sum((sum(r["wall_seconds"]) for r in replication), 0.0)
    values["parallel.replicated.s"] = replicated
    values["parallel.replica_wall_s"] = replica_wall
    values["parallel.overhead_s"] = (
        replicated - replica_wall - values["parallel.merge.s"]
        if workload.sweep else 0.0)
    values["parallel.replicas"] = sum(r["replicas"] for r in replication)
    values["parallel.attempts"] = sum(sum(r["attempts"])
                                      for r in replication)
    values["parallel.failed_replicas"] = sum(len(r["failed_replicas"])
                                             for r in replication)
    for layer, seconds in self_time.items():
        values[f"self.{layer}.s"] = seconds
    values["setup.import_s"] = setup["setup.import_s"]
    values["setup.registry_s"] = setup["setup.registry_s"]
    values["trace.overhead_ratio"] = pass_wall(spanned) / pass_wall(plain)
    return passes, values, profiled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(path.relative_to(ROOT)) for path in
               (SRC / "repro" / "__init__.py", ROOT / "benchmarks", SPEC)
               if not path.exists()]
    if missing:
        print(f"[perfbench] not a checkout of the repository: missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"[perfbench] unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    exp_seed = experiment_seed(workload, args.seed)
    print(f"[perfbench] {workload.name}: seed {args.seed} -> experiment "
          f"seed {exp_seed}", file=sys.stderr)
    runner = Runner(workload, exp_seed)
    try:
        setup = measure_setup()
        if args.trace:
            trace_path = TRACE_DIR / (f"spans-{workload.name}-seed"
                                      f"{args.seed}.jsonl")
            passes, values, profiled = per_layer(runner, workload,
                                                 setup, trace_path)
        else:
            passes, values, profiled = end_to_end(
                runner, workload, args.seconds, setup)
    finally:
        runner.close()
    print(json.dumps(summarize(passes, values, wanted, profiled)))
    return 0


def summarize(passes, values: dict, wanted: list[dict],
              profiled=()) -> dict:
    """The result object: every wanted metric with its unit, the
    operations attempted and failed, and whether each operation's KPIs
    and exact counts repeated on every pass (``profiled`` passes ran
    under the sampling profiler and skip ``events_scheduled``)."""
    every_pass = [*passes, *profiled]
    ops = [op for ops_of_pass in every_pass for op in ops_of_pass]
    for op in ops:
        for failure in op.failures:
            print(f"[perfbench] FAILED {op.exp_id}: {failure}",
                  file=sys.stderr)
    differing = sorted(differing_ids(every_pass, fingerprint)
                       | differing_ids(passes, scheduled))
    if differing:
        print(f"[perfbench] KPIs or exact counts changed between passes "
              f"of {', '.join(differing)}", file=sys.stderr)
    names = {metric["name"] for metric in wanted}
    if set(values) != names:
        raise RuntimeError(f"measured {sorted(set(values) ^ names)} out "
                           f"of step with BENCHMARK.json")
    return {
        "correct": not differing,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failures),
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }


if __name__ == "__main__":
    sys.exit(main())
