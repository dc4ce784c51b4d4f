"""Self-tests of the benchmark, at a tiny size.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from workloads import SRC, OpRecord, Runner, Workload

sys.path.insert(0, str(SRC))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_prints_with_its_unit(kind):
    wanted = SPEC[kind]
    values = {metric["name"]: 1.5 for metric in wanted}
    op = OpRecord("e6", 0.1, 0.1, fingerprint=("same",))
    line = json.dumps(run.summarize([[op], [op]], values, wanted))
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed == {"value": 1.5, "unit": metric["unit"]}


def test_missing_or_extra_metric_is_refused():
    wanted = SPEC["end_to_end"]
    values = {metric["name"]: 1.0 for metric in wanted[1:]}
    with pytest.raises(RuntimeError):
        run.summarize([[]], values, wanted)


def test_changed_fingerprint_marks_the_run_incorrect():
    first = OpRecord("e6", 0.1, 0.1, fingerprint=("a",))
    second = OpRecord("e6", 0.1, 0.1, fingerprint=("b",))
    values = {metric["name"]: 1.0 for metric in SPEC["end_to_end"]}
    result = run.summarize([[first], [second]], values,
                           SPEC["end_to_end"])
    assert result["correct"] is False


def test_scheduled_events_are_compared_only_without_the_profiler():
    def op(scheduled):
        return OpRecord("e12", 0.1, 0.1, fingerprint=("same",),
                        kernel={"events_scheduled": scheduled})

    values = {metric["name"]: 1.0 for metric in SPEC["per_layer"]}
    wanted = SPEC["per_layer"]
    assert run.summarize([[op(7)], [op(7)]], values, wanted,
                         [[op(6)]])["correct"] is True
    assert run.summarize([[op(7)], [op(6)]], values, wanted,
                         [])["correct"] is False


def test_changing_the_seed_changes_the_inputs():
    from repro import experiments

    for workload in workloads.WORKLOADS.values():
        seeds = [workloads.experiment_seed(workload, s)
                 for s in range(len(workload.seeds))]
        assert len(set(seeds)) == len(seeds)
        assert workloads.experiment_seed(workload, 3) == \
            workloads.experiment_seed(workload, 3)
    first, second = (experiments.run("e15", seed=seed).metrics
                     for seed in workloads.WORKLOADS["analytic"].seeds[:2])
    assert first != second


def flatten_distance_gain(result):
    """Break e6's claim that adaptation pays most at mid distances."""
    result.raw["distance"] = [(d, 0.0) for d, _ in result.raw["distance"]]
    return result


def test_result_breaking_a_claim_is_a_failed_op(monkeypatch):
    from repro import experiments

    runner = Runner(Workload("tiny", ("e6",), sweep=False, seeds=(0,)), 0)
    try:
        (clean,) = runner.run_pass()
        assert clean.failures == []
        original = experiments.run
        monkeypatch.setattr(experiments, "run", lambda *a, **k:
                            flatten_distance_gain(original(*a, **k)))
        (broken,) = runner.run_pass()
    finally:
        runner.close()
    assert broken.failures
    assert "bench_e6_distance_sweep" in broken.failures[0]
    assert broken.fingerprint == clean.fingerprint  # KPIs untouched


def test_replica_breaking_a_claim_fails_the_sweep_op():
    runner = Runner(Workload("tiny", ("e6",), sweep=True, seeds=(0,)), 0)
    try:
        (clean,) = runner.run_pass()
        assert clean.failures == []
        assert clean.replication["replicas"] == workloads.SWEEP_REPLICAS

        def always_fails(experiment):
            assert experiment("e6") is None

        runner.claims["e6"] = [always_fails]
        (broken,) = runner.run_pass()
    finally:
        runner.close()
    assert broken.failures == [
        f"{workloads.SWEEP_REPLICAS} replica(s) failed a claim"]


def test_in_fork_returns_the_result_and_reports_errors():
    assert workloads.in_fork(lambda: [1, 2]) == [1, 2]
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        workloads.in_fork(lambda: 1 / 0)


def test_spans_nest_and_patches_are_undone():
    class Model:
        def step(self, depth):
            return self.step(depth - 1) + 1 if depth else 0

    recorder = layers.SpanRecorder()
    recorder.span(Model, "step", "model.step")
    assert Model().step(3) == 3
    recorder.restore()
    assert "traced" not in repr(Model.step)
    assert recorder.calls() == {"model.step": 4}
    (outer,) = [s for s in recorder.spans if s[3] == -1]
    assert recorder.totals() == {"model.step": outer[2] - outer[1]}


def test_self_time_goes_to_the_innermost_repro_frame():
    index = {("environment.py", 10, "step"): "des",
             ("network.py", 20, "route"): "noc"}
    numpy_names = frozenset({"fromnumeric.py"})
    stacks = {
        "run.py:1:main;environment.py:10:step;network.py:20:route": 1.0,
        "environment.py:10:step;heapq.py:5:push": 2.0,
        "network.py:20:route;fromnumeric.py:3:sum": 4.0,
        "run.py:1:main": 8.0,
    }
    split = layers.self_time_by_layer(stacks, index, numpy_names)
    assert (split["noc"], split["des"], split["numpy"], split["other"]) \
        == (1.0, 2.0, 4.0, 8.0)
    assert set(split) == set(layers.SELF_LAYERS)


def test_code_index_covers_the_kernel():
    index = layers.repro_code_index(SRC)
    layers_of_run = {layer for (name, _, func), layer in index.items()
                     if name == "environment.py" and func == "run"}
    assert layers_of_run == {"des"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
