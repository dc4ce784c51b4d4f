"""Tests for the unified experiment registry and its results."""

import json

import pytest

from repro import experiments
from repro.experiments import ExperimentResult, RunContext
from repro.experiments.registry import _REGISTRY, register

EXPECTED_IDS = ["f1", "f2"] + [f"e{i}" for i in range(1, 18)] + ["r1"]


class TestRegistry:
    def test_every_experiment_registered_in_order(self):
        assert experiments.ids() == EXPECTED_IDS

    def test_get_is_case_insensitive(self):
        assert experiments.get("E3") is experiments.get("e3")

    def test_unknown_id_raises_with_known_ids(self):
        with pytest.raises(KeyError, match="e14"):
            experiments.get("nope")

    def test_duplicate_registration_rejected(self):
        @register("zz-test", "scratch")
        def _runner(ctx):
            return None

        try:
            with pytest.raises(ValueError, match="already registered"):
                register("ZZ-test", "again")(lambda ctx: None)
        finally:
            del _REGISTRY["zz-test"]

    def test_experiments_carry_claims(self):
        for exp_id in experiments.ids():
            assert experiments.get(exp_id).claim


class TestRun:
    def test_returns_experiment_result(self):
        result = experiments.run("e6")
        assert isinstance(result, ExperimentResult)
        assert result.id == "e6"
        assert result.tables and result.metrics
        assert result.report is not None
        assert result.report.experiment == "e6"
        assert result.report.wall_seconds > 0.0
        assert result.raw is not None

    def test_default_seed_is_zero(self):
        default = experiments.run("e14")
        explicit = experiments.run("e14", seed=0)
        assert default.metrics == explicit.metrics
        assert default.report.seed == 0

    def test_seed_shifts_results(self):
        base = experiments.run("e14", seed=0)
        shifted = experiments.run("e14", seed=99)
        assert shifted.report.seed == 99
        # A different seed must actually reach the RNG streams.
        assert shifted.metrics != base.metrics

    def test_e12_honours_its_seed(self):
        tables = [experiments.run("e12", seed=seed).tables[0].rows
                  for seed in (0, 1)]
        assert tables[0] != tables[1]

    def test_trace_is_observational(self):
        plain = experiments.run("f1")
        traced = experiments.run("f1", trace=True)
        assert traced.metrics == plain.metrics     # bit-identical KPIs
        assert traced.tracer is not None
        assert plain.tracer is None
        assert traced.report.trace is not None
        assert traced.report.trace["n_events"] > 0

    def test_runs_are_isolated(self):
        # Each run gets a fresh registry: stats do not leak across runs.
        first = experiments.run("e14")
        second = experiments.run("e14")
        assert first.report.stats == second.report.stats


class TestRunContext:
    def test_table_and_record(self):
        ctx = RunContext(seed=0, metrics=None)
        table = ctx.table(["a", "b"], title="demo")
        table.add_row([1, 2])
        ctx.record("kpi", 3)
        assert ctx.tables == [table]
        assert ctx.kpis == {"kpi": 3.0}


class TestExperimentResult:
    def test_table_lookup_by_fragment(self):
        result = experiments.run("e6")
        assert "transceiver" in result.table("transceiver").title
        assert result.table() is result.tables[0]
        with pytest.raises(LookupError, match="no table"):
            result.table("nonexistent panel")

    def test_to_json_excludes_raw(self):
        result = experiments.run("e6")
        document = json.loads(result.to_json())
        assert set(document) == {"id", "claim", "metrics", "tables",
                                 "report"}
        assert document["tables"][0]["columns"]
        assert document["tables"][0]["rows"]

    def test_show_prints_tables(self, capsys):
        experiments.run("e6").show()
        out = capsys.readouterr().out
        assert "E6" in out and "===" in out
