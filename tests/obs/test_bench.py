"""Tests for the bench harness and regression gates of
:mod:`repro.obs.perf`."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.obs import perf

BASELINE = (Path(__file__).resolve().parents[2]
            / "benchmarks" / "baseline" / "BENCH_perf.json")


@pytest.fixture(scope="module")
def e16_document():
    """One real (cheap) bench document shared by this module."""
    return perf.run_bench(["e16"], repeat=2, seed=0)


# ----------------------------------------------------------------------
# measure_experiment / run_bench
# ----------------------------------------------------------------------
class TestMeasure:
    def test_record_shape(self, e16_document):
        record = e16_document["experiments"][0]
        assert record["id"] == "e16"
        assert record["repeat"] == 2
        assert record["deterministic"] is True
        assert len(record["wall_seconds"]["samples"]) == 2
        assert record["wall_seconds"]["median"] > 0.0
        assert record["events_executed"] > 0
        assert record["events_per_sec"]["median"] > 0.0
        assert record["kpis"]

    def test_analytical_experiment_has_no_event_rate(self):
        record = perf.measure_experiment("e3", repeat=1)
        assert record["events_executed"] == 0
        assert record["events_per_sec"] is None

    def test_single_repeat_has_no_ci(self):
        record = perf.measure_experiment("e16", repeat=1)
        assert record["wall_seconds"]["ci_half"] is None

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            perf.measure_experiment("e16", repeat=0)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            perf.measure_experiment("nope", repeat=1)

    def test_document_meta(self, e16_document):
        meta = e16_document["meta"]
        assert meta["repeat"] == 2
        assert meta["seed"] == 0
        assert meta["ids"] == ["e16"]
        assert "python" in meta and "platform" in meta


# ----------------------------------------------------------------------
# Schema: validate / write / load / strip
# ----------------------------------------------------------------------
class TestSchema:
    def test_valid_document_has_no_errors(self, e16_document):
        assert perf.validate_document(e16_document) == []

    def test_validation_catches_damage(self, e16_document):
        bad = copy.deepcopy(e16_document)
        bad["schema_version"] = 99
        del bad["experiments"][0]["wall_seconds"]
        errors = perf.validate_document(bad)
        assert any("schema_version" in e for e in errors)
        assert any("wall_seconds" in e for e in errors)
        assert perf.validate_document([]) \
            == ["document is not a JSON object"]

    def test_write_load_round_trip(self, e16_document, tmp_path):
        path = perf.write_document(e16_document, tmp_path / "b.json")
        loaded = perf.load_document(path)
        assert loaded["meta"]["ids"] == ["e16"]

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a valid"):
            perf.load_document(path)

    def test_byte_stable_modulo_timings(self, e16_document):
        again = perf.run_bench(["e16"], repeat=2, seed=0)
        first = json.dumps(perf.strip_timings(e16_document),
                           sort_keys=True)
        second = json.dumps(perf.strip_timings(again), sort_keys=True)
        assert first == second

    def test_summary_table_renders(self, e16_document):
        text = perf.summary_table(e16_document).render()
        assert "e16" in text
        assert "median_s" in text


# ----------------------------------------------------------------------
# Regression gates
# ----------------------------------------------------------------------
def _doc(wall: float, events: int = 1000, exp_id: str = "x1"):
    rate = events / wall if events else None
    return {
        "schema": perf.SCHEMA_NAME,
        "schema_version": perf.SCHEMA_VERSION,
        "meta": {"python": "3", "platform": "t", "repeat": 1,
                 "seed": 0, "ids": [exp_id]},
        "experiments": [{
            "id": exp_id, "claim": "", "repeat": 1, "seed": 0,
            "deterministic": True,
            "wall_seconds": {"samples": [wall], "median": wall,
                             "mean": wall, "min": wall, "max": wall,
                             "ci_half": None},
            "events_scheduled": events, "events_executed": events,
            "peak_heap_depth": 4, "environments": 1,
            "events_per_sec": (
                {"samples": [rate], "median": rate, "mean": rate,
                 "min": rate, "max": rate, "ci_half": None}
                if rate else None),
            "peak_rss_kb": 1, "kpis": {},
        }],
    }


class TestCompare:
    def test_self_comparison_is_clean(self, e16_document):
        report = perf.compare_documents(e16_document, e16_document)
        assert not report.any_regression
        assert report.deltas[0].delta_pct == 0.0

    def test_slowdown_beyond_threshold_regresses(self):
        report = perf.compare_documents(_doc(1.0), _doc(2.0),
                                        threshold_pct=10.0)
        assert report.any_regression
        delta = report.deltas[0]
        assert delta.regressed and not delta.improved
        assert delta.delta_pct == pytest.approx(100.0)

    def test_speedup_is_an_improvement(self):
        report = perf.compare_documents(_doc(2.0), _doc(1.0),
                                        threshold_pct=10.0)
        assert not report.any_regression
        assert report.deltas[0].improved

    def test_threshold_is_respected(self):
        report = perf.compare_documents(_doc(1.0), _doc(1.05),
                                        threshold_pct=10.0)
        assert not report.any_regression
        report = perf.compare_documents(_doc(1.0), _doc(1.05),
                                        threshold_pct=2.0)
        assert report.any_regression

    def test_changed_workload_gates_on_throughput(self):
        # Twice the events in the same wall time: throughput doubled,
        # so more simulated work is NOT flagged as a wall regression.
        report = perf.compare_documents(
            _doc(1.0, events=1000), _doc(1.0, events=2000),
            threshold_pct=10.0)
        delta = report.deltas[0]
        assert delta.workload_changed
        assert not delta.regressed
        assert delta.rate_delta_pct == pytest.approx(100.0)
        # Same events/sec drop with a changed workload DOES regress.
        report = perf.compare_documents(
            _doc(1.0, events=1000), _doc(4.0, events=2000),
            threshold_pct=10.0)
        assert report.deltas[0].regressed

    def test_null_rate_baseline_falls_back_to_wall_gate(self):
        # Older baselines (and kernel-less experiments) may carry
        # ``events_per_sec: null``.  A workload-changed row must then
        # gate on wall time instead of silently passing ungated.
        old = _doc(1.0, events=1000)
        old["experiments"][0]["events_per_sec"] = None
        report = perf.compare_documents(
            old, _doc(4.0, events=2000), threshold_pct=10.0)
        delta = report.deltas[0]
        assert delta.workload_changed
        assert delta.rate_delta_pct is None
        assert delta.regressed
        # The same null baseline with unchanged wall time stays clean.
        report = perf.compare_documents(
            old, _doc(1.0, events=2000), threshold_pct=10.0)
        assert not report.any_regression

    def test_null_rate_on_both_sides_never_crashes(self):
        old = _doc(1.0, events=0)
        new = _doc(2.5, events=0)
        assert old["experiments"][0]["events_per_sec"] is None
        report = perf.compare_documents(old, new, threshold_pct=10.0)
        delta = report.deltas[0]
        assert not delta.workload_changed
        assert delta.regressed

    def test_missing_ids_are_reported_not_gated(self):
        old = _doc(1.0, exp_id="gone")
        new = _doc(1.0, exp_id="new")
        report = perf.compare_documents(old, new)
        assert report.missing_in_new == ["gone"]
        assert report.missing_in_old == ["new"]
        assert not report.any_regression

    def test_table_and_dict_render(self):
        report = perf.compare_documents(_doc(1.0), _doc(2.0))
        text = report.table().render()
        assert "REGRESSED" in text
        digest = json.loads(json.dumps(report.to_dict()))
        assert digest["any_regression"] is True


# ----------------------------------------------------------------------
# Committed baseline artifact
# ----------------------------------------------------------------------
class TestBaseline:
    def test_committed_baseline_is_schema_valid(self):
        assert BASELINE.is_file(), (
            "benchmarks/baseline/BENCH_perf.json must be committed")
        document = perf.load_document(BASELINE)
        assert perf.validate_document(document) == []
        ids = document["meta"]["ids"]
        assert ids == ["e3", "e14", "r1"]
