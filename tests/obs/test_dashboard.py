"""Tests for the self-contained HTML dashboard renderer."""

import json

import pytest

from repro.obs import MetricRegistry, render_html
from repro.obs.report import RunReport


def _report_dict(**extra):
    registry = MetricRegistry()
    series = registry.timeseries("qos", mode="resilient")
    for i in range(20):
        series.add(float(i), 0.9 - 0.01 * i)
    registry.counter("delivered").inc(42)
    report = {
        "experiment": "r1",
        "seed": 7,
        "wall_seconds": 0.5,
        "metrics": {"qos_mean": 0.85, "delivered": 42},
        "stats": registry.snapshot(),
    }
    report.update(extra)
    return report


def _slo_payload():
    return {
        "specs": [{"name": "qos", "series": "qos{mode=resilient}",
                   "op": ">=", "threshold": 0.5, "agg": "mean"}],
        "breaches": [{"slo": "qos", "t": 12.0, "value": 0.4,
                      "series": "qos{mode=resilient}", "agg": "mean",
                      "op": ">=", "threshold": 0.5, "replica": 2}],
        "final": {"qos": {"value": 0.4, "ok": False}},
        "ok": False,
    }


class TestRenderHtml:
    def test_runreport_dict(self):
        page = render_html(_report_dict())
        assert page.startswith("<!DOCTYPE html>")
        assert "<title>repro run: r1</title>" in page
        assert "qos{mode=resilient}" in page
        assert "<svg" in page and "</svg>" in page
        assert "qos_mean" in page  # KPI table
        assert "delivered" in page  # instruments table
        assert "prefers-color-scheme: dark" in page

    def test_runreport_object(self):
        report = RunReport.from_dict(_report_dict())
        page = render_html(report)
        assert "<title>repro run: r1</title>" in page

    def test_experiment_result_dict(self):
        result = {"id": "r1", "claim": "graceful degradation",
                  "report": _report_dict()}
        page = render_html(result)
        assert "<title>repro run: r1</title>" in page
        assert "graceful degradation" in page

    def test_json_string_input(self):
        page = render_html(json.dumps(_report_dict()))
        assert "<title>repro run: r1</title>" in page

    def test_slo_section_with_breach_timeline(self):
        page = render_html(_report_dict(slo=_slo_payload()))
        assert "Service-level objectives" in page
        assert "BREACHED" in page
        assert "Breach timeline" in page
        assert "SLO breach at t=12" in page  # marker on the sparkline
        # Status chips carry a glyph, never color alone.
        assert "✕ BREACHED" in page

    def test_replication_section(self):
        page = render_html(_report_dict(replication={
            "replicas": 2, "workers": 2, "seeds": [11, 12],
            "wall_seconds": [0.1, 0.2], "attempts": [1, 1],
        }))
        assert "Replication" in page
        assert "2 replicas" in page

    def test_escapes_untrusted_strings(self):
        page = render_html(_report_dict(
            experiment="<script>alert(1)</script>"))
        assert "<script>" not in page
        assert "&lt;script&gt;" in page

    def test_custom_title(self):
        page = render_html(_report_dict(), title="My run")
        assert "<title>My run</title>" in page

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError, match="unrecognized"):
            render_html({"mystery": True})
        with pytest.raises(TypeError):
            render_html([1, 2, 3])
