"""End-to-end resilience: fault-injected runs and QoS curves."""

import math

import pytest

from repro.resilience import (
    DegradationCurve,
    FailureModel,
    QosPoint,
    fault_rate_sweep,
    format_report,
    resilience_report,
    stream_pipeline_qos,
)
from repro.streams import Channel, MpegSource, Sink, StreamPipeline


def build_pipeline(channel):
    source = MpegSource(fps=25, i_frame_bits=100_000, seed=0)
    return StreamPipeline(source=source, channel=channel,
                          sink=Sink(display_rate_hz=25.0))


class TestFaultInjectedPipeline:
    FAULTS = FailureModel.exponential(mtbf=2.0, mttr=0.5)

    def test_resilient_run_completes(self):
        channel = Channel(bandwidth=4e6, resilient=True,
                          shed_enhancement=True)
        report = build_pipeline(channel).run(
            horizon=10.0, faults=self.FAULTS, fault_seed=1,
        )
        assert not report.crashed
        assert report.n_faults > 0
        assert channel.stats.outages > 0
        # Degraded, not dead: frames still reached the display.
        assert report.displayed > 0

    def test_baseline_run_crashes(self):
        channel = Channel(bandwidth=4e6, resilient=False)
        report = build_pipeline(channel).run(
            horizon=10.0, faults=self.FAULTS, fault_seed=1,
        )
        assert report.crashed
        assert report.crash_time < 10.0
        assert not math.isnan(report.crash_time)

    def test_fault_free_run_unchanged_by_wiring(self):
        resilient = build_pipeline(
            Channel(bandwidth=4e6, resilient=True)
        ).run(horizon=10.0)
        plain = build_pipeline(Channel(bandwidth=4e6)).run(horizon=10.0)
        assert resilient.displayed == plain.displayed
        assert not resilient.crashed and not plain.crashed

    def test_reproducible_under_fixed_seed(self):
        def run():
            channel = Channel(bandwidth=4e6, resilient=True,
                              shed_enhancement=True)
            report = build_pipeline(channel).run(
                horizon=10.0, faults=self.FAULTS, fault_seed=7,
            )
            return (report.displayed, report.n_faults,
                    channel.stats.outages, channel.stats.fault_drops,
                    channel.stats.degraded_drops)

        assert run() == run()


class TestDegradationCurve:
    @staticmethod
    def curve(values, rates=None):
        rates = rates or list(range(len(values)))
        return DegradationCurve(
            label="test",
            points=[QosPoint(fault_rate=r, qos=q)
                    for r, q in zip(rates, values)],
        )

    def test_monotone_within_tolerance(self):
        assert self.curve([1.0, 0.9, 0.92, 0.8]).is_monotone()
        assert not self.curve([1.0, 0.5, 0.9]).is_monotone()

    def test_max_step_drop(self):
        drop = self.curve([1.0, 0.9, 0.3]).max_step_drop()
        assert drop == pytest.approx(0.6)

    def test_graceful_vs_cliff(self):
        assert self.curve([1.0, 0.8, 0.6, 0.5]).is_graceful()
        # A cliff bigger than 0.5 in one step is not graceful.
        assert not self.curve([1.0, 0.95, 0.2]).is_graceful()
        # Non-monotone curves are not graceful either.
        assert not self.curve([1.0, 0.4, 0.9]).is_graceful()

    def test_min_qos_and_accessors(self):
        curve = self.curve([0.9, 0.7], rates=[0.0, 0.1])
        assert curve.min_qos() == pytest.approx(0.7)
        assert curve.fault_rates == [0.0, 0.1]
        assert curve.qos_values == [0.9, 0.7]


class TestSweepAndReport:
    RATES = [0.0, 0.5]

    def test_stream_sweep_contrast(self):
        resilient = fault_rate_sweep(
            lambda r: stream_pipeline_qos(r, resilient=True,
                                          horizon=10.0),
            self.RATES, label="stream resilient",
        )
        baseline = fault_rate_sweep(
            lambda r: stream_pipeline_qos(r, resilient=False,
                                          horizon=10.0),
            self.RATES, label="stream baseline",
        )
        assert not baseline.points[0].detail["crashed"]  # rate 0: fine
        assert baseline.points[-1].detail["crashed"]     # faults: dead
        assert not any(p.detail["crashed"] for p in resilient.points)
        assert resilient.min_qos() > baseline.min_qos()

    def test_report_smoke_and_reproducibility(self):
        def make():
            return resilience_report(
                scenarios=("stream",),
                fault_rates={"stream": self.RATES},
                horizon=10.0,
            )

        report = make()
        curves = report["stream"]
        assert set(curves) == {"resilient", "baseline"}
        assert curves["resilient"].qos_values == \
            make()["stream"]["resilient"].qos_values
        text = format_report(report)
        assert "stream" in text and "resilient" in text

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            resilience_report(scenarios=("no-such-scenario",))

    def test_negative_fault_rate_rejected(self):
        with pytest.raises(ValueError):
            fault_rate_sweep(lambda r: QosPoint(r, 1.0), [-0.1], "bad")

    def test_scenario_kwargs_route_by_signature(self):
        """Mixed-scenario reports accept per-scenario size kwargs;
        a kwarg foreign to a scenario is not passed to it."""
        report = resilience_report(
            scenarios=("stream", "arq-streaming"),
            fault_rates={"stream": (0.0,), "arq-streaming": (0.0,)},
            horizon=5.0,      # stream only
            n_frames=50,      # arq-streaming only
        )
        assert set(report) == {"stream", "arq-streaming"}
        arq_point = report["arq-streaming"]["resilient"].points[0]
        assert arq_point.detail["delivery_ratio"] == 1.0
