"""Tests for mappings and the simulation/analytical evaluators."""

import math

import pytest

from repro.core import (
    AnalyticalEvaluator,
    ApplicationGraph,
    ChannelSpec,
    Mapping,
    PEKind,
    Platform,
    ProcessNode,
    SimulationEvaluator,
)


def pipeline_app(rate=30.0, cycles=(1_000.0, 200_000.0, 100_000.0),
                 capacity=8):
    app = ApplicationGraph("pipe")
    app.add_process(ProcessNode("src", cycles[0], rate_hz=rate))
    app.add_process(ProcessNode("mid", cycles[1]))
    app.add_process(ProcessNode("dst", cycles[2]))
    app.add_channel(ChannelSpec("src", "mid", bits_per_token=10_000,
                                buffer_capacity=capacity))
    app.add_channel(ChannelSpec("mid", "dst", bits_per_token=10_000,
                                buffer_capacity=capacity))
    return app


def two_pe_platform():
    from repro.core import ProcessingElement

    platform = Platform("p")
    platform.add_pe(ProcessingElement("cpu", PEKind.GPP, frequency=200e6))
    platform.add_pe(ProcessingElement("dsp", PEKind.DSP, frequency=150e6))
    return platform


def spread_mapping():
    return Mapping({"src": "cpu", "mid": "dsp", "dst": "cpu"})


class TestMapping:
    def test_lookup_and_grouping(self):
        m = spread_mapping()
        assert m.pe_of("mid") == "dsp"
        assert m.processes_on("cpu") == ["src", "dst"]
        assert m.used_pes() == {"cpu", "dsp"}
        assert len(m) == 3
        assert "src" in m

    def test_equality_and_hash(self):
        assert spread_mapping() == spread_mapping()
        assert hash(spread_mapping()) == hash(spread_mapping())
        assert spread_mapping() != Mapping({"src": "cpu"})

    def test_validate_missing_process(self):
        app = pipeline_app()
        platform = two_pe_platform()
        with pytest.raises(ValueError, match="unmapped"):
            Mapping({"src": "cpu"}).validate(app, platform)

    def test_validate_unknown_process(self):
        app = pipeline_app()
        platform = two_pe_platform()
        m = Mapping({"src": "cpu", "mid": "dsp", "dst": "cpu",
                     "ghost": "cpu"})
        with pytest.raises(ValueError, match="unknown processes"):
            m.validate(app, platform)

    def test_validate_unknown_pe(self):
        app = pipeline_app()
        platform = two_pe_platform()
        m = Mapping({"src": "cpu", "mid": "ghost", "dst": "cpu"})
        with pytest.raises(ValueError, match="unknown PEs"):
            m.validate(app, platform)

    def test_remote_edges_skip_local(self):
        app = pipeline_app()
        m = spread_mapping()
        edges = list(m.remote_edges(app))
        assert len(edges) == 2  # src->mid and mid->dst both cross PEs
        single = Mapping({"src": "cpu", "mid": "cpu", "dst": "cpu"})
        assert list(single.remote_edges(app)) == []

    def test_communication_bits(self):
        app = pipeline_app()
        assert spread_mapping().communication_bits(app) == \
            pytest.approx(20_000.0)

    def test_communication_energy_zero_when_colocated(self):
        app = pipeline_app()
        platform = two_pe_platform()
        single = Mapping({"src": "cpu", "mid": "cpu", "dst": "cpu"})
        assert single.communication_energy(app, platform) == 0.0


class TestSimulationEvaluator:
    def test_throughput_matches_source_rate_when_underloaded(self):
        app = pipeline_app(rate=30.0)
        result = SimulationEvaluator(
            app, two_pe_platform(), spread_mapping(), seed=0
        ).evaluate(horizon=20.0, warmup=2.0)
        assert result.qos.throughput == pytest.approx(30.0, rel=0.05)
        assert result.qos.loss_rate == 0.0

    def test_latency_at_least_service_time(self):
        app = pipeline_app()
        platform = two_pe_platform()
        result = SimulationEvaluator(
            app, platform, spread_mapping(), seed=0
        ).evaluate(horizon=10.0)
        floor = (1_000 / 200e6) + (200_000 / 150e6) + (100_000 / 200e6)
        assert result.qos.mean_latency >= floor

    def test_overload_causes_loss(self):
        # mid needs 10 ms per token at 100 tokens/s -> utilization 2.0
        app = pipeline_app(rate=200.0, cycles=(0.0, 2_000_000.0, 0.0),
                           capacity=2)
        result = SimulationEvaluator(
            app, two_pe_platform(), spread_mapping(), seed=0
        ).evaluate(horizon=10.0, warmup=1.0)
        assert result.qos.loss_rate > 0.3
        assert result.qos.throughput < 100.0

    def test_energy_decomposition(self):
        app = pipeline_app()
        result = SimulationEvaluator(
            app, two_pe_platform(), spread_mapping(), seed=0
        ).evaluate(horizon=10.0)
        metrics = result.metrics
        assert metrics["energy"] == pytest.approx(
            metrics["compute_energy"] + metrics["comm_energy"]
        )
        assert metrics["average_power"] == pytest.approx(
            metrics["energy"] / metrics["horizon"]
        )

    def test_utilization_bounded(self):
        app = pipeline_app()
        result = SimulationEvaluator(
            app, two_pe_platform(), spread_mapping(), seed=0
        ).evaluate(horizon=10.0)
        for pe in ("cpu", "dsp"):
            assert 0.0 <= result.utilization(pe) <= 1.0

    def test_deterministic_given_seed(self):
        app = pipeline_app()

        def run():
            return SimulationEvaluator(
                app, two_pe_platform(), spread_mapping(), seed=7,
                deterministic_sources=False,
            ).evaluate(horizon=5.0).qos.mean_latency

        assert run() == run()

    def test_different_seeds_differ_with_stochastic_sources(self):
        app = pipeline_app(cycles=(1_000.0, 400_000.0, 100_000.0))
        def run(seed):
            return SimulationEvaluator(
                app, two_pe_platform(), spread_mapping(), seed=seed,
                deterministic_sources=False,
            ).evaluate(horizon=5.0).qos.mean_latency
        assert run(1) != run(2)

    def test_deadline_miss_rate_tracked(self):
        app = pipeline_app()
        result = SimulationEvaluator(
            app, two_pe_platform(), spread_mapping(), seed=0,
            token_deadline=1e-9,  # impossible deadline
        ).evaluate(horizon=5.0)
        assert result.qos.deadline_miss_rate == pytest.approx(1.0)

    def test_no_deadline_gives_nan(self):
        app = pipeline_app()
        result = SimulationEvaluator(
            app, two_pe_platform(), spread_mapping(), seed=0
        ).evaluate(horizon=5.0)
        assert math.isnan(result.qos.deadline_miss_rate)

    def test_invalid_horizon(self):
        app = pipeline_app()
        evaluator = SimulationEvaluator(
            app, two_pe_platform(), spread_mapping()
        )
        with pytest.raises(ValueError):
            evaluator.evaluate(horizon=0.0)
        with pytest.raises(ValueError):
            evaluator.evaluate(horizon=1.0, warmup=2.0)

    def test_buffer_occupancy_reported(self):
        app = pipeline_app()
        result = SimulationEvaluator(
            app, two_pe_platform(), spread_mapping(), seed=0
        ).evaluate(horizon=5.0)
        assert set(result.buffer_occupancy) == {"src->mid", "mid->dst"}

    def test_fork_join_application(self):
        # Fig.1(b) shape: VLD feeds both IDCT and MV; display joins them.
        app = ApplicationGraph("forkjoin")
        app.add_process(ProcessNode("vld", 10_000.0, rate_hz=25.0))
        app.add_process(ProcessNode("idct", 50_000.0))
        app.add_process(ProcessNode("mv", 30_000.0))
        app.add_process(ProcessNode("disp", 5_000.0))
        app.add_channel(ChannelSpec("vld", "idct"))
        app.add_channel(ChannelSpec("vld", "mv"))
        app.add_channel(ChannelSpec("idct", "disp"))
        app.add_channel(ChannelSpec("mv", "disp"))
        platform = two_pe_platform()
        m = Mapping({"vld": "cpu", "idct": "dsp", "mv": "cpu",
                     "disp": "cpu"})
        result = SimulationEvaluator(app, platform, m, seed=0).evaluate(
            horizon=10.0, warmup=1.0
        )
        assert result.qos.throughput == pytest.approx(25.0, rel=0.1)


class TestAnalyticalEvaluator:
    def test_utilization_formula(self):
        app = pipeline_app(rate=30.0,
                           cycles=(1_000.0, 200_000.0, 100_000.0))
        analytical = AnalyticalEvaluator(
            app, two_pe_platform(), spread_mapping()
        )
        utils = analytical.pe_utilizations()
        assert utils["dsp"] == pytest.approx(30 * 200_000 / 150e6)
        assert utils["cpu"] == pytest.approx(
            30 * (1_000 + 100_000) / 200e6
        )

    def test_matches_simulation_when_underloaded(self):
        app = pipeline_app(rate=30.0)
        platform = two_pe_platform()
        mapping = spread_mapping()
        sim = SimulationEvaluator(
            app, platform, mapping, seed=0, deterministic_sources=False
        ).evaluate(horizon=60.0, warmup=5.0)
        ana = AnalyticalEvaluator(app, platform, mapping).evaluate()
        assert ana.qos.throughput == pytest.approx(
            sim.qos.throughput, rel=0.1
        )
        assert ana.metrics["average_power"] == pytest.approx(
            sim.metrics["average_power"], rel=0.15
        )
        assert ana.qos.mean_latency == pytest.approx(
            sim.qos.mean_latency, rel=0.5
        )

    def test_loss_predicted_under_overload(self):
        app = pipeline_app(rate=200.0, cycles=(0.0, 2_000_000.0, 0.0),
                           capacity=2)
        ana = AnalyticalEvaluator(
            app, two_pe_platform(), spread_mapping()
        ).evaluate()
        assert ana.qos.loss_rate > 0.2

    @pytest.mark.parametrize("cycles, capacity", [
        # mid's service rate 150e6 / 5e6 = 30/s meets the 30/s arrivals
        # exactly (rho = 1); dst runs at rho = 0.6.
        ((1_000.0, 5_000_000.0, 4_000_000.0), 3),
        # Overloaded mid (rho = 2) and underloaded dst (rho = 0.15).
        ((1_000.0, 10_000_000.0, 1_000_000.0), 5),
    ])
    def test_loss_rate_matches_mm1k_queues(self, cycles, capacity):
        from repro.analysis import MM1K

        app = pipeline_app(rate=30.0, cycles=cycles, capacity=capacity)
        ana = AnalyticalEvaluator(
            app, two_pe_platform(), spread_mapping()
        ).evaluate()
        survival = ((1 - MM1K(30.0, 150e6 / cycles[1],
                              capacity).blocking_probability())
                    * (1 - MM1K(30.0, 200e6 / cycles[2],
                                capacity).blocking_probability()))
        assert ana.qos.loss_rate == pytest.approx(1 - survival)
