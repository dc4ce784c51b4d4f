"""Tests for application and task-graph models."""

import pytest

from repro.core import (
    ApplicationGraph,
    ChannelSpec,
    Dependency,
    MediaType,
    ProcessNode,
    Task,
    TaskGraph,
)


def small_pipeline():
    app = ApplicationGraph("pipe")
    app.add_process(ProcessNode("src", 0.0, rate_hz=30.0))
    app.add_process(ProcessNode("mid", 1000.0))
    app.add_process(ProcessNode("dst", 500.0))
    app.add_channel(ChannelSpec("src", "mid"))
    app.add_channel(ChannelSpec("mid", "dst"))
    return app


class TestProcessNode:
    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            ProcessNode("p", -1.0)

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            ProcessNode("p", 1.0, cycles_cv=-0.1)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            ProcessNode("p", 1.0, rate_hz=0.0)

    def test_default_media_is_video(self):
        assert ProcessNode("p", 1.0).media is MediaType.VIDEO


class TestChannelSpec:
    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            ChannelSpec("a", "b", bits_per_token=0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ChannelSpec("a", "b", buffer_capacity=0)

    def test_key(self):
        assert ChannelSpec("a", "b").key == ("a", "b")


class TestApplicationGraph:
    def test_sources_and_sinks(self):
        app = small_pipeline()
        assert [p.name for p in app.sources()] == ["src"]
        assert [p.name for p in app.sinks()] == ["dst"]

    def test_duplicate_process_rejected(self):
        app = ApplicationGraph()
        app.add_process(ProcessNode("p", 1.0))
        with pytest.raises(ValueError):
            app.add_process(ProcessNode("p", 2.0))

    def test_channel_unknown_endpoint_rejected(self):
        app = ApplicationGraph()
        app.add_process(ProcessNode("a", 1.0))
        with pytest.raises(ValueError):
            app.add_channel(ChannelSpec("a", "ghost"))

    def test_self_loop_rejected(self):
        app = ApplicationGraph()
        app.add_process(ProcessNode("a", 1.0))
        with pytest.raises(ValueError):
            app.add_channel(ChannelSpec("a", "a"))

    def test_duplicate_channel_rejected(self):
        app = small_pipeline()
        with pytest.raises(ValueError):
            app.add_channel(ChannelSpec("src", "mid"))

    def test_navigation(self):
        app = small_pipeline()
        assert app.successors("src") == ["mid"]
        assert app.predecessors("dst") == ["mid"]
        assert app.in_channels("mid")[0].key == ("src", "mid")
        assert app.out_channels("mid")[0].key == ("mid", "dst")

    def test_contains_and_len(self):
        app = small_pipeline()
        assert "mid" in app
        assert "ghost" not in app
        assert len(app) == 3

    def test_acyclic_detection(self):
        app = small_pipeline()
        assert app.is_acyclic()
        app.add_channel(ChannelSpec("dst", "src"))
        assert not app.is_acyclic()

    def test_activation_rates_propagate(self):
        rates = small_pipeline().activation_rates()
        assert rates == {"src": 30.0, "mid": 30.0, "dst": 30.0}

    def test_join_activates_at_fastest_input(self):
        app = small_pipeline()
        app.add_process(ProcessNode("fast", 0.0, rate_hz=50.0))
        app.add_channel(ChannelSpec("fast", "dst"))
        assert app.activation_rates()["dst"] == 50.0

    def test_graph_orders_reject_a_cycle(self):
        app = small_pipeline()
        app.add_channel(ChannelSpec("dst", "src"))
        with pytest.raises(ValueError, match="cycle"):
            app.topological_order()
        with pytest.raises(ValueError, match="cycle"):
            app.activation_rates()

    def test_critical_path_cycles(self):
        app = small_pipeline()
        assert app.critical_path_cycles() == pytest.approx(1500.0)
        assert ApplicationGraph().critical_path_cycles() == 0.0

    def test_source_rate(self):
        app = small_pipeline()
        assert app.source_rate() == pytest.approx(30.0)

    def test_total_compute_demand(self):
        app = small_pipeline()
        # 30 tokens/s * (0 + 1000 + 500) cycles
        assert app.total_compute_demand() == pytest.approx(45_000.0)

    def test_validate_empty_rejected(self):
        with pytest.raises(ValueError):
            ApplicationGraph().validate()

    def test_validate_source_without_rate(self):
        app = ApplicationGraph()
        app.add_process(ProcessNode("a", 1.0))  # no rate
        app.add_process(ProcessNode("b", 1.0))
        app.add_channel(ChannelSpec("a", "b"))
        with pytest.raises(ValueError, match="no rate"):
            app.validate()

    def test_validate_disconnected_rejected(self):
        app = ApplicationGraph()
        app.add_process(ProcessNode("a", 1.0, rate_hz=1.0))
        app.add_process(ProcessNode("b", 1.0, rate_hz=1.0))
        with pytest.raises(ValueError, match="not connected"):
            app.validate()

    def test_validate_ok(self):
        small_pipeline().validate()


def diamond_taskgraph():
    tg = TaskGraph("diamond", period=0.04)
    for name, cycles in [("a", 100.0), ("b", 200.0), ("c", 300.0),
                         ("d", 50.0)]:
        tg.add_task(Task(name, cycles))
    tg.add_dependency(Dependency("a", "b", bits=1000))
    tg.add_dependency(Dependency("a", "c", bits=2000))
    tg.add_dependency(Dependency("b", "d", bits=500))
    tg.add_dependency(Dependency("c", "d", bits=500))
    return tg


class TestTaskGraph:
    def test_cycle_rejected(self):
        tg = diamond_taskgraph()
        with pytest.raises(ValueError, match="cycle"):
            tg.add_dependency(Dependency("d", "a"))
        # failed insertion must not linger
        assert ("d", "a") not in [
            (d.src, d.dst) for d in tg.dependencies
        ]

    def test_self_dependency_rejected(self):
        tg = diamond_taskgraph()
        with pytest.raises(ValueError, match="cycle"):
            tg.add_dependency(Dependency("b", "b"))
        assert tg.successors("b") == ["d"]

    def test_duplicate_task_rejected(self):
        tg = diamond_taskgraph()
        with pytest.raises(ValueError):
            tg.add_task(Task("a", 1.0))

    def test_unknown_dependency_endpoint(self):
        tg = diamond_taskgraph()
        with pytest.raises(ValueError):
            tg.add_dependency(Dependency("a", "ghost"))

    def test_entry_exit(self):
        tg = diamond_taskgraph()
        assert [t.name for t in tg.entry_tasks()] == ["a"]
        assert [t.name for t in tg.exit_tasks()] == ["d"]

    def test_topological_order_valid(self):
        tg = diamond_taskgraph()
        order = tg.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_totals(self):
        tg = diamond_taskgraph()
        assert tg.total_cycles() == pytest.approx(650.0)
        assert tg.total_bits() == pytest.approx(4000.0)

    def test_critical_path(self):
        tg = diamond_taskgraph()
        # a -> c -> d = 100 + 300 + 50
        assert tg.critical_path_cycles() == pytest.approx(450.0)

    def test_critical_path_empty_graph(self):
        assert TaskGraph().critical_path_cycles() == 0.0

    def test_communication_pairs_skip_zero(self):
        tg = TaskGraph()
        tg.add_task(Task("x", 1.0))
        tg.add_task(Task("y", 1.0))
        tg.add_dependency(Dependency("x", "y", bits=0.0))
        assert list(tg.communication_pairs()) == []

    def test_task_validation(self):
        with pytest.raises(ValueError):
            Task("t", -5.0)
        with pytest.raises(ValueError):
            Task("t", 5.0, deadline=0.0)
        with pytest.raises(ValueError):
            Dependency("a", "b", bits=-1.0)
