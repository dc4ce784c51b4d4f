"""Tests for the DES NoC network, scheduling (E4) and packet sizing (E5)."""

import pytest

from repro.core.application import Dependency, Task, TaskGraph
from repro.core.power import DvfsModel
from repro.des import Environment
from repro.noc import (
    Mesh2D,
    MessageFlow,
    NocNetwork,
    Tile,
    default_flows,
    edf_schedule,
    energy_aware_schedule,
    greedy_mapping,
    mms_apcg,
    packet_size_sweep,
    run_packet_size_trial,
    video_surveillance_apcg,
    west_first_route,
    xy_route,
)
from repro.noc.mapping import NocMapping


class TestNocNetwork:
    def test_single_packet_latency(self):
        env = Environment()
        network = NocNetwork(env, Mesh2D(3, 3), link_bandwidth=1e9,
                             router_latency=10e-9)
        packet = network.new_packet(Tile(0, 0), Tile(2, 0),
                                    payload_bits=968.0, header_bits=32.0)
        process = network.send(packet)
        env.run(until=process)
        # 2 hops, each 10 ns + 1000 bits / 1e9 = 1.01 us per hop
        assert network.stats.latency.mean == pytest.approx(
            2 * (10e-9 + 1e-6), rel=1e-6
        )
        assert network.stats.delivered == 1
        assert network.stats.hop_count.mean == 2

    def test_contention_serializes(self):
        env = Environment()
        network = NocNetwork(env, Mesh2D(2, 1), link_bandwidth=1e6,
                             router_latency=0.0)
        a = network.new_packet(Tile(0, 0), Tile(1, 0), 1e6)
        b = network.new_packet(Tile(0, 0), Tile(1, 0), 1e6)
        network.send(a)
        network.send(b)
        env.run()
        # two ~1s transfers over one link must serialize: ~1s and ~2s
        assert network.stats.latency.maximum == pytest.approx(2.0,
                                                              rel=0.01)

    def test_disjoint_paths_parallel(self):
        env = Environment()
        network = NocNetwork(env, Mesh2D(2, 2), link_bandwidth=1e6,
                             router_latency=0.0)
        network.send(network.new_packet(Tile(0, 0), Tile(1, 0), 1e6))
        network.send(network.new_packet(Tile(0, 1), Tile(1, 1), 1e6))
        env.run()
        # different rows, no shared link: both finish at ~1s
        assert network.stats.latency.maximum == pytest.approx(1.0,
                                                              rel=0.01)

    def test_energy_includes_header(self):
        env = Environment()
        network = NocNetwork(env, Mesh2D(2, 1))
        packet = network.new_packet(Tile(0, 0), Tile(1, 0),
                                    payload_bits=968.0, header_bits=32.0)
        env.run(until=network.send(packet))
        expected = 1000.0 * network.energy_model.bit_energy(1)
        assert network.stats.energy == pytest.approx(expected)
        assert network.stats.header_overhead == pytest.approx(0.032)

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            NocNetwork(env, Mesh2D(2, 2), link_bandwidth=0.0)
        with pytest.raises(ValueError):
            NocNetwork(env, Mesh2D(2, 2), router_latency=-1.0)


class TestLinkCache:
    def _eastbound_conflict(self, route):
        # A long packet holds (1,0)->(2,0).  XY routes the eastbound
        # packet through that link; west-first turns north first and
        # never touches it.
        env = Environment()
        network = NocNetwork(env, Mesh2D(3, 2), link_bandwidth=1e6,
                             router_latency=0.0, route=route)
        network.send(network.new_packet(Tile(1, 0), Tile(2, 0), 10e6))
        probe = network.send(network.new_packet(Tile(0, 0), Tile(2, 1),
                                                1e6 - 32.0))
        env.run(until=probe)
        return env.now

    def test_cached_links_follow_the_route_function(self):
        assert self._eastbound_conflict(west_first_route) == \
            pytest.approx(3.0)
        assert self._eastbound_conflict(xy_route) > 10.0

    def test_each_pair_is_routed_once(self):
        calls = []

        def counting_route(mesh, src, dst):
            calls.append((src, dst))
            return xy_route(mesh, src, dst)

        env = Environment()
        network = NocNetwork(env, Mesh2D(3, 3), route=counting_route)
        for _ in range(3):
            network.send(network.new_packet(Tile(0, 0), Tile(2, 2), 64.0))
        network.send(network.new_packet(Tile(2, 2), Tile(0, 0), 64.0))
        env.run()
        assert calls == [(Tile(0, 0), Tile(2, 2)), (Tile(2, 2), Tile(0, 0))]
        assert network.stats.delivered == 4
        assert network.stats.hop_count.mean == 4

    def test_off_mesh_packet_fails_at_its_first_step(self):
        env = Environment()
        network = NocNetwork(env, Mesh2D(2, 2))
        packet = network.new_packet(Tile(0, 0), Tile(5, 5), 64.0)
        process = network.send(packet)  # sending itself does not raise
        assert process.is_alive
        with pytest.raises(ValueError, match="outside"):
            env.run()
        assert env.now == 0.0
        assert not process.ok
        assert network.stats.delivered == 0


def scheduling_problem():
    tg = video_surveillance_apcg()
    mesh = Mesh2D(4, 3)
    return tg, greedy_mapping(tg, mesh)


class TestScheduling:
    def test_edf_meets_deadline(self):
        tg, mapping = scheduling_problem()
        result = edf_schedule(tg, mapping)
        assert result.feasible
        assert result.makespan <= tg.period
        assert result.missed_tasks == []

    def test_edf_respects_dependencies(self):
        tg, mapping = scheduling_problem()
        result = edf_schedule(tg, mapping)
        for dep in tg.dependencies:
            assert result.tasks[dep.dst].start >= \
                result.tasks[dep.src].finish - 1e-12

    def test_edf_one_task_per_tile_at_a_time(self):
        tg, mapping = scheduling_problem()
        result = edf_schedule(tg, mapping)
        by_tile: dict[str, list] = {}
        for s in result.tasks.values():
            by_tile.setdefault(s.tile, []).append((s.start, s.finish))
        for intervals in by_tile.values():
            intervals.sort()
            for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
                assert s2 >= f1 - 1e-12

    def test_eas_saves_over_40_percent(self):
        """The E4 headline on both multimedia graphs."""
        for tg, mesh in [(video_surveillance_apcg(), Mesh2D(4, 3)),
                         (mms_apcg(), Mesh2D(4, 4))]:
            mapping = greedy_mapping(tg, mesh)
            edf = edf_schedule(tg, mapping)
            eas = energy_aware_schedule(tg, mapping)
            assert eas.feasible
            saving = 1 - eas.total_energy / edf.total_energy
            assert saving > 0.40

    def test_eas_still_meets_deadline(self):
        tg, mapping = scheduling_problem()
        result = energy_aware_schedule(tg, mapping)
        assert result.feasible
        assert result.makespan <= tg.period + 1e-12

    def test_eas_uses_slower_points(self):
        tg, mapping = scheduling_problem()
        edf = edf_schedule(tg, mapping)
        eas = energy_aware_schedule(tg, mapping)
        edf_freqs = {s.point.frequency for s in edf.tasks.values()}
        eas_freqs = [s.point.frequency for s in eas.tasks.values()]
        assert min(eas_freqs) < min(edf_freqs)

    def test_no_deadline_falls_back_to_edf(self):
        tg = TaskGraph("free")  # no period
        tg.add_task(Task("a", 1e6))
        tg.add_task(Task("b", 1e6))
        tg.add_dependency(Dependency("a", "b", bits=1e3))
        mapping = NocMapping(
            Mesh2D(2, 1), {"a": Tile(0, 0), "b": Tile(1, 0)}
        )
        eas = energy_aware_schedule(tg, mapping)
        edf = edf_schedule(tg, mapping)
        assert eas.total_energy == pytest.approx(edf.total_energy)

    def test_infeasible_deadline_reported(self):
        tg = TaskGraph("tight", period=1e-6)
        tg.add_task(Task("huge", 1e9))
        mapping = NocMapping(Mesh2D(1, 1), {"huge": Tile(0, 0)})
        result = energy_aware_schedule(tg, mapping)
        assert not result.feasible
        assert "huge" in result.missed_tasks

    def test_energy_decomposition(self):
        tg, mapping = scheduling_problem()
        result = edf_schedule(tg, mapping)
        assert result.total_energy == pytest.approx(
            result.compute_energy + result.comm_energy
            + result.idle_energy
        )
        assert result.comm_energy > 0

    def test_dvfs_model_respected(self):
        tg, mapping = scheduling_problem()
        dvfs = DvfsModel(idle_power=0.0)
        result = edf_schedule(tg, mapping, dvfs=dvfs)
        assert result.idle_energy == 0.0


class TestPacketSizing:
    def test_flow_validation(self):
        with pytest.raises(ValueError):
            MessageFlow(Tile(0, 0), Tile(1, 0), message_bits=0.0,
                        rate_hz=1.0)

    def test_default_flows_distinct_endpoints(self):
        flows = default_flows(Mesh2D(4, 4), n_flows=10, seed=1)
        assert len(flows) == 10
        for flow in flows:
            assert flow.src != flow.dst

    def test_trial_counts_messages(self):
        mesh = Mesh2D(3, 3)
        flows = [MessageFlow(Tile(0, 0), Tile(2, 2), 16_000.0, 100.0)]
        result = run_packet_size_trial(
            flows, mesh, payload_bits=4_000.0, horizon=0.05
        )
        assert result.messages_delivered == pytest.approx(5, abs=1)
        assert result.header_overhead > 0

    def test_small_packets_pay_header_overhead(self):
        results = packet_size_sweep([256.0, 8_192.0], horizon=0.01)
        assert results[0].header_overhead > 5 * results[1].header_overhead
        assert results[0].energy_per_payload_bit > \
            results[1].energy_per_payload_bit

    def test_huge_packets_hurt_latency(self):
        """The E5 crossover: blocking beats header amortization."""
        results = packet_size_sweep(
            [2_048.0, 65_536.0], horizon=0.02
        )
        assert results[1].mean_message_latency > \
            1.2 * results[0].mean_message_latency

    def test_trial_validation(self):
        mesh = Mesh2D(2, 2)
        flows = default_flows(mesh, n_flows=1)
        with pytest.raises(ValueError):
            run_packet_size_trial(flows, mesh, payload_bits=0.0)
        with pytest.raises(ValueError):
            run_packet_size_trial(flows, mesh, payload_bits=1.0,
                                  horizon=0.0)
