"""Tests for the MANET substrate: radio, nodes, network, routing,
lifetime (E9)."""

import math

import numpy as np
import pytest

from repro.manet import (
    BatteryCostRouting,
    LifetimePredictionRouting,
    ManetNetwork,
    ManetNode,
    MinimumPowerRouting,
    PROTOCOLS,
    RadioModel,
    RandomWalkMobility,
    compare_protocols,
    random_network,
    simulate_lifetime,
)
from repro.utils.rng import spawn_rng


class TestRadioModel:
    def test_tx_grows_with_distance(self):
        radio = RadioModel()
        assert radio.tx_energy(1e3, 200.0) > radio.tx_energy(1e3, 50.0)

    def test_two_short_hops_beat_one_long_hop_in_amp_energy(self):
        # quadratic path loss: d^2 > 2 (d/2)^2
        radio = RadioModel(elec_energy_per_bit=0.0)
        one_long = radio.tx_energy(1.0, 200.0)
        two_short = 2 * radio.tx_energy(1.0, 100.0)
        assert two_short < one_long

    def test_elec_floor_penalizes_many_hops(self):
        radio = RadioModel()
        bits = 1e3
        one_hop = radio.hop_energy(bits, 10.0)
        five_hops = 5 * radio.hop_energy(bits, 2.0)
        assert five_hops > one_hop

    def test_rx_energy(self):
        radio = RadioModel(elec_energy_per_bit=50e-9)
        assert radio.rx_energy(1e6) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioModel(elec_energy_per_bit=-1.0)
        radio = RadioModel()
        with pytest.raises(ValueError):
            radio.tx_energy(-1.0, 10.0)
        with pytest.raises(ValueError):
            radio.rx_energy(-1.0)


class TestManetNode:
    def test_battery_must_be_positive(self):
        with pytest.raises(ValueError):
            ManetNode(0, 0.0, 0.0, battery=0.0)

    def test_consume_and_death(self):
        node = ManetNode(0, 0.0, 0.0, battery=1.0)
        node.consume(0.4)
        assert node.alive
        assert node.residual_fraction == pytest.approx(0.6)
        node.consume(0.7)
        assert not node.alive
        assert node.residual_fraction == 0.0

    def test_distance(self):
        a = ManetNode(0, 0.0, 0.0, battery=1.0)
        b = ManetNode(1, 3.0, 4.0, battery=1.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_drain_rate_windowed(self):
        node = ManetNode(0, 0.0, 0.0, battery=10.0)
        node.consume(1.0)
        node.end_window()
        assert node.drain_rate == pytest.approx(0.3)  # alpha = 0.3
        node.end_window()  # idle window decays the estimate
        assert node.drain_rate == pytest.approx(0.21)

    def test_predicted_lifetime(self):
        node = ManetNode(0, 0.0, 0.0, battery=10.0)
        assert node.predicted_lifetime() == math.inf
        node.consume(1.0)
        node.end_window()
        assert node.predicted_lifetime() == pytest.approx(9.0 / 0.3)

    def test_dead_node_zero_lifetime(self):
        node = ManetNode(0, 0.0, 0.0, battery=1.0)
        node.consume(2.0)
        assert node.predicted_lifetime() == 0.0


def line_network(spacing=100.0, n=4, battery=10.0, tx_range=150.0):
    nodes = [
        ManetNode(i, i * spacing, 0.0, battery=battery)
        for i in range(n)
    ]
    return ManetNetwork(nodes, tx_range=tx_range)


class TestManetNetwork:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ManetNetwork([
                ManetNode(0, 0, 0, battery=1.0),
                ManetNode(0, 1, 1, battery=1.0),
            ])

    def test_connectivity_respects_range(self):
        network = line_network(spacing=100.0, tx_range=150.0)
        graph = network.connectivity_graph()
        assert 1 in graph[0] and 0 in graph[1]
        assert 2 not in graph[0]
        assert network.is_connected()

    def test_dead_nodes_leave_graph(self):
        network = line_network()
        network.node(1).consume(100.0)
        graph = network.connectivity_graph()
        assert 1 not in graph
        assert not network.is_connected()  # chain is broken

    def test_forward_drains_senders_and_receivers(self):
        network = line_network()
        before = {i: network.node(i).battery for i in range(4)}
        energy = network.forward([0, 1, 2], bits=1e6)
        assert energy > 0
        assert network.node(0).battery < before[0]   # tx only
        assert network.node(1).battery < before[1]   # rx + tx
        assert network.node(2).battery < before[2]   # rx only
        assert network.node(3).battery == before[3]  # uninvolved

    def test_forward_validates_route(self):
        network = line_network()
        with pytest.raises(ValueError):
            network.forward([0], bits=1.0)

    def test_random_network_reproducible(self):
        a = random_network(n_nodes=10, seed=3)
        b = random_network(n_nodes=10, seed=3)
        assert all(
            a.node(i).x == b.node(i).x for i in range(10)
        )

    def test_random_network_validation(self):
        with pytest.raises(ValueError):
            random_network(n_nodes=1)


class TestRoutingProtocols:
    def test_min_power_prefers_short_hops(self):
        # 0 -- 1 -- 2 in a line plus a direct long link 0--2
        nodes = [
            ManetNode(0, 0.0, 0.0, battery=10.0),
            ManetNode(1, 100.0, 0.0, battery=10.0),
            ManetNode(2, 200.0, 0.0, battery=10.0),
        ]
        network = ManetNetwork(nodes, tx_range=250.0)
        route = MinimumPowerRouting().find_route(network, 0, 2)
        assert route == [0, 1, 2]  # two short hops beat one long

    def test_battery_cost_routes_around_tired_node(self):
        # two parallel relays; the cheaper one is nearly drained
        nodes = [
            ManetNode(0, 0.0, 0.0, battery=10.0),
            ManetNode(1, 100.0, 10.0, battery=10.0),   # straight relay
            ManetNode(2, 100.0, -60.0, battery=10.0),  # detour relay
            ManetNode(3, 200.0, 0.0, battery=10.0),
        ]
        network = ManetNetwork(nodes, tx_range=250.0)
        network.node(1).consume(9.8)  # nearly dead
        assert MinimumPowerRouting().find_route(network, 0, 3) == \
            [0, 1, 3]
        assert BatteryCostRouting().find_route(network, 0, 3) == \
            [0, 2, 3]

    def test_lpr_avoids_predicted_short_lifetime(self):
        nodes = [
            ManetNode(0, 0.0, 0.0, battery=10.0),
            ManetNode(1, 100.0, 10.0, battery=10.0),
            ManetNode(2, 100.0, -30.0, battery=10.0),
            ManetNode(3, 200.0, 0.0, battery=10.0),
        ]
        network = ManetNetwork(nodes, tx_range=250.0)
        # node 1 has been draining fast
        network.node(1).consume(5.0)
        network.node(1).end_window()
        route = LifetimePredictionRouting().find_route(network, 0, 3)
        assert route == [0, 2, 3]

    def test_unreachable_returns_none(self):
        nodes = [
            ManetNode(0, 0.0, 0.0, battery=10.0),
            ManetNode(1, 5_000.0, 0.0, battery=10.0),
        ]
        network = ManetNetwork(nodes, tx_range=100.0)
        for cls in PROTOCOLS:
            assert cls().find_route(network, 0, 1) is None

    def test_route_to_self_is_the_source(self):
        network = line_network()
        for cls in PROTOCOLS:
            assert cls().find_route(network, 3, 3) == [3]

    def test_dead_endpoint_returns_none(self):
        network = line_network()
        network.node(0).consume(100.0)
        assert MinimumPowerRouting().find_route(network, 0, 3) is None

    def test_lpr_candidate_validation(self):
        with pytest.raises(ValueError):
            LifetimePredictionRouting(n_candidates=0)


class TestLifetime:
    def test_simulation_terminates_at_death_fraction(self):
        network = random_network(n_nodes=20, battery=0.5,
                                 tx_range=300.0, seed=5)
        result = simulate_lifetime(
            MinimumPowerRouting(), network, n_sessions=100_000,
            bits_per_session=80_000.0, death_fraction=0.2, seed=6,
        )
        assert result.lifetime_sessions < 100_000
        assert result.first_death_session is not None
        assert result.first_death_session <= result.lifetime_sessions + 1

    def test_delivery_accounting(self):
        network = random_network(n_nodes=20, battery=5.0,
                                 tx_range=400.0, seed=7)
        result = simulate_lifetime(
            MinimumPowerRouting(), network, n_sessions=200,
            bits_per_session=10_000.0, seed=8,
        )
        assert result.delivered + result.failed <= 200
        assert 0.0 <= result.delivery_ratio <= 1.0
        assert result.total_energy > 0

    def test_e9_power_aware_beats_min_power(self):
        """The §4.2 claim: power-aware routing extends lifetime >20%
        on average (battery-cost clears the bar; LPR is positive)."""
        seeds = (0, 1, 2)
        gains = {"battery-cost": [], "lifetime-prediction": []}
        for seed in seeds:
            results = compare_protocols(
                PROTOCOLS, n_nodes=50, seed=seed,
                n_sessions=100_000, bits_per_session=80_000.0,
                death_fraction=0.2,
            )
            base = results["min-power"].lifetime_sessions
            for name in gains:
                gains[name].append(
                    results[name].lifetime_sessions / base - 1.0
                )
        assert np.mean(gains["battery-cost"]) > 0.15
        assert np.mean(gains["lifetime-prediction"]) > 0.0

    def test_power_aware_delays_first_death(self):
        results = compare_protocols(
            PROTOCOLS, n_nodes=50, seed=0, n_sessions=100_000,
        )
        assert results["battery-cost"].first_death_session > \
            results["min-power"].first_death_session

    def test_validation(self):
        network = random_network(n_nodes=5, seed=0)
        with pytest.raises(ValueError):
            simulate_lifetime(MinimumPowerRouting(), network,
                              death_fraction=0.0)
        with pytest.raises(ValueError):
            simulate_lifetime(MinimumPowerRouting(), network,
                              n_sessions=0)


class TestMobility:
    def test_nodes_stay_in_area(self):
        network = random_network(n_nodes=10, area=100.0, seed=1)
        mobility = RandomWalkMobility(area=100.0, max_step=50.0)
        rng = spawn_rng(0, "mobility-test")
        for _ in range(50):
            mobility.step(network, rng)
        for node in network.nodes.values():
            assert 0.0 <= node.x <= 100.0
            assert 0.0 <= node.y <= 100.0

    def test_nodes_actually_move(self):
        network = random_network(n_nodes=5, seed=2)
        before = [(n.x, n.y) for n in network.nodes.values()]
        RandomWalkMobility().step(network, spawn_rng(1, "m"))
        after = [(n.x, n.y) for n in network.nodes.values()]
        assert before != after

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWalkMobility(area=0.0)
