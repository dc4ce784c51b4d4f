"""The graph helpers against networkx, which stays a test-only oracle.

Process graphs are drawn with shuffled names and edge insertion
orders, so the lexicographic topological order and the depth-first
cycle search are checked on orders that differ from the names' order.
Routing graphs use continuous random weights (node positions), so no
two paths tie and the shortest path is unique.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.model import verify_application
from repro.core import ApplicationGraph, ChannelSpec, ProcessNode
from repro.manet import (
    BatteryCostRouting,
    MinimumPowerRouting,
    random_network,
)
from repro.manet.routing import _dijkstra_path

NAMES = [f"p{i}" for i in range(12)]


@st.composite
def process_graphs(draw, acyclic=False):
    """(ordered node names, ordered edges) of a simple digraph."""
    names = draw(st.permutations(NAMES))[:draw(st.integers(1, 9))]
    pairs = [(a, b) for i, a in enumerate(names)
             for j, b in enumerate(names)
             if i != j and (not acyclic or i < j)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=3 * len(names))) if pairs else []
    return names, edges


def build(names, edges):
    app = ApplicationGraph("g")
    oracle = nx.DiGraph()
    for name in names:
        app.add_process(ProcessNode(name, 1.0))
        oracle.add_node(name)
    for src, dst in edges:
        app.add_channel(ChannelSpec(src, dst))
        oracle.add_edge(src, dst)
    return app, oracle


class TestProcessGraphsMatchNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(process_graphs(acyclic=True))
    def test_topological_order(self, graph):
        app, oracle = build(*graph)
        assert app.topological_order() == list(
            nx.lexicographical_topological_sort(oracle))

    @settings(max_examples=300, deadline=None)
    @given(process_graphs())
    def test_cycle_and_rc103_message(self, graph):
        app, oracle = build(*graph)
        try:
            expected = [u for u, _ in nx.find_cycle(oracle)]
        except nx.NetworkXNoCycle:
            expected = []
        assert app.find_cycle() == expected
        assert app.is_acyclic() == nx.is_directed_acyclic_graph(oracle)
        rc103 = [d.message for d in verify_application(app)
                 if d.rule == "RC103"]
        if expected:
            loop = " -> ".join(expected + expected[:1])
            assert rc103 == [f"channel cycle {loop} has no initial "
                             f"tokens and will deadlock"]
        else:
            assert rc103 == []

    @settings(max_examples=300, deadline=None)
    @given(process_graphs())
    def test_fragments_and_descendants(self, graph):
        app, oracle = build(*graph)
        assert app.fragment_count() == \
            nx.number_weakly_connected_components(oracle)
        for name in oracle:
            assert app.descendants(name) == nx.descendants(oracle, name)


def drained_network(n_nodes, seed, drains):
    network = random_network(n_nodes=n_nodes, area=600.0, seed=seed)
    for node_id, fraction in enumerate(drains[:n_nodes]):
        network.node(node_id).consume(
            fraction * network.node(node_id).battery)
    return network


def oracle_graph(network):
    graph = nx.Graph()
    links = network.connectivity_graph()
    graph.add_nodes_from(links)
    for u, nbrs in links.items():
        for v, unit in nbrs.items():
            graph.add_edge(u, v, tx_energy_unit=unit)
    return graph


def oracle_path(graph, src, dst, weight):
    try:
        return nx.dijkstra_path(graph, src, dst, weight=weight)
    except nx.NetworkXNoPath:
        return None


network_cases = st.tuples(
    st.integers(2, 16), st.integers(0, 2**16),
    st.lists(st.floats(0.0, 0.95), min_size=16, max_size=16),
    st.integers(0, 15), st.integers(0, 15))


class TestRoutesMatchNetworkx:
    @settings(max_examples=150, deadline=None)
    @given(network_cases)
    def test_min_power(self, case):
        n_nodes, seed, drains, src, dst = case
        network = drained_network(n_nodes, seed, drains)
        src, dst = src % n_nodes, dst % n_nodes
        expected = oracle_path(oracle_graph(network), src, dst,
                               "tx_energy_unit")
        route = MinimumPowerRouting().find_route(network, src, dst)
        assert route == expected
        # The memo returns the same answer the second time.
        assert MinimumPowerRouting().find_route(network, src, dst) == \
            expected

    @settings(max_examples=150, deadline=None)
    @given(network_cases)
    def test_battery_cost(self, case):
        n_nodes, seed, drains, src, dst = case
        network = drained_network(n_nodes, seed, drains)
        src, dst = src % n_nodes, dst % n_nodes

        def weight(u, v, data):
            residual = max(network.node(u).residual_fraction, 1e-6)
            return data["tx_energy_unit"] / residual

        expected = oracle_path(oracle_graph(network), src, dst, weight)
        assert BatteryCostRouting().find_route(network, src, dst) == \
            expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10), st.floats(0.1, 1.0),
           st.integers(0, 2**16), st.data())
    def test_dijkstra_on_directed_weights(self, n_nodes, density, seed,
                                          data):
        rng = np.random.default_rng(seed)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n_nodes))
        for u in range(n_nodes):
            for v in range(n_nodes):
                if u != v and rng.random() < density:
                    graph.add_edge(u, v,
                                   weight=float(rng.uniform(0.1, 10.0)))
        adjacency = {u: {v: d["weight"] for v, d in graph[u].items()}
                     for u in graph}
        src = data.draw(st.integers(0, n_nodes - 1))
        dst = data.draw(st.integers(0, n_nodes - 1))
        assert _dijkstra_path(adjacency, src, dst) == \
            oracle_path(graph, src, dst, "weight")
