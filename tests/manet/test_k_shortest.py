"""LPR's route discovery: the private Yen search and the shared graph.

``LifetimePredictionRouting`` finds its candidate routes with a Yen
k-shortest-simple-paths search over a plain adjacency dict.  The
oracle is ``networkx.shortest_simple_paths`` truncated to k.  Edge
weights are drawn from a continuous distribution, so no two simple
paths tie and the k shortest paths are unique.
"""

from itertools import islice

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manet import LifetimePredictionRouting, random_network
from repro.manet.routing import _k_shortest_paths


def oracle(graph, src, dst, k):
    try:
        return list(islice(
            nx.shortest_simple_paths(graph, src, dst, weight="weight"), k))
    except nx.NetworkXNoPath:
        return []


def weighted_graph(n_nodes, density, seed):
    rng = np.random.default_rng(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            if rng.random() < density:
                graph.add_edge(u, v, weight=float(rng.uniform(0.1, 10.0)))
    return graph


def adjacency_of(graph):
    adjacency = {n: {} for n in graph}
    for u, v, data in graph.edges(data=True):
        adjacency[u][v] = adjacency[v][u] = data["weight"]
    return adjacency


class TestYenMatchesNetworkx:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 9), st.floats(0.1, 1.0), st.integers(0, 2**16),
           st.integers(1, 40), st.data())
    def test_random_graphs(self, n_nodes, density, seed, k, data):
        graph = weighted_graph(n_nodes, density, seed)
        src = data.draw(st.integers(0, n_nodes - 1))
        dst = data.draw(st.integers(0, n_nodes - 1).filter(
            lambda d: d != src))
        assert _k_shortest_paths(adjacency_of(graph), src, dst, k) == \
            oracle(graph, src, dst, k)

    def test_unreachable_destination(self):
        graph = weighted_graph(6, 1.0, seed=3)
        graph.add_node(6)
        assert _k_shortest_paths(adjacency_of(graph), 0, 6, 5) == []

    def test_adjacent_source_and_destination(self):
        graph = weighted_graph(7, 0.8, seed=11)
        src, dst = next(iter(graph.edges()))
        got = _k_shortest_paths(adjacency_of(graph), src, dst, 6)
        assert got == oracle(graph, src, dst, 6)

    def test_k_beyond_the_number_of_simple_paths(self):
        graph = weighted_graph(5, 1.0, seed=5)
        every = oracle(graph, 0, 4, 10_000)
        assert len(every) == 16  # all simple 0 -> 4 paths in K5
        assert _k_shortest_paths(adjacency_of(graph), 0, 4, 100) == every


class TestSharedGraphHygiene:
    def test_find_route_leaves_cached_graph_edges_untouched(self):
        network = random_network(n_nodes=20, seed=4)
        for node_id in (1, 2, 3):
            network.node(node_id).consume(
                0.4 * network.node(node_id).battery)
        graph = network.connectivity_graph()
        before = {u: dict(nbrs) for u, nbrs in graph.items()}
        ids = sorted(graph)
        LifetimePredictionRouting().find_route(network, ids[0], ids[-1])
        assert network.connectivity_graph() is graph
        assert {u: dict(nbrs) for u, nbrs in graph.items()} == before
