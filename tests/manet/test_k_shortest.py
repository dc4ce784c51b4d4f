"""LPR's route discovery: the private Yen search and the shared graph.

``LifetimePredictionRouting`` finds its candidate routes with a Yen
k-shortest-simple-paths search (Lawler's restriction, A* spurs) over a
plain adjacency dict.  Two oracles check it: ``networkx.
shortest_simple_paths`` truncated to k, and ``plain_yen`` below, Yen's
algorithm with a forward Dijkstra per spur and every prefix spurred.
Edge weights are drawn from a continuous distribution, so no two
simple paths tie and the k shortest paths are unique.
"""

import heapq
import math
from itertools import islice

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manet import LifetimePredictionRouting, random_network
from repro.manet import routing
from repro.manet.routing import _k_shortest_paths


def oracle(graph, src, dst, k):
    try:
        return list(islice(
            nx.shortest_simple_paths(graph, src, dst, weight="weight"), k))
    except nx.NetworkXNoPath:
        return []


def dijkstra(adjacency, src, dst, banned, banned_first_hops):
    """Forward Dijkstra avoiding ``banned`` nodes and, from ``src``,
    ``banned_first_hops``; equal-distance ties go to the smaller id."""
    done = set(banned) | {src}
    dist, pred, heap = {}, {}, []
    for v, w in adjacency[src].items():
        if v not in done and v not in banned_first_hops:
            dist[v], pred[v] = w, src
            heapq.heappush(heap, (w, v))
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == dst:
            path = [dst]
            while path[-1] != src:
                path.append(pred[path[-1]])
            return path[::-1]
        done.add(u)
        for v, w in adjacency[u].items():
            if v not in done and d + w < dist.get(v, math.inf):
                dist[v], pred[v] = d + w, u
                heapq.heappush(heap, (d + w, v))
    return None


def plain_yen(adjacency, src, dst, k):
    """(paths, spur searches) of Yen's algorithm spurring off every
    prefix of each accepted path, duplicates dropped at queueing."""
    first = [src] if src == dst else dijkstra(adjacency, src, dst, (), ())
    if first is None:
        return [], 0

    def cost(path):
        return sum(adjacency[a][b] for a, b in zip(path, path[1:]))

    accepted, heap, queued = [], [(cost(first), 0, first)], {tuple(first)}
    counter = searches = 0
    while heap:
        __, __, path = heapq.heappop(heap)
        queued.discard(tuple(path))
        accepted.append(path)
        if len(accepted) == k:
            break
        for i in range(1, len(path)):
            root = path[:i]
            taken = {other[i] for other in accepted if other[:i] == root}
            spur = dijkstra(adjacency, root[-1], dst, root[:-1], taken)
            searches += 1
            if spur is not None and tuple(root[:-1] + spur) not in queued:
                candidate = root[:-1] + spur
                queued.add(tuple(candidate))
                counter += 1
                heapq.heappush(heap, (cost(candidate), counter, candidate))
    return accepted, searches


def weighted_graph(n_nodes, density, seed):
    rng = np.random.default_rng(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            if rng.random() < density:
                graph.add_edge(u, v, weight=float(rng.uniform(0.1, 10.0)))
    return graph


def two_component_graph(n_nodes, density, seed):
    """``weighted_graph`` with every edge across the halves removed."""
    graph = weighted_graph(n_nodes, density, seed)
    half = n_nodes // 2
    graph.remove_edges_from([(u, v) for u, v in graph.edges()
                             if (u < half) != (v < half)])
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

    @settings(max_examples=50, deadline=None)
    @given(st.integers(10, 40), st.floats(0.05, 0.4), st.integers(0, 2**16),
           st.integers(1, 12), st.booleans(), st.data())
    def test_larger_graphs(self, n_nodes, density, seed, k, split, data):
        # Split graphs leave the other half with no distance to dst.
        build = two_component_graph if split else weighted_graph
        graph = build(n_nodes, density, seed)
        src = data.draw(st.integers(0, n_nodes - 1))
        dst = data.draw(st.integers(0, n_nodes - 1).filter(
            lambda d: d != src))
        assert _k_shortest_paths(adjacency_of(graph), src, dst, k) == \
            oracle(graph, src, dst, k)

    def test_tied_weights_keep_paths_distinct(self):
        rng = np.random.default_rng(2)
        graph = nx.gnp_random_graph(14, 0.4, seed=2)
        for u, v in graph.edges():
            graph[u][v]["weight"] = float(rng.integers(1, 3))
        adjacency = adjacency_of(graph)
        got = _k_shortest_paths(adjacency, 0, 13, 30)

        def cost(path):
            return sum(adjacency[a][b] for a, b in zip(path, path[1:]))

        assert len({tuple(path) for path in got}) == len(got) == 30
        assert [cost(p) for p in got] == \
            [cost(p) for p in oracle(graph, 0, 13, 30)]

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


class TestAgainstPlainYen:
    def test_lpr_candidates_match_plain_yen_on_drained_networks(
            self, monkeypatch):
        pairs = []

        def both(adjacency, src, dst, k):
            got = _k_shortest_paths(adjacency, src, dst, k)
            pairs.append((got, plain_yen(adjacency, src, dst, k)[0]))
            return got

        monkeypatch.setattr(routing, "_k_shortest_paths", both)
        rng = np.random.default_rng(30)
        for seed in range(8):
            network = random_network(n_nodes=int(rng.integers(15, 71)),
                                     seed=seed)
            ids = sorted(network.connectivity_graph())
            for node_id in rng.choice(ids, size=len(ids) // 3,
                                      replace=False):
                node = network.node(int(node_id))
                node.consume(float(rng.uniform(0.0, 0.9)) * node.battery)
                node.end_window()
            for __ in range(6):
                src, dst = (int(x) for x in rng.choice(ids, size=2,
                                                       replace=False))
                lpr = LifetimePredictionRouting(int(rng.integers(1, 12)))
                lpr.find_route(network, src, dst)
        assert sum(len(want) > 1 for __, want in pairs) > 20
        for got, want in pairs:
            assert got == want

    def test_lawler_restriction_searches_fewer_spurs(self, monkeypatch):
        searches = []
        spur_path = routing._spur_path

        def counted(*args):
            searches.append(args)
            return spur_path(*args)

        monkeypatch.setattr(routing, "_spur_path", counted)
        adjacency = adjacency_of(weighted_graph(30, 0.1, seed=4))
        paths = _k_shortest_paths(adjacency, 0, 29, 12)
        plain_paths, plain_searches = plain_yen(adjacency, 0, 29, 12)
        assert paths == plain_paths
        assert (len(searches), plain_searches) == (52, 80)


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
