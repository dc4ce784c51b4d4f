"""Energy-aware MANET routing protocols (E9, [30–32]).

Three protocols over the same connectivity graph:

* :class:`MinimumPowerRouting` (after [30]) — "Each link cost is set to
  the energy required for transmitting one packet of data across that
  link and Dijkstra's shortest path algorithm is used"; it repeatedly
  selects the same least-power routes and burns out the nodes on them.
* :class:`BatteryCostRouting` (after [31], MBCR-style) — link costs are
  inflated by the transmitter's depleted-battery cost 1/residual, so
  traffic routes around tired nodes.
* :class:`LifetimePredictionRouting` (after [32]) — picks the route
  whose bottleneck node has the largest *predicted* lifetime
  (residual / EWMA drain rate), a max-min criterion.

The battery/lifetime protocols "create additional control traffic",
modeled as a per-discovery energy surcharge on the route's nodes.
"""

from __future__ import annotations

import heapq
import math

from repro.manet.network import ManetNetwork

__all__ = [
    "RoutingProtocol",
    "MinimumPowerRouting",
    "BatteryCostRouting",
    "LifetimePredictionRouting",
    "PROTOCOLS",
]


class RoutingProtocol:
    """Base class: find a route for one session.

    Parameters
    ----------
    control_overhead:
        Extra energy per route discovery, as a fraction of the data
        energy, charged to every node on the chosen route.
    """

    name = "base"
    control_overhead = 0.0

    def find_route(self, network: ManetNetwork, src: int,
                   dst: int) -> list[int] | None:
        """Route from ``src`` to ``dst`` or ``None`` if unreachable."""
        raise NotImplementedError


class MinimumPowerRouting(RoutingProtocol):
    """Least-transmit-energy path (Dijkstra on TX energy), per [30]."""

    name = "min-power"
    control_overhead = 0.0

    def find_route(self, network: ManetNetwork, src: int,
                   dst: int) -> list[int] | None:
        graph = network.connectivity_graph()
        if src not in graph or dst not in graph:
            return None
        # Min-power link costs depend only on the topology, so for a
        # given connectivity graph the (src, dst) route is a pure
        # function — memoize it on the graph itself, which the network
        # rebuilds on every topology change.
        memo = graph.min_power_routes
        route = memo.get((src, dst), False)
        if route is False:
            route = memo[(src, dst)] = _dijkstra_path(graph, src, dst)
        return route


class BatteryCostRouting(RoutingProtocol):
    """Battery-cost-aware routing (after [31]).

    Link cost = TX energy × f(residual) with f(r) = 1/r of the sending
    end: a nearly-empty forwarder makes its outgoing links expensive,
    spreading load.
    """

    name = "battery-cost"
    control_overhead = 0.02

    def find_route(self, network: ManetNetwork, src: int,
                   dst: int) -> list[int] | None:
        graph = network.connectivity_graph()
        if src not in graph or dst not in graph:
            return None
        # Directed weights in a private adjacency (the graph is a
        # shared cache): u -> v costs unit / residual(u).
        adjacency: dict[int, dict[int, float]] = {}
        for u, nbrs in graph.items():
            residual = max(network.node(u).residual_fraction, 1e-6)
            adjacency[u] = {v: unit / residual
                            for v, unit in nbrs.items()}
        return _dijkstra_path(adjacency, src, dst)


class LifetimePredictionRouting(RoutingProtocol):
    """Max-min predicted-lifetime routing (after [32]).

    LPR runs on top of a DSR-style on-demand discovery: the source
    learns a handful of (near-shortest) candidate routes and picks the
    one whose bottleneck node has the largest predicted lifetime
    (residual energy / EWMA drain rate).  Restricting the choice to
    discovered routes is what keeps the selected paths energy-sane —
    a pure max-min over the whole graph would happily take arbitrarily
    long detours through fresh nodes.

    Parameters
    ----------
    n_candidates:
        How many discovered routes the selection considers.
    """

    name = "lifetime-prediction"
    control_overhead = 0.02

    def __init__(self, n_candidates: int = 6):
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        self.n_candidates = n_candidates

    def find_route(self, network: ManetNetwork, src: int,
                   dst: int) -> list[int] | None:
        graph = network.connectivity_graph()
        if src not in graph or dst not in graph:
            return None
        if src == dst:  # no forwarding node to weigh
            return [src]

        def bottleneck_lifetime(route: list[int]) -> float:
            # All forwarding nodes (and the receiver) must stay alive.
            return min(
                network.node(node_id).predicted_lifetime()
                for node_id in route[1:]
            )

        # Discovery metric: transmit energy inflated by battery
        # depletion (the route-request flooding of LPR reaches the
        # destination along paths that avoid tired nodes), so
        # candidates are both energy-competitive and diverse; the
        # lifetime criterion then arbitrates among them.  Each link
        # weighs unit / residual of its endpoint that comes first in
        # node order, the same weight in both directions.  The weights
        # live in a private adjacency: the graph is a shared cache.
        adjacency: dict[int, dict[int, float]] = {n: {} for n in graph}
        for u, nbrs in graph.items():
            residual = max(network.node(u).residual_fraction, 1e-6)
            for v, unit in nbrs.items():
                if v not in adjacency[u]:  # else weighed from v first
                    adjacency[u][v] = adjacency[v][u] = unit / residual
        candidates = _k_shortest_paths(adjacency, src, dst,
                                       self.n_candidates)
        if not candidates:
            return None
        return max(candidates, key=bottleneck_lifetime)


def _dijkstra_path(adjacency: dict[int, dict[int, float]], src: int,
                   dst: int) -> list[int] | None:
    """Least-weight ``src``→``dst`` path over a ``{u: {v: w}}``
    adjacency, or ``None`` when there is none.  Equal-distance ties go
    to the smaller node id."""
    if src == dst:
        return [src]
    done = {src}
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    heap = []
    for v, w in adjacency[src].items():
        dist[v] = w
        pred[v] = src
        heap.append((w, v))
    heapq.heapify(heap)
    pop, push, inf = heapq.heappop, heapq.heappush, math.inf
    while heap:
        d, u = pop(heap)
        if u in done:
            continue
        if u == dst:
            path = [dst]
            while path[-1] != src:
                path.append(pred[path[-1]])
            return path[::-1]
        done.add(u)
        for v, w in adjacency[u].items():
            if v not in done:
                nd = d + w
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    pred[v] = u
                    push(heap, (nd, v))
    return None


def _distances_from(adjacency: dict[int, dict[int, float]],
                    src: int) -> dict[int, float]:
    """Least-weight distance from ``src`` to every node it reaches."""
    dist = {src: 0.0}
    done: set[int] = set()
    heap = [(0.0, src)]
    pop, push, inf = heapq.heappop, heapq.heappush, math.inf
    while heap:
        d, u = pop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adjacency[u].items():
            if v not in done:
                nd = d + w
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    push(heap, (nd, v))
    return dist


def _spur_path(adjacency: dict[int, dict[int, float]],
               to_dst: dict[int, float], root: list[int], dst: int,
               banned_first_hops: set[int]) -> list[int] | None:
    """A* search for the least-weight path from ``root[-1]`` to ``dst``
    that visits no other ``root`` node and does not leave ``root[-1]``
    towards a ``banned_first_hops`` node, or ``None`` when there is
    none.

    ``to_dst`` maps each node to its unrestricted distance to ``dst``;
    a node missing from it cannot reach ``dst`` and is never queued.
    Equal ``g + h`` ties go to the smaller node id."""
    src = root[-1]
    done = set(root)
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    heap = []
    for v, w in adjacency[src].items():
        if v not in done and v not in banned_first_hops and v in to_dst:
            dist[v] = w
            pred[v] = src
            heap.append((w + to_dst[v], v))
    heapq.heapify(heap)
    pop, push, inf = heapq.heappop, heapq.heappush, math.inf
    while heap:
        __, u = pop(heap)
        if u in done:
            continue
        if u == dst:
            path = [dst]
            while path[-1] != src:
                path.append(pred[path[-1]])
            return path[::-1]
        done.add(u)
        d = dist[u]
        for v, w in adjacency[u].items():
            if v not in done:
                nd = d + w
                if nd < dist.get(v, inf):
                    h = to_dst.get(v)
                    if h is not None:
                        dist[v] = nd
                        pred[v] = u
                        push(heap, (nd + h, v))
    return None


def _k_shortest_paths(adjacency: dict[int, dict[int, float]], src: int,
                      dst: int, k: int) -> list[list[int]]:
    """Up to ``k`` loopless ``src``→``dst`` paths in increasing total
    weight (Yen's algorithm) over a symmetric ``{u: {v: w}}`` adjacency.

    A path's cost is the sum of its edge weights along the path.
    Candidates pop in cost order, ties by discovery order, and each
    simple path is offered once.

    Two changes to plain Yen search less for the same paths:

    * **Lawler's restriction.**  Each candidate records its deviation
      index ``i``: it was found by spurring at ``path[i - 1]`` and
      shares ``path[:i]`` with its parent (the first path has index
      1).  Every queued candidate is then the cheapest path of its
      own set — paths that start with its root and whose next hop no
      path accepted at its discovery took — and these sets are
      disjoint and, with the accepted paths, cover every simple path.
      Accepting a path splits its set by the position where a path
      first leaves it, at or after the deviation index, so only those
      spurs are searched.  A spur at an earlier index would search a
      set already covered by the parent's and the accepted siblings'
      spurs.  Disjoint sets also mean no candidate is found twice.
    * **A* spur searches.**  One Dijkstra from ``dst`` gives each
      node's unrestricted distance to ``dst`` (the adjacency is
      symmetric).  A spur search only removes nodes and edges, so that
      distance never overestimates what is left (admissible), and
      ``h(u) <= w(u, v) + h(v)`` holds on every edge by the triangle
      inequality of shortest distances (consistent).  A* on ``g + h``
      therefore settles each node at its least restricted distance,
      as Dijkstra does, and returns a least-weight spur (the one
      Dijkstra finds, when it is unique) while expanding mostly nodes
      on the way to ``dst``.
    """
    first = _dijkstra_path(adjacency, src, dst)
    if first is None:
        return []
    to_dst = _distances_from(adjacency, dst)

    def cost(path: list[int]) -> float:
        return sum(adjacency[a][b] for a, b in zip(path, path[1:]))

    accepted: list[list[int]] = []
    heap = [(cost(first), 0, 1, first)]
    counter = 1
    while heap:
        __, __, deviation, path = heapq.heappop(heap)
        accepted.append(path)
        if len(accepted) == k:
            break
        # Spur off every prefix from the deviation on: the spur may not
        # revisit the prefix, nor take the next hop an accepted path
        # with the same prefix already took.  (Yen bans those edges;
        # all of them leave the spur node, so banning the hop suffices.)
        for i in range(deviation, len(path)):
            root = path[:i]
            taken = {other[i] for other in accepted if other[:i] == root}
            spur = _spur_path(adjacency, to_dst, root, dst, taken)
            if spur is not None:
                candidate = root[:-1] + spur
                heapq.heappush(
                    heap, (cost(candidate), counter, i, candidate))
                counter += 1
    return accepted


#: The protocol lineup of the E9 bench.
PROTOCOLS = (
    MinimumPowerRouting,
    BatteryCostRouting,
    LifetimePredictionRouting,
)
