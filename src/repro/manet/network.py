"""The ad-hoc network: nodes, connectivity and session forwarding."""

from __future__ import annotations

from repro.manet.energy import RadioModel
from repro.manet.node import ManetNode
from repro.utils import _graphs
from repro.utils.rng import spawn_rng

__all__ = ["ManetNetwork", "random_network"]

# Module-level caches shared across ManetNetwork instances.  A fault
# sweep runs many simulations over identically-seeded (same positions,
# same radio) networks, so keys carry everything a value depends on —
# radio model (frozen dataclass, hashable), tx_range, node ids and
# positions — and hits are exact across instances.
#
# _FULL_EDGES: all-pairs in-range edge list for a node layout,
# regardless of aliveness: (a_id, b_id, tx_energy_unit).
# _GRAPHS: built connectivity graphs per alive subset.  The min-power
# route memo they carry is a pure function of topology + radio, so
# sharing it is exact too.
_FULL_EDGES: dict[tuple, list[tuple[int, int, float]]] = {}
_GRAPHS: dict[tuple, "ConnectivityGraph"] = {}


class ConnectivityGraph(dict):
    """``{node_id: {neighbour_id: tx_energy_unit}}`` over the alive
    nodes, symmetric, plus ``min_power_routes``: the
    ``{(src, dst): route}`` memo of
    :class:`~repro.manet.routing.MinimumPowerRouting`."""

    __slots__ = ("min_power_routes",)

    def __init__(self, node_ids):
        super().__init__((node_id, {}) for node_id in node_ids)
        self.min_power_routes: dict[tuple[int, int], list[int] | None] = {}


class ManetNetwork:
    """A set of nodes within radio range of each other.

    Parameters
    ----------
    nodes:
        The hosts.
    radio:
        Shared radio energy model.
    tx_range:
        Maximum link distance in meters.
    """

    def __init__(self, nodes: list[ManetNode],
                 radio: RadioModel | None = None,
                 tx_range: float = 250.0):
        if not nodes:
            raise ValueError("network needs at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        if tx_range <= 0:
            raise ValueError("tx_range must be positive")
        self.nodes = {n.node_id: n for n in nodes}
        self.radio = radio or RadioModel()
        self.tx_range = tx_range
        # Pure-function memos over the radio model: TX energy keyed on
        # (bits, distance), RX energy keyed on bits.  Distances repeat
        # exactly while positions are static, and the values are
        # recomputed (not guessed) on any new distance, so the caches
        # stay exact under mobility too.
        self._tx_energy_cache: dict[tuple[float, float], float] = {}
        self._rx_energy_cache: dict[float, float] = {}

    def node(self, node_id: int) -> ManetNode:
        """Look up a node."""
        return self.nodes[node_id]

    def alive_nodes(self) -> list[ManetNode]:
        """Nodes with remaining battery."""
        return [n for n in self.nodes.values() if n.alive]

    def alive_fraction(self) -> float:
        """Fraction of nodes still alive."""
        return len(self.alive_nodes()) / len(self.nodes)

    def connectivity_graph(self) -> ConnectivityGraph:
        """Links between alive nodes in range, as a symmetric
        adjacency whose values are each link's ``tx_energy_unit``
        (the TX energy for one bit across it, precomputed so routing
        metrics never re-evaluate the radio model per relaxation).

        Graphs are cached (module-wide, keyed on radio, range, alive
        nodes and positions — the only inputs), so battery drain
        between topology changes, fail→repair cycles that restore an
        earlier topology, and identically-seeded sibling networks in a
        sweep all reuse a built graph instead of an O(n^2) rebuild.
        Callers share the cached instance, so it must not change:
        neither its links nor their values.  Only pure functions of
        the topology may be memoized on it (as min-power routing does
        in ``min_power_routes``); battery-dependent weights belong in
        the caller's own copy.
        """
        radio = self.radio
        tx_range = self.tx_range
        alive_key = tuple(
            (n.node_id, n.x, n.y)
            for n in self.nodes.values()
            if n.battery > 0.0 and not n.failed
        )
        key = (radio, tx_range, alive_key)
        graph = _GRAPHS.get(key)
        if graph is not None:
            return graph
        # All-pairs edge precompute for this layout: pairs are walked
        # in node order here and filtered by aliveness below, so the
        # adjacency keeps node order (LPR's discovery weights depend
        # on which endpoint of a link comes first).
        full_key = (radio, tx_range,
                    tuple((n.node_id, n.x, n.y)
                          for n in self.nodes.values()))
        edges = _FULL_EDGES.get(full_key)
        if edges is None:
            everyone = list(self.nodes.values())
            tx_energy = radio.tx_energy
            edges = []
            for i, a in enumerate(everyone):
                for b in everyone[i + 1:]:
                    distance = a.distance_to(b)
                    if distance <= tx_range:
                        edges.append((a.node_id, b.node_id,
                                      tx_energy(1.0, distance)))
            if len(_FULL_EDGES) >= 64:
                # Mobility workloads never repeat a layout; bound the
                # cache instead of holding every historic one.
                _FULL_EDGES.clear()
            _FULL_EDGES[full_key] = edges
        graph = ConnectivityGraph(node_id for node_id, _, _ in alive_key)
        for a_id, b_id, unit in edges:
            if a_id in graph and b_id in graph:
                graph[a_id][b_id] = unit
                graph[b_id][a_id] = unit
        if len(_GRAPHS) >= 2048:
            _GRAPHS.clear()
        _GRAPHS[key] = graph
        return graph

    def is_connected(self) -> bool:
        """True when alive nodes form one component."""
        graph = self.connectivity_graph()
        return len(graph) > 1 and len(_graphs.components(graph)) == 1

    def forward(self, route: list[int], bits: float,
                count_rx: bool = True) -> float:
        """Push ``bits`` along ``route``, draining batteries.

        Returns the total energy spent.  Every hop charges the sender
        the TX energy and (optionally) the receiver the RX energy.
        """
        if len(route) < 2:
            raise ValueError("route needs at least two nodes")
        nodes = self.nodes
        tx_cache = self._tx_energy_cache
        radio = self.radio
        rx = 0.0
        if count_rx:
            rx = self._rx_energy_cache.get(bits, -1.0)
            if rx < 0.0:
                rx = self._rx_energy_cache[bits] = radio.rx_energy(bits)
        total = 0.0
        for src_id, dst_id in zip(route, route[1:]):
            src = nodes[src_id]
            dst = nodes[dst_id]
            distance = src.distance_to(dst)
            tx = tx_cache.get((bits, distance), -1.0)
            if tx < 0.0:
                tx = tx_cache[(bits, distance)] = radio.tx_energy(
                    bits, distance)
            # Inlined ManetNode.consume (plain attribute math).
            src.battery -= tx
            src.window_energy += tx
            total += tx
            if count_rx:
                dst.battery -= rx
                dst.window_energy += rx
                total += rx
        return total

    def forward_partial(self, route: list[int], bits: float,
                        count_rx: bool = True) -> tuple[float, bool]:
        """Push ``bits`` along ``route`` until a dead hop breaks it.

        Models transmission over a *stale* route: each live sender
        spends TX energy into the void, but the session dies at the
        first dead relay.  Returns ``(energy_spent, delivered)``.
        """
        if len(route) < 2:
            raise ValueError("route needs at least two nodes")
        nodes = self.nodes
        tx_cache = self._tx_energy_cache
        radio = self.radio
        rx = 0.0
        if count_rx:
            rx = self._rx_energy_cache.get(bits, -1.0)
            if rx < 0.0:
                rx = self._rx_energy_cache[bits] = radio.rx_energy(bits)
        total = 0.0
        for src_id, dst_id in zip(route, route[1:]):
            src = nodes[src_id]
            dst = nodes[dst_id]
            # Inlined ManetNode.alive / consume (hot path: one check
            # and two attribute updates per hop).
            if src.battery <= 0.0 or src.failed:
                return total, False
            distance = src.distance_to(dst)
            tx = tx_cache.get((bits, distance), -1.0)
            if tx < 0.0:
                tx = tx_cache[(bits, distance)] = radio.tx_energy(
                    bits, distance)
            src.battery -= tx
            src.window_energy += tx
            total += tx
            if dst.battery <= 0.0 or dst.failed:
                return total, False
            if count_rx:
                dst.battery -= rx
                dst.window_energy += rx
                total += rx
        return total, True

    def hop_plan(self, route: list[int], bits: float,
                 count_rx: bool = True
                 ) -> list[tuple[ManetNode, ManetNode, float, float]]:
        """Precompute per-hop ``(src, dst, tx_energy, rx_energy)`` for
        forwarding ``bits`` along ``route``.

        A plan is valid while node positions are unchanged (energies
        are pure functions of distance); aliveness and batteries are
        read live at execution time by :meth:`forward_plan`, so a plan
        may be executed many times — the point: session drivers that
        reuse cached routes skip the per-hop distance/radio work.
        """
        if len(route) < 2:
            raise ValueError("route needs at least two nodes")
        nodes = self.nodes
        tx_cache = self._tx_energy_cache
        radio = self.radio
        rx = 0.0
        if count_rx:
            rx = self._rx_energy_cache.get(bits, -1.0)
            if rx < 0.0:
                rx = self._rx_energy_cache[bits] = radio.rx_energy(bits)
        plan = []
        for src_id, dst_id in zip(route, route[1:]):
            src = nodes[src_id]
            dst = nodes[dst_id]
            distance = src.distance_to(dst)
            tx = tx_cache.get((bits, distance), -1.0)
            if tx < 0.0:
                tx = tx_cache[(bits, distance)] = radio.tx_energy(
                    bits, distance)
            plan.append((src, dst, tx, rx))
        return plan

    def forward_plan(self, plan, count_rx: bool = True
                     ) -> tuple[float, bool]:
        """Execute a :meth:`hop_plan`: same semantics (and float-level
        arithmetic) as :meth:`forward_partial` over the plan's route.
        """
        total = 0.0
        for src, dst, tx, rx in plan:
            if src.battery <= 0.0 or src.failed:
                return total, False
            src.battery -= tx
            src.window_energy += tx
            total += tx
            if dst.battery <= 0.0 or dst.failed:
                return total, False
            if count_rx:
                dst.battery -= rx
                dst.window_energy += rx
                total += rx
        return total, True

    def __len__(self) -> int:
        return len(self.nodes)


def random_network(
    n_nodes: int = 40,
    area: float = 1_000.0,
    battery: float = 2.0,
    tx_range: float = 250.0,
    radio: RadioModel | None = None,
    seed: int = 0,
) -> ManetNetwork:
    """Uniformly scattered nodes over an ``area`` × ``area`` square."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = spawn_rng(seed, "manet-topology")
    nodes = [
        ManetNode(
            node_id=i,
            x=float(rng.random() * area),
            y=float(rng.random() * area),
            battery=battery,
        )
        for i in range(n_nodes)
    ]
    return ManetNetwork(nodes, radio=radio, tx_range=tx_range)
