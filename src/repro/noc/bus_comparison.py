"""Bus vs. NoC scaling study (§3.2).

"communication becomes a major concern as traditional bus-based
architectures fail because of their limited bandwidth in conjunction
with their inability to scale" and "as opposed to a bus-based system,
transactions can potentially be performed in parallel".

The study pushes identical all-to-all tile traffic through (a) a single
shared bus and (b) a 2D-mesh NoC of the same link bandwidth, sweeping
the number of tiles.  The bus saturates at a fixed aggregate bandwidth;
the mesh's bisection grows with the die, so delivered throughput keeps
scaling — the crossover the paper uses to motivate NoCs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.des import Environment, Resource
from repro.noc.network import NocNetwork
from repro.noc.topology import Mesh2D
from repro.utils.rng import spawn_rng
from repro.utils.stats import SummaryStats

__all__ = ["FabricResult", "simulate_bus_fabric", "simulate_noc_fabric",
           "bus_vs_noc_sweep"]

#: Default bus and link bandwidth (bit/s): both fabrics run at one speed.
_BANDWIDTH = 2e9


@dataclass
class FabricResult:
    """Delivered performance of one interconnect at one system size."""

    fabric: str
    n_tiles: int
    offered_bps: float
    delivered_bps: float
    mean_latency: float
    p_latency_max: float

    @property
    def saturation(self) -> float:
        """Delivered over offered (1.0 = keeping up)."""
        if self.offered_bps <= 0:
            return math.nan
        return self.delivered_bps / self.offered_bps


def _traffic_schedule(n_tiles: int, rate_per_tile: float,
                      horizon: float, seed: int):
    """Per-tile Poisson packet processes to uniform random targets.

    Returns a list of (time, src_index, dst_index) tuples, shared by
    both fabrics so the comparison sees identical load.
    """
    if n_tiles < 2:
        raise ValueError("need at least two tiles")
    rng = spawn_rng(seed, "fabric-traffic")
    events = []
    for src in range(n_tiles):
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_per_tile))
            if t >= horizon:
                break
            dst = int(rng.integers(0, n_tiles - 1))
            if dst >= src:
                dst += 1
            events.append((t, src, dst))
    events.sort()
    return events


def simulate_bus_fabric(
    n_tiles: int,
    packet_bits: float = 8_192.0,
    rate_per_tile: float = 10_000.0,
    bus_bandwidth: float = _BANDWIDTH,
    horizon: float = 0.02,
    seed: int = 0,
) -> FabricResult:
    """All packets arbitrate for one shared bus."""
    events = _traffic_schedule(n_tiles, rate_per_tile, horizon, seed)
    return _run_bus(n_tiles, events, packet_bits, bus_bandwidth, horizon)


def _run_bus(n_tiles: int, events, packet_bits: float,
             bus_bandwidth: float, horizon: float) -> FabricResult:
    env = Environment()
    bus = Resource(env, capacity=1)
    latency = SummaryStats("bus-latency")
    delivered_bits = [0.0]
    hold = packet_bits / bus_bandwidth

    def delivered(created, _path):
        latency.add(env.now - created)
        delivered_bits[0] += packet_bits

    def sender(_arrival):
        env.traverse((bus,), hold, value=env.now, name="sender",
                     done=delivered)

    for at, _src, _dst in events:
        env.timeout(at).callbacks.append(sender)
    env.run(until=horizon)

    offered = len(events) * packet_bits / horizon
    return FabricResult(
        fabric="bus",
        n_tiles=n_tiles,
        offered_bps=offered,
        delivered_bps=delivered_bits[0] / horizon,
        mean_latency=latency.mean,
        p_latency_max=latency.maximum,
    )


def simulate_noc_fabric(
    n_tiles: int,
    packet_bits: float = 8_192.0,
    rate_per_tile: float = 10_000.0,
    link_bandwidth: float = _BANDWIDTH,
    horizon: float = 0.02,
    seed: int = 0,
) -> FabricResult:
    """The same traffic over a (near-)square mesh of the same link
    speed; transactions on disjoint routes proceed in parallel."""
    events = _traffic_schedule(n_tiles, rate_per_tile, horizon, seed)
    return _run_noc(n_tiles, events, packet_bits, link_bandwidth, horizon)


def _run_noc(n_tiles: int, events, packet_bits: float,
             link_bandwidth: float, horizon: float) -> FabricResult:
    width = int(math.ceil(math.sqrt(n_tiles)))
    height = int(math.ceil(n_tiles / width))
    mesh = Mesh2D(width, height)
    tiles = list(mesh.tiles())[:n_tiles]

    env = Environment()
    network = NocNetwork(env, mesh, link_bandwidth=link_bandwidth,
                         router_latency=10e-9)

    def sender(arrival):
        src, dst = arrival.value
        network.send(network.new_packet(tiles[src], tiles[dst],
                                        payload_bits=packet_bits))

    for at, src, dst in events:
        env.timeout(at, (src, dst)).callbacks.append(sender)
    env.run(until=horizon)

    stats = network.stats
    offered = len(events) * packet_bits / horizon
    return FabricResult(
        fabric="noc",
        n_tiles=n_tiles,
        offered_bps=offered,
        delivered_bps=stats.total_bits / horizon,
        mean_latency=stats.latency.mean,
        p_latency_max=stats.latency.maximum,
    )


def bus_vs_noc_sweep(
    tile_counts=(4, 8, 16, 32),
    *,
    packet_bits: float = 8_192.0,
    rate_per_tile: float = 10_000.0,
    horizon: float = 0.02,
    seed: int = 0,
) -> list[tuple[FabricResult, FabricResult]]:
    """Run both fabrics at each system size; returns (bus, noc) pairs.

    Each size's traffic is drawn once and replayed on both fabrics,
    each at the default bandwidth.
    """
    pairs = []
    for n in tile_counts:
        events = _traffic_schedule(n, rate_per_tile, horizon, seed)
        pairs.append((
            _run_bus(n, events, packet_bits, _BANDWIDTH, horizon),
            _run_noc(n, events, packet_bits, _BANDWIDTH, horizon),
        ))
    return pairs
