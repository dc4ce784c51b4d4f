"""Local vs. global memory organization on a NoC (§3.3).

"the designer should provide as many local memories as possible instead
of few large and globally accessed ones ... If access to few large
global memories would be provided through the NoC, the NoC would have
to be designed prohibitively conservative to satisfy the worst case
node-to-memory bandwidth requirement."

The study issues identical memory traffic from every compute tile under
two organizations — one central memory tile vs. per-tile local memories
with a small shared fraction — and reports access latency plus the
hot-link load, the quantity that would force a conservative NoC design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.des import Environment
from repro.noc.network import NocNetwork
from repro.noc.routing import route_links, xy_route
from repro.noc.topology import Mesh2D, Tile
from repro.utils.rng import spawn_rng
from repro.utils.stats import SummaryStats

__all__ = ["MemoryStudyResult", "simulate_memory_traffic",
           "hot_link_load", "memory_organization_study"]


@dataclass
class MemoryStudyResult:
    """Measured behaviour of one memory organization."""

    organization: str
    mean_access_latency: float
    max_access_latency: float
    network_bits: float
    hot_link_bps: float        # absolute load on the busiest link
                               # (analytic, XY routes) — the figure a
                               # conservative NoC must be sized for


def hot_link_load(mesh: Mesh2D, flows: list[tuple[Tile, Tile, float]]
                  ) -> float:
    """Load on the single busiest link, in the units of ``flows``.

    ``flows`` are (src, dst, bits_per_second) over XY routes.  For a
    centralized memory this is the worst-case node-to-memory bandwidth
    requirement the paper warns about.
    """
    link_bits: dict[tuple[Tile, Tile], float] = {}
    for src, dst, bps in flows:
        if src == dst or bps <= 0:
            continue
        for link in route_links(xy_route(mesh, src, dst)):
            link_bits[link] = link_bits.get(link, 0.0) + bps
    if not link_bits:
        return 0.0
    return max(link_bits.values())


def simulate_memory_traffic(
    mesh: Mesh2D,
    memory_of: dict[Tile, Tile],
    access_rate: float = 200_000.0,
    access_bits: float = 512.0,
    link_bandwidth: float = 1e9,
    horizon: float = 0.005,
    seed: int = 0,
) -> tuple[SummaryStats, float]:
    """Drive per-tile memory accesses; returns (latency stats,
    network bits).

    ``memory_of[tile]`` is the memory tile serving ``tile``; accesses
    to the tile itself are local (zero network traffic, fixed local
    latency folded in as 0 for comparability).
    """
    env = Environment()
    network = NocNetwork(env, mesh, link_bandwidth=link_bandwidth,
                         router_latency=10e-9)
    latency = SummaryStats("memory-latency")
    rng = spawn_rng(seed, "memory-traffic")

    def issuer(tile: Tile, target: Tile):
        while True:
            yield env.timeout(float(rng.exponential(1.0 / access_rate)))
            if env.now >= horizon:
                return
            if target == tile:
                latency.add(0.0)  # local: no network involved
                continue
            packet = network.new_packet(tile, target,
                                        payload_bits=access_bits)

            def arrived(_transfer, created=env.now):
                latency.add(env.now - created)

            network.send(packet).callbacks.append(arrived)

    for tile, target in memory_of.items():
        env.process(issuer(tile, target))
    env.run(until=horizon)
    return latency, network.stats.total_bits


def memory_organization_study(
    mesh: Mesh2D | None = None,
    shared_fraction: float = 0.1,
    access_rate: float = 200_000.0,
    access_bits: float = 512.0,
    link_bandwidth: float = 1e9,
    horizon: float = 0.005,
    seed: int = 0,
) -> dict[str, MemoryStudyResult]:
    """Centralized vs. distributed memory on the same mesh.

    Centralized: every access crosses the NoC to one central tile.
    Distributed: a ``shared_fraction`` of accesses still go to the
    central (shared) memory; the rest are local.
    """
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError("shared_fraction must lie in [0, 1]")
    mesh = mesh or Mesh2D(4, 4)
    tiles = list(mesh.tiles())
    centre = Tile(mesh.width // 2, mesh.height // 2)

    results: dict[str, MemoryStudyResult] = {}

    # --- centralized: all tiles hit the central memory ----------------
    memory_of = {tile: centre for tile in tiles if tile != centre}
    latency, bits = simulate_memory_traffic(
        mesh, memory_of, access_rate, access_bits, link_bandwidth,
        horizon, seed,
    )
    per_tile_bps = access_rate * access_bits
    flows = [(tile, centre, per_tile_bps)
             for tile in tiles if tile != centre]
    results["centralized"] = MemoryStudyResult(
        organization="centralized",
        mean_access_latency=latency.mean,
        max_access_latency=latency.maximum,
        network_bits=bits,
        hot_link_bps=hot_link_load(mesh, flows),
    )

    # --- distributed: local memories plus a shared fraction -----------
    # Exactly round(shared_fraction * tiles) tiles keep hitting the
    # shared memory (deterministic count, random identity).
    rng = spawn_rng(seed, "memory-pattern")
    candidates = [tile for tile in tiles if tile != centre]
    n_shared = min(len(candidates),
                   int(round(shared_fraction * len(tiles))))
    picks = rng.choice(len(candidates), size=n_shared, replace=False)
    shared_tiles = {candidates[int(i)] for i in picks}
    memory_of = {}
    flows = []
    for tile in tiles:
        if tile in shared_tiles:
            memory_of[tile] = centre
            flows.append((tile, centre, access_rate * access_bits))
        else:
            memory_of[tile] = tile  # local
    latency, bits = simulate_memory_traffic(
        mesh, memory_of, access_rate, access_bits, link_bandwidth,
        horizon, seed + 1,
    )
    results["distributed"] = MemoryStudyResult(
        organization="distributed",
        mean_access_latency=latency.mean,
        max_access_latency=latency.maximum,
        network_bits=bits,
        hot_link_bps=hot_link_load(mesh, flows),
    )
    return results
