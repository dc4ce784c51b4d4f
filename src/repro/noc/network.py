"""Packet-switched NoC simulation on the DES kernel (§3.2).

"Instead of routing design specific global on-chip wires, the inter-tile
communication can be achieved by routing packets."  Each directed mesh
link is a unit-capacity resource; packets traverse their XY route
link-by-link (store-and-forward), paying a per-hop router latency plus
serialization, and contending with other packets for links — the
mechanism behind both NoC advantages (parallel transactions) and the
packet-size trade-off of E5 (long packets block links).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

from repro.des import Environment, Resource, Traversal
from repro.noc.energy import NocEnergyModel
from repro.noc.routing import route_links, xy_route
from repro.noc.topology import Mesh2D, Tile
from repro.utils.stats import SummaryStats

__all__ = ["NocPacket", "NocNetworkStats", "NocNetwork"]


@dataclass
class NocPacket:
    """One NoC packet: payload plus header flits.

    The destination address lives in the header ("the destination
    address of a packet is encoded as part of the packet header"), so
    every packet pays ``header_bits`` of overhead regardless of payload.
    """

    uid: int
    src: Tile
    dst: Tile
    payload_bits: float
    header_bits: float = 32.0
    created: float = 0.0
    message_id: int | None = None

    def __post_init__(self) -> None:
        if self.payload_bits < 0 or self.header_bits <= 0:
            raise ValueError("invalid packet sizes")

    @property
    def size_bits(self) -> float:
        """Total on-wire size."""
        return self.payload_bits + self.header_bits


@dataclass
class NocNetworkStats:
    """Aggregate measurements of one network run."""

    delivered: int = 0
    payload_bits: float = 0.0
    total_bits: float = 0.0
    energy: float = 0.0
    latency: SummaryStats = field(
        default_factory=lambda: SummaryStats("noc-latency")
    )
    hop_count: SummaryStats = field(
        default_factory=lambda: SummaryStats("noc-hops")
    )

    @property
    def header_overhead(self) -> float:
        """Fraction of transported bits that were header."""
        if self.total_bits == 0:
            return math.nan
        return 1.0 - self.payload_bits / self.total_bits

    def goodput(self, horizon: float) -> float:
        """Delivered payload bits per second."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self.payload_bits / horizon


class NocNetwork:
    """A 2D-mesh packet network bound to a DES environment.

    Parameters
    ----------
    env:
        Simulation environment.
    mesh:
        Topology.
    link_bandwidth:
        Per-link bandwidth in bits/s.
    router_latency:
        Fixed per-hop routing/arbitration delay in seconds.
    energy_model:
        Bit-energy figures for the energy account.
    route:
        Routing function ``(mesh, src, dst) -> [tiles]``; XY default.
        It must be deterministic (XY and west-first are): the links of
        a ``(src, dst)`` pair are routed once, on the first packet
        between them, and every later packet reuses that link tuple.
    """

    def __init__(
        self,
        env: Environment,
        mesh: Mesh2D,
        link_bandwidth: float = 2e9,
        router_latency: float = 10e-9,
        energy_model: NocEnergyModel | None = None,
        route=xy_route,
    ):
        if link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if router_latency < 0:
            raise ValueError("router_latency must be non-negative")
        self.env = env
        self.mesh = mesh
        self.link_bandwidth = link_bandwidth
        self.router_latency = router_latency
        self.energy_model = energy_model or NocEnergyModel()
        self.route = route
        self._links = {
            link: Resource(env, capacity=1) for link in mesh.links()
        }
        self._paths: dict[tuple[Tile, Tile], tuple[Resource, ...]] = {}
        self._uid = itertools.count()
        self.stats = NocNetworkStats()
        registry = getattr(env, "metrics", None)
        if registry is not None:
            self._m_delivered = registry.counter("noc_delivered")
            self._m_energy = registry.counter("noc_energy_j")
            self._m_latency = registry.histogram("noc_latency")
            self._m_hops = registry.histogram("noc_hops")
        else:
            self._m_delivered = None
            self._m_energy = None
            self._m_latency = None
            self._m_hops = None

    def new_packet(self, src: Tile, dst: Tile, payload_bits: float,
                   header_bits: float = 32.0,
                   message_id: int | None = None) -> NocPacket:
        """Create a packet stamped with the current time."""
        return NocPacket(
            uid=next(self._uid), src=src, dst=dst,
            payload_bits=payload_bits, header_bits=header_bits,
            created=self.env.now, message_id=message_id,
        )

    def send(self, packet: NocPacket) -> Traversal:
        """Start the ``"transfer"`` traversal of ``packet``; returns it.

        Yield the returned traversal to wait for delivery (its value is
        the packet).
        """
        links = self._paths.get((packet.src, packet.dst))
        if links is None:
            # Routed at the first step, so an off-mesh endpoint fails
            # the transfer rather than this call.
            links = partial(self._route_links, packet.src, packet.dst)
        hold = self.router_latency + packet.size_bits / self.link_bandwidth
        return self.env.traverse(links, hold, value=packet,
                                 name="transfer", done=self._account)

    def _route_links(self, src: Tile, dst: Tile) -> tuple[Resource, ...]:
        """The link resources ``src -> dst`` crosses, routed and cached
        on first use."""
        links = self._paths.get((src, dst))
        if links is None:
            path = self.route(self.mesh, src, dst)
            links = tuple(self._links[link] for link in route_links(path))
            self._paths[(src, dst)] = links
        return links

    def _account(self, packet: NocPacket,
                 links: tuple[Resource, ...]) -> None:
        hops = len(links)
        self.stats.delivered += 1
        self.stats.payload_bits += packet.payload_bits
        self.stats.total_bits += packet.size_bits
        energy = packet.size_bits * self.energy_model.bit_energy(hops)
        self.stats.energy += energy
        latency = self.env.now - packet.created
        self.stats.latency.add(latency)
        self.stats.hop_count.add(hops)
        if self._m_delivered is not None:
            self._m_delivered.inc()
            self._m_energy.inc(energy)
            self._m_latency.observe(latency)
            self._m_hops.observe(hops)
