"""The packet-size trade-off study (E5, after [21][22]).

"A multimedia system may favor large packet sizes since, for example,
entire video frames should be transmitted by means of a small total
number of packets.  On the other hand, large packets might prohibitively
long block a network link causing a degradation in the allowable network
throughput." (§3.3)

:func:`packet_size_sweep` pushes the same message workload (video frames
between tile pairs) through the DES network at a range of packet sizes
and reports, per size: mean message latency, energy per payload bit and
header overhead — exposing the interior optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.des import Environment
from repro.noc.energy import NocEnergyModel
from repro.noc.network import NocNetwork
from repro.noc.topology import Mesh2D, Tile
from repro.utils.rng import spawn_rng
from repro.utils.stats import SummaryStats

__all__ = ["MessageFlow", "PacketSizeResult", "run_packet_size_trial",
           "packet_size_sweep", "default_flows"]


@dataclass(frozen=True)
class MessageFlow:
    """A periodic message stream between two tiles.

    Parameters
    ----------
    src, dst:
        Endpoints.
    message_bits:
        Size of each message (e.g. one video frame).
    rate_hz:
        Messages per second.
    """

    src: Tile
    dst: Tile
    message_bits: float
    rate_hz: float

    def __post_init__(self) -> None:
        if self.message_bits <= 0 or self.rate_hz <= 0:
            raise ValueError("message size and rate must be positive")


def default_flows(mesh: Mesh2D, n_flows: int = 8,
                  message_bits: float = 64_000.0,
                  rate_hz: float = 1_000.0, seed: int = 0
                  ) -> list[MessageFlow]:
    """Random distinct tile pairs carrying identical frame streams."""
    if n_flows < 1:
        raise ValueError("n_flows must be >= 1")
    rng = spawn_rng(seed, "packet-flows")
    tiles = list(mesh.tiles())
    flows = []
    for _ in range(n_flows):
        i, j = rng.choice(len(tiles), size=2, replace=False)
        flows.append(MessageFlow(tiles[int(i)], tiles[int(j)],
                                 message_bits, rate_hz))
    return flows


@dataclass
class PacketSizeResult:
    """Metrics for one packet size."""

    payload_bits: float
    mean_message_latency: float
    p_latency_std: float
    energy_per_payload_bit: float
    header_overhead: float
    messages_delivered: int
    goodput: float


def run_packet_size_trial(
    flows: list[MessageFlow],
    mesh: Mesh2D,
    payload_bits: float,
    header_bits: float = 64.0,
    link_bandwidth: float = 1e9,
    router_latency: float = 20e-9,
    horizon: float = 0.05,
    energy_model: NocEnergyModel | None = None,
) -> PacketSizeResult:
    """Simulate the workload at one packet size."""
    if payload_bits <= 0:
        raise ValueError("payload_bits must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    env = Environment()
    network = NocNetwork(
        env, mesh, link_bandwidth=link_bandwidth,
        router_latency=router_latency, energy_model=energy_model,
    )
    message_latency = SummaryStats("message-latency")
    delivered = [0]

    def flow_proc(flow: MessageFlow, flow_id: int):
        period = 1.0 / flow.rate_hz
        message_counter = 0
        while True:
            yield env.timeout(period)
            created = env.now
            n_packets = max(1, math.ceil(
                flow.message_bits / payload_bits
            ))
            remaining = flow.message_bits
            sends = []
            for _ in range(n_packets):
                chunk = min(payload_bits, remaining)
                remaining -= chunk
                packet = network.new_packet(
                    flow.src, flow.dst, payload_bits=chunk,
                    header_bits=header_bits,
                    message_id=flow_id * 1_000_000 + message_counter,
                )
                sends.append(network.send(packet))
            message_counter += 1

            def arrived(_all, created=created):
                message_latency.add(env.now - created)
                delivered[0] += 1

            env.all_of(sends).callbacks.append(arrived)

    for flow_id, flow in enumerate(flows):
        env.process(flow_proc(flow, flow_id))
    env.run(until=horizon)

    stats = network.stats
    energy_per_bit = (
        stats.energy / stats.payload_bits if stats.payload_bits
        else math.nan
    )
    return PacketSizeResult(
        payload_bits=payload_bits,
        mean_message_latency=message_latency.mean,
        p_latency_std=message_latency.std,
        energy_per_payload_bit=energy_per_bit,
        header_overhead=stats.header_overhead,
        messages_delivered=delivered[0],
        goodput=stats.goodput(horizon),
    )


def packet_size_sweep(
    payload_sizes,
    mesh: Mesh2D | None = None,
    flows: list[MessageFlow] | None = None,
    **trial_kwargs,
) -> list[PacketSizeResult]:
    """Run :func:`run_packet_size_trial` across ``payload_sizes``."""
    mesh = mesh or Mesh2D(4, 4)
    flows = flows or default_flows(mesh)
    return [
        run_packet_size_trial(flows, mesh, float(size), **trial_kwargs)
        for size in payload_sizes
    ]
