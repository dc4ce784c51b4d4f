"""Network-on-chip substrate (§3.2–3.3): topology, routing, energy,
packet-level simulation, application graphs, energy-aware mapping and
scheduling, packet-size exploration."""

from repro.noc.apcg import (
    mms_apcg,
    random_multimedia_apcg,
    video_surveillance_apcg,
)
from repro.noc.bus_comparison import (
    FabricResult,
    bus_vs_noc_sweep,
    simulate_bus_fabric,
    simulate_noc_fabric,
)
from repro.noc.energy import NocEnergyModel
from repro.noc.memory_study import (
    MemoryStudyResult,
    hot_link_load,
    memory_organization_study,
    simulate_memory_traffic,
)
from repro.noc.mapping import (
    NocMapping,
    TileCompatibility,
    adhoc_mapping,
    branch_and_bound_mapping,
    greedy_mapping,
    random_noc_mapping,
    simulated_annealing_mapping,
)
from repro.noc.network import NocNetwork, NocNetworkStats, NocPacket
from repro.noc.packet_sizing import (
    MessageFlow,
    PacketSizeResult,
    default_flows,
    packet_size_sweep,
    run_packet_size_trial,
)
from repro.noc.routing import route_links, west_first_route, xy_route
from repro.noc.scheduling import (
    ScheduledTask,
    ScheduleResult,
    edf_schedule,
    energy_aware_schedule,
)
from repro.noc.topology import Mesh2D, Tile

__all__ = [
    "Mesh2D",
    "Tile",
    "NocEnergyModel",
    "xy_route",
    "west_first_route",
    "route_links",
    "NocPacket",
    "NocNetwork",
    "NocNetworkStats",
    "video_surveillance_apcg",
    "mms_apcg",
    "random_multimedia_apcg",
    "NocMapping",
    "TileCompatibility",
    "adhoc_mapping",
    "random_noc_mapping",
    "greedy_mapping",
    "simulated_annealing_mapping",
    "branch_and_bound_mapping",
    "ScheduleResult",
    "ScheduledTask",
    "edf_schedule",
    "energy_aware_schedule",
    "MessageFlow",
    "PacketSizeResult",
    "default_flows",
    "run_packet_size_trial",
    "packet_size_sweep",
    "FabricResult",
    "simulate_bus_fabric",
    "simulate_noc_fabric",
    "bus_vs_noc_sweep",
    "MemoryStudyResult",
    "hot_link_load",
    "simulate_memory_traffic",
    "memory_organization_study",
]
