"""A smart space: ambient multimedia nodes serving a stochastic user.

Puts §5 together: "many tiny cameras inconspicuously embedded into the
surroundings" serve whatever the user is doing; nodes fail and (maybe)
get repaired; a user-aware power manager sleeps nodes when nobody needs
them.  Two questions, two harnesses:

* :func:`redundancy_study` — service availability vs. how many
  redundant nodes cover each zone (the fault-tolerance lever of [33]);
* :func:`user_aware_energy_study` — energy of always-on operation vs.
  a user-aware policy that powers nodes proportionally to the current
  activity's demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ambient.faults import FaultProcess, availability_lower_bound
from repro.ambient.users import UserBehaviorModel, default_home_user

__all__ = ["SmartSpace", "RedundancyResult", "redundancy_study",
           "EnergyStudyResult", "user_aware_energy_study"]


@dataclass(frozen=True)
class SmartSpace:
    """Static parameters of the ambient deployment.

    Parameters
    ----------
    n_zones:
        Coverage zones (rooms/regions), each needing one working node
        to deliver service.
    nodes_per_zone:
        Redundant nodes per zone.
    node_active_power:
        Watts of a node serving media.
    node_sleep_power:
        Watts of a parked node.
    faults:
        Failure/repair dynamics per node.
    """

    n_zones: int = 6
    nodes_per_zone: int = 2
    node_active_power: float = 0.5
    node_sleep_power: float = 0.01
    faults: FaultProcess = FaultProcess(mtbf_slots=5_000.0,
                                        mttr_slots=200.0)

    def __post_init__(self) -> None:
        if self.n_zones < 1 or self.nodes_per_zone < 1:
            raise ValueError("need at least one zone and node")
        if self.node_active_power < self.node_sleep_power:
            raise ValueError("active power below sleep power")


@dataclass
class RedundancyResult:
    """Availability of the space at one redundancy level."""

    nodes_per_zone: int
    measured_availability: float
    analytical_availability: float
    n_slots: int


def redundancy_study(
    space: SmartSpace | None = None,
    redundancy_levels=(1, 2, 3),
    n_slots: int = 20_000,
    seed: int = 0,
) -> list[RedundancyResult]:
    """Service availability vs. per-zone redundancy.

    The space is *available* in a slot when every zone has at least one
    working node.  Measured by Monte-Carlo fault traces; checked
    against the independent-binomial closed form.
    """
    space = space or SmartSpace()
    results = []
    per_node = space.faults.steady_availability()
    for level in redundancy_levels:
        zone_up = np.ones(n_slots, dtype=bool)
        node_index = 0
        for _zone in range(space.n_zones):
            up_any = np.zeros(n_slots, dtype=bool)
            for _replica in range(level):
                up_any |= space.faults.up_trace(
                    n_slots, seed=seed, node=node_index
                )
                node_index += 1
            zone_up &= up_any
        zone_availability = availability_lower_bound(
            per_node, level, 1
        )
        results.append(RedundancyResult(
            nodes_per_zone=level,
            measured_availability=float(zone_up.mean()),
            analytical_availability=zone_availability ** space.n_zones,
            n_slots=n_slots,
        ))
    return results


@dataclass
class EnergyStudyResult:
    """Energy and service outcome of one operating policy."""

    policy: str
    energy: float
    service_slots: int
    served_slots: int

    @property
    def service_ratio(self) -> float:
        """Fraction of demanded slots actually served."""
        if self.service_slots == 0:
            return 1.0
        return self.served_slots / self.service_slots


def user_aware_energy_study(
    space: SmartSpace | None = None,
    user: UserBehaviorModel | None = None,
    n_slots: int = 20_000,
    seed: int = 0,
) -> dict[str, EnergyStudyResult]:
    """Always-on vs. user-aware node power management.

    Always-on keeps every node active every slot.  The user-aware
    policy activates only ``ceil(demand × zones)`` zones' worth of
    nodes (plus sleeping the rest), serving the same activity trace.
    Both policies fail to serve a slot only when faults take a needed
    zone down.
    """
    space = space or SmartSpace()
    user = user or default_home_user()
    trajectory = user.trajectory(n_slots, seed=seed)

    n_nodes = space.n_zones * space.nodes_per_zone
    up = np.stack([
        space.faults.up_trace(n_slots, seed=seed + 1, node=i)
        for i in range(n_nodes)
    ])
    zones_up = up.reshape(space.n_zones, space.nodes_per_zone,
                          n_slots).any(axis=1)

    demands = np.array([a.service_demand for a in trajectory])
    zones_needed = np.ceil(demands * space.n_zones).astype(int)
    zones_available = zones_up.sum(axis=0)

    service_slots = int((zones_needed > 0).sum())
    served = int(((zones_needed > 0)
                  & (zones_available >= zones_needed)).sum())

    # Always-on: every live node burns active power, dead nodes none.
    live_nodes = up.sum(axis=0)
    energy_on = float(
        (live_nodes * space.node_active_power).sum()
        + ((n_nodes - live_nodes) * 0.0).sum()
    )

    # User-aware: active nodes track the demanded zones; the rest sleep.
    active_nodes = np.minimum(
        zones_needed * space.nodes_per_zone, live_nodes
    )
    sleeping = live_nodes - active_nodes
    energy_aware = float(
        (active_nodes * space.node_active_power
         + sleeping * space.node_sleep_power).sum()
    )

    return {
        "always-on": EnergyStudyResult(
            policy="always-on", energy=energy_on,
            service_slots=service_slots, served_slots=served,
        ),
        "user-aware": EnergyStudyResult(
            policy="user-aware", energy=energy_aware,
            service_slots=service_slots, served_slots=served,
        ),
    }
