"""Ambient multimedia (§5): stochastic user behavior, failing parts,
and smart-space availability/energy studies."""

from repro.ambient.faults import FaultProcess, availability_lower_bound
from repro.ambient.smart_space import (
    EnergyStudyResult,
    RedundancyResult,
    SmartSpace,
    redundancy_study,
    user_aware_energy_study,
)
from repro.ambient.users import (
    UserActivity,
    UserBehaviorModel,
    default_home_user,
)

__all__ = [
    "UserActivity",
    "UserBehaviorModel",
    "default_home_user",
    "FaultProcess",
    "availability_lower_bound",
    "SmartSpace",
    "RedundancyResult",
    "redundancy_study",
    "EnergyStudyResult",
    "user_aware_energy_study",
]
