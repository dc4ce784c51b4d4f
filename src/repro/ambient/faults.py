"""Fault modeling for ambient systems (§5, after [33]).

Ambient multimedia nodes must "operate with limited resources and
failing parts"; the fault-tolerance work the paper cites ([33]) studies
exactly this regime.  :class:`FaultProcess` gives each node an
exponential time-to-failure and (optionally) an exponential repair
time, producing per-slot availability traces for the smart-space
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import spawn_rng

__all__ = ["FaultProcess", "availability_lower_bound"]


@dataclass(frozen=True)
class FaultProcess:
    """Exponential failure/repair dynamics for one node class.

    Parameters
    ----------
    mtbf_slots:
        Mean time between failures, in slots.
    mttr_slots:
        Mean time to repair, in slots; ``None`` = never repaired
        (disposable ambient nodes, e.g. a short-lived sensor network).
    """

    mtbf_slots: float
    mttr_slots: float | None = None

    def __post_init__(self) -> None:
        if self.mtbf_slots <= 0:
            raise ValueError("mtbf must be positive")
        if self.mttr_slots is not None and self.mttr_slots <= 0:
            raise ValueError("mttr must be positive when given")

    def steady_availability(self) -> float:
        """Long-run per-node availability MTBF/(MTBF+MTTR)."""
        if self.mttr_slots is None:
            return 0.0  # eventually everything dies
        return self.mtbf_slots / (self.mtbf_slots + self.mttr_slots)

    def up_trace(self, n_slots: int, seed: int = 0,
                 node: int = 0) -> np.ndarray:
        """Boolean per-slot up/down trace for one node.

        Each slot takes the state that covers its midpoint, so the
        sojourns partition the slots exactly.  (The earlier
        floor/ceil attribution handed every boundary slot wholesale to
        the later sojourn, which inflated permanent-failure up-times by
        about half a slot and guaranteed at least one up slot no matter
        how early the node died.)
        """
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        rng = spawn_rng(seed, f"fault:{node}")
        up = np.ones(n_slots, dtype=bool)
        t = 0.0
        alive = True
        while t < n_slots:
            if alive:
                duration = float(rng.exponential(self.mtbf_slots))
            else:
                duration = float(rng.exponential(self.mttr_slots))
            t_next = t + duration
            # Slot s covers [s, s+1); its midpoint s+0.5 lies in
            # [t, t_next) iff ceil(t-0.5) <= s < ceil(t_next-0.5).
            start = min(max(int(np.ceil(t - 0.5)), 0), n_slots)
            end = min(max(int(np.ceil(t_next - 0.5)), 0), n_slots)
            up[start:end] = alive
            if alive and self.mttr_slots is None:
                up[end:] = False  # permanent failure
                return up
            alive = not alive
            t = t_next
        return up


def availability_lower_bound(per_node: float, n_nodes: int,
                             k_required: int) -> float:
    """Probability at least ``k_required`` of ``n_nodes`` are up.

    Binomial availability of a k-out-of-n redundant ambient service
    with independent node availability ``per_node``.  The binomial
    survival function is the regularized incomplete beta
    ``I_p(k, n - k + 1)``, which is what scipy's ``binom.sf``
    evaluates, so the two agree bit for bit.
    """
    if not 0.0 <= per_node <= 1.0:
        raise ValueError("per-node availability must lie in [0, 1]")
    if not 0 <= k_required <= n_nodes:
        raise ValueError("need 0 <= k_required <= n_nodes")
    if k_required == 0:
        return 1.0
    from scipy.special import betainc

    return float(betainc(k_required, n_nodes - k_required + 1, per_node))
