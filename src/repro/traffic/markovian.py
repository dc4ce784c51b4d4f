"""Short-range-dependent baselines: Poisson and MMPP traffic.

These are the "traditional Markovian processes" (§3.2) whose
exponentially-decaying autocorrelation the self-similar models are
contrasted against in experiment E2.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import spawn_rng

__all__ = ["poisson_trace", "MMPP2", "mmpp2_trace"]


def poisson_trace(n_slots: int, mean_rate: float,
                  seed: int = 0) -> np.ndarray:
    """IID Poisson work-per-slot — the memoryless baseline."""
    if mean_rate < 0:
        raise ValueError("mean_rate must be non-negative")
    if n_slots < 0:
        raise ValueError("n_slots must be non-negative")
    rng = spawn_rng(seed, "poisson-trace")
    return rng.poisson(mean_rate, size=n_slots).astype(float)


class MMPP2:
    """Two-state Markov-modulated Poisson process.

    A Markov chain switches between a LOW and a HIGH state; arrivals are
    Poisson with a state-dependent rate.  Bursty, but still short-range
    dependent: autocorrelation decays exponentially with the modulating
    chain's relaxation rate.

    Parameters
    ----------
    rate_low, rate_high:
        Poisson arrival rates per slot in each state.
    p_low_to_high, p_high_to_low:
        Per-slot switching probabilities.
    """

    def __init__(
        self,
        rate_low: float = 1.0,
        rate_high: float = 10.0,
        p_low_to_high: float = 0.05,
        p_high_to_low: float = 0.2,
        seed: int = 0,
    ):
        if rate_low < 0 or rate_high < 0:
            raise ValueError("rates must be non-negative")
        for name, p in (("p_low_to_high", p_low_to_high),
                        ("p_high_to_low", p_high_to_low)):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        self.rate_low = rate_low
        self.rate_high = rate_high
        self.p_lh = p_low_to_high
        self.p_hl = p_high_to_low
        self._rng = spawn_rng(seed, "mmpp2")

    def stationary_high_fraction(self) -> float:
        """Long-run fraction of slots spent in the HIGH state."""
        return self.p_lh / (self.p_lh + self.p_hl)

    def mean_rate(self) -> float:
        """Long-run mean arrivals per slot."""
        f_high = self.stationary_high_fraction()
        return f_high * self.rate_high + (1 - f_high) * self.rate_low

    def trace(self, n_slots: int) -> np.ndarray:
        """Per-slot arrival counts over ``n_slots`` slots."""
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        high = self._rng.random() < self.stationary_high_fraction()
        switch_draws = self._rng.random(n_slots)
        rates = np.where(self._state_path(high, switch_draws),
                         self.rate_high, self.rate_low)
        return self._rng.poisson(rates).astype(float)

    def _state_path(self, high: bool,
                    switch_draws: np.ndarray) -> np.ndarray:
        """Whether each slot is HIGH, from the initial state and the
        per-slot switch uniforms.

        Leaving slot ``t`` sets the state when only one of the two
        switch tests passes on ``switch_draws[t]``, toggles it when
        both do and keeps it when neither does.  So each slot's state
        is the value set last before it, flipped once per toggle since.
        """
        n = switch_draws.size
        to_high = switch_draws[:-1] < self.p_lh
        to_low = switch_draws[:-1] < self.p_hl
        is_set = np.concatenate(([True], to_high != to_low))[:n]
        value = np.concatenate(([high], to_high))[:n]
        toggles = np.cumsum(np.concatenate(([0], to_high & to_low))[:n])
        last_set = np.maximum.accumulate(np.where(is_set, np.arange(n), 0))
        flipped = (toggles - toggles[last_set]) % 2 == 1
        return value[last_set] != flipped


def mmpp2_trace(n_slots: int, mean_rate: float, burstiness: float = 5.0,
                seed: int = 0) -> np.ndarray:
    """An MMPP2 trace normalized to a target mean rate.

    ``burstiness`` is the HIGH/LOW rate ratio; switching probabilities
    are fixed so state sojourns average ~20/~5 slots.
    """
    if mean_rate <= 0:
        raise ValueError("mean_rate must be positive")
    if burstiness < 1.0:
        raise ValueError("burstiness must be >= 1")
    p_lh, p_hl = 0.05, 0.2
    f_high = p_lh / (p_lh + p_hl)
    # Solve rate_low from: mean = f*b*r_low + (1-f)*r_low
    rate_low = mean_rate / (f_high * burstiness + (1 - f_high))
    mmpp = MMPP2(
        rate_low=rate_low, rate_high=burstiness * rate_low,
        p_low_to_high=p_lh, p_high_to_low=p_hl, seed=seed,
    )
    return mmpp.trace(n_slots)
