"""Heavy-tailed on/off sources: the structural origin of self-similarity.

Aggregating many on/off sources whose sojourn times are Pareto with
1 < α < 2 yields asymptotically self-similar traffic with
H = (3 − α)/2 (Taqqu's theorem) — the physically-motivated counterpart
to the exact fGn synthesis, and the right abstraction for "hundreds of
heterogeneous processors" each bursting onto the NoC (§3.2).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import spawn_rng

__all__ = ["pareto_sojourns", "OnOffSource", "aggregate_onoff_trace",
           "taqqu_hurst"]


def taqqu_hurst(alpha: float) -> float:
    """Predicted Hurst exponent H = (3 − α)/2 for tail index α ∈ (1, 2)."""
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2) for LRD aggregation")
    return (3.0 - alpha) / 2.0


def pareto_sojourns(
    rng: np.random.Generator, alpha: float, mean: float, size: int
) -> np.ndarray:
    """Pareto-distributed sojourn times with the requested mean.

    Uses the Lomax-free classical Pareto with location
    x_m = mean·(α−1)/α, which exists only for α > 1.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 for a finite mean")
    if mean <= 0:
        raise ValueError("mean must be positive")
    x_m = mean * (alpha - 1.0) / alpha
    u = rng.random(size)
    return x_m / u ** (1.0 / alpha)


class OnOffSource:
    """One on/off source: transmits at ``peak_rate`` during ON periods.

    Parameters
    ----------
    alpha_on, alpha_off:
        Pareto tail indices of the ON and OFF sojourns.
    mean_on, mean_off:
        Mean sojourn lengths in slots.
    peak_rate:
        Work generated per slot while ON.
    """

    def __init__(
        self,
        alpha_on: float = 1.5,
        alpha_off: float = 1.5,
        mean_on: float = 10.0,
        mean_off: float = 10.0,
        peak_rate: float = 1.0,
        seed: int = 0,
        name: str = "onoff0",
    ):
        if mean_on <= 0 or mean_off <= 0 or peak_rate <= 0:
            raise ValueError("means and rate must be positive")
        self.alpha_on = alpha_on
        self.alpha_off = alpha_off
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.peak_rate = peak_rate
        self._rng = spawn_rng(seed, f"onoff:{name}")

    def mean_rate(self) -> float:
        """Long-run average work per slot."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return self.peak_rate * duty

    def activity(self, n_slots: int) -> np.ndarray:
        """Per-slot work over ``n_slots`` slots (fractional at edges)."""
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        work = np.zeros(n_slots)
        t = 0.0
        # Random initial phase: start OFF with probability 1-duty.
        on = self._rng.random() < self.mean_on / (
            self.mean_on + self.mean_off
        )
        while t < n_slots:
            if on:
                duration = float(pareto_sojourns(
                    self._rng, self.alpha_on, self.mean_on, 1
                )[0])
                start, end = t, min(t + duration, n_slots)
                first = int(start)
                stop = min(int(np.ceil(end)), n_slots)
                # Only the first and last slot can be partly covered;
                # every slot in between overlaps the period by exactly
                # 1.0 and takes the full peak rate.
                for slot in {first, stop - 1}:
                    if first <= slot < stop:
                        overlap = min(end, slot + 1) - max(start, slot)
                        if overlap > 0:
                            work[slot] += overlap * self.peak_rate
                work[first + 1:stop - 1] += self.peak_rate
                t += duration
            else:
                t += float(pareto_sojourns(
                    self._rng, self.alpha_off, self.mean_off, 1
                )[0])
            on = not on
        return work


def aggregate_onoff_trace(
    n_sources: int,
    n_slots: int,
    alpha: float = 1.5,
    mean_on: float = 5.0,
    mean_off: float = 15.0,
    peak_rate: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Superpose ``n_sources`` independent Pareto on/off sources.

    Returns the per-slot aggregate work, asymptotically self-similar
    with ``H = taqqu_hurst(alpha)``.
    """
    if n_sources < 1:
        raise ValueError("n_sources must be >= 1")
    total = np.zeros(n_slots)
    for i in range(n_sources):
        source = OnOffSource(
            alpha_on=alpha, alpha_off=alpha,
            mean_on=mean_on, mean_off=mean_off,
            peak_rate=peak_rate, seed=seed, name=f"src{i}",
        )
        total += source.activity(n_slots)
    return total
