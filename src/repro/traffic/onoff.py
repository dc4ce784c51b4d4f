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
    _check_alpha(alpha)
    if mean <= 0:
        raise ValueError("mean must be positive")
    return _pareto(rng.random(size), alpha, mean)


def _check_alpha(alpha: float) -> None:
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 for a finite mean")


def _pareto(u: np.ndarray, alpha: float, mean: float) -> np.ndarray:
    """The Pareto sojourns of uniforms ``u`` (inverse transform); the
    one formula behind ``pareto_sojourns`` and ``OnOffSource``."""
    x_m = mean * (alpha - 1.0) / alpha
    return x_m / u ** (1.0 / alpha)


#: Most uniforms one ``activity`` chunk draws; bounds its memory when
#: the mean sojourns are far below one slot.
_CHUNK = 1 << 16


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers of every ``[lo[i], hi[i])``, concatenated in order."""
    lengths = hi - lo
    starts = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(lo - starts, lengths)


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
        _check_alpha(alpha_on)
        _check_alpha(alpha_off)
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
        """Per-slot work over ``n_slots`` slots (fractional at edges).

        Periods alternate ON and OFF from a random initial phase until
        one ends at or beyond ``n_slots``.  Their sojourns are drawn a
        chunk at a time; the generator is then set to where drawing
        them one by one would have left it.
        """
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        rng = self._rng
        work = np.zeros(n_slots)
        # Random initial phase: start OFF with probability 1-duty.
        on = rng.random() < self.mean_on / (self.mean_on + self.mean_off)
        state = rng.bit_generator.state
        drawn = 0
        t = 0.0
        mean_period = (self.mean_on + self.mean_off) / 2.0
        on_off = ((self.alpha_on, self.mean_on),
                  (self.alpha_off, self.mean_off))
        while t < n_slots:
            # Enough periods to cover the rest at the mean, with a
            # margin; a chunk that falls short is followed by another.
            size = min(_CHUNK, int((n_slots - t) / mean_period * 1.25) + 16)
            u = rng.random(size)
            even, odd = on_off if on else on_off[::-1]
            durations = np.empty(size)
            durations[0::2] = _pareto(u[0::2], *even)
            durations[1::2] = _pareto(u[1::2], *odd)
            # cumsum adds in order, exactly as ``t += duration`` does.
            durations[0] += t
            ends = np.cumsum(durations)
            ends = ends[:np.searchsorted(ends, n_slots) + 1]
            starts = np.concatenate(([t], ends[:-1]))
            first_on = 0 if on else 1
            self._fill(work, starts[first_on::2], ends[first_on::2])
            drawn += ends.size
            t = ends[-1]
            on ^= bool(ends.size % 2)
        # The generator only ever serves ``random()``, so it has no
        # pending 32-bit half for ``advance`` to drop.
        rng.bit_generator.state = state
        rng.bit_generator.advance(drawn)
        return work

    def _fill(self, work: np.ndarray, starts: np.ndarray,
              ends: np.ndarray) -> None:
        """Add the ON periods ``[starts[i], ends[i])``, in order and cut
        at the horizon, to ``work``."""
        n_slots = work.size
        ends = np.minimum(ends, n_slots)
        first = starts.astype(np.int64)
        stop = np.minimum(np.ceil(ends).astype(np.int64), n_slots)
        last = stop - 1
        # Every slot strictly between a period's first and last slot
        # lies inside it, so no other period touches it.
        inner = last > first + 1
        work[_ranges(first[inner] + 1, last[inner])] = self.peak_rate
        # First and last slots are partly covered and can be shared by
        # several short periods, so their overlaps add in period order.
        # A zero-length period adds 0.0 to its first slot: no change.
        overlaps = np.stack([
            np.minimum(ends, first + 1) - np.maximum(starts, first),
            np.minimum(ends, stop) - np.maximum(starts, last),
        ], axis=1)
        slots = np.stack([first, last], axis=1)
        keep = np.stack([np.ones_like(inner), last > first], axis=1)
        np.add.at(work, slots[keep], overlaps[keep] * self.peak_rate)


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
    if n_slots < 0:
        raise ValueError("n_slots must be non-negative")
    total = np.zeros(n_slots)
    for i in range(n_sources):
        source = OnOffSource(
            alpha_on=alpha, alpha_off=alpha,
            mean_on=mean_on, mean_off=mean_off,
            peak_rate=peak_rate, seed=seed, name=f"src{i}",
        )
        total += source.activity(n_slots)
    return total
