"""Hurst-exponent estimation and long-range-dependence diagnostics.

Three classical estimators (R/S, variance-time, periodogram) plus the
sample autocorrelation function.  E2 uses them to verify that the fGn
and on/off generators actually produce the Hurst exponents they promise,
and that Markovian baselines estimate H ≈ 0.5.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "autocorrelation",
    "aggregate_series",
    "rs_hurst",
    "variance_time_hurst",
    "periodogram_hurst",
]


def autocorrelation(x, max_lag: int) -> np.ndarray:
    """Sample autocorrelation ρ(0..max_lag).

    Self-similar input shows the power-law decay ρ(k) ~ k^{2H−2};
    Markovian input decays exponentially (§3.2).
    """
    arr = np.asarray(x, dtype=float)
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    if arr.size <= max_lag:
        raise ValueError("series shorter than max_lag")
    centered = arr - arr.mean()
    denom = float(centered @ centered)
    if denom == 0:
        raise ValueError("zero-variance series")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for k in range(1, max_lag + 1):
        rho[k] = float(centered[:-k] @ centered[k:]) / denom
    return rho


def aggregate_series(x, m: int) -> np.ndarray:
    """The m-aggregated series X^{(m)}: non-overlapping block means."""
    arr = np.asarray(x, dtype=float)
    if m < 1:
        raise ValueError("m must be >= 1")
    n_blocks = arr.size // m
    if n_blocks < 1:
        raise ValueError("series shorter than one block")
    return arr[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)


def _block_sizes(n: int, n_points: int = 12,
                 min_size: int = 8) -> np.ndarray:
    """Geometrically spaced block sizes for scaling-law fits."""
    max_size = max(n // 8, min_size + 1)
    sizes = np.unique(np.geomspace(
        min_size, max_size, n_points
    ).astype(int))
    return sizes[sizes >= 2]


def rs_hurst(x) -> float:
    """Rescaled-range (R/S) estimate of the Hurst exponent.

    For each block size, computes the average rescaled range R/S and
    fits log(R/S) against log(size); the slope is H.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size < 64:
        raise ValueError("need at least 64 observations")
    sizes = _block_sizes(arr.size)
    log_sizes, log_rs = [], []
    for size in sizes:
        n_blocks = arr.size // size
        blocks = arr[:n_blocks * size].reshape(n_blocks, size)
        z = np.cumsum(blocks - blocks.mean(axis=1, keepdims=True), axis=1)
        r = z.max(axis=1) - z.min(axis=1)
        s = blocks.std(axis=1, ddof=0)
        valid = (s > 0) & (r > 0)
        if valid.any():
            log_sizes.append(np.log(size))
            log_rs.append(np.log(np.mean(r[valid] / s[valid])))
    if len(log_sizes) < 3:
        raise ValueError("not enough valid block sizes for R/S fit")
    slope, _ = np.polyfit(log_sizes, log_rs, 1)
    return float(slope)


def variance_time_hurst(x) -> float:
    """Variance-time estimate: Var(X^{(m)}) ~ m^{2H−2}.

    Fits the aggregated-variance decay; slope β gives H = 1 + β/2.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size < 64:
        raise ValueError("need at least 64 observations")
    sizes = _block_sizes(arr.size)
    log_m, log_var = [], []
    for m in sizes:
        agg = aggregate_series(arr, int(m))
        if agg.size < 4:
            continue
        variance = agg.var(ddof=1)
        if variance > 0:
            log_m.append(np.log(m))
            log_var.append(np.log(variance))
    if len(log_m) < 3:
        raise ValueError("not enough block sizes for variance-time fit")
    slope, _ = np.polyfit(log_m, log_var, 1)
    return float(1.0 + slope / 2.0)


def periodogram_hurst(x, low_freq_fraction: float = 0.1) -> float:
    """Periodogram estimate: I(f) ~ f^{1−2H} as f → 0.

    Fits the log-periodogram on the lowest ``low_freq_fraction`` of
    frequencies; slope s gives H = (1 − s)/2.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size < 128:
        raise ValueError("need at least 128 observations")
    if not 0.0 < low_freq_fraction <= 1.0:
        raise ValueError("low_freq_fraction must lie in (0, 1]")
    centered = arr - arr.mean()
    spectrum = np.abs(np.fft.rfft(centered)) ** 2 / arr.size
    freqs = np.fft.rfftfreq(arr.size)
    keep = slice(1, max(3, int(len(freqs) * low_freq_fraction)))
    log_f = np.log(freqs[keep])
    power = spectrum[keep]
    valid = power > 0
    if valid.sum() < 3:
        raise ValueError("degenerate periodogram")
    slope, _ = np.polyfit(log_f[valid], np.log(power[valid]), 1)
    return float((1.0 - slope) / 2.0)
