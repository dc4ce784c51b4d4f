"""The E8 experiment: energy-aware FGS streaming, end to end.

Runs the same FGS session through the full-rate server and the
feedback server against an identical DVFS client, then compares client
communication energy (the [28] metric — "an average of 15%
communication energy reduction in the client"), delivered quality and
the normalized decoding load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.power import DvfsModel
from repro.obs.context import active_metrics
from repro.streaming.arq import ArqPolicy, LossyLink
from repro.streaming.client import DecoderModel, DvfsVideoClient
from repro.streaming.fgs import FgsSource
from repro.streaming.server import FeedbackServer, FullRateServer

__all__ = ["SessionReport", "run_session", "StreamingComparison",
           "compare_streaming_policies"]


@dataclass
class SessionReport:
    """Aggregates of one streaming session."""

    policy: str
    n_frames: int
    rx_energy: float
    compute_energy: float
    mean_psnr: float
    mean_normalized_load: float
    waste_fraction: float
    #: Lossy-link accounting (all frames delivered when no link is
    #: simulated).
    n_delivered: int = 0
    n_dropped: int = 0
    retransmissions: int = 0

    @property
    def total_energy(self) -> float:
        """Client communication + computation energy."""
        return self.rx_energy + self.compute_energy

    @property
    def delivery_ratio(self) -> float:
        """Fraction of frames shown on time."""
        return self.n_delivered / self.n_frames if self.n_frames else \
            math.nan


def run_session(
    server,
    n_frames: int = 1_000,
    seed: int | None = None,
    client: DvfsVideoClient | None = None,
    source: FgsSource | None = None,
    link: LossyLink | None = None,
    arq: ArqPolicy | None = None,
) -> SessionReport:
    """Stream ``n_frames`` from ``server`` to a DVFS client.

    With a :class:`~repro.streaming.arq.LossyLink`, each frame slot
    plays out (re)transmissions under ``arq``; frames that miss the
    deadline are skipped by the client, and lost feedback reports leave
    the server adapting on its previous aptitude estimate.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    source = source or FgsSource(seed=0 if seed is None else seed)
    client = client or DvfsVideoClient(fps=source.fps)
    period = 1.0 / client.fps

    # Per-frame telemetry: the session is a frame-indexed loop (no DES
    # kernel), so KPI-over-sim-time series are emitted directly at each
    # frame slot's presentation time rather than via the probe.
    registry = active_metrics()
    rx_series = psnr_series = drop_series = None
    if registry is not None:
        rx_series = registry.timeseries(
            "stream_rx_energy_j", policy=server.name)
        psnr_series = registry.timeseries(
            "stream_psnr_db", policy=server.name)
        drop_series = registry.timeseries(
            "stream_dropped", policy=server.name)

    n_delivered = 0
    n_dropped = 0
    retransmissions = 0
    for slot in range(n_frames):
        t = slot * period
        frame = source.next_frame()
        enhancement = server.enhancement_to_send(frame)
        if link is not None:
            delivery = link.deliver(period, arq)
            retransmissions += delivery.retransmissions
            if not delivery.delivered:
                n_dropped += 1
                client.skip_frame(frame)
                if rx_series is not None:
                    rx_series.add(t, client.total_rx_energy())
                    drop_series.add(t, float(n_dropped))
                continue
        n_delivered += 1
        outcome = client.receive(frame, enhancement)
        if rx_series is not None:
            rx_series.add(t, client.total_rx_energy())
            psnr_series.add(t, outcome.psnr)
            drop_series.add(t, float(n_dropped))
        # Aptitude report for the *next* slot (one-slot delay); a lost
        # report leaves the server's view of the client stale.
        point = outcome.point
        if link is None or link.feedback_ok():
            server.observe_feedback(client.aptitude_bits(point, frame))

    return SessionReport(
        policy=server.name,
        n_frames=n_frames,
        rx_energy=client.total_rx_energy(),
        compute_energy=client.total_compute_energy(),
        mean_psnr=client.mean_psnr(),
        mean_normalized_load=client.mean_normalized_load(),
        waste_fraction=client.waste_fraction(),
        n_delivered=n_delivered,
        n_dropped=n_dropped,
        retransmissions=retransmissions,
    )


@dataclass
class StreamingComparison:
    """Full-rate vs. feedback session reports."""

    full_rate: SessionReport
    feedback: SessionReport

    @property
    def rx_energy_reduction(self) -> float:
        """Client communication-energy saving of the feedback policy."""
        if self.full_rate.rx_energy <= 0:
            return math.nan
        return 1.0 - self.feedback.rx_energy / self.full_rate.rx_energy

    @property
    def psnr_cost(self) -> float:
        """Quality given up for the saving, dB."""
        return self.full_rate.mean_psnr - self.feedback.mean_psnr


def compare_streaming_policies(
    n_frames: int = 2_000,
    seed: int = 0,
    dvfs: DvfsModel | None = None,
    decoder: DecoderModel | None = None,
    min_psnr: float = 33.0,
) -> StreamingComparison:
    """Run both policies on identical sources and clients (E8)."""

    def fresh_client() -> DvfsVideoClient:
        return DvfsVideoClient(dvfs=dvfs, decoder=decoder,
                               min_psnr=min_psnr)

    full = run_session(
        FullRateServer(), n_frames=n_frames, seed=seed,
        client=fresh_client(), source=FgsSource(seed=seed),
    )
    fed = run_session(
        FeedbackServer(), n_frames=n_frames, seed=seed,
        client=fresh_client(), source=FgsSource(seed=seed),
    )
    return StreamingComparison(full_rate=full, feedback=fed)
