"""The complete Fig.1(a) stream: Source → Tx-buffer → Channel → Rx-buffer
→ Sink, wired onto the DES kernel.

"As for the abstraction itself, a multimedia stream consists of the
Source (e.g. encoder), the Sink (decoder), and the Channel (lossy or
lossless)."  :class:`StreamPipeline` assembles the five components, runs
them, and reports the metrics the paper cares about: end-to-end latency,
jitter, loss, buffer utilizations and transceiver energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.des import Environment, FiniteQueue
from repro.des.events import Interrupt
from repro.streams.channel import Channel, ChannelStats
from repro.streams.sink import Sink
from repro.streams.source import StreamSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faults import FailureModel

__all__ = ["StreamReport", "StreamPipeline"]


@dataclass
class StreamReport:
    """End-to-end metrics of one stream-pipeline run."""

    horizon: float
    emitted: int
    displayed: int
    mean_latency: float
    p99_latency: float
    jitter: float
    loss_rate: float
    underrun_rate: float
    corruption_rate: float
    tx_buffer_mean: float
    rx_buffer_mean: float
    tx_drops: int
    rx_drops: int
    channel: ChannelStats = field(default_factory=ChannelStats)
    #: Fault-injection outcome: did an unhandled fault kill the run,
    #: and if so when; how many faults were injected overall.
    crashed: bool = False
    crash_time: float = math.nan
    n_faults: int = 0

    @property
    def throughput(self) -> float:
        """Displayed frames per second."""
        return self.displayed / self.horizon

    @property
    def goodput_ratio(self) -> float:
        """Fraction of emitted packets displayed uncorrupted."""
        if self.emitted == 0:
            return math.nan
        good = self.displayed * (
            1.0 - (self.corruption_rate
                   if self.corruption_rate == self.corruption_rate
                   else 0.0)
        )
        return good / self.emitted


class StreamPipeline:
    """Assembles and runs the generic multimedia stream of Fig.1(a).

    Parameters
    ----------
    source:
        The encoder model.
    channel:
        The channel automaton.
    sink:
        The display model.
    tx_buffer_size, rx_buffer_size:
        Finite buffer capacities, in packets (Fig.1(a)'s Buffer-Tx and
        Buffer-Rx).

    Examples
    --------
    >>> from repro.streams import CBRSource, Channel, Sink, StreamPipeline
    >>> pipe = StreamPipeline(
    ...     source=CBRSource(rate_hz=50.0, packet_bits=8_000.0),
    ...     channel=Channel(bandwidth=1e6),
    ...     sink=Sink(display_rate_hz=50.0),
    ... )
    >>> report = pipe.run(horizon=10.0)
    >>> report.loss_rate
    0.0
    """

    def __init__(
        self,
        source: StreamSource,
        channel: Channel,
        sink: Sink,
        tx_buffer_size: int = 32,
        rx_buffer_size: int = 32,
    ):
        if tx_buffer_size < 1 or rx_buffer_size < 1:
            raise ValueError("buffer sizes must be >= 1")
        self.source = source
        self.channel = channel
        self.sink = sink
        self.tx_buffer_size = tx_buffer_size
        self.rx_buffer_size = rx_buffer_size

    def run(self, horizon: float,
            faults: "FailureModel | None" = None,
            fault_seed: int = 0) -> StreamReport:
        """Simulate the stream for ``horizon`` seconds.

        Parameters
        ----------
        horizon:
            Simulated duration in seconds.
        faults, fault_seed:
            When ``faults`` is given, a
            :class:`~repro.resilience.faults.FaultInjector` breaks and
            repairs the channel on that model's schedule.  A
            non-resilient channel then crashes the run at the first
            fault (``report.crashed``); a resilient channel degrades
            instead, and the report stays complete.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        env = Environment()
        tx_buffer = FiniteQueue(env, capacity=self.tx_buffer_size)
        rx_buffer = FiniteQueue(env, capacity=self.rx_buffer_size)

        self.source.start(env, tx_buffer, until=horizon)
        self.channel.start(env, tx_buffer, rx_buffer)
        self.sink.start(env, rx_buffer)

        injector = None
        if faults is not None:
            # Imported here: repro.resilience depends on this module.
            from repro.resilience.faults import FaultInjector

            injector = FaultInjector(
                env, self.channel, faults, seed=fault_seed,
                name="stream-channel",
            )

        crashed = False
        crash_time = math.nan
        try:
            env.run(until=horizon)
        except Interrupt:
            # Baseline (non-resilient) behaviour: the injected fault
            # propagated out of the relay and killed the simulation.
            crashed = True
            crash_time = env.now

        measured = env.now if crashed else horizon
        emitted = self.source.n_emitted
        displayed = self.sink.n_displayed
        channel_lost = self.channel.stats.lost
        dropped = tx_buffer.n_dropped + rx_buffer.n_dropped
        loss_rate = (
            (channel_lost + dropped) / emitted if emitted else math.nan
        )
        return StreamReport(
            horizon=horizon,
            emitted=emitted,
            displayed=displayed,
            mean_latency=self.sink.latency.mean,
            p99_latency=self.sink.p99_latency,
            jitter=self.sink.jitter,
            loss_rate=loss_rate,
            underrun_rate=self.sink.underrun_rate,
            corruption_rate=self.sink.corruption_rate,
            tx_buffer_mean=tx_buffer.occupancy.mean(at_time=measured),
            rx_buffer_mean=rx_buffer.occupancy.mean(at_time=measured),
            tx_drops=tx_buffer.n_dropped,
            rx_drops=rx_buffer.n_dropped,
            channel=self.channel.stats,
            crashed=crashed,
            crash_time=crash_time,
            n_faults=injector.n_failures if injector is not None else 0,
        )
