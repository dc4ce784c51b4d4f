"""Channel models: "the real channel can be modelled as an automaton which
simply transmits packets from the transmitter (Tx) to the receiver (Rx)
buffers. The packets may be sent over the channel with error, or may be
simply lost during transmission." (§2.1, Fig.1(a))

The channel automaton couples three concerns:

* an :class:`ErrorModel` deciding each packet's fate (ok / error / lost),
* a service model (transmission time = size/bandwidth + propagation),
* an optional ARQ loop ("how much retransmission can be afforded", §2.1)
  with per-bit transceiver energy accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.des.events import Event, Interrupt
from repro.streams.packets import FrameType, Packet
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des import Environment, FiniteQueue, Store

__all__ = [
    "PacketFate",
    "ErrorModel",
    "LosslessModel",
    "BernoulliModel",
    "GilbertElliottModel",
    "Channel",
    "ChannelStats",
]


class PacketFate(Enum):
    """What the channel did to a packet."""

    OK = "ok"
    ERROR = "error"   # delivered but corrupted
    LOST = "lost"     # never arrives


class ErrorModel:
    """Decides the fate of each transmitted packet."""

    def classify(self, packet: Packet, rng: np.random.Generator
                 ) -> PacketFate:
        """Return the packet's fate; called once per transmission
        attempt."""
        raise NotImplementedError


class LosslessModel(ErrorModel):
    """The ideal wired channel: every packet arrives intact."""

    def classify(self, packet: Packet, rng: np.random.Generator
                 ) -> PacketFate:
        return PacketFate.OK


class BernoulliModel(ErrorModel):
    """Independent per-packet loss and error probabilities.

    Parameters
    ----------
    p_loss:
        Probability a packet vanishes.
    p_error:
        Probability a surviving packet arrives corrupted.
    """

    def __init__(self, p_loss: float = 0.0, p_error: float = 0.0):
        for name, p in (("p_loss", p_loss), ("p_error", p_error)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        self.p_loss = p_loss
        self.p_error = p_error

    def classify(self, packet: Packet, rng: np.random.Generator
                 ) -> PacketFate:
        if rng.random() < self.p_loss:
            return PacketFate.LOST
        if rng.random() < self.p_error:
            return PacketFate.ERROR
        return PacketFate.OK


class GilbertElliottModel(ErrorModel):
    """Two-state bursty channel (GOOD/BAD Markov chain).

    The de-facto wireless fading abstraction: the chain switches between
    a good state with low loss and a bad (deep-fade) state with high
    loss; state transitions happen per packet.

    Parameters
    ----------
    p_good_to_bad, p_bad_to_good:
        Per-packet transition probabilities.
    loss_good, loss_bad:
        Loss probability in each state.
    error_good, error_bad:
        Residual corruption probability in each state (applied to
        packets that are not lost).
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.4,
        loss_good: float = 0.001,
        loss_bad: float = 0.3,
        error_good: float = 0.0,
        error_bad: float = 0.1,
    ):
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
            ("error_good", error_good),
            ("error_bad", error_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        self.p_gb = p_good_to_bad
        self.p_bg = p_bad_to_good
        self.loss = {"good": loss_good, "bad": loss_bad}
        self.error = {"good": error_good, "bad": error_bad}
        self.state = "good"

    def stationary_bad_fraction(self) -> float:
        """Long-run fraction of time in the BAD state."""
        denom = self.p_gb + self.p_bg
        return self.p_gb / denom if denom > 0 else 0.0

    def classify(self, packet: Packet, rng: np.random.Generator
                 ) -> PacketFate:
        # Advance the state machine first, then judge the packet.
        if self.state == "good":
            if rng.random() < self.p_gb:
                self.state = "bad"
        else:
            if rng.random() < self.p_bg:
                self.state = "good"
        if rng.random() < self.loss[self.state]:
            return PacketFate.LOST
        if rng.random() < self.error[self.state]:
            return PacketFate.ERROR
        return PacketFate.OK


@dataclass
class ChannelStats:
    """Counters a channel accumulates over a run."""

    sent: int = 0
    delivered: int = 0
    corrupted: int = 0
    lost: int = 0
    retransmissions: int = 0
    #: Outage accounting (fault injection): completed outage windows,
    #: packets lost in-flight when the medium failed, and enhancement
    #: packets shed to catch up after recovery.
    outages: int = 0
    fault_drops: int = 0
    degraded_drops: int = 0
    tx_energy: float = 0.0
    rx_energy: float = 0.0
    #: ``(seqno, arrival_time)`` per delivered packet when the channel
    #: was created with ``trace_arrivals=True`` (playout sizing input).
    arrival_trace: list = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        """Fraction of offered packets that never arrived."""
        return self.lost / self.sent if self.sent else math.nan

    @property
    def energy(self) -> float:
        """Total transceiver energy, joules."""
        return self.tx_energy + self.rx_energy


class Channel:
    """The Fig.1(a) channel automaton as a DES process.

    Pulls packets from ``tx_buffer``, transmits them (service time =
    size/bandwidth + propagation), consults the error model, optionally
    retransmits lost/corrupted packets up to ``max_retries`` times, and
    offers survivors to ``rx_buffer``.

    Parameters
    ----------
    bandwidth:
        Channel capacity in bits/s.
    propagation_delay:
        One-way latency in seconds.
    error_model:
        Fate decider; default lossless.
    max_retries:
        Retransmission budget per packet (0 = no ARQ).
    tx_energy_per_bit, rx_energy_per_bit:
        Transceiver energy cost per transmitted/received bit.
    resilient:
        When True, an injected fault (:meth:`fail`) costs only the
        in-flight packet and service pauses until :meth:`repair`; when
        False (default), the fault's Interrupt propagates and crashes
        the run — the baseline behaviour the resilience layer exists to
        replace.
    shed_enhancement:
        When True, a resilient channel sheds buffered B-frames from the
        Tx backlog after an outage instead of serving stale enhancement
        work (graceful degradation: drop quality, keep liveness).
    """

    def __init__(
        self,
        bandwidth: float,
        propagation_delay: float = 0.0,
        error_model: ErrorModel | None = None,
        max_retries: int = 0,
        tx_energy_per_bit: float = 0.0,
        rx_energy_per_bit: float = 0.0,
        seed: int = 0,
        name: str = "channel",
        trace_arrivals: bool = False,
        resilient: bool = False,
        shed_enhancement: bool = False,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.bandwidth = bandwidth
        self.propagation_delay = propagation_delay
        self.error_model = error_model or LosslessModel()
        self.max_retries = max_retries
        self.tx_energy_per_bit = tx_energy_per_bit
        self.rx_energy_per_bit = rx_energy_per_bit
        self.name = name
        self.trace_arrivals = trace_arrivals
        self.resilient = resilient
        self.shed_enhancement = shed_enhancement
        self.stats = ChannelStats()
        self._rng = spawn_rng(seed, f"channel:{name}")
        #: True while the medium is failed (fault injection).
        self.down = False
        #: The relay process serving this channel, once started.
        self.process = None
        self._active = False
        self._up_waiters: list[Event] = []
        # Metric handles; bound in start() once the environment (and
        # its registry, if any) is known.
        self._m_sent = None
        self._m_delivered = None
        self._m_lost = None
        self._m_retx = None
        self._m_energy = None

    def _bind_metrics(self, env: "Environment") -> None:
        registry = getattr(env, "metrics", None)
        if registry is None:
            return
        label = self.name
        self._m_sent = registry.counter("channel_sent", channel=label)
        self._m_delivered = registry.counter(
            "channel_delivered", channel=label)
        self._m_lost = registry.counter("channel_lost", channel=label)
        self._m_retx = registry.counter(
            "channel_retransmissions", channel=label)
        self._m_energy = registry.counter(
            "channel_energy_j", channel=label)

    def transmission_time(self, packet: Packet) -> float:
        """Seconds to serialize one packet onto the medium."""
        return packet.size_bits / self.bandwidth

    # ------------------------------------------------------------------
    # Fault-injection surface (a FaultInjector target)
    # ------------------------------------------------------------------
    def fail(self, cause: Any = None) -> None:
        """Take the medium down; interrupts the relay if mid-activity."""
        if self.down:
            return
        self.down = True
        if (self.process is not None and self.process.is_alive
                and self._active):
            self.process.interrupt(cause)

    def repair(self) -> None:
        """Bring the medium back; wakes a relay waiting out the outage."""
        if not self.down:
            return
        self.down = False
        self.stats.outages += 1
        waiters, self._up_waiters = self._up_waiters, []
        for event in waiters:
            event.succeed()

    def _wait_repair(self, env: "Environment") -> Event:
        event = env.event()
        self._up_waiters.append(event)
        return event

    def _shed_enhancement(self, tx_buffer: "Store") -> None:
        """Drop buffered enhancement (B) frames to catch up after an
        outage — degrade quality instead of stalling the stream."""
        kept = []
        for item in tx_buffer.items:
            if getattr(item, "frame_type", None) is FrameType.B:
                self.stats.degraded_drops += 1
            else:
                kept.append(item)
        tx_buffer.items[:] = kept

    def start(self, env: "Environment", tx_buffer: "Store",
              rx_buffer: "FiniteQueue"):
        """Start the relay process moving Tx-buffer -> Rx-buffer."""
        self._bind_metrics(env)

        def run():
            while True:
                if self.down:
                    self._active = False
                    yield self._wait_repair(env)
                    if self.shed_enhancement:
                        self._shed_enhancement(tx_buffer)
                    continue
                self._active = True
                get_event = tx_buffer.get()
                try:
                    packet: Packet = yield get_event
                except Interrupt:
                    get_event.cancel()
                    if not self.resilient:
                        raise
                    continue
                self.stats.sent += 1
                if self._m_sent is not None:
                    self._m_sent.inc()
                try:
                    fate = yield from self._transmit(env, packet)
                except Interrupt:
                    if not self.resilient:
                        raise
                    # The in-flight packet dies with the medium.
                    self.stats.lost += 1
                    self.stats.fault_drops += 1
                    if self._m_lost is not None:
                        self._m_lost.inc()
                    continue
                if fate is PacketFate.LOST:
                    self.stats.lost += 1
                    if self._m_lost is not None:
                        self._m_lost.inc()
                    continue
                if fate is PacketFate.ERROR:
                    packet.corrupted = True
                    self.stats.corrupted += 1
                self.stats.delivered += 1
                self.stats.rx_energy += (
                    packet.size_bits * self.rx_energy_per_bit
                )
                if self._m_delivered is not None:
                    self._m_delivered.inc()
                    self._m_energy.inc(
                        packet.size_bits * self.rx_energy_per_bit
                    )
                if self.trace_arrivals:
                    self.stats.arrival_trace.append(
                        (packet.seqno, env.now)
                    )
                rx_buffer.offer(packet)

        self.process = env.process(run())
        return self.process

    def _transmit(self, env: "Environment", packet: Packet):
        """One ARQ round: attempt, then retry on failure while budget
        lasts.  Returns the final fate."""
        attempts = 0
        while True:
            yield env.timeout(self.transmission_time(packet))
            self.stats.tx_energy += (
                packet.size_bits * self.tx_energy_per_bit
            )
            if self._m_energy is not None:
                self._m_energy.inc(
                    packet.size_bits * self.tx_energy_per_bit
                )
            fate = self.error_model.classify(packet, self._rng)
            attempts += 1
            if fate is PacketFate.OK or attempts > self.max_retries:
                if attempts > 1:
                    extra = attempts - 1
                    packet.retransmissions += extra
                    self.stats.retransmissions += extra
                    if self._m_retx is not None:
                        self._m_retx.inc(extra)
                if fate is not PacketFate.LOST:
                    yield env.timeout(self.propagation_delay)
                return fate
