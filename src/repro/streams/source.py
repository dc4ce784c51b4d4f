"""Media sources: the "Source (e.g. encoder)" of the Fig.1(a) stream model.

Three encoders are provided:

* :class:`CBRSource` — constant bit rate, fixed packet size and period
  (audio-like; §2's "smaller volume of data ... tighter constraints").
* :class:`VBRSource` — lognormal packet sizes at a fixed frame rate.
* :class:`MpegSource` — GoP-structured I/P/B frame generator whose
  per-type size statistics follow the classical MPEG traces (I frames
  several times larger than B frames).  This replaces the "few Gbytes of
  input data" (§2.2) that real MPEG-2 simulation would need.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable

from repro.streams.packets import FrameType, Packet
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des import Environment, Store

__all__ = ["StreamSource", "CBRSource", "VBRSource", "MpegSource",
           "GopPattern"]


def _lognormal_params(mean: float, cv: float) -> tuple[float, float]:
    """(mu, sigma) of a lognormal with the given mean and CV."""
    if cv <= 0:
        raise ValueError("cv must be positive")
    sigma2 = math.log(1 + cv * cv)
    mu = math.log(mean) - sigma2 / 2
    return mu, math.sqrt(sigma2)


class StreamSource:
    """Base class: emits packets into a buffer at some schedule.

    Subclasses implement :meth:`next_packet`, returning the inter-emit
    gap and the packet.  ``start`` registers the emitting process on an
    environment; emitted packets are offered to ``out`` (a store or
    finite queue) and also passed to an optional callback.
    """

    def __init__(self, stream_id: str = "stream0", seed: int = 0):
        self.stream_id = stream_id
        self.seed = seed
        self.n_emitted = 0
        self.bits_emitted = 0.0
        self._uid = itertools.count()
        self._seqno = itertools.count()
        self._rng = spawn_rng(seed, f"source:{stream_id}")

    def next_packet(self, now: float) -> tuple[float, Packet]:
        """Return ``(gap_seconds, packet)`` for the next emission."""
        raise NotImplementedError

    def _make(self, now: float, size_bits: float,
              frame_type: FrameType) -> Packet:
        return Packet(
            uid=next(self._uid),
            created=now,
            size_bits=size_bits,
            frame_type=frame_type,
            stream_id=self.stream_id,
            seqno=next(self._seqno),
        )

    def start(
        self,
        env: "Environment",
        out: "Store",
        until: float = math.inf,
        on_emit: Callable[[Packet], None] | None = None,
    ):
        """Start emitting into ``out``; returns the source process."""

        def run():
            while env.now < until:
                gap, packet = self.next_packet(env.now)
                yield env.timeout(gap)
                # Stamp creation at the actual emission instant.
                packet.created = env.now
                self.n_emitted += 1
                self.bits_emitted += packet.size_bits
                if on_emit is not None:
                    on_emit(packet)
                if hasattr(out, "offer"):
                    out.offer(packet)
                else:
                    yield out.put(packet)

        return env.process(run())

    def average_bitrate(self) -> float:
        """Nominal average bit rate in bits/s."""
        raise NotImplementedError


class CBRSource(StreamSource):
    """Constant-bit-rate source: fixed size, fixed period.

    Parameters
    ----------
    rate_hz:
        Packets per second.
    packet_bits:
        Size of every packet.
    """

    def __init__(self, rate_hz: float, packet_bits: float,
                 stream_id: str = "audio0", seed: int = 0):
        super().__init__(stream_id, seed)
        if rate_hz <= 0 or packet_bits <= 0:
            raise ValueError("rate and size must be positive")
        self.rate_hz = rate_hz
        self.packet_bits = packet_bits

    def next_packet(self, now: float) -> tuple[float, Packet]:
        return 1.0 / self.rate_hz, self._make(
            now, self.packet_bits, FrameType.AUDIO
        )

    def average_bitrate(self) -> float:
        return self.rate_hz * self.packet_bits


class VBRSource(StreamSource):
    """Variable-bit-rate source with lognormal packet sizes."""

    def __init__(
        self,
        rate_hz: float,
        mean_bits: float,
        cv: float = 0.5,
        stream_id: str = "video0",
        seed: int = 0,
    ):
        super().__init__(stream_id, seed)
        if rate_hz <= 0 or mean_bits <= 0:
            raise ValueError("rate and size must be positive")
        self.rate_hz = rate_hz
        self.mean_bits = mean_bits
        self.cv = cv
        self._mu, self._sigma = _lognormal_params(mean_bits, cv)

    def next_packet(self, now: float) -> tuple[float, Packet]:
        size = float(self._rng.lognormal(self._mu, self._sigma))
        return 1.0 / self.rate_hz, self._make(now, size, FrameType.DATA)

    def average_bitrate(self) -> float:
        return self.rate_hz * self.mean_bits


class GopPattern:
    """A group-of-pictures structure, e.g. ``IBBPBBPBBPBB``.

    Parameters
    ----------
    pattern:
        String of frame-type letters starting with ``I``.
    """

    def __init__(self, pattern: str = "IBBPBBPBBPBB"):
        if not pattern or pattern[0] != "I":
            raise ValueError("GoP pattern must start with an I frame")
        valid = {"I", "P", "B"}
        if set(pattern) - valid:
            raise ValueError(f"invalid frame letters in {pattern!r}")
        self.pattern = pattern

    def __len__(self) -> int:
        return len(self.pattern)

    def frame_type(self, index: int) -> FrameType:
        """Frame type of the ``index``-th frame of the stream."""
        return FrameType[self.pattern[index % len(self.pattern)]]

    def counts(self) -> dict[FrameType, int]:
        """Frames of each type per GoP."""
        return {
            ftype: self.pattern.count(ftype.value)
            for ftype in (FrameType.I, FrameType.P, FrameType.B)
        }


#: Classical relative frame-size means, I : P : B.
_DEFAULT_SIZE_RATIO = {
    FrameType.I: 1.0,
    FrameType.P: 0.45,
    FrameType.B: 0.15,
}


class MpegSource(StreamSource):
    """GoP-structured MPEG video source.

    Parameters
    ----------
    fps:
        Frame rate.
    i_frame_bits:
        Mean size of an I frame; P and B means follow the classical
        ratios (P ≈ 0.45·I, B ≈ 0.15·I) unless ``size_ratio`` overrides.
    cv:
        Per-type lognormal coefficient of variation.
    gop:
        The GoP structure.
    """

    def __init__(
        self,
        fps: float = 25.0,
        i_frame_bits: float = 400_000.0,
        cv: float = 0.25,
        gop: GopPattern | None = None,
        stream_id: str = "video0",
        seed: int = 0,
        size_ratio: dict[FrameType, float] | None = None,
    ):
        super().__init__(stream_id, seed)
        if fps <= 0 or i_frame_bits <= 0:
            raise ValueError("fps and frame size must be positive")
        self.fps = fps
        self.gop = gop or GopPattern()
        ratio = size_ratio or _DEFAULT_SIZE_RATIO
        self.mean_bits = {
            ftype: i_frame_bits * ratio[ftype]
            for ftype in (FrameType.I, FrameType.P, FrameType.B)
        }
        self._params = {
            ftype: _lognormal_params(mean, cv)
            for ftype, mean in self.mean_bits.items()
        }
        self._frame_index = 0

    def next_packet(self, now: float) -> tuple[float, Packet]:
        ftype = self.gop.frame_type(self._frame_index)
        self._frame_index += 1
        mu, sigma = self._params[ftype]
        size = float(self._rng.lognormal(mu, sigma))
        return 1.0 / self.fps, self._make(now, size, ftype)

    def average_bitrate(self) -> float:
        counts = self.gop.counts()
        per_gop_bits = sum(
            counts[ftype] * self.mean_bits[ftype] for ftype in counts
        )
        return per_gop_bits * self.fps / len(self.gop)
