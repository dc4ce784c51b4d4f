"""Tests for media sources."""

import numpy as np
import pytest

from repro.des import Environment, Store
from repro.streams import (
    CBRSource,
    FrameType,
    GopPattern,
    MpegSource,
    Packet,
    VBRSource,
)


def collect(source, horizon=10.0):
    env = Environment()
    out = Store(env)
    source.start(env, out, until=horizon)
    env.run(until=horizon)
    return out.items


class TestPacket:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Packet(uid=0, created=0.0, size_bits=0.0)

    def test_age(self):
        packet = Packet(uid=0, created=2.0, size_bits=1.0)
        assert packet.age(5.0) == 3.0

    def test_droppable_only_b_frames(self):
        assert FrameType.B.droppable
        assert not FrameType.I.droppable
        assert not FrameType.P.droppable


class TestCBRSource:
    def test_emission_count(self):
        packets = collect(CBRSource(rate_hz=10.0, packet_bits=100.0))
        assert len(packets) == 100

    def test_constant_size_and_spacing(self):
        packets = collect(CBRSource(rate_hz=10.0, packet_bits=100.0),
                          horizon=1.0)
        assert all(p.size_bits == 100.0 for p in packets)
        times = [p.created for p in packets]
        gaps = np.diff(times)
        assert np.allclose(gaps, 0.1)

    def test_seqno_monotone(self):
        packets = collect(CBRSource(rate_hz=20.0, packet_bits=10.0),
                          horizon=1.0)
        assert [p.seqno for p in packets] == list(range(len(packets)))

    def test_average_bitrate(self):
        source = CBRSource(rate_hz=50.0, packet_bits=8_000.0)
        assert source.average_bitrate() == pytest.approx(400_000.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CBRSource(rate_hz=0.0, packet_bits=10.0)
        with pytest.raises(ValueError):
            CBRSource(rate_hz=1.0, packet_bits=0.0)


class TestVBRSource:
    def test_mean_size_matches(self):
        source = VBRSource(rate_hz=100.0, mean_bits=10_000.0, cv=0.5,
                           seed=1)
        packets = collect(source, horizon=50.0)
        sizes = np.array([p.size_bits for p in packets])
        assert sizes.mean() == pytest.approx(10_000.0, rel=0.05)

    def test_sizes_vary(self):
        source = VBRSource(rate_hz=100.0, mean_bits=10_000.0, cv=0.5,
                           seed=1)
        packets = collect(source, horizon=5.0)
        sizes = {p.size_bits for p in packets}
        assert len(sizes) > 1

    def test_reproducible(self):
        def sizes(seed):
            packets = collect(VBRSource(100.0, 1_000.0, seed=seed),
                              horizon=2.0)
            return [p.size_bits for p in packets]
        assert sizes(5) == sizes(5)
        assert sizes(5) != sizes(6)


class TestGopPattern:
    def test_must_start_with_i(self):
        with pytest.raises(ValueError):
            GopPattern("BBI")

    def test_invalid_letters(self):
        with pytest.raises(ValueError):
            GopPattern("IXB")

    def test_counts(self):
        gop = GopPattern("IBBPBB")
        counts = gop.counts()
        assert counts[FrameType.I] == 1
        assert counts[FrameType.P] == 1
        assert counts[FrameType.B] == 4

    def test_frame_type_wraps(self):
        gop = GopPattern("IPB")
        assert gop.frame_type(0) is FrameType.I
        assert gop.frame_type(3) is FrameType.I
        assert gop.frame_type(5) is FrameType.B


class TestMpegSource:
    def test_gop_structure_respected(self):
        source = MpegSource(fps=25.0, gop=GopPattern("IBBP"), seed=0)
        packets = collect(source, horizon=4.0)
        types = [p.frame_type.value for p in packets[:8]]
        assert types == ["I", "B", "B", "P", "I", "B", "B", "P"]

    def test_i_frames_largest_on_average(self):
        source = MpegSource(fps=100.0, i_frame_bits=100_000.0, seed=3)
        packets = collect(source, horizon=60.0)
        by_type = {}
        for p in packets:
            by_type.setdefault(p.frame_type, []).append(p.size_bits)
        mean_i = np.mean(by_type[FrameType.I])
        mean_p = np.mean(by_type[FrameType.P])
        mean_b = np.mean(by_type[FrameType.B])
        assert mean_i > mean_p > mean_b

    def test_average_bitrate_formula(self):
        source = MpegSource(fps=25.0, i_frame_bits=400_000.0,
                            gop=GopPattern("IPB"))
        expected = (400_000 + 0.45 * 400_000 + 0.15 * 400_000) * 25 / 3
        assert source.average_bitrate() == pytest.approx(expected)

    def test_emitted_mean_close_to_bitrate(self):
        source = MpegSource(fps=25.0, i_frame_bits=400_000.0, seed=2)
        packets = collect(source, horizon=800.0)
        assert len(packets) == 20_000
        sizes = np.array([p.size_bits for p in packets])
        assert (sizes > 0).all()
        assert sizes.mean() * 25.0 == pytest.approx(
            source.average_bitrate(), rel=0.05
        )
