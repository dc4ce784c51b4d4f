"""Tests for the architecture model."""

import pytest

from repro.core import (
    BusInterconnect,
    PEKind,
    Platform,
    PointToPointInterconnect,
    ProcessingElement,
)


class TestProcessingElement:
    def test_default_power_scales_with_kind(self):
        gpp = ProcessingElement("g", PEKind.GPP)
        asic = ProcessingElement("a", PEKind.ASIC)
        asip = ProcessingElement("i", PEKind.ASIP)
        # §3: ASIC has "unsurpassed performance-per-power"; ASIP close.
        assert asic.active_power < asip.active_power < gpp.active_power

    def test_explicit_power_respected(self):
        pe = ProcessingElement("p", active_power=0.123)
        assert pe.active_power == 0.123

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            ProcessingElement("p", frequency=0.0)

    def test_execution_time_and_energy(self):
        pe = ProcessingElement("p", frequency=100e6, active_power=2.0)
        assert pe.execution_time(100e6) == pytest.approx(1.0)
        assert pe.active_energy(100e6) == pytest.approx(2.0)

    def test_negative_cycles_rejected(self):
        pe = ProcessingElement("p")
        with pytest.raises(ValueError):
            pe.execution_time(-1.0)


class TestBusInterconnect:
    def test_local_transfer_free(self):
        bus = BusInterconnect()
        assert bus.transfer_time("a", "a", 1e6) == 0.0
        assert bus.transfer_energy("a", "a", 1e6) == 0.0

    def test_remote_transfer_includes_arbitration(self):
        bus = BusInterconnect(bandwidth=1e6, arbitration_latency=0.5)
        assert bus.transfer_time("a", "b", 1e6) == pytest.approx(1.5)

    def test_energy_linear_in_bits(self):
        bus = BusInterconnect(energy_per_bit=1e-12)
        assert bus.transfer_energy("a", "b", 1e12) == pytest.approx(1.0)

    def test_shared(self):
        assert BusInterconnect().is_shared()
        assert not PointToPointInterconnect().is_shared()

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            BusInterconnect(bandwidth=0.0)
        with pytest.raises(ValueError):
            PointToPointInterconnect(bandwidth=-1.0)

    def test_failed_link_is_down_both_ways_until_repaired(self):
        interconnect = PointToPointInterconnect()
        assert interconnect.link_available("cpu0", "mem0")
        interconnect.fail_link("cpu0", "mem0")
        assert not interconnect.link_available("cpu0", "mem0")
        assert not interconnect.link_available("mem0", "cpu0")
        interconnect.repair_link("cpu0", "mem0")
        assert interconnect.link_available("cpu0", "mem0")


class TestPlatform:
    def test_add_and_lookup(self):
        platform = Platform()
        platform.add_pe(ProcessingElement("cpu0"))
        assert platform.pe("cpu0").name == "cpu0"
        assert "cpu0" in platform
        assert len(platform) == 1

    def test_duplicate_pe_rejected(self):
        platform = Platform()
        platform.add_pe(ProcessingElement("cpu0"))
        with pytest.raises(ValueError):
            platform.add_pe(ProcessingElement("cpu0"))

    def test_total_idle_power(self):
        platform = Platform()
        platform.add_pe(ProcessingElement("a", idle_power=0.1))
        platform.add_pe(ProcessingElement("b", idle_power=0.3))
        assert platform.total_idle_power() == pytest.approx(0.4)

    def test_default_interconnect_is_bus(self):
        assert isinstance(Platform().interconnect, BusInterconnect)
