"""Every Layer-1 rule fires on a bad fixture and stays silent on a
good one (the ISSUE acceptance criterion: one positive and one
negative fixture per rule)."""

import pytest

from repro.check import (
    verify_application,
    verify_design,
    verify_mapping,
    verify_model,
    verify_platform,
    verify_task_graph,
)
from repro.core.application import (
    ApplicationGraph,
    ChannelSpec,
    Dependency,
    ProcessNode,
    Task,
    TaskGraph,
)
from repro.core.architecture import (
    BusInterconnect,
    PEKind,
    Platform,
    ProcessingElement,
)
from repro.core.mapping import Mapping
from repro.core.power import DvfsModel, OperatingPoint
from repro.core.qos import QoSSpec


def rules_of(diags):
    return {d.rule for d in diags}


def pipeline_app(rate=25.0):
    """A clean source->enc->sink pipeline; the negative fixture."""
    app = ApplicationGraph("pipeline")
    app.add_process(ProcessNode("cam", 1e5, rate_hz=rate))
    app.add_process(ProcessNode("enc", 4e6))
    app.add_process(ProcessNode("out", 1e5))
    app.add_channel(ChannelSpec("cam", "enc"))
    app.add_channel(ChannelSpec("enc", "out"))
    return app


def two_pe_platform(**bus_kwargs):
    platform = Platform("duo", BusInterconnect(**bus_kwargs))
    platform.add_pe(ProcessingElement("cpu0", PEKind.GPP,
                                      frequency=400e6))
    platform.add_pe(ProcessingElement("dsp0", PEKind.DSP,
                                      frequency=300e6))
    return platform


def full_mapping():
    return Mapping({"cam": "cpu0", "enc": "dsp0", "out": "cpu0"})


class TestApplicationRules:
    def test_clean_pipeline_has_no_findings(self):
        assert verify_application(pipeline_app()) == []

    def test_rc101_unreachable_process(self):
        app = pipeline_app()
        app.add_process(ProcessNode("island", 1e6))
        assert "RC101" in rules_of(verify_application(app))

    def test_rc101_negative_all_reachable(self):
        assert "RC101" not in rules_of(
            verify_application(pipeline_app()))

    def test_rc102_disconnected_fragments(self):
        app = pipeline_app()
        app.add_process(ProcessNode("mic", 1e4, rate_hz=50.0))
        app.add_process(ProcessNode("spk", 1e4))
        app.add_channel(ChannelSpec("mic", "spk"))
        assert "RC102" in rules_of(verify_application(app))

    def test_rc102_negative_connected(self):
        assert "RC102" not in rules_of(
            verify_application(pipeline_app()))

    def test_rc103_cycle_deadlocks(self):
        app = ApplicationGraph("loop")
        app.add_process(ProcessNode("a", 1e5))
        app.add_process(ProcessNode("b", 1e5))
        app.add_channel(ChannelSpec("a", "b"))
        app.add_channel(ChannelSpec("b", "a"))
        assert "RC103" in rules_of(verify_application(app))

    def test_rc103_negative_acyclic(self):
        assert "RC103" not in rules_of(
            verify_application(pipeline_app()))

    def test_rc104_source_without_rate(self):
        app = pipeline_app()
        app.add_process(ProcessNode("aux", 1e5))   # no rate_hz
        app.add_channel(ChannelSpec("aux", "enc"))
        assert "RC104" in rules_of(verify_application(app))

    def test_rc104_negative_rated_source(self):
        assert "RC104" not in rules_of(
            verify_application(pipeline_app()))

    def test_rc105_rate_on_internal_process(self):
        app = ApplicationGraph("p")
        app.add_process(ProcessNode("src", 1e5, rate_hz=25.0))
        app.add_process(ProcessNode("mid", 1e5, rate_hz=30.0))
        app.add_channel(ChannelSpec("src", "mid"))
        assert "RC105" in rules_of(verify_application(app))

    def test_rc105_negative(self):
        assert "RC105" not in rules_of(
            verify_application(pipeline_app()))

    def test_rc106_join_rate_mismatch(self):
        app = ApplicationGraph("join")
        app.add_process(ProcessNode("video", 1e5, rate_hz=25.0))
        app.add_process(ProcessNode("audio", 1e4, rate_hz=44.1))
        app.add_process(ProcessNode("mux", 1e5))
        app.add_channel(ChannelSpec("video", "mux"))
        app.add_channel(ChannelSpec("audio", "mux"))
        assert "RC106" in rules_of(verify_application(app))

    def test_rc106_negative_equal_rates(self):
        app = ApplicationGraph("join")
        app.add_process(ProcessNode("video", 1e5, rate_hz=25.0))
        app.add_process(ProcessNode("audio", 1e4, rate_hz=25.0))
        app.add_process(ProcessNode("mux", 1e5))
        app.add_channel(ChannelSpec("video", "mux"))
        app.add_channel(ChannelSpec("audio", "mux"))
        assert "RC106" not in rules_of(verify_application(app))


class TestTaskGraphRules:
    def make_tg(self, bits=1e4):
        tg = TaskGraph("tg", period=0.04)
        tg.add_task(Task("a", 1e6))
        tg.add_task(Task("b", 1e6))
        tg.add_dependency(Dependency("a", "b", bits=bits))
        return tg

    def test_rc107_zero_volume_dependency(self):
        diags = verify_task_graph(self.make_tg(bits=0.0))
        assert "RC107" in rules_of(diags)

    def test_rc107_negative_real_volume(self):
        assert verify_task_graph(self.make_tg()) == []

    def test_rc102_disconnected_task_graph(self):
        tg = self.make_tg()
        tg.add_task(Task("loner", 1e5))
        assert "RC102" in rules_of(verify_task_graph(tg))


class TestMappingRules:
    def test_clean_mapping_has_no_findings(self):
        diags = verify_mapping(pipeline_app(), two_pe_platform(),
                               full_mapping())
        assert diags == []

    def test_rc110_unmapped_process(self):
        mapping = Mapping({"cam": "cpu0", "enc": "dsp0"})  # no 'out'
        diags = verify_mapping(pipeline_app(), two_pe_platform(),
                               mapping)
        assert "RC110" in rules_of(diags)

    def test_rc111_unknown_process_in_mapping(self):
        mapping = Mapping({**full_mapping().assignment,
                           "ghost": "cpu0"})
        diags = verify_mapping(pipeline_app(), two_pe_platform(),
                               mapping)
        assert "RC111" in rules_of(diags)

    def test_rc112_unknown_pe(self):
        mapping = Mapping({"cam": "cpu0", "enc": "nope",
                           "out": "cpu0"})
        diags = verify_mapping(pipeline_app(), two_pe_platform(),
                               mapping)
        assert "RC112" in rules_of(diags)

    def test_rc113_out_of_service_pe(self):
        platform = two_pe_platform()
        platform.pe("dsp0").fail()
        diags = verify_mapping(pipeline_app(), platform,
                               full_mapping())
        assert "RC113" in rules_of(diags)

    def test_rc113_negative_after_repair(self):
        platform = two_pe_platform()
        platform.pe("dsp0").fail()
        platform.pe("dsp0").repair()
        diags = verify_mapping(pipeline_app(), platform,
                               full_mapping())
        assert "RC113" not in rules_of(diags)

    def test_rc114_asic_hosts_many_processes(self):
        platform = two_pe_platform()
        platform.add_pe(ProcessingElement("hw0", PEKind.ASIC,
                                          frequency=200e6))
        mapping = Mapping({"cam": "hw0", "enc": "hw0", "out": "cpu0"})
        diags = verify_mapping(pipeline_app(), platform, mapping)
        assert "RC114" in rules_of(diags)

    def test_rc114_negative_one_kernel_per_asic(self):
        platform = two_pe_platform()
        platform.add_pe(ProcessingElement("hw0", PEKind.ASIC,
                                          frequency=200e6))
        mapping = Mapping({"cam": "cpu0", "enc": "hw0", "out": "cpu0"})
        diags = verify_mapping(pipeline_app(), platform, mapping)
        assert "RC114" not in rules_of(diags)

    def test_rc115_failed_link(self):
        platform = two_pe_platform()
        platform.interconnect.fail_link("cpu0", "dsp0")
        diags = verify_mapping(pipeline_app(), platform,
                               full_mapping())
        assert "RC115" in rules_of(diags)

    def test_rc115_suppressed_when_binding_broken(self):
        # RC115 needs resolvable endpoints; with an unmapped process
        # the earlier binding errors take precedence.
        platform = two_pe_platform()
        platform.interconnect.fail_link("cpu0", "dsp0")
        mapping = Mapping({"cam": "cpu0", "enc": "dsp0"})
        diags = verify_mapping(pipeline_app(), platform, mapping)
        assert "RC110" in rules_of(diags)
        assert "RC115" not in rules_of(diags)


class TestFeasibilityRules:
    def test_rc120_overloaded_pe(self):
        app = pipeline_app()
        app.process("enc").cycles_mean = 1e9   # 25 Hz * 1e9 cycles
        diags = verify_design(application=app,
                              platform=two_pe_platform(),
                              mapping=full_mapping())
        assert "RC120" in rules_of(diags)

    def test_rc120_negative_light_load(self):
        diags = verify_design(application=pipeline_app(),
                              platform=two_pe_platform(),
                              mapping=full_mapping())
        assert "RC120" not in rules_of(diags)

    def test_rc121_taskgraph_deadline_below_critical_path(self):
        tg = TaskGraph("tight", period=0.04)
        tg.add_task(Task("a", 2e8))
        tg.add_task(Task("b", 2e8, deadline=0.5))
        tg.add_dependency(Dependency("a", "b", bits=1e4))
        diags = verify_design(task_graph=tg,
                              platform=two_pe_platform(),
                              mapping=Mapping({"a": "cpu0",
                                               "b": "dsp0"}))
        # 4e8 cycles at 400 MHz is 1 s best case > 0.5 s deadline.
        assert "RC121" in rules_of(diags)

    def test_rc121_taskgraph_negative_loose_deadline(self):
        tg = TaskGraph("loose", period=0.04)
        tg.add_task(Task("a", 2e8))
        tg.add_task(Task("b", 2e8, deadline=2.0))
        tg.add_dependency(Dependency("a", "b", bits=1e4))
        diags = verify_design(task_graph=tg,
                              platform=two_pe_platform(),
                              mapping=Mapping({"a": "cpu0",
                                               "b": "dsp0"}))
        assert "RC121" not in rules_of(diags)

    def test_rc121_application_qos_latency(self):
        qos = QoSSpec(max_latency=1e-6)
        diags = verify_design(application=pipeline_app(),
                              platform=two_pe_platform(),
                              mapping=full_mapping(), qos=qos)
        assert "RC121" in rules_of(diags)

    def test_rc121_application_negative(self):
        qos = QoSSpec(max_latency=1.0)
        diags = verify_design(application=pipeline_app(),
                              platform=two_pe_platform(),
                              mapping=full_mapping(), qos=qos)
        assert "RC121" not in rules_of(diags)

    def test_rc122_bus_bandwidth_exceeded(self):
        platform = two_pe_platform(bandwidth=1e3)
        diags = verify_design(application=pipeline_app(),
                              platform=platform,
                              mapping=full_mapping())
        assert "RC122" in rules_of(diags)

    @pytest.mark.parametrize("qos", [None, QoSSpec(max_latency=1e-6)])
    def test_cyclic_application_reports_rc103_without_raising(self, qos):
        """The rate and critical-path rules have nothing to measure on
        a cycle; the design check reports the cycle instead of
        failing on it."""
        app = ApplicationGraph("loop")
        app.add_process(ProcessNode("s", 1e5, rate_hz=25.0))
        app.add_process(ProcessNode("a", 1e9))
        app.add_process(ProcessNode("b", 1e9))
        app.add_channel(ChannelSpec("s", "a"))
        app.add_channel(ChannelSpec("a", "b"))
        app.add_channel(ChannelSpec("b", "a"))
        diags = verify_design(
            application=app, platform=two_pe_platform(bandwidth=1e3),
            mapping=Mapping({"s": "cpu0", "a": "cpu0", "b": "cpu0"}),
            qos=qos)
        rules = rules_of(diags)
        assert "RC103" in rules
        assert not rules & {"RC120", "RC121", "RC122"}

    def test_rc122_negative_wide_bus(self):
        platform = two_pe_platform(bandwidth=1e9)
        diags = verify_design(application=pipeline_app(),
                              platform=platform,
                              mapping=full_mapping())
        assert "RC122" not in rules_of(diags)


class TestPlatformSanityRules:
    def test_clean_platform_has_no_findings(self):
        assert verify_platform(two_pe_platform()) == []

    def test_rc130_idle_above_active(self):
        platform = Platform("p")
        platform.add_pe(ProcessingElement(
            "cpu0", frequency=200e6, active_power=0.1,
            idle_power=0.5))
        assert "RC130" in rules_of(verify_platform(platform))

    def test_rc130_negative(self):
        platform = Platform("p")
        platform.add_pe(ProcessingElement(
            "cpu0", frequency=200e6, active_power=0.5,
            idle_power=0.02))
        assert "RC130" not in rules_of(verify_platform(platform))

    def test_rc131_mhz_entered_as_hz(self):
        platform = Platform("p")
        platform.add_pe(ProcessingElement("cpu0", frequency=200.0))
        assert "RC131" in rules_of(verify_platform(platform))

    def test_rc131_implausible_active_power(self):
        platform = Platform("p")
        platform.add_pe(ProcessingElement(
            "cpu0", frequency=200e6, active_power=5e3))
        assert "RC131" in rules_of(verify_platform(platform))

    def test_rc131_interconnect_energy_per_bit(self):
        platform = Platform("p", BusInterconnect(energy_per_bit=1e-3))
        platform.add_pe(ProcessingElement("cpu0", frequency=200e6))
        assert "RC131" in rules_of(verify_platform(platform))

    def test_rc131_negative_plausible_values(self):
        assert "RC131" not in rules_of(
            verify_platform(two_pe_platform()))

    def test_rc132_nominal_frequency_outside_dvfs_range(self):
        dvfs = DvfsModel(points=(OperatingPoint(1.0, 100e6),
                                 OperatingPoint(1.3, 400e6)))
        platform = Platform("p")
        platform.add_pe(ProcessingElement("cpu0", frequency=1e9,
                                          dvfs=dvfs))
        assert "RC132" in rules_of(verify_platform(platform))

    def test_rc132_negative_frequency_in_range(self):
        dvfs = DvfsModel(points=(OperatingPoint(1.0, 100e6),
                                 OperatingPoint(1.3, 400e6)))
        platform = Platform("p")
        platform.add_pe(ProcessingElement("cpu0", frequency=200e6,
                                          dvfs=dvfs))
        assert "RC132" not in rules_of(verify_platform(platform))


class TestVerifyModelDispatch:
    def test_dispatches_on_type(self):
        assert verify_model(pipeline_app()) == []
        assert verify_model(two_pe_platform()) == []
        tg = TaskGraph("t", period=0.04)
        tg.add_task(Task("a", 1e6))
        assert verify_model(tg) == []

    def test_dict_bundle_runs_cross_checks(self):
        diags = verify_model({
            "application": pipeline_app(),
            "platform": two_pe_platform(bandwidth=1e3),
            "mapping": full_mapping(),
        })
        assert "RC122" in rules_of(diags)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            verify_model(42)
