"""Tests for the retargetable-toolchain model (Fig.2)."""

import pytest

from repro.asip import (
    ExtensibleProcessor,
    IsaRestrictions,
    IssProfiler,
    RetargetableToolchain,
    effective_speedup,
    select_extensions_optimal,
    voice_recognition_workload,
)


class TestEffectiveSpeedup:
    def test_full_coverage_is_ideal(self):
        assert effective_speedup(10.0, 1.0) == 10.0

    def test_zero_coverage_is_neutral(self):
        assert effective_speedup(10.0, 0.0) == 1.0

    def test_amdahl_value(self):
        assert effective_speedup(10.0, 0.5) == pytest.approx(
            1.0 / (0.5 + 0.05)
        )

    def test_monotone_in_coverage(self):
        values = [effective_speedup(8.0, c)
                  for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_speedup(0.5, 0.5)
        with pytest.raises(ValueError):
            effective_speedup(2.0, 1.5)


def customized_processor():
    workload = voice_recognition_workload()
    restrictions = IsaRestrictions(max_instructions=6,
                                   gate_budget=250_000.0)
    base = ExtensibleProcessor(restrictions=restrictions)
    profile = IssProfiler(base).run(workload)
    selection = select_extensions_optimal(
        profile, workload.candidates(), restrictions,
        extension_budget=120_000.0,
    )
    return base, base.with_customization(extensions=selection.selected)


class TestRetargetableToolchain:
    def test_coverage_validated(self):
        __, custom = customized_processor()
        with pytest.raises(ValueError):
            RetargetableToolchain(custom, compiler_coverage=1.5)

    def test_full_coverage_matches_ideal(self):
        base, custom = customized_processor()
        workload = voice_recognition_workload()
        toolchain = RetargetableToolchain(custom,
                                          compiler_coverage=1.0)
        ideal = IssProfiler(custom).speedup_over(workload, base)
        assert toolchain.speedup_over_base(workload, base) == \
            pytest.approx(ideal)
        assert toolchain.coverage_gap(workload, base) == \
            pytest.approx(0.0, abs=1e-9)

    def test_partial_coverage_degrades(self):
        base, custom = customized_processor()
        workload = voice_recognition_workload()
        ideal = IssProfiler(custom).speedup_over(workload, base)
        achieved = RetargetableToolchain(
            custom, compiler_coverage=0.85
        ).speedup_over_base(workload, base)
        assert 1.0 < achieved < ideal

    def test_gap_monotone_in_coverage(self):
        base, custom = customized_processor()
        workload = voice_recognition_workload()
        gaps = [
            RetargetableToolchain(custom, compiler_coverage=c)
            .coverage_gap(workload, base)
            for c in (0.5, 0.75, 0.95)
        ]
        assert gaps == sorted(gaps, reverse=True)

    def test_gates_unaffected_by_toolchain(self):
        __, custom = customized_processor()
        compiled = RetargetableToolchain(
            custom, compiler_coverage=0.7
        ).compiled_processor()
        assert compiled.gate_count() == custom.gate_count()

    def test_uncustomized_processor_gap_zero(self):
        base = ExtensibleProcessor()
        workload = voice_recognition_workload()
        toolchain = RetargetableToolchain(base, compiler_coverage=0.5)
        assert toolchain.coverage_gap(workload, base) == 0.0
