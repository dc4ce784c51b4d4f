"""Tests for DVFS and power-state models."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DvfsModel,
    OperatingPoint,
    PowerState,
    PowerStateMachine,
    xscale_dvfs,
)


class TestOperatingPoint:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            OperatingPoint(0.0, 1e8)
        with pytest.raises(ValueError):
            OperatingPoint(1.0, -1e8)

    def test_frozen(self):
        point = OperatingPoint(1.0, 1e8)
        with pytest.raises(AttributeError):
            point.voltage = 2.0


class TestDvfsModel:
    def test_points_sorted_by_frequency(self):
        model = DvfsModel(points=(
            OperatingPoint(1.5, 500e6),
            OperatingPoint(0.85, 100e6),
        ))
        assert model.slowest().frequency == 100e6
        assert model.fastest().frequency == 500e6

    def test_power_cubic_in_frequency_via_voltage(self):
        model = xscale_dvfs()
        powers = [model.power(p) for p in model.points]
        assert powers == sorted(powers)  # monotone in (V, f)

    def test_energy_lower_at_lower_point(self):
        model = xscale_dvfs()
        cycles = 1e7
        assert model.energy(cycles, model.slowest()) < model.energy(
            cycles, model.fastest()
        )

    def test_execution_time(self):
        model = xscale_dvfs()
        point = model.fastest()
        assert model.execution_time(point.frequency, point) == \
            pytest.approx(1.0)

    def test_negative_cycles_rejected(self):
        model = xscale_dvfs()
        with pytest.raises(ValueError):
            model.energy(-1, model.fastest())
        with pytest.raises(ValueError):
            model.execution_time(-1, model.fastest())

    def test_slowest_point_meeting_deadline(self):
        model = xscale_dvfs()
        # 1e8 cycles in 1 s -> needs >= 100 MHz, so the 100 MHz point.
        point = model.slowest_point_meeting(1e8, 1.0)
        assert point is not None
        assert point.frequency == 100e6

    def test_slowest_point_meeting_tight_deadline(self):
        model = xscale_dvfs()
        point = model.slowest_point_meeting(4.5e8, 1.0)
        assert point is not None
        assert point.frequency == 500e6

    def test_infeasible_deadline_returns_none(self):
        model = xscale_dvfs()
        assert model.slowest_point_meeting(1e10, 1.0) is None
        assert model.slowest_point_meeting(1.0, 0.0) is None

    def test_meeting_point_is_energy_optimal(self):
        model = xscale_dvfs()
        cycles, deadline = 2.5e8, 1.0
        chosen = model.slowest_point_meeting(cycles, deadline)
        feasible = [
            p for p in model.points
            if cycles / p.frequency <= deadline
        ]
        energies = {p: model.energy(cycles, p) for p in feasible}
        assert energies[chosen] == min(energies.values())

    def test_utilization_point_clamps(self):
        model = xscale_dvfs()
        assert model.utilization_point(2.0) == model.fastest()
        assert model.utilization_point(-1.0) == model.slowest()

    def test_utilization_point_exact(self):
        model = xscale_dvfs()
        # load 0.5 -> 250 MHz -> first point >= 250 MHz is 300 MHz
        assert model.utilization_point(0.5).frequency == 300e6

    def test_idle_energy(self):
        model = DvfsModel(idle_power=0.1)
        assert model.idle_energy(10.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            model.idle_energy(-1.0)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            DvfsModel(points=())

    @given(st.floats(min_value=1.0, max_value=1e10))
    def test_energy_monotone_in_cycles(self, cycles):
        model = xscale_dvfs()
        point = model.points[2]
        assert model.energy(cycles, point) <= model.energy(
            cycles * 2, point
        )


class TestPowerStateMachine:
    def make_machine(self):
        return PowerStateMachine([
            PowerState("active", power=1.0),
            PowerState("idle", power=0.2),
            PowerState("sleep", power=0.01, wakeup_latency=0.005,
                       wakeup_energy=0.05),
        ])

    def test_starts_in_first_state(self):
        machine = self.make_machine()
        assert machine.current.name == "active"

    def test_energy_integration(self):
        machine = self.make_machine()
        machine.enter("idle", time=10.0)   # 10 s active @ 1 W
        machine.enter("active", time=20.0)  # 10 s idle @ 0.2 W
        assert machine.energy(at_time=25.0) == pytest.approx(
            10.0 * 1.0 + 10.0 * 0.2 + 5.0 * 1.0
        )

    def test_wakeup_energy_charged_on_upward_transition(self):
        machine = self.make_machine()
        machine.enter("sleep", time=0.0)
        e_before = machine.energy(at_time=1.0)
        machine.enter("active", time=1.0)
        # 1 s sleep + wakeup energy of the sleep state
        assert machine.energy(at_time=1.0) == pytest.approx(
            1.0 * 0.01 + 0.05
        )
        assert machine.energy(at_time=1.0) > e_before

    def test_unknown_state_rejected(self):
        with pytest.raises(KeyError):
            self.make_machine().enter("ghost", time=1.0)

    def test_time_backwards_rejected(self):
        machine = self.make_machine()
        machine.enter("idle", time=5.0)
        with pytest.raises(ValueError):
            machine.enter("active", time=4.0)
        with pytest.raises(ValueError):
            machine.energy(at_time=1.0)

    def test_break_even_time(self):
        machine = self.make_machine()
        # from active (1 W) into sleep (0.01 W, 0.05 J wakeup)
        expected = 0.05 / (1.0 - 0.01)
        assert machine.break_even_time("sleep") == pytest.approx(expected)

    def test_break_even_infinite_when_not_cheaper(self):
        machine = PowerStateMachine([
            PowerState("low", power=0.1),
            PowerState("high", power=1.0, wakeup_energy=0.1),
        ])
        assert machine.break_even_time("high") == math.inf

    def test_duplicate_state_names_rejected(self):
        with pytest.raises(ValueError):
            PowerStateMachine([
                PowerState("a", 1.0), PowerState("a", 0.5)
            ])

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            PowerStateMachine([])

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            PowerState("x", power=-1.0)
