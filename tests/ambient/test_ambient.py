"""Tests for the ambient-multimedia substrate (§5)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.ambient import (
    FaultProcess,
    SmartSpace,
    UserActivity,
    UserBehaviorModel,
    availability_lower_bound,
    default_home_user,
    redundancy_study,
    user_aware_energy_study,
)


def _binom_tail_exact(n: int, p: float, k_min: int) -> float:
    """P[X >= k_min] for X ~ Binomial(n, p), summed with math.comb:
    an oracle independent of scipy."""
    if k_min <= 0:
        return 1.0
    return min(1.0, sum(math.comb(n, i) * p ** i * (1.0 - p) ** (n - i)
                        for i in range(k_min, n + 1)))


class TestUserActivity:
    def test_demand_bounds(self):
        with pytest.raises(ValueError):
            UserActivity("x", service_demand=1.5)


class TestUserBehaviorModel:
    def test_default_user_valid(self):
        user = default_home_user()
        pi = user.steady_state()
        assert sum(pi.values()) == pytest.approx(1.0)
        assert all(p >= 0 for p in pi.values())

    def test_absence_dominates_the_home_user(self):
        pi = default_home_user().steady_state()
        assert pi["absent"] > 0.4  # people are mostly out

    def test_mean_demand_between_bounds(self):
        user = default_home_user()
        demand = user.mean_demand()
        assert 0.0 < demand < 0.5

    def test_trajectory_statistics_match_steady_state(self):
        user = default_home_user()
        trajectory = user.trajectory(200_000, seed=1)
        fraction_absent = sum(
            1 for a in trajectory if a.name == "absent"
        ) / len(trajectory)
        assert fraction_absent == pytest.approx(
            user.steady_state()["absent"], abs=0.06
        )

    def test_duplicate_activities_rejected(self):
        with pytest.raises(ValueError):
            UserBehaviorModel(
                [UserActivity("a", 0.0), UserActivity("a", 1.0)],
                [[0.5, 0.5], [0.5, 0.5]],
            )

    def test_activity_lookup(self):
        user = default_home_user()
        assert user.activity("watching").service_demand == 1.0
        with pytest.raises(KeyError):
            user.activity("ghost")

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            default_home_user().trajectory(-1)


class TestFaultProcess:
    def test_steady_availability(self):
        fp = FaultProcess(mtbf_slots=900.0, mttr_slots=100.0)
        assert fp.steady_availability() == pytest.approx(0.9)

    def test_no_repair_zero_longrun(self):
        fp = FaultProcess(mtbf_slots=100.0)
        assert fp.steady_availability() == 0.0

    def test_permanent_failure_trace(self):
        fp = FaultProcess(mtbf_slots=50.0)
        up = fp.up_trace(10_000, seed=1)
        # once down, down forever
        first_down = int(np.argmax(~up))
        assert not up[first_down:].any()

    def test_repairable_trace_availability(self):
        fp = FaultProcess(mtbf_slots=500.0, mttr_slots=100.0)
        traces = [fp.up_trace(50_000, seed=2, node=i).mean()
                  for i in range(20)]
        assert np.mean(traces) == pytest.approx(
            fp.steady_availability(), abs=0.04
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultProcess(mtbf_slots=0.0)
        with pytest.raises(ValueError):
            FaultProcess(mtbf_slots=1.0, mttr_slots=0.0)
        with pytest.raises(ValueError):
            FaultProcess(mtbf_slots=1.0).up_trace(-1)


class TestUpTraceProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        mtbf=st.floats(min_value=20.0, max_value=200.0),
        mttr=st.floats(min_value=5.0, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_trace_mean_tracks_steady_availability(self, mtbf, mttr,
                                                   seed):
        """The slot-level up fraction stays inside a renewal-theory
        confidence band around MTBF/(MTBF+MTTR)."""
        fp = FaultProcess(mtbf_slots=mtbf, mttr_slots=mttr)
        cycle = mtbf + mttr
        n_slots = int(150 * cycle)  # ~150 failure/repair cycles
        up = fp.up_trace(n_slots, seed=seed)
        a = fp.steady_availability()
        # Asymptotic std of the time-average of an alternating
        # exponential renewal process, with slack for the start-up
        # transient (the node is born alive) and slot quantization.
        sigma = a * (1.0 - a) * math.sqrt(2.0 * cycle / n_slots)
        assert abs(float(up.mean()) - a) <= 8.0 * sigma + 0.02

    @settings(max_examples=15, deadline=None)
    @given(
        mtbf=st.floats(min_value=0.1, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_permanent_trace_never_recovers(self, mtbf, seed):
        up = FaultProcess(mtbf_slots=mtbf).up_trace(5_000, seed=seed)
        assert (np.diff(up.astype(int)) <= 0).all()


class TestAvailabilityBound:
    def test_one_of_one(self):
        assert availability_lower_bound(0.9, 1, 1) == pytest.approx(0.9)

    def test_one_of_two_redundancy(self):
        # 1 - (1-0.9)^2
        assert availability_lower_bound(0.9, 2, 1) == pytest.approx(
            0.99
        )

    def test_k_zero_always_available(self):
        assert availability_lower_bound(0.1, 3, 0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            availability_lower_bound(1.5, 2, 1)
        with pytest.raises(ValueError):
            availability_lower_bound(0.5, 2, 3)

    def test_exact_tail_matches_scipy_path(self):
        for n, p, k in [(5, 0.9, 3), (12, 0.37, 7), (20, 0.99, 20),
                        (8, 0.5, 0), (6, 0.0, 1), (6, 1.0, 6)]:
            assert _binom_tail_exact(n, p, k) == pytest.approx(
                availability_lower_bound(p, n, k), abs=1e-12
            )

    def test_bit_identical_to_binom_sf(self):
        """The incomplete-beta form reproduces scipy.stats.binom.sf
        exactly, at the endpoints p = 0 and p = 1 too."""
        for n in range(1, 31):
            for p in (0.0, 0.05, 0.37, 0.5, 0.9, 0.99, 1.0):
                for k in range(n + 1):
                    assert availability_lower_bound(p, n, k) == float(
                        stats.binom.sf(k - 1, n, p)), (n, k, p)


class TestSmartSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SmartSpace(n_zones=0)
        with pytest.raises(ValueError):
            SmartSpace(node_active_power=0.001, node_sleep_power=0.01)

    def test_redundancy_improves_availability(self):
        results = redundancy_study(n_slots=15_000, seed=3)
        measured = [r.measured_availability for r in results]
        assert measured == sorted(measured)
        assert measured[-1] > 0.99

    def test_measured_tracks_analytic(self):
        results = redundancy_study(n_slots=30_000, seed=4)
        for r in results:
            tolerance = 0.12 if r.nodes_per_zone == 1 else 0.05
            assert r.measured_availability == pytest.approx(
                r.analytical_availability, abs=tolerance
            )

    def test_user_aware_saves_energy_without_service_loss(self):
        results = user_aware_energy_study(n_slots=15_000, seed=5)
        on = results["always-on"]
        aware = results["user-aware"]
        assert aware.energy < 0.6 * on.energy
        assert aware.service_ratio == on.service_ratio
        assert aware.service_ratio > 0.95
