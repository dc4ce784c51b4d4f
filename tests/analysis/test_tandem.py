"""Tests for the tandem-queue exact model and its scaling study."""

import tracemalloc

import pytest
import scipy.sparse.linalg  # noqa: F401 - imported outside the trace

from repro.analysis import (
    MM1K,
    TandemQueueModel,
    simulate_tandem,
    state_space_study,
)


class TestTandemQueueModel:
    def test_state_count(self):
        model = TandemQueueModel(1.0, [2.0, 2.0, 2.0], [3, 3, 3])
        assert model.n_states == 4**3

    def test_single_stage_matches_mm1k(self):
        lam, mu, k = 8.0, 10.0, 5
        tandem = TandemQueueModel(lam, [mu], [k]).solve()
        reference = MM1K(lam, mu, k)
        assert tandem.loss_rate == pytest.approx(
            reference.blocking_probability(), rel=1e-9
        )
        assert tandem.throughput == pytest.approx(
            reference.throughput(), rel=1e-9
        )
        assert tandem.mean_occupancies[0] == pytest.approx(
            reference.mean_queue_length(), rel=1e-9
        )

    def test_conservation_through_stages(self):
        """Whatever enters stage 0 eventually leaves stage k-1 — the
        solved throughput must be the admitted rate."""
        model = TandemQueueModel(5.0, [8.0, 9.0], [3, 3])
        metrics = model.solve()
        assert metrics.throughput == pytest.approx(
            5.0 * (1 - metrics.loss_rate)
        )

    def test_bottleneck_fills_upstream(self):
        """A slow final stage backs the pipeline up."""
        balanced = TandemQueueModel(6.0, [10.0, 10.0], [4, 4]).solve()
        choked = TandemQueueModel(6.0, [10.0, 5.0], [4, 4]).solve()
        assert choked.mean_occupancies[1] > \
            balanced.mean_occupancies[1]
        assert choked.loss_rate > balanced.loss_rate

    def test_large_chain_is_solved_without_a_dense_generator(self):
        """The 3,125-state chain of e17 has 16,125 non-zeros; a dense
        generator alone would take 78 MB."""
        tracemalloc.start()
        try:
            metrics = TandemQueueModel(8, [10] * 5, [4] * 5).solve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert metrics.n_states == 3125
        assert peak < 20e6

    def test_validation(self):
        with pytest.raises(ValueError):
            TandemQueueModel(0.0, [1.0], [1])
        with pytest.raises(ValueError):
            TandemQueueModel(1.0, [1.0, 2.0], [1])
        with pytest.raises(ValueError):
            TandemQueueModel(1.0, [0.0], [1])
        with pytest.raises(ValueError):
            TandemQueueModel(1.0, [1.0], [0])


class TestSimulateTandem:
    def test_matches_exact_small_instance(self):
        lam, mu, cap = 8.0, 10.0, 3
        exact = TandemQueueModel(lam, [mu, mu],
                                 [cap + 1, cap + 1]).solve()
        sim = simulate_tandem(lam, [mu, mu], [cap, cap],
                              horizon=3_000.0, warmup=200.0, seed=1)
        assert sim.throughput == pytest.approx(exact.throughput,
                                               rel=0.05)
        assert sim.loss_rate == pytest.approx(exact.loss_rate,
                                              abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_tandem(1.0, [], [])


class TestStateSpaceStudy:
    def test_exponential_state_growth(self):
        rows = state_space_study(max_stages=3, capacity=3)
        states = [row["states"] for row in rows]
        assert states == [5, 25, 125]

    def test_exact_cost_explodes_sim_cost_does_not(self):
        """The §2.2 claim: formal analysis 'suffers from excessive
        complexity'; simulation scales gently."""
        rows = state_space_study(max_stages=4, capacity=4)
        exact = [row["exact_seconds"] for row in rows]
        sim = [row["sim_seconds"] for row in rows]
        assert exact[-1] > 20 * exact[0]
        assert sim[-1] < 20 * sim[0]

    def test_methods_agree_where_both_run(self):
        rows = state_space_study(max_stages=3, capacity=3)
        for row in rows:
            assert row["sim_throughput"] == pytest.approx(
                row["exact_throughput"], rel=0.08
            )

    def test_seed_drives_the_simulation_only(self):
        first = state_space_study(max_stages=2, capacity=3, seed=0)
        second = state_space_study(max_stages=2, capacity=3, seed=1)
        assert [row["sim_throughput"] for row in first] != \
            [row["sim_throughput"] for row in second]
        for a, b in zip(first, second):
            assert (a["states"], a["exact_throughput"]) == \
                (b["states"], b["exact_throughput"])

    def test_validation(self):
        with pytest.raises(ValueError):
            state_space_study(max_stages=0)
