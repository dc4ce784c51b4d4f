"""Tests for DTMC and CTMC solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.analysis import CTMC, DTMC, TandemQueueModel, birth_death_rates
from repro.analysis.ctmc import SPARSE_STATES
from repro.utils.rng import spawn_rng


class TestDTMCConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DTMC([[0.5, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DTMC([[1.5, -0.5], [0.5, 0.5]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            DTMC([[0.5, 0.4], [0.5, 0.5]])

    def test_labels(self):
        chain = DTMC([[0.5, 0.5], [0.5, 0.5]], labels=["good", "bad"])
        assert chain.index("bad") == 1
        with pytest.raises(ValueError):
            DTMC([[1.0]], labels=["a", "b"])


class TestDTMCSteadyState:
    def test_two_state_closed_form(self):
        # pi = (b, a)/(a+b) for flip rates a=0.1, b=0.5
        chain = DTMC([[0.9, 0.1], [0.5, 0.5]])
        pi = chain.steady_state()
        assert pi == pytest.approx([5 / 6, 1 / 6])

    def test_identity_preserved(self):
        chain = DTMC([[0.2, 0.8], [0.6, 0.4]])
        pi = chain.steady_state()
        assert pi @ chain.P == pytest.approx(pi)

    def test_sums_to_one(self):
        chain = DTMC(np.full((5, 5), 0.2))
        assert chain.steady_state().sum() == pytest.approx(1.0)

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=1000))
    def test_random_chain_invariants(self, n, seed):
        rng = np.random.default_rng(seed)
        P = rng.random((n, n)) + 0.01
        P /= P.sum(axis=1, keepdims=True)
        chain = DTMC(P)
        pi = chain.steady_state()
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()
        assert pi @ P == pytest.approx(pi, abs=1e-8)

    def test_agrees_with_simulation(self):
        chain = DTMC([[0.7, 0.3], [0.2, 0.8]])
        pi = chain.steady_state()
        trajectory = chain.simulate(
            200_000, spawn_rng(0, "dtmc-test"), start=0
        )
        empirical = np.bincount(trajectory, minlength=2) / len(trajectory)
        assert empirical == pytest.approx(pi, abs=0.01)


class TestDTMCStructure:
    def test_irreducible(self):
        assert DTMC([[0.5, 0.5], [0.5, 0.5]]).is_irreducible()

    def test_reducible(self):
        assert not DTMC([[1.0, 0.0], [0.5, 0.5]]).is_irreducible()

    def test_step_evolution(self):
        chain = DTMC([[0.0, 1.0], [1.0, 0.0]])
        pi = chain.step([1.0, 0.0], n_steps=3)
        assert pi == pytest.approx([0.0, 1.0])

    def test_step_validation(self):
        chain = DTMC([[1.0]])
        with pytest.raises(ValueError):
            chain.step([0.5, 0.5])
        with pytest.raises(ValueError):
            chain.step([0.9])
        with pytest.raises(ValueError):
            chain.step([1.0], n_steps=-1)


class TestDtmcSeedKeyword:
    def test_seed_replaces_manual_rng(self):
        chain = DTMC(np.array([[0.5, 0.5], [0.2, 0.8]]))
        by_seed = chain.simulate(100, seed=11)
        by_rng = chain.simulate(100, rng=spawn_rng(11, "dtmc"))
        assert list(by_seed) == list(by_rng)

    def test_rng_and_seed_together_rejected(self):
        chain = DTMC(np.array([[0.5, 0.5], [0.2, 0.8]]))
        with pytest.raises(TypeError, match="not both"):
            chain.simulate(10, rng=np.random.default_rng(0), seed=1)


class TestCTMC:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError):
            CTMC([[-1.0, 0.5], [1.0, -1.0]])

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ValueError):
            CTMC([[1.0, -1.0], [2.0, -2.0]])

    def test_two_state_steady_state(self):
        # rates: 0->1 at 1, 1->0 at 3  =>  pi = (0.75, 0.25)
        chain = CTMC([[-1.0, 1.0], [3.0, -3.0]])
        assert chain.steady_state() == pytest.approx([0.75, 0.25])

    def test_from_rates_builds_generator(self):
        chain = CTMC.from_rates({(0, 1): 2.0, (1, 0): 4.0}, n_states=2)
        assert chain.Q[0, 0] == pytest.approx(-2.0)
        assert chain.Q[1, 1] == pytest.approx(-4.0)

    def test_from_rates_validation(self):
        with pytest.raises(ValueError):
            CTMC.from_rates({(0, 0): 1.0}, n_states=1)
        with pytest.raises(ValueError):
            CTMC.from_rates({(0, 1): -1.0}, n_states=2)

    def test_mm1_2_steady_state_matches_formula(self):
        lam, mu, k = 1.0, 2.0, 2
        chain = CTMC.from_rates(
            birth_death_rates([lam] * k, [mu] * k), n_states=k + 1
        )
        pi = chain.steady_state()
        rho = lam / mu
        expected = np.array([rho**n for n in range(k + 1)])
        expected /= expected.sum()
        assert pi == pytest.approx(expected)

    def test_transient_converges_to_steady_state(self):
        chain = CTMC([[-1.0, 1.0], [3.0, -3.0]])
        pi_t = chain.transient([1.0, 0.0], t=50.0)
        assert pi_t == pytest.approx(chain.steady_state(), abs=1e-6)

    def test_transient_at_zero_is_initial(self):
        chain = CTMC([[-1.0, 1.0], [3.0, -3.0]])
        assert chain.transient([1.0, 0.0], t=0.0) == pytest.approx(
            [1.0, 0.0]
        )

    def test_transient_validation(self):
        chain = CTMC([[-1.0, 1.0], [3.0, -3.0]])
        with pytest.raises(ValueError):
            chain.transient([1.0, 0.0], t=-1.0)
        with pytest.raises(ValueError):
            chain.transient([1.0], t=1.0)

    def test_expected_value(self):
        chain = CTMC([[-1.0, 1.0], [3.0, -3.0]])
        assert chain.expected_value([0.0, 4.0]) == pytest.approx(1.0)

    def test_birth_death_length_mismatch(self):
        with pytest.raises(ValueError):
            birth_death_rates([1.0], [1.0, 2.0])


def _relative_error(actual, reference) -> float:
    return float(np.linalg.norm(actual - reference)
                 / np.linalg.norm(reference))


class TestSparseCTMC:
    """Chains from :data:`SPARSE_STATES` states up store a CSR
    generator; the dense LAPACK path is the reference."""

    def test_from_rates_storage_switches_at_threshold(self):
        small = CTMC.from_rates(
            birth_death_rates([1.0] * (SPARSE_STATES - 2),
                              [2.0] * (SPARSE_STATES - 2)),
            n_states=SPARSE_STATES - 1)
        large = CTMC.from_rates(
            birth_death_rates([1.0] * (SPARSE_STATES - 1),
                              [2.0] * (SPARSE_STATES - 1)),
            n_states=SPARSE_STATES)
        assert isinstance(small.Q, np.ndarray)
        assert sparse.issparse(large.Q)
        assert large.Q.diagonal()[0] == -1.0
        assert large.Q.diagonal()[-1] == -2.0

    @pytest.mark.parametrize("stages", [1, 2, 3, 4, 5])
    def test_steady_state_matches_dense_on_tandem_chains(self, stages):
        model = TandemQueueModel(8.0, [10.0] * stages, [4] * stages)
        chain = CTMC.from_rates(model._rates(), model.n_states)
        dense_Q = (chain.Q.toarray() if sparse.issparse(chain.Q)
                   else chain.Q)
        reference = CTMC(dense_Q).steady_state()
        solved = CTMC(sparse.csr_array(dense_Q)).steady_state()
        assert _relative_error(solved, reference) < 1e-12

    def test_steady_state_matches_dense_on_birth_death_chain(self):
        n = SPARSE_STATES + 100
        chain = CTMC.from_rates(
            birth_death_rates([8.0] * (n - 1), [10.0] * (n - 1)),
            n_states=n)
        assert sparse.issparse(chain.Q)
        reference = CTMC(chain.Q.toarray()).steady_state()
        assert _relative_error(chain.steady_state(), reference) < 1e-12

    def test_singular_reduced_system_falls_back_to_dense(self):
        # State 2 is transient: pinning its weight to 1 has no
        # solution, so the sparse solve hands over to the dense one.
        Q = np.array([[-1.0, 1.0, 0.0],
                      [3.0, -3.0, 0.0],
                      [2.0, 0.0, -2.0]])
        solved = CTMC(sparse.csr_array(Q)).steady_state()
        assert solved == pytest.approx([0.75, 0.25, 0.0])
        assert np.array_equal(solved, CTMC(Q).steady_state())

    @pytest.mark.parametrize("matrix, message", [
        ([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]], "square"),
        ([[1.0, -1.0], [2.0, -2.0]], "negative off-diagonal"),
        ([[-1.0, 0.5], [1.0, -1.0]], "sum to 0"),
    ])
    def test_sparse_validation_matches_dense(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            CTMC(matrix)
        with pytest.raises(ValueError, match=message):
            CTMC(sparse.csr_array(np.array(matrix)))

    @pytest.mark.parametrize("rates, message", [
        ({(0, 1): 1.0, (3, 3): 1.0}, "self-transitions"),
        ({(0, 1): 1.0, (1, 0): -1.0}, "negative rate"),
    ])
    def test_sparse_from_rates_validation_matches_dense(self, rates,
                                                        message):
        for n_states in (4, SPARSE_STATES):
            with pytest.raises(ValueError, match=message):
                CTMC.from_rates(rates, n_states=n_states)

    def test_expected_value_and_transient_on_sparse_chain(self):
        n = SPARSE_STATES
        chain = CTMC.from_rates(
            birth_death_rates([1.0] * (n - 1), [3.0] * (n - 1)),
            n_states=n)
        dense = CTMC(chain.Q.toarray())
        values = np.arange(n, dtype=float)
        assert chain.expected_value(values) == pytest.approx(
            dense.expected_value(values), rel=1e-12)
        start = np.zeros(n)
        start[0] = 1.0
        assert np.array_equal(chain.transient(start, t=0.0), start)
        assert chain.transient(start, t=2.0) == pytest.approx(
            dense.transient(start, t=2.0), rel=1e-12, abs=1e-15)
        assert chain.transient(start, t=60.0, steps=2048) == \
            pytest.approx(chain.steady_state(), abs=1e-9)
