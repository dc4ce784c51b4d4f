"""Continuous-time Markov chains.

The CTMC is the workhorse behind the analytical stream models (§2.2):
queue levels, channel states and power states all map onto small CTMCs
whose stationary distribution yields throughput, loss and power in closed
form — no simulation needed.

A chain assembled by :meth:`CTMC.from_rates` with at least
:data:`SPARSE_STATES` states stores its generator as a ``scipy.sparse``
CSR matrix and solves it with a sparse LU; smaller chains keep a dense
generator and LAPACK.  ``scipy.sparse`` is imported only on that path.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["CTMC", "SPARSE_STATES", "birth_death_rates"]

#: State count from which :meth:`CTMC.from_rates` stores the generator
#: sparse.  The dense LAPACK solve is O(n³) and the sparse LU has a
#: larger constant; ``from_rates`` plus ``steady_state`` measured (one
#: BLAS thread, 2-vCPU container, dense/sparse): tandem chains of 216,
#: 256 and 343 states 1.1/1.4, 1.7/1.7 and 3.2/1.9 ms, birth–death
#: chains of 200 and 300 states 0.54/0.80 and 1.35/0.94 ms.
SPARSE_STATES = 300


def _is_sparse(matrix) -> bool:
    # A matrix cannot be sparse unless scipy.sparse is already loaded.
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(matrix)


def _dense_steady_state(Q: np.ndarray) -> np.ndarray:
    """Swap the last balance equation for the normalisation and solve
    with LAPACK; least squares when the system is singular."""
    n = Q.shape[0]
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        A_ls = np.vstack([Q.T, np.ones(n)])
        b_ls = np.zeros(n + 1)
        b_ls[-1] = 1.0
        pi, *_ = np.linalg.lstsq(A_ls, b_ls, rcond=None)
        return pi


def _sparse_steady_state(Q) -> np.ndarray | None:
    """Pin the last state's weight to 1 and solve the reduced system
    ``Qᵀ[:-1, :-1] x = -Qᵀ[:-1, -1]`` with a sparse LU.

    Returns the unnormalised weights, or ``None`` when the reduced
    system is singular (the last state is not recurrent) or the solve
    is not finite.  Swapping a row for ones, as the dense solve does,
    would fill the LU factors.
    """
    from scipy.sparse.linalg import splu

    A = Q.T.tocsc()
    try:
        x = splu(A[:-1, :-1]).solve(
            -A[:-1, [-1]].toarray().ravel())
    except RuntimeError:  # "Factor is exactly singular"
        return None
    if not np.isfinite(x).all():
        return None
    return np.append(x, 1.0)


class CTMC:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    rate_matrix:
        Generator matrix ``Q``: ``Q[i, j]`` (i≠j) is the transition rate
        from ``i`` to ``j``; diagonals must make rows sum to zero (they
        are recomputed and verified).  Dense array-likes and
        ``scipy.sparse`` matrices are both accepted; a sparse one stays
        sparse.
    labels:
        Optional state labels.

    Examples
    --------
    An M/M/1/2 queue with arrival rate 1 and service rate 2:

    >>> chain = CTMC([[-1, 1, 0], [2, -3, 1], [0, 2, -2]])
    >>> pi = chain.steady_state()
    >>> [round(float(p), 4) for p in pi]
    [0.5714, 0.2857, 0.1429]
    """

    def __init__(self, rate_matrix, labels: list[str] | None = None):
        stored_sparse = _is_sparse(rate_matrix)
        if stored_sparse:
            Q = rate_matrix.tocsr(copy=True).astype(float, copy=False)
        else:
            Q = np.asarray(rate_matrix, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("rate matrix must be square")
        if stored_sparse:
            Q.sum_duplicates()
            rows = np.repeat(np.arange(Q.shape[0]), np.diff(Q.indptr))
            off_diag = Q.data[rows != Q.indices]
            row_sums = np.asarray(Q.sum(axis=1)).ravel()
        else:
            off_diag = Q - np.diag(np.diag(Q))
            row_sums = Q.sum(axis=1)
        if (off_diag < -1e-12).any():
            raise ValueError("negative off-diagonal rate")
        if not np.allclose(row_sums, 0.0, atol=1e-8):
            raise ValueError("rows of the generator must sum to 0")
        self.Q = Q
        self.n = Q.shape[0]
        if labels is not None:
            if len(labels) != self.n:
                raise ValueError("label count mismatch")
            self.labels = list(labels)
        else:
            self.labels = [str(i) for i in range(self.n)]

    @classmethod
    def from_rates(
        cls, rates: dict[tuple[int, int], float], n_states: int,
        labels: list[str] | None = None,
    ) -> "CTMC":
        """Build a CTMC from a sparse ``{(i, j): rate}`` description.

        The generator is dense below :data:`SPARSE_STATES` states and
        a CSR matrix from there on.
        """
        if n_states >= SPARSE_STATES:
            from scipy import sparse

            rows, cols = np.array(list(rates), dtype=np.intp).reshape(
                -1, 2).T
            values = np.fromiter(rates.values(), dtype=float,
                                 count=len(rates))
            if (rows == cols).any():
                raise ValueError("self-transitions are not allowed")
            if (values < 0).any():
                raise ValueError("negative rate")
            off = sparse.csr_array((values, (rows, cols)),
                                   shape=(n_states, n_states))
            exits = np.asarray(off.sum(axis=1)).ravel()
            return cls(off - sparse.diags_array(exits, format="csr"),
                       labels)
        Q = np.zeros((n_states, n_states))
        for (i, j), rate in rates.items():
            if i == j:
                raise ValueError("self-transitions are not allowed")
            if rate < 0:
                raise ValueError("negative rate")
            Q[i, j] = rate
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return cls(Q, labels)

    def steady_state(self) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi Q = 0``.

        A dense chain is solved directly by replacing one balance
        equation with the normalization constraint (O(n³) but with a
        small constant), falling back to least squares for numerically
        degenerate chains.  A sparse chain solves the reduced system of
        :func:`_sparse_steady_state`; a singular or non-finite sparse
        solve falls back to the dense path.
        """
        if _is_sparse(self.Q):
            pi = _sparse_steady_state(self.Q)
            if pi is None:
                pi = _dense_steady_state(self.Q.toarray())
        else:
            pi = _dense_steady_state(self.Q)
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise np.linalg.LinAlgError("steady-state solve failed")
        return pi / total

    def transient(self, distribution, t: float,
                  steps: int = 256) -> np.ndarray:
        """Distribution after ``t`` time units via uniformization.

        ``steps`` bounds the Poisson series truncation.
        """
        if t < 0:
            raise ValueError("t must be non-negative")
        pi0 = np.asarray(distribution, dtype=float)
        if pi0.shape != (self.n,):
            raise ValueError("distribution size mismatch")
        lam = max(-self.Q.diagonal().min(), 1e-12)
        if _is_sparse(self.Q):
            from scipy import sparse

            P = sparse.eye_array(self.n, format="csr") + self.Q / lam
        else:
            P = np.eye(self.n) + self.Q / lam
        weight = np.exp(-lam * t)
        term = pi0.copy()
        result = weight * term
        for k in range(1, steps):
            term = term @ P
            weight *= lam * t / k
            result = result + weight * term
            if weight < 1e-16 and k > lam * t:
                break
        return result / result.sum()

    def expected_value(self, values) -> float:
        """Steady-state expectation of a per-state value vector."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n,):
            raise ValueError("value vector size mismatch")
        return float(self.steady_state() @ values)

    def __repr__(self) -> str:
        return f"CTMC(n={self.n})"


def birth_death_rates(
    birth: list[float], death: list[float]
) -> dict[tuple[int, int], float]:
    """Sparse rates of a birth–death chain with ``len(birth)+1`` states.

    ``birth[k]`` is the rate k→k+1, ``death[k]`` the rate k+1→k.  The
    backbone of every queueing model in this package.
    """
    if len(birth) != len(death):
        raise ValueError("birth and death rate lists differ in length")
    rates: dict[tuple[int, int], float] = {}
    for k, rate in enumerate(birth):
        rates[(k, k + 1)] = rate
    for k, rate in enumerate(death):
        rates[(k + 1, k)] = rate
    return rates
