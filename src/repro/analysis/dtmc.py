"""Discrete-time Markov chains.

"The objective of any analysis technique is the computation of the
stationary probability distribution for a distributed system consisting
of several processes that operate and interact concurrently" (§2.2, [7]).
This module supplies the DTMC primitive: steady-state solution, transient
evolution, and basic structural checks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DTMC"]


class DTMC:
    """A finite discrete-time Markov chain.

    Parameters
    ----------
    transition_matrix:
        Row-stochastic matrix ``P`` with ``P[i, j]`` the probability of
        moving from state ``i`` to state ``j`` in one step.
    labels:
        Optional state labels (defaults to indices).

    Examples
    --------
    >>> chain = DTMC([[0.9, 0.1], [0.5, 0.5]])
    >>> pi = chain.steady_state()
    >>> [round(float(p), 4) for p in pi]
    [0.8333, 0.1667]
    """

    def __init__(self, transition_matrix, labels: list[str] | None = None):
        P = np.asarray(transition_matrix, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if (P < -1e-12).any():
            raise ValueError("negative transition probability")
        row_sums = P.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ValueError("rows must sum to 1")
        self.P = P
        self.n = P.shape[0]
        if labels is not None:
            if len(labels) != self.n:
                raise ValueError("label count mismatch")
            self.labels = list(labels)
        else:
            self.labels = [str(i) for i in range(self.n)]

    def index(self, label: str) -> int:
        """State index of ``label``."""
        return self.labels.index(label)

    def step(self, distribution, n_steps: int = 1) -> np.ndarray:
        """Evolve a distribution ``n_steps`` forward."""
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        pi = np.asarray(distribution, dtype=float)
        if pi.shape != (self.n,):
            raise ValueError("distribution size mismatch")
        if not np.isclose(pi.sum(), 1.0):
            raise ValueError("distribution must sum to 1")
        for _ in range(n_steps):
            pi = pi @ self.P
        return pi

    def steady_state(self) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi P = pi``.

        Solved directly with the normalization constraint replacing one
        balance equation (least-squares fallback for degenerate
        matrices).  For reducible chains this returns one stationary
        distribution; call :meth:`is_irreducible` when uniqueness
        matters.
        """
        A = (self.P.T - np.eye(self.n)).copy()
        A[-1, :] = 1.0
        b = np.zeros(self.n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            A_ls = np.vstack([self.P.T - np.eye(self.n),
                              np.ones(self.n)])
            b_ls = np.zeros(self.n + 1)
            b_ls[-1] = 1.0
            pi, *_ = np.linalg.lstsq(A_ls, b_ls, rcond=None)
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise np.linalg.LinAlgError("steady-state solve failed")
        return pi / total

    def is_irreducible(self) -> bool:
        """True when every state reaches every other state."""
        reach = (self.P > 1e-15).astype(bool)
        closure = reach.copy()
        for _ in range(self.n):
            closure = closure | (closure @ reach)
        return bool(closure.all())

    def simulate(self, n_steps: int,
                 rng: np.random.Generator | None = None,
                 start: int = 0, *, seed: int | None = None
                 ) -> np.ndarray:
        """Sample a trajectory of state indices of length ``n_steps``.

        Pass either an explicit ``rng`` (callers composing a
        hierarchical seeding scheme) or a plain ``seed=`` — the
        standard spelling across the repository; seeding draws the
        generator through :func:`repro.utils.rng.spawn_rng`.
        """
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if rng is None:
            from repro.utils.rng import spawn_rng
            rng = spawn_rng(0 if seed is None else seed, "dtmc")
        elif seed is not None:
            raise TypeError("pass either rng or seed, not both")
        states = np.empty(n_steps, dtype=int)
        current = start
        cumulative = self.P.cumsum(axis=1)
        draws = rng.random(n_steps)
        for t in range(n_steps):
            current = int(np.searchsorted(cumulative[current], draws[t]))
            states[t] = current
        return states

    def __repr__(self) -> str:
        return f"DTMC(n={self.n})"
