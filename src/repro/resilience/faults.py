"""In-simulation fault injectors.

A :class:`FaultInjector` is a DES process that repeatedly samples a
time-to-failure from a :class:`FailureModel`, breaks its target, then
(unless the failure is permanent) samples a time-to-repair and mends
it.  A target is anything exposing ``fail(cause)`` and ``repair()``;
the stream :class:`~repro.streams.channel.Channel` is the one the
experiments break.  :func:`session_fault_plan` samples the same
dynamics in discrete session units for the MANET lifetime study.

Everything is seeded through :func:`repro.utils.rng.spawn_rng`, so a
fault-injected run is exactly as reproducible as a fault-free one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.environment import Environment

__all__ = [
    "FailureModel",
    "FaultEvent",
    "FaultInjector",
    "session_fault_plan",
]


@dataclass(frozen=True)
class FailureModel:
    """Exponential fail/repair dynamics of one component.

    Parameters
    ----------
    mtbf:
        Mean time between failures (model time units).
    mttr:
        Mean time to repair; ``None`` = permanent failure (crash).
    """

    mtbf: float
    mttr: float | None = None

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if self.mttr is not None and self.mttr < 0:
            raise ValueError("mttr must be non-negative when given")

    @classmethod
    def exponential(cls, mtbf: float,
                    mttr: float | None = None) -> "FailureModel":
        """Memoryless fail/repair — the classical availability model."""
        return cls(mtbf=mtbf, mttr=mttr)

    @property
    def permanent(self) -> bool:
        """True when failures are never repaired."""
        return self.mttr is None

    def sample_ttf(self, rng) -> float:
        """Draw one time-to-failure."""
        return float(rng.exponential(self.mtbf))

    def sample_ttr(self, rng) -> float:
        """Draw one time-to-repair."""
        if self.mttr is None:
            raise RuntimeError("permanent failures are never repaired")
        return float(rng.exponential(self.mttr))


class FaultEvent:
    """The cause object delivered with an injected fault.

    Passed to the target's ``fail``; a
    :class:`~repro.streams.channel.Channel` forwards it as the
    :class:`~repro.des.events.Interrupt` cause of its relay process, so
    handlers can distinguish injected faults from other interrupts.
    """

    def __init__(self, injector: str, index: int, time: float,
                 permanent: bool = False):
        self.injector = injector
        self.index = index
        self.time = time
        self.permanent = permanent

    def __repr__(self) -> str:
        kind = "permanent" if self.permanent else "recoverable"
        return (f"FaultEvent({self.injector!r} #{self.index} "
                f"at t={self.time:g}, {kind})")


class FaultInjector:
    """A DES process breaking and repairing one target.

    Parameters
    ----------
    env:
        Simulation environment.
    target:
        Anything with ``fail(cause)`` and ``repair()``, such as a
        :class:`~repro.streams.channel.Channel`.
    model:
        Fail/repair dynamics.
    seed, name:
        Reproducible RNG stream identity; two injectors with distinct
        names draw independent streams from the same master seed.
    start_delay:
        Grace period before the first time-to-failure is sampled.

    Attributes
    ----------
    windows:
        ``(down_at, up_at)`` pairs per completed outage; ``up_at`` is
        ``None`` for a permanent failure.
    n_failures:
        Number of faults injected so far.
    """

    def __init__(
        self,
        env: "Environment",
        target,
        model: FailureModel,
        seed: int = 0,
        name: str = "fault",
        start_delay: float = 0.0,
    ):
        if start_delay < 0:
            raise ValueError("start_delay must be non-negative")
        self.env = env
        self.target = target
        self.model = model
        self.name = name
        self.start_delay = start_delay
        self.windows: list[tuple[float, float | None]] = []
        self.n_failures = 0
        self._rng = spawn_rng(seed, f"fault-injector:{name}")
        self.process = env.process(self._run())

    def _run(self):
        if self.start_delay:
            yield self.env.timeout(self.start_delay)
        while True:
            yield self.env.timeout(self.model.sample_ttf(self._rng))
            self.n_failures += 1
            down_at = self.env.now
            cause = FaultEvent(self.name, self.n_failures, down_at,
                               permanent=self.model.permanent)
            self.windows.append((down_at, None))
            self.target.fail(cause)
            if self.model.permanent:
                return
            ttr = self.model.sample_ttr(self._rng)
            if ttr > 0:
                yield self.env.timeout(ttr)
            self.windows[-1] = (down_at, self.env.now)
            self.target.repair()

    def __repr__(self) -> str:
        return (f"FaultInjector({self.name!r}, failures="
                f"{self.n_failures})")


def session_fault_plan(
    n_nodes: int,
    n_sessions: int,
    model: FailureModel,
    seed: int = 0,
) -> dict[int, list[tuple[int, str]]]:
    """Session-indexed fault schedule for discrete-round simulations.

    The MANET lifetime experiment advances in *sessions* rather than
    continuous time; this samples each node's fail/repair trajectory in
    session units and returns ``{session: [(node_id, "fail"|"repair"),
    ...]}`` to be applied at the top of each round.
    """
    if n_nodes < 1 or n_sessions < 1:
        raise ValueError("need at least one node and session")
    plan: dict[int, list[tuple[int, str]]] = {}
    for node in range(n_nodes):
        rng = spawn_rng(seed, f"session-faults:{node}")
        t = 0.0
        while True:
            t += model.sample_ttf(rng)
            session = int(math.ceil(t))
            if session > n_sessions:
                break
            plan.setdefault(session, []).append((node, "fail"))
            if model.permanent:
                break
            t += model.sample_ttr(rng)
            session = int(math.ceil(t))
            if session > n_sessions:
                break
            plan.setdefault(session, []).append((node, "repair"))
    return plan
