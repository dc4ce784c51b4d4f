"""Tandem queueing networks: where exact analysis explodes (§2.2).

"although timed extensions for most modern formalisms have been
proposed (e.g. Petri Nets, process algebras), they suffer from
excessive complexity and their application to solving real examples
remains problematic at best."

A pipeline of k finite buffers (the Fig.1(b) decoder shape) has an
exact CTMC with (K+1)^k states — tractable for toy instances, hopeless
for real ones.  :class:`TandemQueueModel` builds and solves that exact
chain; :func:`simulate_tandem` runs the same system on the DES kernel;
:func:`state_space_study` measures both as the pipeline deepens,
reproducing the scaling wall the paper describes.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass


from repro.analysis.ctmc import CTMC
from repro.des import Environment, FiniteQueue
from repro.utils.rng import spawn_rng

__all__ = ["TandemMetrics", "TandemQueueModel", "simulate_tandem",
           "state_space_study"]


@dataclass
class TandemMetrics:
    """Steady-state metrics of a tandem of finite queues."""

    throughput: float
    loss_rate: float
    mean_occupancies: list[float]
    n_states: int | None = None
    wall_seconds: float = 0.0


class TandemQueueModel:
    """Exact CTMC of an M/M/1/K tandem with loss at the first stage.

    Stage i has one exponential server (rate ``service_rates[i]``) and
    ``capacities[i]`` total slots.  Arrivals blocked at stage 0 are
    lost; a finished stage-i customer blocked by a full stage i+1
    *waits in place* (blocking-after-service), which is the behaviour
    of the DES pipeline with back-pressure.

    State: tuple of per-stage customer counts.
    """

    def __init__(self, arrival_rate: float,
                 service_rates: list[float],
                 capacities: list[int]):
        if arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if len(service_rates) != len(capacities) or not service_rates:
            raise ValueError("need matching non-empty stage lists")
        if any(rate <= 0 for rate in service_rates):
            raise ValueError("service rates must be positive")
        if any(capacity < 1 for capacity in capacities):
            raise ValueError("capacities must be >= 1")
        self.arrival_rate = arrival_rate
        self.service_rates = list(service_rates)
        self.capacities = list(capacities)
        self.k = len(service_rates)
        self._states = list(itertools.product(
            *[range(c + 1) for c in self.capacities]
        ))
        self._index = {s: i for i, s in enumerate(self._states)}

    @property
    def n_states(self) -> int:
        """Size of the exact state space: prod(K_i + 1)."""
        return len(self._states)

    def _rates(self) -> dict[tuple[int, int], float]:
        """The chain's transitions as ``{(i, j): rate}``."""
        rates: dict[tuple[int, int], float] = {}
        for state in self._states:
            i = self._index[state]
            # Arrival into stage 0 (lost when full).
            if state[0] < self.capacities[0]:
                target = (state[0] + 1,) + state[1:]
                rates[(i, self._index[target])] = self.arrival_rate
            # Service completions: stage j -> j+1 (or departure).
            for j in range(self.k):
                if state[j] == 0:
                    continue
                if j < self.k - 1 and state[j + 1] >= \
                        self.capacities[j + 1]:
                    continue  # blocked after service: wait in place
                moved = list(state)
                moved[j] -= 1
                if j < self.k - 1:
                    moved[j + 1] += 1
                rates[(i, self._index[tuple(moved)])] = \
                    self.service_rates[j]
        return rates

    def solve(self) -> TandemMetrics:
        """Build and solve the exact chain; returns the metrics."""
        start = time.perf_counter()
        chain = CTMC.from_rates(self._rates(), self.n_states)
        pi = chain.steady_state()
        elapsed = time.perf_counter() - start

        p_block = sum(
            p for state, p in zip(self._states, pi)
            if state[0] == self.capacities[0]
        )
        throughput = self.arrival_rate * (1.0 - p_block)
        occupancies = [
            float(sum(state[j] * p
                      for state, p in zip(self._states, pi)))
            for j in range(self.k)
        ]
        return TandemMetrics(
            throughput=throughput,
            loss_rate=p_block,
            mean_occupancies=occupancies,
            n_states=self.n_states,
            wall_seconds=elapsed,
        )


def simulate_tandem(
    arrival_rate: float,
    service_rates: list[float],
    capacities: list[int],
    horizon: float = 2_000.0,
    warmup: float = 100.0,
    seed: int = 0,
) -> TandemMetrics:
    """The same tandem on the DES kernel (cost grows ~linearly in k)."""
    if len(service_rates) != len(capacities) or not service_rates:
        raise ValueError("need matching non-empty stage lists")
    start = time.perf_counter()
    env = Environment()
    queues = [FiniteQueue(env, capacity=c) for c in capacities]
    arrivals_rng = spawn_rng(seed, "tandem:arrivals")
    served = [0]
    offered = [0]

    def arrivals():
        while True:
            yield env.timeout(float(
                arrivals_rng.exponential(1.0 / arrival_rate)
            ))
            if env.now > warmup:
                offered[0] += 1
                if not queues[0].offer(env.now):
                    pass  # lost
            else:
                queues[0].offer(env.now)

    def server(stage: int):
        rng = spawn_rng(seed, f"tandem:server{stage}")
        rate = service_rates[stage]
        while True:
            item = yield queues[stage].get()
            yield env.timeout(float(rng.exponential(1.0 / rate)))
            if stage < len(queues) - 1:
                # Back-pressure: block until downstream has room.
                yield queues[stage + 1].put(item)
            elif env.now > warmup:
                served[0] += 1

    env.process(arrivals())
    for stage in range(len(queues)):
        env.process(server(stage))
    env.run(until=horizon)

    span = horizon - warmup
    lost = queues[0].n_dropped  # includes warmup drops; approximate
    loss_rate = (
        1.0 - served[0] / offered[0] if offered[0] else math.nan
    )
    occupancies = [
        q.occupancy.mean(at_time=horizon) for q in queues
    ]
    return TandemMetrics(
        throughput=served[0] / span,
        loss_rate=max(loss_rate, 0.0),
        mean_occupancies=occupancies,
        n_states=None,
        wall_seconds=time.perf_counter() - start,
    )


def state_space_study(
    max_stages: int = 5,
    capacity: int = 4,
    arrival_rate: float = 8.0,
    service_rate: float = 10.0,
    seed: int = 0,
) -> list[dict]:
    """Exact-analysis cost vs pipeline depth (the §2.2 scaling wall).

    Returns one row per depth: state count, analysis seconds, DES
    seconds, and the throughput both methods report.  ``seed`` drives
    the simulations; the exact rows do not depend on it.
    """
    if max_stages < 1:
        raise ValueError("max_stages must be >= 1")
    rows = []
    for k in range(1, max_stages + 1):
        # DES stage capacity counts the waiting room only; its server
        # holds one more customer.  The exact chain counts everything,
        # so it gets capacity+1 per stage for a like-for-like system.
        model = TandemQueueModel(
            arrival_rate, [service_rate] * k, [capacity + 1] * k
        )
        exact = model.solve()
        sim = simulate_tandem(
            arrival_rate, [service_rate] * k, [capacity] * k,
            horizon=500.0, warmup=50.0, seed=seed,
        )
        rows.append({
            "stages": k,
            "states": model.n_states,
            "exact_seconds": exact.wall_seconds,
            "sim_seconds": sim.wall_seconds,
            "exact_throughput": exact.throughput,
            "sim_throughput": sim.throughput,
        })
    return rows
