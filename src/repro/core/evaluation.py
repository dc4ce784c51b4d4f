"""Evaluate a mapped application: simulation and analytical back-ends.

"Having the application and the architecture models, the next step is to
map the application onto architecture and then evaluate the model using
either simulation or some analytical approach" (§2.1).

* :class:`SimulationEvaluator` executes the process network on the DES
  kernel: every PE is a FIFO resource, every channel a finite queue, and
  tokens flow from sources to sinks while monitors collect QoS and energy.
* :class:`AnalyticalEvaluator` produces fast queueing-theoretic estimates
  (M/M/1 waiting, M/M/1/K loss) of the same metrics — the "analytical
  tools that can quickly derive power/performance estimates" of §2.2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.application import ApplicationGraph, ProcessNode
from repro.core.architecture import Platform
from repro.core.mapping import Mapping
from repro.core.qos import QoSReport
from repro.des import Environment, FiniteQueue, Monitor, Resource
from repro.utils.rng import RandomStreams

__all__ = ["Token", "EvaluationResult", "SimulationEvaluator",
           "AnalyticalEvaluator"]


@dataclass
class Token:
    """One unit of media data flowing through the process network."""

    uid: int
    created: float
    source: str

    def merged_with(self, other: "Token") -> "Token":
        """Join semantics: the merged token is as old as the *latest*
        contributor (the one that gates progress)."""
        if other.created > self.created:
            return Token(self.uid, other.created, other.source)
        return self


@dataclass
class EvaluationResult:
    """Outcome of one evaluation: QoS report plus system metrics.

    Attributes
    ----------
    qos:
        End-to-end stream QoS (latency/jitter/loss/throughput).
    metrics:
        System metrics: ``average_power`` (W), ``energy`` (J),
        ``compute_energy``, ``comm_energy``, ``horizon`` (s) and
        per-PE utilizations under ``util:<pe>``.
    buffer_occupancy:
        Mean buffer occupancy per channel key ``"src->dst"`` — the
        "average length of these buffers" called out for Fig.1(b).
    """

    qos: QoSReport
    metrics: dict[str, float] = field(default_factory=dict)
    buffer_occupancy: dict[str, float] = field(default_factory=dict)

    def utilization(self, pe: str) -> float:
        """Utilization of PE ``pe`` (fraction of time busy)."""
        return self.metrics[f"util:{pe}"]


class SimulationEvaluator:
    """Discrete-event evaluation of an application mapped on a platform.

    Parameters
    ----------
    app:
        The application process network (must validate).
    platform:
        The target platform.
    mapping:
        Process-to-PE binding (must validate against both).
    seed:
        Master seed for all stochastic components.
    deterministic_sources:
        When true, sources emit strictly periodically; otherwise
        inter-arrival times are exponential with the source rate
        (heavier contention, the "average behaviour" regime of §2).
    token_deadline:
        Optional relative deadline (seconds) applied to every token for
        the deadline-miss-rate metric.
    """

    def __init__(
        self,
        app: ApplicationGraph,
        platform: Platform,
        mapping: Mapping,
        seed: int = 0,
        deterministic_sources: bool = True,
        token_deadline: float | None = None,
    ):
        app.validate()
        mapping.validate(app, platform)
        self.app = app
        self.platform = platform
        self.mapping = mapping
        self.seed = seed
        self.deterministic_sources = deterministic_sources
        self.token_deadline = token_deadline

    # ------------------------------------------------------------------
    def evaluate(self, horizon: float, warmup: float = 0.0
                 ) -> EvaluationResult:
        """Simulate for ``horizon`` seconds and report QoS and energy.

        Observations before ``warmup`` are discarded so steady-state
        metrics are not polluted by the empty-system transient.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0 <= warmup < horizon:
            raise ValueError("warmup must lie in [0, horizon)")

        env = Environment()
        streams = RandomStreams(self.seed)
        uid_counter = itertools.count()

        pe_resources = {
            pe.name: Resource(env, capacity=1) for pe in self.platform.pes
        }
        bus = Resource(env, capacity=1) if (
            self.platform.interconnect.is_shared()) else None
        channel_queues = {
            c.key: FiniteQueue(env, capacity=c.buffer_capacity)
            for c in self.app.channels
        }

        busy_time = {pe.name: 0.0 for pe in self.platform.pes}
        comm_energy_acc = [0.0]
        latencies: list[float] = []
        deadline_misses = [0]
        delivered = [0]
        sourced = [0]

        latency_monitor = Monitor(env, name="latency")

        def cycles_for(process: ProcessNode,
                       rng: np.random.Generator) -> float:
            if process.cycles_cv <= 0 or process.cycles_mean == 0:
                return process.cycles_mean
            # Lognormal with the requested mean and CV.
            cv2 = process.cycles_cv**2
            sigma = math.sqrt(math.log(1 + cv2))
            mu = math.log(process.cycles_mean) - sigma**2 / 2
            return float(rng.lognormal(mu, sigma))

        def compute(process: ProcessNode, token: Token):
            """Claim the mapped PE and burn the cycle demand."""
            pe_name = self.mapping.pe_of(process.name)
            pe = self.platform.pe(pe_name)
            rng = streams.get(f"cycles:{process.name}")
            demand = cycles_for(process, rng)
            if demand > 0:
                with pe_resources[pe_name].request() as req:
                    yield req
                    service = pe.execution_time(demand)
                    yield env.timeout(service)
                    if env.now > warmup:
                        busy_time[pe_name] += service

        def transmit(src: str, dst: str, bits: float, token: Token):
            """Move a token across the interconnect, then offer it."""
            src_pe = self.mapping.pe_of(src)
            dst_pe = self.mapping.pe_of(dst)
            delay = self.platform.interconnect.transfer_time(
                src_pe, dst_pe, bits
            )
            if delay > 0 and bus is not None:
                with bus.request() as req:
                    yield req
                    yield env.timeout(delay)
            elif delay > 0:
                yield env.timeout(delay)
            if env.now > warmup:
                comm_energy_acc[0] += (
                    self.platform.interconnect.transfer_energy(
                        src_pe, dst_pe, bits
                    )
                )
            # Finite buffer at the consumer: overflow means loss.
            channel_queues[(src, dst)].offer(token)

        def forward(process: ProcessNode, token: Token):
            for channel in self.app.out_channels(process.name):
                env.process(transmit(
                    channel.src, channel.dst,
                    channel.bits_per_token, token,
                ))

        def deliver(token: Token) -> None:
            latency = env.now - token.created
            if env.now > warmup:
                delivered[0] += 1
                latencies.append(latency)
                latency_monitor.observe(latency)
                if (self.token_deadline is not None
                        and latency > self.token_deadline):
                    deadline_misses[0] += 1

        def handle(process: ProcessNode, token: Token):
            """Per-token work: compute on the mapped PE, then forward."""
            yield from compute(process, token)
            if not self.app.successors(process.name):
                deliver(token)
            else:
                forward(process, token)

        def source_proc(process: ProcessNode):
            rng = streams.get(f"arrivals:{process.name}")
            period = 1.0 / process.rate_hz
            while True:
                if self.deterministic_sources:
                    yield env.timeout(period)
                else:
                    yield env.timeout(float(rng.exponential(period)))
                token = Token(next(uid_counter), env.now, process.name)
                if env.now > warmup:
                    sourced[0] += 1
                # Emission never throttles: an overloaded system shows up
                # as losses at finite buffers and growing latency, not as
                # a magically slower source.
                env.process(handle(process, token))

        def worker_proc(process: ProcessNode):
            in_queues = [
                channel_queues[c.key]
                for c in self.app.in_channels(process.name)
            ]
            while True:
                token: Token | None = None
                for queue in in_queues:  # join: one token from each input
                    incoming = yield queue.get()
                    token = (incoming if token is None
                             else token.merged_with(incoming))
                assert token is not None
                yield from handle(process, token)

        for process in self.app.processes:
            if process.rate_hz is not None:
                env.process(source_proc(process))
            elif self.app.predecessors(process.name):
                env.process(worker_proc(process))

        env.run(until=horizon)

        return self._collect(
            horizon, warmup, busy_time, comm_energy_acc[0],
            latencies, delivered[0], sourced[0], deadline_misses[0],
            channel_queues,
        )

    # ------------------------------------------------------------------
    def _collect(
        self, horizon, warmup, busy_time, comm_energy, latencies,
        delivered, sourced, misses, channel_queues,
    ) -> EvaluationResult:
        span = horizon - warmup
        qos = QoSReport()
        if latencies:
            arr = np.asarray(latencies)
            qos.mean_latency = float(arr.mean())
            qos.p99_latency = float(np.percentile(arr, 99))
            qos.jitter = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            qos.deadline_miss_rate = (
                misses / delivered if self.token_deadline is not None
                else math.nan
            )
        qos.throughput = delivered / span
        # Tokens still in flight at the horizon are neither lost nor
        # delivered; count only hard drops against sourced tokens.
        drops = sum(q.n_dropped for q in channel_queues.values())
        qos.loss_rate = drops / sourced if sourced else 0.0

        compute_energy = 0.0
        metrics: dict[str, float] = {}
        for pe in self.platform.pes:
            busy = busy_time[pe.name]
            util = busy / span
            metrics[f"util:{pe.name}"] = util
            compute_energy += (
                busy * pe.active_power + (span - busy) * pe.idle_power
            )
        energy = compute_energy + comm_energy
        metrics.update(
            average_power=energy / span,
            energy=energy,
            compute_energy=compute_energy,
            comm_energy=comm_energy,
            horizon=span,
            delivered=float(delivered),
            sourced=float(sourced),
        )
        occupancy = {
            f"{src}->{dst}": queue.occupancy.mean(at_time=horizon)
            for (src, dst), queue in channel_queues.items()
        }
        # Per-channel drop counts: which buffer loses tokens is the
        # first thing a designer asks when loss_rate is non-zero.
        for (src, dst), queue in channel_queues.items():
            metrics[f"drops:{src}->{dst}"] = float(queue.n_dropped)
        return EvaluationResult(qos=qos, metrics=metrics,
                                buffer_occupancy=occupancy)


class AnalyticalEvaluator:
    """Closed-form queueing estimates of the same metrics (§2.2).

    Each PE is approximated as an M/M/1 server whose load aggregates all
    processes mapped to it; channel buffers are approximated as M/M/1/K
    loss systems.  The estimates are coarse by design — their value is
    being orders of magnitude faster than simulation.  (Experiment E10
    measures that trade-off on the M/M/1/K queue and the Fig.1(a)
    stream model, not on this evaluator.)
    """

    def __init__(self, app: ApplicationGraph, platform: Platform,
                 mapping: Mapping):
        app.validate()
        mapping.validate(app, platform)
        self.app = app
        self.platform = platform
        self.mapping = mapping

    def pe_utilizations(self) -> dict[str, float]:
        """Offered load per PE (may exceed 1 for infeasible mappings)."""
        rates = self.app.activation_rates()
        utils = {pe.name: 0.0 for pe in self.platform.pes}
        for process in self.app.processes:
            pe = self.platform.pe(self.mapping.pe_of(process.name))
            utils[pe.name] += (
                rates[process.name] * process.cycles_mean / pe.frequency
            )
        return utils

    def evaluate(self) -> EvaluationResult:
        """Return analytical QoS and power estimates."""
        rates = self.app.activation_rates()
        utils = self.pe_utilizations()

        # End-to-end latency: longest path of per-process sojourn times.
        sojourn: dict[str, float] = {}
        for name in self.app.topological_order():
            process = self.app.process(name)
            pe = self.platform.pe(self.mapping.pe_of(name))
            service = process.cycles_mean / pe.frequency
            rho = min(utils[pe.name], 0.999)
            wait = (rho / (1 - rho)) * service if service > 0 else 0.0
            transfer = 0.0
            preds = self.app.predecessors(name)
            if preds:
                transfer = max(
                    self.platform.interconnect.transfer_time(
                        self.mapping.pe_of(p), self.mapping.pe_of(name),
                        self.app.channel(p, name).bits_per_token,
                    )
                    for p in preds
                )
            upstream = max((sojourn[p] for p in preds), default=0.0)
            sojourn[name] = upstream + transfer + service + wait

        # Loss: independent M/M/1/K blocking at each channel buffer.
        from repro.analysis.queueing import MM1K

        survival = 1.0
        for channel in self.app.channels:
            lam = rates[channel.src]
            consumer = self.app.process(channel.dst)
            pe = self.platform.pe(self.mapping.pe_of(channel.dst))
            mu = (pe.frequency / consumer.cycles_mean
                  if consumer.cycles_mean > 0 else math.inf)
            if lam <= 0 or math.isinf(mu):
                continue  # nothing arrives, or nothing ever waits
            survival *= 1.0 - MM1K(
                lam, mu, channel.buffer_capacity
            ).blocking_probability()
        loss_rate = 1.0 - survival

        sink_rate = sum(
            rates[s.name] for s in self.app.sinks()
        ) * survival

        qos = QoSReport(
            mean_latency=max(
                (sojourn[s.name] for s in self.app.sinks()), default=0.0
            ),
            loss_rate=loss_rate,
            throughput=sink_rate,
        )
        power = 0.0
        for pe in self.platform.pes:
            rho = min(utils[pe.name], 1.0)
            power += rho * pe.active_power + (1 - rho) * pe.idle_power
        comm_power = 0.0
        for src_pe, dst_pe, bits in self.mapping.remote_edges(self.app):
            comm_power += self.platform.interconnect.transfer_energy(
                src_pe, dst_pe, bits
            )  # per token; scaled below by the driving rate
        # Approximate per-second comm energy with the aggregate source rate.
        comm_power *= max(
            (rate for rate in rates.values()), default=0.0
        )
        metrics = {f"util:{pe}": u for pe, u in utils.items()}
        metrics["average_power"] = power + comm_power
        return EvaluationResult(qos=qos, metrics=metrics)
