"""QoS-vs-fault-rate sweeps over the repository's experiments.

The paper's systems claim is *graceful degradation*: a well-designed
distributed multimedia system loses quality smoothly as parts fail,
instead of falling off a cliff (crashing, stalling, or collapsing to
zero service).  This harness makes that claim measurable.  Each
``*_qos`` scenario runs one existing experiment — the Fig.1(a) stream
pipeline, the E8 FGS streaming session, the E9 MANET lifetime
study — under injected faults at a given rate, twice: once with the
resilience mechanisms on (interrupt-aware channels, ARQ with backoff,
route repair) and once with the non-resilient baseline.
:func:`fault_rate_sweep` turns a scenario into a
:class:`DegradationCurve`, whose :meth:`~DegradationCurve.is_graceful`
check encodes "monotone-ish and cliff-free".

Every scenario is seeded end to end, so sweeps are bit-reproducible.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "QosPoint",
    "DegradationCurve",
    "fault_rate_sweep",
    "stream_pipeline_qos",
    "arq_streaming_qos",
    "manet_qos",
    "resilience_report",
    "format_report",
]


@dataclass(frozen=True)
class QosPoint:
    """One (fault rate, quality) sample of a degradation curve.

    ``qos`` is normalized service quality in ``[0, 1]`` — 1.0 is the
    fault-free service level, 0.0 is no service.  ``detail`` carries
    scenario-specific diagnostics (crash flags, drop counts, ...).
    """

    fault_rate: float
    qos: float
    detail: dict = field(default_factory=dict)


@dataclass
class DegradationCurve:
    """QoS as a function of fault rate, under one configuration."""

    label: str
    points: list[QosPoint] = field(default_factory=list)

    @property
    def fault_rates(self) -> list[float]:
        return [point.fault_rate for point in self.points]

    @property
    def qos_values(self) -> list[float]:
        return [point.qos for point in self.points]

    def is_monotone(self, tolerance: float = 0.05) -> bool:
        """True when QoS never *rises* by more than ``tolerance`` as the
        fault rate increases (sampling noise allowance)."""
        qos = self.qos_values
        return all(b <= a + tolerance for a, b in zip(qos, qos[1:]))

    def max_step_drop(self) -> float:
        """Largest QoS loss between adjacent fault rates."""
        qos = self.qos_values
        if len(qos) < 2:
            return 0.0
        return max(a - b for a, b in zip(qos, qos[1:]))

    def min_qos(self) -> float:
        """Worst quality anywhere on the curve."""
        return min(self.qos_values) if self.points else math.nan

    def is_graceful(self, cliff: float = 0.5,
                    tolerance: float = 0.05) -> bool:
        """The paper's criterion: QoS decays monotonically (within
        ``tolerance``) and no single fault-rate step loses more than
        ``cliff`` of full service."""
        return self.is_monotone(tolerance) and \
            self.max_step_drop() <= cliff


def fault_rate_sweep(
    scenario: Callable[[float], QosPoint],
    fault_rates: Iterable[float],
    label: str,
) -> DegradationCurve:
    """Evaluate ``scenario`` at each fault rate, collecting a curve."""
    rates = list(fault_rates)
    if any(rate < 0 for rate in rates):
        raise ValueError("fault rates must be non-negative")
    return DegradationCurve(
        label=label,
        points=[scenario(rate) for rate in rates],
    )


# ----------------------------------------------------------------------
# Scenario adapters: one per subsystem, resilient and baseline flavors.
# ----------------------------------------------------------------------

def stream_pipeline_qos(
    fault_rate: float,
    resilient: bool = True,
    horizon: float = 20.0,
    mttr: float = 0.5,
    seed: int = 0,
) -> QosPoint:
    """Fig.1(a) stream under channel faults at ``fault_rate`` per
    second.

    QoS is displayed frames over the fault-free expectation.  The
    baseline channel crashes at the first fault (the report records the
    crash); the resilient channel rides outages out, shedding buffered
    B-frames on recovery.
    """
    from repro.streams import Channel, MpegSource, Sink, StreamPipeline

    from repro.resilience.faults import FailureModel

    fps = 25.0
    source = MpegSource(fps=fps, i_frame_bits=100_000.0, seed=seed)
    channel = Channel(
        bandwidth=4e6, seed=seed,
        resilient=resilient, shed_enhancement=resilient,
    )
    pipeline = StreamPipeline(
        source=source,
        channel=channel,
        sink=Sink(display_rate_hz=fps),
    )
    faults = None
    if fault_rate > 0:
        faults = FailureModel.exponential(mtbf=1.0 / fault_rate,
                                          mttr=mttr)
    report = pipeline.run(horizon, faults=faults, fault_seed=seed)
    expected = fps * horizon
    qos = min(report.displayed / expected, 1.0)
    return QosPoint(fault_rate=fault_rate, qos=qos, detail={
        "displayed": report.displayed,
        "emitted": report.emitted,
        "crashed": report.crashed,
        "crash_time": report.crash_time,
        "n_faults": report.n_faults,
        "outages": report.channel.outages,
        "fault_drops": report.channel.fault_drops,
        "degraded_drops": report.channel.degraded_drops,
    })


def arq_streaming_qos(
    fault_rate: float,
    resilient: bool = True,
    n_frames: int = 400,
    rtt: float = 0.004,
    seed: int = 0,
) -> QosPoint:
    """E8 FGS streaming over a lossy link; ``fault_rate`` is the
    per-frame loss probability.

    QoS is mean PSNR relative to the same session over a perfect link.
    The resilient client retransmits under exponential backoff within
    each frame deadline; the baseline shows every loss as a skipped
    frame.
    """
    from repro.streaming import (
        ArqPolicy,
        FeedbackServer,
        LossyLink,
        run_session,
    )

    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError("fault_rate is a loss probability here")
    reference = run_session(FeedbackServer(), n_frames=n_frames,
                            seed=seed)
    link = LossyLink(p_loss=fault_rate, rtt=rtt, seed=seed)
    arq = ArqPolicy(max_retries=3, initial_timeout=rtt,
                    backoff_factor=2.0) if resilient else None
    report = run_session(FeedbackServer(), n_frames=n_frames,
                         seed=seed, link=link, arq=arq)
    qos = (report.mean_psnr / reference.mean_psnr
           if reference.mean_psnr > 0 else math.nan)
    return QosPoint(fault_rate=fault_rate, qos=min(qos, 1.0), detail={
        "mean_psnr": report.mean_psnr,
        "reference_psnr": reference.mean_psnr,
        "delivery_ratio": report.delivery_ratio,
        "retransmissions": report.retransmissions,
    })


def manet_qos(
    fault_rate: float,
    resilient: bool = True,
    n_nodes: int = 30,
    n_sessions: int = 2_000,
    mttr_sessions: float = 100.0,
    battery: float = 8.0,
    bits_per_session: float = 8_000.0,
    seed: int = 0,
) -> QosPoint:
    """E9 MANET sessions with nodes crashing at ``fault_rate`` per
    session.

    QoS is sessions delivered over sessions *requested* — a network
    that dies before the workload ends scores low, even if it delivered
    everything while it lasted.  The resilient network re-discovers
    routes around dead nodes; the baseline transmits over stale cached
    routes, burning energy into broken paths.
    """
    from repro.manet import random_network
    from repro.manet.lifetime import simulate_lifetime
    from repro.manet.routing import MinimumPowerRouting

    from repro.resilience.faults import FailureModel, session_fault_plan

    plan = None
    if fault_rate > 0:
        model = FailureModel.exponential(mtbf=1.0 / fault_rate,
                                         mttr=mttr_sessions)
        plan = session_fault_plan(n_nodes, n_sessions, model, seed=seed)
    network = random_network(n_nodes=n_nodes, seed=seed,
                             battery=battery)
    result = simulate_lifetime(
        MinimumPowerRouting(), network,
        n_sessions=n_sessions, bits_per_session=bits_per_session,
        seed=seed + 1, reroute_every=50, traffic_pairs=8,
        fault_plan=plan, route_repair=resilient,
        # Min-power routing never reads drain predictions; skip the
        # per-session EWMA maintenance.
        track_drain=False,
    )
    return QosPoint(fault_rate=fault_rate,
                    qos=result.delivered / n_sessions,
                    detail={
                        "delivery_ratio": result.delivery_ratio,
                        "delivered": result.delivered,
                        "failed": result.failed,
                        "stale_route_failures":
                            result.stale_route_failures,
                        "n_fault_events": result.n_fault_events,
                        "lifetime_sessions": result.lifetime_sessions,
                    })


# ----------------------------------------------------------------------
# The headline report
# ----------------------------------------------------------------------

_SCENARIOS: dict[str, Callable[..., QosPoint]] = {
    "stream": stream_pipeline_qos,
    "arq-streaming": arq_streaming_qos,
    "manet": manet_qos,
}

_DEFAULT_RATES: dict[str, tuple[float, ...]] = {
    "stream": (0.0, 0.05, 0.1, 0.2, 0.4),
    "arq-streaming": (0.0, 0.05, 0.1, 0.2, 0.4),
    "manet": (0.0, 0.001, 0.002, 0.005, 0.01),
}


def resilience_report(
    scenarios: Iterable[str] = ("arq-streaming", "manet"),
    fault_rates: dict[str, Iterable[float]] | None = None,
    seed: int = 0,
    **scenario_kwargs,
) -> dict[str, dict[str, DegradationCurve]]:
    """Resilient-vs-baseline degradation curves for chosen scenarios.

    Returns ``{scenario: {"resilient": curve, "baseline": curve}}``.
    Extra keyword arguments are forwarded to each scenario function
    that accepts them (useful to shrink ``horizon``/``n_frames``/
    ``n_sessions`` for smoke runs); a kwarg foreign to a scenario is
    simply not passed to it, so mixed-scenario reports can be tuned
    per scenario in one call.
    """
    rates = dict(_DEFAULT_RATES)
    if fault_rates:
        rates.update({k: tuple(v) for k, v in fault_rates.items()})
    report: dict[str, dict[str, DegradationCurve]] = {}
    for name in scenarios:
        if name not in _SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}; "
                             f"choose from {sorted(_SCENARIOS)}")
        scenario = _SCENARIOS[name]
        accepted = set(inspect.signature(scenario).parameters)
        kwargs = {key: value for key, value in scenario_kwargs.items()
                  if key in accepted}
        report[name] = {
            mode: fault_rate_sweep(
                lambda rate, _r=resilient: scenario(
                    rate, resilient=_r, seed=seed, **kwargs
                ),
                rates[name],
                label=f"{name}/{mode}",
            )
            for mode, resilient in (("resilient", True),
                                    ("baseline", False))
        }
    return report


def format_report(
    report: dict[str, dict[str, DegradationCurve]],
) -> str:
    """Render a report as aligned QoS-vs-fault-rate text tables."""
    lines: list[str] = []
    for name, curves in report.items():
        lines.append(f"== {name} ==")
        rates = curves["resilient"].fault_rates
        lines.append(f"{'fault rate':>12} {'resilient':>10} "
                     f"{'baseline':>10}")
        for i, rate in enumerate(rates):
            res = curves["resilient"].points[i].qos
            base = curves["baseline"].points[i].qos
            lines.append(f"{rate:>12.4g} {res:>10.3f} {base:>10.3f}")
        lines.append("")
    return "\n".join(lines)
