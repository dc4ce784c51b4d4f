"""In-simulation fault injection and graceful-degradation sweeps (§5).

The paper's ambient-multimedia thesis is that distributed multimedia
systems must "operate with limited resources and failing parts".  This
package makes failure a first-class *simulation event* rather than an
offline trace:

* :mod:`repro.resilience.faults` — the :class:`FailureModel`
  fail/repair law, the :class:`FaultInjector` process that breaks and
  repairs a live stream channel on a sampled schedule, and the
  session-indexed fault plan of the MANET lifetime study;
* :mod:`repro.resilience.harness` — QoS-vs-fault-rate sweeps over the
  existing experiments, quantifying *graceful degradation* (the paper's
  redundancy/adaptation claim) against crash-or-stall baselines.
"""

from repro.resilience.faults import (
    FailureModel,
    FaultEvent,
    FaultInjector,
    session_fault_plan,
)
from repro.resilience.harness import (
    DegradationCurve,
    QosPoint,
    arq_streaming_qos,
    fault_rate_sweep,
    format_report,
    manet_qos,
    resilience_report,
    stream_pipeline_qos,
)

__all__ = [
    # faults
    "FailureModel",
    "FaultEvent",
    "FaultInjector",
    "session_fault_plan",
    # harness
    "QosPoint",
    "DegradationCurve",
    "fault_rate_sweep",
    "stream_pipeline_qos",
    "arq_streaming_qos",
    "manet_qos",
    "resilience_report",
    "format_report",
]
