"""Parallel replication of experiments across worker processes.

The engine fans one experiment over ``replicas`` independent seeds
onto ``workers`` OS processes and merges the results
deterministically — the merged payload is byte-identical (modulo
timing fields) whether run with 1 or 16 workers, in any completion
order.  Execution is supervised for fault tolerance: hung replicas
time out and requeue, crashed workers retry with backoff on the same
derived seed, completed replicas checkpoint to a journal a sweep can
``resume=`` from, and a :class:`FaultPlan` chaos harness proves the
merge survives all of it byte-identically.  See
:mod:`repro.parallel.engine` / :mod:`repro.parallel.supervisor` for
the contracts and ``docs/parallel.md`` for the design discussion.

    >>> from repro.parallel import run_replicated  # doctest: +SKIP
    >>> result = run_replicated("e14", replicas=8, workers=4,
    ...                         replica_timeout=60.0)  # doctest: +SKIP
"""

from repro.parallel.engine import (
    fork_seed,
    replica_seed,
    run_replicated,
)
from repro.parallel.live import (
    DEFAULT_TELEMETRY_INTERVAL,
    ReplicaView,
    SweepView,
    TelemetrySampler,
)
from repro.parallel.merge import ReplicaResult, merge_replicas, pool_kpis
from repro.parallel.supervisor import (
    FAULT_PLAN_ENV,
    CheckpointJournal,
    FaultPlan,
    InjectedFault,
    JournalMismatchError,
    ReplicaFailedError,
    ReplicaFailure,
    SupervisorPolicy,
    supervise,
)

__all__ = [
    "fork_seed",
    "replica_seed",
    "run_replicated",
    "ReplicaResult",
    "merge_replicas",
    "pool_kpis",
    "FAULT_PLAN_ENV",
    "CheckpointJournal",
    "FaultPlan",
    "InjectedFault",
    "JournalMismatchError",
    "ReplicaFailedError",
    "ReplicaFailure",
    "SupervisorPolicy",
    "supervise",
    "DEFAULT_TELEMETRY_INTERVAL",
    "ReplicaView",
    "SweepView",
    "TelemetrySampler",
]
