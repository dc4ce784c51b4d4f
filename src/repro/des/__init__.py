"""A compact discrete-event simulation kernel (SimPy-flavoured).

Everything in :mod:`repro` that needs time — stream pipelines, NoC routers,
streaming clients, MANET sessions — runs on this kernel.  Processes are
generators that yield :class:`Event` objects; the :class:`Environment`
advances a global clock and resumes them deterministically.

>>> from repro.des import Environment
>>> env = Environment()
>>> def hello(env, out):
...     yield env.timeout(3)
...     out.append(env.now)
>>> out = []
>>> _ = env.process(hello(env, out))
>>> env.run()
>>> out
[3.0]
"""

from repro.des.environment import (
    EmptySchedule,
    Environment,
    KernelCounters,
    kernel_counters,
    last_environment,
)
from repro.des.events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    NORMAL,
    PENDING,
    Process,
    Timeout,
    Traversal,
    URGENT,
)
from repro.des.monitor import LevelMonitor, Monitor
from repro.des.resources import (
    PriorityRequest,
    PriorityResource,
    Request,
    Resource,
)
from repro.des.stores import FiniteQueue, Store, StoreGet, StorePut

__all__ = [
    "Environment",
    "EmptySchedule",
    "KernelCounters",
    "kernel_counters",
    "last_environment",
    "Event",
    "Timeout",
    "Process",
    "Traversal",
    "Interrupt",
    "Condition",
    "AnyOf",
    "AllOf",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Resource",
    "Request",
    "PriorityResource",
    "PriorityRequest",
    "Store",
    "FiniteQueue",
    "StorePut",
    "StoreGet",
    "Monitor",
    "LevelMonitor",
]
