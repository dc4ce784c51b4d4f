"""Application modeling: process graphs and task graphs.

Section 2.1 of the paper: "a natural choice is to use process graphs where
each node corresponds to a process in the multimedia application, while
each edge represents a communication channel (link) ... through dedicated
buffers that behave like finite-length queues."

Two application abstractions are provided:

* :class:`ApplicationGraph` — a streaming process network (sources push
  tokens through bounded channels into transformers and sinks).  This is
  the model the simulation evaluator executes and the shape of Fig.1(b).
* :class:`TaskGraph` — a DAG of tasks with execution demands, data volumes
  and (soft) deadlines, as used for NoC mapping and scheduling (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from repro.utils import _graphs

__all__ = [
    "MediaType",
    "ProcessNode",
    "ChannelSpec",
    "ApplicationGraph",
    "Task",
    "Dependency",
    "TaskGraph",
]


class MediaType(Enum):
    """Media classes from §1: 'all forms of communication'."""

    TEXT = "text"
    GRAPHICS = "graphics"
    AUDIO = "audio"
    VIDEO = "video"
    CONTROL = "control"


@dataclass
class ProcessNode:
    """A process in a multimedia process network.

    Parameters
    ----------
    name:
        Unique identifier within the graph.
    cycles_mean:
        Mean computation demand per activation, in processor cycles.
        Multimedia demands show "large statistical variation" (§2), so the
        evaluator draws per-activation demands from a lognormal with this
        mean and coefficient of variation ``cycles_cv``.
    cycles_cv:
        Coefficient of variation of the per-activation cycle demand;
        0 gives deterministic demands.
    media:
        Media class of the data the process handles (drives QoS defaults).
    rate_hz:
        For source processes only: activation rate (tokens per second).
        ``None`` for non-source processes, which activate on input tokens.
    """

    name: str
    cycles_mean: float
    cycles_cv: float = 0.0
    media: MediaType = MediaType.VIDEO
    rate_hz: float | None = None

    def __post_init__(self) -> None:
        if self.cycles_mean < 0:
            raise ValueError(f"{self.name}: negative cycle demand")
        if self.cycles_cv < 0:
            raise ValueError(f"{self.name}: negative cycle CV")
        if self.rate_hz is not None and self.rate_hz <= 0:
            raise ValueError(f"{self.name}: rate must be positive")


@dataclass
class ChannelSpec:
    """A bounded FIFO channel between two processes (one graph edge).

    Parameters
    ----------
    src, dst:
        Names of the producer and consumer processes.
    bits_per_token:
        Size of one data token on this channel, in bits.
    buffer_capacity:
        Maximum number of buffered tokens ("finite-length queues", §2.1).
    """

    src: str
    dst: str
    bits_per_token: float = 8_000.0
    buffer_capacity: int = 8

    def __post_init__(self) -> None:
        if self.bits_per_token <= 0:
            raise ValueError("bits_per_token must be positive")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")

    @property
    def key(self) -> tuple[str, str]:
        """(src, dst) pair identifying the channel."""
        return (self.src, self.dst)


class _Digraph:
    """The edges of a process or task graph: one insertion-ordered
    successor map, ``_graph[src][dst]`` holding the edge's spec, and
    its mirror ``_pred[dst][src]``."""

    def __init__(self) -> None:
        self._graph: dict[str, dict[str, object]] = {}
        self._pred: dict[str, dict[str, object]] = {}

    def _add_node(self, name: str) -> None:
        self._graph[name] = {}
        self._pred[name] = {}

    def _add_edge(self, src: str, dst: str, spec: object) -> None:
        self._graph[src][dst] = spec
        self._pred[dst][src] = spec

    def predecessors(self, name: str) -> list[str]:
        """Names of the direct predecessors of ``name``."""
        return list(self._pred[name])

    def successors(self, name: str) -> list[str]:
        """Names of the direct successors of ``name``."""
        return list(self._graph[name])

    def descendants(self, name: str) -> set[str]:
        """Names of every node reachable from ``name``."""
        return _graphs.descendants(self._graph, name)

    def topological_order(self) -> list[str]:
        """Node names in lexicographic topological order (among the
        nodes whose predecessors are all listed, the smallest name
        comes first); ``ValueError`` when the graph has a cycle."""
        return _graphs.topological_order(self._graph)

    def fragment_count(self) -> int:
        """Number of weakly connected components."""
        return len(_graphs.components(self._graph))

    def _critical_path(self, cycles: Callable[[str], float]) -> float:
        """Largest sum of ``cycles`` along any path."""
        longest: dict[str, float] = {}
        for name in self.topological_order():
            incoming = [longest[p] for p in self._pred[name]]
            longest[name] = cycles(name) + (
                max(incoming) if incoming else 0.0
            )
        return max(longest.values(), default=0.0)


class ApplicationGraph(_Digraph):
    """A multimedia application as a process network.

    Examples
    --------
    >>> app = ApplicationGraph("pipeline")
    >>> _ = app.add_process(ProcessNode("cam", 0.0, rate_hz=30.0))
    >>> _ = app.add_process(ProcessNode("enc", 50_000.0))
    >>> _ = app.add_channel(ChannelSpec("cam", "enc"))
    >>> [p.name for p in app.sources()]
    ['cam']
    >>> [p.name for p in app.sinks()]
    ['enc']
    """

    def __init__(self, name: str = "app"):
        super().__init__()
        self.name = name
        self._processes: dict[str, ProcessNode] = {}
        self._channels: dict[tuple[str, str], ChannelSpec] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_process(self, process: ProcessNode) -> ProcessNode:
        """Register a process; names must be unique."""
        if process.name in self._processes:
            raise ValueError(f"duplicate process {process.name!r}")
        self._processes[process.name] = process
        self._add_node(process.name)
        return process

    def add_channel(self, channel: ChannelSpec) -> ChannelSpec:
        """Register a channel; both endpoints must exist."""
        for endpoint in (channel.src, channel.dst):
            if endpoint not in self._processes:
                raise ValueError(f"unknown process {endpoint!r}")
        if channel.key in self._channels:
            raise ValueError(f"duplicate channel {channel.key}")
        if channel.src == channel.dst:
            raise ValueError("self-loop channels are not allowed")
        self._channels[channel.key] = channel
        self._add_edge(channel.src, channel.dst, channel)
        return channel

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def processes(self) -> list[ProcessNode]:
        """All processes, in insertion order."""
        return list(self._processes.values())

    @property
    def channels(self) -> list[ChannelSpec]:
        """All channels, in insertion order."""
        return list(self._channels.values())

    def process(self, name: str) -> ProcessNode:
        """Look up a process by name."""
        return self._processes[name]

    def channel(self, src: str, dst: str) -> ChannelSpec:
        """Look up a channel by its endpoints."""
        return self._channels[(src, dst)]

    def __contains__(self, name: str) -> bool:
        return name in self._processes

    def __len__(self) -> int:
        return len(self._processes)

    def sources(self) -> list[ProcessNode]:
        """Processes with no incoming channels."""
        return [p for n, p in self._processes.items() if not self._pred[n]]

    def sinks(self) -> list[ProcessNode]:
        """Processes with no outgoing channels."""
        return [p for n, p in self._processes.items() if not self._graph[n]]

    def in_channels(self, name: str) -> list[ChannelSpec]:
        """Channels into process ``name``."""
        return list(self._pred[name].values())

    def out_channels(self, name: str) -> list[ChannelSpec]:
        """Channels out of process ``name``."""
        return list(self._graph[name].values())

    def find_cycle(self) -> list[str]:
        """Processes around the first channel cycle a depth-first
        search in insertion order meets (``[]`` when acyclic): each
        feeds the next, and the last feeds the first."""
        return _graphs.find_cycle(self._graph)

    def is_acyclic(self) -> bool:
        """True when the process network has no feedback loops."""
        return not self.find_cycle()

    def activation_rates(self) -> dict[str, float]:
        """Steady-state activation rate of each process (tokens/s).

        Sources activate at their own rate; every other process activates
        at the maximum of its predecessors' rates (join consumes one token
        per input per activation).  ``ValueError`` on a cyclic graph.
        """
        rates: dict[str, float] = {}
        for name in self.topological_order():
            process = self._processes[name]
            preds = self._pred[name]
            if process.rate_hz is not None:
                rates[name] = process.rate_hz
            elif preds:
                rates[name] = max(rates[p] for p in preds)
            else:
                rates[name] = 0.0
        return rates

    def critical_path_cycles(self) -> float:
        """Largest mean cycle demand along any channel path (a join
        waits for all its inputs).  ``ValueError`` on a cyclic graph.
        """
        return self._critical_path(
            lambda name: self._processes[name].cycles_mean)

    # ------------------------------------------------------------------
    # Aggregate demands
    # ------------------------------------------------------------------
    def source_rate(self) -> float:
        """Aggregate activation rate of all sources (tokens/s)."""
        return sum(p.rate_hz or 0.0 for p in self.sources())

    def total_compute_demand(self) -> float:
        """Cycles per second demanded if every token visits every process.

        Upper-bound estimate used by quick feasibility screens: each
        source token is assumed to trigger one activation of every
        downstream process on every path.
        """
        demand = 0.0
        for source in self.sources():
            if source.rate_hz is None:
                continue
            reachable = self.descendants(source.name)
            reachable.add(source.name)
            demand += source.rate_hz * sum(
                p.cycles_mean for n, p in self._processes.items()
                if n in reachable
            )
        return demand

    def validate(self) -> None:
        """Raise ``ValueError`` on structural problems.

        Checks: every source has a rate, the graph is weakly connected
        (a disconnected fragment is almost always a modeling mistake) and
        no process is isolated.
        """
        if not self._processes:
            raise ValueError("application has no processes")
        for source in self.sources():
            if source.rate_hz is None and self._graph[source.name]:
                raise ValueError(
                    f"source process {source.name!r} has no rate"
                )
        if len(self._processes) > 1 and self.fragment_count() > 1:
            raise ValueError("application graph is not connected")

    # ------------------------------------------------------------------
    # Canonical (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form of the graph (``repro.scenario`` node/edge
        shape): processes become nodes, channels become edges, each
        with a ``parameters`` object.  Insertion order is preserved."""
        return {
            "name": self.name,
            "nodes": [
                {
                    "id": p.name,
                    "parameters": {
                        "cycles_mean": p.cycles_mean,
                        "cycles_cv": p.cycles_cv,
                        "media": p.media.value,
                        "rate_hz": p.rate_hz,
                    },
                }
                for p in self.processes
            ],
            "edges": [
                {
                    "src": c.src,
                    "dst": c.dst,
                    "parameters": {
                        "bits_per_token": c.bits_per_token,
                        "buffer_capacity": c.buffer_capacity,
                    },
                }
                for c in self.channels
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ApplicationGraph":
        """Rebuild a graph from :meth:`to_dict` output.

        This is the canonical constructor behind
        :func:`repro.scenario.load`; it tolerates unknown keys (forward
        compatibility) and re-raises structural problems as
        ``ValueError`` with the offending element named.
        """
        app = cls(str(data.get("name", "app")))
        for node in data.get("nodes", []):
            params = node.get("parameters", {})
            media = params.get("media", MediaType.VIDEO.value)
            app.add_process(ProcessNode(
                name=str(node["id"]),
                cycles_mean=float(params.get("cycles_mean", 0.0)),
                cycles_cv=float(params.get("cycles_cv", 0.0)),
                media=MediaType(media),
                rate_hz=(None if params.get("rate_hz") is None
                         else float(params["rate_hz"])),
            ))
        for edge in data.get("edges", []):
            params = edge.get("parameters", {})
            app.add_channel(ChannelSpec(
                src=str(edge["src"]),
                dst=str(edge["dst"]),
                bits_per_token=float(
                    params.get("bits_per_token", 8_000.0)),
                buffer_capacity=int(params.get("buffer_capacity", 8)),
            ))
        return app

    def __repr__(self) -> str:
        return (
            f"ApplicationGraph({self.name!r}, processes="
            f"{len(self._processes)}, channels={len(self._channels)})"
        )


@dataclass
class Task:
    """A schedulable unit of computation in a :class:`TaskGraph`.

    Parameters
    ----------
    name:
        Unique identifier.
    cycles:
        Execution demand in cycles at the reference frequency.
    deadline:
        Absolute soft deadline in seconds from graph start, or ``None``.
    """

    name: str
    cycles: float
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"{self.name}: negative cycles")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"{self.name}: deadline must be positive")


@dataclass
class Dependency:
    """A data dependency between two tasks carrying ``bits`` of data."""

    src: str
    dst: str
    bits: float = 0.0

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("negative data volume")


class TaskGraph(_Digraph):
    """A DAG of tasks with data volumes and soft deadlines (§3.3).

    Used by the NoC mapping and scheduling experiments: nodes carry
    computation demands, edges carry communication volumes, and the graph
    has a period (it re-executes once per iteration, e.g. per frame).
    """

    def __init__(self, name: str = "taskgraph", period: float | None = None):
        super().__init__()
        self.name = name
        self.period = period
        self._tasks: dict[str, Task] = {}
        self._deps: dict[tuple[str, str], Dependency] = {}

    def add_task(self, task: Task) -> Task:
        """Register a task; names must be unique."""
        if task.name in self._tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        self._tasks[task.name] = task
        self._add_node(task.name)
        return task

    def add_dependency(self, dep: Dependency) -> Dependency:
        """Register a dependency; must keep the graph acyclic."""
        for endpoint in (dep.src, dep.dst):
            if endpoint not in self._tasks:
                raise ValueError(f"unknown task {endpoint!r}")
        if dep.src == dep.dst or dep.src in self.descendants(dep.dst):
            raise ValueError(
                f"dependency {dep.src}->{dep.dst} creates a cycle"
            )
        self._deps[(dep.src, dep.dst)] = dep
        self._add_edge(dep.src, dep.dst, dep)
        return dep

    @property
    def tasks(self) -> list[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    @property
    def dependencies(self) -> list[Dependency]:
        """All dependencies, in insertion order."""
        return list(self._deps.values())

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        return self._tasks[name]

    def dependency(self, src: str, dst: str) -> Dependency:
        """Look up a dependency by endpoints."""
        return self._deps[(src, dst)]

    def __len__(self) -> int:
        return len(self._tasks)

    def entry_tasks(self) -> list[Task]:
        """Tasks with no predecessors."""
        return [t for n, t in self._tasks.items() if not self._pred[n]]

    def exit_tasks(self) -> list[Task]:
        """Tasks with no successors."""
        return [t for n, t in self._tasks.items() if not self._graph[n]]

    def total_cycles(self) -> float:
        """Sum of all task demands."""
        return sum(t.cycles for t in self._tasks.values())

    def total_bits(self) -> float:
        """Sum of all communication volumes."""
        return sum(d.bits for d in self._deps.values())

    def critical_path_cycles(self) -> float:
        """Largest cycle demand along any dependency path.

        A lower bound on makespan (in cycles) on any number of processors
        when communication is free.
        """
        return self._critical_path(lambda name: self._tasks[name].cycles)

    def communication_pairs(self) -> Iterable[tuple[str, str, float]]:
        """Yield ``(src, dst, bits)`` for every dependency with data."""
        for (src, dst), dep in self._deps.items():
            if dep.bits > 0:
                yield src, dst, dep.bits

    # ------------------------------------------------------------------
    # Canonical (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form of the DAG (``repro.scenario`` node/edge
        shape); insertion order is preserved."""
        return {
            "name": self.name,
            "period": self.period,
            "nodes": [
                {
                    "id": t.name,
                    "parameters": {
                        "cycles": t.cycles,
                        "deadline": t.deadline,
                    },
                }
                for t in self.tasks
            ],
            "edges": [
                {
                    "src": d.src,
                    "dst": d.dst,
                    "parameters": {"bits": d.bits},
                }
                for d in self.dependencies
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskGraph":
        """Rebuild a task graph from :meth:`to_dict` output."""
        period = data.get("period")
        tg = cls(str(data.get("name", "taskgraph")),
                 period=None if period is None else float(period))
        for node in data.get("nodes", []):
            params = node.get("parameters", {})
            deadline = params.get("deadline")
            tg.add_task(Task(
                name=str(node["id"]),
                cycles=float(params.get("cycles", 0.0)),
                deadline=None if deadline is None else float(deadline),
            ))
        for edge in data.get("edges", []):
            params = edge.get("parameters", {})
            tg.add_dependency(Dependency(
                src=str(edge["src"]),
                dst=str(edge["dst"]),
                bits=float(params.get("bits", 0.0)),
            ))
        return tg

    def __repr__(self) -> str:
        return (
            f"TaskGraph({self.name!r}, tasks={len(self._tasks)}, "
            f"deps={len(self._deps)}, period={self.period})"
        )
