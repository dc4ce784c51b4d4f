"""Structured event tracing for the DES kernel and the models above it.

A :class:`Tracer` collects :class:`TraceEvent` records — kernel
``schedule``/``step`` events, ``process-start``/``process-end``
markers, and any model-level events emitted through
:meth:`Tracer.emit`.  From the flat event stream it derives:

* per-process **spans** (:meth:`Tracer.spans`) — one
  :class:`Span` per process lifetime;
* per-entity **timelines** (:meth:`Tracer.timeline`) — events grouped
  by name;
* **JSONL export/import** (:meth:`Tracer.to_jsonl` /
  :meth:`Tracer.from_jsonl`) for offline analysis.

Tracing never feeds back into the simulation: the tracer only appends
to a list, so enabling it cannot change any seeded result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Iterator

__all__ = ["TraceEvent", "Span", "Tracer"]


@dataclass(slots=True)
class TraceEvent:
    """One structured happening at a point in simulated time."""

    time: float
    kind: str
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "t": self.time, "kind": self.kind, "name": self.name,
        }
        if self.attrs:
            data["attrs"] = self.attrs
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceEvent":
        return cls(
            time=float(data["t"]),
            kind=str(data["kind"]),
            name=str(data["name"]),
            attrs=dict(data.get("attrs", {})),
        )


@dataclass(slots=True)
class Span:
    """A named interval of simulated time (e.g. a process lifetime)."""

    name: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        """True while the span has not ended (process still alive)."""
        return self.end is None

    @property
    def duration(self) -> float:
        """Span length; ``nan`` while still open."""
        if self.end is None:
            return float("nan")
        return self.end - self.start


class Tracer:
    """Append-only collector of structured simulation events.

    Parameters
    ----------
    max_events:
        Optional hard cap; once reached, further events are counted
        (:attr:`n_dropped`) but not stored, bounding memory on long
        runs.

    Attributes
    ----------
    wants_schedule:
        Public subclass knob.  The kernel consults it before every
        (hot, per-event) ``schedule`` emit; a tracer that overrides
        it to ``False`` — like the wall-clock profiler, which
        attributes at step granularity — never receives ``schedule``
        events, while ``step``/``process`` emits are unaffected.
    """

    wants_schedule = True

    def __init__(self, max_events: int | None = None):
        self.events: list[TraceEvent] = []
        self.max_events = max_events
        self.n_dropped = 0
        self._ids = count()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(self, time: float, kind: str, name: str,
             **attrs: Any) -> None:
        """Record one event at simulated ``time``."""
        if (self.max_events is not None
                and len(self.events) >= self.max_events):
            self.n_dropped += 1
            return
        self.events.append(TraceEvent(time, kind, name, attrs))

    def next_id(self) -> int:
        """A fresh id for correlating start/end event pairs."""
        return next(self._ids)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Number of recorded events per kind."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def timeline(self, kind: str | None = None
                 ) -> dict[str, list[TraceEvent]]:
        """Events grouped by ``name`` (optionally one ``kind`` only),
        each group in time order — the per-entity view of a run."""
        out: dict[str, list[TraceEvent]] = {}
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            out.setdefault(event.name, []).append(event)
        return out

    def spans(self, start_kind: str = "process-start",
              end_kind: str = "process-end") -> list[Span]:
        """Pair start/end events (by their ``id`` attribute) into
        :class:`Span` records; unmatched starts stay open."""
        open_spans: dict[Any, Span] = {}
        done: list[Span] = []
        for event in self.events:
            if event.kind == start_kind:
                span = Span(name=event.name, start=event.time,
                            attrs=dict(event.attrs))
                open_spans[event.attrs.get("id")] = span
            elif event.kind == end_kind:
                span = open_spans.pop(event.attrs.get("id"), None)
                if span is None:
                    span = Span(name=event.name, start=event.time)
                span.end = event.time
                span.attrs.update(event.attrs)
                done.append(span)
        done.extend(open_spans.values())
        return done

    def summary(self) -> dict[str, Any]:
        """Compact description of the trace (for reports and the CLI)."""
        times = [e.time for e in self.events]
        return {
            "n_events": len(self.events),
            "n_dropped": self.n_dropped,
            "by_kind": self.counts(),
            "t_first": min(times) if times else None,
            "t_last": max(times) if times else None,
        }

    # ------------------------------------------------------------------
    # JSONL round-trip
    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> int:
        """Write one JSON object per event; returns the event count."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event.to_dict(),
                                    sort_keys=True) + "\n")
        return len(self.events)

    def dumps(self) -> str:
        """The JSONL document as a string (for tests and piping)."""
        return "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in self.events
        )

    @classmethod
    def from_jsonl(cls, path) -> "Tracer":
        """Rebuild a tracer from a JSONL file written by
        :meth:`to_jsonl`."""
        tracer = cls()
        with open(path, "r", encoding="utf-8") as fh:
            tracer.events.extend(
                TraceEvent.from_dict(json.loads(line))
                for line in fh if line.strip()
            )
        return tracer

    def __repr__(self) -> str:
        return f"Tracer(n_events={len(self.events)})"
