"""Architecture modeling: processing elements, links and platforms.

Section 1 of the paper: "emerging design platforms consisting of hardware
and software resources that can be shared across multiple multimedia
applications ... consist of fixed processing resources (e.g. ASICs) and
programmable resources (e.g. general-purpose or DSP processors)".

A :class:`Platform` is a set of heterogeneous :class:`ProcessingElement`
objects connected by an interconnect (:class:`BusInterconnect` for the
classical shared bus, or the NoC from :mod:`repro.noc` for tile-based
designs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.power import DvfsModel

__all__ = [
    "PEKind",
    "ProcessingElement",
    "Interconnect",
    "BusInterconnect",
    "PointToPointInterconnect",
    "Platform",
    "interconnect_to_dict",
    "interconnect_from_dict",
]


class PEKind(Enum):
    """Micro-architectural options discussed in §3."""

    GPP = "gpp"       # general-purpose processor (MMX-style over-design)
    DSP = "dsp"
    ASIP = "asip"     # extensible processor (the paper's favourite)
    ASIC = "asic"     # fixed-function hardware


#: Typical relative performance-per-power of each option (§3): ASICs are
#: an order of magnitude better than GPPs; ASIPs sit close behind ASICs.
_DEFAULT_EFFICIENCY = {
    PEKind.GPP: 1.0,
    PEKind.DSP: 3.0,
    PEKind.ASIP: 6.0,
    PEKind.ASIC: 10.0,
}


@dataclass
class ProcessingElement:
    """A computation resource of the platform.

    Parameters
    ----------
    name:
        Unique identifier within the platform.
    kind:
        Micro-architectural class (affects power efficiency).
    frequency:
        Clock frequency in hertz (the reference point if DVFS-capable).
    active_power:
        Power when computing at ``frequency``, in watts.  If ``None``, a
        kind-dependent default is derived (GPP baseline 0.5 W scaled by
        the efficiency table).
    dvfs:
        Optional DVFS model; when present the evaluator and schedulers
        may scale this PE.
    """

    name: str
    kind: PEKind = PEKind.GPP
    frequency: float = 200e6
    active_power: float | None = None
    idle_power: float = 0.02
    dvfs: DvfsModel | None = None
    #: False while the PE is failed; schedulers and fault injectors
    #: toggle this through :meth:`fail` / :meth:`repair`.
    available: bool = True

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError(f"{self.name}: frequency must be positive")
        if self.idle_power < 0:
            raise ValueError(f"{self.name}: negative idle power")
        if self.active_power is None:
            self.active_power = 0.5 / _DEFAULT_EFFICIENCY[self.kind]
        if self.active_power < 0:
            raise ValueError(f"{self.name}: negative active power")

    def fail(self, cause=None) -> None:
        """Mark the PE unavailable (crashed or powered off by a fault)."""
        self.available = False

    def repair(self) -> None:
        """Bring the PE back into service."""
        self.available = True

    def execution_time(self, cycles: float) -> float:
        """Seconds to execute ``cycles`` at the nominal frequency."""
        if cycles < 0:
            raise ValueError("negative cycle count")
        return cycles / self.frequency

    def active_energy(self, cycles: float) -> float:
        """Joules consumed executing ``cycles`` at nominal frequency."""
        return self.active_power * self.execution_time(cycles)


class Interconnect:
    """Base class for platform interconnects."""

    def transfer_time(self, src: str, dst: str, bits: float) -> float:
        """Seconds to move ``bits`` from PE ``src`` to PE ``dst``."""
        raise NotImplementedError

    def transfer_energy(self, src: str, dst: str, bits: float) -> float:
        """Joules to move ``bits`` from PE ``src`` to PE ``dst``."""
        raise NotImplementedError

    def is_shared(self) -> bool:
        """True when transfers contend for a single medium (a bus)."""
        return False

    # ------------------------------------------------------------------
    # Link availability (fault injection)
    # ------------------------------------------------------------------
    def _down_set(self) -> set[tuple[str, str]]:
        if not hasattr(self, "_down_links"):
            self._down_links: set[tuple[str, str]] = set()
        return self._down_links

    def link_available(self, src: str, dst: str) -> bool:
        """True while the ``src``→``dst`` link (undirected) is in
        service.  Shared media (a bus) are down when *any* link is."""
        down = self._down_set()
        if self.is_shared():
            return not down
        return (src, dst) not in down and (dst, src) not in down

    def fail_link(self, src: str, dst: str) -> None:
        """Take the ``src``→``dst`` link out of service."""
        self._down_set().add((src, dst))

    def repair_link(self, src: str, dst: str) -> None:
        """Return the link to service (no-op if it was up)."""
        self._down_set().discard((src, dst))
        self._down_set().discard((dst, src))


@dataclass
class BusInterconnect(Interconnect):
    """A single shared bus — the architecture NoCs displace (§3.2).

    Parameters
    ----------
    bandwidth:
        Bus bandwidth in bits/s, shared by every transfer.
    energy_per_bit:
        Joules per transported bit.
    arbitration_latency:
        Fixed per-transfer arbitration overhead in seconds.
    """

    bandwidth: float = 1e9
    energy_per_bit: float = 5e-12
    arbitration_latency: float = 1e-7

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.energy_per_bit < 0 or self.arbitration_latency < 0:
            raise ValueError("energies and latencies must be non-negative")

    def transfer_time(self, src: str, dst: str, bits: float) -> float:
        if src == dst:
            return 0.0
        return self.arbitration_latency + bits / self.bandwidth

    def transfer_energy(self, src: str, dst: str, bits: float) -> float:
        if src == dst:
            return 0.0
        return bits * self.energy_per_bit

    def is_shared(self) -> bool:
        return True


@dataclass
class PointToPointInterconnect(Interconnect):
    """Dedicated full-mesh links (an idealized non-shared fabric)."""

    bandwidth: float = 1e9
    energy_per_bit: float = 2e-12

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.energy_per_bit < 0:
            raise ValueError("energy must be non-negative")

    def transfer_time(self, src: str, dst: str, bits: float) -> float:
        if src == dst:
            return 0.0
        return bits / self.bandwidth

    def transfer_energy(self, src: str, dst: str, bits: float) -> float:
        if src == dst:
            return 0.0
        return bits * self.energy_per_bit


# ----------------------------------------------------------------------
# Interconnect (de)serialization
# ----------------------------------------------------------------------
#: Interconnect kind tags used by the canonical dict form.
_INTERCONNECT_KINDS: dict[str, type] = {
    "bus": BusInterconnect,
    "p2p": PointToPointInterconnect,
}


def interconnect_to_dict(interconnect: Interconnect) -> dict:
    """Canonical ``{"kind": ..., "parameters": {...}}`` form.

    Only the built-in fabric classes serialize; custom interconnects
    (e.g. NoC adapters) raise ``TypeError`` — scenarios model them via
    their platform-level parameters instead.
    """
    if isinstance(interconnect, BusInterconnect):
        return {
            "kind": "bus",
            "parameters": {
                "bandwidth": interconnect.bandwidth,
                "energy_per_bit": interconnect.energy_per_bit,
                "arbitration_latency":
                    interconnect.arbitration_latency,
            },
        }
    if isinstance(interconnect, PointToPointInterconnect):
        return {
            "kind": "p2p",
            "parameters": {
                "bandwidth": interconnect.bandwidth,
                "energy_per_bit": interconnect.energy_per_bit,
            },
        }
    raise TypeError(
        f"cannot serialize interconnect of type "
        f"{type(interconnect).__name__}; known kinds: "
        f"{', '.join(sorted(_INTERCONNECT_KINDS))}"
    )


def interconnect_from_dict(data: dict | None) -> Interconnect:
    """Rebuild an interconnect from :func:`interconnect_to_dict`."""
    if data is None:
        return BusInterconnect()
    kind = data.get("kind", "bus")
    params = data.get("parameters", {})
    if kind == "bus":
        return BusInterconnect(
            bandwidth=float(params.get("bandwidth", 1e9)),
            energy_per_bit=float(params.get("energy_per_bit", 5e-12)),
            arbitration_latency=float(
                params.get("arbitration_latency", 1e-7)),
        )
    if kind == "p2p":
        return PointToPointInterconnect(
            bandwidth=float(params.get("bandwidth", 1e9)),
            energy_per_bit=float(params.get("energy_per_bit", 2e-12)),
        )
    raise ValueError(
        f"unknown interconnect kind {kind!r}; known kinds: "
        f"{', '.join(sorted(_INTERCONNECT_KINDS))}"
    )


class Platform:
    """A heterogeneous multiprocessor platform.

    Examples
    --------
    >>> platform = Platform("demo")
    >>> _ = platform.add_pe(ProcessingElement("cpu0", PEKind.GPP))
    >>> _ = platform.add_pe(ProcessingElement("dsp0", PEKind.DSP))
    >>> sorted(platform.pe_names())
    ['cpu0', 'dsp0']
    """

    def __init__(
        self,
        name: str = "platform",
        interconnect: Interconnect | None = None,
    ):
        self.name = name
        self.interconnect = interconnect or BusInterconnect()
        self._pes: dict[str, ProcessingElement] = {}

    def add_pe(self, pe: ProcessingElement) -> ProcessingElement:
        """Register a processing element; names must be unique."""
        if pe.name in self._pes:
            raise ValueError(f"duplicate PE {pe.name!r}")
        self._pes[pe.name] = pe
        return pe

    @property
    def pes(self) -> list[ProcessingElement]:
        """All processing elements, in insertion order."""
        return list(self._pes.values())

    def pe(self, name: str) -> ProcessingElement:
        """Look up a PE by name."""
        return self._pes[name]

    def pe_names(self) -> list[str]:
        """Names of all PEs."""
        return list(self._pes)

    def __contains__(self, name: str) -> bool:
        return name in self._pes

    def __len__(self) -> int:
        return len(self._pes)

    def total_idle_power(self) -> float:
        """Sum of PE idle powers — the platform's floor power draw."""
        return sum(pe.idle_power for pe in self._pes.values())

    # ------------------------------------------------------------------
    # Canonical (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form of the platform (``repro.scenario`` shape):
        PEs as nodes with a ``parameters`` object, plus the
        interconnect kind and its parameters."""
        return {
            "name": self.name,
            "interconnect": interconnect_to_dict(self.interconnect),
            "pes": [
                {
                    "id": pe.name,
                    "parameters": {
                        "kind": pe.kind.value,
                        "frequency": pe.frequency,
                        "active_power": pe.active_power,
                        "idle_power": pe.idle_power,
                        "available": pe.available,
                        "dvfs": (None if pe.dvfs is None
                                 else pe.dvfs.to_dict()),
                    },
                }
                for pe in self.pes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Platform":
        """Rebuild a platform from :meth:`to_dict` output.

        The canonical constructor behind :func:`repro.scenario.load`;
        unknown keys are tolerated, unknown interconnect kinds raise
        ``ValueError``.
        """
        platform = cls(
            str(data.get("name", "platform")),
            interconnect=interconnect_from_dict(
                data.get("interconnect")),
        )
        for entry in data.get("pes", []):
            params = entry.get("parameters", {})
            dvfs = params.get("dvfs")
            active = params.get("active_power")
            pe = ProcessingElement(
                name=str(entry["id"]),
                kind=PEKind(params.get("kind", PEKind.GPP.value)),
                frequency=float(params.get("frequency", 200e6)),
                active_power=None if active is None else float(active),
                idle_power=float(params.get("idle_power", 0.02)),
                dvfs=(None if dvfs is None
                      else DvfsModel.from_dict(dvfs)),
            )
            pe.available = bool(params.get("available", True))
            platform.add_pe(pe)
        return platform

    def __repr__(self) -> str:
        return (
            f"Platform({self.name!r}, pes={len(self._pes)}, "
            f"interconnect={type(self.interconnect).__name__})"
        )
