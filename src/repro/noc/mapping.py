"""Energy-aware mapping of task graphs onto NoC tiles (E3, after [20]).

"a recently proposed algorithm for energy-aware mapping of the IPs onto
regular NoC architectures shows that more than 50% energy savings are
possible, for a complex video/audio application, compared to an ad-hoc
implementation" (§3.3).

The objective is the total communication energy per graph iteration

    E = Σ_edges  bits(e) · E_bit(hops(map(src), map(dst)))

with one task per tile.  Implemented optimizers:

* :func:`adhoc_mapping` — tasks in declaration order, tiles row-major
  (the "ad-hoc implementation" baseline of the claim);
* :func:`random_noc_mapping` — uniform random permutation;
* :func:`greedy_mapping` — cluster growth on communication affinity;
* :func:`simulated_annealing_mapping` — swap-neighbourhood SA;
* :func:`branch_and_bound_mapping` — exact optimum for small instances
  (validates the heuristics).
"""

from __future__ import annotations

import math
from typing import Mapping as TMapping

from repro.core.application import TaskGraph
from repro.noc.energy import NocEnergyModel
from repro.noc.topology import Mesh2D, Tile
from repro.utils.rng import RawDraws, spawn_rng

__all__ = [
    "NocMapping",
    "TileCompatibility",
    "adhoc_mapping",
    "random_noc_mapping",
    "greedy_mapping",
    "simulated_annealing_mapping",
    "branch_and_bound_mapping",
]


class TileCompatibility:
    """Heterogeneity constraints: which tiles can host which tasks.

    §3.2: "each tile can be a general-purpose processor, a DSP, a
    memory subsystem, etc." — an application-specific task can only map
    onto a tile of the right kind.  Unlisted tasks may go anywhere.

    Examples
    --------
    >>> compat = TileCompatibility({"dsp_task": {Tile(0, 0), Tile(1, 0)}})
    >>> compat.allows("dsp_task", Tile(0, 0))
    True
    >>> compat.allows("dsp_task", Tile(3, 3))
    False
    >>> compat.allows("anything_else", Tile(3, 3))
    True
    """

    def __init__(self, allowed: TMapping[str, set[Tile]] | None = None):
        self._allowed = {
            task: set(tiles) for task, tiles in (allowed or {}).items()
        }
        for task, tiles in self._allowed.items():
            if not tiles:
                raise ValueError(f"{task!r} has an empty tile set")

    def allows(self, task: str, tile: Tile) -> bool:
        """True when ``task`` may run on ``tile``."""
        tiles = self._allowed.get(task)
        return tiles is None or tile in tiles

    def allowed_tiles(self, task: str, universe) -> list[Tile]:
        """Tiles of ``universe`` usable by ``task``."""
        return [tile for tile in universe if self.allows(task, tile)]

    def check(self, mapping: "NocMapping") -> None:
        """Raise ``ValueError`` when the mapping violates a constraint."""
        for task, tile in mapping.assignment.items():
            if not self.allows(task, tile):
                raise ValueError(
                    f"task {task!r} mapped to incompatible tile {tile}"
                )


class NocMapping:
    """An assignment of tasks to mesh tiles (injective).

    Examples
    --------
    >>> from repro.core.application import Task, TaskGraph, Dependency
    >>> tg = TaskGraph()
    >>> _ = tg.add_task(Task("a", 1.0)); _ = tg.add_task(Task("b", 1.0))
    >>> _ = tg.add_dependency(Dependency("a", "b", bits=1e6))
    >>> mesh = Mesh2D(2, 2)
    >>> m = NocMapping(mesh, {"a": Tile(0, 0), "b": Tile(1, 0)})
    >>> m.hops("a", "b")
    1
    """

    def __init__(self, mesh: Mesh2D, assignment: TMapping[str, Tile]):
        self.mesh = mesh
        self._assignment = dict(assignment)
        tiles = list(self._assignment.values())
        if len(set(tiles)) != len(tiles):
            raise ValueError("two tasks mapped to the same tile")
        for tile in tiles:
            if not mesh.contains(tile):
                raise ValueError(f"{tile} outside {mesh}")

    @property
    def assignment(self) -> dict[str, Tile]:
        """Copy of the task→tile assignment."""
        return dict(self._assignment)

    def tile_of(self, task: str) -> Tile:
        """Tile hosting ``task``."""
        return self._assignment[task]

    def hops(self, src: str, dst: str) -> int:
        """Hop count between two tasks' tiles."""
        return self.mesh.hops(self.tile_of(src), self.tile_of(dst))

    def validate(self, tg: TaskGraph) -> None:
        """Raise unless every task of ``tg`` is mapped."""
        missing = {t.name for t in tg.tasks} - set(self._assignment)
        if missing:
            raise ValueError(f"unmapped tasks: {sorted(missing)}")

    def communication_energy(self, tg: TaskGraph,
                             energy: NocEnergyModel) -> float:
        """Total communication energy per graph iteration, joules."""
        return sum(
            bits * energy.bit_energy(self.hops(src, dst))
            for src, dst, bits in tg.communication_pairs()
        )

    def weighted_hop_count(self, tg: TaskGraph) -> float:
        """Bit-weighted mean hop count (a dimensionless quality score)."""
        total_bits = 0.0
        weighted = 0.0
        for src, dst, bits in tg.communication_pairs():
            total_bits += bits
            weighted += bits * self.hops(src, dst)
        return weighted / total_bits if total_bits else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NocMapping):
            return NotImplemented
        return self._assignment == other._assignment

    def __repr__(self) -> str:
        return f"NocMapping({len(self._assignment)} tasks on {self.mesh})"


def _require_fits(tg: TaskGraph, mesh: Mesh2D) -> list[str]:
    names = [t.name for t in tg.tasks]
    if len(names) > mesh.n_tiles:
        raise ValueError(
            f"{len(names)} tasks do not fit on {mesh.n_tiles} tiles"
        )
    return names


def _pair_energy(mesh: Mesh2D, tiles: list[Tile],
                 energy: NocEnergyModel) -> list[list[float]]:
    """``table[i][j]``: per-bit energy between ``tiles[i]`` and
    ``tiles[j]`` — the exact ``energy.bit_energy(mesh.hops(...))``
    float each mapping search would otherwise recompute per move."""
    bit_energy = energy.bit_energy
    hops = mesh.hops
    return [[bit_energy(hops(a, b)) for b in tiles] for a in tiles]


def _table_energy(edges: list[tuple[int, int, float]],
                  pair_energy: list[list[float]],
                  slot_of: list[int]) -> float:
    """Communication energy of the placement ``slot_of[task] = slot``
    over ``(src, dst, bits)`` task-index edges: the same floats, summed
    in the same order, as :meth:`NocMapping.communication_energy`.

    SA sums the same products from per-edge tables it precomputes;
    this plain form stays as the reference the equivalence tests
    check."""
    return sum(
        bits * pair_energy[slot_of[a]][slot_of[b]] for a, b, bits in edges
    )


def adhoc_mapping(tg: TaskGraph, mesh: Mesh2D) -> NocMapping:
    """Declaration order onto row-major tiles — the naive baseline."""
    names = _require_fits(tg, mesh)
    tiles = list(mesh.tiles())
    return NocMapping(mesh, dict(zip(names, tiles)))


def random_noc_mapping(tg: TaskGraph, mesh: Mesh2D, seed: int = 0,
                       compatibility: TileCompatibility | None = None,
                       ) -> NocMapping:
    """Random injective placement (uniform when unconstrained).

    With heterogeneity constraints, the most-constrained tasks pick
    first from their allowed free tiles.
    """
    names = _require_fits(tg, mesh)
    rng = spawn_rng(seed, "noc-random-mapping")
    tiles = list(mesh.tiles())
    if compatibility is None:
        picks = rng.choice(len(tiles), size=len(names), replace=False)
        return NocMapping(
            mesh,
            {name: tiles[int(i)] for name, i in zip(names, picks)},
        )
    free = set(tiles)
    placement: dict[str, Tile] = {}
    order = sorted(
        names,
        key=lambda n: len(compatibility.allowed_tiles(n, tiles)),
    )
    for name in order:
        options = [
            tile for tile in compatibility.allowed_tiles(name, tiles)
            if tile in free
        ]
        if not options:
            raise ValueError(
                f"no compatible free tile left for task {name!r}"
            )
        tile = options[int(rng.integers(0, len(options)))]
        placement[name] = tile
        free.remove(tile)
    return NocMapping(mesh, placement)


def greedy_mapping(tg: TaskGraph, mesh: Mesh2D,
                   compatibility: TileCompatibility | None = None,
                   ) -> NocMapping:
    """Cluster growth: place the heaviest communicators first, each new
    task on the (compatible) free tile minimizing its incremental
    energy."""
    names = _require_fits(tg, mesh)
    compatibility = compatibility or TileCompatibility()
    energy = NocEnergyModel()
    # Communication affinity between task pairs (symmetric).
    affinity: dict[str, dict[str, float]] = {n: {} for n in names}
    for src, dst, bits in tg.communication_pairs():
        affinity[src][dst] = affinity[src].get(dst, 0.0) + bits
        affinity[dst][src] = affinity[dst].get(src, 0.0) + bits

    total_affinity = {
        n: sum(affinity[n].values()) for n in names
    }
    order = sorted(names, key=lambda n: -total_affinity[n])
    tiles = list(mesh.tiles())
    tile_index = {tile: i for i, tile in enumerate(tiles)}
    pair_energy = _pair_energy(mesh, tiles, energy)
    free_tiles = set(tiles)
    placed: dict[str, int] = {}  # task -> index into `tiles`

    # Seed: most-communicative task near the mesh centre.
    centre = Tile(mesh.width // 2, mesh.height // 2)
    seed_options = compatibility.allowed_tiles(order[0], free_tiles)
    if not seed_options:
        raise ValueError(f"no compatible tile for task {order[0]!r}")
    first_tile = min(seed_options, key=lambda t: mesh.hops(t, centre))
    placed[order[0]] = tile_index[first_tile]
    free_tiles.remove(first_tile)

    remaining = order[1:]
    while remaining:
        # Pick the unplaced task most attached to the placed set.
        def attachment(name: str) -> float:
            return sum(
                bits for other, bits in affinity[name].items()
                if other in placed
            )

        best_task = max(remaining, key=attachment)
        remaining.remove(best_task)

        def incremental_cost(tile: Tile) -> float:
            row = pair_energy[tile_index[tile]]
            return sum(
                bits * row[placed[other]]
                for other, bits in affinity[best_task].items()
                if other in placed
            )

        options = compatibility.allowed_tiles(
            best_task, sorted(free_tiles)
        )
        if not options:
            raise ValueError(
                f"no compatible free tile for task {best_task!r}"
            )
        best_tile = min(options, key=incremental_cost)
        placed[best_task] = tile_index[best_tile]
        free_tiles.remove(best_tile)
    return NocMapping(mesh, {
        task: tiles[slot] for task, slot in placed.items()
    })


def simulated_annealing_mapping(
    tg: TaskGraph,
    mesh: Mesh2D,
    energy: NocEnergyModel | None = None,
    seed: int = 0,
    n_iterations: int = 20_000,
    initial_temperature: float | None = None,
    cooling: float = 0.999,
    compatibility: TileCompatibility | None = None,
) -> NocMapping:
    """Swap-neighbourhood simulated annealing over placements.

    The state includes empty tiles, so moves are either task↔task swaps
    or task→empty-tile relocations.  Moves violating the heterogeneity
    constraints are rejected outright.
    """
    names = _require_fits(tg, mesh)
    if not 0.0 < cooling < 1.0:
        raise ValueError("cooling must lie in (0, 1)")
    energy = energy or NocEnergyModel()
    rng = spawn_rng(seed, "noc-sa")
    tiles = list(mesh.tiles())

    # State: slot i of `slots` holds a task index or -1 (empty tile).
    if compatibility is None:
        slots = [-1] * len(tiles)
        for i, __ in enumerate(names):
            slots[i] = i
        rng.shuffle(slots)
    else:
        # Constraint-respecting initial placement.
        initial = random_noc_mapping(
            tg, mesh, seed=seed, compatibility=compatibility
        )
        tile_index = {tile: i for i, tile in enumerate(tiles)}
        slots = [-1] * len(tiles)
        for task_idx, name in enumerate(names):
            slots[tile_index[initial.tile_of(name)]] = task_idx

    def move_allowed(i: int, j: int) -> bool:
        if compatibility is None:
            return True
        ok = True
        if slots[i] >= 0:
            ok &= compatibility.allows(names[slots[i]], tiles[j])
        if slots[j] >= 0:
            ok &= compatibility.allows(names[slots[j]], tiles[i])
        return ok

    name_index = {n: i for i, n in enumerate(names)}
    pair_energy = _pair_energy(mesh, tiles, energy)
    # One table per edge holding the products `bits * pair_energy[a][b]`
    # that `_table_energy` forms, so `edge_energy` sums the same floats
    # in the same order without a multiply per edge.
    edge_tables = [
        (name_index[src], name_index[dst],
         [[bits * e for e in row] for row in pair_energy])
        for src, dst, bits in tg.communication_pairs()
    ]
    # slot_of[task]: the slot (tile index) hosting task; the inverse
    # of `slots`, kept in step with every swap and undo.
    slot_of = [0] * len(names)
    for slot, task in enumerate(slots):
        if task >= 0:
            slot_of[task] = slot

    def edge_energy() -> float:
        return sum([table[slot_of[a]][slot_of[b]]
                    for a, b, table in edge_tables])

    def swap(i: int, j: int) -> None:
        slots[i], slots[j] = slots[j], slots[i]
        if slots[i] >= 0:
            slot_of[slots[i]] = i
        if slots[j] >= 0:
            slot_of[slots[j]] = j

    # Every move re-sums all edges in order rather than applying an
    # incident-edge delta: `current` then rounds exactly as a fresh
    # evaluation, so `delta <= 0` (and with it the RNG stream) never
    # shifts.
    current = edge_energy()
    best_slots = slots[:]
    best_cost = current

    if initial_temperature is None:
        initial_temperature = max(current * 0.1, 1e-18)
    temperature = initial_temperature

    # The loop owns `rng` from here on: the same draws as
    # `rng.integers(0, n_tiles, size=2)` and `rng.random()`.
    draws = RawDraws(rng)
    below, uniform = draws.below, draws.random
    n_tiles = len(tiles)
    for _ in range(n_iterations):
        i = below(n_tiles)
        j = below(n_tiles)
        if i == j or (slots[i] < 0 and slots[j] < 0):
            continue
        if not move_allowed(i, j):
            continue
        swap(i, j)
        candidate = edge_energy()
        delta = candidate - current
        if delta <= 0 or uniform() < math.exp(
                -delta / max(temperature, 1e-30)):
            current = candidate
            if current < best_cost:
                best_cost = current
                best_slots = slots[:]
        else:
            swap(i, j)
        temperature *= cooling

    placement = {
        names[task]: tiles[slot]
        for slot, task in enumerate(best_slots) if task >= 0
    }
    return NocMapping(mesh, placement)


def branch_and_bound_mapping(
    tg: TaskGraph,
    mesh: Mesh2D,
    energy: NocEnergyModel | None = None,
    max_tasks: int = 10,
    compatibility: TileCompatibility | None = None,
) -> NocMapping:
    """Exact minimum-energy mapping by depth-first branch and bound.

    Exponential — guarded by ``max_tasks``.  Used to certify heuristic
    quality on small instances.  Heterogeneity constraints prune the
    search further.
    """
    names = _require_fits(tg, mesh)
    if len(names) > max_tasks:
        raise ValueError(
            f"{len(names)} tasks exceed the branch-and-bound guard "
            f"({max_tasks})"
        )
    energy = energy or NocEnergyModel()
    compatibility = compatibility or TileCompatibility()
    tiles = list(mesh.tiles())
    pair_energy = _pair_energy(mesh, tiles, energy)

    affinity: dict[str, list[tuple[str, float]]] = {n: [] for n in names}
    for src, dst, bits in tg.communication_pairs():
        affinity[src].append((dst, bits))
        affinity[dst].append((src, bits))

    # Order tasks by total traffic so heavy decisions happen early.
    order = sorted(
        names, key=lambda n: -sum(b for _, b in affinity[n])
    )
    best = {
        "cost": math.inf,
        "placement": None,
    }

    # placed: task -> slot (index into `tiles`).
    def recurse(depth: int, placed: dict[str, int],
                used: set[int], cost_so_far: float) -> None:
        if cost_so_far >= best["cost"]:
            return
        if depth == len(order):
            best["cost"] = cost_so_far
            best["placement"] = dict(placed)
            return
        task = order[depth]
        for slot, tile in enumerate(tiles):
            if slot in used or not compatibility.allows(task, tile):
                continue
            row = pair_energy[slot]
            increment = sum(
                bits * row[placed[other]]
                for other, bits in affinity[task] if other in placed
            )
            placed[task] = slot
            used.add(slot)
            recurse(depth + 1, placed, used, cost_so_far + increment)
            del placed[task]
            used.remove(slot)

    recurse(0, {}, set(), 0.0)
    if best["placement"] is None:
        raise ValueError("no feasible placement under the constraints")
    return NocMapping(mesh, {
        task: tiles[slot] for task, slot in best["placement"].items()
    })
