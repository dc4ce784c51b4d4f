"""Table-driven mapping searches against the hop-by-hop evaluation.

SA, greedy and branch-and-bound look each tile pair's per-bit energy up
in one precomputed table.  Each test here keeps the straightforward
code that calls ``energy.bit_energy(mesh.hops(...))`` per edge as an
oracle, and requires the result to agree with ``==``: same floats,
same mapping, same RNG stream.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import (
    Mesh2D,
    NocEnergyModel,
    Tile,
    TileCompatibility,
    branch_and_bound_mapping,
    greedy_mapping,
    random_multimedia_apcg,
    random_noc_mapping,
    simulated_annealing_mapping,
)
from repro.noc.mapping import _pair_energy, _table_energy
from repro.utils.rng import spawn_rng


def half_mesh_compatibility(tg, mesh, seed, n_constrained):
    """Pin the first ``n_constrained`` tasks to a random half of the
    tiles each — always feasible while tasks <= tiles / 2."""
    rng = np.random.default_rng(seed)
    tiles = list(mesh.tiles())
    names = [t.name for t in tg.tasks][:n_constrained]
    return TileCompatibility({
        name: {tiles[int(i)] for i in rng.choice(
            len(tiles), size=len(tiles) // 2, replace=False)}
        for name in names
    })


# -- oracles: the per-edge hop evaluation the table replaces -----------
def oracle_sa(tg, mesh, energy, seed, n_iterations, cooling,
              compatibility):
    names = [t.name for t in tg.tasks]
    rng = spawn_rng(seed, "noc-sa")
    tiles = list(mesh.tiles())
    if compatibility is None:
        slots = [-1] * len(tiles)
        for i, __ in enumerate(names):
            slots[i] = i
        rng.shuffle(slots)
    else:
        initial = random_noc_mapping(tg, mesh, seed=seed,
                                     compatibility=compatibility)
        tile_index = {tile: i for i, tile in enumerate(tiles)}
        slots = [-1] * len(tiles)
        for task_idx, name in enumerate(names):
            slots[tile_index[initial.tile_of(name)]] = task_idx

    def move_allowed(i, j):
        if compatibility is None:
            return True
        ok = True
        if slots[i] >= 0:
            ok &= compatibility.allows(names[slots[i]], tiles[j])
        if slots[j] >= 0:
            ok &= compatibility.allows(names[slots[j]], tiles[i])
        return ok

    name_index = {n: i for i, n in enumerate(names)}
    edges = [(name_index[s], name_index[d], bits)
             for s, d, bits in tg.communication_pairs()]

    def cost():
        positions = {task: tiles[slot]
                     for slot, task in enumerate(slots) if task >= 0}
        return sum(
            bits * energy.bit_energy(mesh.hops(positions[a], positions[b]))
            for a, b, bits in edges
        )

    current = cost()
    best_slots = slots[:]
    best_cost = current
    temperature = max(current * 0.1, 1e-18)
    for _ in range(n_iterations):
        i, j = rng.integers(0, len(tiles), size=2)
        if i == j or (slots[i] < 0 and slots[j] < 0):
            continue
        if not move_allowed(i, j):
            continue
        slots[i], slots[j] = slots[j], slots[i]
        candidate = cost()
        delta = candidate - current
        if delta <= 0 or rng.random() < math.exp(
                -delta / max(temperature, 1e-30)):
            current = candidate
            if current < best_cost:
                best_cost = current
                best_slots = slots[:]
        else:
            slots[i], slots[j] = slots[j], slots[i]
        temperature *= cooling
    return {names[task]: tiles[slot]
            for slot, task in enumerate(best_slots) if task >= 0}


def oracle_greedy(tg, mesh, compatibility):
    names = [t.name for t in tg.tasks]
    compatibility = compatibility or TileCompatibility()
    energy = NocEnergyModel()
    affinity = {n: {} for n in names}
    for src, dst, bits in tg.communication_pairs():
        affinity[src][dst] = affinity[src].get(dst, 0.0) + bits
        affinity[dst][src] = affinity[dst].get(src, 0.0) + bits
    total_affinity = {n: sum(affinity[n].values()) for n in names}
    order = sorted(names, key=lambda n: -total_affinity[n])
    free_tiles = set(mesh.tiles())
    placed = {}
    centre = Tile(mesh.width // 2, mesh.height // 2)
    first_tile = min(compatibility.allowed_tiles(order[0], free_tiles),
                     key=lambda t: mesh.hops(t, centre))
    placed[order[0]] = first_tile
    free_tiles.remove(first_tile)
    remaining = order[1:]
    while remaining:
        best_task = max(remaining, key=lambda name: sum(
            bits for other, bits in affinity[name].items()
            if other in placed))
        remaining.remove(best_task)

        def incremental_cost(tile):
            return sum(
                bits * energy.bit_energy(mesh.hops(tile, placed[other]))
                for other, bits in affinity[best_task].items()
                if other in placed
            )

        options = compatibility.allowed_tiles(best_task,
                                              sorted(free_tiles))
        best_tile = min(options, key=incremental_cost)
        placed[best_task] = best_tile
        free_tiles.remove(best_tile)
    return placed


def oracle_branch_and_bound(tg, mesh, energy, compatibility):
    names = [t.name for t in tg.tasks]
    tiles = list(mesh.tiles())
    affinity = {n: [] for n in names}
    for src, dst, bits in tg.communication_pairs():
        affinity[src].append((dst, bits))
        affinity[dst].append((src, bits))
    order = sorted(names, key=lambda n: -sum(b for _, b in affinity[n]))
    best = {"cost": math.inf, "placement": None}

    def recurse(depth, placed, used, cost_so_far):
        if cost_so_far >= best["cost"]:
            return
        if depth == len(order):
            best["cost"] = cost_so_far
            best["placement"] = dict(placed)
            return
        task = order[depth]
        for tile in tiles:
            if tile in used or not compatibility.allows(task, tile):
                continue
            increment = sum(
                bits * energy.bit_energy(mesh.hops(tile, placed[other]))
                for other, bits in affinity[task] if other in placed
            )
            placed[task] = tile
            used.add(tile)
            recurse(depth + 1, placed, used, cost_so_far + increment)
            del placed[task]
            used.remove(tile)

    recurse(0, {}, set(), 0.0)
    return best["placement"], best["cost"]


# -- properties ---------------------------------------------------------
class TestPairEnergyTable:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**16),
           st.integers(0, 6), st.booleans())
    def test_table_energy_equals_communication_energy(
            self, n_tasks, seed, n_constrained, constrained):
        mesh = Mesh2D(5, 5)
        tg = random_multimedia_apcg(n_tasks, seed=seed)
        compatibility = (half_mesh_compatibility(tg, mesh, seed,
                                                 n_constrained)
                         if constrained else None)
        mapping = random_noc_mapping(tg, mesh, seed=seed,
                                     compatibility=compatibility)
        energy = NocEnergyModel()
        tiles = list(mesh.tiles())
        names = [t.name for t in tg.tasks]
        index = {n: i for i, n in enumerate(names)}
        edges = [(index[s], index[d], bits)
                 for s, d, bits in tg.communication_pairs()]
        slot_of = [tiles.index(mapping.tile_of(n)) for n in names]
        assert _table_energy(edges, _pair_energy(mesh, tiles, energy),
                             slot_of) == \
            mapping.communication_energy(tg, energy)


class TestSearchesMatchOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**16),
           st.integers(0, 5), st.booleans(),
           st.sampled_from([0.95, 0.99, 0.999]))
    def test_simulated_annealing(self, n_tasks, seed, n_constrained,
                                 constrained, cooling):
        mesh = Mesh2D(4, 5)
        tg = random_multimedia_apcg(n_tasks, seed=seed)
        compatibility = (half_mesh_compatibility(tg, mesh, seed,
                                                 n_constrained)
                         if constrained else None)
        energy = NocEnergyModel()
        mapping = simulated_annealing_mapping(
            tg, mesh, energy=energy, seed=seed, n_iterations=400,
            cooling=cooling, compatibility=compatibility,
        )
        expected = oracle_sa(tg, mesh, energy, seed, 400, cooling,
                             compatibility)
        assert mapping.assignment == expected

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(3, 3), (4, 3), (4, 4)]), st.integers(2, 9),
           st.integers(0, 2**16), st.integers(0, 3), st.booleans(),
           st.sampled_from([0.95, 0.99, 0.999]))
    def test_simulated_annealing_e3_meshes(self, shape, n_tasks, seed,
                                           n_constrained, constrained,
                                           cooling):
        # e3's own mesh shapes; 3x3 fits at most nine tasks.
        mesh = Mesh2D(*shape)
        tg = random_multimedia_apcg(n_tasks, seed=seed)
        compatibility = (half_mesh_compatibility(tg, mesh, seed,
                                                 n_constrained)
                         if constrained else None)
        energy = NocEnergyModel()
        mapping = simulated_annealing_mapping(
            tg, mesh, energy=energy, seed=seed, n_iterations=400,
            cooling=cooling, compatibility=compatibility,
        )
        expected = oracle_sa(tg, mesh, energy, seed, 400, cooling,
                             compatibility)
        assert mapping.assignment == expected

    def test_simulated_annealing_past_one_raw_chunk(self):
        # 3,000 moves draw well over one 1,024-word chunk of the raw
        # stream, at a cooling slow enough to keep accepting uphill.
        mesh = Mesh2D(4, 4)
        tg = random_multimedia_apcg(10, seed=7)
        energy = NocEnergyModel()
        mapping = simulated_annealing_mapping(
            tg, mesh, energy=energy, seed=7, n_iterations=3_000,
            cooling=0.999,
        )
        expected = oracle_sa(tg, mesh, energy, 7, 3_000, 0.999, None)
        assert mapping.assignment == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**16),
           st.integers(0, 6), st.booleans())
    def test_greedy(self, n_tasks, seed, n_constrained, constrained):
        mesh = Mesh2D(5, 5)
        tg = random_multimedia_apcg(n_tasks, seed=seed)
        compatibility = (half_mesh_compatibility(tg, mesh, seed,
                                                 n_constrained)
                         if constrained else None)
        mapping = greedy_mapping(tg, mesh, compatibility=compatibility)
        expected = oracle_greedy(tg, mesh, compatibility)
        assert mapping.assignment == expected
        assert list(mapping.assignment) == list(expected)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**16),
           st.integers(0, 3), st.booleans())
    def test_branch_and_bound(self, n_tasks, seed, n_constrained,
                              constrained):
        mesh = Mesh2D(3, 3)
        tg = random_multimedia_apcg(n_tasks, seed=seed)
        compatibility = (half_mesh_compatibility(tg, mesh, seed,
                                                 n_constrained)
                         if constrained else None)
        energy = NocEnergyModel()
        mapping = branch_and_bound_mapping(
            tg, mesh, energy=energy, compatibility=compatibility)
        placement, __ = oracle_branch_and_bound(
            tg, mesh, energy, compatibility or TileCompatibility())
        assert mapping.assignment == placement
        assert list(mapping.assignment) == list(placement)
