"""The few graph algorithms the models need, over adjacency dicts.

A graph is an insertion-ordered ``{node: {neighbour: payload}}`` dict
(any iterable of neighbours works): the successor map of a directed
graph, or a symmetric map for an undirected one.  Every order a
function returns is fixed by the names and the insertion order alone,
so diagnostics and seeded results are reproducible.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Mapping

Adjacency = Mapping[Hashable, Iterable[Hashable]]
_END = object()


def topological_order(succ: Adjacency) -> list:
    """Kahn's algorithm taking the smallest ready node first (the
    lexicographic topological order); ``ValueError`` on a cycle."""
    indegree = dict.fromkeys(succ, 0)
    for nbrs in succ.values():
        for v in nbrs:
            indegree[v] += 1
    ready = [n for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for v in succ[node]:
            indegree[v] -= 1
            if not indegree[v]:
                heapq.heappush(ready, v)
    if len(order) < len(indegree):
        raise ValueError("graph contains a cycle")
    return order


def find_cycle(succ: Adjacency) -> list:
    """Nodes of the first directed cycle a depth-first search meets,
    starting nodes and edges taken in insertion order; ``[]`` when
    the graph is acyclic.  The cycle starts at the node the closing
    edge returns to."""
    explored: set = set()
    for start in succ:
        if start in explored:
            continue
        path = [start]
        on_path = {start}
        seen = {start}
        edges = [iter(succ[start])]
        while edges:
            head = next(edges[-1], _END)
            if head is _END:
                edges.pop()
                on_path.discard(path.pop())
            elif head in on_path:
                return path[path.index(head):]
            elif head not in seen and head not in explored:
                seen.add(head)
                path.append(head)
                on_path.add(head)
                edges.append(iter(succ[head]))
        explored |= seen
    return []


def descendants(succ: Adjacency, source: Hashable) -> set:
    """Every node reachable from ``source``, excluding ``source``."""
    reached = {source}
    stack = [source]
    while stack:
        for v in succ[stack.pop()]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    reached.discard(source)
    return reached


def components(adjacency: Adjacency) -> list[set]:
    """Connected components with edge direction ignored (the weak
    components of a directed graph), in order of first node."""
    undirected = {n: set(nbrs) for n, nbrs in adjacency.items()}
    for u, nbrs in adjacency.items():
        for v in nbrs:
            undirected[v].add(u)
    parts: list[set] = []
    placed: set = set()
    for start in undirected:
        if start in placed:
            continue
        part = {start}
        stack = [start]
        while stack:
            for v in undirected[stack.pop()]:
                if v not in part:
                    part.add(v)
                    stack.append(v)
        placed |= part
        parts.append(part)
    return parts
