"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own machinery: they
re-derive connectivity, facet enumeration, the shelling condition and the
spanning condition from first principles on full vertex sets, so that the
complement-arithmetic implementation is checked against an unrelated code
path.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from types import SimpleNamespace

import pytest

from hexcut import (
    build_hex_graph,
    enumerate_facets,
    shelling_order,
    spanning_facets,
    verify_shelling,
)
from hexcut.cutcomplex import RowBlocks


# ---------------------------------------------------------------------------
# oracles (independent code paths)
# ---------------------------------------------------------------------------

def oracle_adjacency(g) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n_vertices + 1)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def oracle_connected(adj: dict[int, set[int]], subset) -> bool:
    s = set(subset)
    start = next(iter(s))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in s and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(s)


def oracle_girth(g) -> int | float:
    """Length of a shortest cycle, math.inf for a forest: a full BFS from
    every vertex, each non-tree edge v - w closing a walk of
    dist(v) + dist(w) + 1 edges, with no early stop."""
    adj = oracle_adjacency(g)
    best: int | float = float("inf")
    for src in adj:
        dist, parent = {src: 0}, {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w], parent[w] = dist[v] + 1, v
                    queue.append(w)
                elif parent[v] != w:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def oracle_facet_complements(g, k: int) -> list[tuple[int, ...]]:
    """Disconnected k-subsets by BFS, no adjacency special cases."""
    adj = oracle_adjacency(g)
    return [
        t
        for t in combinations(range(1, g.n_vertices + 1), k)
        if not oracle_connected(adj, t)
    ]


def oracle_full_facets(g, k: int) -> list[frozenset[int]]:
    verts = set(range(1, g.n_vertices + 1))
    return [verts - set(t) for t in oracle_facet_complements(g, k)]


def oracle_swap_map(facet_sets: list[frozenset[int]]) -> list[dict[int, int]]:
    """For each position j, map each vertex x of F_j to the earliest r < j
    with F_r meeting F_j in exactly F_j minus x.  Set intersections only."""
    out = []
    for j, fj in enumerate(facet_sets):
        reach: dict[int, int] = {}
        for r in range(j):
            inter = facet_sets[r] & fj
            if len(inter) == len(fj) - 1:
                (x,) = fj - inter
                reach.setdefault(x, r)
        out.append(reach)
    return out


def oracle_is_shelling(facet_sets: list[frozenset[int]]):
    """Direct check of the single-swap condition over every pair, on full
    vertex sets.  Returns (ok, first failing 1-based (i, j))."""
    swap = oracle_swap_map(facet_sets)
    for j in range(1, len(facet_sets)):
        fj = facet_sets[j]
        for i in range(j):
            if not any(x in swap[j] for x in fj - facet_sets[i]):
                return False, (i + 1, j + 1)
    return True, None


def oracle_row_violation(facet_sets: list[frozenset[int]], j: int):
    """Smallest 1-based i < j at which the single-swap condition fails for
    the facet at 1-based position j, or None.  One row, O(j) set operations."""
    fj = facet_sets[j - 1]
    swaps: set[int] = set()
    for fr in facet_sets[: j - 1]:
        missing = fj - fr
        if len(missing) == 1:
            swaps |= missing
    for i, fi in enumerate(facet_sets[: j - 1], start=1):
        if not (fj - fi) & swaps:
            return i
    return None


def oracle_spanning_flags(facet_sets: list[frozenset[int]]) -> list[bool]:
    swap = oracle_swap_map(facet_sets)
    return [set(swap[j]) == set(facet_sets[j]) for j in range(len(facet_sets))]


def oracle_mcs_order(adj: dict[int, set[int]]) -> list[int]:
    """Maximum cardinality search: visit next the unvisited vertex with the
    most visited neighbours, the smallest label on a tie."""
    weight = {v: 0 for v in adj}
    visited = []
    while weight:
        v = max(weight, key=lambda u: (weight[u], -u))
        visited.append(v)
        del weight[v]
        for w in adj[v]:
            if w in weight:
                weight[w] += 1
    return visited


def oracle_perfect_elimination_order(adj: dict[int, set[int]]) -> list[int] | None:
    """The reversed MCS order when it is a perfect elimination order (the
    later neighbours of every vertex form a clique), else None.  By Tarjan
    and Yannakakis (1984) it is one exactly when the graph is chordal."""
    order = oracle_mcs_order(adj)[::-1]
    rank = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in adj[v] if rank[w] > rank[v]]
        if any(b not in adj[a] for a, b in combinations(later, 2)):
            return None
    return order


def oracle_is_chordal(adj: dict[int, set[int]]) -> bool:
    return oracle_perfect_elimination_order(adj) is not None


def oracle_face_counts(facet_sets: list[frozenset[int]], n_vertices: int) -> list[int]:
    """Exhaustive face counts by size, testing containment in some facet."""
    masks = [sum(1 << (v - 1) for v in f) for f in facet_sets]
    counts = [0] * (max((len(f) for f in facet_sets), default=0) + 1)
    for mask in range(1 << n_vertices):
        if any(mask & ~fm == 0 for fm in masks):
            counts[bin(mask).count("1")] += 1
    return counts


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def listed(value) -> list[tuple[int, ...]]:
    """The rows of :class:`RowBlocks` as the list of tuples they stand for,
    so that ``json.dump(..., default=listed)`` writes them as the CLI does;
    any other value is refused with the error json gives it."""
    if not isinstance(value, RowBlocks):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return [tuple(row) for block in value for row in block.tolist()]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def instance():
    """Factory: cached graph/complex/verified order bundles per (m, n)."""
    cache: dict[tuple[int, int], SimpleNamespace] = {}

    def get(m: int, n: int, verify: bool = True) -> SimpleNamespace:
        key = (m, n)
        if key not in cache:
            g = build_hex_graph(m, n)
            cx = enumerate_facets(g, 3)
            order = shelling_order(cx)
            bundle = SimpleNamespace(g=g, cx=cx, order=order, verify=None, report=None)
            cache[key] = bundle
        bundle = cache[key]
        if verify and bundle.verify is None:
            bundle.verify = verify_shelling(bundle.order)
            bundle.report = spanning_facets(bundle.order)
        return bundle

    return get
