"""Hexagonal grid graphs and structural queries.

The graph ``H(m, n)`` tiles an m-by-n array of hexagons.  Its vertex set is
``[1, N]`` with ``N = 2m + 2n + 2mn``, split into the lower half
``V1 = [1, m+n+mn]`` and the upper half ``V2 = [m+n+mn+1, N]``.  Every edge
joins V1 to V2 and is one of four arithmetic families (``h = m+n+mn``,
``s = n+nm``):

  E1:  i ~ i+h    for i in [1, m] and i in [1+s, h]
  E2:  i ~ i+s    for i in [m+1, h]
  E3:  i ~ i+h+1  for i in [1, h-1]
  E4:  i ~ i+h+2  for i in [k(m+1), k(m+1)+m-1], k = 1..n-1

The index sets are over-determined by the invariants checked in
:func:`validate_structure` (bipartite, girth 6, edge count 3mn+2m+2n-1,
degree counts 2mn-2 / 2m+2n+2); any misreading of the families fails the
validator loudly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from .errors import (
    ConstructionInvariantViolated,
    EmptySubset,
    InvalidParams,
    VertexOutOfRange,
)


class Graph:
    """Simple undirected graph on vertices 1..n_vertices with sorted adjacency."""

    def __init__(self, n_vertices: int, edges) -> None:
        if n_vertices < 1:
            raise InvalidParams(f"need at least one vertex, got {n_vertices}")
        adj: list[list[int]] = [[] for _ in range(n_vertices + 1)]
        eset = set()
        for u, v in edges:
            if u == v:
                raise InvalidParams(f"loop at vertex {u}")
            if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
                raise VertexOutOfRange(f"edge ({u},{v}) outside [1,{n_vertices}]")
            if u > v:
                u, v = v, u
            if (u, v) in eset:
                continue
            eset.add((u, v))
            adj[u].append(v)
            adj[v].append(u)
        self.n_vertices = n_vertices
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._edges = frozenset(eset)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(1, self.n_vertices + 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return sorted(self._edges)

    def is_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges if u < v else (v, u) in self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Open neighborhood of v, sorted ascending."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def is_connected_subset(self, subset) -> bool:
        """True iff the subgraph induced on `subset` is connected."""
        s = set(subset)
        if not s:
            raise EmptySubset("connectivity of the empty set is undefined")
        for v in s:
            self._check_vertex(v)
        start = next(iter(s))
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w in s and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(s)

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n_vertices):
            raise VertexOutOfRange(f"vertex {v} outside [1,{self.n_vertices}]")

    def _key(self) -> tuple:
        return type(self), self.n_vertices, self._edges

    def __eq__(self, other) -> bool:
        """Equal graphs have the same type, vertex count and edge set, so a
        copy or a pickle round trip equals its original."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self.n_vertices}, m={self.n_edges})"


class HexGraph(Graph):
    """The hexagonal grid graph H(m, n) with its canonical labeling."""

    def __init__(self, m: int, n: int, edges) -> None:
        super().__init__(hex_vertex_count(m, n), edges)
        self.m = m
        self.n = n

    def _key(self) -> tuple:
        return super()._key() + (self.m, self.n)

    @property
    def v1_boundary(self) -> int:
        """Largest label of the lower color class V1."""
        return self.m + self.n + self.m * self.n


def hex_vertex_count(m: int, n: int) -> int:
    """N = 2m + 2n + 2mn, the vertex count of H(m, n).

    The one admission check for grid parameters: the graph, the CLI and
    every closed form call it, so each raises InvalidParams unless m and n
    are integers with m, n >= 1.
    """
    if not (isinstance(m, int) and isinstance(n, int)):
        raise InvalidParams(f"m and n must be integers, got {m!r}, {n!r}")
    if m < 1 or n < 1:
        raise InvalidParams(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return 2 * m + 2 * n + 2 * m * n


def hex_edges(m: int, n: int) -> list[tuple[int, int]]:
    """Edge list of H(m, n) from the four arithmetic families."""
    hex_vertex_count(m, n)
    h = m + n + m * n
    s = n + n * m
    out: list[tuple[int, int]] = []
    for i in chain(range(1, m + 1), range(1 + s, h + 1)):
        out.append((i, i + h))
    for i in range(m + 1, h + 1):
        out.append((i, i + s))
    for i in range(1, h):
        out.append((i, i + h + 1))
    for k in range(1, n):
        for i in range(k * (m + 1), k * (m + 1) + m):
            out.append((i, i + h + 2))
    return out


def build_hex_graph(m: int, n: int, validate: bool = True) -> HexGraph:
    """Construct H(m, n); with ``validate`` every structural invariant is checked.

    Raises InvalidParams for bad parameters and ConstructionInvariantViolated
    if the built graph fails any validator check.
    """
    g = HexGraph(m, n, hex_edges(m, n))
    if validate:
        report = validate_structure(g)
        if not report.ok:
            raise ConstructionInvariantViolated(
                f"H({m},{n}) failed checks: {report.failed()}"
            )
    return g


def cycle_graph(n: int) -> Graph:
    """Cycle on [1, n] with consecutive labels adjacent."""
    if n < 3:
        raise InvalidParams(f"cycle needs >= 3 vertices, got {n}")
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle (math.inf for forests). BFS from every
    vertex; a non-tree edge v - w reports dist(v) + dist(w) + 1, at least
    2 dist(v), so a search stops at the first v where that reaches the
    best length found."""
    best: int | float = float("inf")
    for src in g.vertices():
        dist = {src: 0}
        parent = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            if 2 * dist[v] >= best:
                break
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def induced_p3_list(g: Graph) -> list[tuple[int, int, int]]:
    """All connected 3-subsets as (a, b, c) with b the midpoint and a < c.

    In a triangle-free graph a connected triple is exactly an induced path on
    three vertices, found once per midpoint and unordered endpoint pair.
    """
    out = []
    for b in g.vertices():
        nb = g.neighbors(b)
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                a, c = nb[i], nb[j]
                if not g.is_edge(a, c):
                    out.append((a, b, c))
    out.sort()
    return out


@dataclass
class StructureReport:
    """Per-check verdicts from :func:`validate_structure`."""

    checks: dict[str, bool] = field(default_factory=dict)
    details: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed(self) -> list[str]:
        return sorted(name for name, good in self.checks.items() if not good)

    def record(self, name: str, good: bool, detail: str = "") -> None:
        self.checks[name] = bool(good)
        if detail:
            self.details[name] = detail


def validate_structure(g: HexGraph) -> StructureReport:
    """Check every structural invariant of H(m, n); never raises."""
    m, n = g.m, g.n
    rep = StructureReport()
    N = g.n_vertices
    half = g.v1_boundary

    rep.record("vertex_count", N == 2 * m + 2 * n + 2 * m * n, f"N={N}")
    rep.record(
        "edge_count",
        g.n_edges == 3 * m * n + 2 * m + 2 * n - 1,
        f"|E|={g.n_edges}",
    )

    crossing = all((u <= half) != (v <= half) for u, v in g.edges())
    rep.record("bipartite_split", crossing)

    neighborhoods_cross = all(
        all((w <= half) != (v <= half) for w in g.neighbors(v)) for v in g.vertices()
    )
    rep.record("neighborhoods_cross", neighborhoods_cross)

    degs = [g.degree(v) for v in g.vertices()]
    d2, d3 = degs.count(2), degs.count(3)
    rep.record(
        "degree_counts",
        d3 == 2 * m * n - 2 and d2 == 2 * m + 2 * n + 2 and d2 + d3 == N,
        f"deg2={d2}, deg3={d3}",
    )

    # two vertices sharing two common neighbors would close a 4-cycle
    no_c4 = True
    for v in g.vertices():
        nb = g.neighbors(v)
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                common = set(g.neighbors(nb[i])) & set(g.neighbors(nb[j]))
                if len(common) > 1:
                    no_c4 = False
    rep.record("no_four_cycle", no_c4)

    gg = girth(g)
    rep.record("girth_six", gg == 6, f"girth={gg}")

    rep.record(
        "face_count",
        g.n_edges - N + 1 == m * n,
        f"independent cycles={g.n_edges - N + 1}",
    )
    return rep


def graph_to_edge_text(g: Graph) -> str:
    """One "u v" pair per line, u < v, lexicographically sorted."""
    return "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"


def graph_to_dot(g: Graph) -> str:
    lines = ["graph hexgrid {"]
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: HexGraph) -> dict:
    """The edges as :class:`hexcut.cutcomplex.RowBlocks` of (u, v), u < v,
    lexicographically sorted."""
    from .cutcomplex import RowBlocks, _vertex_array  # cutcomplex imports this module

    return {
        "m": g.m,
        "n": g.n,
        "vertices": g.n_vertices,
        "edges": RowBlocks.of(_vertex_array(g.edges(), 2)),
    }
