"""Cut complexes of graphs.

The k-cut complex of a graph G has one facet per k-subset of V(G) whose
induced subgraph is disconnected; the facet is the complement of that
subset.  Facets are stored as their complement tuples and, privately, as
one (eta, k) int32 array of the same rows.  The complements are canonical,
increasing k-subsets of [1, N] in strictly increasing lex order: the
enumerator builds them so, and a complex built by hand that breaks this
is refused with InvalidParams.  All set algebra downstream happens in
complement arithmetic.

The complex owns every fact about it that the shelling verifier reads,
each computed once and kept with it: the array, in which
:func:`_find_rows` finds the row of a complement by binary search over
big-endian bytes, exact for any k and N; the face numbering of
:func:`_face_numbers`; and the closed face counts of :func:`_closed_faces`,
which :func:`f_vector` returns and the verifier sums.  Its exports hand
the array to the CLI's JSON writer as :class:`RowBlocks`, so no complement
tuple is built for them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .errors import InvalidParams, ResourceGuard, VertexOutOfRange
from .hexgraph import Graph, build_hex_graph, hex_vertex_count

EXHAUSTIVE_VERTEX_LIMIT = 20
FACET_SUBSET_GUARD = 20_000  # k-subsets walked without force, see check_subset_count
# int64 face masks on a bitmap of 2^N entries: no force reaches past this
BITMAP_VERTEX_CEILING = 62
_COUNT_CHUNK = 1 << 16  # bitmap entries popcounted per numpy step
_SUBSET_CHUNK = 1 << 12  # k-subsets per reach-mask chunk, k >= 4
# Colex ranks of (k-1)-subsets that number the faces, C(N, k - 1) in all;
# H(10, 10) at k = 3 needs C(240, 2) = 28 680.  Past it the faces are
# searched by their big-endian bytes.
POSITION_TABLE_LIMIT = 1 << 24
_INT32 = np.iinfo(np.int32)
# Rows per block: swap rows built and checked together by the shelling
# verifier, and rows handed to a writer at a time by RowBlocks.of.
_BLOCK_ROWS = 4096


def induced_p3_count(m: int, n: int) -> int:
    """Number of connected 3-subsets of H(m, n): 6mn + 2m + 2n - 4."""
    hex_vertex_count(m, n)
    return 6 * m * n + 2 * m + 2 * n - 4


def hex_facet_count(m: int, n: int) -> int:
    """Number of facets of the 3-cut complex of H(m, n): C(N, 3) minus the
    connected triples."""
    return comb(hex_vertex_count(m, n), 3) - induced_p3_count(m, n)


def check_size(count: int, what: str, limit: int, force: bool) -> None:
    """The one size refusal: unless ``force``, raise ResourceGuard when
    ``count`` exceeds ``limit``."""
    if count > limit and not force:
        raise ResourceGuard(f"{count} {what} exceed guard {limit}; use --force")


def check_subset_count(n_vertices: int, k: int, force: bool = False) -> None:
    """Reject a cut size outside [1, N-1], then refuse, unless ``force``, to
    walk more than ``FACET_SUBSET_GUARD`` k-subsets of the N vertices.

    C(N, k) is the number of subsets :func:`enumerate_facets` tests, and it
    bounds the facets, so the swap-table rows and the faces too.
    """
    if not 1 <= k <= n_vertices - 1:
        raise InvalidParams(f"k={k} outside [1,{n_vertices - 1}]")
    check_size(comb(n_vertices, k), "candidate subsets", FACET_SUBSET_GUARD, force)


def check_bitmap_ceiling(n_vertices: int) -> None:
    """Refuse N past ``BITMAP_VERTEX_CEILING``, whatever ``force`` says: the
    2^N face bitmap is indexed by int64 masks."""
    if n_vertices > BITMAP_VERTEX_CEILING:
        raise ResourceGuard(
            f"{n_vertices} vertices exceed the {BITMAP_VERTEX_CEILING}-vertex "
            "ceiling of the 2^N face bitmap; --force cannot lift it"
        )


@dataclass(frozen=True)
class CutComplex:
    """A k-cut complex, frozen: graph, k, and the facet complements as one
    tuple of increasing k-subsets of [1, N] in strictly increasing lex
    order, refused with InvalidParams by :func:`_complements` otherwise.  It
    keeps no complement index.  What depends on the facets alone is
    computed once per instance and kept with it: the complements as an
    (eta, k) int32 array, row i being ``facets[i]``, and the verifier's face
    numbering and face count.  ``dataclasses.replace`` starts afresh."""

    graph: Graph
    k: int
    facets: tuple[tuple[int, ...], ...]
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def dim(self) -> int:
        """Dimension of the facets (each has N - k vertices)."""
        return self.n_vertices - self.k - 1


def _per_complex(build):
    """Decorate ``build(cx)`` so that it runs once per complex and its
    result is kept in the complex."""
    name = build.__name__

    @wraps(build)
    def once(cx: CutComplex):
        kept = cx._kept
        if name not in kept:
            kept[name] = build(cx)
        return kept[name]

    return once


def _vertex_array(rows, k: int) -> np.ndarray:
    """``rows`` of k integers as an (n, k) int32 array.  Raises ValueError
    when an entry is no integer or a row no k-tuple, and OverflowError when
    an entry is past int32: no entry is truncated or wrapped."""
    arr = np.array(rows)
    if arr.size:
        if arr.dtype.kind not in "biu":
            raise ValueError("an entry is no integer")
        if arr.min() < _INT32.min or arr.max() > _INT32.max:
            raise OverflowError("an entry is past int32")
    return arr.astype(np.int32).reshape(len(rows), k)


def _canonical(comp: np.ndarray, n_vertices: int) -> bool:
    """True iff the rows of ``comp`` are increasing subsets of
    [1, n_vertices] in strictly increasing lex order: every entry in range,
    each row increasing, and the first nonzero step between neighbouring
    rows positive."""
    step = np.diff(comp, axis=0)
    lead = np.zeros(len(step), dtype=np.int32)
    for col in step.T[::-1]:
        lead = np.where(col, col, lead)
    return bool(((1 <= comp) & (comp <= n_vertices)).all()
                and (np.diff(comp, axis=1) > 0).all()
                and (lead > 0).all())


@_per_complex
def _complements(cx: CutComplex) -> np.ndarray:
    """The facet complements as an (eta, k) int32 array, row i holding
    ``cx.facets[i]``.  Raises InvalidParams when a complement is no k-tuple
    of int32 integers or the complements are not :func:`_canonical`.  The
    enumerator seeds its array unchecked."""
    try:
        comp = _vertex_array(cx.facets, cx.k)
    except (OverflowError, ValueError):
        raise InvalidParams(f"a facet complement is no {cx.k}-tuple of int32 integers") from None
    if not _canonical(comp, cx.n_vertices):
        raise InvalidParams(f"facet complements are not increasing {cx.k}-subsets of "
                            f"[1,{cx.n_vertices}] listed in increasing lex order")
    return comp


def _keys(comp: np.ndarray) -> np.ndarray:
    """One key per row of ``comp``: its k entries as big-endian int32 bytes.
    Bytes compare like the rows do in lex order, for non-negative entries,
    and exactly for any k and N: no integer rank is formed."""
    return np.ascontiguousarray(comp, dtype=">i4").view(f"V{4 * comp.shape[1]}").ravel()


def _search(keys: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The place of each of the keys ``want`` among the ascending ``keys``,
    or len(keys) where no key equals it: one binary search, exact for the
    byte keys of :func:`_keys`."""
    if not len(keys):
        return np.zeros(len(want), dtype=np.intp)
    at = np.searchsorted(keys, want).clip(max=len(keys) - 1)
    return np.where(keys[at] == want, at, len(keys))


def _find_rows(cx: CutComplex, comp: np.ndarray) -> np.ndarray:
    """The row of the complex holding each row of ``comp``, an (n, k)
    array, or -1 where no facet has that complement, int32: one
    :func:`_search` of the complements' keys, in lex order as the complex
    is canonical; InvalidParams for a complex that is not."""
    at = _search(_keys(_complements(cx)), _keys(comp))
    return np.where(at < cx.n_facets, at, -1).astype(np.int32)


class _Positions:
    """The faces of a complex, the (k-1)-subsets of its complements ``comp``,
    numbered below ``count``: ``face[i, s]`` is the index of the face of row
    i without its entry s, int32, and :meth:`index` finds a (k-1)-subset.

    While the C(N, k - 1) subsets fit ``POSITION_TABLE_LIMIT``, the index of
    a subset is its colex rank sum_t C(x_t - 1, t), t counted from 1, read
    as sum_t weight[t, x_t], and ``count`` is C(N, k - 1), so a subset that
    is no face has an index too; a weight no subset reaches, C(x - 1, t)
    with x > N - k + 1 + t, is capped at C(N, k - 1) to fit int32.  Past the
    limit a subset is keyed by its entries as big-endian bytes and searched
    among the sorted face keys, exact for any k and N, ``count`` for one
    that is no face: H(10, 10) at k = 237 would need about 1.3e8 ranks."""

    def __init__(self, comp: np.ndarray, N: int):
        eta, k = comp.shape
        self.count = comb(N, k - 1)
        self.dense = self.count <= POSITION_TABLE_LIMIT
        if not self.dense:
            keys = np.stack([_keys(np.delete(comp, s, axis=1)) for s in range(k)], axis=1)
            self.sorted, face = np.unique(keys, return_inverse=True)
            self.count, self.face = len(self.sorted), face.reshape(eta, k).astype(np.int32)
            return
        self.weight = np.array([[min(comb(x - 1, t), self.count) if x else 0
                                  for x in range(N + 1)] for t in range(1, k)], dtype=np.int32)
        self.face = self.faces(comp)

    def faces(self, comp: np.ndarray) -> np.ndarray:
        """``face[i, s]``, the colex rank of row i of ``comp`` without its
        entry s, for any increasing k-subsets of [1, N] while the ranks are
        dense, so for a block of complements no complex holds.

        Without entry s, an entry x_c keeps its place c for c < s and
        moves down to c - 1 for c > s, so the rank is a prefix sum of
        weight[c, x_c] over c < s plus a suffix sum of weight[c - 1, x_c]
        over c > s; at k = 1 both are empty and the rank is 0."""
        rows, k = comp.shape
        face = np.zeros((rows, k), dtype=np.int32)
        lo, hi = np.zeros(rows, dtype=np.int32), np.zeros(rows, dtype=np.int32)
        for s in range(1, k):
            lo += self.weight[s - 1].take(comp[:, s - 1])
            face[:, s] += lo
            hi += self.weight[k - s - 1].take(comp[:, k - s])
            face[:, k - s - 1] += hi
        return face

    def index(self, cols) -> np.ndarray:
        """The index of each (k-1)-subset, given column by column in
        ascending order: its colex rank, or past the limit its place among
        the sorted face keys, ``count`` for one that is no face."""
        if self.dense:
            return sum(w[col] for w, col in zip(self.weight, cols))
        return _search(self.sorted, _keys(np.stack(cols, axis=1)))


@_per_complex
def _face_numbers(cx: CutComplex) -> _Positions:
    """The faces of the complex numbered once, by colex rank or by the
    sorted byte keys as ``POSITION_TABLE_LIMIT`` stands at the first call,
    and kept with their lookup."""
    return _Positions(_complements(cx), cx.n_vertices)


def _sparse_slabs(g: Graph, k: int) -> Iterator[np.ndarray]:
    """The k-subsets, k <= 3, that induce fewer than k - 1 edges: one
    (rows, k) array per first vertex a, so that, stacked, they list the
    subsets in ascending lex order.  For these k that is exactly induced
    disconnectedness (Bayer et al., "Topology of cut complexes of graphs",
    2024): a connected graph on k vertices has at least k - 1 edges, and
    two distinct edges among three vertices share a vertex, so they span
    all three.

    One int8 adjacency matrix; for each a, the (k-1)-subsets above a are one
    contiguous slab of a lex-ordered table, and their edge counts come from
    numpy sums over that slab.
    """
    N = g.n_vertices
    if k == 1:
        return
    adj = np.zeros((N + 1, N + 1), dtype=np.int8)
    u, v = np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T
    adj[u, v] = adj[v, u] = 1
    # the (k-1)-subsets of [1, N] in lex order, one array per place
    rest = [c + 1 for c in np.triu_indices(N, 1)] if k == 3 else [np.arange(1, N + 1)]
    inner = adj[rest[0], rest[1]] if k == 3 else np.zeros(N, dtype=np.int8)
    for a in range(1, N + 1):
        lo = int(np.searchsorted(rest[0], a, side="right"))
        cols = [c[lo:] for c in rest]
        keep = sum(adj[a, c] for c in cols) + inner[lo:] < k - 1
        slab = np.full((int(keep.sum()), k), a, dtype=np.int32)
        for place, c in enumerate(cols, 1):
            slab[:, place] = c[keep]
        yield slab


def _reach_slabs(g: Graph, k: int) -> Iterator[np.ndarray]:
    """The disconnected k-subsets, k >= 4: one (rows, k) array per chunk of
    ``_SUBSET_CHUNK`` k-subsets read from ``combinations``, so that,
    stacked, they list the subsets in ascending lex order.

    The subsets of a chunk are rows of W = ceil((N + 1) / 64) words, bit v
    set iff v is in the subset.  A reach mask grows from each subset's first
    vertex: a step ORs in the neighbours of the reached vertices and cuts
    back to the subset.  A row settles and leaves the chunk when its reach
    is all of the subset, which is then connected, or when its reach stops
    changing short of that, which makes it disconnected.  Neighbours come
    from a byte table: ``table[q, x]`` is the OR of the neighbour masks of
    the vertices 8q + b for the set bits b of x, so a step is one gather
    per byte of the row, whatever k is.
    """
    N = g.n_vertices
    words, width = (N + 64) // 64, (N + 8) // 8
    v = np.arange(N + 1)
    own = np.zeros((8 * width, words), dtype="<u8")  # vertex -> its own bit
    own[v, v >> 6] = np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))
    near = np.zeros_like(own)  # vertex -> its neighbours
    a, b = np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T
    np.bitwise_or.at(near, a, own[b])
    np.bitwise_or.at(near, b, own[a])
    in_byte = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)
    table = np.bitwise_or.reduce(
        np.where(in_byte[:, :, None], near.reshape(width, 1, 8, words), np.uint64(0)), axis=2)
    subsets = combinations(range(1, N + 1), k)
    while True:
        chunk = np.fromiter(chain.from_iterable(islice(subsets, _SUBSET_CHUNK)),
                            dtype=np.intp).reshape(-1, k)
        if not len(chunk):
            return
        reach, live = own[chunk[:, 0]], np.arange(len(chunk))
        rows = reach.copy()
        for c in chunk.T[1:]:
            rows |= own[c]
        split = np.zeros(len(chunk), dtype=bool)
        while len(live):
            grown = reach.copy()
            for q, x in enumerate(reach.view(np.uint8)[:, :width].T):
                grown |= table[q, x]
            mine = rows[live]
            grown &= mine
            full = (grown == mine).all(axis=1)
            stuck = (grown == reach).all(axis=1) & ~full
            split[live[stuck]] = True
            keep = ~(full | stuck)
            live, reach = live[keep], grown[keep]
        yield chunk[split].astype(np.int32)


def enumerate_facets(g: Graph, k: int) -> CutComplex:
    """The disconnected k-subsets as facet complements, listed in ascending
    lexicographic order.  For k <= 3 they are selected by induced edge
    counts (:func:`_sparse_slabs`), for larger k by reach masks grown over
    chunks of subsets (:func:`_reach_slabs`), both in numpy.  The selected
    rows are stacked into the complex's complement array, canonical as
    built, and the tuples are read from its columns.  Only the k range
    of :func:`check_subset_count` is checked here, not its size guard."""
    N = g.n_vertices
    check_subset_count(N, k, force=True)
    slabs = _sparse_slabs(g, k) if k <= 3 else _reach_slabs(g, k)
    comp = np.concatenate([np.empty((0, k), dtype=np.int32), *slabs])
    cx = CutComplex(graph=g, k=k, facets=tuple(zip(*comp.T.tolist())))
    cx._kept[_complements.__name__] = comp
    return cx


def hex_cut_complex(m: int, n: int, k: int, force: bool = False) -> CutComplex:
    """The k-cut complex of H(m, n), refused by :func:`check_subset_count`
    before the graph is built."""
    check_subset_count(hex_vertex_count(m, n), k, force)
    return enumerate_facets(build_hex_graph(m, n), k)


def is_face(cx: CutComplex, sigma) -> bool:
    """True iff sigma is contained in some facet, i.e. the complement of
    sigma contains a k-subset inducing a disconnected subgraph.

    Runs without facet scans: searches k-subsets of the complement with
    early exit.
    """
    g = cx.graph
    N = g.n_vertices
    s = set(sigma)
    for v in s:
        if not (1 <= v <= N):
            raise VertexOutOfRange(f"vertex {v} outside [1,{N}]")
    rest = [v for v in range(1, N + 1) if v not in s]
    if len(rest) < cx.k:
        return False
    return any(not g.is_connected_subset(t) for t in combinations(rest, cx.k))


def downward_closure(masks, n_vertices: int) -> np.ndarray:
    """Boolean bitmap over the 2^N vertex subsets, set exactly at the subsets
    of some mask in ``masks`` (bit v-1 stands for vertex v).

    One in-place pass per vertex: viewing the bitmap as blocks of 2^(b+1)
    entries, the upper half of each block (bit b set) is ORed into the lower
    half (bit b clear).  Refuses N past ``BITMAP_VERTEX_CEILING`` whatever
    the caller's guards allow.
    """
    check_bitmap_ceiling(n_vertices)
    masks = np.fromiter(masks, dtype=np.int64)
    if masks.size and (masks.min() < 0 or int(masks.max()) >> n_vertices):
        raise VertexOutOfRange(f"a face mask has a vertex outside [1,{n_vertices}]")
    bitmap = np.zeros(1 << n_vertices, dtype=bool)
    bitmap[masks] = True
    for b in range(n_vertices):
        blocks = bitmap.reshape(-1, 2, 1 << b)
        blocks[:, 0, :] |= blocks[:, 1, :]
    return bitmap


@dataclass(frozen=True)
class FVector:
    """Face counts by dimension; ``counts[i]`` is the number of faces of
    dimension ``i - 1`` (index 0 holds the empty face)."""

    counts: tuple[int, ...]

    def f(self, dim: int) -> int:
        i = dim + 1
        if 0 <= i < len(self.counts):
            return self.counts[i]
        return 0

    @property
    def dim(self) -> int:
        return len(self.counts) - 2


def _closed_fvector(n_vertices: int, n_facets: int) -> FVector:
    """The closed-form face counts: C(N, j) for each size j up to N-4, then
    the facets at size N-3."""
    return FVector(tuple(comb(n_vertices, j) for j in range(n_vertices - 3)) + (n_facets,))


def _neighbour_paths(g: Graph) -> list[tuple[int, int, int]] | None:
    """The neighbour pairs of the graph as paths (a, v, c), a < c both
    adjacent to v, or None when a pair closes a triangle (a ~ c) or a
    4-cycle (a pair met at two middles v).  The first such pair ends the
    walk, so it reads at most C(N, 2) + 1 pairs.  Without either, the
    paths are exactly the connected triples, one per pair, and every
    4-set of vertices holds a disconnected triple: a 4-set whose four
    triples are all connected spans at least four of its six pairs, so a
    triangle or a 4-cycle."""
    paths, ends = [], set()
    for v in g.vertices():
        for a, c in combinations(g.neighbors(v), 2):
            if (a, c) in ends or g.is_edge(a, c):
                return None
            ends.add((a, c))
            paths.append((a, v, c))
    return paths


@_per_complex
def _closed_faces(cx: CutComplex) -> FVector | None:
    """The face counts of the complex, when this call shows it to be the
    full 3-cut complex of a graph with no triangle and no 4-cycle; None for
    every other complex.

    Without either, as the walk of :func:`_neighbour_paths` shows, the
    connected triples are exactly the paths a - v - c, one per pair, and
    every set of at most N - 4 vertices is a face: f_{j-1} = C(N, j) for
    j <= N - 4 and f(Delta) = 2^N - 1 - N - C(N, 2) - T for T pairs.  The
    canonical complements, distinct increasing triples of [1, N], are all
    the disconnected triples when no path is among them and there are
    C(N, 3) - T of them."""
    N = cx.n_vertices
    paths = _neighbour_paths(cx.graph) if cx.k == 3 else None
    if paths is None or cx.n_facets != comb(N, 3) - len(paths):
        return None
    try:
        _complements(cx)
    except InvalidParams:
        return None
    paths = np.sort(np.array(paths, dtype=np.int32).reshape(-1, 3), axis=1)
    if (_find_rows(cx, paths) >= 0).any():
        return None
    return _closed_fvector(N, cx.n_facets)


def f_vector(
    cx: CutComplex,
    mode: str = "auto",
    force: bool = False,
) -> FVector:
    """Face counts of the complex.

    ``exhaustive`` derives the facets from the graph, testing all C(N, k)
    subsets for disconnectedness without reading ``cx.facets``, so that it
    cross-checks the enumeration.  It closes them downward on one 2^N
    bitmap (guarded by ``EXHAUSTIVE_VERTEX_LIMIT`` unless ``force``, and by
    the bitmap ceiling before any subset is tested) and
    counts the set entries by popcount in fixed-size chunks; a subset is
    counted iff :func:`is_face` holds for it.  ``closed`` returns the
    counts of :func:`_closed_faces`, which the verifier's face count sums:
    for the full 3-cut complex of any graph with no triangle and no 4-cycle,
    as girth 6 promises for H(m, n), every 4-subset of V contains a
    disconnected triple, so every subset of size at most N-4 is a face.  It
    raises InvalidParams for any other complex, and ``auto`` falls back to
    exhaustive there, so the two always agree.
    """
    if mode not in ("auto", "exhaustive", "closed"):
        raise InvalidParams(f"unknown f-vector mode {mode!r}")
    closed = None if mode == "exhaustive" else _closed_faces(cx)
    if closed is not None:
        return closed
    if mode == "closed":
        raise InvalidParams("closed form requires the full 3-cut complex of a graph "
                            "with no triangle and no 4-cycle")

    N = cx.n_vertices
    check_size(N, "vertices of the exhaustive f-vector", EXHAUSTIVE_VERTEX_LIMIT, force)
    check_bitmap_ceiling(N)
    full = (1 << N) - 1
    facet_masks = [
        full ^ sum(1 << (v - 1) for v in t)
        for t in combinations(range(1, N + 1), cx.k)
        if not cx.graph.is_connected_subset(t)
    ]
    if not facet_masks:
        return FVector((0,))
    faces = downward_closure(facet_masks, N)
    counts = np.zeros(N + 1, dtype=np.int64)
    for start in range(0, faces.size, _COUNT_CHUNK):
        masks = np.flatnonzero(faces[start:start + _COUNT_CHUNK]) + start
        counts += np.bincount(np.bitwise_count(masks), minlength=N + 1)
    return FVector(tuple(int(c) for c in counts[: N - cx.k + 1]))


@dataclass(frozen=True)
class RowBlocks:
    """Rows of integers made a block at a time: each iteration calls
    ``blocks`` again, which yields 2-D int arrays of at least one column.
    The CLI writes them as the list of tuples they stand for, without
    holding the list."""

    blocks: Callable[[], Iterator[np.ndarray]]

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.blocks()

    @classmethod
    def of(cls, array: np.ndarray, rows: np.ndarray | None = None) -> RowBlocks:
        """The rows of the 2-D ``array``, or its ``rows`` in that order,
        ``_BLOCK_ROWS`` at a time, each block gathered as it is read."""
        count = len(array) if rows is None else len(rows)

        def blocks() -> Iterator[np.ndarray]:
            for lo in range(0, count, _BLOCK_ROWS):
                at = slice(lo, lo + _BLOCK_ROWS)
                yield array[at] if rows is None else array[rows[at]]

        return cls(blocks)


def facets_to_json_dict(cx: CutComplex) -> dict:
    return {
        "k": cx.k,
        "n_vertices": cx.n_vertices,
        "facet_complements": RowBlocks.of(_complements(cx)),
    }


def facets_to_csv(cx: CutComplex) -> str:
    lines = [",".join(str(v) for v in t) for t in cx.facets]
    return "\n".join(lines) + "\n"
