"""Facet orders on cut complexes and their verification.

The candidate shelling order of the 3-cut complex of a hexagonal grid sorts
facets by ascending lexicographic order of their complement triples, then
relocates the tail facets (facets whose complement is the open neighborhood
of a degree-3 center in the lower color class, per the arithmetic schedule
below) to the end.

An order is held as rows of its complex: entry p of ``rows`` is the row of
the complex's (eta, k) complement array that holds the facet at position
p + 1.  A complex lists its complements in strictly increasing lex order
(one built by hand that does not is refused with InvalidParams), so its
rows ascending are its lex order.  The builder makes the rows in numpy
from them, finding the relocated complements with
:func:`hexcut.cutcomplex._find_rows`; an order made by the constructor
finds its rows the same way on first use.  The verifier and the spanning
report read complements only through ``rows``, and a reader that needs
the position of a complement finds its row the same way and reads it
through the inverse of ``rows``.  ``facets`` stays the public tuple of
tuples; a ``position`` map given to the constructor is checked against
it and not kept.

Verification runs entirely in complement arithmetic, for any cut size k:
with facet complements of size k, an earlier facet F_r meets F_j in all but
one vertex exactly when F_r's complement is F_j's complement with one entry
swapped.  For each position j the swap set

    Lambda_j = { v not in F_j^c : some single entry of F_j^c can be
                 replaced by v to give an earlier facet complement }

decides everything: the order is a shelling iff every earlier complement
meets Lambda_j, and the facet at j is spanning iff Lambda_j covers all of
F_j (|Lambda_j| = N - k).

Lambda_j is the restriction set of F_j, so the intervals [Lambda_j, F_j]
cover the complex, and the sum of their sizes 2^(N - k - |Lambda_j|) equals
its face count f(Delta) exactly when the order is a shelling (Bjorner and
Wachs, "Shellable nonpure complexes and posets I", 1996, section 2).

One flow verifies every order.  The verifier keeps one bitmask per face, a
(k-1)-subset u of a complement, with bit z set iff u + {z} is a complement
passed so far; the complex numbers its faces and knows its face count,
once (:mod:`hexcut.cutcomplex`).  The swap rows are built a block at a
time, packed into ceil((N + 1) / 64) words per row, and no block is kept:
Lambda_j is the OR of the masks of the k faces of F_j^c.  An order opens
with a lex run, its longest strictly increasing prefix of rows, in lex
order as the complex is canonical.  Within the run earlier means
lex-smaller, so the run is passed into the masks once and each of its
rows is read from them by rank: the mask of the face without x_s cut to
the vertices below x_s.  The rows after the run are built in blocks of
4096 with prefix sums over the block, each block passed into the masks
as soon as it is read.  When
f(Delta) is known, for the full 3-cut complex of a graph with no triangle
and no 4-cycle, every row is built once and tallied, and the sum alone
passes the order.  Otherwise the rows are built again from the run's
masks, up to the first failing block: the run's rows are checked against
the run's masks, which name a failing row with no block at all, and then
the rows after the run block by block with the containment test below,
each block checked before it passes.  Together they name the failure of
an order the sum rejects; where f(Delta) is unknown the count is skipped,
so that they build each row once, and they decide the order.

Row j fails iff some earlier complement lies inside S_j = V - Lambda_j.
In the run, that is a complement of the run inside S_j and lex-smaller
than F_j^c: the face of F_j^c without its last entry x_k meets S_j below
x_k, or the mask of one of the M_j (k-1)-subsets of S_j lex-smaller than
that face meets S_j; a row scans its j earlier complements instead when
M_j is not below j.  After the run, every row of a block is scanned
against the complements of the block before it.  Against the complements
before the block, each row is checked along one of two exact paths: test
S_j against the masks of its (k-1)-subsets P, since S_j holds such a
complement iff masks[P] & S_j is nonzero for some P, or scan the j earlier
complements.  Reading the subsets starting at or below the last vertex
that starts a passed complement is enough, one vertex per block, so with
s = |S_j| and L the vertices of S_j up to that one, the subset test reads
C(s, k - 1) - C(s - L, k - 1) masks, and a row takes it when that is below
j.  Every scan tests containment bit-sliced: each vertex gets one mask
over the scanned rows, and a complement lies inside S_j exactly for the
rows in the AND of its k masks, k words per 64 rows.

Every row built on the pass that decides the order goes into one tally
(:class:`_Tally`): the count of each size |Lambda_j|, the positions and
complements of the spanning rows, and, at k = 3, the witness vertex of
each other row whose complement ends in N.  A passing order keeps the
:class:`SpanningReport` made from it, which :func:`spanning_facets`
returns, so Lambda is counted once per order and never stored.

The relocated order of H(m, n) is also verified streamed, with no complex
or order held (:func:`stream_shelling`; the CLI's ``order``, ``verify``
and ``spanning`` take this path).  Its rows are walked from the graph in
lex order in blocks, the tail complements held back and fed last.  The
base segment is one lex run, whose masks are built from the graph, so
each base block's swap rows are read by rank; the tail rows come from
the prefix-sum kernel.  The rows go into the same tally and are dropped, so
only the masks, C(N, 2) + 1 faces of ceil((N + 1) / 64) words, and the
tally outlive a block, and the stream returns the same report.  The walk
checks what :func:`hexcut.cutcomplex._closed_faces` checks of a complex,
and that every base row is in the masks; an order that fails a check, or
whose sum is not f(Delta), is left to the materialised verifier, which
names its failure.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property
from itertools import chain, combinations, compress
from math import comb
from operator import itemgetter

import numpy as np

from .cutcomplex import (
    _BLOCK_ROWS,
    CutComplex,
    RowBlocks,
    _canonical,
    _closed_faces,
    _closed_fvector,
    _complements,
    _face_numbers,
    _find_rows,
    _keys,
    _neighbour_paths,
    _Positions,
    _search,
    _sparse_slabs,
    _vertex_array,
    enumerate_facets,
    hex_facet_count,
)
from .errors import (
    CountWithoutFailure,
    IncompleteOrder,
    InvalidParams,
    NoTailFacets,
    OrdinalOutOfRange,
    TailFacetInvariantViolated,
    TailFacetNotFound,
    UnverifiedOrder,
)
from .hexgraph import Graph, HexGraph, hex_vertex_count

# The mask words read per numpy step by the subset test (one per candidate
# subset and row word) and by the containment kernel (one per complement
# and sliced row word, see _scan).  It bounds memory, as _BLOCK_ROWS does;
# steps of 2^15 words also ran the H(4,6) verify in 0.09 s against 0.14 s
# with 2^20 on one Xeon core.
_STEP_CELLS = 1 << 15
# The word with bits n..63 set, for n = 0..64.
_FROM_BIT = np.array([(1 << 64) - (1 << n) for n in range(65)], dtype=np.uint64)


# ---------------------------------------------------------------------------
# tail facets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailFacet:
    """A facet whose complement is the open neighborhood of its center."""

    index: int  # 1-based position in the tail schedule
    complement: tuple[int, int, int]
    center: int


def tail_facet_count(m: int, n: int) -> int:
    """Number of relocated tail facets: mn - 2 for m >= 2, n - 1 for m = 1."""
    hex_vertex_count(m, n)
    return m * n - 2 if m >= 2 else n - 1


def tail_facets(m: int, n: int, graph: HexGraph) -> list[TailFacet]:
    """The tail facet schedule, strictly increasing in complement-lex order.

    Two ranges of centers: for each row k = 1..n-1 the band of m centers
    i+m+(k-1) with (k-1)m < i <= km, then the m-2 top-row centers i+m+n
    with (n-1)m < i <= nm-2.  Every complement is checked to equal the open
    neighborhood of its center in ``graph``.
    """
    hex_vertex_count(m, n)
    h = m + n + m * n
    out: list[TailFacet] = []
    for k in range(1, n):
        for i in range((k - 1) * m + 1, k * m + 1):
            comp = (i + h + (k - 1), i + m + h + k, i + m + h + k + 1)
            out.append(TailFacet(len(out) + 1, comp, i + m + (k - 1)))
    for i in range((n - 1) * m + 1, n * m - 1):
        comp = (
            i + m + 2 * n + m * n,
            i + 2 * m + 2 * n + m * n,
            i + 2 * m + 2 * n + m * n + 1,
        )
        out.append(TailFacet(len(out) + 1, comp, i + m + n))

    if len(out) != tail_facet_count(m, n):
        raise TailFacetInvariantViolated(
            f"built {len(out)} tail facets, expected {tail_facet_count(m, n)}"
        )
    for prev, cur in zip(out, out[1:]):
        if not prev.complement < cur.complement:
            raise TailFacetInvariantViolated("tail schedule not complement-lex increasing")
    for t in out:
        x1, x2, x3 = t.complement
        if graph.neighbors(t.center) != t.complement:
            raise TailFacetInvariantViolated(
                f"tail facet {t.index}: complement {t.complement} is not the "
                f"neighborhood {graph.neighbors(t.center)} of center {t.center}"
            )
        if not (t.center <= graph.v1_boundary and x1 > graph.v1_boundary):
            raise TailFacetInvariantViolated(
                f"tail facet {t.index}: center/complement on wrong sides of the split"
            )
        if x3 != x2 + 1:
            raise TailFacetInvariantViolated(
                f"tail facet {t.index}: top two complement entries not consecutive"
            )
    return out


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellingOrder:
    """A linear order on the facets of a cut complex, frozen.

    ``facets`` lists complement tuples in order, and ``rows`` is the same
    order as rows of the complex, the array the verifier and the spanning
    report read; the order is nothing more.  ``position``, a complement ->
    1-based ordinal map, is only checked: the constructor raises
    IncompleteOrder unless it sends the complement at ordinal i to i and
    holds nothing else, and keeps no map, so ``dataclasses.replace``
    carries none.  The tail schedule, when relocated, occupies the last
    ``len(tail)`` positions in tail-index order.  A passing
    :func:`verify_shelling` is the one writer of ``_report``, the
    :class:`SpanningReport` tallied from the swap rows of this order; the
    order is ``verified`` exactly when it holds one.  The constructor and
    ``dataclasses.replace`` take no report and no rows, so every order
    they build is unverified, and :func:`spanning_facets` trusts
    ``verified`` without checking the order again.
    """

    cx: CutComplex
    facets: tuple[tuple[int, ...], ...]
    position: InitVar[dict[tuple[int, ...], int] | None] = None
    tail: tuple[TailFacet, ...] = ()
    base_count: int = 0
    _rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _report: SpanningReport | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, position):
        if position is not None and not (
                len(position) == len(self.facets)
                and all(position.get(f) == i for i, f in enumerate(self.facets, 1))):
            raise IncompleteOrder("position does not send each listed complement to its ordinal")

    @property
    def rows(self) -> np.ndarray:
        """Entry p is the row of the complex that holds the facet at
        position p + 1, int32, as a read-only view.  An order from
        :func:`_order` holds them from the start; any other order finds
        them on first read, matching ``facets`` against the complex, and
        keeps them.  Raises IncompleteOrder when a listed complement is no
        k-tuple or no facet, InvalidParams for a complex not canonical."""
        if self._rows is None:
            cx = self.cx
            try:
                comp = _vertex_array(self.facets, cx.k)
            except (OverflowError, ValueError):
                raise IncompleteOrder(f"order lists a complement that is no {cx.k}-tuple "
                                      "of int32 integers") from None
            rows = _find_rows(cx, comp)
            if (rows < 0).any():
                raise IncompleteOrder("order lists a complement that is no facet")
            object.__setattr__(self, "_rows", rows)
        rows = self._rows.view()
        rows.flags.writeable = False
        return rows

    @property
    def verified(self) -> bool:
        return self._report is not None

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def n_vertices(self) -> int:
        return self.cx.n_vertices


def _ordinals(order: ShellingOrder, complements) -> np.ndarray:
    """The 1-based position in ``order`` of each of ``complements``, or 0
    for one that is no facet: the rows found by :func:`_find_rows`, read
    through the inverse of ``order.rows``, scattered once."""
    ordinal = np.zeros(order.cx.n_facets + 1, dtype=np.int32)
    ordinal[order.rows] = np.arange(1, order.n_facets + 1, dtype=np.int32)
    return ordinal[_find_rows(order.cx, _vertex_array(complements, order.cx.k))]


def _tuples(cx: CutComplex, rows: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The complement tuples of ``rows``, taken from ``cx.facets``.  One
    itemgetter call gathers them fastest; it returns a bare item, not a
    tuple, for fewer than two rows."""
    listed = rows.tolist()
    if len(listed) < 2:
        return tuple(cx.facets[r] for r in listed)
    return itemgetter(*listed)(cx.facets)


def _order(cx: CutComplex, moved=(), tail=()) -> ShellingOrder:
    """The one order rule: the facet complements in lex order without
    ``moved``, then the ``moved`` complements in the order given, built as
    rows of the complex.  Raises TailFacetNotFound when a moved complement
    is not a facet, InvalidParams when the complex is not canonical."""
    at = _find_rows(cx, _vertex_array(moved, cx.k))
    if (at < 0).any():
        first = moved[int(np.flatnonzero(at < 0)[0])]
        raise TailFacetNotFound(f"complement {first} to relocate not among facets")
    keep = np.ones(cx.n_facets, dtype=bool)
    keep[at] = False
    base = np.flatnonzero(keep)
    rows = np.concatenate([base, at], dtype=np.int32)
    order = ShellingOrder(
        cx=cx,
        facets=_tuples(cx, rows),
        tail=tuple(tail),
        base_count=len(base),
    )
    object.__setattr__(order, "_rows", rows)
    return order


def _require_hex3(cx: CutComplex) -> HexGraph:
    if not isinstance(cx.graph, HexGraph) or cx.k != 3:
        raise InvalidParams("this order is defined for the hexagonal family with k=3")
    return cx.graph


def shelling_order(cx: CutComplex, relocate_tail: bool = True) -> ShellingOrder:
    """The candidate shelling order of the 3-cut complex of H(m, n).

    Base segment: complements ascending lexicographically.  With
    ``relocate_tail`` the tail facets are removed and appended at the end
    in schedule order; without it the plain sorted order is returned.
    """
    g = _require_hex3(cx)
    if not relocate_tail:
        return _order(cx)
    tail = tail_facets(g.m, g.n, g)
    return _order(cx, [t.complement for t in tail], tail)


def order_with_tail_reinserted(cx: CutComplex, tail_index: int) -> tuple[ShellingOrder, int]:
    """Relocated order with the single tail facet ``tail_index`` moved back
    to its sorted position among the base facets.

    Returns the order and the 1-based position where the facet was
    reinserted (the position at which verification must fail).  Raises
    TailFacetNotFound when a tail facet is not a facet of ``cx``.
    """
    g = _require_hex3(cx)
    tail = tail_facets(g.m, g.n, g)
    if not 1 <= tail_index <= len(tail):
        raise OrdinalOutOfRange(f"tail index {tail_index} outside [1,{len(tail)}]")
    rest = [t for t in tail if t.index != tail_index]
    order = _order(cx, [t.complement for t in rest], rest)
    t = tail[tail_index - 1]
    return order, _tail_position(t, *_ordinals(order, [t.complement]).tolist())


def _tail_position(t: TailFacet, p: int) -> int:
    """``p``, the position of the tail facet ``t`` as :func:`_ordinals`
    reads it; raises TailFacetNotFound when it is 0, no facet."""
    if not p:
        raise TailFacetNotFound(f"tail facet {t.index} complement {t.complement} not among facets")
    return p


# ---------------------------------------------------------------------------
# swap sets (Lambda_j)
# ---------------------------------------------------------------------------

def _swapped(c: tuple[int, ...], a: int, lam: int) -> tuple[int, ...]:
    """The complement c with its entry a swapped for lam, sorted."""
    return tuple(sorted((set(c) - {a}) | {lam}))


def swap_set(order: ShellingOrder, j: int) -> frozenset[int]:
    """Lambda_j for the 1-based position j, via k(N-k) lookups among the
    j - 1 earlier complements of ``order.facets``; the one-row reference
    for the swap table."""
    if not 1 <= j <= order.n_facets:
        raise OrdinalOutOfRange(f"position {j} outside [1,{order.n_facets}]")
    compl = order.facets[j - 1]
    earlier = set(order.facets[:j - 1])
    return frozenset(
        lam for lam in range(1, order.n_vertices + 1)
        if lam not in compl and any(_swapped(compl, a, lam) in earlier for a in compl)
    )


# ---------------------------------------------------------------------------
# the spanning report, tallied a block of swap rows at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpanningReport:
    """The spanning verdicts of a shelling, tallied from its swap rows by
    :class:`_Tally`: ``sizes[s]``, the number of rows with |Lambda_j| = s
    for s = 0..N - k; ``positions``, 0-based, and ``spanning``, (psi, k)
    int32 complements, of the spanning rows, |Lambda_j| = N - k; at k = 3,
    ``ends``, the (x, y) of each other row whose complement is {x, y, N},
    and ``witnesses``, for each, the least vertex in neither Lambda_j nor
    the complement.  The other fields are built on first read, with
    Python bools and ints.  ``non_spanning_pairs`` lists every (x, y),
    x < y < N, for which {x, y, N} is no spanning complement, whether its
    facet does not span or the triple is connected; every spanning
    complement holds N, so these pairs determine psi.  They are read from
    ``spanning`` in numpy, and so are the exports: only a library caller
    of ``spanning_complements`` or ``spanning_flags`` builds those tuples.
    Reports with equal content are equal."""

    n_vertices: int
    sizes: tuple[int, ...]
    positions: np.ndarray
    spanning: np.ndarray
    ends: np.ndarray
    witnesses: np.ndarray

    def __eq__(self, other):
        return isinstance(other, SpanningReport) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def n_facets(self) -> int:
        return sum(self.sizes)

    @property
    def psi(self) -> int:
        return len(self.positions)

    @cached_property
    def spanning_flags(self) -> tuple[bool, ...]:
        flags = np.zeros(self.n_facets, dtype=bool)
        flags[self.positions] = True
        return tuple(flags.tolist())

    @cached_property
    def spanning_complements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.spanning.tolist()))

    @cached_property
    def non_spanning_pairs(self) -> tuple[tuple[int, int], ...]:
        N, spanning = self.n_vertices, self.spanning
        spans = np.zeros((N, N), dtype=bool)  # spans[x, y]: {x, y, N} spans
        if spanning.shape[1] == 3:
            ends = spanning[spanning[:, 2] == N]
            spans[ends[:, 0], ends[:, 1]] = True
        # the pairs 1 <= x < y < N, in lex order, that do not span
        x, y = np.nonzero(np.triu(~spans[1:, 1:], 1))
        return tuple(zip((x + 1).tolist(), (y + 1).tolist()))

    @cached_property
    def witness_map(self) -> dict[tuple[int, int], int]:
        return dict(zip(map(tuple, self.ends.tolist()), self.witnesses.tolist()))


class _Tally:
    """The spanning report of an order, counted from its packed swap rows
    one block at a time, in order, keeping none of them."""

    def __init__(self, N: int, k: int):
        self.N, self.k, self.rows = N, k, 0
        self.sizes = np.zeros(N - k + 1, dtype=np.int64)
        # per block: the positions and complements of the spanning rows,
        # then the ends and witnesses; the first block is empty
        self.blocks = [(np.empty(0, dtype=np.intp), np.empty((0, k), dtype=np.int32),
                        np.empty((0, 2), dtype=np.int32), np.empty(0, dtype=np.intp))]

    def add(self, comp: np.ndarray, rows: np.ndarray) -> None:
        """Count the packed swap ``rows`` of the complements ``comp``, the
        block that follows the rows counted so far."""
        N, k = self.N, self.k
        size = np.bitwise_count(rows).sum(axis=1, dtype=np.intp)
        self.sizes += np.bincount(size, minlength=N - k + 1)
        span = size == N - k
        ends = np.flatnonzero(~span & (comp[:, -1] == N)) if k == 3 else np.empty(0, np.intp)
        # bit v of a row: v is in the swap set, in the complement, or v = 0
        seen = np.unpackbits(rows[ends].view(np.uint8), axis=1, bitorder="little")[:, :N + 1]
        seen[:, 0] = 1
        seen[np.arange(len(ends))[:, None], comp[ends]] = 1
        self.blocks.append((self.rows + np.flatnonzero(span), comp[span], comp[ends, :2],
                            seen.argmin(axis=1)))
        self.rows += len(comp)

    def report(self) -> SpanningReport:
        parts = [np.concatenate(part) for part in zip(*self.blocks)]
        for part in parts:
            part.flags.writeable = False
        return SpanningReport(self.N, tuple(self.sizes.tolist()), *parts)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    counterexample: tuple[int, int] | None  # 1-based (i, j), minimal in (j, i)
    pairs_checked: int  # pairs of the O(eta^2) definition, not the work done
    jobs: int

    @classmethod
    def passed(cls, eta: int, jobs: int) -> VerifyResult:
        """The result of a shelling of ``eta`` facets: no counterexample,
        and every pair i < j of the definition checked."""
        return cls(True, None, eta * (eta - 1) // 2, jobs)


def _colex_subsets(s: int, k: int) -> np.ndarray:
    """The k-subsets of range(s) in colex order as k rows of int32 indices,
    so that the first C(t, k) columns are exactly the k-subsets of range(t).
    Colex order is the lex order of the mirrored subsets, x -> s - 1 - x,
    read backwards, so no sort is needed."""
    t = np.array(list(combinations(range(s), k)), dtype=np.int32).reshape(comb(s, k), k)
    return (s - 1 - t[::-1, ::-1]).T


class _Faces:
    """The complements passed so far, one mask of W = ceil((N + 1) / 64)
    uint64 words per face, and nothing else.  A face is a (k-1)-subset u of
    a complement, so each complement has k of them, and bit z of the mask
    of u is set iff u + {z} is a complement already passed.  The faces are
    numbered below ``count`` (:func:`_face_numbers` for a complex, colex
    ranks for a stream), plus one mask past them; a (k-1)-subset that is no
    face reads its own mask or that last one, which stay zero.  Masks are
    stored word by word, so that a gather reads one contiguous array per
    word, and change only between row blocks.  A block comes as its
    complements ``comp``, rows of k vertices, and ``face``, where
    ``face[i, s]`` numbers the face of complement i without its entry s.
    ``vertices`` packs V = {1..N}, and ``packed(vertex <= last)`` bounds
    the subsets starting at or below the last vertex that starts a passed
    complement."""

    def __init__(self, N: int, count: int):
        self.masks = np.zeros(((N + 64) // 64, count + 1), dtype="<u8")
        self.vertex = np.arange(N + 1)
        self.vertex_bit = np.left_shift(np.uint64(1), (self.vertex & 63).astype(np.uint64))
        self.vertices = self.packed(self.vertex > 0)
        # below[w, x], word w of the vertices 1..x - 1, stored like the masks
        below = (0 < self.vertex) & (self.vertex < self.vertex[:, None])
        self.below = np.ascontiguousarray(self.packed(below).T)

    def packed(self, flags: np.ndarray) -> np.ndarray:
        """Rows of per-vertex flags, vertices 0..N, as rows of W words."""
        bits = np.where(flags, self.vertex_bit, np.uint64(0))
        return np.bitwise_or.reduceat(bits, np.arange(0, len(self.vertex_bit), 64), axis=-1)

    def swap_rows(self, comp: np.ndarray, face: np.ndarray) -> np.ndarray:
        """The packed swap rows of the block ``comp``, bit v of row r set iff
        v lies in Lambda of its complement r.  The masks must stand at the
        block, every complement before it passed and none after.

        Lambda_j is the OR of the masks of the k faces of F_j^c as they
        stand at j: the mask at the block, plus the extra vertices of the
        rows of the block before j that share the face.  Those vertices are
        distinct bits, so their OR is an exclusive prefix sum over the
        (face, row) entries sorted stably by face, exact modulo 2^64.  A
        face of F_j^c plus z is F_j^c itself only for the z it left out,
        which comes at j, not before, so no entry of F_j^c is set."""
        words, columns = self.masks.shape
        face = face.reshape(-1)
        # a stable argsort of int16 keys is a radix sort
        order = np.argsort(face.astype(np.int16) if columns <= 1 << 15 else face, kind="stable")
        face = face[order]
        head = np.flatnonzero(np.diff(face, prepend=-1))
        head = np.repeat(head, np.diff(head, append=len(face)))
        rows, k = comp.shape
        comp = comp.reshape(-1)[order]
        word, bit = comp >> 6, self.vertex_bit[comp]
        entries = np.empty((len(face), words), dtype="<u8")
        for w in range(words):
            own = np.where(word == w, bit, 0)
            sums = np.cumsum(own, dtype="<u8")
            sums -= own  # exclusive
            entries[order, w] = (sums - sums[head]) | self.masks[w, face]
        return np.bitwise_or.reduce(entries.reshape(rows, k, words), axis=1)

    def rank_rows(self, comp: np.ndarray, face: np.ndarray) -> np.ndarray:
        """The packed swap rows of the block ``comp``, as :meth:`swap_rows`
        gives them, when the block belongs to a lex run: a stretch of an
        order listing complements in increasing lex order, whose every
        complement, and none other, the masks hold.

        Within the run, earlier means lex-smaller, and u + {z}, for the face
        u of F_j^c without its entry x_s, is lex-smaller than F_j^c exactly
        when z < x_s.  So Lambda_j is the OR over s of the mask of that face
        cut to the vertices below x_s: k gathers per word, for any k, with
        no sort and no prefix sum, and the masks do not change."""
        rows = np.zeros((self.masks.shape[0], len(comp)), dtype="<u8")
        for s in range(comp.shape[1]):
            below = np.take(self.below, comp[:, s], axis=1)
            rows |= np.take(self.masks, face[:, s], axis=1) & below
        return np.ascontiguousarray(rows.T)

    def pass_rows(self, comp: np.ndarray, face: np.ndarray) -> None:
        """Pass the block ``comp``: set each complement's bits in the masks
        of its faces."""
        np.bitwise_or.at(self.masks, (comp >> 6, face), self.vertex_bit[comp])


def _sliced(inside: np.ndarray, vertices: int) -> np.ndarray:
    """The packed rows ``inside`` sliced by vertex: ``out[v]`` holds
    ceil(R / 64) words for R rows, bit b of word w set iff vertex v lies in
    row 64 w + b."""
    rows = len(inside)
    # a contiguous transpose, so that packbits runs along the last axis
    bits = np.zeros((vertices, -(-rows // 64) * 64), dtype=np.uint8)
    bits[:, :rows] = np.unpackbits(inside.view(np.uint8), axis=1, count=vertices,
                                   bitorder="little").T
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


def _rows_of(words: np.ndarray) -> np.ndarray:
    """The rows whose bits are set in ``words``, shaped like one vertex of
    :func:`_sliced`, in ascending order."""
    return np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))


def _contained(sliced, cols, p, ords) -> np.ndarray:
    """For each complement p, given by its k vertices ``cols``, the words of
    the rows that hold it and come after it: the AND of its k vertex masks
    in ``sliced``, cut to the rows whose position in ``ords`` exceeds p.  A
    test of one complement against R rows reads k words per 64 rows."""
    hit = sliced[cols[:, 0]]
    for c in range(1, cols.shape[1]):
        hit &= sliced[cols[:, c]]
    # rows before ``after`` lie at or before p
    after = np.searchsorted(ords, p, side="right")
    # clear the words before the one that holds row ``after``, then cut that
    # word; when every row lies at or before p, after & 63 is 0 and the
    # last word, already cleared, is ANDed with all ones
    cut = after >> 6
    width = hit.shape[1]
    hit[np.arange(width) < cut[:, None]] = 0
    hit[np.arange(len(hit)), np.minimum(cut, width - 1)] &= _FROM_BIT[after & 63]
    return hit


def _scan(inside, ords, faces, comp, start):
    """The rows ``inside`` at positions ``ords``, ascending, against the
    complements ``comp`` from ``start`` up to each row, in steps of at most
    ``_STEP_CELLS`` words of :func:`_contained`.  A step over the
    complements [a, b) reads only the words from w, the word that holds
    the first row after a, so a block's scan of its own complements walks
    a triangle; yields a, w and the words of the step."""
    sliced = _sliced(inside, len(faces.vertex))
    a, end, width = start, int(ords[-1]), sliced.shape[1]
    while a < end:
        w = int(np.searchsorted(ords, a, side="right")) // 64
        b = min(a + max(1, _STEP_CELLS // (width - w)), end)
        yield a, w, _contained(sliced[:, w:], comp[a:b], np.arange(a, b), ords[64 * w:])
        a = b


def _first_row(inside, ords, faces, comp, start) -> list[int]:
    """The first of the rows ``inside`` at positions ``ords`` that holds a
    complement of ``comp`` from ``start`` before it, as a list of at most
    one index."""
    bad = np.zeros(-(-len(ords) // 64), dtype="<u8")
    for _, w, hit in _scan(inside, ords, faces, comp, start):
        bad[w:] |= np.bitwise_or.reduce(hit, axis=0)
    return _rows_of(bad)[:1].tolist()


def _subset_failure(inside, sel, size, skip, span, faces, index, subsets) -> int | None:
    """The first of the rows ``sel`` for which masks[P] & S_j is nonzero,
    with P running over the columns [skip, skip + span) of ``subsets`` over
    the vertices of S_j in descending order, each found by ``index``, or
    None.  ``inside`` holds the packed S_j; rows are read in ragged steps
    of at most ``_STEP_CELLS`` mask words, or one row."""
    words = inside.shape[1]
    # the vertices of each S_j in descending order, one row after another:
    # bit 64 W - 1 - c of a row is the big-endian bit c of its reversed bytes
    bits = np.unpackbits(inside[sel].view(np.uint8)[:, ::-1], bitorder="big")
    support = (64 * words - 1 - np.flatnonzero(bits) % (64 * words)).astype(np.int32)
    del bits
    offset = (np.cumsum(size[sel]) - size[sel]).astype(np.int32)
    skip, span, inside = skip[sel].astype(np.int32), span[sel], inside[sel].T.copy()
    ends = np.cumsum(span)
    budget = max(1, _STEP_CELLS // words)
    a = 0
    while a < len(sel):
        e = max(a + 1, int(np.searchsorted(ends, ends[a] - span[a] + budget, "right")))
        n = span[a:e]
        cell_row = np.repeat(np.arange(a, e, dtype=np.int32), n)
        column = np.arange(len(cell_row), dtype=np.int32)
        column += np.repeat(skip[a:e] - (np.cumsum(n) - n).astype(np.int32), n)
        base = offset[cell_row]
        # places ascend in vertex order, so descend in support index
        at = index([support[base + c] for c in subsets[::-1, column]])
        del column, base  # freed before the wider uint64 gathers, which set the peak
        hit = np.take(faces.masks[0], at) & np.take(inside[0], cell_row)
        for w in range(1, words):
            hit |= np.take(faces.masks[w], at) & np.take(inside[w], cell_row)
        if hit.any():
            return int(sel[cell_row[np.flatnonzero(hit)[0]]])
        a = e
    return None


def _first_failure(rows, lo, last, faces, comp, index, choose,
                   subsets) -> tuple[int, int] | None:
    """The 0-based (i, j) with j the smallest position among the packed
    swap rows lo.. whose S_j contains an earlier complement of ``comp``,
    and i the first such complement.

    Every row of the block is scanned against the complements of the block
    before it.  Against the complements before lo, each row is checked
    along one of two exact paths (:func:`_name_first`): test (k-1)-subsets
    P of S_j against the face masks as they stand at lo, or scan the j
    earlier complements.  Row j fails the test iff some masks[P] & S_j is
    nonzero.  ``last`` is the largest first vertex of a complement before
    lo (0 for none), and the face of such a complement that drops its last
    entry starts at or below it.  So only the subsets starting at or below
    the last vertex that starts a passed complement are read: listed in
    colex order over the s vertices of S_j in descending order, they are
    the columns [C(s - L, k - 1), C(s, k - 1)) of ``subsets``, where L
    counts the vertices of S_j at or below ``last``.

    Scans are bit-sliced (:func:`_scan`): every vertex gets one mask over
    the rows, and a complement lies inside S_j for the rows in the AND of
    its k masks.  A subset row costs C(s, k - 1) - C(s - L, k - 1) lookups;
    the block's scan costs k/64 words per pair of a row and an earlier
    complement of the block, and a scanned row k/64 words per earlier
    complement."""
    ords = np.arange(lo, lo + len(rows))
    inside = ~rows & faces.vertices  # S_j
    size = np.bitwise_count(inside).sum(axis=1, dtype=np.int64)  # |S_j|
    L = np.bitwise_count(inside & faces.packed(faces.vertex <= last)).sum(axis=1, dtype=np.int64)
    skip = choose[size - L]
    failing = _first_row(inside, ords, faces, comp, lo)
    return _name_first(failing, inside, ords, size, skip, choose[size] - skip,
                       faces, comp, index, choose, subsets)


def _run_failure(rows, lo, faces, comp, face, index, binom,
                 subsets) -> tuple[int, int] | None:
    """The 0-based (i, j), minimal in (j, i), with j among the packed swap
    ``rows`` from position lo, a block of the lex run that opens the order
    of the complements ``comp`` with faces ``face``, or None.  The masks of
    ``faces`` hold exactly the run's complements, and are only read, so
    each row is checked on its own.

    Within the run, earlier means lex-smaller, so S_j holds an earlier
    complement D exactly when, with x_k the last entry of F_j^c and u the
    face of F_j^c without it, either D is u + {z} for some z below x_k,
    which the mask of u meets in S_j, or D without its last entry is a
    (k-1)-subset P of S_j lex-smaller than u, and then every complement
    P + {z} is lex-smaller than F_j^c, so masks[P] & S_j is nonzero.  In
    colex order over the s vertices of S_j in descending order, the
    (k-1)-subsets of S_j come in descending lex order, so the M_j
    lex-smaller than u are the last M_j columns for range(s) of
    ``subsets``: skip = C(s, k - 1) - M_j and span = M_j, with
    C(s, k - 1) - 1 - M_j the colex rank of u.  ``binom[t, s]`` is
    C(s, t) capped at eta, and the colex rank sums capped binomials, exact
    for every row that takes the subset test."""
    k = comp.shape[1]
    hi = lo + len(rows)
    run, choose = comp[lo:hi], binom[k - 1]
    inside = ~rows & faces.vertices  # S_j
    size = np.bitwise_count(inside).sum(axis=1, dtype=np.int64)  # |S_j|
    rank = np.zeros(hi - lo, dtype=np.int64)
    for c in range(k - 1):
        # the vertices of S_j above x_{c+1}, its place in descending order
        low = np.take(faces.below, run[:, c], axis=1) & inside.T
        place = size - 1 - np.bitwise_count(low).sum(axis=0, dtype=np.int64)
        rank += binom[k - 1 - c, place]
    low = np.take(faces.below, run[:, -1], axis=1) & inside.T
    hit = np.take(faces.masks, face[lo:hi, -1], axis=1) & low
    return _name_first(np.flatnonzero(hit.any(axis=0))[:1].tolist(), inside,
                       np.arange(lo, hi), size, rank + 1, choose[size] - 1 - rank,
                       faces, comp, index, choose, subsets)


def _name_first(failing, inside, ords, size, skip, span, faces, comp, index, choose,
                subsets) -> tuple[int, int] | None:
    """The 0-based (i, j) of the first failing row among the packed S_j
    ``inside`` of the rows at positions ``ords``, or None, given the list
    ``failing`` of rows already found to fail.  A row with fewer than eta
    (k-1)-subsets of S_j (``choose[size]``) and a ``span`` below j tests
    masks[P] & S_j for the subsets P at columns [skip, skip + span) of
    ``subsets`` (:func:`_subset_failure`); every other row scans the j
    earlier complements.  i is the first complement inside S_j of the first
    failing row, found by the one-row scan."""
    by_subsets = (choose[size] < len(comp)) & (span < ords)
    sel = np.flatnonzero(by_subsets & (span > 0))
    j = _subset_failure(inside, sel, size, skip, span, faces, index, subsets)
    if j is not None:
        failing.append(j)
    sel = np.flatnonzero(~by_subsets)
    if len(sel):
        failing.extend(sel[_first_row(inside[sel], ords[sel], faces, comp, 0)].tolist())
    if not failing:
        return None
    j = min(failing)
    hits = _scan(inside[j:j + 1], ords[j:j + 1], faces, comp, 0)
    return next(a + int(np.flatnonzero(hit)[0]) for a, _, hit in hits if hit.any()), int(ords[j])


def _interval_sum(sizes: np.ndarray) -> int:
    """The sum over j of 2^(N - k - |Lambda_j|), in Python ints, from
    ``sizes[s]``, the number of rows with |Lambda_j| = s for s = 0..N - k.

    The intervals [Lambda_j, F_j] cover Delta, so the sum is at least
    f(Delta), and it equals f(Delta) exactly when the order is a shelling
    (Bjorner and Wachs, "Shellable nonpure complexes and posets I", 1996,
    section 2)."""
    top = len(sizes) - 1
    return sum(count << (top - size) for size, count in enumerate(sizes.tolist()))


def _blocks(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The row blocks [a, b) of at most ``_BLOCK_ROWS`` rows that cover
    lo..hi - 1, in order."""
    return ((a, min(a + _BLOCK_ROWS, hi)) for a in range(lo, hi, _BLOCK_ROWS))


def _row_blocks(faces: _Faces, comp, face, run: int) -> Iterator[tuple[int, np.ndarray]]:
    """The packed swap rows of the complements ``comp`` with faces
    ``face``, bit v of row j set iff v lies in Lambda_{j+1}, in W uint64
    words per row, one block at a time: yields the first position lo of
    each block and its rows, and keeps none.  The first ``run`` rows form
    a lex run, whose complements, and no other, the masks of ``faces``
    must hold: they are read by rank, and the masks stay as they are.
    Each block after the run is built by prefix sums from the masks as
    they stand at it, and passed into them once the caller has read it."""
    for lo, hi in _blocks(0, run):
        yield lo, faces.rank_rows(comp[lo:hi], face[lo:hi])
    for lo, hi in _blocks(run, len(comp)):
        yield lo, faces.swap_rows(comp[lo:hi], face[lo:hi])
        faces.pass_rows(comp[lo:hi], face[lo:hi])


def _subset_table(eta: int, k: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """``binom[t, s]``, C(s, t) capped at eta for t = 0..k - 1 and
    s = 0..N, and the (k-1)-subsets of range(s) in colex order for the
    largest s with fewer than eta of them: the subset tests of the
    containment check read them."""
    binom = np.array([[min(comb(s, t), eta) for s in range(N + 1)] for t in range(k)])
    s = int(np.flatnonzero(binom[k - 1] < eta).max(initial=0))
    return binom, _colex_subsets(s, k - 1)


def _failure(faces: _Faces, comp, face, index, run: int,
             tally: _Tally | None) -> tuple[int, int] | None:
    """The failing 0-based (i, j), minimal in (j, i), of the order of the
    complements ``comp`` with faces ``face``, or None, with the masks of
    ``faces`` holding the ``run`` complements of the lex run that opens
    it.  The rows are rebuilt block by block (:func:`_row_blocks`), up to
    the first block holding a failing row, and ``tally``, when given,
    counts each.  A block of the run is checked against the run's masks
    (:func:`_run_failure`), a block after it against the masks as they
    stand at it (:func:`_first_failure`), which it passes into only once
    checked.  ``index`` finds a face, as :meth:`_Positions.index` does."""
    eta, k = comp.shape
    binom, subsets = _subset_table(eta, k, len(faces.vertex) - 1)
    last = int(comp[:run, 0].max(initial=0))  # the largest first vertex before the block
    for lo, rows in _row_blocks(faces, comp, face, run):
        hi = lo + len(rows)
        if tally is not None:
            tally.add(comp[lo:hi], rows)
        if hi <= run:
            failure = _run_failure(rows, lo, faces, comp, face, index, binom, subsets)
        else:
            failure = _first_failure(rows, lo, last, faces, comp, index, binom[k - 1], subsets)
            last = max(last, int(comp[lo:hi, 0].max()))
        if failure is not None:
            return failure
    return None


def _run_length(rows: np.ndarray) -> int:
    """The length of the longest strictly increasing prefix of ``rows``."""
    down = np.flatnonzero(rows[1:] <= rows[:-1])
    return int(down[0]) + 1 if len(down) else len(rows)


def _verify(order: ShellingOrder) -> tuple[SpanningReport | None, tuple[int, int] | None]:
    """The spanning report of the order when it is a shelling, else None,
    and the failing 0-based (i, j), minimal in (j, i), or None.

    The order's complements and face numbers are gathered once, and the
    lex run that opens it, which the canonical complex lists in lex order,
    is passed into the masks once.  When :func:`_closed_faces` knows the
    face counts, every row is built once (:func:`_row_blocks`), tallied
    and dropped, and the order passes iff the interval sum is f(Delta).
    Otherwise :func:`_failure` rebuilds the rows from the run's masks up
    to the first failing block and names the failure, or raises
    CountWithoutFailure when it finds none.  Without f(Delta) the count
    is skipped and :func:`_failure` alone decides, tallying each row it
    builds, so every row is still built once."""
    cx = order.cx
    pos = _face_numbers(cx)
    # np.take gathers rows faster than fancy indexing does
    comp = np.take(_complements(cx), order.rows, axis=0)
    face = np.take(pos.face, order.rows, axis=0)
    faces = _Faces(cx.n_vertices, pos.count)
    r = _run_length(order.rows)
    faces.pass_rows(comp[:r], face[:r])
    tally = _Tally(cx.n_vertices, cx.k)
    closed = _closed_faces(cx)
    if closed is not None:
        run = faces.masks.copy()  # the run's masks, kept while the rows after it pass
        for lo, rows in _row_blocks(faces, comp, face, r):
            tally.add(comp[lo:lo + len(rows)], rows)
        total = sum(closed.counts)
        if _interval_sum(tally.sizes) == total:
            return tally.report(), None
        faces.masks, tally = run, None
    failure = _failure(faces, comp, face, pos.index, r, tally)
    if failure is not None:
        return None, failure
    if tally is None:
        raise CountWithoutFailure(
            f"the interval sum differs from the {total} faces, but no row fails")
    return tally.report(), None


def _cover(order: ShellingOrder) -> np.ndarray:
    """The one cover check: the order's rows, rows of its canonical
    complex, when bincount counts each row of the complex exactly once.
    Raises IncompleteOrder otherwise."""
    cx, rows = order.cx, order.rows
    if not (np.bincount(rows, minlength=cx.n_facets) == 1).all():
        raise IncompleteOrder("order does not cover the facets exactly once")
    return rows


def verify_shelling(order: ShellingOrder, jobs: int = 1) -> VerifyResult:
    """Check the single-swap shelling condition over every pair i < j.

    Returns ok, or the failing pair (i, j) minimal in (j, i) order.  The
    order must list each facet of its complex once, or IncompleteOrder is
    raised: an order from the builder holds its rows of the complex, any
    other finds them by an exact match of ``facets`` against the complex,
    and the rows must name each row of the complex once.
    A passing run attaches its spanning report to the order, which marks
    it verified; a failing run attaches nothing.

    The swap rows are built a block at a time and tallied, none kept; the
    rows of the lex run that opens the order, its longest strictly
    increasing prefix of rows, are read by rank from the run's masks.  For
    the full 3-cut complex of a graph with no triangle and no 4-cycle,
    shown to be one from the graph's neighbour pairs and the complements
    of the complex, once per complex, f(Delta) = 2^N - 1 - N - C(N, 2) - T
    for T connected triples: every row is built once, with no containment
    check, and the order passes iff the sum of 2^(N - k - |Lambda_j|)
    equals f(Delta).  Every other order has its rows built again, block by
    block, and checked with the containment test up to the first failing
    block, which names the first failure: row j fails iff an earlier
    complement lies inside S_j = V - Lambda_j, tested for any k by
    (k-1)-subsets of S_j against the face masks or by a bit-sliced scan
    of the j earlier complements, as the module docstring details.  Where
    f(Delta) is unknown that pass is the only one, and finding no failure
    passes the order; a rejected sum whose check finds no failure raises
    CountWithoutFailure.  Faces are numbered once per complex, by colex
    rank while the C(N, k - 1) ranks fit
    ``cutcomplex.POSITION_TABLE_LIMIT``, or past it by binary search among
    their sorted big-endian bytes, exact for any k and N.
    ``jobs`` is validated and echoed, and changes nothing.  ``pairs_checked``
    counts the pairs of the O(eta^2) definition, not the work done.
    """
    if jobs < 1:
        raise InvalidParams(f"jobs must be >= 1, got {jobs}")
    _cover(order)
    report, failure = _verify(order)
    if failure is not None:
        i, j = failure
        return VerifyResult(False, (i + 1, j + 1), j * (j + 1) // 2, jobs)
    object.__setattr__(order, "_report", report)  # the one write of a report to an order
    return VerifyResult.passed(order.n_facets, jobs)


# ---------------------------------------------------------------------------
# the relocated order of H(m, n), streamed
# ---------------------------------------------------------------------------

def _lex_blocks(g: Graph, moved: np.ndarray) -> Iterator[np.ndarray]:
    """The disconnected triples of ``g`` in lex order less the rows of
    ``moved``, as int32 blocks of ``_BLOCK_ROWS`` rows but the last, read
    from :func:`hexcut.cutcomplex._sparse_slabs` one slab per first vertex;
    the streamed base segment of :func:`_order`.  After the last block,
    raises TailFacetNotFound unless every row of ``moved`` was met."""
    keys, found, pending = _keys(moved), 0, []
    for a, slab in enumerate(_sparse_slabs(g, 3), 1):
        mine = keys[moved[:, 0] == a]
        if len(mine):
            at = _search(_keys(slab), mine)
            at = at[at < len(slab)]
            found += len(at)
            slab = np.delete(slab, at, axis=0)
        pending.append(slab)
        if sum(map(len, pending)) >= _BLOCK_ROWS:
            rows = np.concatenate(pending)
            cut = len(rows) - len(rows) % _BLOCK_ROWS
            for lo in range(0, cut, _BLOCK_ROWS):
                yield rows[lo:lo + _BLOCK_ROWS]
            pending = [rows[cut:]]
    rows = np.concatenate([np.empty((0, 3), dtype=np.int32), *pending])
    if len(rows):
        yield rows
    if found != len(moved):
        raise TailFacetNotFound(f"{len(moved) - found} complements to relocate not among facets")


def _base_blocks(g: Graph, moved: np.ndarray) -> Iterator[tuple[bool, np.ndarray]]:
    """The blocks of :func:`_lex_blocks`, each with True iff its rows are
    canonical and continue the strictly increasing lex order of the blocks
    before it."""
    last = np.empty((0, 3), dtype=np.int32)
    for block in _lex_blocks(g, moved):
        yield _canonical(np.concatenate([last, block]), g.n_vertices), block
        last = block[-1:]


def _triple_masks(faces: _Faces, pos: _Positions, removed: np.ndarray) -> None:
    """Set the masks of ``faces``, numbered by the colex ranks of ``pos``,
    to those of every triple of [1, N] but the rows of ``removed``: bit z
    of face {x, y} set iff z is neither x nor y and {x, y, z} is no sorted
    row of ``removed``.  The mask past the faces stays zero."""
    x, y = np.triu_indices(len(faces.vertex) - 1, 1)
    x, y = x + 1, y + 1
    at = pos.index([x, y])
    faces.masks[:, at] = faces.vertices[:, None]
    for v in (x, y):
        faces.masks[v >> 6, at] &= ~faces.vertex_bit[v]
    np.bitwise_and.at(faces.masks, (removed >> 6, pos.faces(removed)),
                      ~faces.vertex_bit[removed])


def stream_shelling(g: HexGraph) -> SpanningReport | None:
    """Verify the relocated order of the 3-cut complex of ``g``, the order
    of :func:`shelling_order`, block by block, holding no complex, order or
    swap row past its block: only the face masks outlive a block,
    C(N, 2) + 1 faces numbered by colex rank, of ceil((N + 1) / 64) words
    each.  The base segment comes from :func:`_lex_blocks` with the tail
    complements held back, then the tail in schedule order.  Each block's
    swap rows are built and tallied (:class:`_Tally`) into the spanning
    report that :func:`spanning_facets` gives for the materialised order.

    The base segment is one lex run, so its rows are read by rank
    (:meth:`_Faces.rank_rows`) from the masks of the whole run, built from
    the graph: bit z of face {x, y} is set iff {x, y, z} is neither a path
    nor a tail complement.  The tail rows are built from those masks by
    the prefix-sum kernel and passed into them.

    The order passes only once the walk shows that it lists each facet of
    a complex with known f(Delta) once, as :func:`_closed_faces` would, and
    that the base segment is the run the masks hold: the graph has no
    triangle and no 4-cycle (:func:`_neighbour_paths`), the base rows
    strictly increase in lex order across blocks and each is set in the
    masks (bit x_3 of face {x_1, x_2}), every tail complement is met once
    among them, there are C(N, 3) - T rows for T paths, and no path is
    listed, read once from the final masks as bit z of face {x, y} for each
    sorted path (x, y, z); then the interval sum must equal f(Delta).
    Returns the report, or None when any check fails, and the caller
    verifies the materialised order instead, which names the failure.  The
    caller checks the subset guard first, as for a materialised order."""
    N = g.n_vertices
    paths = _neighbour_paths(g)
    pos = _Positions(np.empty((0, 3), dtype=np.int32), N)
    if paths is None or not pos.dense:
        return None
    moved = _vertex_array([t.complement for t in tail_facets(g.m, g.n, g)], 3)
    paths = np.sort(np.array(paths, dtype=np.int32).reshape(-1, 3), axis=1)
    faces = _Faces(N, pos.count)
    _triple_masks(faces, pos, np.concatenate([paths, moved]))
    tally = _Tally(N, 3)
    try:
        for canonical, block in _base_blocks(g, moved):
            face = pos.faces(block)
            x3 = block[:, 2]
            held = faces.masks[x3 >> 6, face[:, 2]] & faces.vertex_bit[x3]
            if not canonical or not held.all():
                return None
            tally.add(block, faces.rank_rows(block, face))
    except TailFacetNotFound:
        return None
    face = pos.faces(moved)
    tally.add(moved, faces.swap_rows(moved, face))
    faces.pass_rows(moved, face)
    x, y, z = paths.T
    listed = faces.masks[z >> 6, pos.index([x, y])] & faces.vertex_bit[z]
    total = tally.rows
    if (total != comb(N, 3) - len(paths) or listed.any()
            or _interval_sum(tally.sizes) != sum(_closed_fvector(N, total).counts)):
        return None
    return tally.report()


# ---------------------------------------------------------------------------
# spanning facets
# ---------------------------------------------------------------------------

def spanning_count_formula(m: int, n: int) -> int:
    """Closed form for the number of spanning facets:
    C(N-1, 2) - [(6m+2)n + (2m-4)], the subtracted term being the induced
    path count 6mn + 2m + 2n - 4."""
    N = hex_vertex_count(m, n)
    return comb(N - 1, 2) - ((6 * m + 2) * n + (2 * m - 4))


def spanning_facets(order: ShellingOrder) -> SpanningReport:
    """The spanning report that the order's passing verification tallied
    and kept; raises UnverifiedOrder for an order that holds none.  A
    frozen order holds only the report of its own facets, so ``verified``
    is trusted as it stands."""
    if not order.verified:
        raise UnverifiedOrder("verify the order first: only a shelling has a spanning report")
    return order._report


def check_spanning_structure(order: ShellingOrder, report: SpanningReport) -> bool:
    """True iff every spanning complement contains the last vertex and every
    tail facet is non-spanning: the last column of ``report.spanning`` is
    all N, and no tail facet's 0-based position is among
    ``report.positions``."""
    if (report.spanning[:, -1] != order.n_vertices).any():
        return False
    tail = order.tail
    ordinals = _ordinals(order, [t.complement for t in tail]).tolist()
    at = [_tail_position(t, p) - 1 for t, p in zip(tail, ordinals)]
    return not np.isin(at, report.positions).any()


# ---------------------------------------------------------------------------
# the tabulated non-spanning pairs and their blocking vertices
# ---------------------------------------------------------------------------

def non_spanning_pair_table(m: int, n: int) -> list[tuple[int, int, int]]:
    """The eight tabulated families of non-spanning pairs, as printed,
    deduplicated with the first family tag retained.

    Pairs are validated to satisfy x < y <= N-1; entries whose second
    coordinate would reach N are dropped.  Empty ranges emit nothing.
    """
    z = hex_vertex_count(m, n)
    h = m + n + m * n
    table: dict[tuple[int, int], int] = {}

    def emit(x: int, y: int, fam: int) -> None:
        if 1 <= x < y <= z - 1 and (x, y) not in table:
            table[(x, y)] = fam

    for i in range(1, m):  # family 1
        emit(i, i + 1, 1)
        emit(i, i + m, 1)
        emit(i, i + m + 1, 1)
        emit(i, i + h, 1)
    emit(m, 2 * m, 2)  # family 2
    emit(m, 2 * m + 1, 2)
    emit(m, m + h, 2)
    for k1 in range(1, n):  # family 3: the tail-center bands
        for i in range(k1 * (m + 1), k1 * (m + 1) + m):
            emit(i, i + 1, 3)
            emit(i, i + m + 1, 3)
            emit(i, i + m + 2, 3)
            emit(i, i + (m + 1) * n, 3)
            emit(i, i + h + 1, 3)
    for k2 in range(2, n + 1):  # family 4
        i = k2 * (m + 1) - 1
        emit(i, i + m + 1, 4)
        emit(i, i + (m + 1) * n, 4)
    for i in range(n + m * n + 1, h):  # family 5
        emit(i, i + 1, 5)
        emit(i, i + (m + 1) * n, 5)
        emit(i, i + h, 5)
    i6 = (m + 1) * n  # family 6
    emit(i6, i6 + 1, 6)
    emit(i6, i6 + (m + 1) * n, 6)
    emit(h, h + (m + 1) * n, 7)  # family 7
    excluded = {2 * n + 2 * m * n} | {h + t * (m + 1) for t in range(1, n)}
    for i in range(h + 1, z - m):  # family 8
        if i not in excluded:
            emit(i, i + m + 1, 8)

    return sorted((x, y, fam) for (x, y), fam in table.items())


@dataclass(frozen=True)
class WitnessEntry:
    pair: tuple[int, int]
    blocker: int
    type_tag: str
    status: str  # confirmed | refuted | no_facet | invalid_witness
    trace: tuple[str, ...]


@dataclass
class WitnessReport:
    entries: list[WitnessEntry]

    @property
    def confirmed(self) -> list[WitnessEntry]:
        return [e for e in self.entries if e.status == "confirmed"]

    @property
    def failures(self) -> list[WitnessEntry]:
        return [e for e in self.entries if e.status == "refuted"]


def _typed_witnesses(m: int, n: int) -> list[tuple[tuple[int, int], int, str]]:
    """The tabulated blocking vertex per typed pair, following the printed
    per-type formulas (pairs outside [1, N-1] are skipped)."""
    z = hex_vertex_count(m, n)
    h = m + n + m * n
    out: dict[tuple[int, int], tuple[int, str]] = {}

    def emit(x: int, y: int, lam: int, tag: str) -> None:
        if 1 <= x < y <= z - 1 and (x, y) not in out:
            out[(x, y)] = (lam, tag)

    bands = [
        i for k1 in range(1, n) for i in range(k1 * (m + 1), k1 * (m + 1) + m)
    ]
    for i in range(1, m):  # type 1a (low range)
        emit(i, i + 1, i + h + 1, "1a")
    for i in range((m + 1) * n, h):  # type 1a (high range)
        emit(i, i + 1, i + h + 1, "1a")
    for i in bands:  # type 1b
        emit(i, i + 1, i + h + 2, "1b")
    for i in range(1, m + 1):  # type 2
        emit(i, i + m, (m + 1) * n + i, "2")
    for i in range(1, m + 1):  # type 3a
        emit(i, i + m + 1, i + h + 1, "3a")
    for k2 in range(2, n + 1):
        i = k2 * (m + 1) - 1
        emit(i, i + m + 1, i + h + 1, "3a")
    for i in bands:  # type 3b
        emit(i, i + m + 1, i + h + 2, "3b")
    excluded = {2 * n + 2 * m * n} | {h + t * (m + 1) for t in range(1, n + 1)}
    for i in range(h + 1, z - m):  # type 3c
        if i not in excluded:
            emit(i, i + m + 1, i + m + 2, "3c")
    for i in bands:  # type 4
        emit(i, i + m + 2, i + h + 2, "4")
    for i in bands:  # type 5a
        emit(i, i + (m + 1) * n, i + h + 1, "5a")
    for k2 in range(2, n + 1):  # type 5b
        i = k2 * (m + 1) - 1
        emit(i, i + (m + 1) * n, i + h + 1, "5b")
    emit((m + 1) * n, 2 * (m + 1) * n, (m + 1) * n + h + 1, "5b")
    for i in range(n + m * n + 1, h):  # type 5c
        emit(i, i + (m + 1) * n, i + h, "5c")
    emit(h, h + (m + 1) * n, 2 * h, "5d")  # type 5d
    for i in range(1, m + 1):  # type 6
        emit(i, i + h, i + h + 1, "6")
    for i in range(n + m * n + 1, h):
        emit(i, i + h, i + h + 1, "6")
    for i in bands:  # type 7
        emit(i, i + h + 1, i + h + 2, "7")

    return sorted(((x, y), lam, tag) for (x, y), (lam, tag) in out.items())


def non_spanning_witnesses(order: ShellingOrder) -> WitnessReport:
    """Check, pair by pair, that the tabulated blocking vertex obstructs the
    spanning condition: every single-entry swap of {x, y, N} toward the
    blocker must be a later facet or no facet at all.

    Refutations are reported in ``failures``, never patched or raised.
    """
    g = _require_hex3(order.cx)
    N = order.n_vertices
    typed = [(pair, lam, tag, tuple(sorted((*pair, N))))
             for pair, lam, tag in _typed_witnesses(g.m, g.n)]
    swaps = [_swapped(triple, alpha, lam) for _, lam, _, triple in typed
             if 1 <= lam <= N and lam not in triple for alpha in triple]
    queries = [triple for *_, triple in typed] + swaps
    index = dict(zip(queries, _ordinals(order, queries).tolist()))
    entries: list[WitnessEntry] = []
    for (x, y), lam, tag, triple in typed:
        j = index[triple]
        if not j:
            entries.append(
                WitnessEntry((x, y), lam, tag, "no_facet", (f"{triple} is connected",))
            )
            continue
        if not (1 <= lam <= N) or lam in triple:
            entries.append(
                WitnessEntry((x, y), lam, tag, "invalid_witness",
                             (f"blocker {lam} not available for {triple}",))
            )
            continue
        trace = []
        refuted = False
        for alpha in triple:
            cand = _swapped(triple, alpha, lam)
            p = index[cand]
            if not p:
                trace.append(f"swap {alpha}: {cand} not a facet")
            elif p >= j:
                trace.append(f"swap {alpha}: {cand} at later position {p}")
            else:
                trace.append(f"swap {alpha}: {cand} is EARLIER at {p} (< {j})")
                refuted = True
        entries.append(
            WitnessEntry((x, y), lam, tag, "refuted" if refuted else "confirmed",
                         tuple(trace))
        )
    return WitnessReport(entries)


# ---------------------------------------------------------------------------
# tail obstruction in the plain sorted order
# ---------------------------------------------------------------------------

def verify_tail_obstruction(cx: CutComplex) -> bool:
    """Confirm that each tail facet, left at its sorted position, breaks the
    shelling condition against the specific earlier facet with complement
    {center, N-1, N}.

    Every candidate swap either has a connected complement (when the swap
    vertex is the center) or sorts after the tail facet; both outcomes are
    required, and the dichotomy itself is asserted.
    """
    g = _require_hex3(cx)
    tail = tail_facets(g.m, g.n, g)
    if not tail:
        raise NoTailFacets(f"H({g.m},{g.n}) has no tail facets")
    N = cx.n_vertices
    plain = shelling_order(cx, relocate_tail=False)
    # per tail facet: the blocker, and each swap toward it with its vertex
    plan = []
    for t in tail:
        blocker = tuple(sorted((t.center, N - 1, N)))
        plan.append((t, blocker, [(lam, _swapped(t.complement, alpha, lam))
                                  for lam in set(blocker) - set(t.complement)
                                  for alpha in t.complement]))
    queries = [c for t, blocker, swaps in plan
               for c in (t.complement, blocker, *(c for _, c in swaps))]
    pos = dict(zip(queries, _ordinals(plain, queries).tolist()))
    positions = [_tail_position(t, pos[t.complement]) for t in tail]
    for (t, blocker, swaps), j_i in zip(plan, positions):
        if not 0 < pos[blocker] < j_i or not swaps:
            return False
        for lam, swapped in swaps:
            p = pos[swapped]
            if lam == t.center:
                if p:  # center swap must close up a connected triple
                    return False
            elif not p > j_i:  # other swaps must sort after
                return False
    return True


# ---------------------------------------------------------------------------
# exploratory verification for general k
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExploreVerdict:
    k: int
    rule: str
    n_facets: int
    ok: bool
    counterexample: tuple[int, int] | None
    relocated: tuple[tuple[int, ...], ...]


def verify_k_cut_order(
    g: Graph,
    k: int,
    rule: str = "revlex",
    jobs: int = 1,
) -> ExploreVerdict:
    """Build the k-cut complex, order facets by the named rule, verify.

    ``revlex`` sorts complements ascending lexicographically;
    ``revlex-with-neighborhood-tail`` additionally relocates every facet
    whose complement is an open vertex neighborhood of size k to the end,
    in complement-lex order.  Purely mechanical; no claim beyond the verdict.
    Unguarded: a caller that must bound the C(N, k) subsets walked checks
    :func:`hexcut.cutcomplex.check_subset_count` first, as the CLI does.
    """
    if rule not in ("revlex", "revlex-with-neighborhood-tail"):
        raise InvalidParams(f"unknown ordering rule {rule!r}")
    cx = enumerate_facets(g, k)
    relocated: list[tuple[int, ...]] = []
    if rule == "revlex-with-neighborhood-tail":
        hoods = sorted({nb for nb in map(g.neighbors, g.vertices()) if len(nb) == k})
        relocated = list(compress(hoods, _find_rows(cx, _vertex_array(hoods, cx.k)) >= 0))
    res = verify_shelling(_order(cx, relocated), jobs=jobs)
    return ExploreVerdict(
        k=k,
        rule=rule,
        n_facets=cx.n_facets,
        ok=res.ok,
        counterexample=res.counterexample,
        relocated=tuple(relocated),
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def streamed_order_to_json_dict(g: HexGraph, relocate_tail: bool = True) -> dict:
    """:func:`order_to_json_dict` of ``shelling_order(enumerate_facets(g, 3),
    relocate_tail)``, with the order as :class:`RowBlocks` walked from the
    graph: the base segment by :func:`_lex_blocks`, then the tail.  No
    complex or order is held, and ``t_tail_start`` follows from the closed
    facet count :func:`hexcut.cutcomplex.hex_facet_count`.  A tail
    complement that is no facet raises TailFacetNotFound only after the
    base segment, so the caller makes sure that ``g`` is a validated
    H(m, n), whose tail complements, open neighbourhoods in a bipartite
    graph, are always facets."""
    tail = tail_facets(g.m, g.n, g) if relocate_tail else []
    moved = _vertex_array([t.complement for t in tail], 3)
    return {
        "m": g.m,
        "n": g.n,
        "k": 3,
        "order": RowBlocks(lambda: chain(_lex_blocks(g, moved), [moved])),
        "t_tail_start": hex_facet_count(g.m, g.n) - len(tail) + 1,
    }


def order_to_json_dict(order: ShellingOrder) -> dict:
    """The order as :class:`RowBlocks` of its rows of the complex's
    complement array, gathered a block at a time."""
    g = order.cx.graph
    out: dict = {}
    if isinstance(g, HexGraph):
        out["m"] = g.m
        out["n"] = g.n
    out["k"] = order.cx.k
    out["order"] = RowBlocks.of(_complements(order.cx), order.rows)
    out["t_tail_start"] = order.base_count + 1
    return out


def spanning_report_to_json_dict(report: SpanningReport) -> dict:
    return {
        "psi": report.psi,
        "spanning_complements": RowBlocks.of(report.spanning),
        "non_spanning_pairs": report.non_spanning_pairs,
    }


def spanning_report_to_csv(report: SpanningReport) -> str:
    """One ``spanning,x,y`` line per spanning complement {x, y, N}, formatted
    from its two columns of ``report.spanning`` with one ``%``, then one
    ``non_spanning,x,y`` line per non-spanning pair."""
    ends = report.spanning[:, :2]
    spanning = "spanning,%d,%d\n" * len(ends) % tuple(ends.ravel().tolist())
    return "kind,x,y\n" + spanning + "".join(
        f"non_spanning,{x},{y}\n" for x, y in report.non_spanning_pairs)
