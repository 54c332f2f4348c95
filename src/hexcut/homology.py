"""Reduced GF(2) homology and Euler-characteristic oracles.

Faces are bitmasks over the vertex set; the empty face is included, so all
Betti numbers are reduced.  Boundary ranks drive everything:

    b~_p = dim ker d_p - rank d_{p+1} = f_p - rank d_p - rank d_{p+1}.

The face poset comes from one boolean bitmap over all 2^N vertex subsets:
the facet masks are set and closed downward in N in-place numpy passes, and
the set entries are split by popcount into levels, one ascending int64
array per face size.  The dense elimination and the d∘d spot-check read
them as they are; the cone reduction first narrows a level's apex-free
faces to the narrowest integer type that holds N bits (uint16 up to
N = 16, uint32 up to 32, int64 up to the bitmap ceiling), and refuses the
copy unless it equals the int64 faces by value, so no face is truncated
unseen.

Rank method per dimension: small matrices are row-reduced directly over
GF(2) with integer bitmask rows.  When a dimension pair is a complete
skeleton (all C(N, s) faces present, verified by counting), elimination is
run with cone pivots: columns containing the apex vertex pair bijectively
with the rows lacking it, and every remaining column f is explicitly
reduced to zero against those pivots.  Its residual is d(d(f | apex)),
checked in numpy by the same d∘d kernel as
:func:`boundary_composition_is_zero`: written out as a multiset of row
faces, in the dtype of the faces it starts from, sorted, it must pair up
into equal neighbours.  That keeps the N = 16 run well under the time guard
without trusting any closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

import numpy as np

from .cutcomplex import (
    CutComplex,
    FVector,
    _closed_fvector,
    _complements,
    check_bitmap_ceiling,
    check_size,
    downward_closure,
    f_vector,
    hex_cut_complex,
    hex_facet_count,
)
from .errors import HexCutError, ResourceGuard
from .hexgraph import hex_vertex_count
from .shelling import (
    shelling_order,
    spanning_count_formula,
    spanning_facets,
    verify_shelling,
)

HOMOLOGY_VERTEX_LIMIT = 16
DENSE_ENTRY_LIMIT = 4_000_000
# face entries per numpy step of the cone reduction, each as wide as the
# narrowed faces: 2 bytes up to N = 16, 4 up to 32, 8 beyond
_CHUNK_CELLS = 1 << 20


# ---------------------------------------------------------------------------
# face closure and boundary matrices
# ---------------------------------------------------------------------------

def faces_by_size(facet_masks, n_vertices: int) -> list[np.ndarray]:
    """Downward closure of the facet masks, grouped by face size.

    Returns ``levels`` with ``levels[s]`` the ascending int64 array of size-s
    face masks; ``levels[0]`` holds only the empty face, 0.
    """
    if not facet_masks:
        return []
    faces = np.flatnonzero(downward_closure(facet_masks, n_vertices))
    sizes = np.bitwise_count(faces)
    return [faces[sizes == s] for s in range(int(sizes.max()) + 1)]


def gf2_rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix whose rows are integer bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row.bit_length() - 1
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank


def boundary_matrix(levels: list[np.ndarray], s: int) -> list[int]:
    """Boundary from size-s faces to size-(s-1) faces over GF(2): one column
    per face of ``levels[s]``, as an integer bitmask over the ordinals of
    ``levels[s - 1]``."""
    lower = levels[s - 1]
    subfaces = _boundary(levels[s], s)
    rows = np.searchsorted(lower, subfaces)
    if not np.array_equal(lower.take(rows, mode="clip"), subfaces):
        raise HexCutError(f"a size-{s} face has a subface missing from level {s - 1}")
    return [sum(1 << r for r in col) for col in rows.tolist()]


def _boundary(faces: np.ndarray, size: int) -> np.ndarray:
    """Row i lists the ``size`` faces obtained by removing one vertex from
    ``faces[i]``, a face of exactly ``size`` vertices; in the dtype of
    ``faces``."""
    out = np.empty((faces.size, size), dtype=faces.dtype)
    rest = faces.copy()
    for i in range(size):
        low = rest & -rest
        out[:, i] = faces ^ low
        rest ^= low
    return out


def _cancels(multisets: np.ndarray) -> bool:
    """True iff every value occurs an even number of times in each row,
    i.e. each row sums to zero over GF(2)."""
    ordered = np.sort(multisets, axis=1)
    return bool(np.array_equal(ordered[:, 0::2], ordered[:, 1::2]))


def _boundary_twice_cancels(faces: np.ndarray, size: int) -> bool:
    """True iff d(d(f)) = 0 over GF(2) for every face f of ``faces``, each of
    exactly ``size`` vertices: its size * (size - 1) entries pair up."""
    twice = _boundary(_boundary(faces, size).ravel(), size - 1)
    return _cancels(twice.reshape(faces.size, size * (size - 1)))


def _narrowed(faces: np.ndarray, n_vertices: int) -> np.ndarray:
    """``faces`` in the narrowest integer type that holds ``n_vertices``
    bits: uint16 up to 16 vertices, uint32 up to 32, int64 up to the bitmap
    ceiling.  The copy must equal ``faces`` by value, else HexCutError."""
    if n_vertices <= 16:
        dtype = np.uint16
    elif n_vertices <= 32:
        dtype = np.uint32
    else:
        dtype = np.int64
    narrow = faces.astype(dtype, copy=False)
    if not np.array_equal(narrow, faces):
        raise HexCutError(f"a face does not fit {narrow.dtype} at {n_vertices} vertices")
    return narrow


def _rank_complete_skeleton(levels: list[np.ndarray], s: int, n_vertices: int) -> int:
    """Boundary rank at a complete skeleton level, by cone-pivot elimination.

    Pivot columns are the size-s faces containing the apex (vertex 1): each
    holds the only nonzero entry in its row ``face ^ apex`` among apex-free
    rows, so they are independent.  Every apex-free column f of the int64
    array ``levels[s]`` is then reduced against those pivots: for each of its
    rows f^b the pivot column (f^b) | apex is added, and the residual
    {f^b} + d((f^b) | apex), summed over b, is d(d(f | apex)) and must cancel.
    The reduction is executed, not assumed, by the d∘d kernel shared with
    :func:`boundary_composition_is_zero`: each column's s + s^2 entries are
    sorted and must pair up, in chunks of at most ``_CHUNK_CELLS`` entries.
    The apex-free faces are narrowed once by :func:`_narrowed`, so at
    N <= 16 the kernel sorts 16-bit entries, a quarter of the int64 bytes.
    """
    apex = 1  # bit of vertex 1
    faces = levels[s]
    is_pivot = (faces & apex) != 0
    pivot_count = int(np.count_nonzero(is_pivot))
    if pivot_count != comb(n_vertices - 1, s - 1):
        raise HexCutError("cone elimination invoked on an incomplete skeleton")
    residual = _narrowed(faces[~is_pivot], n_vertices)
    chunk = max(1, _CHUNK_CELLS // (s + s * s))
    for start in range(0, residual.size, chunk):
        if not _boundary_twice_cancels(residual[start:start + chunk] | apex, s + 1):
            raise HexCutError("cone reduction left a nonzero residual")
    return pivot_count


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers; ``values[i]`` is dimension ``i - 1``."""

    values: tuple[int, ...]

    def b(self, dim: int) -> int:
        i = dim + 1
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    @property
    def dim(self) -> int:
        return len(self.values) - 2


def betti_numbers_from_facets(
    facets,
    n_vertices: int,
    force: bool = False,
) -> BettiVector:
    """Reduced GF(2) Betti numbers of the complex generated by ``facets``;
    past ``HOMOLOGY_VERTEX_LIMIT`` vertices only with ``force``, and never
    past the bitmap ceiling.  Both are checked before any facet is read."""
    N = n_vertices
    check_size(N, "vertices of the homology bitmap", HOMOLOGY_VERTEX_LIMIT, force)
    check_bitmap_ceiling(N)
    masks = [sum(1 << (v - 1) for v in f) for f in facets]
    if not masks:
        return BettiVector(())
    levels = faces_by_size(masks, N)
    top = len(levels) - 1
    f_counts = [level.size for level in levels]
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        dom_full = f_counts[s] == comb(N, s)
        cod_full = f_counts[s - 1] == comb(N, s - 1)
        if dom_full and cod_full:
            ranks[s] = _rank_complete_skeleton(levels, s, N)
        else:
            check_size(f_counts[s] * f_counts[s - 1],
                       f"dense elimination entries ({f_counts[s]}x{f_counts[s - 1]})",
                       DENSE_ENTRY_LIMIT, force)
            ranks[s] = gf2_rank(boundary_matrix(levels, s))
    values = tuple(
        f_counts[s] - ranks[s] - ranks[s + 1] for s in range(top + 1)
    )
    return BettiVector(values)


def betti_numbers(cx: CutComplex, force: bool = False) -> BettiVector:
    """Reduced GF(2) Betti numbers of a cut complex (facets = complements
    of its canonical rows, else InvalidParams), read lazily so that the
    guards come first."""
    N = cx.n_vertices

    def facets():
        verts = set(range(1, N + 1))
        yield from (verts.difference(c) for c in _complements(cx).tolist())

    return betti_numbers_from_facets(facets(), N, force=force)


def boundary_composition_is_zero(
    facets, n_vertices: int, samples: int = 64, seed: int = 0
) -> bool:
    """Spot-check that applying the boundary twice annihilates random faces:
    ``samples`` faces of at least two vertices, drawn by ``seed``."""
    masks = [sum(1 << (v - 1) for v in f) for f in facets]
    levels = faces_by_size(masks, n_vertices)[2:]
    if not levels:
        return True
    take = np.concatenate(levels)
    if take.size > samples:
        take = take[random.Random(seed).sample(range(take.size), samples)]
    sizes = np.bitwise_count(take)
    return all(_boundary_twice_cancels(take[sizes == size], size)
               for size in np.unique(sizes).tolist())


# ---------------------------------------------------------------------------
# Euler characteristics
# ---------------------------------------------------------------------------

def reduced_euler_from_fvector(fv: FVector) -> int:
    """Alternating sum over dimensions -1..dim of the face counts."""
    total = 0
    for i, count in enumerate(fv.counts):
        dim = i - 1
        total += count if dim % 2 == 0 else -count
    return total


def reduced_euler_closed(m: int, n: int) -> int:
    """Reduced Euler characteristic of the 3-cut complex of H(m, n) from the
    closed-form face counts: every subset of size at most N-4 is a face
    (girth 6 leaves no 4-subset without a disconnected triple) and the top
    dimension holds one face per facet.  Evaluated as the exact alternating
    binomial sum; no spanning-count input."""
    return reduced_euler_from_fvector(
        _closed_fvector(hex_vertex_count(m, n), hex_facet_count(m, n)))


def reduced_euler_exhaustive(cx: CutComplex, force: bool = False) -> int:
    return reduced_euler_from_fvector(f_vector(cx, mode="exhaustive", force=force))


# ---------------------------------------------------------------------------
# the aggregated wedge verdict
# ---------------------------------------------------------------------------

@dataclass
class WedgeVerdict:
    """Outcome of the independent checks that the complex is a wedge of
    spanning-count many top-dimensional spheres."""

    m: int
    n: int
    psi: int
    dimension: int
    checks: dict[str, dict]

    @property
    def all_ran_pass(self) -> bool:
        return all(c["pass"] for c in self.checks.values() if c["ran"])


def wedge_check(m: int, n: int, force: bool = False) -> WedgeVerdict:
    """Aggregate: (a) the candidate order verifies as a shelling, (b) the
    spanning count matches the closed form, (c) the reduced Euler
    characteristic matches it too, (d) GF(2) homology is concentrated in
    the top dimension with that value.  Skipped checks are reported, not
    failed: without ``force``, (a) and (b) past the subset guard of
    :func:`hexcut.cutcomplex.hex_cut_complex`, the builder the CLI uses,
    and (d) past ``HOMOLOGY_VERTEX_LIMIT`` vertices; with ``force``, (d)
    only past the bitmap ceiling, as :func:`betti_numbers` refuses it."""
    N = hex_vertex_count(m, n)
    psi = spanning_count_formula(m, n)
    checks: dict[str, dict] = {}

    cx = order = None
    try:
        cx = hex_cut_complex(m, n, 3, force)
    except ResourceGuard as exc:
        checks["shelling"] = {"ran": False, "pass": None, "detail": str(exc)}
    else:
        order = shelling_order(cx)
        res = verify_shelling(order)
        checks["shelling"] = {"ran": True, "pass": res.ok,
                              "counterexample": res.counterexample}

    if order is not None and order.verified:
        report = spanning_facets(order)
        checks["spanning_eq_psi"] = {"ran": True, "pass": report.psi == psi,
                                     "computed": report.psi}
    else:
        checks["spanning_eq_psi"] = {"ran": False, "pass": None}

    euler = reduced_euler_closed(m, n)
    checks["euler_eq_psi"] = {"ran": True, "pass": euler == psi, "computed": euler}

    if N > HOMOLOGY_VERTEX_LIMIT and not force:
        checks["betti"] = {"ran": False, "pass": None,
                           "detail": f"N={N} exceeds homology limit {HOMOLOGY_VERTEX_LIMIT}"}
    else:
        # cx was enumerated above: with force always, else C(16, 3) = 560
        # triples pass the guard
        try:
            bv = betti_numbers(cx, force=force)
        except ResourceGuard as exc:  # past the bitmap ceiling
            checks["betti"] = {"ran": False, "pass": None, "detail": str(exc)}
        else:
            concentrated = bv.b(N - 4) == psi and all(
                bv.b(d) == 0 for d in range(-1, N - 4)
            )
            checks["betti"] = {"ran": True, "pass": concentrated,
                               "top": bv.b(N - 4)}

    return WedgeVerdict(m=m, n=n, psi=psi, dimension=N - 4, checks=checks)


def wedge_verdict_to_json_dict(v: WedgeVerdict) -> dict:
    return {
        "m": v.m,
        "n": v.n,
        "checks": v.checks,
        "psi": v.psi,
        "dimension": v.dimension,
    }


__all__ = [
    "BettiVector",
    "HOMOLOGY_VERTEX_LIMIT",
    "betti_numbers",
    "betti_numbers_from_facets",
    "boundary_composition_is_zero",
    "boundary_matrix",
    "faces_by_size",
    "gf2_rank",
    "reduced_euler_closed",
    "reduced_euler_exhaustive",
    "reduced_euler_from_fvector",
    "wedge_check",
    "wedge_verdict_to_json_dict",
    "WedgeVerdict",
]
