"""GF(2) homology and Euler-characteristic oracles."""

import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexcut import (
    HexCutError,
    InvalidParams,
    ResourceGuard,
    VertexOutOfRange,
    betti_numbers,
    betti_numbers_from_facets,
    build_hex_graph,
    cycle_graph,
    enumerate_facets,
    f_vector,
    reduced_euler_closed,
    reduced_euler_exhaustive,
    reduced_euler_from_fvector,
    wedge_check,
)
from hexcut import homology
from hexcut.cutcomplex import CutComplex, hex_cut_complex
from hexcut.homology import (
    _narrowed,
    _rank_complete_skeleton,
    boundary_composition_is_zero,
    boundary_matrix,
    faces_by_size,
    gf2_rank,
)


# ---------------------------------------------------------------------------
# plain-elimination oracle (no cone pivots, no skeleton shortcuts)
# ---------------------------------------------------------------------------

def oracle_betti(facets, n_vertices):
    face_sets = set()
    for f in facets:
        fs = frozenset(f)
        for size in range(len(fs) + 1):
            for sub in combinations(sorted(fs), size):
                face_sets.add(frozenset(sub))
    by_size = {}
    for f in face_sets:
        by_size.setdefault(len(f), []).append(tuple(sorted(f)))
    for s in by_size:
        by_size[s].sort()
    top = max(by_size)
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        rows = {f: i for i, f in enumerate(by_size[s - 1])}
        cols = []
        for f in by_size[s]:
            col = 0
            for drop in range(s):
                sub = f[:drop] + f[drop + 1:]
                col |= 1 << rows[sub]
            cols.append(col)
        ranks[s] = gf2_rank(cols)
    return [
        len(by_size.get(s, [])) - ranks[s] - ranks[s + 1] for s in range(top + 1)
    ]


def reference_faces_by_size(facet_masks):
    """Set-based downward closure, one level at a time: every face of size s
    contributes its s subfaces of size s-1."""
    if not facet_masks:
        return []
    top = max(m.bit_count() for m in facet_masks)
    levels = [set() for _ in range(top + 1)]
    for m in facet_masks:
        levels[m.bit_count()].add(m)
    for s in range(top, 0, -1):
        lower = levels[s - 1]
        for f in levels[s]:
            x = f
            while x:
                b = x & -x
                lower.add(f ^ b)
                x ^= b
    return [sorted(level) for level in levels]


def reference_boundary_matrix(levels, s):
    """Column bitmasks of the size-s boundary, one vertex bit at a time,
    with rows looked up in a dict over the ordinals of ``levels[s - 1]``."""
    row_index = {f: i for i, f in enumerate(levels[s - 1])}
    cols = []
    for f in levels[s]:
        col = 0
        x = f
        while x:
            b = x & -x
            col |= 1 << row_index[f ^ b]
            x ^= b
        cols.append(col)
    return cols


def corrupt_boundary(monkeypatch):
    """Make the first entry of every boundary the kernels compute wrong: flip
    bit 15, which fits a 16-bit face and lies outside the vertex sets of
    the tests that call this."""
    real = homology._boundary

    def corrupted(faces, size):
        out = real(faces, size)
        out[0, 0] ^= 1 << 15
        return out

    monkeypatch.setattr(homology, "_boundary", corrupted)


@st.composite
def facet_sets(draw):
    """Facet lists at N <= 10: arbitrary subsets (so non-pure complexes and
    complexes with unused vertices, where no level is a complete skeleton),
    optionally joined by every subset of one size, so that low levels are
    complete skeletons and the cone-pivot path runs."""
    n = draw(st.integers(1, 10))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    size = draw(st.none() | st.integers(1, n))
    if size is not None:
        masks += [sum(1 << (v - 1) for v in t) for t in combinations(range(1, n + 1), size)]
    facets = [tuple(v + 1 for v in range(n) if m >> v & 1) for m in masks]
    return n, facets


def test_gf2_rank_basics():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b1, 0b10, 0b100]) == 3
    assert gf2_rank([0b11, 0b10, 0b01]) == 2
    assert gf2_rank([0b101, 0b101]) == 1
    assert gf2_rank([0]) == 0


def test_gf2_rank_random_matches_float_free_oracle():
    import random

    rng = random.Random(7)
    for _ in range(20):
        rows = [rng.getrandbits(12) for _ in range(10)]
        # independent rank: greedy basis over GF(2)
        basis = []
        for r in rows:
            for b in basis:
                r = min(r, r ^ b)
            if r:
                basis.append(r)
        assert gf2_rank(rows) == len(basis)


def test_boundary_of_tetrahedron_is_two_sphere():
    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    bv = betti_numbers_from_facets(facets, 4)
    assert bv.b(2) == 1
    assert all(bv.b(d) == 0 for d in (-1, 0, 1))
    assert oracle_betti(facets, 4) == [0, 0, 0, 1]


def test_six_cycle_cut_complex_betti():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    bv = betti_numbers(cx)
    assert bv.b(2) == 4
    assert all(bv.b(d) == 0 for d in range(-1, 2))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1)])
def test_betti_matches_plain_elimination_oracle(m, n):
    g = build_hex_graph(m, n)
    cx = enumerate_facets(g, 3)
    bv = betti_numbers(cx)
    verts = set(range(1, g.n_vertices + 1))
    facets = [tuple(sorted(verts - set(c))) for c in cx.facets]
    assert list(bv.values) == oracle_betti(facets, g.n_vertices)
    assert bv.b(6) == 22


def test_betti_2_2_concentrated():
    cx = enumerate_facets(build_hex_graph(2, 2), 3)
    bv = betti_numbers(cx)
    assert bv.b(12) == 77
    assert all(bv.b(d) == 0 for d in range(-1, 12))


def test_forced_betti_1_4_on_32_bit_faces(monkeypatch):
    # N = 18: the cone reduction sorts uint32 faces, and the Betti numbers
    # are the ones the int64 reduction gave: only b_14 = psi = 106 is nonzero
    dtypes = set()
    real_cancels = homology._cancels
    monkeypatch.setattr(homology, "_cancels",
                        lambda rows: dtypes.add(rows.dtype) or real_cancels(rows))
    bv = betti_numbers(hex_cut_complex(1, 4, 3, force=True), force=True)
    assert bv.values == (0,) * 15 + (106,)
    assert dtypes == {np.dtype(np.uint32)}


@pytest.mark.parametrize("n,dtype", [(6, np.uint16), (16, np.uint16), (17, np.uint32),
                                     (32, np.uint32), (33, np.int64), (62, np.int64)])
def test_narrowed_faces_equal_the_int64_faces(n, dtype):
    faces = np.array([0, 1, 1 << (n - 1), (1 << n) - 1], dtype=np.int64)
    narrow = _narrowed(faces, n)
    assert narrow.dtype == dtype
    assert narrow.tolist() == faces.tolist()
    if dtype != np.int64:  # a face too wide for the type is refused, not truncated
        with pytest.raises(HexCutError, match="does not fit"):
            _narrowed(np.append(faces, 1 << np.iinfo(dtype).bits), n)


@settings(max_examples=60, deadline=None)
@given(facet_sets())
@example((6, [(1, 2, 3), (3, 4)]))  # vertices 5, 6 unused: no complete level
@example((5, [(1, 2, 3, 4), (5,), (1, 5)]))  # non-pure, complete 1-skeleton
def test_bitmap_kernels_match_references(case):
    n, facets = case
    masks = [sum(1 << (v - 1) for v in f) for f in facets]
    levels = faces_by_size(masks, n)
    assert [level.tolist() for level in levels] == reference_faces_by_size(masks)
    assert all(level.dtype == np.int64 and level.ndim == 1 for level in levels)
    expected = oracle_betti(facets, n)
    assert list(betti_numbers_from_facets(facets, n).values) == expected
    with mock.patch.object(homology, "_CHUNK_CELLS", 50):  # many small chunks
        assert list(betti_numbers_from_facets(facets, n).values) == expected
    assert boundary_composition_is_zero(facets, n, samples=16, seed=n)


def test_cone_elimination_guards(monkeypatch):
    levels = faces_by_size([(1 << 6) - 1], 6)  # every subset of six vertices
    assert _rank_complete_skeleton(levels, 3, 6) == 10
    missing_pivot = list(levels)
    missing_pivot[3] = levels[3][levels[3] != 0b000111]
    with pytest.raises(HexCutError, match="incomplete skeleton"):
        _rank_complete_skeleton(missing_pivot, 3, 6)
    # every apex-free column is reduced, chunk by chunk, with its s + s^2 entries
    shapes = []
    real_cancels = homology._cancels
    monkeypatch.setattr(homology, "_cancels",
                        lambda rows: shapes.append(rows.shape) or real_cancels(rows))
    monkeypatch.setattr(homology, "_CHUNK_CELLS", 100)  # 8 columns per chunk
    assert _rank_complete_skeleton(levels, 3, 6) == 10
    assert shapes == [(8, 12), (2, 12)]  # the C(5, 3) = 10 apex-free columns
    # the residual is computed, not assumed: a wrong boundary entry shows up
    corrupt_boundary(monkeypatch)
    with pytest.raises(HexCutError, match="nonzero residual"):
        _rank_complete_skeleton(levels, 3, 6)


def test_facet_vertex_outside_the_vertex_set_is_rejected():
    with pytest.raises(VertexOutOfRange):
        betti_numbers_from_facets([(1, 2), (3, 7)], 6)


def test_betti_guard(instance):
    for graph in (build_hex_graph(2, 3), cycle_graph(17)):  # N = 22 and 17 > 16
        with pytest.raises(ResourceGuard, match="use --force$"):
            betti_numbers(enumerate_facets(graph, 3))
    # all 8-subsets of 16 vertices but one: the size-8 boundary is eliminated
    # densely, 12 869 x 11 440 entries
    with pytest.raises(ResourceGuard, match="use --force$"):
        betti_numbers_from_facets(list(combinations(range(1, 17), 8))[1:], 16)
    # 68 vertices: no 2^N bitmap, so force does not lift the guard
    with pytest.raises(ResourceGuard, match="--force cannot lift it$"):
        betti_numbers(instance(4, 6, verify=False).cx, force=True)


def _unread_facets():
    """An iterator over facets that fails when advanced: the ceiling must
    refuse before any facet is read."""
    raise AssertionError("a facet was read before the bitmap ceiling was checked")
    yield


def test_betti_ceiling_checked_before_any_facet_is_read():
    cx = CutComplex(graph=build_hex_graph(4, 6), k=3, facets=_unread_facets())
    with pytest.raises(ResourceGuard, match="--force cannot lift it$"):
        betti_numbers(cx, force=True)


@pytest.mark.parametrize("extra", [(4, 5, 7), (0, 1, 2), (1, 1, 2)],
                         ids=["vertex-N+1", "vertex-0", "repeated-vertex"])
def test_betti_numbers_refuse_a_malformed_complex(extra):
    # H(1, 1) plus a complement with a vertex past N, the vertex 0 or a
    # repeated vertex: its rows are not canonical, and no Betti numbers of
    # some other complex come back
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    hand = CutComplex(graph=cx.graph, k=3, facets=cx.facets + (extra,))
    with pytest.raises(InvalidParams):
        betti_numbers(hand)


def test_betti_from_facets_ceiling_checked_before_any_facet_is_read():
    with pytest.raises(ResourceGuard, match="--force cannot lift it$"):
        betti_numbers_from_facets(_unread_facets(), 68, force=True)


def test_face_closure_counts():
    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    masks = [sum(1 << (v - 1) for v in f) for f in facets]
    levels = faces_by_size(masks, 4)
    assert [len(l) for l in levels] == [1, 4, 6, 4]


def test_boundary_matrix_columns_have_face_size_entries():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    verts = set(range(1, 7))
    masks = [
        sum(1 << (v - 1) for v in verts - set(c)) for c in cx.facets
    ]
    levels = faces_by_size(masks, 6)
    for s in range(1, len(levels)):
        columns = boundary_matrix(levels, s)
        assert len(columns) == len(levels[s])
        for col in columns:
            assert bin(col).count("1") == s


@settings(max_examples=60, deadline=None)
@given(facet_sets())
@example((10, [tuple(range(1, 11))]))  # row ordinals up to C(10, 4) - 1 = 209, past bit 63
def test_boundary_matrix_matches_reference(case):
    n, facets = case
    masks = [sum(1 << (v - 1) for v in f) for f in facets]
    levels = faces_by_size(masks, n)
    reference_levels = reference_faces_by_size(masks)
    for s in range(1, len(levels)):
        assert boundary_matrix(levels, s) == reference_boundary_matrix(reference_levels, s)


@pytest.mark.parametrize("drop", [0, 7, -1])
def test_boundary_matrix_missing_subface_is_loud(drop):
    levels = faces_by_size([(1 << 6) - 1], 6)
    holed = list(levels)
    holed[2] = np.delete(levels[2], drop)
    with pytest.raises(HexCutError, match="subface missing from level 2"):
        boundary_matrix(holed, 3)


@pytest.mark.parametrize("samples,seed", [(5, 0), (39, 3), (40, 3)])  # the pool holds 40
def test_boundary_composition_sample_is_the_seeded_list_sample(monkeypatch, samples, seed):
    facets = [(1, 2, 3, 4), (2, 3, 5, 6, 7), (1, 6, 8)]
    masks = [sum(1 << (v - 1) for v in f) for f in facets]
    pool = [f for level in reference_faces_by_size(masks)[2:] for f in level]
    expected = pool if len(pool) <= samples else random.Random(seed).sample(pool, samples)
    seen = []
    real = homology._boundary_twice_cancels

    def record(faces, size):
        seen.extend(faces.tolist())
        return real(faces, size)

    monkeypatch.setattr(homology, "_boundary_twice_cancels", record)
    assert boundary_composition_is_zero(facets, 8, samples=samples, seed=seed)
    assert seen == sorted(expected, key=int.bit_count)  # grouped by size, in draw order


def test_boundary_composition_vanishes(monkeypatch):
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    verts = set(range(1, 11))
    facets = [tuple(sorted(verts - set(c))) for c in cx.facets]
    assert boundary_composition_is_zero(facets, 10, samples=100, seed=3)
    # the check is computed, not assumed: a wrong boundary entry shows up
    corrupt_boundary(monkeypatch)
    assert not boundary_composition_is_zero(facets, 10, samples=100, seed=3)


def test_rank_alternating_sum_reproduces_euler():
    # sum_p (-1)^p f_p equals sum_p (-1)^p (rank_p + rank_{p+1}) collapses
    # to the Betti alternating sum; check both against the f-vector
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    bv = betti_numbers(cx)
    fv = f_vector(cx, mode="exhaustive")
    euler_from_faces = reduced_euler_from_fvector(fv)
    euler_from_betti = sum(
        (b if (dim := i - 1) % 2 == 0 else -b) for i, b in enumerate(bv.values)
    )
    assert euler_from_faces == euler_from_betti == 22


def test_reduced_euler_smallest_case():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    assert reduced_euler_exhaustive(cx) == -1 + 6 - 15 + 14 == 4


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1)])
def test_reduced_euler_closed_equals_exhaustive(m, n):
    cx = enumerate_facets(build_hex_graph(m, n), 3)
    assert reduced_euler_closed(m, n) == reduced_euler_exhaustive(cx)


def test_reduced_euler_closed_values():
    assert reduced_euler_closed(2, 2) == 77
    assert reduced_euler_closed(4, 6) == 2051


def test_wedge_check_small():
    v = wedge_check(1, 1)
    assert v.psi == 4 and v.dimension == 2
    assert all(c["ran"] for c in v.checks.values())
    assert v.all_ran_pass

    v = wedge_check(2, 2)
    assert v.psi == 77 and v.dimension == 12
    assert all(c["ran"] for c in v.checks.values())
    assert v.all_ran_pass


def test_forced_wedge_check_runs_homology_past_the_limit():
    v = wedge_check(1, 4, force=True)  # 18 vertices
    assert v.checks["betti"] == {"ran": True, "pass": True, "top": 106}
    assert all(c["ran"] and c["pass"] for c in v.checks.values())
    v = wedge_check(4, 6, force=True)  # 68 vertices: no 2^N bitmap, force or not
    assert not v.checks["betti"]["ran"]
    assert v.checks["betti"]["detail"].endswith("--force cannot lift it")
    assert v.all_ran_pass and v.checks["shelling"]["ran"]


def test_wedge_check_skips_oversized_homology():
    v = wedge_check(2, 3)  # 22 vertices: homology guarded, the rest runs
    assert not v.checks["betti"]["ran"]
    assert v.checks["shelling"]["ran"] and v.checks["shelling"]["pass"]
    assert v.checks["spanning_eq_psi"]["pass"]
    assert v.checks["euler_eq_psi"]["pass"]
    assert v.all_ran_pass
