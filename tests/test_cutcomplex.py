"""Facet enumeration, face queries, f-vectors."""

import random
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcut import (
    Graph,
    InvalidParams,
    ResourceGuard,
    build_hex_graph,
    cycle_graph,
    enumerate_facets,
    f_vector,
    hex_facet_count,
    induced_p3_count,
    is_face,
    shelling_order,
)
from hexcut import cutcomplex
from hexcut.cutcomplex import CutComplex, facets_to_csv, facets_to_json_dict
from hexcut.hexgraph import HexGraph, hex_edges

from conftest import listed, oracle_face_counts, oracle_facet_complements, oracle_full_facets


def test_formula_values():
    assert induced_p3_count(1, 1) == 6
    assert induced_p3_count(4, 6) == 160
    assert induced_p3_count(2, 2) == 28
    assert hex_facet_count(1, 1) == 14
    assert hex_facet_count(1, 2) == 106
    assert hex_facet_count(2, 2) == 532
    assert hex_facet_count(4, 6) == 49956
    with pytest.raises(InvalidParams):
        induced_p3_count(0, 3)
    with pytest.raises(InvalidParams):
        hex_facet_count(3, 0)


def test_six_cycle_has_14_facets():
    cx = enumerate_facets(cycle_graph(6), 3)
    assert cx.n_facets == 14
    # matches the hexagonal (1,1) instance despite different labels
    cx11 = enumerate_facets(build_hex_graph(1, 1), 3)
    assert cx11.n_facets == 14


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (1, 4)])
def test_enumeration_matches_oracle(m, n):
    g = build_hex_graph(m, n)
    cx = enumerate_facets(g, 3)
    assert list(cx.facets) == oracle_facet_complements(g, 3)
    assert cx.n_facets == hex_facet_count(m, n)


def test_facets_sorted_unique_with_exact_index():
    cx = enumerate_facets(build_hex_graph(2, 2), 3)
    assert list(cx.facets) == sorted(set(cx.facets))
    order = shelling_order(cx, relocate_tail=False)
    for i, t in enumerate(cx.facets):
        assert order.facets.index(t) + 1 == i + 1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_face_numbers_equal_the_index_of_each_face(k):
    # the prefix and suffix sums of the weights number each face of every
    # k-subset of [1, 9] as index does the (k-1)-subset itself
    comp = np.array(list(combinations(range(1, 10), k)), dtype=np.int32)
    pos = cutcomplex._Positions(comp, 9)
    assert pos.dense
    face = pos.faces(comp)
    assert face.dtype == np.int32 and face.shape == comp.shape
    for s in range(k):
        rest = [comp[:, c] for c in range(k) if c != s]
        assert np.array_equal(face[:, s], pos.index(rest)), s
    # at k = 1 the one face of a complement is the empty set, rank 0
    single = cutcomplex._Positions(np.array([[1], [9]], dtype=np.int32), 9)
    assert single.face.tolist() == [[0], [0]]


def test_complement_soundness():
    g = build_hex_graph(2, 2)
    cx = enumerate_facets(g, 3)
    for t in cx.facets:
        assert not g.is_connected_subset(t)


def test_five_cuts_of_six_cycle_are_empty():
    # deleting five vertices of a cycle leaves a path, always connected
    cx = enumerate_facets(cycle_graph(6), 5)
    assert cx.n_facets == 0


def test_k_out_of_range():
    g = cycle_graph(6)
    with pytest.raises(InvalidParams):
        enumerate_facets(g, 0)
    with pytest.raises(InvalidParams):
        enumerate_facets(g, 6)




def _filtered(g, k):
    """The k-subsets that ``Graph.is_connected_subset``, called once per
    subset, calls disconnected."""
    return tuple(t for t in combinations(range(1, g.n_vertices + 1), k)
                 if not g.is_connected_subset(t))


def _assert_same_facets(cx, expected):
    assert cx.facets == expected
    assert all(type(t) is tuple and type(v) is int for t in cx.facets for v in t)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_edge_count_enumeration_equals_the_subset_test(data):
    # k <= 3 is read from induced edge counts in numpy; it must give the
    # same tuple, in the same order, as the per-subset test
    n = data.draw(st.integers(2, 12), label="n")
    k = data.draw(st.integers(1, min(3, n - 1)), label="k")
    edges = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                               .filter(lambda e: e[0] != e[1]), max_size=3 * n),
                      label="edges")
    g = Graph(n, edges)
    _assert_same_facets(enumerate_facets(g, k), _filtered(g, k))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (4, 6)])
def test_hex_enumeration_equals_the_subset_test(m, n):
    g = build_hex_graph(m, n)
    for k in (1, 2, 3):
        _assert_same_facets(enumerate_facets(g, k), _filtered(g, k))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reach_enumeration_equals_the_subset_test(data):
    # k >= 4 is read from reach masks over chunks of subsets; it must give
    # the same tuple, in the same order, as the per-subset test
    n = data.draw(st.integers(5, 20), label="n")
    k = data.draw(st.sampled_from([k for k in range(4, n) if comb(n, k) <= 5000]), label="k")
    edges = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                               .filter(lambda e: e[0] != e[1]), max_size=3 * n),
                      label="edges")
    g = Graph(n, edges)
    _assert_same_facets(enumerate_facets(g, k), _filtered(g, k))


@pytest.mark.parametrize("g,k", [(cycle_graph(70), 68), (cycle_graph(70), 69),
                                 (build_hex_graph(4, 6), 66)],
                         ids=["cycle70-k68", "cycle70-k69", "hex-4-6-k66"])
def test_reach_masks_across_the_word_boundary(g, k):
    # N + 1 > 64, so a subset row and its reach take two words
    _assert_same_facets(enumerate_facets(g, k), _filtered(g, k))


@pytest.mark.parametrize("chunk", [1, 7])
def test_reach_enumeration_chunk_sizes(chunk):
    # chunks of 1 and 7 subsets, so that the last chunk of each k is ragged
    graphs = [build_hex_graph(1, 2), cycle_graph(9), Graph(8, [(1, 2), (3, 4), (2, 3), (5, 8)])]
    with mock.patch.object(cutcomplex, "_SUBSET_CHUNK", chunk):
        for g in graphs:
            for k in range(4, g.n_vertices):
                _assert_same_facets(enumerate_facets(g, k), _filtered(g, k))


def test_general_k_matches_oracle():
    # k = 2 is read from edge counts, k = 4, 5 from reach masks
    for g in (build_hex_graph(1, 2), build_hex_graph(2, 1), cycle_graph(9)):
        for k in (2, 4, 5):
            _assert_same_facets(enumerate_facets(g, k), tuple(oracle_facet_complements(g, k)))


def test_is_face_standard_six_cycle():
    cx = enumerate_facets(cycle_graph(6), 3)
    assert is_face(cx, set())
    face = tuple(v for v in range(1, 7) if v not in (1, 3, 5))
    assert is_face(cx, face)  # complement {1,3,5} is independent
    not_face = tuple(v for v in range(1, 7) if v not in (1, 2, 3))
    assert not is_face(cx, not_face)  # complement {1,2,3} is a path
    assert not is_face(cx, (1, 2, 3, 4))  # complement smaller than k
    assert not is_face(cx, tuple(range(1, 7)))


def test_is_face_downward_closure_spot():
    rng = random.Random(20240811)
    g = build_hex_graph(1, 2)
    cx = enumerate_facets(g, 3)
    verts = set(range(1, g.n_vertices + 1))
    for _ in range(40):
        compl = rng.choice(cx.facets)
        facet = sorted(verts - set(compl))
        sub = rng.sample(facet, rng.randint(0, len(facet)))
        assert is_face(cx, sub)


def test_f_vector_six_cycle_exhaustive():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    fv = f_vector(cx, mode="exhaustive")
    assert fv.counts == (1, 6, 15, 14)
    assert fv.f(-1) == 1 and fv.f(2) == 14 and fv.f(3) == 0
    # independent count straight from facet containment
    oracle = oracle_face_counts(oracle_full_facets(build_hex_graph(1, 1), 3), 6)
    assert list(fv.counts) == oracle


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1)])
def test_f_vector_closed_equals_exhaustive(m, n):
    cx = enumerate_facets(build_hex_graph(m, n), 3)
    assert f_vector(cx, mode="closed").counts == f_vector(cx, mode="exhaustive").counts


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exhaustive_f_vector_matches_oracle_on_random_graphs(data):
    k = data.draw(st.sampled_from((2, 3, 4)), label="k")
    n = data.draw(st.integers(k + 1, 12), label="n")
    edges = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                               .filter(lambda e: e[0] != e[1]), max_size=2 * n),
                      label="edges")
    g = Graph(n, edges)
    cx = enumerate_facets(g, k)
    expected = oracle_face_counts(oracle_full_facets(g, k), n)
    assert list(f_vector(cx, mode="exhaustive").counts) == expected
    with mock.patch.object(cutcomplex, "_COUNT_CHUNK", 7):  # many small chunks
        assert list(f_vector(cx, mode="exhaustive").counts) == expected


def test_exhaustive_f_vector_ignores_the_facet_list():
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    facets = cx.facets[1:]
    tampered = CutComplex(graph=cx.graph, k=3, facets=facets)
    # the exhaustive count derives the facets from the graph, and so does
    # auto: the closed form refuses a complex that lists a facet too few
    assert f_vector(tampered, mode="exhaustive").f(6) == hex_facet_count(1, 2)
    assert f_vector(tampered).f(6) == hex_facet_count(1, 2)
    with pytest.raises(InvalidParams):
        f_vector(tampered, mode="closed")


def test_closed_f_vector_gated_on_the_graph_not_its_type():
    # H(1, 1) with the edge 1 - 6, which closes two 4-cycles: still a
    # HexGraph, but some 4-sets hold no disconnected triple, so fewer
    # pairs are faces than C(6, 2).  The closed form must not apply
    g = HexGraph(1, 1, hex_edges(1, 1) + [(1, 6)])
    cx = enumerate_facets(g, 3)
    exhaustive = f_vector(cx, mode="exhaustive")
    assert exhaustive.counts == (1, 6, 13, 10)
    assert f_vector(cx).counts == exhaustive.counts
    with pytest.raises(InvalidParams):
        f_vector(cx, mode="closed")


def test_f_vector_1_2_values():
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    fv = f_vector(cx)
    for j in range(0, 7):
        assert fv.f(j - 1) == comb(10, j)
    assert fv.f(6) == 106


def test_f_vector_guards(instance):
    cx = enumerate_facets(build_hex_graph(2, 3), 3)  # 22 vertices
    with pytest.raises(ResourceGuard, match="use --force$"):
        f_vector(cx, mode="exhaustive")
    # 68 vertices: no 2^N bitmap, so force does not lift the guard
    with pytest.raises(ResourceGuard, match="--force cannot lift it$"):
        f_vector(instance(4, 6, verify=False).cx, mode="exhaustive", force=True)
    # C_6 has no triangle and no 4-cycle, so the closed form applies to its
    # full 3-cut complex, whatever the graph's type, and to no 2-cut complex
    six = enumerate_facets(cycle_graph(6), 3)
    assert f_vector(six, mode="closed").counts == f_vector(six, mode="exhaustive").counts
    with pytest.raises(InvalidParams):
        f_vector(enumerate_facets(cycle_graph(6), 2), mode="closed")


def test_bitmap_ceiling_checked_before_any_subset_is_tested(instance):
    def untested(g, subset):
        raise AssertionError("a subset was tested before the bitmap ceiling was checked")

    cx = instance(4, 6, verify=False).cx
    with mock.patch.object(Graph, "is_connected_subset", untested):
        with pytest.raises(ResourceGuard, match="--force cannot lift it$"):
            f_vector(cx, mode="exhaustive", force=True)


def test_exports_deterministic():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    doc = facets_to_json_dict(cx)
    assert doc["k"] == 3 and doc["n_vertices"] == 6
    rows = listed(doc["facet_complements"])
    assert len(rows) == 14
    assert rows == sorted(rows) == list(cx.facets)
    assert listed(doc["facet_complements"]) == rows  # each reading walks the array again
    csv = facets_to_csv(cx)
    assert len(csv.splitlines()) == 14
    assert facets_to_csv(cx) == csv
