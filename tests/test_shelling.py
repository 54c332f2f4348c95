"""Order construction and shelling verification."""

import dataclasses
import random
from contextlib import contextmanager
from functools import cache
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexcut import (
    CountWithoutFailure,
    CutComplex,
    FVector,
    Graph,
    IncompleteOrder,
    InvalidParams,
    NoTailFacets,
    OrdinalOutOfRange,
    TailFacetInvariantViolated,
    TailFacetNotFound,
    UnverifiedOrder,
    build_hex_graph,
    cutcomplex,
    cycle_graph,
    enumerate_facets,
    f_vector,
    order_with_tail_reinserted,
    shelling,
    shelling_order,
    spanning_facets,
    swap_set,
    tail_facet_count,
    tail_facets,
    verify_k_cut_order,
    verify_shelling,
    verify_tail_obstruction,
)
from hexcut.cli import main
from hexcut.hexgraph import HexGraph, hex_edges
from hexcut.shelling import ShellingOrder, order_to_json_dict

from conftest import (
    listed,
    oracle_adjacency,
    oracle_connected,
    oracle_facet_complements,
    oracle_full_facets,
    oracle_is_chordal,
    oracle_is_shelling,
    oracle_mcs_order,
    oracle_perfect_elimination_order,
    oracle_row_violation,
    oracle_spanning_flags,
)

SMALL_INSTANCES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]  # N <= 16


@cache
def _complex(m, n):
    return enumerate_facets(build_hex_graph(m, n), 3)


def _order_of(cx, seq):
    return ShellingOrder(cx=cx, facets=tuple(seq),
                         position={f: i + 1 for i, f in enumerate(seq)})


@contextmanager
def _face_lookups(POSITION_TABLE_LIMIT=cutcomplex.POSITION_TABLE_LIMIT, **patches):
    """Patch module constants of the verifier and the face table limit of
    the complex; yields a list that gets, for each face numbering a
    verification reads meanwhile, True when it is by colex rank and False
    when it is by the sorted byte keys.  The numbering is kept per complex
    as the table limit stands at its first read, so a test that patches
    the limit builds its complex inside."""
    used = []
    real = shelling._face_numbers

    def recording(cx):
        used.append(real(cx).dense)
        return real(cx)

    with mock.patch.multiple(shelling, _face_numbers=recording, **patches), \
            mock.patch.object(cutcomplex, "POSITION_TABLE_LIMIT", POSITION_TABLE_LIMIT):
        yield used


def _dense(cx, limit):
    """True iff the C(N, k - 1) colex ranks of ``cx`` fit the table limit."""
    return comb(cx.n_vertices, cx.k - 1) <= limit


def _facet_sets(cx, seq):
    verts = set(range(1, cx.n_vertices + 1))
    return [frozenset(verts - set(c)) for c in seq]


def _seeded_graph(seed, n_vertices, p):
    rng = random.Random(seed)
    return Graph(n_vertices, [e for e in combinations(range(1, n_vertices + 1), 2)
                              if rng.random() < p])


def test_tail_count_cases():
    assert tail_facet_count(1, 1) == 0
    assert tail_facet_count(2, 1) == 0
    assert tail_facet_count(1, 2) == 1
    assert tail_facet_count(3, 1) == 1
    assert tail_facet_count(4, 6) == 22
    with pytest.raises(InvalidParams):
        tail_facet_count(0, 1)


def test_tail_facets_1_2():
    g = build_hex_graph(1, 2)
    (t,) = tail_facets(1, 2, g)
    assert t.complement == (6, 8, 9)
    assert t.center == 2
    assert g.neighbors(2) == (6, 8, 9)


def test_tail_facets_empty_cases():
    assert tail_facets(1, 1, build_hex_graph(1, 1)) == []
    assert tail_facets(2, 1, build_hex_graph(2, 1)) == []


def test_tail_facets_4_6_are_neighborhoods():
    g = build_hex_graph(4, 6)
    ts = tail_facets(4, 6, g)
    assert len(ts) == 22
    half = g.v1_boundary
    for t in ts:
        assert g.neighbors(t.center) == t.complement
        assert t.center <= half
        assert all(x > half for x in t.complement)
        x1, x2, x3 = t.complement
        assert x3 == x2 + 1
        assert not g.is_connected_subset(t.complement)
    comps = [t.complement for t in ts]
    assert comps == sorted(comps)


def test_tail_facets_validation_catches_wrong_graph():
    # a graph with one edge removed breaks complement == neighborhood
    g = build_hex_graph(1, 2)
    broken = HexGraph(1, 2, [e for e in hex_edges(1, 2) if e != (2, 8)])
    with pytest.raises(TailFacetInvariantViolated):
        tail_facets(1, 2, broken)


def test_tail_facets_require_a_graph():
    with pytest.raises(TypeError):
        tail_facets(1, 2)


def test_order_1_1_plain_sorted():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    order = shelling_order(cx)
    assert order.n_facets == 14
    assert order.tail == ()
    assert order.base_count == 14
    assert list(order.facets) == sorted(order.facets)
    for i, t in enumerate(order.facets):
        assert order.facets.index(t) + 1 == i + 1


def test_order_1_2_tail_relocated():
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    order = shelling_order(cx)
    assert order.n_facets == 106
    assert order.base_count == 105
    assert order.facets[-1] == (6, 8, 9)
    assert list(order.facets[:105]) == sorted(order.facets[:105])


def test_order_reindexing_relation():
    # relocating the tail shifts each remaining facet left by the number of
    # tail facets that preceded it in the plain sorted order
    cx = enumerate_facets(build_hex_graph(2, 2), 3)
    plain = sorted(cx.facets)
    order = shelling_order(cx)
    tset = {t.complement for t in order.tail}
    shift = 0
    for j, f in enumerate(plain):
        if f in tset:
            shift += 1
        else:
            assert order.facets.index(f) + 1 == j + 1 - shift


def test_swap_set_basics():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    order = shelling_order(cx)
    assert swap_set(order, 1) == frozenset()
    s2 = swap_set(order, 2)
    assert s2
    # the swap vertex reaching facet 1 is the single element of the
    # first complement missing from the second
    (swap_vertex,) = set(order.facets[0]) - set(order.facets[1])
    assert swap_vertex in s2
    for j in range(1, 15):
        assert not swap_set(order, j) & set(order.facets[j - 1])
    with pytest.raises(OrdinalOutOfRange):
        swap_set(order, 0)
    with pytest.raises(OrdinalOutOfRange):
        swap_set(order, 15)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (3, 1)])
def test_verify_ok_small(instance, m, n):
    bundle = instance(m, n)
    assert bundle.verify.ok
    assert bundle.verify.counterexample is None


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2)])
def test_verify_matches_full_set_oracle(m, n):
    g = build_hex_graph(m, n)
    cx = enumerate_facets(g, 3)
    order = shelling_order(cx)
    verts = set(range(1, g.n_vertices + 1))
    facet_sets = [frozenset(verts - set(c)) for c in order.facets]
    ok, cexa = oracle_is_shelling(facet_sets)
    assert ok
    assert verify_shelling(order).ok


def test_plain_order_fails_at_first_tail_position():
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    plain = shelling_order(cx, relocate_tail=False)
    res = verify_shelling(plain)
    assert not res.ok
    expected_j = plain.facets.index((6, 8, 9)) + 1
    assert res.counterexample[1] == expected_j
    # independent confirmation on full vertex sets
    verts = set(range(1, 11))
    facet_sets = [frozenset(verts - set(c)) for c in plain.facets]
    ok, cexa = oracle_is_shelling(facet_sets)
    assert not ok and cexa == res.counterexample


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (1, 3)])
def test_reinserting_each_tail_facet_breaks_order(m, n):
    cx = enumerate_facets(build_hex_graph(m, n), 3)
    for idx in range(1, tail_facet_count(m, n) + 1):
        order, expected_j = order_with_tail_reinserted(cx, idx)
        res = verify_shelling(order)
        assert not res.ok
        assert res.counterexample[1] == expected_j


def _verifier_sizes(draw):
    """Row block and step sizes, and a table limit that picks the dense
    table or the sorted keys.  A block of one row finds every earlier
    complement through the face masks; longer ones find some with the
    block's own scan, whose 64-row words the sizes 64 and 65 straddle."""
    return dict(
        _BLOCK_ROWS=draw(st.sampled_from([1, 3, 7, 64, 65, shelling._BLOCK_ROWS])),
        _STEP_CELLS=draw(st.sampled_from([1, 50, shelling._STEP_CELLS])),
        POSITION_TABLE_LIMIT=draw(st.sampled_from([1, cutcomplex.POSITION_TABLE_LIMIT])),
    )


def _nearly_sorted(draw, facets):
    """Revlex, the complements in lex order, with one to three facets moved
    earlier.  Vertices become live in ascending order, so the live-first
    pruning skips subsets here, where a random permutation skips none."""
    seq = sorted(facets)
    for _ in range(draw(st.integers(1, 3)) if len(seq) > 1 else 0):
        a = draw(st.integers(1, len(seq) - 1))
        seq.insert(draw(st.integers(0, a - 1)), seq.pop(a))
    return seq


@st.composite
def random_k_orders(draw):
    """A random graph on N <= 9 vertices, k in {2, 3, 4, 5}, a random or a
    nearly sorted order of its k-cut facets, plus the verifier sizes."""
    k = draw(st.sampled_from([2, 3, 4, 5]))
    N = draw(st.integers(k + 1, 9))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(1, N + 1), 2)))))
    cx = enumerate_facets(Graph(N, sorted(edges)), k)
    if draw(st.booleans()):
        seq = draw(st.permutations(cx.facets))
    else:
        seq = _nearly_sorted(draw, cx.facets)
    return cx, seq, _verifier_sizes(draw)


@settings(max_examples=60, deadline=None)
@given(random_k_orders())
def test_any_k_verifier_and_report_match_oracles(case):
    cx, seq, patches = case
    g, k = cx.graph, cx.k
    full = dict(zip(oracle_facet_complements(g, k), oracle_full_facets(g, k)))
    assert set(full) == set(seq)
    facet_sets = [full[c] for c in seq]
    with _face_lookups(**patches) as used:
        cx = enumerate_facets(g, k)
        order = _order_of(cx, seq)
        res = verify_shelling(order)
    assert used == [_dense(cx, patches["POSITION_TABLE_LIMIT"])]
    assert (res.ok, res.counterexample) == oracle_is_shelling(facet_sets)
    # only a passing order carries a spanning report
    assert order.verified == res.ok == (order._report is not None)
    if res.ok:
        report = spanning_facets(order)
        assert list(report.spanning_flags) == oracle_spanning_flags(facet_sets)
    else:
        with pytest.raises(UnverifiedOrder):
            spanning_facets(order)


def _swap_rows(order, run=None):
    """Every packed swap row of ``order``, concatenated from the blocks the
    verifier's block driver yields: the opening lex run, ``run`` rows long
    by default, read by rank from its masks, and the rows after it by
    prefix sums.  ``run`` 0 builds every row by prefix sums."""
    cx = order.cx
    pos = shelling._face_numbers(cx)
    comp = cutcomplex._complements(cx)[order.rows]
    face = pos.face[order.rows]
    faces = shelling._Faces(cx.n_vertices, pos.count)
    run = shelling._run_length(order.rows) if run is None else run
    faces.pass_rows(comp[:run], face[:run])
    blocks = [rows for _, rows in shelling._row_blocks(faces, comp, face, run)]
    return np.concatenate([np.empty((0, faces.masks.shape[0]), dtype="<u8"), *blocks])


def _counted(order):
    """True iff the verifier knows f(Delta) for the order, so that the face
    count certifies a pass."""
    return shelling._closed_faces(order.cx) is not None


@settings(max_examples=60, deadline=None)
@given(random_k_orders())
def test_packed_swap_rows_equal_swap_set(case):
    # the block driver yields every packed row of every order, passing or
    # failing, once, and each row, unpacked, is the one-row reference
    cx, seq, patches = case
    with _face_lookups(**patches) as used:
        cx = enumerate_facets(cx.graph, cx.k)
        order = _order_of(cx, seq)
        table = _swap_rows(order)
    assert used == [_dense(cx, patches["POSITION_TABLE_LIMIT"])]
    assert len(table) == order.n_facets
    bits = np.unpackbits(table.view(np.uint8), axis=1, bitorder="little")
    for j in range(1, order.n_facets + 1):
        assert set(np.flatnonzero(bits[j - 1]).tolist()) == swap_set(order, j)


def test_offender_live_only_inside_its_block():
    # H(2, 3) revlex with its last facet moved to 898: row 898 fails against
    # 840, the first complement that starts with its vertex.  In blocks of
    # 256 rows both lie in the block from 769, so the vertex does not count
    # as live there, and the pruned subset test reads no mask for it.
    cx = _complex(2, 3)
    seq = sorted(cx.facets)
    seq.insert(897, seq.pop())
    order = _order_of(cx, seq)
    with mock.patch.object(shelling, "_BLOCK_ROWS", 256):
        res = verify_shelling(order)
    assert oracle_row_violation(_facet_sets(cx, seq), 898) == 840
    assert (res.ok, res.counterexample) == (False, (840, 898))
    start = 897 // 256 * 256
    last = max(c[0] for c in seq[:start])  # the live bound of the block
    assert start <= 839 and last < seq[839][0]
    # row 898 takes the subset path: fewer live-first pairs than rows before it
    inside = set(range(1, cx.n_vertices + 1)) - swap_set(order, 898)
    s, L = len(inside), sum(v <= last for v in inside)
    assert comb(s, 2) - comb(s - L, 2) < 897


def test_last_live_vertex_in_the_second_mask_word():
    # the 66-cycle at k = 2 in descending lex order: S_2017 = {1, 64, 65, 66}
    # holds the first complement (64, 66).  Its last live vertex, 64, and
    # the bit of 66 lie in the second 64-bit word, and the subsets read are
    # the L = 2 vertices of S_j up to 64, across both words.
    cx = enumerate_facets(cycle_graph(66), 2)
    seq = sorted(cx.facets, reverse=True)
    sets = _facet_sets(cx, seq)
    assert (seq[0], seq[2016]) == ((64, 66), (1, 65))
    assert oracle_row_violation(sets, 2017) == 1
    assert all(oracle_row_violation(sets, j) is None for j in range(1990, 2017))
    res = verify_shelling(_order_of(cx, seq))
    assert (res.ok, res.counterexample) == (False, (1, 2017))


def test_live_vertices_that_are_no_prefix_across_blocks_and_words():
    # the 130-cycle at k = 2 in descending lex order: the first vertices of
    # the passed complements run down from 128, so they form no prefix, and
    # from the first block on the live bound, 128, reaches subsets of S_j
    # that start at vertices no passed complement starts at.  A row packs
    # into three words, and row 8129, (1, 129), fails against the first
    # complement, (128, 130), 31 blocks of 256 rows later or in the last
    # block of 4096; both block sizes must give the same verdict
    cx = enumerate_facets(cycle_graph(130), 2)
    seq = sorted(cx.facets, reverse=True)
    order = _order_of(cx, seq)
    verdicts = set()
    for block in (256, shelling._BLOCK_ROWS):
        with mock.patch.object(shelling, "_BLOCK_ROWS", block):
            res = verify_shelling(order)
        verdicts.add((res.ok, res.counterexample))
    assert verdicts == {(False, (1, 8129))}
    assert (seq[0], seq[8128]) == ((128, 130), (1, 129))
    sets = _facet_sets(cx, seq)
    assert oracle_row_violation(sets, 8129) == 1
    assert all(oracle_row_violation(sets, j) is None for j in range(8079, 8129))


def _moved(seq, a, b):
    """``seq`` with its entry at 0-based a moved to b."""
    seq = list(seq)
    seq.insert(b, seq.pop(a))
    return seq


def _kernel_cases():
    """Failing orders at N = 66, so that a packed row takes two words, each
    with its first failing (i, j) and the rows before j that must pass."""
    path = enumerate_facets(Graph(66, [(v, v + 1) for v in range(1, 66)]), 2)
    # (7, 9) moved to 310: row 312, on the subset path, fails against it,
    # and both lie in one block for every size tried but 1
    yield "same-block", path, _moved(path.facets, 369, 309), (310, 312), range(260, 312)
    # (64, 66) moved to 2070: the single block has 2080 = 32 * 65 rows, not
    # a multiple of 64, and row 2072 lies in its last, partial word
    yield "last-word", path, _moved(path.facets, 2079, 2069), (2070, 2072), range(2020, 2072)
    # the non-edges (1, 3..20), (2, 3), (2, 4), (2, 66): S_21 misses only
    # Lambda_21 = {3, 4}, so it holds (1, 5); its 64 vertices are as many
    # 1-subsets, more than the 21 facets, so row 21 is scanned
    non = [(1, x) for x in range(3, 21)] + [(2, 3), (2, 4), (2, 66)]
    dense = enumerate_facets(Graph(66, sorted(set(combinations(range(1, 67), 2)) - set(non))), 2)
    assert dense.facets == tuple(non)
    yield "scan", dense, non, (3, 21), range(2, 21)
    # the 66-cycle in descending lex order with its first complement,
    # (64, 66), moved to 1701: row 2017, S_2017 = {1, 64, 65, 66}, fails
    # against it 316 rows later.  Blocks of 4096 rows hold both, so only
    # the block's scan sees it; shorter ones find it in the face masks
    cycle = enumerate_facets(cycle_graph(66), 2)
    seq = _moved(sorted(cycle.facets, reverse=True), 0, 1700)
    yield "far", cycle, seq, (1701, 2017), range(1960, 2017)


_KERNEL_CASES = list(_kernel_cases())


@pytest.mark.parametrize("label,cx,seq,expected,before", _KERNEL_CASES,
                         ids=[case[0] for case in _KERNEL_CASES])
def test_containment_kernel_matches_the_row_oracle(label, cx, seq, expected, before):
    sets = _facet_sets(cx, seq)
    i, j = expected
    assert oracle_row_violation(sets, j) == i
    assert all(oracle_row_violation(sets, r) is None for r in before)
    order = _order_of(cx, seq)
    s = cx.n_vertices - len(swap_set(order, j))  # |S_j|
    if label == "scan":  # at least eta (k-1)-subsets: scanned
        assert comb(s, cx.k - 1) >= cx.n_facets
    if label in ("same-block", "far"):  # fewer (k-1)-subsets than earlier rows
        assert comb(s, cx.k - 1) < j - 1
    if label == "far":  # more than 256 rows apart in one default block
        assert j - i > 256 and (i - 1) // shelling._BLOCK_ROWS == (j - 1) // shelling._BLOCK_ROWS
    for block in (1, 3, 64, 65, 256, 4096):
        if label == "same-block":
            assert (i - 1) // block == (j - 1) // block or block == 1
        for step in (1, 50, shelling._STEP_CELLS):
            sizes = {"_BLOCK_ROWS": block, "_STEP_CELLS": step}
            with mock.patch.multiple(shelling, **sizes):
                res = verify_shelling(order)
            assert (res.ok, res.counterexample) == (False, expected), sizes


@pytest.mark.parametrize("limit", [1, cutcomplex.POSITION_TABLE_LIMIT])
def test_subsets_that_are_no_face_read_the_zero_mask(limit):
    # vertex 1 of the fan is adjacent to every other vertex, so it lies in
    # no complement and in every S_j, and the (k-1)-subsets of S_j through
    # it are no face; under both lookups they must hit nothing
    g = Graph(12, [(1, v) for v in range(2, 13)] + [(v, v + 1) for v in range(2, 12)])
    with _face_lookups(POSITION_TABLE_LIMIT=limit) as used:
        cx = enumerate_facets(g, 4)
        seq = sorted(cx.facets)
        res = verify_shelling(_order_of(cx, seq))
    assert used == [_dense(cx, limit)]
    assert (res.ok, res.counterexample) == oracle_is_shelling(_facet_sets(cx, seq)) == (True, None)


def test_live_pruning_reads_under_a_tenth_of_the_pairs(instance, monkeypatch):
    # the containment check passes the H(4, 6) order reading, for the rows
    # that an unpruned test would check by subsets, C(|S_j|, 2) < j - 1,
    # under a tenth of those pairs
    order = instance(4, 6).order
    size = order.n_vertices - np.bitwise_count(_swap_rows(order)).sum(axis=1, dtype=np.int64)
    pairs = size * (size - 1) // 2
    unpruned = int(pairs[pairs < np.arange(len(pairs))].sum())
    looked_up = []
    real = cutcomplex._Positions.index

    def counting(pos, cols):
        looked_up.append(len(cols[0]))
        return real(pos, cols)

    monkeypatch.setattr(cutcomplex._Positions, "index", counting)
    # a replaced order holds no table, so it is verified again from scratch
    assert verify_shelling(dataclasses.replace(order)).ok
    assert 0 < sum(looked_up) < unpruned / 10


def test_jobs_do_not_change_the_verdict():
    # on a failing order, jobs changes neither the counterexample nor pairs_checked
    plain = shelling_order(_complex(3, 3), relocate_tail=False)
    r1 = verify_shelling(plain, jobs=1)
    r2 = verify_shelling(plain, jobs=2)
    assert not r1.ok and r2.jobs == 2
    assert dataclasses.replace(r2, jobs=1) == r1


@pytest.mark.parametrize("jobs", [0, -1, 1.5, 2.0, "2", None, True, False])
def test_jobs_other_than_an_int_of_at_least_one_is_refused(monkeypatch, jobs):
    # jobs changes no result, but anything other than an int >= 1, a bool
    # included, is refused, and verify_k_cut_order refuses it before it
    # enumerates the complex
    order = shelling_order(_complex(1, 2))
    with pytest.raises(InvalidParams, match="jobs must be"):
        verify_shelling(order, jobs=jobs)
    assert not order.verified

    def unreachable(*args):
        raise AssertionError("complex enumerated")

    monkeypatch.setattr(shelling, "enumerate_facets", unreachable)
    with pytest.raises(InvalidParams, match="jobs must be"):
        verify_k_cut_order(build_hex_graph(1, 2), 3, jobs=jobs)


@st.composite
def perturbed_orders(draw):
    """The candidate order at N <= 16 after an adjacent transposition, a move
    of one facet or a random permutation, plus the verifier sizes."""
    cx = _complex(*draw(st.sampled_from(SMALL_INSTANCES)))
    seq = list(shelling_order(cx).facets)
    kind = draw(st.sampled_from(["transpose", "move", "permute"]))
    if kind == "transpose":
        a = draw(st.integers(0, len(seq) - 2))
        seq[a], seq[a + 1] = seq[a + 1], seq[a]
    elif kind == "move":
        f = seq.pop(draw(st.integers(0, len(seq) - 1)))
        seq.insert(draw(st.integers(0, len(seq))), f)
    else:
        seq = draw(st.permutations(seq))
    return cx, seq, _verifier_sizes(draw)


@settings(max_examples=50, deadline=None)
@given(perturbed_orders())
def test_verifier_matches_oracle_on_perturbed_orders(case):
    # the drawn complex is the cached one; the order is verified over a
    # complex built under the drawn table limit
    cx, seq, patches = case
    with _face_lookups(**patches) as used:
        cx = enumerate_facets(cx.graph, 3)
        res = verify_shelling(_order_of(cx, seq))
    assert used == [_dense(cx, patches["POSITION_TABLE_LIMIT"])]
    assert (res.ok, res.counterexample) == oracle_is_shelling(_facet_sets(cx, seq))


def _h33_failing_orders():
    cx = _complex(3, 3)
    plain = shelling_order(cx, relocate_tail=False)
    first_tail = min(plain.facets.index(t.complement) + 1 for t in tail_facets(3, 3, cx.graph))
    yield "plain", plain, first_tail
    for idx in range(1, tail_facet_count(3, 3) + 1):
        order, spot = order_with_tail_reinserted(cx, idx)
        yield f"reinsert{idx}", order, spot


@pytest.mark.parametrize("jobs", [1, 2])
def test_h33_failing_orders_match_row_brute_force(jobs):
    for label, order, j in _h33_failing_orders():
        res = verify_shelling(order, jobs=jobs)
        i = oracle_row_violation(_facet_sets(order.cx, order.facets), j)
        assert i is not None, label
        assert (res.ok, res.counterexample) == (False, (i, j)), label
        # rows before the failure take both paths: C(|S_j|, k - 1) prefix
        # bitmask tests and pair scans
        rows = _swap_rows(order)[: j - 1]
        size = order.n_vertices - np.bitwise_count(rows).sum(axis=1)
        by_prefixes = size * (size - 1) // 2 < range(j - 1)
        assert by_prefixes.any() and not by_prefixes.all(), label


class _LazyFacetSets:
    """The full facet sets of an order, built on access, so that a row
    oracle over some 50 000 facets holds one set at a time."""

    def __init__(self, order):
        self.verts = frozenset(range(1, order.n_vertices + 1))
        self.facets = order.facets

    def __getitem__(self, at):
        if isinstance(at, slice):
            return (self.verts - set(c) for c in self.facets[at])
        return self.verts - set(self.facets[at])


@pytest.mark.parametrize("t,expected", [(1, (9831, 44095)), (22, (42807, 49913))])
def test_h46_reinsertions_across_the_word_boundary(instance, t, expected):
    # N = 68, so a prefix bitmask spans two 64-bit words; the offender of
    # t = 22, (32, 62, 68), sets a bit in the second one
    order, spot = order_with_tail_reinserted(instance(4, 6, verify=False).cx, t)
    res = verify_shelling(order)
    assert (res.ok, res.counterexample) == (False, expected)
    i, j = expected
    assert j == spot
    assert oracle_row_violation(_LazyFacetSets(order), j) == i
    if t == 22:
        assert order.facets[i - 1] == (32, 62, 68)
    # row j took the prefix bitmask path: C(|S_j|, 2) < j - 1
    s = order.n_vertices - len(swap_set(order, j))
    assert s * (s - 1) // 2 < j - 1


def _counting_kernels(monkeypatch):
    """Patch both row kernels to record, in a list they return, the
    complement of every row they build, in the order built."""
    built = []

    def counting(real):
        def kernel(faces, comp, face):
            built.extend(map(tuple, comp.tolist()))
            return real(faces, comp, face)
        return kernel

    for name in ("swap_rows", "rank_rows"):
        monkeypatch.setattr(shelling._Faces, name, counting(getattr(shelling._Faces, name)))
    return built


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2)])
def test_swap_table_built_once_per_verified_order(monkeypatch, m, n):
    # rows come from both kernels: by rank for the lex run that opens the
    # order, by prefix sums for the rows after it; each row is built once,
    # in its place, and the spanning report is the one its tally kept
    built = _counting_kernels(monkeypatch)
    monkeypatch.setattr(shelling, "_BLOCK_ROWS", 64)
    cx = _complex(m, n)
    order = shelling_order(cx)
    assert verify_shelling(order).ok
    report = spanning_facets(order)
    assert built == list(order.facets)
    assert list(report.spanning_flags) == oracle_spanning_flags(_facet_sets(cx, order.facets))
    # the report is no field of the constructor: a copy is unverified, and
    # compares and prints like the order it copies
    twin = dataclasses.replace(order)
    assert order.verified and not twin.verified
    assert twin == order and repr(twin) == repr(order)

    # a failing order builds only the blocks of 64 rows up to the one that
    # holds the failing row, each row once.  It keeps no report, so its
    # spanning report is refused without building a row
    plain = shelling_order(cx, relocate_tail=False)
    built.clear()
    res = verify_shelling(plain)
    assert not res.ok and plain._report is None and not plain.verified
    named = ((res.counterexample[1] - 1) // 64 + 1) * 64  # the rows up to its block's end
    assert built == list(plain.facets[:named])
    # H(2, 2) fails at row 488 of 532, so its last block is never built
    assert (m, n) != (2, 2) or named == 512 < plain.n_facets
    built.clear()
    with pytest.raises(UnverifiedOrder):
        spanning_facets(plain)
    assert built == []


def test_rows_built_once_where_the_face_count_is_unknown(monkeypatch):
    # revlex shells the 4-cut complex of the 9-cycle, whose f(Delta) the
    # verifier does not know: no certificate is read, and the containment
    # check builds each row once, in blocks of 7, and tallies the report
    built = _counting_kernels(monkeypatch)
    monkeypatch.setattr(shelling, "_BLOCK_ROWS", 7)
    cx = enumerate_facets(cycle_graph(9), 4)
    order = shelling._order(cx)
    assert not _counted(order)
    assert verify_shelling(order).ok
    assert built == list(order.facets)
    report = spanning_facets(order)
    assert list(report.spanning_flags) == oracle_spanning_flags(_facet_sets(cx, order.facets))
    assert report.witness_map == {} and report.n_facets == order.n_facets


# ---------------------------------------------------------------------------
# the lex run that opens an order, read by rank
# ---------------------------------------------------------------------------

def _assert_rank_rows_are_prefix_sum_rows(order, run):
    assert shelling._run_length(order.rows) == run
    assert np.array_equal(_swap_rows(order), _swap_rows(order, run=0))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (3, 3), (3, 4), (4, 4), (4, 6),
                                 (6, 6)])
def test_rank_rows_equal_the_prefix_sum_rows_on_hex_orders(instance, m, n):
    # the relocated, the plain and every single-tail order: the base
    # segment is the lex run, read by rank, and the tail rows after it come
    # from the prefix-sum kernel starting at the run's masks
    cx = instance(m, n, verify=False).cx
    orders = [shelling_order(cx), shelling_order(cx, relocate_tail=False)]
    orders += [order_with_tail_reinserted(cx, t)[0] for t in range(1, tail_facet_count(m, n) + 1)]
    for order in orders:
        _assert_rank_rows_are_prefix_sum_rows(order, order.base_count)


def _explored_orders(g, k):
    """The revlex order of the k-cut complex of ``g`` and the order that
    moves its size-k open neighbourhoods to the end, with the length of
    the lex run each opens with."""
    cx = enumerate_facets(g, k)
    facets = set(cx.facets)
    hoods = sorted({nb for nb in map(g.neighbors, g.vertices()) if len(nb) == k} & facets)
    yield shelling._order(cx), cx.n_facets
    order = shelling._order(cx, hoods)
    # the moved rows continue the run while they follow the last row of the base
    yield order, shelling._run_length(order.rows)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("g", [build_hex_graph(1, 3), _seeded_graph(3, 12, 0.3),
                               _seeded_graph(8, 13, 0.5)], ids=["hex-1-3", "random12", "random13"])
def test_rank_rows_equal_the_prefix_sum_rows_at_k4_and_k5(g, k):
    for order, run in _explored_orders(g, k):
        assert run >= order.base_count
        _assert_rank_rows_are_prefix_sum_rows(order, run)


def test_run_masks_stay_as_the_run_left_them():
    # H(2, 2), N = 16, packs a row into one word.  With tail facet 2 back at
    # its sorted place, the run ends with the base segment, and tail facet
    # 1, after it, passes into the masks.  The run's failure is checked
    # against the masks of the run alone: counting tail facet 1 among them
    # would flag row 488, which holds it in S_j, as failing
    cx = _complex(2, 2)
    order, spot = order_with_tail_reinserted(cx, 2)
    assert shelling._Faces(cx.n_vertices, 1).masks.shape[0] == 1
    assert shelling._run_length(order.rows) == order.n_facets - 1
    res = verify_shelling(order)
    assert (res.ok, res.counterexample) == (False, (306, 506)) and spot == 506
    assert oracle_is_shelling(_facet_sets(cx, order.facets)) == (False, (306, 506))


@st.composite
def sorted_prefix_orders(draw):
    """A random graph on N <= 9 vertices, k in {2, 3, 4, 5}, its k-cut
    facets in lex order up to a cut and shuffled after it, plus the
    verifier sizes.  When the lex order fails at row j, the cut often lies
    at j - 1, j or j + 1 rows: the prefix ends just before, at or after
    the failure."""
    k = draw(st.sampled_from([2, 3, 4, 5]))
    N = draw(st.integers(k + 1, 9))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(1, N + 1), 2)))))
    cx = enumerate_facets(Graph(N, sorted(edges)), k)
    seq = list(cx.facets)
    ok, failure = oracle_is_shelling(_facet_sets(cx, seq))
    if not ok and draw(st.booleans()):
        cut = failure[1] + draw(st.sampled_from([-1, 0, 1]))
    else:
        cut = draw(st.integers(0, len(seq)))
    return cx, seq[:cut] + draw(st.permutations(seq[cut:])), _verifier_sizes(draw)


@settings(max_examples=80, deadline=None)
@given(sorted_prefix_orders())
def test_sorted_prefix_orders_match_the_oracle(case):
    # the run check names a failure inside the sorted prefix, the sweep one
    # after it; either way the verdict is the oracle's minimal (i, j), with
    # f(Delta) unknown and with the exhaustive count as f(Delta)
    cx, seq, patches = case
    facet_sets = _facet_sets(cx, seq)
    exhaustive = f_vector(cx, mode="exhaustive")
    oracle = oracle_is_shelling(facet_sets)
    with _face_lookups(**patches):
        cx = enumerate_facets(cx.graph, cx.k)
        res = verify_shelling(_order_of(cx, seq))
        with mock.patch.object(shelling, "_closed_faces", lambda cx: exhaustive):
            counted = verify_shelling(_order_of(cx, seq))
    assert (res.ok, res.counterexample) == (counted.ok, counted.counterexample) == oracle


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2)])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_hex_plain_prefix_around_its_failure(m, n, shift):
    # the plain order of H(m, n) sorted up to one row before, at or after
    # its first failing row j, and shuffled after it
    cx = _complex(m, n)
    seq = list(cx.facets)
    j = verify_shelling(shelling_order(cx, relocate_tail=False)).counterexample[1]
    rest = seq[j + shift:]
    random.Random(j + shift).shuffle(rest)
    seq = seq[:j + shift] + rest
    res = verify_shelling(_order_of(cx, seq))
    assert (res.ok, res.counterexample) == oracle_is_shelling(_facet_sets(cx, seq))


@settings(max_examples=60, deadline=None)
@given(random_k_orders())
def test_interval_sum_is_the_face_count_exactly_for_shellings(case):
    # the intervals [Lambda_j, F_j] cover Delta: the sum of their sizes is
    # the exhaustive face count for a shelling and exceeds it otherwise.
    # With that count as f(Delta), every complex gets the oracle's verdict,
    # and no passing order trips the certificate
    cx, seq, patches = case
    facet_sets = _facet_sets(cx, seq)
    exhaustive = f_vector(cx, mode="exhaustive")
    total = sum(exhaustive.counts)
    with _face_lookups(**patches) as used:
        cx = enumerate_facets(cx.graph, cx.k)
        order = _order_of(cx, seq)
        pos = shelling._face_numbers(cx)
        faces = shelling._Faces(cx.n_vertices, pos.count)
        comp = cutcomplex._complements(cx)[order.rows]
        tally = shelling._Tally(cx.n_vertices, cx.k)
        for lo, rows in shelling._row_blocks(faces, comp, pos.face[order.rows], 0):
            tally.add(comp[lo:lo + len(rows)], rows)
        counted = shelling._interval_sum(tally.sizes)
        with mock.patch.object(shelling, "_closed_faces", lambda cx: exhaustive):
            res = verify_shelling(order)
    assert used == [_dense(cx, patches["POSITION_TABLE_LIMIT"])] * 2
    oracle = oracle_is_shelling(facet_sets)
    assert (counted == total) == oracle[0] and counted >= total
    assert all(isinstance(x, int) for x in (counted, total))
    assert (res.ok, res.counterexample) == oracle


# the counterexamples of every failing order below, as the verifier gave
# them while the containment test still decided each verdict: per instance
# the plain order, then each single tail reinsertion in schedule order
_FAILURES = {
    (1, 2): [(50, 100), (50, 100)],
    (2, 2): [(239, 488), (239, 488), (306, 506)],
    (3, 3): [(1345, 3580), (1345, 3580), (1653, 3667), (1936, 3741), (2435, 3855),
             (2649, 3896), (2842, 3928), (3314, 3980)],
    (3, 4): [(2271, 7434), (2271, 7434), (2811, 7583), (3318, 7715), (4241, 7933),
             (4655, 8020), (5040, 8094), (5731, 8208), (6035, 8249), (6314, 8281),
             (7020, 8333)],
    (4, 6): [(9831, 44095), (9831, 44095), (11749, 44618), (13605, 45109), (15400, 45569),
             (18815, 46401), (20433, 46774), (21994, 47120), (23499, 47440), (26349, 48007),
             (27692, 48255), (28983, 48481), (30223, 48686), (32558, 49038), (33651, 49186),
             (34697, 49317), (35697, 49432), (37567, 49619), (38435, 49692), (39261, 49753),
             (40046, 49803), (42174, 49896), (42807, 49913)],
}


@pytest.mark.parametrize("m,n", list(_FAILURES))
def test_failing_orders_keep_their_counterexamples(m, n):
    # each order has a known face count, and the one pass names its
    # failure, which must be the one the block check named
    cx = _complex(m, n)
    orders = [shelling_order(cx, relocate_tail=False)]
    orders += [order_with_tail_reinserted(cx, t)[0] for t in range(1, len(_FAILURES[m, n]))]
    assert all(_counted(order) for order in orders)
    got = []
    for order in orders:
        res = verify_shelling(order)
        assert not res.ok and not order.verified
        got.append(res.counterexample)
    assert got == _FAILURES[m, n]


@pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
def test_byte_keys_name_the_failures_of_the_dense_table(m, n):
    # the same failing orders over a complex whose faces are numbered by
    # their byte keys: the sweep's subset tests read the masks of faces
    # found among the sorted keys, and must name the same failures
    with _face_lookups(POSITION_TABLE_LIMIT=1) as used:
        cx = enumerate_facets(build_hex_graph(m, n), 3)
        orders = [shelling_order(cx, relocate_tail=False)]
        orders += [order_with_tail_reinserted(cx, t)[0] for t in range(1, len(_FAILURES[m, n]))]
        got = [verify_shelling(order).counterexample for order in orders]
    assert used == [False] * len(orders)
    assert got == _FAILURES[m, n]


@pytest.mark.parametrize("chosen,expected", [((1, 5), (2271, 7434)), ((2, 7, 9), (2811, 7583)),
                                             ((4, 10), (4241, 7933)), ((3, 6, 8), (3318, 7715))])
def test_several_reinserted_tail_facets_keep_their_counterexample(chosen, expected):
    # H(3, 4) with several tail facets back at their sorted places fails
    # where the first of them sits, as under the block check
    cx = _complex(3, 4)
    rest = [t for t in tail_facets(3, 4, cx.graph) if t.index not in chosen]
    order = shelling._order(cx, [t.complement for t in rest], rest)
    res = verify_shelling(order)
    assert (res.ok, res.counterexample) == (False, expected)


def test_h46_passes_by_the_face_count(instance, monkeypatch):
    # N = 68: f(Delta) is about 2^68, past int64 and the 53-bit mantissa of
    # a float, so only an exact integer sum can equal it.  The containment
    # check passes the order, and the certificate compares that exact sum
    # with f(Delta)
    order = dataclasses.replace(instance(4, 6, verify=False).order)
    N, T = order.n_vertices, 6 * 4 * 6 + 2 * 4 + 2 * 6 - 4
    total = sum(shelling._closed_faces(order.cx).counts)
    assert total == 2**N - 1 - N - comb(N, 2) - T and total > 2**64
    sums = []
    real = shelling._interval_sum

    def certified(sizes):
        sums.append(real(sizes))
        return sums[-1]

    monkeypatch.setattr(shelling, "_interval_sum", certified)
    assert verify_shelling(order).ok and order.verified
    assert sums == [total] and isinstance(sums[0], int)


def _tampered_cases():
    """Inputs the face count must not decide: H(1, 2) listing the connected
    triple (1, 2, 6) in place of its last facet, facet count unchanged, and
    H(1, 1) and H(1, 2) with an edge that closes a 4-cycle, whose 3-cut
    complexes lose the faces that are the complements of the 4-cycles."""
    cx = _complex(1, 2)
    seq = list(shelling_order(cx).facets)
    seq[-1] = (1, 2, 6)
    yield "connected-triple", CutComplex(graph=cx.graph, k=3, facets=tuple(sorted(seq))), seq
    for m, n, edge in [(1, 1, (1, 6)), (1, 2, (1, 8))]:
        g = HexGraph(m, n, hex_edges(m, n) + [edge])
        four = enumerate_facets(g, 3)
        yield f"four-cycle-{m}-{n}", four, sorted(four.facets)


_TAMPERED = list(_tampered_cases())


@pytest.mark.parametrize("label,cx,seq", _TAMPERED, ids=[case[0] for case in _TAMPERED])
def test_tampered_complexes_get_the_oracle_verdict(label, cx, seq):
    order = _order_of(cx, seq)
    assert not _counted(order)
    res = verify_shelling(order)
    assert (res.ok, res.counterexample) == oracle_is_shelling(_facet_sets(cx, seq))
    if label != "four-cycle-1-2":  # passing orders, whose count is not f(Delta)
        assert res.ok


def _f_vector_cases():
    """Complexes that list other than the full 3-cut complex of their graph:
    H(1, 2) without its first facet, H(1, 2) with a pair in place of its
    last facet, then the tampered complexes above."""
    cx = _complex(1, 2)
    yield CutComplex(graph=cx.graph, k=3, facets=cx.facets[1:])
    yield CutComplex(graph=cx.graph, k=3, facets=cx.facets[:-1] + ((1, 9),))
    yield from (tampered for _, tampered, _ in _TAMPERED)


_F_VECTOR_CASES = list(_f_vector_cases())


@st.composite
def f_vector_complexes(draw):
    """One of ``_F_VECTOR_CASES``, or the k-cut complex of a random graph on
    N <= 12 vertices, k in {2, 3, 4}, with few enough edges that some have
    no triangle and no 4-cycle."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_F_VECTOR_CASES))
    k = draw(st.sampled_from([2, 3, 4]))
    N = draw(st.integers(k + 1, 12))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(1, N + 1), 2))), max_size=N + 2))
    return enumerate_facets(Graph(N, sorted(edges)), k)


@settings(max_examples=80, deadline=None)
@given(f_vector_complexes())
@example(_F_VECTOR_CASES[0])
@example(_F_VECTOR_CASES[1])
def test_auto_and_closed_f_vectors_equal_the_exhaustive_one(cx):
    # the closed form, which the verifier's face count sums, either equals
    # the exhaustive count or is refused, and auto falls back to exhaustive
    exhaustive = f_vector(cx, mode="exhaustive").counts
    assert f_vector(cx).counts == exhaustive
    try:
        closed = f_vector(cx, mode="closed").counts
    except InvalidParams:
        assert shelling._closed_faces(cx) is None
    else:
        assert closed == exhaustive


def test_count_without_failure_raises(monkeypatch):
    # a face count that rejects an order in which no row fails is an
    # internal contradiction: it raises and attaches no table
    order = shelling_order(_complex(1, 2))
    counts = shelling._closed_faces(order.cx).counts
    monkeypatch.setattr(shelling, "_closed_faces", lambda cx: FVector((*counts, 1)))
    with pytest.raises(CountWithoutFailure):
        verify_shelling(order)
    assert not order.verified


def test_count_below_the_interval_sum_raises(monkeypatch):
    # the certificate asks for equality: a face count one below the sum of
    # a passing order is as much a contradiction as one above it
    order = shelling_order(_complex(1, 2))
    counts = shelling._closed_faces(order.cx).counts
    monkeypatch.setattr(shelling, "_closed_faces",
                        lambda cx: FVector((*counts[:-1], counts[-1] - 1)))
    with pytest.raises(CountWithoutFailure):
        verify_shelling(order)
    assert not order.verified


@pytest.mark.parametrize("listed", ["genuine", "connected-triple"])
def test_complex_that_repeats_a_facet_is_refused(listed):
    # the complex lists its first facet twice and its last one not at all,
    # so it is not canonical: it is refused whatever the order lists, the
    # genuine facets or a connected triple in place of the one it lacks
    cx = _complex(1, 2)
    repeated = CutComplex(graph=cx.graph, k=3, facets=cx.facets[:-1] + cx.facets[:1])
    seq = list(cx.facets)
    if listed == "connected-triple":
        seq[-1] = (1, 2, 6)
    order = _order_of(repeated, seq)
    with pytest.raises(InvalidParams):
        verify_shelling(order)
    assert not order.verified


def test_k3_past_130_vertices_is_refuted_without_python_rows(monkeypatch):
    # the revlex order of the 131-vertex path with its last facet moved to
    # position 2; swap_set, the one-row Python reference, must not run
    cx = enumerate_facets(Graph(131, [(v, v + 1) for v in range(1, 131)]), 3)
    seq = list(cx.facets)
    seq.insert(1, seq.pop())

    def no_python_rows(order, j):
        raise AssertionError("swap_set called")

    monkeypatch.setattr(shelling, "swap_set", no_python_rows)
    res = verify_shelling(_order_of(cx, seq))
    i = oracle_row_violation(_facet_sets(cx, seq[:2]), 2)
    assert i is not None
    assert (res.ok, res.counterexample, res.pairs_checked) == (False, (i, 2), 1)


@pytest.mark.parametrize("m,n,k,expected", [(2, 2, 7, (164, 166)), (1, 3, 8, (172, 173))],
                         ids=["2-2-7", "1-3-8"])
def test_explore_past_the_table_limit(m, n, k, expected):
    # with the limit one cell below the C(N, k - 1) colex ranks, faces are
    # looked up among their sorted byte keys, by the library and the CLI;
    # every row up to the verdict matches the oracle
    g = build_hex_graph(m, n)
    with _face_lookups(POSITION_TABLE_LIMIT=comb(g.n_vertices, k - 1) - 1) as used:
        verdict = verify_k_cut_order(g, k)
        assert main(["explore", "--m", str(m), "--n", str(n), "--k", str(k)]) == 0
    assert used == [False, False]
    sets = oracle_full_facets(g, k)  # revlex: complements in lex order
    assert verdict.n_facets == len(sets)
    assert (verdict.ok, verdict.counterexample) == (False, expected)
    i, j = expected
    assert all(oracle_row_violation(sets, r) is None for r in range(2, j))
    assert oracle_row_violation(sets, j) == i


@pytest.mark.parametrize("limit", [1, cutcomplex.POSITION_TABLE_LIMIT])
def test_explore_with_k_near_n(limit):
    # at k = N - 2 the colex weights of (k-1)-subsets no input reaches, such
    # as C(67, 33), pass int32 and are capped; the dense table and the byte
    # keys must both answer like the oracle
    g = build_hex_graph(4, 6)
    with _face_lookups(POSITION_TABLE_LIMIT=limit) as used:
        verdict = verify_k_cut_order(g, 66)
    assert used == [limit >= comb(68, 65)]
    sets = oracle_full_facets(g, 66)  # revlex: complements in lex order
    assert verdict.n_facets == len(sets) == 30
    assert (verdict.ok, verdict.counterexample) == oracle_is_shelling(sets) == (False, (1, 2))


def test_byte_keys_number_faces_past_int64_ranks():
    # C(70, 34) is past 2^63, so no colex rank of a 34-subset fits an
    # integer key; the byte keys number the 70 faces of the two complements
    # exactly.  S_2 is all of V, which holds the first complement
    cx = CutComplex(graph=Graph(70, []), k=35,
                    facets=(tuple(range(1, 36)), tuple(range(36, 71))))
    with _face_lookups() as used:
        res = verify_shelling(shelling._order(cx))
    assert comb(70, 34) >= 2**63 and used == [False]
    assert shelling._face_numbers(cx).count == 70
    assert (res.ok, res.counterexample) == oracle_is_shelling(_facet_sets(cx, cx.facets))
    assert (res.ok, res.counterexample) == (False, (1, 2))


def test_sorted_keys_match_the_dense_table(capsys):
    def verified_report(cx):
        order = shelling_order(cx)
        assert verify_shelling(order).ok
        return spanning_facets(order)

    def runs():
        cx = enumerate_facets(build_hex_graph(1, 2), 3)
        verdicts = [verify_shelling(shelling_order(cx, rel)) for rel in (True, False)]
        assert main(["explore", "--m", "1", "--n", "2", "--k", "4"]) == 0
        return verdicts, verified_report(cx), capsys.readouterr().out

    with _face_lookups() as used:
        dense = runs()
    with _face_lookups(POSITION_TABLE_LIMIT=1) as byte_keys:
        assert runs() == dense
    assert set(used) == {True} and set(byte_keys) == {False} and len(used) == len(byte_keys) == 4
    verdicts, report, _ = dense
    assert not verdicts[1].ok and report.witness_map


@pytest.mark.parametrize("defect", ["missing", "duplicate", "swapped-position"])
def test_incomplete_order_rejected(defect):
    # an order rebuilt from a verified one with other fields holds no swap
    # table: a position map that disagrees with the facets is refused at
    # construction, the verifier refuses facets that miss or repeat one,
    # and the spanning report asks for a verification first
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    order = shelling_order(cx)
    assert verify_shelling(order).ok
    facets = order.facets
    if defect == "missing":
        facets = facets[:-1]
    elif defect == "duplicate":  # the first facet again in place of the last
        facets = facets[:-1] + facets[:1]
    position = {t: i + 1 for i, t in enumerate(facets)}
    if defect == "swapped-position":  # facets intact, two ordinals exchanged
        a, b = facets[0], facets[-1]
        position[a], position[b] = position[b], position[a]
    if defect != "missing":  # one entry short, or two ordinals exchanged
        with pytest.raises(IncompleteOrder):
            dataclasses.replace(order, facets=facets, position=position)
        if defect == "swapped-position":
            return
        position = None
    broken = dataclasses.replace(order, facets=facets, position=position)
    assert order.verified and not broken.verified
    with pytest.raises(IncompleteOrder):
        verify_shelling(broken)
    assert not broken.verified
    with pytest.raises(UnverifiedOrder):
        spanning_facets(broken)


def _constructed(order):
    """The same order through the public constructor, as the benchmark
    builds it: tuple facets and a plain dict position."""
    return ShellingOrder(cx=order.cx, facets=tuple(order.facets),
                         position={f: i + 1 for i, f in enumerate(order.facets)},
                         tail=order.tail, base_count=order.base_count)


def _assert_built_alike(order):
    # the builder's rows and the rows the constructor's order matches give
    # the same verdict, row for row the same packed swap rows, and for a
    # shelling the same report
    twin = _constructed(order)
    assert np.array_equal(order.rows, twin.rows) and twin.rows.dtype == np.int32
    assert np.array_equal(_swap_rows(order), _swap_rows(twin))
    results = [verify_shelling(o) for o in (order, twin)]
    assert results[0] == results[1]
    assert order.verified == twin.verified == results[0].ok
    if results[0].ok:
        assert order._report == twin._report


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 3), (3, 4)])
def test_single_reinsertions_built_alike_both_ways(m, n):
    cx = _complex(m, n)
    for t in range(1, tail_facet_count(m, n) + 1):
        _assert_built_alike(order_with_tail_reinserted(cx, t)[0])


@pytest.mark.parametrize("chosen", [(1, 5), (2, 7, 9), (4, 10), (3, 6, 8)])
def test_multi_reinsertions_built_alike_both_ways(chosen):
    cx = _complex(3, 4)
    rest = [t for t in tail_facets(3, 4, cx.graph) if t.index not in chosen]
    _assert_built_alike(shelling._order(cx, [t.complement for t in rest], rest))


@settings(max_examples=40, deadline=None)
@given(random_k_orders())
def test_random_orders_built_alike_both_ways(case):
    # moving every facet lists them in the order given
    cx, seq, patches = case
    with _face_lookups(**patches) as used:
        order = shelling._order(enumerate_facets(cx.graph, cx.k), seq)
        assert order.facets == tuple(seq) and order.base_count == 0
        _assert_built_alike(order)
    assert used == [_dense(cx, patches["POSITION_TABLE_LIMIT"])] * 4


def test_find_rows_reads_the_lowest_row_through_the_sorted_view():
    # on the canonical H(2, 2) every 3-subset of [1, N] and two triples
    # outside it find the row that holds them, or -1; the same complements
    # shuffled, one of them listed twice, are refused
    cx = _complex(2, 2)
    N, facets = cx.n_vertices, list(cx.facets)
    row_of = {c: row for row, c in enumerate(facets)}
    queries = np.array([*combinations(range(1, N + 1), 3), (0, 0, 0), (N - 1, N, N + 1)],
                       dtype=np.int32)
    rows = cutcomplex._find_rows(cx, queries)
    assert rows.dtype == np.int32
    assert rows.tolist() == [row_of.get(tuple(q), -1) for q in queries.tolist()]
    random.Random(24).shuffle(facets)
    facets.insert(5, facets[200])
    hand = CutComplex(graph=cx.graph, k=3, facets=tuple(facets))
    with pytest.raises(InvalidParams):
        cutcomplex._find_rows(hand, queries)


@pytest.mark.parametrize("limit", [0, cutcomplex.POSITION_TABLE_LIMIT])
def test_k1_and_empty_complexes_verify_under_both_numberings(limit, capsys):
    # no single vertex is disconnected, and every pair of K_4 is an edge, so
    # both complexes are empty; at k = 1 a face has no entries, and its
    # colex rank is the int 0
    k4 = Graph(4, list(combinations(range(1, 5), 2)))
    with _face_lookups(POSITION_TABLE_LIMIT=limit) as used:
        verdicts = [verify_k_cut_order(build_hex_graph(1, 1), 1), verify_k_cut_order(k4, 2)]
        assert main(["explore", "--m", "1", "--n", "1", "--k", "1"]) == 0
    assert used == [limit > 0] * 3
    assert [(v.ok, v.n_facets, v.counterexample) for v in verdicts] == [(True, 0, None)] * 2
    assert '"ok": true' in capsys.readouterr().out


@settings(max_examples=40, deadline=None)
@given(random_k_orders())
def test_ordinals_equal_the_places_in_facets(case):
    # every k-subset of [1, N], in descending order, and two k-tuples
    # outside it: a facet reads its place in ``facets``, counted from 1,
    # through the builder's rows and the rows the constructor finds, and
    # anything else reads 0
    cx, seq, _ = case
    k, N = cx.k, cx.n_vertices
    queries = list(combinations(range(1, N + 1), k))[::-1]
    queries += [(0,) * k, tuple(range(N - k + 2, N + 2))]
    places = {f: i for i, f in enumerate(seq, 1)}
    expected = [places.get(q, 0) for q in queries]
    for order in (shelling._order(cx, seq), _order_of(cx, seq)):
        assert order.facets == tuple(seq)
        assert shelling._ordinals(order, queries).tolist() == expected


@pytest.mark.parametrize("path", ["builder", "constructor"])
def test_repeated_facet_refused_on_both_paths(path):
    # the complex lists its first facet again in place of its last one, so
    # it is not canonical: the builder refuses it, and so does the verifier
    # of an order the constructor made over it
    cx = _complex(1, 2)
    repeated = CutComplex(graph=cx.graph, k=3, facets=cx.facets[:-1] + cx.facets[:1])
    if path == "builder":
        with pytest.raises(InvalidParams):
            shelling._order(repeated)
    else:
        order = ShellingOrder(cx=repeated, facets=tuple(sorted(repeated.facets)))
        with pytest.raises(InvalidParams):
            verify_shelling(order)
        assert not order.verified


def _malformed(m, n):
    """H(m, n) built by hand with one defect each: a complement written out
    of order, the vertex 0, the vertex N + 1, a repeated vertex, two
    complements out of lex order, one complement listed twice."""
    cx = _complex(m, n)
    F, N = list(cx.facets), cx.n_vertices
    cases = {"unsorted-complement": [(2, 1, 3)] + F[1:], "vertex-0": [(0, 1, 2)] + F[1:],
             "vertex-N+1": F[:-1] + [F[-1][:2] + (N + 1,)], "repeated-vertex": [(1, 1, 2)] + F[1:],
             "out-of-lex-order": [F[1], F[0]] + F[2:], "listed-twice": F[:1] + F[:-1]}
    return [(f"{m}-{n}-{name}", CutComplex(graph=cx.graph, k=3, facets=tuple(facets)))
            for name, facets in cases.items()]


_MALFORMED = _malformed(1, 1) + _malformed(1, 2)


@pytest.mark.parametrize("label,hand", _MALFORMED, ids=[case[0] for case in _MALFORMED])
def test_malformed_hand_built_complex_is_refused(label, hand):
    # a complex that is not canonical is refused by every path that reads
    # its complements; the exhaustive f-vector reads the graph alone, and
    # the closed form is refused
    with pytest.raises(InvalidParams):
        shelling_order(hand)
    with pytest.raises(InvalidParams):
        shelling._order(hand)
    order = ShellingOrder(cx=hand, facets=hand.facets)
    with pytest.raises(InvalidParams):
        verify_shelling(order)
    assert not order.verified
    with pytest.raises(InvalidParams):
        cutcomplex._find_rows(hand, np.array([(1, 2, 3)], dtype=np.int32))
    assert f_vector(hand) == f_vector(hand, mode="exhaustive")
    with pytest.raises(InvalidParams):
        f_vector(hand, mode="closed")


def test_vertex_past_int32_is_refused():
    # a vertex no int32 holds: in the complex it is the complex's fault, in
    # an order over a canonical complex the order's
    cx = _complex(1, 1)
    past = cx.facets[:-1] + (cx.facets[-1][:2] + (2**31,),)
    hand = CutComplex(graph=cx.graph, k=3, facets=past)
    with pytest.raises(InvalidParams):
        shelling_order(hand)
    with pytest.raises(InvalidParams):
        cutcomplex._find_rows(hand, np.array([(1, 2, 3)], dtype=np.int32))
    with pytest.raises(IncompleteOrder):
        verify_shelling(ShellingOrder(cx=cx, facets=past))


def test_entry_that_is_no_integer_is_refused():
    # H(1, 1) listing (1.5, 2, 3) in place of (1, 2, 3): no entry is
    # truncated to an int32 vertex, in the complex (the complex's fault) or
    # in an order over the canonical complex (the order's)
    cx = _complex(1, 1)
    assert cx.facets[0] == (1, 2, 3)
    listed = ((1.5, 2, 3),) + cx.facets[1:]
    hand = CutComplex(graph=cx.graph, k=3, facets=listed)
    with pytest.raises(InvalidParams, match="no 3-tuple of int32 integers"):
        shelling_order(hand)
    with pytest.raises(InvalidParams):
        verify_shelling(ShellingOrder(cx=hand, facets=cx.facets))
    with pytest.raises(IncompleteOrder, match="no 3-tuple of int32 integers"):
        verify_shelling(ShellingOrder(cx=cx, facets=listed))


def test_fault_in_the_complex_is_not_blamed_on_the_order():
    # H(1, 2) with a pair in place of its last facet: an order listing the
    # valid 3-tuples reads the complex's fault as InvalidParams, as the
    # builder does, not as an order that lists no 3-tuple
    cx = _complex(1, 2)
    bad = CutComplex(graph=cx.graph, k=3, facets=cx.facets[:-1] + ((1, 9),))
    with pytest.raises(InvalidParams, match="no 3-tuple"):
        ShellingOrder(cx=bad, facets=bad.facets[:-1]).rows
    with pytest.raises(InvalidParams, match="no 3-tuple"):
        shelling_order(bad)


def test_replaced_facets_refused():
    # two facets exchanged: replace() carries no position map, so the
    # swapped facets are an order of their own, refused as the oracle
    # refuses it, not verified as the order they were taken from
    order = shelling_order(_complex(1, 2))
    facets = list(order.facets)
    facets[0], facets[-1] = facets[-1], facets[0]
    swapped = dataclasses.replace(order, facets=tuple(facets))
    res = verify_shelling(swapped)
    assert (res.ok, res.counterexample) == oracle_is_shelling(_facet_sets(swapped.cx, facets))
    assert not res.ok and not swapped.verified


def test_constructor_refuses_a_disagreeing_position_map():
    # a map must send the complement at ordinal i to i and hold nothing
    # else; one that agrees is checked and not kept
    order = shelling_order(_complex(1, 2))
    facets = order.facets
    agreeing = _constructed(order)
    assert agreeing == order and "position" not in vars(agreeing)
    assert np.array_equal(agreeing.rows, order.rows)
    for defect in ("missing", "extra", "swapped", "shifted"):
        position = {f: i for i, f in enumerate(facets, 1)}
        if defect == "missing":
            del position[facets[3]]
        elif defect == "extra":
            position[(0, 0, 0)] = len(facets) + 1
        elif defect == "swapped":
            position[facets[0]], position[facets[1]] = 2, 1
        else:  # 0-based ordinals
            position = {f: i for i, f in enumerate(facets)}
        with pytest.raises(IncompleteOrder):
            ShellingOrder(cx=order.cx, facets=facets, position=position)


def test_unsorted_hand_built_complex_orders_lex():
    # a complex given out of order is refused; the same complements built
    # by hand in lex order give the enumerated complex's orders
    cx = _complex(2, 2)
    shuffled = list(cx.facets)
    random.Random(4).shuffle(shuffled)
    with pytest.raises(InvalidParams):
        shelling_order(CutComplex(graph=cx.graph, k=3, facets=tuple(shuffled)))
    hand = CutComplex(graph=cx.graph, k=3, facets=tuple(sorted(shuffled)))
    tail = tail_facets(2, 2, hand.graph)
    order, sorted_order = shelling_order(hand), shelling_order(cx)
    assert order.facets == sorted_order.facets
    assert [hand.facets[r] for r in order.rows.tolist()] == list(order.facets)
    assert order_with_tail_reinserted(hand, 1)[1] == order_with_tail_reinserted(cx, 1)[1]
    assert verify_shelling(order) == verify_shelling(sorted_order)
    assert np.array_equal(_swap_rows(order), _swap_rows(sorted_order))
    assert spanning_facets(order) == spanning_facets(sorted_order)
    connected = tuple(sorted((1,) + hand.graph.neighbors(1)[:2]))
    with pytest.raises(TailFacetNotFound):
        shelling._order(hand, [tail[0].complement, connected])


def test_rows_matched_exactly_past_int64_ranks():
    # C(70, 35) > 2^63: an integer rank of a 35-subset of [1, 70] would
    # overflow.  Complements that differ only in their last entry, or that
    # share every entry but one with a facet, are told apart exactly
    N, k = 70, 35
    assert comb(N, k) >= 2**63
    low = tuple(range(1, k + 1))
    high = tuple(range(N - k + 1, N + 1))
    facets = (high, low[1:] + high[:1], low[:-1] + (N,), low)
    hand = CutComplex(graph=Graph(N, []), k=k, facets=tuple(sorted(facets)))
    order = shelling._order(hand, [low])
    assert order.facets == tuple(sorted(facets)[1:]) + (low,)
    assert np.array_equal(order.rows, [1, 2, 3, 0])
    assert np.array_equal(_constructed(order).rows, order.rows)
    with pytest.raises(TailFacetNotFound):
        shelling._order(hand, [low[:-1] + (N - 1,)])
    wrong = _constructed(order)
    wrong = dataclasses.replace(wrong, facets=wrong.facets[:-1] + (low[:-1] + (N - 1,),))
    with pytest.raises(IncompleteOrder):
        wrong.rows


def test_tail_obstruction_confirmed():
    for m, n in [(1, 2), (2, 2), (3, 1), (1, 3)]:
        cx = enumerate_facets(build_hex_graph(m, n), 3)
        assert verify_tail_obstruction(cx)


def test_tail_obstruction_requires_tails():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    with pytest.raises(NoTailFacets):
        verify_tail_obstruction(cx)


def test_missing_tail_facet_detected():
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    pruned = [f for f in cx.facets if f != (6, 8, 9)]
    doctored = CutComplex(graph=cx.graph, k=3, facets=tuple(pruned))
    with pytest.raises(TailFacetNotFound):
        shelling_order(doctored)
    with pytest.raises(TailFacetNotFound):
        verify_tail_obstruction(doctored)


@pytest.mark.parametrize("t", [1, 2])
def test_reinsertion_without_a_tail_facet_refused(t):
    # H(2, 2) without tail facet 2: moving it to the end, or reinserting it,
    # must not yield an order that holds a non-facet
    cx = _complex(2, 2)
    gone = tail_facets(2, 2, cx.graph)[1].complement
    doctored = CutComplex(graph=cx.graph, k=3, facets=tuple(f for f in cx.facets if f != gone))
    with pytest.raises(TailFacetNotFound):
        order_with_tail_reinserted(doctored, t)


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)] + [(3, 4)])
def test_every_single_reinsertion_follows_the_order_rule(m, n):
    # the sorted complements without the other tails, then those tails in
    # schedule order; the reinserted facet keeps its sorted place
    cx = _complex(m, n)
    tail = tail_facets(m, n, cx.graph)
    for t in range(1, len(tail) + 1):
        others = [x for x in tail if x.index != t]
        moved = [x.complement for x in others]
        seq = tuple(sorted(c for c in cx.facets if c not in moved) + moved)
        order, spot = order_with_tail_reinserted(cx, t)
        assert (order.facets, order.tail, order.base_count) == (
            seq, tuple(others), len(seq) - len(others))
        assert spot == seq.index(tail[t - 1].complement) + 1


@pytest.mark.parametrize("g,k", [(build_hex_graph(1, 2), 3), (build_hex_graph(1, 2), 4),
                                 (_seeded_graph(5, 9, 0.4), 3)],
                         ids=["hex-1-2-k3", "hex-1-2-k4", "random9-k3"])
def test_neighborhood_rule_moves_the_neighborhoods_that_are_facets(g, k):
    facets = oracle_facet_complements(g, k)  # lex order
    adj = oracle_adjacency(g)
    hoods = sorted({tuple(sorted(a)) for a in adj.values() if len(a) == k}.intersection(facets))
    verdict = verify_k_cut_order(g, k, "revlex-with-neighborhood-tail")
    assert verdict.relocated == tuple(hoods)
    assert bool(hoods) == (k == 3)  # no vertex has degree 4
    seq = [c for c in facets if c not in hoods] + hoods
    verts = set(range(1, g.n_vertices + 1))
    sets = [frozenset(verts - set(c)) for c in seq]
    assert (verdict.ok, verdict.counterexample) == oracle_is_shelling(sets)


def test_reinsertion_index_bounds():
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    with pytest.raises(OrdinalOutOfRange):
        order_with_tail_reinserted(cx, 0)
    with pytest.raises(OrdinalOutOfRange):
        order_with_tail_reinserted(cx, 2)


def test_non_hexagonal_complex_rejected():
    cx = enumerate_facets(cycle_graph(6), 3)
    with pytest.raises(InvalidParams):
        shelling_order(cx)


def test_generic_k_rule_small_cases():
    g12 = build_hex_graph(1, 2)
    v = verify_k_cut_order(g12, 3, "revlex-with-neighborhood-tail")
    assert v.ok  # relocating every size-3 neighborhood also shells here
    v = verify_k_cut_order(g12, 4, "revlex")
    assert v.n_facets == 190  # verdict recorded either way
    assert v.counterexample is None or len(v.counterexample) == 2
    c6 = cycle_graph(6)
    v = verify_k_cut_order(c6, 2, "revlex")
    assert v.n_facets == 9
    with pytest.raises(InvalidParams):
        verify_k_cut_order(c6, 2, "mystery-rule")


def test_order_export():
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    order = shelling_order(cx)
    doc = order_to_json_dict(order)
    assert doc["m"] == 1 and doc["n"] == 2 and doc["k"] == 3
    assert doc["t_tail_start"] == 106
    rows = listed(doc["order"])
    assert rows[-1] == (6, 8, 9)
    assert len(rows) == 106 and rows == list(order.facets)


# ---------------------------------------------------------------------------
# k = 2: Delta_2(G) is shellable iff G is chordal (Froberg 1990)
# ---------------------------------------------------------------------------

def _seeded_connected_graphs():
    """The connected graphs among 60 seeded draws, N from 5 to 12 and edge
    probability from 0.2 to 0.7, each with its random source."""
    for seed in range(60):
        rng = random.Random(seed)
        N = rng.randint(5, 12)
        p = rng.uniform(0.2, 0.7)
        g = Graph(N, [e for e in combinations(range(1, N + 1), 2) if rng.random() < p])
        adj = oracle_adjacency(g)
        if oracle_connected(adj, range(1, N + 1)):
            yield g, adj, rng


@pytest.mark.parametrize("limit", [1, cutcomplex.POSITION_TABLE_LIMIT])
def test_k2_refutes_a_drawn_order_of_every_non_chordal_graph(limit):
    graphs = [(g, rng) for g, adj, rng in _seeded_connected_graphs() if not oracle_is_chordal(adj)]
    assert len(graphs) >= 20
    for g, rng in graphs:
        with _face_lookups(POSITION_TABLE_LIMIT=limit) as used:
            cx = enumerate_facets(g, 2)
            seq = list(cx.facets)
            rng.shuffle(seq)
            res = verify_shelling(_order_of(cx, seq))
        assert used == [_dense(cx, limit)]
        assert not res.ok
        i, j = res.counterexample
        sets = _facet_sets(cx, seq)
        assert oracle_row_violation(sets, j) == i
        assert all(oracle_row_violation(sets, r) is None for r in range(2, j))


@pytest.mark.parametrize("limit", [1, cutcomplex.POSITION_TABLE_LIMIT])
@pytest.mark.parametrize("shuffle", [None, 1, 2, 3], ids=["revlex", "seed1", "seed2", "seed3"])
def test_k2_refutes_h46(limit, shuffle):
    # girth 6, so H(4, 6) is not chordal and no order of its 2-cut facets
    # shells; past the reach of the full oracle, the row oracle checks the
    # failing row and the 50 rows before it
    with _face_lookups(POSITION_TABLE_LIMIT=limit) as used:
        cx = enumerate_facets(build_hex_graph(4, 6), 2)
        seq = sorted(cx.facets)
        if shuffle is not None:
            random.Random(shuffle).shuffle(seq)
        res = verify_shelling(_order_of(cx, seq))
    assert cx.n_facets == 2187 and used == [_dense(cx, limit)]
    assert not res.ok
    i, j = res.counterexample
    sets = _facet_sets(cx, seq)
    assert oracle_row_violation(sets, j) == i
    assert all(oracle_row_violation(sets, r) is None for r in range(max(2, j - 50), j))


def _seeded_large_graphs():
    """Six seeded connected graphs, N from 30 to 60: a random tree plus N/4
    to N random chords, each with its random source."""
    for seed in range(6):
        rng = random.Random(seed)
        N = rng.randint(30, 60)
        edges = {(rng.randint(1, v - 1), v) for v in range(2, N + 1)}
        chords = rng.randint(N // 4, N)
        while len(edges) < N - 1 + chords:
            edges.add(tuple(sorted(rng.sample(range(1, N + 1), 2))))
        yield Graph(N, sorted(edges)), rng


def test_k2_refutes_non_chordal_graphs_at_scale():
    # Froberg at N = 30..60: both explore rules and two shuffles must be
    # refuted, the rules on the drawn labels and on labels that follow the
    # reversed MCS order, under which revlex shells a long prefix and fails
    # past row 100.  Each order is verified in blocks of 64 rows too, so
    # those failures lie past the first block; the row oracle checks the
    # failing row and every row before it
    for g, rng in _seeded_large_graphs():
        N = g.n_vertices
        adj = oracle_adjacency(g)
        assert oracle_connected(adj, range(1, N + 1)) and not oracle_is_chordal(adj)
        label = {v: i for i, v in enumerate(oracle_mcs_order(adj)[::-1], start=1)}
        relabelled = Graph(N, [(label[u], label[v]) for u, v in g.edges()])
        cases = []
        for h in (g, relabelled):
            cx = enumerate_facets(h, 2)
            for rule in ("revlex", "revlex-with-neighborhood-tail"):
                v = verify_k_cut_order(h, 2, rule)
                seq = [f for f in cx.facets if f not in v.relocated] + list(v.relocated)
                cases.append((cx, seq, (v.ok, v.counterexample)))
        cx = enumerate_facets(g, 2)
        for _ in range(2):
            seq = list(cx.facets)
            rng.shuffle(seq)
            cases.append((cx, seq, None))
        for cx, seq, explored in cases:
            for block in (64, shelling._BLOCK_ROWS):
                with mock.patch.object(shelling, "_BLOCK_ROWS", block):
                    res = verify_shelling(_order_of(cx, seq))
                assert not res.ok
                assert explored in (None, (res.ok, res.counterexample))
            i, j = res.counterexample
            sets = _facet_sets(cx, seq)
            assert oracle_row_violation(sets, j) == i
            assert all(oracle_row_violation(sets, r) is None for r in range(2, j))


def test_k2_revlex_shells_chordal_graphs_labelled_by_elimination_order():
    # relabelled so that the perfect elimination order reads 1, 2, ..., N;
    # that revlex then shells is observed, not a theorem, so the oracle
    # decides and the fixed seeds must pass
    graphs = [(g, adj) for g, adj, _ in _seeded_connected_graphs() if oracle_is_chordal(adj)]
    assert len(graphs) >= 10
    for g, adj in graphs:
        label = {v: i for i, v in enumerate(oracle_perfect_elimination_order(adj), start=1)}
        cx = enumerate_facets(Graph(g.n_vertices, [(label[u], label[v]) for u, v in g.edges()]), 2)
        seq = sorted(cx.facets)
        res = verify_shelling(_order_of(cx, seq))
        assert (res.ok, res.counterexample) == oracle_is_shelling(_facet_sets(cx, seq))
        assert res.ok


# ---------------------------------------------------------------------------
# the relocated order, streamed
# ---------------------------------------------------------------------------

STREAM_INSTANCES = [(1, 1), (1, 2), (2, 2), (3, 4), (4, 6), (6, 6), (8, 8)]


@pytest.mark.parametrize("m,n", STREAM_INSTANCES)
def test_stream_agrees_with_the_materialised_order(instance, m, n):
    # the stream passes the order with no complex held, and its report
    # equals the one the verified materialised order kept, field by field:
    # the count of each size |Lambda_j|, also read here from the rows the
    # block driver yields, the spanning rows and the witnesses
    b = instance(m, n)
    streamed = shelling.stream_shelling(b.g)
    assert streamed is not None and b.verify.ok
    report, N = b.report, b.order.n_vertices
    sizes = np.bincount(np.bitwise_count(_swap_rows(b.order)).sum(axis=1), minlength=N - 2)
    assert streamed.sizes == report.sizes == tuple(sizes.tolist())
    assert streamed.n_facets == report.n_facets == b.order.n_facets
    assert streamed.psi == report.psi == shelling.spanning_count_formula(m, n)
    for name in ("positions", "spanning", "ends", "witnesses"):
        assert np.array_equal(getattr(streamed, name), getattr(report, name)), name
    assert streamed.spanning_flags == report.spanning_flags
    assert streamed.spanning_complements == report.spanning_complements
    assert streamed.non_spanning_pairs == report.non_spanning_pairs
    assert streamed.witness_map == report.witness_map
    assert streamed == report


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 4)])
@pytest.mark.parametrize("relocate", [True, False])
def test_streamed_rows_are_the_materialised_order(monkeypatch, m, n, relocate):
    # in blocks of 64 rows, merged across slabs and split within them, the
    # streamed order lists each row of the builder's order once, in place
    monkeypatch.setattr(shelling, "_BLOCK_ROWS", 64)
    g = build_hex_graph(m, n)
    order = shelling_order(enumerate_facets(g, 3), relocate_tail=relocate)
    doc = shelling.streamed_order_to_json_dict(g, relocate)
    blocks = list(doc.pop("order"))
    assert all(len(b) == 64 for b in blocks[:-2])
    rows = np.concatenate(blocks)
    assert rows.dtype == np.int32 and rows.tolist() == [list(c) for c in order.facets]
    expected = order_to_json_dict(order)
    assert listed(expected.pop("order")) == list(order.facets)
    assert doc == expected
    assert shelling.stream_shelling(g) is not None


def test_stream_refuses_a_graph_with_a_four_cycle():
    # the closed f(Delta) is unknown once an edge closes a 4-cycle, and the
    # stream leaves the order to the materialised verifier
    g = HexGraph(1, 1, hex_edges(1, 1) + [(1, 6)])
    assert shelling._neighbour_paths(g) is None
    assert shelling.stream_shelling(g) is None
