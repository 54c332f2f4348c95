"""Spanning facets, the tabulated pair families, and blocking vertices."""

import copy
import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest

from hexcut import (
    Graph,
    InvalidParams,
    UnverifiedOrder,
    build_hex_graph,
    check_spanning_structure,
    cutcomplex,
    cycle_graph,
    enumerate_facets,
    non_spanning_pair_table,
    non_spanning_witnesses,
    shelling,
    shelling_order,
    spanning_count_formula,
    spanning_facets,
    swap_set,
    verify_shelling,
)
from hexcut.shelling import (
    ShellingOrder,
    spanning_report_to_csv,
    spanning_report_to_json_dict,
)

from conftest import listed, oracle_spanning_flags


def test_formula_values():
    assert spanning_count_formula(1, 1) == 4
    assert spanning_count_formula(1, 2) == 22
    assert spanning_count_formula(2, 2) == 77
    assert spanning_count_formula(4, 6) == 2051
    with pytest.raises(InvalidParams):
        spanning_count_formula(1, 0)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2)])
def test_spanning_flags_match_full_set_oracle(m, n):
    bundle_g = build_hex_graph(m, n)
    cx = enumerate_facets(bundle_g, 3)
    order = shelling_order(cx)
    from hexcut import verify_shelling

    verify_shelling(order)
    report = spanning_facets(order)
    verts = set(range(1, bundle_g.n_vertices + 1))
    facet_sets = [frozenset(verts - set(c)) for c in order.facets]
    assert list(report.spanning_flags) == oracle_spanning_flags(facet_sets)
    assert report.psi == spanning_count_formula(m, n)


@pytest.mark.parametrize(
    "m,n,psi",
    [(1, 1, 4), (1, 2, 22), (2, 2, 77), (2, 3, 168), (3, 3, 344)],
)
def test_psi_values(instance, m, n, psi):
    bundle = instance(m, n)
    assert bundle.report.psi == psi == spanning_count_formula(m, n)


def test_requires_verified_order():
    cx = enumerate_facets(build_hex_graph(1, 1), 3)
    order = shelling_order(cx)
    assert not order.verified
    with pytest.raises(UnverifiedOrder):
        spanning_facets(order)
    assert verify_shelling(order).ok and order.verified
    assert spanning_facets(order).psi == 4


def test_verified_is_exactly_a_stored_table():
    # verified is read from the stored spanning report, never set on its
    # own, and only a passing verification attaches a report
    assert "verified" not in {f.name for f in dataclasses.fields(ShellingOrder)}
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    order = shelling_order(cx)
    with pytest.raises(AttributeError):
        order.verified = True
    assert verify_shelling(order).ok and order.verified
    # no report comes in through the constructor, replace() or assignment
    with pytest.raises(TypeError):
        ShellingOrder(cx=cx, facets=order.facets, _report=order._report)
    with pytest.raises(ValueError):
        dataclasses.replace(order, _report=order._report)
    with pytest.raises(dataclasses.FrozenInstanceError):
        order._report = None
    # the failing plain order, built from the verified one, holds no report
    # and gains none from its verification
    sorted_order = shelling_order(cx, relocate_tail=False)
    plain = dataclasses.replace(order, facets=sorted_order.facets)
    assert not plain.verified
    assert not verify_shelling(plain).ok
    assert not plain.verified and plain._report is None
    with pytest.raises(UnverifiedOrder):
        spanning_facets(plain)


def test_a_verified_order_lends_its_table_to_no_other_order(instance):
    # H(2, 2): the plain sorted order is no shelling.  Given the facets of
    # the plain order, a copy of the verified order must not carry the
    # verified report, which would give psi = 77 for a non-shelling
    verified = instance(2, 2).order
    plain = shelling_order(verified.cx, relocate_tail=False)
    spoof = dataclasses.replace(verified, facets=plain.facets)
    assert verified.verified and not spoof.verified
    with pytest.raises(UnverifiedOrder):
        spanning_facets(spoof)


def test_the_rows_of_an_order_are_read_only():
    # H(2, 2): reversing the rows of a verified order in place would leave
    # it verified, holding the report of another order; the rows refuse
    # every write, also on a copy and on an unpickled order, which keep
    # the report
    order = shelling_order(enumerate_facets(build_hex_graph(2, 2), 3))
    assert verify_shelling(order).ok
    report = spanning_facets(order)
    assert len(report.witness_map) == 24 and check_spanning_structure(order, report)
    for twin in (order, copy.deepcopy(order), pickle.loads(pickle.dumps(order))):
        assert twin.verified
        with pytest.raises(ValueError):
            twin.rows[:] = twin.rows[::-1]
        assert spanning_facets(twin) == report
        assert check_spanning_structure(twin, report)


def test_replace_carries_no_position_map():
    # the constructor checks a map and keeps none, so replace() carries
    # none: other facets given to replace() are an order of their own
    cx = enumerate_facets(build_hex_graph(1, 2), 3)
    order = shelling_order(cx)
    rebuilt = ShellingOrder(cx=cx, facets=order.facets,
                            position={f: i for i, f in enumerate(order.facets, 1)},
                            tail=order.tail, base_count=order.base_count)
    assert "position" not in vars(rebuilt)
    assert "position" not in {f.name for f in dataclasses.fields(ShellingOrder)}
    assert dataclasses.replace(rebuilt) == rebuilt == order
    assert verify_shelling(rebuilt).ok
    sorted_order = shelling_order(cx, relocate_tail=False)
    replaced = dataclasses.replace(order, facets=sorted_order.facets)
    assert replaced.rows.tolist() == sorted_order.rows.tolist()
    assert verify_shelling(replaced) == verify_shelling(sorted_order)
    assert not replaced.verified


def test_an_order_equals_its_copies():
    # graphs compare by type, vertex count and edge set (and m, n for the
    # grid), so a copied or unpickled order equals the order it copies
    order = shelling_order(enumerate_facets(build_hex_graph(1, 2), 3))
    assert verify_shelling(order).ok
    for twin in (copy.deepcopy(order), pickle.loads(pickle.dumps(order))):
        assert twin.cx.graph is not order.cx.graph
        assert twin == order and twin.cx == order.cx
        assert hash(twin.cx.graph) == hash(order.cx.graph)
    assert build_hex_graph(1, 2) != build_hex_graph(2, 1)


def _revlex_order(cx):
    seq = sorted(cx.facets)
    return ShellingOrder(cx=cx, facets=tuple(seq),
                         position={f: i + 1 for i, f in enumerate(seq)})


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("N", [8, 9, 10])
def test_report_matches_swap_set_rows(N, k):
    # revlex shells the k-cut complex of the N-cycle; the report read from
    # the table that verification kept, built through the dense table or,
    # for a complex built under a limit of one cell, the sorted byte keys,
    # must agree with the one-row reference swap_set on every row
    cx = enumerate_facets(cycle_graph(N), k)
    order = _revlex_order(cx)
    assert verify_shelling(order).ok
    report = spanning_facets(order)
    with mock.patch.object(cutcomplex, "POSITION_TABLE_LIMIT", 1):
        twin = _revlex_order(enumerate_facets(cycle_graph(N), k))
        assert verify_shelling(twin).ok
    assert shelling._face_numbers(cx).dense and not shelling._face_numbers(twin.cx).dense
    assert spanning_facets(twin) == report
    rows = [swap_set(order, j) for j in range(1, order.n_facets + 1)]
    flags = tuple(len(r) == N - k for r in rows)
    witness = {}
    for c, r, flag in zip(order.facets, rows, flags):
        outside = [v for v in range(1, N + 1) if v not in r and v not in c]
        if not flag and len(c) == 3 and c[2] == N and outside:
            witness[(c[0], c[1])] = min(outside)
    assert report.spanning_flags == flags
    assert report.witness_map == witness
    assert bool(witness) == (k == 3)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3)])
def test_hex_report_equals_the_row_by_row_reference(instance, m, n):
    # every field of the report, selected by masks over the stored table,
    # equals one built row by row from swap_set, Python types included
    order, report = instance(m, n).order, instance(m, n).report
    N = order.n_vertices
    rows = [swap_set(order, j) for j in range(1, order.n_facets + 1)]
    flags = tuple(len(r) == N - 3 for r in rows)
    spanning = tuple(c for c, flag in zip(order.facets, flags) if flag)
    witness = {}
    for c, r, flag in zip(order.facets, rows, flags):
        outside = [v for v in range(1, N + 1) if v not in r and v not in c]
        if not flag and c[2] == N and outside:
            witness[(c[0], c[1])] = min(outside)
    pairs = {c[:2] for c in spanning if c[2] == N}
    assert report.spanning_flags == flags
    assert report.psi == sum(flags) and type(report.psi) is int
    assert report.spanning_complements == spanning
    assert report.non_spanning_pairs == tuple(
        (x, y) for x in range(1, N) for y in range(x + 1, N) if (x, y) not in pairs)
    assert report.witness_map == witness
    assert all(type(f) is bool for f in report.spanning_flags)
    assert all(type(v) is int for key in witness for v in (*key, witness[key]))


def test_one_facet_complex_has_no_spanning_facet():
    # the path 1-2-3 at k = 2 has the single facet {2}; its swap set is
    # empty, so it does not span, and the report counts it at size 0
    cx = enumerate_facets(Graph(3, [(1, 2), (2, 3)]), 2)
    order = _revlex_order(cx)
    assert cx.facets == ((1, 3),)
    res = verify_shelling(order)
    assert (res.ok, res.pairs_checked) == (True, 0)
    report = spanning_facets(order)
    assert report.sizes == (1, 0) and report.n_facets == 1
    assert (report.spanning_flags, report.psi) == ((False,), 0)
    assert report.non_spanning_pairs == ((1, 2),)


def test_non_spanning_pair_count_is_triple_count(instance):
    from math import comb

    for m, n in [(1, 1), (1, 2), (2, 2), (3, 2)]:
        bundle = instance(m, n)
        N = bundle.g.n_vertices
        assert (
            len(bundle.report.non_spanning_pairs)
            == comb(N - 1, 2) - bundle.report.psi
        )


def _pairs_by_tuples(report):
    """The tuple definition of the non-spanning pairs: every (x, y),
    x < y < N, for which (x, y, N) is no spanning complement."""
    N = report.n_vertices
    ends = {c[:2] for c in report.spanning_complements if len(c) == 3 and c[-1] == N}
    return tuple((x, y) for x in range(1, N) for y in range(x + 1, N) if (x, y) not in ends)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 7)])
def test_non_spanning_pairs_equal_the_tuple_definition(m, n):
    # read from the int32 spanning array, the pairs are those the spanning
    # complement tuples define, in lex order, as Python ints
    report = shelling.stream_shelling(build_hex_graph(m, n))
    pairs = report.non_spanning_pairs
    assert pairs == _pairs_by_tuples(report)
    assert all(type(v) is int for pair in pairs for v in pair)


def test_non_spanning_pairs_of_any_report_equal_the_tuple_definition(instance):
    # k = 2, 4 and 5, where no complement is a triple and every pair is
    # non-spanning; a report with no spanning row; and one with a spanning
    # triple that misses N, which leaves the pairs as they were
    reports = []
    for g, k in [(Graph(3, [(1, 2), (2, 3)]), 2), (Graph(6, [(i, i + 1) for i in range(1, 6)]), 2),
                 (cycle_graph(9), 4), (cycle_graph(9), 5)]:
        order = _revlex_order(enumerate_facets(g, k))
        assert verify_shelling(order).ok
        reports.append(spanning_facets(order))
    assert [r.spanning.shape[1] for r in reports] == [2, 2, 4, 5]
    assert [r.psi for r in reports[2:]] == [47, 61]
    report = instance(1, 2).report
    reports.append(dataclasses.replace(report, spanning=report.spanning[:0],
                                       positions=report.positions[:0]))
    moved = np.concatenate([report.spanning, [(1, 2, 3)]]).astype(np.int32)
    reports.append(dataclasses.replace(report, spanning=moved))
    for r in reports:
        assert r.non_spanning_pairs == _pairs_by_tuples(r)
    assert len(reports[-2].non_spanning_pairs) == 36  # all C(N - 1, 2) pairs, N = 10
    assert reports[-1].non_spanning_pairs == report.non_spanning_pairs


def test_spanning_structure_rule(instance):
    for m, n in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1)]:
        bundle = instance(m, n)
        assert check_spanning_structure(bundle.order, bundle.report)
        N = bundle.g.n_vertices
        assert all(c[2] == N for c in bundle.report.spanning_complements)


def test_spanning_structure_rule_rejects_each_break(instance):
    bundle = instance(1, 2)
    order, report = bundle.order, bundle.report
    # a spanning complement without the last vertex
    moved = dataclasses.replace(
        report, spanning=np.concatenate([report.spanning, [(1, 2, 3)]]).astype(np.int32))
    assert moved.spanning_complements == report.spanning_complements + ((1, 2, 3),)
    assert not check_spanning_structure(order, moved)
    # the tail facet flagged as spanning: its position added to the
    # spanning positions
    (t,) = order.tail
    at = order.facets.index(t.complement)
    flagged = dataclasses.replace(report, positions=np.append(report.positions, at))
    assert flagged.spanning_flags[at] and not report.spanning_flags[at]
    assert not check_spanning_structure(order, flagged)


def test_table_smallest_case_exact(instance):
    bundle = instance(1, 1)
    table = {(x, y) for x, y, _ in non_spanning_pair_table(1, 1)}
    assert table == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5)}
    assert table == set(bundle.report.non_spanning_pairs)


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
def test_table_exact_for_single_column(instance, m, n):
    bundle = instance(m, n)
    table = {(x, y) for x, y, _ in non_spanning_pair_table(m, n)}
    assert table == set(bundle.report.non_spanning_pairs)


def test_table_family_counts_4_6():
    from collections import Counter

    counts = Counter(fam for _, _, fam in non_spanning_pair_table(4, 6))
    assert counts[1] == 4 * (4 - 1) == 12
    assert counts[2] == 3
    assert counts[3] == 5 * 4 * (6 - 1) == 100
    assert counts[4] == 2 * (6 - 1) == 10
    assert counts[5] == 3 * (4 - 1) == 9
    assert counts[6] == 2
    assert counts[7] == 1
    # family 8 prints mn-1 indices, one of which pairs with the last
    # vertex itself and is dropped as out of range
    assert counts[8] == 4 * 6 - 1 - 1 == 22
    assert sum(counts.values()) == 160 - 1


def expected_table_diff(m, n):
    """The systematic family-8 boundary correction for m >= 2: tabulated
    indices above 2n+2mn actually pair as (i, i+m), not (i, i+m+1)."""
    z = 2 * m + 2 * n + 2 * m * n
    h = m + n + m * n
    excl = {2 * n + 2 * m * n} | {h + t * (m + 1) for t in range(1, n)}
    flipped = [
        i for i in range(h + 1, z - m) if i not in excl and i > 2 * n + 2 * m * n
    ]
    only_computed = sorted((i, i + m) for i in flipped)
    only_table = sorted((i, i + m + 1) for i in flipped if i + m + 1 <= z - 1)
    return only_computed, only_table


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 1)])
def test_table_diff_is_the_known_boundary_correction(instance, m, n):
    bundle = instance(m, n)
    computed = set(bundle.report.non_spanning_pairs)
    table = {(x, y) for x, y, _ in non_spanning_pair_table(m, n)}
    only_computed, only_table = expected_table_diff(m, n)
    assert sorted(computed - table) == only_computed
    assert sorted(table - computed) == only_table


def test_witness_table_values_2_2(instance):
    bundle = instance(2, 2)
    report = non_spanning_witnesses(bundle.order)
    by_pair = {e.pair: e for e in report.entries}
    assert by_pair[(1, 3)].blocker == 7  # (i, i+m) at i=1: (m+1)n + i
    assert by_pair[(1, 2)].blocker == 10  # (i, i+1) at i=1: i + m+n+mn + 1
    # most entries confirm mechanically; the rest are reported, not patched
    statuses = {e.status for e in report.entries}
    assert statuses <= {"confirmed", "refuted", "no_facet", "invalid_witness"}
    assert len(report.confirmed) > len(report.failures)


def test_witness_refutations_are_reported_not_raised(instance):
    bundle = instance(1, 1)
    report = non_spanning_witnesses(bundle.order)
    refuted = {e.pair for e in report.failures}
    assert (1, 2) in refuted  # its tabulated blocker admits an earlier swap


def test_witness_blocker_inside_the_triple_is_invalid(instance):
    # H(3, 3) tabulates blocker N = 30 for the pair (25, 29), whose triple
    # {25, 29, 30} is a facet that already holds it
    report = non_spanning_witnesses(instance(3, 3, verify=False).order)
    invalid = [e for e in report.entries if e.status == "invalid_witness"]
    assert [(e.pair, e.blocker, e.type_tag, e.trace) for e in invalid] == [
        ((25, 29), 30, "3c", ("blocker 30 not available for (25, 29, 30)",))]
    assert invalid[0] not in report.failures


def test_witness_traces_cover_all_three_swaps(instance):
    bundle = instance(2, 2)
    report = non_spanning_witnesses(bundle.order)
    for e in report.entries:
        if e.status in ("confirmed", "refuted"):
            assert len(e.trace) == 3


def test_report_exports(instance):
    bundle = instance(1, 1)
    doc = spanning_report_to_json_dict(bundle.report)
    assert doc["psi"] == 4
    assert listed(doc["spanning_complements"]) == list(bundle.report.spanning_complements)
    assert len(listed(doc["spanning_complements"])) == 4
    assert len(doc["non_spanning_pairs"]) == 6
    assert list(doc["non_spanning_pairs"]) == sorted(doc["non_spanning_pairs"])
    csv = spanning_report_to_csv(bundle.report)
    assert csv.splitlines()[0] == "kind,x,y"
    assert csv.count("non_spanning") == 6
    assert csv.count("\nspanning") == 4
