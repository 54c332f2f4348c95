"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 3's stress instance (m=4, n=6) is verified once in a session
fixture and shared by the criteria that consume it.
"""

from __future__ import annotations

import os
import time
from math import comb
from types import SimpleNamespace

import pytest

from hexcut import (
    build_hex_graph,
    betti_numbers,
    check_spanning_structure,
    enumerate_facets,
    f_vector,
    hex_facet_count,
    induced_p3_count,
    induced_p3_list,
    non_spanning_pair_table,
    order_with_tail_reinserted,
    reduced_euler_closed,
    reduced_euler_from_fvector,
    shelling_order,
    spanning_count_formula,
    spanning_facets,
    tail_facet_count,
    validate_structure,
    verify_shelling,
    verify_tail_obstruction,
)
from hexcut.cli import main

GRID = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)] + [(1, 4), (1, 5), (1, 6), (4, 1)]
STRESS_JOBS = 8


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok


@pytest.fixture(scope="session")
def stress_46():
    g = build_hex_graph(4, 6)
    cx = enumerate_facets(g, 3)
    order = shelling_order(cx)
    t0 = time.perf_counter()
    result = verify_shelling(order, jobs=STRESS_JOBS)
    elapsed = time.perf_counter() - t0
    report = spanning_facets(order) if result.ok else None
    return SimpleNamespace(
        g=g, cx=cx, order=order, result=result, elapsed=elapsed, report=report
    )


def test_criterion_01_graph_structure():
    t0 = time.perf_counter()
    for m in range(1, 7):
        for n in range(1, 7):
            g = build_hex_graph(m, n, validate=False)
            report = validate_structure(g)
            assert report.ok, (m, n, report.failed())
            assert g.n_edges == 3 * m * n + 2 * m + 2 * n - 1
    elapsed = time.perf_counter() - t0
    g46 = build_hex_graph(4, 6)
    assert g46.is_edge(11, 47) and g46.is_edge(17, 47) and g46.is_edge(17, 52)
    _announce(
        1,
        elapsed < 1.0,
        f"all 36 graphs validated in {elapsed:.3f}s (< 1s), worked adjacencies hold",
    )


def test_criterion_02_triple_counts():
    pairs = [(m, n) for m in range(1, 5) for n in range(1, 5)]
    pairs += [(1, 5), (1, 6), (5, 1), (6, 1)]
    for m, n in pairs:
        g = build_hex_graph(m, n)
        assert len(induced_p3_list(g)) == induced_p3_count(m, n)
        cx = enumerate_facets(g, 3)
        assert cx.n_facets == hex_facet_count(m, n)
    assert induced_p3_count(4, 6) == 160
    assert hex_facet_count(4, 6) == 49956

    t0 = time.perf_counter()
    code = main(["facets", "--m", "4", "--n", "6", "--force", "--out", os.devnull])
    elapsed = time.perf_counter() - t0
    assert code == 0
    g46 = build_hex_graph(4, 6)
    assert len(induced_p3_list(g46)) == 160
    assert enumerate_facets(g46, 3).n_facets == 49956
    _announce(
        2,
        elapsed < 60.0,
        f"counts match formulas on the grid; (4,6) enumeration {elapsed:.2f}s (< 60s)",
    )


def test_criterion_03_shelling_grid_and_stress(stress_46):
    worst = 0.0
    for m, n in GRID:
        cx = enumerate_facets(build_hex_graph(m, n), 3)
        order = shelling_order(cx)
        t0 = time.perf_counter()
        res = verify_shelling(order)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert res.ok, (m, n, res.counterexample)
        assert dt < 10.0, (m, n, dt)
    assert stress_46.result.ok
    assert stress_46.elapsed < 600.0
    _announce(
        3,
        True,
        f"grid verified (worst {worst:.2f}s < 10s); (4,6) with jobs={STRESS_JOBS} "
        f"in {stress_46.elapsed:.1f}s (< 600s)",
    )


def test_criterion_04_tail_obstructions():
    checked = 0
    for m, n in GRID:
        beta = tail_facet_count(m, n)
        if beta == 0:
            continue
        cx = enumerate_facets(build_hex_graph(m, n), 3)
        assert verify_tail_obstruction(cx)
        for idx in range(1, beta + 1):
            order, expected_j = order_with_tail_reinserted(cx, idx)
            res = verify_shelling(order)
            assert not res.ok
            assert res.counterexample[1] == expected_j, (m, n, idx)
            checked += 1
    _announce(
        4,
        True,
        f"all {checked} single reinsertions fail exactly at their sorted position",
    )


def test_criterion_05_spanning_counts(stress_46):
    values = {}
    for m, n in GRID:
        cx = enumerate_facets(build_hex_graph(m, n), 3)
        order = shelling_order(cx)
        assert verify_shelling(order).ok
        report = spanning_facets(order)
        assert report.psi == spanning_count_formula(m, n), (m, n)
        values[(m, n)] = report.psi
    assert values[(1, 1)] == 4
    assert values[(1, 2)] == 22
    assert values[(2, 2)] == 77
    assert stress_46.report is not None
    assert stress_46.report.psi == spanning_count_formula(4, 6) == 2051
    _announce(5, True, "computed spanning counts equal the closed form, (4,6) = 2051")


def test_criterion_06_spanning_complement_rule(stress_46):
    for m, n in GRID:
        cx = enumerate_facets(build_hex_graph(m, n), 3)
        order = shelling_order(cx)
        assert verify_shelling(order).ok
        report = spanning_facets(order)
        assert check_spanning_structure(order, report), (m, n)
    assert check_spanning_structure(stress_46.order, stress_46.report)
    _announce(
        6,
        True,
        "every spanning complement contains the last vertex; tail facets never span",
    )


def _expected_family8_diff(m, n):
    z = 2 * m + 2 * n + 2 * m * n
    h = m + n + m * n
    excl = {2 * n + 2 * m * n} | {h + t * (m + 1) for t in range(1, n)}
    flipped = [
        i for i in range(h + 1, z - m) if i not in excl and i > 2 * n + 2 * m * n
    ]
    only_computed = sorted((i, i + m) for i in flipped)
    only_table = sorted((i, i + m + 1) for i in flipped if i + m + 1 <= z - 1)
    return only_computed, only_table


def test_criterion_07_pair_table(stress_46):
    diffs = {}
    for m, n in GRID + [(4, 6)]:
        if (m, n) == (4, 6):
            order, report = stress_46.order, stress_46.report
        else:
            cx = enumerate_facets(build_hex_graph(m, n), 3)
            order = shelling_order(cx)
            assert verify_shelling(order).ok
            report = spanning_facets(order)
        N = order.n_vertices
        computed = set(report.non_spanning_pairs)
        # the computed side is ground truth: it must account exactly for
        # the spanning-count identity
        assert len(computed) == comb(N - 1, 2) - spanning_count_formula(m, n)
        table = {(x, y) for x, y, _ in non_spanning_pair_table(m, n)}
        only_computed = sorted(computed - table)
        only_table = sorted(table - computed)
        if only_computed or only_table:
            diffs[(m, n)] = {
                "only_computed": only_computed,
                "only_table": only_table,
            }
        # any mismatch must be exactly the known family-8 boundary slip
        exp_c, exp_t = _expected_family8_diff(m, n)
        assert only_computed == exp_c, (m, n)
        assert only_table == exp_t, (m, n)
    for key, diff in sorted(diffs.items()):
        print(f"  table diff at {key}: {diff}")
    _announce(
        7,
        True,
        f"computed pair sets consistent with the spanning count everywhere; "
        f"{len(diffs)} instances carry the tabulated family-8 boundary slip "
        f"(structured diffs above)",
    )


def test_criterion_08_euler_identity():
    for m in range(1, 11):
        for n in range(1, 11):
            assert reduced_euler_closed(m, n) == spanning_count_formula(m, n), (m, n)
    for m, n in [(1, 1), (1, 2), (2, 1)]:
        cx = enumerate_facets(build_hex_graph(m, n), 3)
        fv = f_vector(cx, mode="exhaustive")
        assert reduced_euler_from_fvector(fv) == reduced_euler_closed(m, n)
    _announce(
        8,
        True,
        "closed-form reduced Euler characteristic equals the spanning formula "
        "for all m,n <= 10; enumerated path agrees at the three small cases",
    )


def test_criterion_09_homology():
    worst = 0.0
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        g = build_hex_graph(m, n)
        cx = enumerate_facets(g, 3)
        t0 = time.perf_counter()
        bv = betti_numbers(cx)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        N = g.n_vertices
        psi = spanning_count_formula(m, n)
        assert bv.b(N - 4) == psi, (m, n)
        assert all(bv.b(d) == 0 for d in range(-1, N - 4)), (m, n)
        assert dt < 60.0, (m, n, dt)
    _announce(
        9,
        True,
        f"reduced Betti numbers concentrated in the top dimension with the "
        f"spanning value (worst run {worst:.2f}s < 60s)",
    )


def test_criterion_10_determinism(tmp_path):
    commands = [
        ["graph", "--m", "2", "--n", "2", "--format", "json"],
        ["graph", "--m", "1", "--n", "1", "--format", "edges"],
        ["facets", "--m", "1", "--n", "2"],
        ["order", "--m", "1", "--n", "2"],
        ["verify", "--m", "2", "--n", "2"],
        ["verify", "--m", "2", "--n", "2", "--jobs", "2"],
        ["spanning", "--m", "2", "--n", "2"],
        ["formulas", "--m", "4", "--n", "6"],
        ["euler", "--m", "4", "--n", "6"],
        ["homology", "--m", "1", "--n", "2"],
        ["explore", "--m", "1", "--n", "2", "--k", "4"],
    ]
    for i, argv in enumerate(commands):
        f1 = tmp_path / f"{i}_first.out"
        f2 = tmp_path / f"{i}_second.out"
        c1 = main(argv + ["--out", str(f1)])
        c2 = main(argv + ["--out", str(f2)])
        assert c1 == c2
        assert f1.read_bytes() == f2.read_bytes(), argv
    _announce(10, True, "repeated runs produce byte-identical outputs")
