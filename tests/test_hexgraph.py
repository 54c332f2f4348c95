"""Graph construction and structural queries."""

import random
from itertools import combinations

import pytest

from hexcut import (
    EmptySubset,
    Graph,
    InvalidParams,
    VertexOutOfRange,
    build_hex_graph,
    cycle_graph,
    girth,
    induced_p3_list,
    validate_structure,
)
from hexcut.hexgraph import (
    HexGraph,
    graph_to_dot,
    graph_to_edge_text,
    graph_to_json_dict,
    hex_edges,
    hex_vertex_count,
    neighbor_pairs,
)
from hexcut.cutcomplex import hex_facet_count, induced_p3_count
from hexcut.homology import reduced_euler_closed
from hexcut.shelling import (
    _typed_witnesses,
    non_spanning_pair_table,
    spanning_count_formula,
    tail_facet_count,
    tail_facets,
)

from conftest import listed, oracle_adjacency, oracle_connected, oracle_girth


def test_smallest_case_is_six_cycle():
    g = build_hex_graph(1, 1)
    assert g.n_vertices == 6
    assert g.n_edges == 6
    assert all(g.degree(v) == 2 for v in g.vertices())
    assert girth(g) == 6


def test_girth_matches_the_full_bfs_oracle():
    # the early stop changes no length: 400 seeded graphs on up to 12
    # vertices, forests among them, plus grids and cycles
    graphs = [build_hex_graph(m, n) for m, n in [(1, 1), (2, 2), (3, 4), (4, 6)]]
    graphs += [cycle_graph(N) for N in (3, 4, 7)]
    for seed in range(400):
        rng = random.Random(seed)
        N = rng.randint(1, 12)
        p = rng.uniform(0.1, 0.6)
        graphs.append(Graph(N, [e for e in combinations(range(1, N + 1), 2) if rng.random() < p]))
    assert [girth(g) for g in graphs] == [oracle_girth(g) for g in graphs]
    assert {oracle_girth(g) for g in graphs} >= {3, 4, 5, 6, 7, float("inf")}


def test_bad_params_rejected():
    with pytest.raises(InvalidParams):
        build_hex_graph(0, 1)
    with pytest.raises(InvalidParams):
        build_hex_graph(1, 0)
    with pytest.raises(InvalidParams):
        build_hex_graph(-3, 2)


@pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (1.5, 2)])
@pytest.mark.parametrize("build", [
    build_hex_graph, hex_vertex_count, induced_p3_count, hex_facet_count,
    spanning_count_formula, reduced_euler_closed, tail_facet_count, tail_facets,
    non_spanning_pair_table, _typed_witnesses,
], ids=lambda f: f.__name__)
def test_every_grid_entry_point_admits_only_positive_integers(build, m, n):
    # tail_facets also takes the graph that its schedule is checked against
    graph = (build_hex_graph(1, 1),) if build is tail_facets else ()
    with pytest.raises(InvalidParams):
        build(m, n, *graph)


def test_worked_adjacencies_4_6():
    g = build_hex_graph(4, 6)
    assert g.n_vertices == 68
    assert g.is_edge(11, 47)
    assert g.is_edge(17, 47)
    assert g.is_edge(17, 52)
    assert g.n_edges == 3 * 4 * 6 + 2 * 4 + 2 * 6 - 1 == 91


def test_2_2_counts():
    # 16 vertices; 19 edges by the count formula, consistent with the
    # degree split 6 of degree three and 10 of degree two
    g = build_hex_graph(2, 2)
    assert g.n_vertices == 16
    assert g.n_edges == 19
    degs = [g.degree(v) for v in g.vertices()]
    assert degs.count(3) == 6
    assert degs.count(2) == 10


def test_neighbors_sorted_and_bounded():
    g = build_hex_graph(4, 6)
    for v in g.vertices():
        nb = g.neighbors(v)
        assert list(nb) == sorted(nb)
        assert len(nb) in (2, 3)
    assert 11 in g.neighbors(47)
    assert 17 in g.neighbors(47)
    with pytest.raises(VertexOutOfRange):
        g.neighbors(69)
    with pytest.raises(VertexOutOfRange):
        g.neighbors(0)


def test_connected_subset_queries():
    g = build_hex_graph(4, 6)
    assert g.is_connected_subset({11, 17, 47})
    assert g.is_connected_subset({5})
    g11 = build_hex_graph(1, 1)
    # alternating color class of the six-cycle is pairwise non-adjacent
    assert not g11.is_connected_subset({1, 2, 3})
    c6 = cycle_graph(6)
    assert not c6.is_connected_subset({1, 3, 5})
    with pytest.raises(EmptySubset):
        g11.is_connected_subset(set())
    with pytest.raises(VertexOutOfRange):
        g11.is_connected_subset({1, 99})


def test_connected_subset_matches_oracle():
    from itertools import combinations

    g = build_hex_graph(2, 2)
    adj = oracle_adjacency(g)
    for t in combinations(range(1, 17), 3):
        assert g.is_connected_subset(t) == oracle_connected(adj, t)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_induced_p3_count_formula(m, n):
    g = build_hex_graph(m, n)
    triples = induced_p3_list(g)
    assert len(triples) == 6 * m * n + 2 * m + 2 * n - 4


def test_induced_p3_midpoints_and_uniqueness():
    g = build_hex_graph(2, 3)
    half = g.v1_boundary
    seen_endpoints = set()
    for a, b, c in induced_p3_list(g):
        assert a < c
        assert g.is_edge(a, b) and g.is_edge(b, c) and not g.is_edge(a, c)
        # endpoints share a color class, the midpoint takes the other one
        if a <= half:
            assert c <= half < b
            assert a < c < b
        else:
            assert b <= half < a
            assert b < a < c
        assert (a, c) not in seen_endpoints
        seen_endpoints.add((a, c))


def test_induced_p3_smallest_case():
    assert len(induced_p3_list(build_hex_graph(1, 1))) == 6


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_validator_grid(m, n):
    g = build_hex_graph(m, n, validate=False)
    report = validate_structure(g)
    assert report.ok, report.failed()


def test_validator_catches_mutation():
    g = build_hex_graph(2, 2, validate=False)
    edges = g.edges()
    mutated = HexGraph(2, 2, edges[:-1])  # drop one edge
    report = validate_structure(mutated)
    assert not report.ok
    assert "degree_counts" in report.failed()


def test_four_cycle_check_reads_the_neighbor_pairs():
    # H(2, 2) plus each missing edge in turn: the walk yields each pair of
    # neighbors of each vertex once, middles ascending, and the validator
    # sees a 4-cycle exactly when two vertices share two common neighbors
    base = hex_edges(2, 2)
    verdicts = []
    for edge in sorted(set(combinations(range(1, 17), 2)) - set(base)):
        g = HexGraph(2, 2, base + [edge])
        brute = [(a, v, c) for v in g.vertices() for a, c in combinations(g.neighbors(v), 2)]
        assert list(neighbor_pairs(g)) == brute
        shared = any(len(set(g.neighbors(a)) & set(g.neighbors(c))) > 1
                     for a, c in combinations(g.vertices(), 2))
        assert validate_structure(g).checks["no_four_cycle"] == (not shared)
        verdicts.append(shared)
    assert verdicts.count(True) == 30 and verdicts.count(False) == 71


def test_edge_families_are_disjoint_offsets():
    m, n = 3, 4
    h = m + n + m * n
    offsets = {v - u for u, v in hex_edges(m, n)}
    assert offsets == {n + n * m, h, h + 1, h + 2}


def test_exports():
    g = build_hex_graph(1, 1)
    text = graph_to_edge_text(g)
    assert text.count("\n") == 6
    assert text.splitlines() == sorted(text.splitlines(), key=lambda s: tuple(map(int, s.split())))
    dot = graph_to_dot(g)
    assert dot.startswith("graph ") and "--" in dot
    doc = graph_to_json_dict(g)
    assert doc["vertices"] == 6
    assert doc["m"] == 1 and doc["n"] == 1
    edges = listed(doc["edges"])
    assert edges == sorted(edges) == g.edges()
    assert len(edges) == 6


def test_graph_value_equality():
    # equal type, vertex count and edge set; the grid also compares m, n
    g = Graph(4, [(1, 2), (3, 2)])
    assert g == Graph(4, [(2, 3), (2, 1), (1, 2)]) and hash(g) == hash(Graph(4, [(2, 1), (2, 3)]))
    assert g != Graph(5, [(1, 2), (2, 3)]) and g != Graph(4, [(1, 2)])
    h = build_hex_graph(1, 2)
    assert h == build_hex_graph(1, 2) and hash(h) == hash(build_hex_graph(1, 2))
    assert h != Graph(h.n_vertices, h.edges()) != h
    assert HexGraph(1, 2, hex_edges(2, 1)) != build_hex_graph(2, 1)
    assert h != build_hex_graph(2, 1)
    assert g != (4, g.edges())
