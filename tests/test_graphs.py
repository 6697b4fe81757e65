import itertools

import pytest

from reloc.graphs import (
    INF,
    all_pairs_distances,
    build_graph,
    make_clique,
    make_grid,
    make_random,
    make_star,
)


def test_build_graph_normalizes_edges():
    g = build_graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.adj == ((2,), (2,), (0, 1))
    assert g.has_edge(2, 0) and g.has_edge(0, 2)
    assert not g.has_edge(0, 1)


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(0, [])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])


def test_grid_shape():
    g = make_grid(8, 8)
    assert g.n == 64
    assert len(g.edges) == 112  # 2 * 8 * 7
    # corner, edge, interior degrees
    assert len(g.adj[0]) == 2
    assert len(g.adj[1]) == 3
    assert len(g.adj[9]) == 4
    with pytest.raises(ValueError):
        make_grid(0, 3)


def test_grid_1x1_has_no_edges():
    g = make_grid(1, 1)
    assert g.n == 1 and not g.edges


def test_star_and_clique():
    s = make_star(8)
    assert len(s.edges) == 7 and all(u == 0 for u, _ in s.edges)
    c = make_clique(5)
    assert len(c.edges) == 10
    assert make_clique(1).n == 1


def test_random_graph_connected_and_deterministic():
    for seed in range(10):
        g = make_random(12, 0.2, seed)
        dt = all_pairs_distances(g)
        assert all(dt(0, v) < INF for v in range(g.n))
    assert make_random(12, 0.2, 3).edges == make_random(12, 0.2, 3).edges
    assert make_random(12, 0.2, 3).edges != make_random(12, 0.2, 4).edges
    # extra_fraction 1.0 fills in every remaining pair
    assert make_random(6, 1.0, 0).edges == make_clique(6).edges
    with pytest.raises(ValueError):
        make_random(5, 1.5, 0)


def test_distances_match_floyd_warshall():
    g = make_random(9, 0.15, 42)
    dt = all_pairs_distances(g)
    n = g.n
    ref = [[0 if i == j else (1 if g.has_edge(i, j) else INF) for j in range(n)]
           for i in range(n)]
    for m, i, j in itertools.product(range(n), repeat=3):
        # a sum through an unreachable pair exceeds INF and never wins
        ref[i][j] = min(ref[i][j], ref[i][m] + ref[m][j])
    for i in range(n):
        for j in range(n):
            assert dt(i, j) == ref[i][j]


def test_distances_unreachable_is_inf():
    g = build_graph(4, [(0, 1), (2, 3)])
    dt = all_pairs_distances(g)
    assert dt(0, 1) == 1
    assert dt(0, 2) == INF


def test_equal_graphs_and_instances_hash_as_their_fields_do():
    # Graph keeps the hash a frozen dataclass derives from its fields, worked
    # out once; per-instance caches hash the graph on every lookup
    from reloc.relocation import Instance, Variant

    a = make_grid(3, 3)
    b = build_graph(9, sorted(a.edges, reverse=True))
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((a.n, a.edges, a.adj))
    assert a != make_grid(3, 2) and a != make_star(9)
    ia = Instance(a, Variant.TSWAP, (0, 1), (1, 0))
    ib = Instance(b, Variant.TSWAP, (0, 1), (1, 0))
    assert ia == ib and hash(ia) == hash(ib)
    assert hash(ia) == hash((a, Variant.TSWAP, (0, 1), (1, 0)))
    assert ia != Instance(a, Variant.TPERM, (0, 1), (1, 0))
    assert "_hash" not in repr(a)
