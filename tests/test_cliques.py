from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_clique_counts
from torushom.cliques import (count_cliques, enumerate_cliques,
                              euler_characteristic, neighbour_bitsets)
from torushom.complexes import ComplexParams, adjacency_matrix
from torushom.homology import collapsed_homology
from torushom.sampling import Poisson, SeedSpec, sample
from torushom.torus import TorusSpec


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, 1)
    return adj | adj.T


def complete_graph(n):
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj


def test_empty_graph():
    counts, complete = count_cliques(np.zeros((0, 0), dtype=bool))
    assert complete and counts.tolist() == [0]


def test_complete_graph_counts():
    from math import comb
    n = 7
    counts, complete = count_cliques(complete_graph(n))
    assert complete
    assert counts.tolist() == [0] + [comb(n, k) for k in range(1, n + 1)]


def test_triangle_free_graph():
    # 4-cycle: 4 vertices, 4 edges, no triangles
    adj = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        adj[i, j] = adj[j, i] = True
    counts, complete = count_cliques(adj)
    assert complete and counts.tolist() == [0, 4, 4]


@pytest.mark.parametrize("n,p,seed", [(10, 0.3, 1), (14, 0.5, 2), (9, 0.8, 3)])
def test_against_brute_force(n, p, seed):
    adj = random_graph(n, p, seed)
    counts, complete = count_cliques(adj)
    assert complete
    oracle = brute_force_clique_counts(adj, len(counts) - 1)
    assert counts.tolist() == oracle.tolist()


def test_max_size_truncation():
    adj = complete_graph(6)
    counts, complete = count_cliques(adj, max_size=3)
    assert complete
    assert counts.tolist() == [0, 6, 15, 20]


def test_cap_reports_incomplete():
    adj = complete_graph(20)
    counts, complete = count_cliques(adj, cap=100)
    assert not complete
    assert counts.sum() >= 100


def test_enumerate_matches_counts():
    adj = random_graph(15, 0.5, 11)
    counts, _ = count_cliques(adj)
    by_size, complete = enumerate_cliques(adj, max_size=len(counts) - 1)
    assert complete
    for k, cliques in by_size.items():
        assert len(cliques) == (counts[k] if k < len(counts) else 0)
        assert len(set(cliques)) == len(cliques)
        for cl in cliques:
            assert cl == tuple(sorted(cl))
            assert all(adj[i, j] for i in cl for j in cl if i < j)


def test_neighbour_bitsets_round_trip():
    adj = random_graph(70, 0.4, 5)
    bitsets = neighbour_bitsets(adj)
    assert len(bitsets) == 70
    for v, m in enumerate(bitsets):
        assert {j for j in range(70) if m >> j & 1} == set(np.nonzero(adj[v])[0])
    assert neighbour_bitsets(np.zeros((0, 0), dtype=bool)) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_property_counts_match_brute_force(n, p, seed):
    adj = random_graph(n, p, seed)
    counts, complete = count_cliques(adj)
    assert complete
    oracle = brute_force_clique_counts(adj, n)
    top = len(counts)
    assert counts.tolist() == oracle[:top].tolist()
    assert not oracle[top:].any()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_property_counts_match_networkx(n, p, seed):
    adj = random_graph(n, p, seed)
    by_size = Counter(len(c) for c in nx.enumerate_all_cliques(
        nx.from_numpy_array(adj.astype(int))))
    for max_size in range(1, n + 1):
        counts, complete = count_cliques(adj, max_size=max_size)
        assert complete
        expect = [0] + [by_size[k] for k in range(1, max_size + 1)]
        while len(expect) > 2 and expect[-1] == 0:
            expect.pop()
        assert counts.tolist() == expect
    total = sum(by_size.values())
    if total > 1:  # cap=0 means no cap
        assert count_cliques(adj, cap=total)[1]
        assert not count_cliques(adj, cap=total - 1)[1]


def alternating_sum(adj):
    counts = brute_force_clique_counts(adj, adj.shape[0])
    return int(sum((-1) ** (k - 1) * counts[k] for k in range(1, len(counts))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
@example(12, 1.0, 0)
@example(12, 0.5, 1)
def test_property_euler_matches_brute_force(n, p, seed):
    adj = random_graph(n, p, seed)
    assert euler_characteristic(adj) == alternating_sum(adj)


def king_torus_grid(m):
    """The m x m grid on the torus, adjacent at king-move distance 1."""
    cells = [(i, j) for i in range(m) for j in range(m)]
    adj = np.zeros((m * m, m * m), dtype=bool)
    for a, (i, j) in enumerate(cells):
        for b, (k, l) in enumerate(cells):
            di, dj = abs(i - k), abs(j - l)
            if a != b and min(di, m - di) <= 1 and min(dj, m - dj) <= 1:
                adj[a, b] = True
    return adj


def test_euler_small_complexes():
    assert euler_characteristic(np.zeros((0, 0), dtype=bool)) == 0
    assert euler_characteristic(np.zeros((1, 1), dtype=bool)) == 1
    assert euler_characteristic(np.zeros((5, 5), dtype=bool)) == 5
    assert euler_characteristic(complete_graph(9)) == 1
    cone = random_graph(11, 0.4, 7)
    cone[4, :] = cone[:, 4] = True
    cone[4, 4] = False
    assert euler_characteristic(cone) == 1
    cycle = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        cycle[i, (i + 1) % 4] = cycle[(i + 1) % 4, i] = True
    assert euler_characteristic(cycle) == 0
    assert euler_characteristic(king_torus_grid(5)) == 0


@pytest.mark.parametrize("d,lam,seed", [(1, 200.0, 1), (1, 200.0, 2),
                                        (2, 100.0, 3), (2, 400.0, 4),
                                        (3, 300.0, 5)])
def test_euler_matches_collapsed_homology(d, lam, seed):
    params = ComplexParams(epsilon=0.05)
    pc = sample(Poisson(lam), TorusSpec(d=d, a=1.0), SeedSpec(seed))
    chi = euler_characteristic(adjacency_matrix(pc, params))
    assert chi == collapsed_homology(pc, params).chi_betti
