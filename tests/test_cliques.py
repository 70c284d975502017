import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_clique_counts
from torushom.cliques import count_cliques, enumerate_cliques, neighbour_bitsets


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
