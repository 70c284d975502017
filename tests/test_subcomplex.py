import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations, permutations

from torushom.complexes import ComplexParams, Convention, adjacency_matrix
from torushom.moments import ModelParams
from torushom.sampling import Binomial, PointConfiguration, SeedSpec, sample
from torushom.subcomplex import (GammaGraph, automorphism_count, count_gamma_adj,
                                 kernel_integral_f_i)
from torushom.torus import TorusSpec

SPEC1 = TorusSpec(d=1, a=1.0)
SPEC2 = TorusSpec(d=2, a=1.0)


def brute_force_count(adj, gamma):
    """Independent oracle: scan all injections, divide by automorphisms."""
    n = adj.shape[0]
    labeled = 0
    for sub in permutations(range(n), gamma.n):
        if all(adj[sub[u], sub[v]] for u, v in gamma.edges):
            labeled += 1
    return labeled // automorphism_count(gamma)


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < p, 1)
    return adj | adj.T


# every labelled connected graph on 1-4 vertices (1 + 1 + 4 + 38 patterns)
CONNECTED_PATTERNS = [
    GammaGraph(k, frozenset(edges))
    for k in range(1, 5)
    for r in range(k - 1, k * (k - 1) // 2 + 1)
    for edges in combinations(combinations(range(k), 2), r)
    if GammaGraph(k, frozenset(edges)).is_connected()
]


def test_gamma_graph_validation():
    with pytest.raises(ValueError):
        GammaGraph.make(2, [(0, 0)])  # self loop
    with pytest.raises(ValueError):
        GammaGraph.make(3, [(0, 3)])  # out of range
    with pytest.raises(ValueError):
        GammaGraph.make(3, [(0, 1)])  # disconnected (vertex 2 isolated)
    g = GammaGraph.make(3, [(1, 0), (2, 1), (0, 2)])
    assert g == GammaGraph.complete(3)


def test_disconnected_pattern_is_rejected_before_any_neighbour_set():
    # 200,000 vertices and no edge cannot be connected: rejected from the
    # edge count, without 200,000 neighbour sets (tens of MB)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must be connected"):
            GammaGraph.make(200_000, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gamma_json_round_trip():
    g = GammaGraph.make(4, [(0, 1), (1, 2), (2, 3)])
    assert GammaGraph.from_json(g.to_json()) == g


def test_automorphism_counts():
    assert automorphism_count(GammaGraph.edge()) == 2
    assert automorphism_count(GammaGraph.complete(4)) == math.factorial(4)
    # path on 3 vertices: only identity and the end swap
    assert automorphism_count(GammaGraph.make(3, [(0, 1), (1, 2)])) == 2
    # star K_{1,3}: 3! leaf permutations
    assert automorphism_count(
        GammaGraph.make(4, [(0, 1), (0, 2), (0, 3)])) == 6
    # 4-cycle: dihedral group of order 8
    assert automorphism_count(
        GammaGraph.make(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 8


def test_edge_count_matches_graph():
    adj = random_graph(12, 0.4, 1)
    expect = int(np.triu(adj, 1).sum())
    assert count_gamma_adj(adj, GammaGraph.edge()).g_gamma == expect


def test_triangle_count_matches_cliques():
    adj = random_graph(14, 0.5, 2)
    tri = sum(1 for i, j, k in combinations(range(14), 3)
              if adj[i, j] and adj[j, k] and adj[i, k])
    assert count_gamma_adj(adj, GammaGraph.complete(3)).g_gamma == tri


@pytest.mark.parametrize("edges,n", [
    ([(0, 1), (1, 2)], 3),              # path
    ([(0, 1), (0, 2), (0, 3)], 4),      # star
    ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),  # 4-cycle
    ([(0, 1), (1, 2), (2, 0), (2, 3)], 4),  # triangle with tail
])
def test_against_brute_force(edges, n):
    gamma = GammaGraph.make(n, edges)
    for seed in range(3):
        adj = random_graph(9, 0.45, 100 + seed)
        assert count_gamma_adj(adj, gamma).g_gamma == \
            brute_force_count(adj, gamma)


def test_connected_patterns_are_all_enumerated():
    assert [sum(g.n == k for g in CONNECTED_PATTERNS) for k in range(1, 5)] \
        == [1, 1, 4, 38]


@pytest.mark.parametrize("gamma", CONNECTED_PATTERNS, ids=lambda g: str(g.to_json()))
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 9), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_property_counts_match_brute_force(gamma, n, p, seed):
    adj = random_graph(n, p, seed)
    assert count_gamma_adj(adj, gamma).g_gamma == brute_force_count(adj, gamma)


def test_non_induced_semantics():
    # a triangle contains 3 paths of length 2 (extra edge allowed)
    adj = np.ones((3, 3), dtype=bool)
    np.fill_diagonal(adj, False)
    path = GammaGraph.make(3, [(0, 1), (1, 2)])
    assert count_gamma_adj(adj, path).g_gamma == 3


def test_count_gamma_uses_complex_threshold():
    cfg = sample(Binomial(n=20), SPEC1, SeedSpec(6))
    sub = ComplexParams(epsilon=0.1, convention=Convention.SUBCOMPLEX_EPS)
    rips = ComplexParams(epsilon=0.1)
    n_sub = count_gamma_adj(adjacency_matrix(cfg, sub), GammaGraph.edge()).g_gamma
    n_rips = count_gamma_adj(adjacency_matrix(cfg, rips), GammaGraph.edge()).g_gamma
    assert n_sub <= n_rips  # threshold eps vs 2 eps


def test_too_few_points():
    adj = np.zeros((2, 2), dtype=bool)
    assert count_gamma_adj(adj, GammaGraph.complete(3)).g_gamma == 0


def test_pattern_size_limit_checked_before_search():
    # an 11-vertex pattern is over the automorphism-scan limit; it must be
    # rejected even when there are too few points to place it
    path = GammaGraph.make(11, [(i, i + 1) for i in range(10)])
    adj = np.ones((5, 5), dtype=bool)
    np.fill_diagonal(adj, False)
    with pytest.raises(ValueError):
        count_gamma_adj(adj, path)


def test_star_count_is_exact_beyond_int64():
    # K_{1,7} in K_300: 300 * (299)_7 labelled embeddings, more than 2^63,
    # over the 7! leaf permutations
    adj = np.ones((300, 300), dtype=bool)
    np.fill_diagonal(adj, False)
    star = GammaGraph.make(8, [(0, i) for i in range(1, 8)])
    assert 300 * math.perm(299, 7) > 2 ** 63
    assert count_gamma_adj(adj, star).g_gamma == 300 * math.comb(299, 7) \
        == 11848497951490200


def test_kernel_integral_arity_n_is_indicator():
    params = ModelParams(lam=10.0, spec=SPEC1, epsilon=0.1)
    gamma = GammaGraph.edge()
    near = kernel_integral_f_i(gamma, params, 2, [[0.3], [0.35]],
                               samples=1, seed=SeedSpec(0))
    assert near == 1.0
    far = kernel_integral_f_i(gamma, params, 2, [[0.3], [0.6]],
                              samples=1, seed=SeedSpec(0))
    assert far == 0.0


def test_kernel_integral_edge_closed_forms():
    # i = 0: C(2,0) lam^2 * integral of the edge indicator over both points
    # = lam^2 * a * 2 eps; i = 1: C(2,1) lam * 2 eps
    params = ModelParams(lam=10.0, spec=SPEC1, epsilon=0.1)
    gamma = GammaGraph.edge()
    f0 = kernel_integral_f_i(gamma, params, 0, [], 200_000, SeedSpec(1))
    assert f0 == pytest.approx(100.0 * 0.2, rel=0.02)
    f1 = kernel_integral_f_i(gamma, params, 1, [[0.5]], 200_000, SeedSpec(2))
    assert f1 == pytest.approx(2 * 10.0 * 0.2, rel=0.02)


def test_kernel_integral_validation():
    params = ModelParams(lam=10.0, spec=SPEC1, epsilon=0.1)
    with pytest.raises(ValueError):
        kernel_integral_f_i(GammaGraph.edge(), params, 3, [[0.1]] * 3,
                            10, SeedSpec(0))
    with pytest.raises(ValueError, match="samples"):
        kernel_integral_f_i(GammaGraph.edge(), params, 1, [[0.1]], 0,
                            SeedSpec(0))
    # a fixed point outside the cell used to double the edge kernel at 1.3
    # and quadruple it at -0.7
    for x in (1.3, -0.7, 1.0, math.nan):
        with pytest.raises(ValueError, match="fixed points"):
            kernel_integral_f_i(GammaGraph.edge(), params, 1, [[x]], 10,
                                SeedSpec(0))


def test_two_path_kernels_factorise_over_coordinates():
    # the path 0-1-2 at d = 2, edges within eps = 0.1, a = 1: per coordinate
    # the free points contribute a window of 2 eps each, so
    # f_0 = lam^3 (a (2 eps)^2)^2 = 1.6, f_1 = 3 lam^2 ((2 eps)^2)^2 = 0.48
    # and f_2 = 3 lam (2 eps)^2 = 1.2 with the fixed points within eps.  Each
    # coordinate's hit fraction p is binomial, so the product of the two has
    # relative standard error sqrt(2 (1 - p) / (p N)) to first order.
    params = ModelParams(lam=10.0, spec=SPEC2, epsilon=0.1)
    path = GammaGraph.make(3, [(0, 1), (1, 2)])
    samples = 100_000
    fixed = [[0.5, 0.5], [0.55, 0.42]]
    for i, exact, p in ((0, 1.6, 0.04), (1, 0.48, 0.04), (2, 1.2, 0.2)):
        value = kernel_integral_f_i(path, params, i, fixed[:i], samples,
                                    SeedSpec(12, i))
        se = exact * math.sqrt(2 * (1 - p) / (p * samples))
        assert abs(value - exact) <= 4 * se, (i, value, exact, se)


def test_from_json_rejects_a_document_that_is_not_an_object():
    with pytest.raises(ValueError, match="JSON object"):
        GammaGraph.from_json([1, 2])
