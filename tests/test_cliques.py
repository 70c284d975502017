from collections import Counter
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bitsets, brute_force_clique_counts, chi_from_counts
from torushom import cliques
from torushom.cliques import (SimplexCapExceeded, chi_from_bitsets, components,
                              count_cliques, counts_from_bitsets, enumerate_cliques,
                              neighbour_bitsets, rows_bitsets, triangle_counts)
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
    counts, complete = count_cliques([])
    assert complete and counts.tolist() == [0]


def test_complete_graph_counts():
    from math import comb
    n = 7
    counts, complete = count_cliques(bitsets(complete_graph(n)))
    assert complete
    assert counts.tolist() == [0] + [comb(n, k) for k in range(1, n + 1)]


def test_triangle_free_graph():
    # 4-cycle: 4 vertices, 4 edges, no triangles
    adj = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        adj[i, j] = adj[j, i] = True
    counts, complete = count_cliques(bitsets(adj))
    assert complete and counts.tolist() == [0, 4, 4]


@pytest.mark.parametrize("n,p,seed", [(10, 0.3, 1), (14, 0.5, 2), (9, 0.8, 3)])
def test_against_brute_force(n, p, seed):
    adj = random_graph(n, p, seed)
    counts, complete = count_cliques(bitsets(adj))
    assert complete
    oracle = brute_force_clique_counts(adj, len(counts) - 1)
    assert counts.tolist() == oracle.tolist()


def test_max_size_truncation():
    adj = complete_graph(6)
    counts, complete = count_cliques(bitsets(adj), max_size=3)
    assert complete
    assert counts.tolist() == [0, 6, 15, 20]


def test_cap_overrun_raises(monkeypatch):
    # a walk past the cap raises; no partial count comes back
    neigh = bitsets(complete_graph(20))
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 100)
    with pytest.raises(SimplexCapExceeded, match="^more than DEFAULT_SIMPLEX_CAP"
                       " = 100 cliques of at most 20 vertices$"):
        count_cliques(neigh)
    with pytest.raises(SimplexCapExceeded, match="^more than DEFAULT_SIMPLEX_CAP"
                       " = 100 cliques$"):
        enumerate_cliques(neigh)
    # a cap of 0 is no exemption: the vertices alone pass it
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 0)
    with pytest.raises(SimplexCapExceeded):
        count_cliques(bitsets(complete_graph(1)))


def test_enumerate_matches_counts():
    adj = random_graph(15, 0.5, 11)
    neigh = bitsets(adj)
    counts, _ = count_cliques(neigh)
    by_size, complete = enumerate_cliques(neigh)
    assert complete
    for k, cliques in by_size.items():
        assert len(cliques) == (counts[k] if k < len(counts) else 0)
        assert len(set(cliques)) == len(cliques)
        for cl in cliques:
            assert cl == tuple(sorted(cl))
            assert all(adj[i, j] for i in cl for j in cl if i < j)


@pytest.mark.parametrize("n", [0, 1, 7, 64, 65, 70, 192, 193, 256, 257])
def test_neighbour_bitsets_round_trip(n):
    adj = random_graph(n, 0.4, 5)
    u, v = np.nonzero(np.triu(adj, 1))
    order = np.random.default_rng(n).permutation(len(u))
    packed = neighbour_bitsets(u[order], v[order], n)
    assert len(packed) == n
    for x, m in enumerate(packed):
        assert {j for j in range(n) if m >> j & 1} == set(np.nonzero(adj[x])[0])
    assert packed == rows_bitsets(adj)


def test_neighbour_bitsets_with_local_columns():
    # two graphs in one block, each row keyed by its graph's own columns
    first, second = random_graph(5, 0.6, 1), random_graph(70, 0.3, 2)
    u1, v1 = np.nonzero(np.triu(first, 1))
    u2, v2 = np.nonzero(np.triu(second, 1))
    local = np.concatenate((np.arange(5), np.arange(70)))
    packed = neighbour_bitsets(np.concatenate((u1, u2 + 5)),
                               np.concatenate((v1, v2 + 5)), 75, local)
    assert packed == bitsets(first) + bitsets(second)


# the bits on either side of each 64-bit word boundary, to five words
WORD_EDGES = [0, 63, 64, 127, 128, 191, 192, 255, 256, 319, 320]


def _bit_by_bit(u, v, n, column):
    """The neighbour bitsets of the edges (u, v), set one bit at a time."""
    col = range(n) if column is None else column.tolist()
    rows = [0] * n
    for x, y in zip(u.tolist(), v.tolist()):
        rows[x] |= 1 << col[y]
        rows[y] |= 1 << col[x]
    return rows


@st.composite
def packings(draw):
    """Edges (u, v) on n vertices and None or a column per vertex, with rows
    from none to seven 64-bit words wide and word-edge bits often set."""
    width = draw(st.sampled_from([1, 8, 9, 64, 65, 129, 193, 257, 321, 448])
                 | st.integers(0, 448))
    bits = (st.sampled_from([b for b in WORD_EDGES if b < width])
            | st.integers(0, width - 1)) if width else st.nothing()
    if draw(st.booleans()):
        n, column = width, None
        vertex = bits
    else:
        n = draw(st.integers(0, 12)) if width else 0
        column = np.array(draw(st.lists(bits, min_size=n, max_size=n)),
                          dtype=np.intp)
        vertex = st.integers(0, n - 1) if n else st.nothing()
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=40) if n > 1 else st.just([]))
    u, v = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return u, v, n, column


@settings(max_examples=300, deadline=None)
@given(packings())
@example((np.array([], dtype=np.intp),) * 2 + (0, None))
@example((np.array([], dtype=np.intp),) * 2 + (1, None))
@example((np.array([], dtype=np.intp),) * 2 + (0, np.array([], dtype=np.intp)))
@example((np.array([], dtype=np.intp),) * 2 + (1, np.array([320])))
@example((np.zeros(5, dtype=np.intp), np.array([63, 64, 127, 128, 191]), 192,
          None))
@example((np.zeros(6, dtype=np.intp), np.array([63, 64, 127, 128, 191, 192]), 193,
          None))
@example((np.zeros(5, dtype=np.intp), np.arange(1, 6), 7,
          np.array([5, 63, 64, 127, 128, 191, 0])))
@example((np.zeros(6, dtype=np.intp), np.arange(1, 7), 8,
          np.array([5, 63, 64, 127, 128, 191, 192, 0])))
def test_property_neighbour_bitsets_equal_bit_by_bit(packing):
    # rows of one to three words are joined from numpy words, wider ones go
    # through int.from_bytes: both equal the bits set one at a time, when
    # no (row, column) bit is set twice, by a repeated pair or by two
    # neighbours in one column; else the pack raises
    u, v, n, column = packing
    col = np.arange(n) if column is None else column
    bits = set(zip(np.concatenate((u, v)).tolist(),
                   col[np.concatenate((v, u))].tolist()))
    if len(bits) == 2 * len(u):
        assert neighbour_bitsets(u, v, n, column) == _bit_by_bit(u, v, n,
                                                                 column)
    else:
        with pytest.raises(ValueError):
            neighbour_bitsets(u, v, n, column)


@pytest.mark.parametrize("u, v, column", [
    ([0, 0, 0, 1], [1, 1, 2, 2], [0, 1, 2]),     # edge (0, 1) twice
    ([0, 1, 0, 1], [1, 0, 2, 2], [0, 1, 2]),     # and both ways
    ([0, 0, 1], [1, 2, 2], [0, 1, 1]),           # 1 and 2 in one column
])
def test_a_bit_set_twice_raises_from_both_packs(u, v, column):
    u, v, column = (np.array(a, dtype=np.intp) for a in (u, v, column))
    seg = np.zeros(3, dtype=np.intp)
    with pytest.raises(ValueError):
        triangle_counts(u, v, column, seg, 1, 64)
    with pytest.raises(ValueError):
        neighbour_bitsets(u, v, 3, column)
    # the triangle 0 1 2, each edge listed once
    once = np.array([0, 0, 1]), np.array([1, 2, 2])
    assert triangle_counts(*once, np.arange(3), seg, 1, 64).tolist() == [1]


@pytest.mark.parametrize("width", [1, 64, 65, 128, 129, 192, 193, 256, 257,
                                   320, 321, 448])
def test_neighbour_bitsets_of_every_row_width(width):
    # vertex 0 is joined to each word-edge vertex and the last vertex (none
    # at a width of 1), so the rows between stay empty
    ends = sorted({b for b in WORD_EDGES + [width - 1] if 0 < b < width})
    u, v = np.zeros(len(ends), dtype=np.intp), np.array(ends, dtype=np.intp)
    packed = neighbour_bitsets(u, v, width)
    assert packed == _bit_by_bit(u, v, width, None)
    assert packed[0] == sum(1 << b for b in ends)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_property_counts_match_brute_force(n, p, seed):
    adj = random_graph(n, p, seed)
    counts, complete = count_cliques(bitsets(adj))
    assert complete
    oracle = brute_force_clique_counts(adj, n)
    top = len(counts)
    assert counts.tolist() == oracle[:top].tolist()
    assert not oracle[top:].any()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.floats(0.0, 0.3), st.integers(0, 10 ** 6))
@example(0, 0.0, 0)
def test_property_components_match_networkx(n, p, seed):
    adj = random_graph(n, p, seed)
    found = components(bitsets(adj))
    # vertex sets, in the order of their lowest vertex
    sets = [{v for v in range(n) if comp >> v & 1} for comp in found]
    assert sorted(sets, key=min) == sets
    assert sorted(map(sorted, sets)) == sorted(
        map(sorted, nx.connected_components(nx.from_numpy_array(adj.astype(int)))))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_property_counts_match_networkx(n, p, seed):
    adj = random_graph(n, p, seed)
    by_size = Counter(len(c) for c in nx.enumerate_all_cliques(
        nx.from_numpy_array(adj.astype(int))))
    neigh = bitsets(adj)
    for max_size in range(1, n + 1):
        counts, complete = count_cliques(neigh, max_size=max_size)
        assert complete
        expect = [0] + [by_size[k] for k in range(1, max_size + 1)]
        while len(expect) > 2 and expect[-1] == 0:
            expect.pop()
        assert counts.tolist() == expect
        # the walk raises exactly when its cliques pass the cap
        total = sum(expect)
        with mock.patch.object(cliques, "DEFAULT_SIMPLEX_CAP", total):
            assert count_cliques(neigh, max_size)[0].tolist() == expect
        with mock.patch.object(cliques, "DEFAULT_SIMPLEX_CAP", total - 1):
            with pytest.raises(SimplexCapExceeded):
                count_cliques(neigh, max_size)
    total = sum(by_size.values())
    with mock.patch.object(cliques, "DEFAULT_SIMPLEX_CAP", total):
        enumerate_cliques(neigh)
    with mock.patch.object(cliques, "DEFAULT_SIMPLEX_CAP", total - 1):
        if n:
            with pytest.raises(SimplexCapExceeded):
                enumerate_cliques(neigh)


def alternating_sum(adj):
    counts = brute_force_clique_counts(adj, adj.shape[0])
    return int(sum((-1) ** (k - 1) * counts[k] for k in range(1, len(counts))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
@example(12, 1.0, 0)
@example(12, 0.5, 1)
def test_property_euler_matches_brute_force(n, p, seed):
    adj = random_graph(n, p, seed)
    assert chi_from_bitsets(bitsets(adj)) == alternating_sum(adj)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 11), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
@example(0, 0.0, 0)
@example(1, 0.0, 0)
@example(2, 1.0, 0)
@example(11, 1.0, 0)
def test_property_walks_match_brute_force_at_every_size(n, p, seed):
    # the walks skip candidate sets of one vertex and count the last size in
    # a tight loop; every max_size, from below the first edge to past the
    # largest clique, takes a different last size
    adj = random_graph(n, p, seed)
    neigh = bitsets(adj)
    full = brute_force_clique_counts(adj, n)
    for max_size in range(1, n + 2):
        expect = full[:max_size + 1].tolist()
        expect += [0] * (n + 1 - len(expect))
        assert counts_from_bitsets(neigh, max_size) == expect
    assert chi_from_bitsets(neigh) == chi_from_counts(full[1:])


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
    assert chi_from_bitsets(bitsets(np.zeros((0, 0), dtype=bool))) == 0
    assert chi_from_bitsets(bitsets(np.zeros((1, 1), dtype=bool))) == 1
    assert chi_from_bitsets(bitsets(np.zeros((5, 5), dtype=bool))) == 5
    assert chi_from_bitsets(bitsets(complete_graph(9))) == 1
    cone = random_graph(11, 0.4, 7)
    cone[4, :] = cone[:, 4] = True
    cone[4, 4] = False
    assert chi_from_bitsets(bitsets(cone)) == 1
    cycle = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        cycle[i, (i + 1) % 4] = cycle[(i + 1) % 4, i] = True
    assert chi_from_bitsets(bitsets(cycle)) == 0
    assert chi_from_bitsets(bitsets(king_torus_grid(5))) == 0


@pytest.mark.parametrize("d,lam,seed", [(1, 200.0, 1), (1, 200.0, 2),
                                        (2, 100.0, 3), (2, 400.0, 4),
                                        (3, 300.0, 5)])
def test_euler_matches_collapsed_homology(d, lam, seed):
    params = ComplexParams(epsilon=0.05)
    pc = sample(Poisson(lam), TorusSpec(d=d, a=1.0), SeedSpec(seed))
    chi = chi_from_bitsets(bitsets(adjacency_matrix(pc, params)))
    assert chi == collapsed_homology(pc, params).chi_betti
