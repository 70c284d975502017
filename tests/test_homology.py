import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (bitsets, circle_betti_numbers, direct_betti_numbers,
                     dropping_edge_collapse, rescan_edge_collapse,
                     rescan_strong_collapse)
from torushom import cliques, complexes, homology
from torushom.cli import main
from torushom.cliques import (SimplexCapExceeded, chi_from_bitsets, count_cliques,
                              enumerate_cliques)
from torushom.complexes import (ComplexParams, Convention, adjacency_matrix,
                                build_complex)
from torushom.harness import ExperimentConfig, run_experiment
from torushom.homology import (betti_numbers, boundary_rank,
                               collapsed_homology, connected_components, gf2_rank,
                               homology_from_bitsets, homology_summary,
                               strong_collapse)
from torushom.sampling import Binomial, PointConfiguration, Poisson, SeedSpec, sample
from torushom.torus import Metric, TorusSpec

SPEC1 = TorusSpec(d=1, a=1.0)
SPEC2 = TorusSpec(d=2, a=1.0)


def comp(points, spec, eps):
    cfg = PointConfiguration(spec=spec, points=np.asarray(points, dtype=float))
    return build_complex(cfg, ComplexParams(epsilon=eps), homology_mode=True)


def test_gf2_rank_basics():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b1, 0b10, 0b11]) == 2
    assert gf2_rank([0b101, 0b011, 0b110]) == 2  # rows sum to zero mod 2
    assert gf2_rank([1 << 100, 1 << 3, (1 << 100) | (1 << 3)]) == 2


def test_gf2_rank_against_numpy_float_rank():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mat = rng.integers(0, 2, size=(8, 10))
        rows = [int("".join(map(str, r)), 2) for r in mat]
        # GF(2) rank by exhaustive row-space size
        space = {0}
        for r in rows:
            space |= {x ^ r for x in space}
        assert gf2_rank(rows) == int(np.log2(len(space)))


def test_boundary_rank_triangle():
    verts = [(0,), (1,), (2,)]
    edges = [(0, 1), (0, 2), (1, 2)]
    assert boundary_rank(verts, edges) == 2
    assert boundary_rank(edges, [(0, 1, 2)]) == 1
    assert boundary_rank([], edges) == 0
    assert boundary_rank(verts, []) == 0


def test_circle_betti():
    # points around the 1-torus forming a single cycle
    xs = np.arange(10)[:, None] / 10.0
    gc = comp(xs, SPEC1, 0.08)
    assert betti_numbers(gc) == [1, 1]


def test_contractible_cluster():
    pts = np.array([[0.50, 0.50], [0.52, 0.50], [0.50, 0.53], [0.53, 0.52]])
    gc = comp(pts, SPEC2, 0.05)
    betti = betti_numbers(gc)
    assert betti[0] == 1
    assert all(b == 0 for b in betti[1:])


def test_two_components():
    gc = comp([[0.1], [0.12], [0.5], [0.52]], SPEC1, 0.02)
    assert betti_numbers(gc)[0] == 2


def grid_config(m=5):
    xs = np.arange(m) / m
    pts = np.array([[x, y] for x in xs for y in xs])
    return PointConfiguration(spec=SPEC2, points=pts)


def test_torus_grid_betti():
    # 5x5 grid with king-move adjacency covers the 2-torus: betti (1, 2, 1)
    cfg = grid_config(5)
    gc = build_complex(cfg, ComplexParams(epsilon=0.105), homology_mode=True)
    res = homology_summary(gc)
    assert res.betti[:3] == [1, 2, 1]
    assert all(b == 0 for b in res.betti[3:])
    assert res.chi_counts == 0 and res.chi_betti == 0
    assert res.violations == []


def test_torus_grid_betti_collapsed():
    cfg = grid_config(5)
    res = collapsed_homology(cfg, ComplexParams(epsilon=0.105))
    assert res.betti[:3] == [1, 2, 1]
    assert res.violations == []


def test_every_entry_point_reports_a_collapse_that_drops_an_edge(
        monkeypatch, tmp_path, capsys):
    # Deleting an undominated edge of the collapsed core turns the core's
    # cycle into a path: beta_1 falls to 0 while the Euler characteristic of
    # the strong-collapse core stays 0, so the Euler-Poincare check fails.
    # Under the max-norm an experiment on the circle takes its Betti numbers
    # from chi and the gaps, so it runs under the Euclidean metric, whose
    # graphs there are the same but which no window holds.
    monkeypatch.setattr(homology, "_collapse_edges",
                        dropping_edge_collapse(homology._collapse_edges))
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    pc = sample(Poisson(lam=60.0), SPEC1, SeedSpec(4).child("coverage", 60.0, 0))
    expected = ["euler characteristic mismatch: counts give 0, betti give 1"]
    assert homology_summary(build_complex(pc, params, homology_mode=True)
                            ).violations == expected
    assert collapsed_homology(pc, params).violations == expected
    path = tmp_path / "points.json"
    path.write_text(json.dumps(pc.to_json()))
    assert main(["homology", "--in", str(path), "--eps", "0.2",
                 "--convention", "subeps"]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == expected
    euclidean = ComplexParams(epsilon=0.2, metric=Metric.EUCLIDEAN,
                              convention=Convention.SUBCOMPLEX_EPS)
    with pytest.raises(RuntimeError, match=r"^homology check failed at "
                       "replication 0: " + expected[0]):
        run_experiment(ExperimentConfig(
            law=Poisson(lam=60.0), spec=SPEC1, params=euclidean,
            replications=5, master_seed=4, quantities=("beta_1",)))


def test_graph_packed_once_per_configuration(monkeypatch):
    packs = []

    def counting(u, v, n, *rest):
        packs.append(n)
        return cliques.neighbour_bitsets(u, v, n, *rest)

    monkeypatch.setattr(complexes, "neighbour_bitsets", counting)
    cfg = sample(Poisson(lam=60.0), SPEC2, SeedSpec(17))
    params = ComplexParams(epsilon=0.09)
    homology_summary(build_complex(cfg, params, homology_mode=True))
    assert packs == [cfg.n]
    packs.clear()
    collapsed_homology(cfg, params)
    assert packs == [cfg.n]  # the core's bitsets are cut from the graph's


@pytest.mark.parametrize("cfg, eps", [
    (grid_config(5), 0.105),
    (sample(Poisson(lam=60.0), SPEC2, SeedSpec(17)), 0.09),
], ids=["king_torus_grid", "random_d2"])
def test_clearing_lemma(cfg, eps):
    gc = build_complex(cfg, ComplexParams(epsilon=eps))
    by_size, _ = enumerate_cliques(gc.neighbours)
    simplices = {k - 1: s for k, s in by_size.items()}
    top = max(k for k, s in simplices.items() if s)
    for k in range(1, top + 1):
        pivots = set()
        rank_up = boundary_rank(simplices[k], simplices.get(k + 1, []), pivots)
        assert len(pivots) == rank_up
        assert pivots <= set(simplices[k])
        kept = [s for s in simplices[k] if s not in pivots]
        assert (boundary_rank(simplices[k - 1], kept)
                == boundary_rank(simplices[k - 1], simplices[k]))


@st.composite
def small_complexes(draw):
    """Random configurations of up to 12 points on the d-torus, d in {1, 2, 3},
    either uniform or snapped to a lattice (exact ties, cycles that wrap), with
    an adjacency threshold below a/2 under either convention."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    pts = rng.random((n, d))
    if draw(st.booleans()):
        m = draw(st.integers(3, 6))
        pts = np.floor(pts * m) / m
    threshold = draw(st.floats(0.05, 0.45))
    convention = draw(st.sampled_from(list(Convention)))
    eps = threshold / 2 if convention is Convention.RIPS_HALF_OPEN_2EPS else threshold
    cfg = PointConfiguration(spec=TorusSpec(d=d, a=1.0), points=pts)
    return build_complex(cfg, ComplexParams(epsilon=eps, convention=convention))


def trimmed(betti):
    """A Betti list without its trailing zeros."""
    out = list(betti)
    while out and out[-1] == 0:
        out.pop()
    return out


def check_against_direct_reduction(neigh):
    """The entry point's Betti numbers are those of the full reduction, up to
    trailing zeros, and exactly those of the full reduction of the
    collapsed core, to its top dimension (a tree's core is a vertex: [1],
    where the whole tree reduces to [1, 0]); its chi_counts is the
    alternating sum of the clique counts, a chi found without the pivoted
    sum it uses."""
    res = homology_from_bitsets(neigh)
    assert res.violations == []
    assert trimmed(res.betti) == trimmed(direct_betti_numbers(neigh))
    strong = homology._induced(neigh, homology.collapse_from_bitsets(neigh))
    assert res.betti == direct_betti_numbers(homology.collapsed_core(strong))
    counts, _ = count_cliques(neigh)
    assert res.chi_counts == sum((-1) ** (k - 1) * int(c)
                                 for k, c in enumerate(counts) if k)


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_property_betti_match_direct_reduction(gc):
    check_against_direct_reduction(gc.neighbours)


@st.composite
def small_graphs(draw):
    """Random graphs on up to 10 vertices, not only threshold graphs."""
    n = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), 1)
    return upper | upper.T


@settings(max_examples=300, deadline=None)
@given(small_graphs())
@example(np.zeros((0, 0), dtype=bool))
def test_property_betti_match_direct_reduction_any_graph(adj):
    check_against_direct_reduction(bitsets(adj))


@st.composite
def circle_configurations(draw):
    """Up to 40 points on a circle of length a, either uniform or one per
    slot of n equal slots (most often a cycle of gaps that pass), with a
    threshold t < a/3 under either convention."""
    a = draw(st.sampled_from([1.0, 2.5]))
    n = draw(st.integers(0, 40))
    xs = draw(st.lists(st.floats(0.0, a, exclude_max=True), min_size=n, max_size=n))
    if draw(st.booleans()):
        xs = [(i + x / a) * (a / n) for i, x in enumerate(xs)]
    convention = draw(st.sampled_from(list(Convention)))
    # the rips2eps threshold is 2 eps
    top = a / 6 if convention is Convention.RIPS_HALF_OPEN_2EPS else a / 3
    eps = draw(st.floats(0.0, top, exclude_min=True, exclude_max=True))
    cfg = PointConfiguration(spec=TorusSpec(d=1, a=a),
                             points=np.array(xs, dtype=float).reshape(-1, 1))
    return cfg, ComplexParams(epsilon=eps, convention=convention)


@settings(max_examples=300, deadline=None)
@given(circle_configurations())
@example((PointConfiguration(SPEC1, np.arange(10.0).reshape(-1, 1) / 10),
          ComplexParams(epsilon=0.06)))
@example((PointConfiguration(SPEC1, np.array([[0.0], [1 / 3], [2 / 3]])),
          ComplexParams(epsilon=0.3, convention=Convention.SUBCOMPLEX_EPS)))
def test_property_betti_match_the_circle_rule(case):
    cfg, params = case
    assume(all(cfg.points[:, 0] < cfg.spec.a) and 3 * params.threshold() < cfg.spec.a)
    result = collapsed_homology(cfg, params)
    assert result.violations == []
    assert trimmed(result.betti) == circle_betti_numbers(cfg, params)


def test_criterion_10_draws_through_the_collapse():
    # criterion 10's coverage experiment takes its Betti numbers from chi
    # and the circular gaps; its 3,000 draws, through the collapse, give
    # those of the circle rule, draw by draw
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    seed = SeedSpec(1001)
    for lam in (10.0, 30.0, 100.0):
        for r in range(1000):
            pc = sample(Poisson(lam=lam), SPEC1, seed.child("coverage", lam, r))
            result = collapsed_homology(pc, params)
            assert result.violations == [], (lam, r)
            assert trimmed(result.betti) == circle_betti_numbers(pc, params), \
                (lam, r)


def test_connected_components_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 30
        adj = rng.random((n, n)) < 0.05
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        cfg = PointConfiguration(spec=SPEC1, points=rng.random((n, 1)))
        # oracle: BFS
        seen, comps = set(), 0
        for s in range(n):
            if s in seen:
                continue
            comps += 1
            stack = [s]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(np.nonzero(adj[v])[0])
        assert connected_components(adj) == comps


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 0.2), st.integers(0, 10 ** 6))
@example(0, 0.0, 0)
@example(1, 0.0, 0)
def test_property_components_match_networkx(n, p, seed):
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < p, 1)
    adj = adj | adj.T
    expect = nx.number_connected_components(nx.from_numpy_array(adj))
    assert connected_components(adj) == expect


def test_strong_collapse_cone_to_point():
    # star graph plus full clique: cone => collapses to a single vertex
    n = 6
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    core = strong_collapse(adj)
    assert core.size == 1


def test_strong_collapse_preserves_cycle():
    # 6-cycle has no dominated vertices
    n = 6
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    core = strong_collapse(adj)
    assert core.size == 6


def check_collapse(adj):
    """strong_collapse returns the core of full rescans, and no core vertex
    is dominated within the core: N[v] is inside N[u] for no u != v."""
    core = strong_collapse(adj)
    assert core.dtype == np.int64
    assert np.array_equal(core, rescan_strong_collapse(adj))
    closed = adj[np.ix_(core, core)] | np.eye(core.size, dtype=bool)
    # missing[v, u] = |N[v] - N[u]|, exact in float32 below 2^24 vertices
    missing = closed.astype(np.float32) @ (~closed).T.astype(np.float32)
    dominated = (missing == 0) & ~np.eye(core.size, dtype=bool)
    assert not dominated.any()
    return core


def _graph(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def _cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


@st.composite
def collapse_graphs(draw):
    """Random graphs, or threshold graphs of uniform points at d in {1, 2, 3},
    on 0 to 60 vertices."""
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), 1)
        return upper | upper.T
    d = draw(st.integers(1, 3))
    cfg = PointConfiguration(spec=TorusSpec(d=d, a=1.0), points=rng.random((n, d)))
    return adjacency_matrix(cfg, ComplexParams(epsilon=draw(st.floats(0.005, 0.24))))


@settings(max_examples=300, deadline=None)
@given(collapse_graphs())
def test_property_strong_collapse_matches_rescans(adj):
    check_collapse(adj)


def check_edge_collapse(neigh):
    """_collapse_edges deletes the edges of full rescans and reports the
    same flag; returns the collapsed bitsets."""
    fast, rescanned = list(neigh), list(neigh)
    assert homology._collapse_edges(fast) == rescan_edge_collapse(rescanned)
    assert fast == rescanned
    return fast


@settings(max_examples=300, deadline=None)
@given(collapse_graphs())
def test_property_edge_collapse_matches_rescans(adj):
    neigh = bitsets(adj)
    check_edge_collapse(neigh)
    check_edge_collapse(homology._induced(neigh, strong_collapse(adj)))


@pytest.mark.parametrize("adj, core_size", [
    (_graph(0, []), 0),
    (_graph(1, []), 1),
    (_graph(4, [(0, 1), (2, 3)]), 2),                         # two twin pairs
    (_graph(7, _cycle_edges(6) + [(6, 0), (6, 1), (6, 5)]), 6),  # twin of 0
    (_graph(7, _cycle_edges(6) + [(6, v) for v in range(6)]), 1),  # cone
    (_graph(5, [(u, v) for u in range(5) for v in range(u)]), 1),  # K5
    (adjacency_matrix(grid_config(5), ComplexParams(epsilon=0.105)), 25),
], ids=["empty", "point", "twins", "cycle_twin", "cone", "complete",
        "king_torus_grid"])
def test_strong_collapse_explicit_graphs(adj, core_size):
    assert check_collapse(adj).size == core_size


def _cross_polytope(m):
    """Boundary of the m-dimensional cross-polytope, a flag (m-1)-sphere:
    2m vertices, each adjacent to all but its antipode."""
    return _graph(2 * m, [(u, v) for u in range(2 * m) for v in range(u)
                          if u // 2 != v // 2])


@pytest.mark.parametrize("adj, betti", [
    (_graph(4, _cycle_edges(4)), [1, 1]),
    (_graph(5, _cycle_edges(5)), [1, 1]),
    (_cross_polytope(3), [1, 0, 1]),
    (_cross_polytope(4), [1, 0, 0, 1]),
], ids=["4_cycle", "5_cycle", "octahedron", "16_cell"])
def test_collapse_keeps_flag_complexes_without_dominated_faces(adj, betti):
    # no vertex and no edge is dominated, so the core is the whole graph
    neigh = bitsets(adj)
    assert homology.collapsed_core(neigh) == bitsets(adj)
    assert neigh == bitsets(adj)  # the input is left as it is
    assert homology_from_bitsets(neigh).betti == betti == direct_betti_numbers(neigh)


@st.composite
def union_graphs(draw):
    """Disjoint unions, relabelled at random, of up to three parts: isolated
    vertices, trees, cycles (odd and even, the triangle included),
    octahedra, whose core is the whole octahedron and has triangles, and
    random graphs on 3 to 6 vertices; the empty graph has no part."""
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    edges, n = [], 0
    for kind in draw(st.lists(st.sampled_from(
            ["point", "tree", "cycle", "octahedron", "random"]), max_size=3)):
        if kind == "point":
            size, part = 1, []
        elif kind == "tree":
            size = draw(st.integers(2, 6))
            part = [(v, int(rng.integers(v))) for v in range(1, size)]
        elif kind == "cycle":
            size = draw(st.integers(3, 7))
            part = _cycle_edges(size)
        elif kind == "octahedron":
            size = 6
            part = list(zip(*np.nonzero(np.triu(_cross_polytope(3)))))
        else:
            size = draw(st.integers(3, 6))
            p = draw(st.floats(0.2, 1.0))
            part = [(u, v) for u in range(size) for v in range(u) if rng.random() < p]
        edges += [(n + u, n + v) for u, v in part]
        n += size
    label = rng.permutation(n)
    return _graph(n, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=200, deadline=None)
@given(union_graphs())
@example(_graph(0, []))
@example(_graph(3, []))
@example(_cross_polytope(3))
def test_property_betti_equal_the_direct_reduction_untrimmed(adj):
    # rank d_1 is a component count, and a triangle-free core lists no clique
    check_against_direct_reduction(bitsets(adj))


def test_strong_collapse_large_draws_match_rescans():
    rng = np.random.default_rng(2012)
    for d, n, eps in ((2, 1600, 0.025), (3, 2000, 0.05)):
        cfg = PointConfiguration(spec=TorusSpec(d=d, a=1.0), points=rng.random((n, d)))
        check_collapse(adjacency_matrix(cfg, ComplexParams(epsilon=eps)))


def test_dense_draw_collapses_match_rescans():
    # d=2, lambda=1600, eps=0.05 (mean degree about 64): the densest graphs
    # the coverage sweep meets, where the witness chains are longest
    cfg = sample(Poisson(lam=1600.0), SPEC2, SeedSpec(2))
    adj = adjacency_matrix(cfg, ComplexParams(epsilon=0.05))
    assert 60 < adj.sum() / cfg.n < 68
    neigh = bitsets(adj)
    strong = homology._induced(neigh, check_collapse(adj))
    edged = check_edge_collapse(strong)
    counts, _ = count_cliques(edged)
    chi = int(sum((-1) ** (k - 1) * c for k, c in enumerate(counts) if k))
    assert [chi_from_bitsets(g) for g in (neigh, strong, edged)] == [chi] * 3


def test_collapse_matches_direct_homology():
    # every simplex of the full complex listed and reduced, with no collapse
    # and no clearing, against the collapsed core's Betti numbers
    seed = SeedSpec(404)
    params = ComplexParams(epsilon=0.06, convention=Convention.SUBCOMPLEX_EPS)
    for r in range(10):
        cfg = sample(Poisson(lam=40.0), SPEC1, seed.child("c", r))
        by_size, _ = enumerate_cliques(
            bitsets(adjacency_matrix(cfg, params)))
        simplices = [s for s in by_size.values() if s]
        ranks = ([0] + [boundary_rank(simplices[k - 1], simplices[k])
                        for k in range(1, len(simplices))] + [0])
        direct = [len(s) - ranks[k] - ranks[k + 1] for k, s in enumerate(simplices)]
        collapsed = collapsed_homology(cfg, params)
        assert trimmed(direct) == trimmed(collapsed.betti)
        assert collapsed.violations == []


# (lambda, eps, seed, n, Betti numbers) of d=2 draws through
# collapsed_homology, recorded before the incremental strong collapse and
# the coordinate prune of the neighbour sweep.  The lists then ran to the
# strong-collapse core's top dimension (RECORDED_COLLAPSED); they now end at
# the collapsed core's, which drops only trailing zeros.
GOLDEN_COLLAPSED = [
    (100.0, 0.1, 0, 86, [1, 6]),
    (200.0, 0.08, 1, 192, [1, 6]),
    (400.0, 0.06, 2, 399, [1, 4]),
]
RECORDED_COLLAPSED = [[1, 6, 0, 0, 0, 0, 0], [1, 6] + [0] * 9, [1, 4] + [0] * 10]


def test_collapsed_golden_drops_only_trailing_zeros():
    for (*_, betti), recorded in zip(GOLDEN_COLLAPSED, RECORDED_COLLAPSED):
        assert betti[-1] != 0
        assert recorded == betti + [0] * (len(recorded) - len(betti))


@pytest.mark.parametrize("lam, eps, seed, n, betti", GOLDEN_COLLAPSED)
def test_collapsed_homology_matches_golden(lam, eps, seed, n, betti):
    cfg = sample(Poisson(lam=lam), SPEC2, SeedSpec(seed))
    res = collapsed_homology(cfg, ComplexParams(epsilon=eps))
    assert cfg.n == n
    assert res.betti == betti
    assert res.violations == []


# (d, lambda, eps, seed, n, homology_summary(build_complex(...)).to_json())
# of full-complex draws, recorded while homology still reduced every
# simplex of the complex.  The Betti lists then ran to the full complex's
# top dimension (RECORDED_HOMOLOGY_BETTI); they now end at the collapsed
# core's, which drops only trailing zeros.
GOLDEN_HOMOLOGY = [
    (2, 1600.0, 0.025, 1, 1577, {"betti": [1, 81], "chi_counts": -80,
                                 "chi_betti": -80, "violations": []}),
    (1, 80.0, 0.035, 1, 75, {"betti": [1, 1], "chi_counts": 0,
                             "chi_betti": 0, "violations": []}),
    (3, 400.0, 0.08, 6, 411, {"betti": [1, 102, 12], "chi_counts": -89,
                              "chi_betti": -89, "violations": []}),
]
RECORDED_HOMOLOGY_BETTI = [[1, 81] + [0] * 12, [1, 1] + [0] * 9,
                           [1, 102, 12] + [0] * 5]


def test_homology_golden_drops_only_trailing_zeros():
    for (*_, summary), recorded in zip(GOLDEN_HOMOLOGY, RECORDED_HOMOLOGY_BETTI):
        betti = summary["betti"]
        assert betti[-1] != 0
        assert recorded == betti + [0] * (len(recorded) - len(betti))


@pytest.mark.parametrize("d, lam, eps, seed, n, summary", GOLDEN_HOMOLOGY)
def test_homology_summary_matches_golden(d, lam, eps, seed, n, summary):
    cfg = sample(Poisson(lam=lam), TorusSpec(d=d, a=1.0), SeedSpec(seed))
    res = homology_summary(build_complex(cfg, ComplexParams(epsilon=eps),
                                         homology_mode=True))
    assert cfg.n == n
    assert res.to_json() == summary


def test_homology_lists_and_reduces_only_the_core(monkeypatch):
    listed, rows = [], []

    def listing(neigh, *args, **kwargs):
        listed.append(list(neigh))
        return enumerate_cliques(neigh, *args, **kwargs)

    def reducing(low, high, pivots=None):
        rows.append(len(high))
        return boundary_rank(low, high, pivots)

    monkeypatch.setattr(homology, "enumerate_cliques", listing)
    monkeypatch.setattr(homology, "boundary_rank", reducing)
    cfg = sample(Poisson(lam=1600.0), SPEC2, SeedSpec(1))
    gc = build_complex(cfg, ComplexParams(epsilon=0.025), homology_mode=True)
    assert listed == []
    # the full complex has about 437k simplices, and its core no triangle:
    # nothing is listed and nothing reduced
    assert homology_summary(gc).betti == [1, 81]
    assert listed == [] and rows == []
    # at eps = 0.05 the core is a triangulated torus, listed once; its only
    # reduction is that of its triangles' boundaries
    gc = build_complex(cfg, ComplexParams(epsilon=0.05), homology_mode=True)
    result = homology_summary(gc)
    assert result.betti == [1, 2, 1] and result.violations == []
    assert len(listed) == 1 and len(listed[0]) < cfg.n
    counts, _ = count_cliques(listed[0])
    assert len(counts) == 4 and rows == [counts[3]]


def test_cap_bounds_the_listing_of_the_core(monkeypatch):
    # the king-move torus grid collapses to a core of 25 vertices, 75 edges
    # and 50 triangles
    neigh = bitsets(adjacency_matrix(grid_config(5),
                                               ComplexParams(epsilon=0.105)))
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 150)
    assert homology_from_bitsets(neigh).betti[:3] == [1, 2, 1]
    for cap in (149, 24, 0):
        monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", cap)
        with pytest.raises(SimplexCapExceeded,
                           match=f"^more than DEFAULT_SIMPLEX_CAP = {cap} cliques$"):
            homology_from_bitsets(neigh)


def test_homology_walks_no_clique_count(monkeypatch):
    walks = []
    walk = cliques.counts_from_bitsets

    def counting(*args):
        walks.append(len(args[0]))
        return walk(*args)

    monkeypatch.setattr(cliques, "counts_from_bitsets", counting)
    cfg = sample(Poisson(lam=1600.0), SPEC2, SeedSpec(1))
    params = ComplexParams(epsilon=0.025)
    summary = homology_summary(build_complex(cfg, params, homology_mode=True))
    assert summary == collapsed_homology(cfg, params)
    assert summary.betti == [1, 81] and summary.violations == []
    assert walks == []


def test_betti_requires_stored_simplices():
    from torushom.complexes import simplex_counts
    cfg = sample(Binomial(n=10), SPEC1, SeedSpec(8))
    gc = simplex_counts(cfg, ComplexParams(epsilon=0.05))
    with pytest.raises(ValueError):
        betti_numbers(gc)


def test_empty_input():
    cfg = PointConfiguration(spec=SPEC1, points=np.zeros((0, 1)))
    res = collapsed_homology(cfg, ComplexParams(epsilon=0.05))
    assert res.betti == [] and res.chi_counts == 0
