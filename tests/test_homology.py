import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import direct_betti_numbers
from torushom.complexes import ComplexParams, Convention, build_complex
from torushom.homology import (CoreTooLarge, betti_numbers, boundary_rank,
                               collapsed_homology, connected_components,
                               gf2_rank, homology_summary, strong_collapse)
from torushom.sampling import Binomial, PointConfiguration, Poisson, SeedSpec, sample
from torushom.torus import TorusSpec

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


@pytest.mark.parametrize("cfg, eps", [
    (grid_config(5), 0.105),
    (sample(Poisson(lam=60.0), SPEC2, SeedSpec(17)), 0.09),
], ids=["king_torus_grid", "random_d2"])
def test_clearing_lemma(cfg, eps):
    gc = build_complex(cfg, ComplexParams(epsilon=eps))
    simplices = gc.simplices
    for k in range(1, gc.max_dim_built + 1):
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


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_property_betti_match_direct_reduction(gc):
    expect = direct_betti_numbers(gc)
    assert betti_numbers(gc) == expect
    for m in range(gc.max_dim_built + 2):
        assert betti_numbers(gc, max_dim=m) == expect[:m + 1]


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


def test_collapse_matches_direct_homology():
    seed = SeedSpec(404)
    params = ComplexParams(epsilon=0.06, convention=Convention.SUBCOMPLEX_EPS)
    for r in range(10):
        cfg = sample(Poisson(lam=40.0), SPEC1, seed.child("c", r))
        direct = homology_summary(
            build_complex(cfg, params, homology_mode=True))
        collapsed = collapsed_homology(cfg, params)
        nz = max(len(direct.betti), len(collapsed.betti))
        pad = lambda b: b + [0] * (nz - len(b))
        assert pad(direct.betti) == pad(collapsed.betti)
        assert direct.violations == [] and collapsed.violations == []


def test_core_limit_enforced():
    cfg = grid_config(5)
    with pytest.raises(CoreTooLarge):
        collapsed_homology(cfg, ComplexParams(epsilon=0.105), core_limit=3)


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
