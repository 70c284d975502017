import math
import re
import tracemalloc
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import bitsets, boundary_matrix, chi_from_counts, clique_simplices
from torushom import cliques, complexes
from torushom.cliques import (SimplexCapExceeded, chi_from_bitsets,
                              count_cliques, counts_from_bitsets,
                              enumerate_cliques, neighbour_bitsets)
from torushom.complexes import (ComplexParams, Convention, adjacency_matrix,
                                build_complex, circle_covered, phi_k,
                                simplex_counts, threshold_edges, window_chi,
                                windowed)
from torushom.harness import _betti
from torushom.homology import collapsed_homology, homology_from_bitsets
from torushom.sampling import Binomial, PointConfiguration, SeedSpec, sample
from torushom.torus import Metric, TorusSpec, pairwise_distances

SPEC1 = TorusSpec(d=1, a=1.0)
SPEC2 = TorusSpec(d=2, a=1.0)


def config_1d(*xs):
    return PointConfiguration(spec=SPEC1, points=np.array(xs).reshape(-1, 1))


def test_params_validation():
    with pytest.raises(ValueError):
        ComplexParams(epsilon=0.0)
    with pytest.raises(ValueError):
        ComplexParams(epsilon=float("inf"))


def test_threshold_conventions():
    rips = ComplexParams(epsilon=0.1)
    sub = ComplexParams(epsilon=0.1, convention=Convention.SUBCOMPLEX_EPS)
    assert rips.threshold() == pytest.approx(0.2)
    assert sub.threshold() == pytest.approx(0.1)
    assert rips.ball_radius == pytest.approx(0.1)
    assert sub.ball_radius == pytest.approx(0.05)
    # rips is half-open at 2 eps; subcomplex is closed at eps
    assert not rips.adjacent(0.2)
    assert rips.adjacent(0.2 - 1e-12)
    assert sub.adjacent(0.1)
    assert not sub.adjacent(0.1 + 1e-12)


def test_adjacency_matrix_boundary_cases():
    cfg = config_1d(0.0, 0.2, 0.5)
    adj = adjacency_matrix(cfg, ComplexParams(epsilon=0.1))
    # pairs: d(0,0.2)=0.2 (not < 0.2), d(0.2,0.5)=0.3, d(0.5,0)=0.5
    assert not adj.any()
    adj2 = adjacency_matrix(
        cfg, ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS))
    assert adj2[0, 1] and adj2[1, 0]
    assert not adj2[1, 2] and not adj2[0, 2]
    assert not adj2.diagonal().any()


def test_wraparound_adjacency():
    cfg = config_1d(0.02, 0.98)
    adj = adjacency_matrix(cfg, ComplexParams(epsilon=0.05))
    assert adj[0, 1]


def test_counts_path_on_path_graph():
    # 0.0 - 0.15 - 0.30: a path, two edges, no triangle
    cfg = config_1d(0.0, 0.15, 0.30)
    gc = simplex_counts(cfg, ComplexParams(epsilon=0.1))
    assert gc.counts.tolist() == [3, 2]
    assert gc.N(1) == 3 and gc.N(2) == 2 and gc.N(3) == 0
    assert chi_from_counts(gc.counts) == 1
    assert not gc.truncated


def test_simplex_counts_raise_past_the_cap(monkeypatch):
    # the path 0.0 - 0.15 - 0.30 has 3 vertices and 2 edges: 5 simplices
    cfg = config_1d(0.0, 0.15, 0.30)
    params = ComplexParams(epsilon=0.1)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 5)
    assert simplex_counts(cfg, params).counts.tolist() == [3, 2]
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 4)
    with pytest.raises(SimplexCapExceeded, match="DEFAULT_SIMPLEX_CAP = 4"):
        simplex_counts(cfg, params)


def test_build_matches_counts():
    cfg = sample(Binomial(n=25), SPEC2, SeedSpec(17))
    params = ComplexParams(epsilon=0.1)
    counted = simplex_counts(cfg, params)
    built = build_complex(cfg, params)
    assert built.counts.tolist() == counted.counts[:2].tolist()
    # the complex stores no simplices: list them from the bitsets it keeps
    by_size, complete = enumerate_cliques(built.neighbours)
    assert complete
    for dim in range(len(counted.counts) + 1):
        simplices = clique_simplices(built.neighbours, dim)
        assert by_size.get(dim + 1, []) == simplices
        assert len(simplices) == counted.N(dim + 1)


@pytest.mark.parametrize("xs", [(), (0.1,), (0.1, 0.5), (0.1, 0.15, 0.5),
                                (0.0, 0.05, 0.10)],
                         ids=["empty", "point", "no_edge", "edge", "triangle"])
def test_build_counts_only_vertices_and_edges(xs):
    cfg = config_1d(*xs)
    params = ComplexParams(epsilon=0.1)
    built = build_complex(cfg, params, homology_mode=True)
    edges_only = simplex_counts(cfg, params, max_dim=1)
    assert built.counts.dtype == edges_only.counts.dtype
    assert built.counts.tolist() == edges_only.counts.tolist()
    assert built.truncated is False


def test_package_namespace_holds_no_benchmark_only_names():
    import torushom
    assert all(hasattr(torushom, name) for name in torushom.__all__)
    for name in ("build_complex", "homology_summary", "betti_numbers"):
        with pytest.raises(AttributeError):
            getattr(torushom, name)


def test_homology_mode_radius_guard():
    cfg = config_1d(0.1, 0.2)
    big = ComplexParams(epsilon=0.25)  # ball radius 0.25 = a/4
    with pytest.raises(ValueError):
        build_complex(cfg, big, homology_mode=True)
    with pytest.warns(UserWarning):
        simplex_counts(cfg, big)
    # subcomplex convention halves the radius, so eps=0.25 is fine
    ok = ComplexParams(epsilon=0.25, convention=Convention.SUBCOMPLEX_EPS)
    build_complex(cfg, ok, homology_mode=True)


def test_empty_configuration():
    cfg = PointConfiguration(spec=SPEC1, points=np.zeros((0, 1)))
    gc = simplex_counts(cfg, ComplexParams(epsilon=0.1))
    assert gc.counts.size == 0
    assert chi_from_counts(gc.counts) == 0


@pytest.mark.parametrize("max_dim", [0, 1, 2])
@pytest.mark.parametrize("xs", [(), (0.5,), (0.0, 0.05, 0.10, 0.5)],
                         ids=["empty", "point", "triangle-and-point"])
def test_counts_to_triangles_are_trimmed_and_capped_as_the_walk(
        monkeypatch, xs, max_dim):
    # up to max_dim = 2 no clique is walked; the counts, their trimming and
    # the cap's raise and message are still those of the walk
    cfg = config_1d(*xs)
    params = ComplexParams(epsilon=0.1)
    neigh = build_complex(cfg, params).neighbours
    for cap in range(9):
        monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", cap)
        try:
            walked = count_cliques(neigh, max_dim + 1)[0][1:]
        except SimplexCapExceeded as exc:
            with pytest.raises(SimplexCapExceeded) as raised:
                simplex_counts(cfg, params, max_dim)
            assert str(raised.value) == str(exc)
            continue
        counts = simplex_counts(cfg, params, max_dim).counts
        assert counts.dtype == walked.dtype
        assert counts.tolist() == walked.tolist()


def test_max_dim_truncates_dimensions():
    cfg = sample(Binomial(n=30), SPEC1, SeedSpec(23))
    params = ComplexParams(epsilon=0.1)
    full = simplex_counts(cfg, params)
    only_edges = simplex_counts(cfg, params, max_dim=1)
    assert only_edges.counts.tolist() == full.counts[:2].tolist()
    assert not only_edges.truncated


def test_negative_max_dim_rejected():
    cfg = sample(Binomial(n=30), SPEC1, SeedSpec(23))
    for max_dim in (-1, -5):
        with pytest.raises(ValueError, match="max_dim"):
            simplex_counts(cfg, ComplexParams(epsilon=0.1), max_dim=max_dim)


def test_phi_k_indicator():
    params = ComplexParams(epsilon=0.1)
    assert phi_k(np.array([[0.0], [0.15]]), params, SPEC1) == 1
    assert phi_k(np.array([[0.0], [0.25]]), params, SPEC1) == 0
    assert phi_k(np.array([[0.0], [0.15], [0.30]]), params, SPEC1) == 0
    assert phi_k(np.array([[0.0], [0.1], [0.19]]), params, SPEC1) == 1


def test_euclidean_metric_changes_adjacency():
    # diagonal separation 0.15 in each coordinate: max-norm 0.15,
    # euclidean 0.15*sqrt(2) = 0.212
    cfg = PointConfiguration(
        spec=SPEC2, points=np.array([[0.1, 0.1], [0.25, 0.25]]))
    assert adjacency_matrix(cfg, ComplexParams(epsilon=0.1))[0, 1]
    assert not adjacency_matrix(
        cfg, ComplexParams(epsilon=0.1, metric=Metric.EUCLIDEAN))[0, 1]


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("convention", list(Convention))
def test_complex_keeps_the_bitsets_of_its_graph(metric, convention):
    cfg = sample(Binomial(n=40), SPEC2, SeedSpec(31))
    params = ComplexParams(epsilon=0.1, metric=metric, convention=convention)
    neigh = bitsets(adjacency_matrix(cfg, params))
    assert any(neigh)
    assert build_complex(cfg, params).neighbours == neigh
    assert simplex_counts(cfg, params).neighbours is None


def test_boundary_matrix_triangle():
    # three mutually close points: one triangle
    cfg = config_1d(0.0, 0.05, 0.10)
    params = ComplexParams(epsilon=0.1)
    assert simplex_counts(cfg, params).counts.tolist() == [3, 3, 1]
    neigh = build_complex(cfg, params).neighbours
    d1 = boundary_matrix(neigh, 1)
    d2 = boundary_matrix(neigh, 2)
    assert d1.shape == (3, 3) and d2.shape == (3, 1)
    assert d1.sum(axis=0).tolist() == [2, 2, 2]
    assert d2.sum() == 3
    # d1 @ d2 = 0 over GF(2)
    assert not ((d1 @ d2) % 2).any()


def test_boundary_composition_random():
    cfg = sample(Binomial(n=20), SPEC2, SeedSpec(31))
    params = ComplexParams(epsilon=0.12)
    neigh = build_complex(cfg, params).neighbours
    for dim in range(2, len(simplex_counts(cfg, params).counts)):
        lo = boundary_matrix(neigh, dim - 1)
        hi = boundary_matrix(neigh, dim)
        assert not ((lo.astype(int) @ hi.astype(int)) % 2).any()


def _lattice_coordinates(draw, max_d=3):
    """A torus (d, a), d <= ``max_d``, a lattice of spacing h = a/m on it,
    and coordinates on the lattice, so that pairwise distances tie exactly
    with epsilon or 2*epsilon; or mixed with arbitrary coordinates and the
    domain ends 0 and nextafter(a, 0)."""
    d = draw(st.integers(1, max_d))
    a = draw(st.sampled_from([1.0, 0.7, 2.5]))
    m = draw(st.integers(2, 12))
    h = a / m
    lattice = st.integers(0, m - 1).map(lambda k: k * h)
    coord = lattice if draw(st.booleans()) else st.one_of(
        lattice, st.floats(0.0, a, exclude_max=True),
        st.sampled_from([0.0, float(np.nextafter(a, 0.0))]))
    return d, a, m, coord


def _lattice_points(draw, d, coord):
    n = draw(st.one_of(st.integers(0, 2), st.integers(3, 30)))
    rows = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
    return np.array(rows, dtype=float).reshape(n, d)


def _lattice_epsilon(draw, a, m):
    """A lattice multiple or half multiple, or anything from a/4 to a."""
    h = a / m
    return draw(st.one_of(st.integers(1, m // 2).map(lambda j: j * h),
                          st.integers(1, m // 2).map(lambda j: j * h / 2),
                          st.floats(a / 4, a)))


@st.composite
def lattice_configurations(draw):
    """One configuration on a lattice, and epsilon (see the helpers)."""
    d, a, m, coord = _lattice_coordinates(draw)
    cfg = PointConfiguration(spec=TorusSpec(d=d, a=a),
                             points=_lattice_points(draw, d, coord))
    return cfg, _lattice_epsilon(draw, a, m)


@st.composite
def lattice_blocks(draw):
    """0 to 6 configurations of 0 to 30 points on one torus and lattice,
    and one epsilon, as in a block of replications."""
    d, a, m, coord = _lattice_coordinates(draw)
    block = [_lattice_points(draw, d, coord) for _ in range(draw(st.integers(0, 6)))]
    return TorusSpec(d=d, a=a), block, _lattice_epsilon(draw, a, m)


# At threshold eps (SUBCOMPLEX_EPS), fl(x_j - x_i) rounds down to eps while
# fl(x_i + eps) rounds below x_j: the pair is adjacent, but only a widened
# sweep window reaches it.
_ULP = float(np.spacing(0.1))
_ROUNDING_EDGE = (config_1d(_ULP / 2, 0.1 + _ULP), 0.1)


# Cells (threshold_edges puts the points in cells of the coordinates after
# the first where the first coordinate's window is wide): m = 3 cells of
# side a/3 at t just below a/3, and m = 4 on a = 0.9 at t = 0.2, where
# nextafter(a, 0) * m / a rounds to m and its cell index is clamped to m - 1.
# Each has points on cell boundaries y = k a / m, one just below a, pairs
# across y = 0/a, and a pair across x = 0/a in neighbouring cells whose
# point in the lower cell has x < t (found only by the window shifted by +a).
_BELOW_THIRD = float(1 / 3 - 1e-12)
_THIRDS_2D = (PointConfiguration(spec=SPEC2, points=np.array([
    [0.5, 0.0], [0.5, 1 / 3], [0.5, 2 / 3], [0.5, float(np.nextafter(1.0, 0.0))],
    [0.6, 0.1], [0.6, 0.95], [0.05, 0.2], [0.95, 0.4], [0.2, 0.6], [0.3, 0.7]])),
    _BELOW_THIRD)
_CLAMPED = (PointConfiguration(spec=TorusSpec(d=2, a=0.9), points=np.array([
    [0.1, float(np.nextafter(0.9, 0.0))], [0.15, 0.05], [0.3, 0.7],
    [0.5, 0.225], [0.6, 0.45], [0.8, 0.675], [0.05, 0.1], [0.85, 0.3]])), 0.2)
# d = 3, m = 3 at t = 0.3: (0.5, 0.3, 0.35) and (0.5, 0.35, 0.3) lie in the
# cells (0, 1) and (1, 0) of the last two coordinates, a diagonal step apart
_DIAGONAL = (PointConfiguration(spec=TorusSpec(d=3, a=1.0), points=np.array([
    [0.5, 0.3, 0.35], [0.5, 0.35, 0.3], [0.1, 0.9, 0.05], [0.15, 0.05, 0.9],
    [0.05, 0.2, 0.5], [0.95, 0.4, 0.7], [0.3, 0.6, 0.3], [0.7, 0.1, 0.8],
    [0.9, 0.8, 0.6], [0.4, 0.65, 0.62]])), 0.3)


@settings(max_examples=300, deadline=None)
@given(lattice_configurations(), st.sampled_from(list(Metric)),
       st.sampled_from(list(Convention)),
       st.sampled_from([complexes._CELL_WINDOW, 0]))
@example(_ROUNDING_EDGE, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS,
         complexes._CELL_WINDOW)
@example(_THIRDS_2D, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, 0)
@example((_THIRDS_2D[0], _BELOW_THIRD / 2), Metric.EUCLIDEAN,
         Convention.RIPS_HALF_OPEN_2EPS, 0)
@example(_CLAMPED, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, 0)
@example(_DIAGONAL, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, 0)
def test_adjacency_matches_dense_distances(cfg_eps, metric, convention,
                                           cell_window):
    # at a cell window of 0 every sweep that can use cells does
    cfg, epsilon = cfg_eps
    params = ComplexParams(epsilon=epsilon, metric=metric, convention=convention)
    dists = pairwise_distances(cfg.points, cfg.spec, metric)
    if convention is Convention.RIPS_HALF_OPEN_2EPS:
        expected = dists < params.threshold()
    else:
        expected = dists <= params.threshold()
    np.fill_diagonal(expected, False)
    with mock.patch.object(complexes, "_CELL_WINDOW", cell_window):
        adj = adjacency_matrix(cfg, params)
    assert adj.dtype == bool and adj.shape == (cfg.n, cfg.n)
    assert np.array_equal(adj, expected)


# one configuration of 600 uniform points, whose window (60 points at
# t = 0.1) uses cells unpatched, among three of 3 points and an empty one
_DENSE_AND_SPARSE = (SPEC2, [np.random.default_rng(8).random((600, 2)),
                             np.array([[0.05, 0.2], [0.95, 0.4], [0.5, 0.99]]),
                             np.zeros((0, 2)),
                             np.array([[0.1, 0.0], [0.1, 0.95], [0.5, 0.5]]),
                             np.array([[0.3, 0.3], [0.3, 0.3], [0.35, 0.38]])],
                     0.1)


@settings(max_examples=150, deadline=None)
@given(lattice_blocks(), st.sampled_from(list(Metric)),
       st.sampled_from(list(Convention)),
       st.sampled_from([complexes._CELL_WINDOW, 0]))
@example(_DENSE_AND_SPARSE, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS,
         complexes._CELL_WINDOW)
@example(_DENSE_AND_SPARSE, Metric.EUCLIDEAN, Convention.RIPS_HALF_OPEN_2EPS, 0)
@example((_DIAGONAL[0].spec, [_DIAGONAL[0].points] * 2, _DIAGONAL[1]),
         Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, 0)
def test_segmented_sweep_matches_dense_distances(block, metric, convention,
                                                 cell_window):
    spec, configs, epsilon = block
    params = ComplexParams(epsilon=epsilon, metric=metric, convention=convention)
    sizes = [len(pts) for pts in configs]
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    points = np.concatenate(configs) if configs else np.zeros((0, spec.d))
    with mock.patch.object(complexes, "_CELL_WINDOW", cell_window):
        u, v = threshold_edges(points, spec.a, params, starts)
    seg = np.repeat(np.arange(len(configs)), sizes)
    assert np.array_equal(seg[u], seg[v])
    assert np.all(np.diff(seg[u]) >= 0)  # grouped by configuration, in order
    for s, pts in enumerate(configs):
        dists = pairwise_distances(pts, spec, metric)
        if convention is Convention.RIPS_HALF_OPEN_2EPS:
            expected = dists < params.threshold()
        else:
            expected = dists <= params.threshold()
        np.fill_diagonal(expected, False)
        mine = seg[u] == s
        lu, lv = u[mine] - starts[s], v[mine] - starts[s]
        pairs = set(zip(np.minimum(lu, lv).tolist(), np.maximum(lu, lv).tolist()))
        assert len(pairs) == lu.size  # every edge once
        got = np.zeros((len(pts), len(pts)), dtype=bool)
        got[lu, lv] = True
        got[lv, lu] = True
        assert np.array_equal(got, expected)


def _assert_dense_edges(u, v, spec, configs, starts, params):
    """(u, v) lists, configuration by configuration and each edge once, the
    pairs of the thresholded ``pairwise_distances`` of each configuration
    (the checks of ``test_segmented_sweep_matches_dense_distances``)."""
    sizes = [len(pts) for pts in configs]
    seg = np.repeat(np.arange(len(configs)), sizes)
    assert np.array_equal(seg[u], seg[v])
    assert np.all(np.diff(seg[u]) >= 0)  # grouped by configuration, in order
    for s, pts in enumerate(configs):
        dists = pairwise_distances(pts, spec, params.metric)
        if params.convention is Convention.RIPS_HALF_OPEN_2EPS:
            expected = dists < params.threshold()
        else:
            expected = dists <= params.threshold()
        np.fill_diagonal(expected, False)
        mine = seg[u] == s
        lu, lv = u[mine] - starts[s], v[mine] - starts[s]
        pairs = set(zip(np.minimum(lu, lv).tolist(), np.maximum(lu, lv).tolist()))
        assert len(pairs) == lu.size  # every edge once
        got = np.zeros((len(pts), len(pts)), dtype=bool)
        got[lu, lv] = True
        got[lv, lu] = True
        assert np.array_equal(got, expected)


def _block_arrays(spec, configs):
    sizes = [len(pts) for pts in configs]
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    points = np.concatenate(configs) if configs else np.zeros((0, spec.d))
    return points, starts


# one configuration of 12 lattice points whose sweep reaches half way round
# (a threshold of at least 0.5 on a = 1), and two of them in one block
_HALF_WAY = (TorusSpec(d=2, a=1.0), [np.arange(24.0).reshape(12, 2) % 7 / 7], 0.5)
_HALF_WAY_PAIR = (_HALF_WAY[0], _HALF_WAY[1] * 2, 0.5)


@settings(max_examples=150, deadline=None)
@given(lattice_blocks(), st.sampled_from(list(Metric)),
       st.sampled_from(list(Convention)), st.sampled_from([1, 7, 64]),
       st.sampled_from([complexes._CELL_WINDOW, 0]))
@example(_HALF_WAY, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, 1,
         complexes._CELL_WINDOW)
@example(_HALF_WAY_PAIR, Metric.EUCLIDEAN, Convention.RIPS_HALF_OPEN_2EPS, 7,
         complexes._CELL_WINDOW)
@example(_DENSE_AND_SPARSE, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, 7, 0)
def test_sweep_in_runs_matches_one_run(block, metric, convention, budget,
                                       cell_window):
    # budgets of 1, 7 and 64 candidates split the sweep inside and across
    # configurations (and cells); a configuration alone is passed without
    # ``starts``
    spec, configs, epsilon = block
    params = ComplexParams(epsilon=epsilon, metric=metric, convention=convention)
    points, starts = _block_arrays(spec, configs)
    given_starts = starts if len(configs) != 1 else None
    with mock.patch.object(complexes, "_CELL_WINDOW", cell_window):
        u, v = threshold_edges(points, spec.a, params, given_starts)
        with mock.patch.object(complexes, "_RUN_PAIRS", budget):
            ru, rv = threshold_edges(points, spec.a, params, given_starts)
    assert np.array_equal(ru, u) and np.array_equal(rv, v)
    assert ru.dtype == u.dtype and rv.dtype == v.dtype
    _assert_dense_edges(ru, rv, spec, configs, starts, params)


@st.composite
def window_blocks(draw, max_d=2):
    """A block of configurations at d <= ``max_d`` (at most 2), on a lattice
    (``lattice_blocks``) or uniform, with a convention and an epsilon whose
    threshold t has 3t < a: a lattice multiple or half multiple below a/3,
    or anything up to just below it."""
    d, a, m, coord = _lattice_coordinates(draw, max_d=max_d)
    if draw(st.booleans()):
        block = [_lattice_points(draw, d, coord)
                 for _ in range(draw(st.integers(0, 6)))]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        block = [rng.random((n, d)) * a
                 for n in draw(st.lists(st.integers(0, 80), max_size=6))]
    convention = draw(st.sampled_from(list(Convention)))
    h = a / m
    t = draw(st.one_of(st.integers(1, m).map(lambda j: j * h),
                       st.integers(1, 2 * m).map(lambda j: j * h / 2),
                       st.floats(a / 1000, a / 3)))
    assume(3.0 * t < a)
    epsilon = t / 2 if convention is Convention.RIPS_HALF_OPEN_2EPS else t
    return (TorusSpec(d=d, a=a), block,
            ComplexParams(epsilon=epsilon, convention=convention))


# empty and one-point configurations, a tie in both coordinates, and a
# threshold just below a/3
_SMALL_BLOCK = (SPEC2, [np.zeros((0, 2)), np.array([[0.5, 0.5]]),
                        np.array([[0.1, 0.9], [0.1, 0.9], [0.95, 0.05]])],
                ComplexParams(epsilon=float(np.nextafter(1 / 3, 0)),
                              convention=Convention.SUBCOMPLEX_EPS))


@settings(max_examples=300, deadline=None)
@given(window_blocks(), st.sampled_from([1, 7, 64]))
@example(_SMALL_BLOCK, 1)
def test_window_chi_equals_the_pivoted_chi_of_each_configuration(block, budget):
    spec, configs, params = block
    assert windowed(spec.d, spec.a, params)
    points, starts = _block_arrays(spec, configs)
    u, v = threshold_edges(points, spec.a, params, starts)
    chi = window_chi(points, spec.a, params, starts, u, v)
    # nor on how the edges are listed, nor on how the join is cut into runs
    rng = np.random.default_rng(u.size)
    swap, order = rng.random(u.size) < 0.5, rng.permutation(u.size)
    su, sv = np.where(swap, v, u)[order], np.where(swap, u, v)[order]
    with mock.patch.object(complexes, "_RUN_PAIRS", budget):
        relisted = window_chi(points, spec.a, params, starts, su, sv)
    assert np.array_equal(relisted, chi)
    expected = []
    for pts in configs:
        cu, cv = threshold_edges(pts, spec.a, params)
        expected.append(chi_from_bitsets(neighbour_bitsets(cu, cv, len(pts))))
    assert chi.tolist() == expected


def _circle(*configs):
    return [np.array(c, dtype=float).reshape(-1, 1) for c in configs]


SUB = Convention.SUBCOMPLEX_EPS
# (block, params, the Betti numbers of each configuration): n = 0 to 3; two
# points adjacent only the short way round (gaps 0.848 and 0.152 at
# t = 0.2); gaps exactly t = 1/4 on dyadic coordinates, which fail under
# rips2eps and pass under subeps; and a block whose first configurations
# are empty, whose last consecutive gap alone fails
_CIRCLE_CASES = {
    "n<=3": (_circle([], [0.5], [0.1, 0.3], [0.0, 0.3, 0.6]),
             ComplexParams(epsilon=0.3, convention=SUB), [[], [1], [1], [1]]),
    "short-way-round": (_circle([0.0, 0.848]), ComplexParams(epsilon=0.1),
                        [[1]]),
    "tie-rips2eps": (_circle([0.0, 0.25, 0.5, 0.75]),
                     ComplexParams(epsilon=0.125), [[4]]),
    "tie-subeps": (_circle([0.0, 0.25, 0.5, 0.75]),
                   ComplexParams(epsilon=0.25, convention=SUB), [[1, 1]]),
    "empty-first": (_circle([], [], [0.0, 0.15, 0.3, 0.45, 0.6, 0.9]),
                    ComplexParams(epsilon=0.2, convention=SUB), [[], [], [1]]),
}


def _rule_and_collapse(spec, configs, params, block_reps=1024):
    """The Betti numbers of each configuration of a block on the circle,
    from chi and the gaps (``harness._betti``), and from the collapse
    (``homology_from_bitsets``) of the same graph, checked against the
    same chi."""
    with mock.patch.object(complexes, "_BLOCK_REPS", block_reps):
        out = list(complexes.graphs(iter(configs), spec, params, True, True,
                                    True))
    rule, collapse = [], []
    for graph in out:
        rule.append(_betti(graph, "here"))
        result = homology_from_bitsets(graph.neigh, graph.chi)
        assert result.violations == []
        collapse.append(result.betti)
    return rule, collapse


@pytest.mark.parametrize("case", sorted(_CIRCLE_CASES))
def test_circle_betti_numbers_of_small_cases(case):
    configs, params, betti = _CIRCLE_CASES[case]
    assert _rule_and_collapse(SPEC1, configs, params) == (betti, betti)


@settings(max_examples=300, deadline=None)
@given(window_blocks(max_d=1), st.sampled_from([1, 2, 1024]))
@example((SPEC1, *_CIRCLE_CASES["empty-first"][:2]), 1024)
@example((SPEC1, *_CIRCLE_CASES["tie-rips2eps"][:2]), 1024)
def test_circle_betti_numbers_equal_the_collapse(block, block_reps):
    # both conventions, thresholds up to just below a/3, exact ties on a
    # lattice, and blocks of one configuration or many
    spec, configs, params = block
    rule, collapse = _rule_and_collapse(spec, configs, params, block_reps)
    assert rule == collapse


@pytest.mark.parametrize("d, params", [
    (2, ComplexParams(epsilon=0.05)),
    (1, ComplexParams(epsilon=0.05, metric=Metric.EUCLIDEAN)),
    (1, ComplexParams(epsilon=1 / 6)),
    (1, ComplexParams(epsilon=1 / 3, convention=Convention.SUBCOMPLEX_EPS)),
])
def test_circle_covered_refuses_all_but_the_windowed_circle(d, params):
    assert not (d == 1 and windowed(d, 1.0, params))
    with pytest.raises(ValueError, match="d = 1, the max-norm and 3t < a"):
        circle_covered(np.zeros((2, d)), 1.0, params, np.array([0, 2]))


@pytest.mark.parametrize("d, params", [
    (3, ComplexParams(epsilon=0.05)),
    (2, ComplexParams(epsilon=0.05, metric=Metric.EUCLIDEAN)),
    (1, ComplexParams(epsilon=1 / 6)),
    (1, ComplexParams(epsilon=1 / 3, convention=Convention.SUBCOMPLEX_EPS)),
])
def test_window_chi_refuses_what_no_window_holds(d, params):
    # at t = a/3 three points a third apart are pairwise adjacent, but fit
    # in no window
    assert not windowed(d, 1.0, params)
    with pytest.raises(ValueError, match="3t < a"):
        window_chi(np.zeros((2, d)), 1.0, params, np.array([0, 2]),
                   np.array([0]), np.array([1]))


def test_window_chi_memory_follows_the_edges():
    # four configurations of 300 points at degree about 108: the join pairs
    # the opposite edges with about 1.7e6 first-coordinate arcs, which take
    # about 70 MB if held at once, against about 0.5 MB an edge array
    pts = np.random.default_rng(5).random((1200, 2))
    starts = np.arange(0, 1201, 300)
    params = ComplexParams(epsilon=0.15)
    u, v = threshold_edges(pts, 1.0, params, starts)
    assert u.size > 60_000
    assert _traced_peak(window_chi, pts, 1.0, params, starts, u, v) < 8 * 2 ** 20


# an empty and a one-point configuration, and three points a third apart,
# pairwise adjacent at t = a/3 but in no window
_THIRDS = (TorusSpec(d=1, a=3.0), [np.zeros((0, 1)), np.array([[1.5]]),
                                   np.array([[0.0], [1.0], [2.0]])], 1.0)


@settings(max_examples=200, deadline=None)
@given(lattice_blocks(), st.sampled_from(list(Metric)),
       st.sampled_from(list(Convention)), st.booleans(), st.booleans(),
       st.booleans(), st.sampled_from([0, 2, 3, 4, 5, None]),
       st.sampled_from([1, 3, 1024]))
@example(_THIRDS, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, False, True,
         False, 0, 1024)
@example(_THIRDS, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, True, True,
         True, None, 1)
@example((SPEC1, _CIRCLE_CASES["empty-first"][0], 0.2), Metric.MAX_NORM,
         Convention.SUBCOMPLEX_EPS, False, False, True, 3, 1024)
def test_graph_builder_gives_each_configuration_its_own_graph_and_chi(
        block, metric, convention, bitsets, chi, betti, max_size, block_reps):
    # blocks of one configuration or of many, in or out of the windows:
    # each graph is that of a fresh sweep of its own configuration, its
    # counts are the walk's up to max_size (capped where the walk is), the
    # chi (when asked for, or needed by the gaps) is its whole graph's, the
    # gaps' verdict is given for the Betti numbers on the windowed circle,
    # and bitsets are packed, once a block, exactly when asked for, walked
    # (off that circle, where the counts are anchored), needed for the Betti
    # numbers off that circle or for chi outside the windows.  A cap low
    # enough to stop a walk of a dense configuration quickly must stop the
    # builder at the same configuration.
    spec, configs, epsilon = block
    params = ComplexParams(epsilon=epsilon, metric=metric, convention=convention)
    windows = windowed(spec.d, spec.a, params)
    circle = betti and windows and spec.d == 1
    walks = (max_size is None or max_size > 3) and not (windows and spec.d == 1)
    packs = bitsets or walks or (betti and not circle) or (chi and not windows)
    calls = {"threshold_edges": 0, "neighbour_bitsets": 0}

    def counting(name):
        fn = getattr(complexes, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    with mock.patch.object(cliques, "DEFAULT_SIMPLEX_CAP", 1 << 16):
        expected, overrun = [], None
        for pts in configs:
            u, v = threshold_edges(pts, spec.a, params)
            fresh = neighbour_bitsets(u, v, len(pts))
            counts = [0, len(pts), len(u)]
            try:
                if max_size is not None and max_size >= 3:
                    counts = counts_from_bitsets(fresh, max_size)
                    if max_size == 3:
                        counts = (counts + [0] * 3)[:4]
                elif max_size is None:
                    counts = counts_from_bitsets(fresh, len(pts))
            except SimplexCapExceeded as exc:
                overrun = overrun or str(exc)
            expected.append((pts, u, v, fresh, counts))
        with mock.patch.object(complexes, "_BLOCK_REPS", block_reps), \
                mock.patch.object(complexes, "threshold_edges",
                                  counting("threshold_edges")), \
                mock.patch.object(complexes, "neighbour_bitsets",
                                  counting("neighbour_bitsets")):
            out = complexes.graphs(iter(configs), spec, params, bitsets, chi,
                                   betti, max_size)
            if overrun is not None:
                with pytest.raises(SimplexCapExceeded,
                                   match=f"^{re.escape(overrun)}$"):
                    list(out)
                return
            out = list(out)
    assert len(out) == len(configs)
    assert calls["neighbour_bitsets"] == (calls["threshold_edges"] if packs else 0)
    for graph, (pts, u, v, fresh, counts) in zip(out, expected):
        assert (graph.n, graph.counts) == (len(pts), counts)
        assert graph.degrees.tolist() == np.bincount(
            np.concatenate((u, v)), minlength=len(pts)).tolist()
        assert graph.neigh == (fresh if packs else None)
        assert graph.chi == (chi_from_bitsets(fresh) if chi or circle else None)
        if circle:
            assert graph.covered == bool(circle_covered(
                pts, spec.a, params, np.array([0, len(pts)]))[0])
        else:
            assert graph.covered is None


@st.composite
def triangle_blocks(draw):
    """A block of uniform configurations at d <= 3, whose sizes include 0,
    1 and 2 points and the local widths either side of one and two 64-bit
    words, with a metric, a convention and a threshold of 1% to 25% of a."""
    d = draw(st.integers(1, 3))
    a = draw(st.sampled_from([1.0, 2.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 5, 63, 64, 65, 127, 128,
                                           129]), min_size=1, max_size=5))
    params = ComplexParams(
        epsilon=draw(st.floats(0.01, 0.25)) * a,
        metric=draw(st.sampled_from(list(Metric))),
        convention=draw(st.sampled_from(list(Convention))))
    return TorusSpec(d=d, a=a), [rng.random((n, d)) * a for n in sizes], params


def _width_block(width):
    """An empty, a one-point and a two-point configuration, then one of
    ``width`` points, at d = 2."""
    return (SPEC2, [np.zeros((0, 2)), np.array([[0.5, 0.5]]),
                    np.array([[0.1, 0.1], [0.12, 0.1]]),
                    np.random.default_rng(width).random((width, 2))],
            ComplexParams(epsilon=0.1))


@settings(max_examples=100, deadline=None)
@given(triangle_blocks(), st.sampled_from([1, 1024]),
       st.sampled_from([64, 1 << 16]), st.booleans())
@example(_width_block(63), 1024, 64, False)
@example(_width_block(64), 1024, 64, True)
@example(_width_block(65), 1024, 64, False)
@example(_width_block(127), 1, 1 << 16, False)
@example(_width_block(128), 1024, 64, False)
@example(_width_block(129), 1024, 1 << 16, True)
@example(_width_block(192), 1024, 64, True)
@example(_width_block(193), 1024, 1 << 16, True)
@example(_width_block(257), 1024, 64, True)
def test_block_triangle_counts_equal_the_walk_and_networkx(block, block_reps,
                                                          run, bitsets):
    # blocks of one configuration or of many, each ANDed in runs of at
    # least one edge: each configuration's triangle count is its own graph's,
    # and so are its bitsets where the same block packs them too
    spec, configs, params = block
    with mock.patch.object(complexes, "_BLOCK_REPS", block_reps), \
            mock.patch.object(complexes, "_RUN_PAIRS", run):
        out = list(complexes.graphs(iter(configs), spec, params, bitsets,
                                    max_size=3))
    assert len(out) == len(configs)
    for graph, pts in zip(out, configs):
        assert (graph.chi, graph.covered) == (None, None)
        u, v = threshold_edges(pts, spec.a, params)
        neigh = neighbour_bitsets(u, v, graph.n)
        assert graph.neigh == (neigh if bitsets else None)
        walked = counts_from_bitsets(neigh, 3)
        nx_graph = nx.Graph(zip(u.tolist(), v.tolist()))
        assert graph.counts[3] == (walked + [0] * 3)[3] == sum(
            nx.triangles(nx_graph).values()) // 3


def _refused(name):
    def refused(*args):
        raise AssertionError(f"{name} on the windowed circle")
    return refused


@settings(max_examples=150, deadline=None)
@given(window_blocks(max_d=1), st.sampled_from([3, 4, 5, 6, 7, None]),
       st.sampled_from([1, 2, 1024]))
@example((SPEC1, [_ROUNDING_EDGE[0].points],
          ComplexParams(epsilon=_ROUNDING_EDGE[1],
                        convention=Convention.SUBCOMPLEX_EPS)), None, 1024)
@example((SPEC1, *_CIRCLE_CASES["empty-first"][:2]), 4, 1024)
@example((SPEC1, *_CIRCLE_CASES["n<=3"][:2]), 3, 1)
@example((SPEC1, *_CIRCLE_CASES["tie-rips2eps"][:2]), 7, 2)
@example((SPEC1, *_CIRCLE_CASES["tie-subeps"][:2]), None, 2)
@example((TorusSpec(d=1, a=2.5), _circle([], [0.5], [0.0, 0.5, 0.75, 1.0, 2.25]),
          ComplexParams(epsilon=0.75, convention=Convention.SUBCOMPLEX_EPS)),
         None, 1024)
def test_anchored_counts_on_the_circle_equal_the_walk_and_networkx(
        block, max_size, block_reps):
    # both conventions, a in {0.7, 1, 2.5}, thresholds up to just below a/3,
    # ties on a lattice, empty and one-point configurations, blocks of one
    # configuration or many: every N_k up to max_size (every k for None) is
    # the walk's, with no bitsets, walk or join, and networkx's; a cap low
    # enough to stop a walk of a dense configuration quickly stops the
    # builder at the same configuration, with the same message
    spec, configs, params = block
    assert windowed(1, spec.a, params)
    expected, overrun = [], None
    with mock.patch.object(cliques, "DEFAULT_SIMPLEX_CAP", 1 << 12):
        for pts in configs:
            u, v = threshold_edges(pts, spec.a, params)
            try:
                walked = counts_from_bitsets(neighbour_bitsets(u, v, len(pts)),
                                             max_size or len(pts))
            except SimplexCapExceeded as exc:
                overrun = str(exc)
                break
            graph = nx.Graph()
            graph.add_nodes_from(range(len(pts)))
            graph.add_edges_from(zip(u.tolist(), v.tolist()))
            by_nx = [0] * (len(pts) + 1)
            for clique in nx.enumerate_all_cliques(graph):
                if max_size is not None and len(clique) > max_size:
                    break
                by_nx[len(clique)] += 1
            assert walked == by_nx
            expected.append(walked if max_size != 3 else (walked + [0] * 3)[:4])
        out = []
        with mock.patch.object(complexes, "_BLOCK_REPS", block_reps), \
                mock.patch.object(complexes, "neighbour_bitsets",
                                  _refused("neighbour_bitsets")), \
                mock.patch.object(complexes, "counts_from_bitsets",
                                  _refused("counts_from_bitsets")), \
                mock.patch.object(complexes, "triangle_counts",
                                  _refused("triangle_counts")):
            graphs = complexes.graphs(iter(configs), spec, params,
                                      max_size=max_size)
            if overrun is None:
                out = [graph.counts for graph in graphs]
            else:
                with pytest.raises(SimplexCapExceeded,
                                   match=f"^{re.escape(overrun)}$"):
                    for graph in graphs:
                        out.append(graph.counts)
    assert out == expected


def test_anchored_counts_are_exact_past_int64():
    # three anchors of 3e6 later neighbours each: their N_4 alone,
    # 3 C(3e6, 3), passes 2^63, and each anchor's own cliques pass the
    # default cap, which refuses its graph without forming the binomials
    later = np.array([2, 1, 0, 3_000_000, 3_000_000, 3_000_000, 0])
    seg = np.array([0, 0, 0, 1, 1, 1, 1])
    m = 3_000_000
    n4 = 3 * math.comb(m, 3)
    assert n4 > 1 << 63
    # each row ends at the largest size any graph of the block reaches
    rows, totals = cliques.anchored_counts(later, seg, 3, 4)
    assert rows[0] == [3, 1] and totals[0] == 7
    assert totals[1] > cliques.DEFAULT_SIMPLEX_CAP
    assert (rows[2], totals[2]) == ([0, 0], 0)
    total = 4 + 3 * (m + math.comb(m, 2) + math.comb(m, 3))
    with mock.patch.object(cliques, "DEFAULT_SIMPLEX_CAP", total):
        rows, totals = cliques.anchored_counts(later, seg, 3, 4)
    assert rows == [[3, 1, 0], [3 * m, 3 * math.comb(m, 2), n4], [0, 0, 0]]
    assert totals == [7, total, 0]
    assert all(type(c) is int for c in rows[1] + totals)
    with mock.patch.object(cliques, "DEFAULT_SIMPLEX_CAP", total - 1):
        assert cliques.anchored_counts(later, seg, 3, 4)[1][1] > total - 1


@pytest.mark.parametrize("max_dim, counts", [(None, [4, 3, 1]), (2, [4, 3, 1]),
                                             (3, [4, 3, 1])])
def test_anchored_counts_are_capped_at_their_total(monkeypatch, max_dim, counts):
    # a triangle and a point, 8 simplices: a cap of 8 passes, 7 refuses
    cfg = config_1d(0.0, 0.05, 0.10, 0.5)
    params = ComplexParams(epsilon=0.1)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 8)
    assert simplex_counts(cfg, params, max_dim).counts.tolist() == counts
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 7)
    size = 4 if max_dim is None else max_dim + 1
    with pytest.raises(SimplexCapExceeded, match=(
            f"^more than DEFAULT_SIMPLEX_CAP = 7 cliques of at most {size} "
            "vertices$")):
        simplex_counts(cfg, params, max_dim)


def _traced_peak(fn, *args, **kwargs) -> int:
    """The peak of the memory that tracemalloc sees (numpy's buffers too)
    while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cells(spec, configs, epsilon, convention=Convention.SUBCOMPLEX_EPS):
    """The cells per axis that ``threshold_edges`` uses for a block."""
    points, starts = _block_arrays(spec, configs)
    t = ComplexParams(epsilon=epsilon, convention=convention).threshold()
    reach = t + 8 * np.spacing(4.0 * spec.a * len(points) + t)
    return complexes._cells_per_axis(spec.d, spec.a, t, reach, len(points),
                                     np.diff(starts))


def test_the_cell_examples_use_the_cells_they_name():
    with mock.patch.object(complexes, "_CELL_WINDOW", 0):
        for (cfg, epsilon), m in ((_THIRDS_2D, 3), (_CLAMPED, 4), (_DIAGONAL, 3)):
            assert _cells(cfg.spec, [cfg.points], epsilon) == m
        # at t = a/3 the reach is wider than a third: no cells
        assert _cells(SPEC2, [_THIRDS_2D[0].points], 1 / 3) == 1
    # nextafter(a, 0) * m / a rounds to m, past the last cell
    assert float(np.nextafter(0.9, 0.0)) * (4 / 0.9) == 4.0
    # the dense configuration's window of 60 points uses cells unpatched
    assert _cells(*_DENSE_AND_SPARSE) == 9


@pytest.mark.parametrize("d, sizes, t, m", [
    (1, [20000], 0.01, 1),            # one coordinate: nothing to cut
    (2, [20000], 0.0019, 1),          # a window of 38 points
    (2, [20000], 0.002, 499),         # of 40 points
    (3, [2000], 0.1, 9),              # the coverage workload's d = 3 graph
    (2, [1600], 0.05, 19),            # and its d = 2 graph
    (2, [175] * 8, 0.1, 1),           # the homology workload, 17.5 points
    (2, [50] * 100, 0.1, 1),          # a replication block, 5 points
    (3, [4000] * 2, 0.01, 63),        # 99 x 99 cells would be more than
                                      # one a point
    (2, [200], 0.34, 1),              # at most 2 cells wider than t
])
def test_cells_only_where_the_first_coordinates_window_is_wide(d, sizes, t, m):
    sizes = np.array(sizes)
    reach = t + 8 * np.spacing(4.0 * sizes.sum() + t)
    assert complexes._cells_per_axis(d, 1.0, t, reach, sizes.sum(), sizes) == m
    if m > 1:  # each cell is wider than the reach, and more cells would not be
        assert m * reach * (1 + 2.0 ** -40) <= 1.0
        assert (1.0 / (m + 1) < reach * (1 + 2.0 ** -40)
                or sizes.size * (m + 1) ** (d - 1) > sizes.sum())


@pytest.mark.parametrize("d, epsilon", [(2, 0.01), (3, 0.02)])
@pytest.mark.parametrize("convention", list(Convention))
def test_cell_search_matches_a_periodic_kd_tree(d, epsilon, convention):
    # 20,000 uniform points, in cells unpatched, against scipy's periodic
    # k-d tree under the max-norm: pairs closer than t (rips2eps) or at
    # most t (subeps), each once
    from scipy.spatial import cKDTree
    pts = np.random.default_rng(d).random((20_000, d))
    params = ComplexParams(epsilon=epsilon, convention=convention)
    t = params.threshold()
    assert _cells(TorusSpec(d=d, a=1.0), [pts], epsilon, convention) > 1
    u, v = threshold_edges(pts, 1.0, params)
    r = float(np.nextafter(t, 0.0)) if convention is Convention.RIPS_HALF_OPEN_2EPS else t
    pairs = cKDTree(pts, boxsize=1.0).query_pairs(r, p=np.inf, output_type="ndarray")
    mine = np.minimum(u, v) * len(pts) + np.maximum(u, v)
    assert np.array_equal(np.sort(mine), np.sort(pairs[:, 0] * len(pts) + pairs[:, 1]))
    # the edges twice (the runs and their join), a fixed run budget, and a
    # few words for each of a point's windows; an (n, n) matrix would take
    # 400 MB
    bound = 2 * (u.nbytes + v.nbytes) + 512 * len(pts) + 4 * 2 ** 20
    assert _traced_peak(threshold_edges, pts, 1.0, params) < bound


def test_sweep_memory_follows_the_run_budget():
    # 2000 points at d = 3 in 9 x 9 cells: about 40,000 candidate pairs, in
    # runs of at most 2^16
    pts = np.random.default_rng(3).random((2000, 3))
    assert _traced_peak(threshold_edges, pts, 1.0, ComplexParams(epsilon=0.05)) \
        < 4 * 2 ** 20


@pytest.mark.parametrize("build, epsilon", [
    (lambda cfg, params: simplex_counts(cfg, params, max_dim=2), 0.0175),
    (build_complex, 0.0175),
    (collapsed_homology, 0.008),
], ids=("simplex_counts", "build_complex", "collapsed_homology"))
def test_single_configuration_paths_pack_bitsets_from_edges(build, epsilon):
    # n = 4000 at mean degree 19.6 (eps 0.0175) or 4.1: an (n, n) boolean
    # matrix alone would take n^2 bytes
    cfg = sample(Binomial(n=4000), TorusSpec(d=2, a=1.0), SeedSpec(7))
    assert _traced_peak(build, cfg, ComplexParams(epsilon=epsilon)) < 0.75 * cfg.n ** 2
