import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bitsets, boundary_matrix, chi_from_counts, clique_simplices
from torushom import cliques, complexes
from torushom.cliques import SimplexCapExceeded, enumerate_cliques
from torushom.complexes import (ComplexParams, Convention, adjacency_matrix,
                                build_complex, phi_k, simplex_counts,
                                threshold_edges)
from torushom.homology import collapsed_homology
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


def _lattice_coordinates(draw):
    """A torus (d, a), a lattice of spacing h = a/m on it, and coordinates
    on the lattice, so that pairwise distances tie exactly with epsilon or
    2*epsilon; or mixed with arbitrary coordinates and the domain ends 0 and
    nextafter(a, 0)."""
    d = draw(st.integers(1, 3))
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


@settings(max_examples=300, deadline=None)
@given(lattice_configurations(), st.sampled_from(list(Metric)),
       st.sampled_from(list(Convention)))
@example(_ROUNDING_EDGE, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS)
def test_adjacency_matches_dense_distances(cfg_eps, metric, convention):
    cfg, epsilon = cfg_eps
    params = ComplexParams(epsilon=epsilon, metric=metric, convention=convention)
    dists = pairwise_distances(cfg.points, cfg.spec, metric)
    if convention is Convention.RIPS_HALF_OPEN_2EPS:
        expected = dists < params.threshold()
    else:
        expected = dists <= params.threshold()
    np.fill_diagonal(expected, False)
    adj = adjacency_matrix(cfg, params)
    assert adj.dtype == bool and adj.shape == (cfg.n, cfg.n)
    assert np.array_equal(adj, expected)


@settings(max_examples=150, deadline=None)
@given(lattice_blocks(), st.sampled_from(list(Metric)),
       st.sampled_from(list(Convention)))
def test_segmented_sweep_matches_dense_distances(block, metric, convention):
    spec, configs, epsilon = block
    params = ComplexParams(epsilon=epsilon, metric=metric, convention=convention)
    sizes = [len(pts) for pts in configs]
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    points = np.concatenate(configs) if configs else np.zeros((0, spec.d))
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
       st.sampled_from(list(Convention)), st.sampled_from([1, 7, 64]))
@example(_HALF_WAY, Metric.MAX_NORM, Convention.SUBCOMPLEX_EPS, 1)
@example(_HALF_WAY_PAIR, Metric.EUCLIDEAN, Convention.RIPS_HALF_OPEN_2EPS, 7)
def test_sweep_in_runs_matches_one_run(block, metric, convention, budget):
    # budgets of 1, 7 and 64 candidates split the sweep inside and across
    # configurations; a configuration alone is passed without ``starts``
    spec, configs, epsilon = block
    params = ComplexParams(epsilon=epsilon, metric=metric, convention=convention)
    points, starts = _block_arrays(spec, configs)
    given_starts = starts if len(configs) != 1 else None
    u, v = threshold_edges(points, spec.a, params, given_starts)
    with mock.patch.object(complexes, "_RUN_PAIRS", budget):
        ru, rv = threshold_edges(points, spec.a, params, given_starts)
    assert np.array_equal(ru, u) and np.array_equal(rv, v)
    assert ru.dtype == u.dtype and rv.dtype == v.dtype
    _assert_dense_edges(ru, rv, spec, configs, starts, params)


def _traced_peak(fn, *args, **kwargs) -> int:
    """The peak of the memory that tracemalloc sees (numpy's buffers too)
    while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_follows_the_run_budget():
    # about 400,000 candidate pairs, swept in runs of at most 2^16
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
