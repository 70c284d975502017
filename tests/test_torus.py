import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import toroidal_coordinate_distance, wrap_coords
from torushom.torus import (Metric, TorusSpec, pairwise_distances,
                            torus_distance)


def test_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec(d=0, a=1.0)
    with pytest.raises(ValueError):
        TorusSpec(d=1, a=0.0)
    with pytest.raises(ValueError):
        TorusSpec(d=1, a=-2.0)
    assert TorusSpec(d=3, a=2.0).volume == 8.0


def test_coordinate_distance_wraps():
    assert toroidal_coordinate_distance(0.1, 0.9, 1.0) == pytest.approx(0.2)
    assert toroidal_coordinate_distance(0.0, 0.5, 1.0) == pytest.approx(0.5)
    assert toroidal_coordinate_distance(0.25, 0.25, 1.0) == 0.0


def test_max_norm_vs_euclidean():
    spec = TorusSpec(d=2, a=1.0)
    p = np.array([0.05, 0.05])
    q = np.array([0.95, 0.95])  # wraps to (0.1, 0.1) separation
    assert torus_distance(p, q, spec, Metric.MAX_NORM) == pytest.approx(0.1)
    assert torus_distance(p, q, spec, Metric.EUCLIDEAN) == pytest.approx(
        0.1 * np.sqrt(2.0))


def test_wrap_coords():
    out = wrap_coords(np.array([1.25, -0.25, 0.5]), 1.0)
    assert np.allclose(out, [0.25, 0.75, 0.5])


def test_pairwise_matches_pointwise():
    rng = np.random.default_rng(0)
    spec = TorusSpec(d=3, a=2.0)
    pts = rng.uniform(0, 2.0, size=(12, 3))
    for metric in Metric:
        mat = pairwise_distances(pts, spec, metric)
        assert mat.shape == (12, 12)
        for i in range(12):
            for j in range(12):
                assert mat[i, j] == pytest.approx(
                    torus_distance(pts[i], pts[j], spec, metric))


@settings(max_examples=50)
@given(st.lists(st.floats(0, 0.999), min_size=2, max_size=2),
       st.lists(st.floats(0, 0.999), min_size=2, max_size=2),
       st.lists(st.floats(0, 0.999), min_size=2, max_size=2))
def test_metric_axioms(xs, ys, zs):
    spec = TorusSpec(d=2, a=1.0)
    p, q, r = (np.array(v) for v in (xs, ys, zs))
    for metric in Metric:
        dpq = torus_distance(p, q, spec, metric)
        dqp = torus_distance(q, p, spec, metric)
        assert dpq == pytest.approx(dqp)
        assert dpq >= 0.0
        # wrap distance per coordinate never exceeds a/2
        if metric is Metric.MAX_NORM:
            assert dpq <= 0.5 + 1e-12
        dpr = torus_distance(p, r, spec, metric)
        drq = torus_distance(r, q, spec, metric)
        assert dpq <= dpr + drq + 1e-9


def test_out_of_domain_rejected():
    with pytest.raises(ValueError):
        toroidal_coordinate_distance(1.5, 0.2, 1.0)
    spec = TorusSpec(d=2, a=1.0)
    with pytest.raises(ValueError):
        torus_distance(np.array([0.5]), np.array([0.2, 0.1]), spec)
