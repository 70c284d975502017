import json

import numpy as np
import pytest

from oracles import count_in_box
from torushom.sampling import (Binomial, PointConfiguration, Poisson,
                               SeedSpec, sample)
from torushom.torus import TorusSpec


SPEC1 = TorusSpec(d=1, a=1.0)
SPEC2 = TorusSpec(d=2, a=1.0)


def test_seed_reproducibility():
    seed = SeedSpec(1234, 7)
    c1 = sample(Poisson(lam=30.0), SPEC2, seed)
    c2 = sample(Poisson(lam=30.0), SPEC2, seed)
    assert np.array_equal(c1.points, c2.points)


def test_child_streams_stable_and_distinct():
    seed = SeedSpec(42)
    a = seed.child("experiment", 3)
    b = seed.child("experiment", 3)
    c = seed.child("experiment", 4)
    assert a == b
    assert a != c
    assert a.master_seed == 42


def test_streams_independentish():
    s = SeedSpec(99)
    x = sample(Binomial(n=50), SPEC1, s.child("e", 0)).points
    y = sample(Binomial(n=50), SPEC1, s.child("e", 1)).points
    assert not np.array_equal(x, y)


def test_binomial_exact_count():
    for n in (0, 1, 17):
        cfg = sample(Binomial(n=n), SPEC2, SeedSpec(5, n))
        assert cfg.n == n
        assert cfg.points.shape == (n, 2)


def test_points_in_domain_and_distinct():
    cfg = sample(Poisson(lam=200.0), SPEC2, SeedSpec(11))
    assert cfg.points.min() >= 0.0
    assert cfg.points.max() < 1.0
    assert len(np.unique(cfg.points, axis=0)) == cfg.n


def test_poisson_count_distribution():
    # mean of N over many reps should match lam * a^d within 4 sigma
    lam, reps = 30.0, 2000
    seed = SeedSpec(2024)
    counts = np.array([
        sample(Poisson(lam=lam), SPEC1, seed.child("n", r)).n
        for r in range(reps)
    ])
    se = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - lam) < 4 * se


def test_json_round_trip():
    cfg = sample(Binomial(n=9), SPEC2, SeedSpec(3))
    obj = cfg.to_json()
    back = PointConfiguration.from_json(json.dumps(obj))
    assert back.spec == cfg.spec
    assert np.allclose(back.points, cfg.points)
    back2 = PointConfiguration.from_json(obj)
    assert np.allclose(back2.points, cfg.points)


def test_from_json_rejects_out_of_domain():
    with pytest.raises(ValueError):
        PointConfiguration.from_json({"d": 1, "a": 1.0, "points": [[1.0]]})


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_from_json_rejects_non_finite(bad):
    text = f'{{"d": 1, "a": 1.0, "points": [[0.1], [{bad}], [0.12]]}}'
    with pytest.raises(ValueError, match="finite"):
        PointConfiguration.from_json(text)
    with pytest.raises(ValueError, match="finite"):
        PointConfiguration.from_json(
            {"d": 2, "a": 1.0, "points": [[0.1, 0.2], [0.3, float(bad)]]})


def test_law_validation():
    with pytest.raises(ValueError):
        Poisson(lam=0.0)
    with pytest.raises(ValueError):
        Binomial(n=-1)


def test_count_in_box_wraps():
    cfg = PointConfiguration(
        spec=SPEC1, points=np.array([[0.05], [0.5], [0.95]]))
    assert count_in_box(cfg, [0.9], [0.2]) == 2  # wraps past 1.0
    assert count_in_box(cfg, [0.0], [1.0]) == 3
    assert count_in_box(cfg, [0.4], [0.05]) == 0


def test_count_in_box_uniformity():
    # expected count in a box of volume v is lam * v
    lam, reps, v = 50.0, 1000, 0.3
    seed = SeedSpec(77)
    counts = np.array([
        count_in_box(sample(Poisson(lam=lam), SPEC1, seed.child("b", r)),
                     [0.85], [v])
        for r in range(reps)
    ])
    se = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - lam * v) < 4 * se
