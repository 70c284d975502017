import math

import numpy as np
import pytest

from torushom import joracle
from torushom.joracle import JEstimate, OverlapPattern, j_oracle_mc
from torushom.moments import j2_closed_form
from torushom.sampling import SeedSpec
from torushom.torus import TorusSpec

SPEC1 = TorusSpec(d=1, a=1.0)


def test_pattern_validation():
    with pytest.raises(ValueError):
        OverlapPattern.make((2, 2), [((0,), 1)])  # singleton group
    with pytest.raises(ValueError):
        OverlapPattern.make((2, 2), [((0, 2), 1)])  # index out of range
    with pytest.raises(ValueError):
        OverlapPattern.make((2, 2), [((0, 1), 3)])  # more shared than size
    with pytest.raises(ValueError):
        OverlapPattern.make((0, 2))
    with pytest.raises(ValueError, match="twice"):
        OverlapPattern.make((2, 2), [((0, 1), 1), ((1, 0), 1)])  # one group twice
    with pytest.raises(ValueError, match="twice"):
        OverlapPattern.make((3, 3, 3), [((0, 0, 1), 1)])  # a simplex twice
    with pytest.raises(ValueError, match="twice"):
        OverlapPattern.make((2, 2), [((0, 1), 1), ((0, 1), 1)])  # listed twice
    with pytest.raises(ValueError, match="at least one simplex"):
        OverlapPattern.make(())


def test_pattern_from_json():
    doc = {"sizes": [3, 3, 3], "shared": [{"simplices": [1, 0], "count": 1},
                                          {"simplices": [0, 1, 2], "count": 1}]}
    assert OverlapPattern.from_json(doc) == OverlapPattern.make(
        (3, 3, 3), [((0, 1), 1), ((0, 1, 2), 1)])
    assert OverlapPattern.from_json({"sizes": [2]}) == OverlapPattern.make((2,))


def test_pattern_canonical_and_counts():
    p = OverlapPattern.make((3, 3, 3), [((0, 1), 1), ((0, 1, 2), 1)])
    assert p.total_vertices == 9 - 1 - 2
    lists = p.vertex_lists()
    assert [len(v) for v in lists] == [3, 3, 3]
    flat = sorted({u for v in lists for u in v})
    assert flat == list(range(p.total_vertices))
    # zero counts are dropped; equal structures compare equal
    q = OverlapPattern.make((3, 3, 3),
                            [((0, 1), 1), ((0, 2), 0), ((0, 1, 2), 1)])
    assert p == q


def test_single_simplex_integral():
    # one pair within 2 eps on the circle: probability 4 eps, so
    # J = a^2 * 4 eps / a ... with a = 1, exactly 4 eps
    pattern = OverlapPattern.make((2,))
    est = j_oracle_mc(pattern, SPEC1, 0.05, 200_000, SeedSpec(1))
    assert est.value == pytest.approx(0.2, abs=4 * est.stderr)
    assert est.stderr > 0 and est.samples == 200_000


def test_trivial_pattern_is_exact():
    # a single point has no pairs: the integral is exactly a^d
    pattern = OverlapPattern.make((1,))
    est = j_oracle_mc(pattern, SPEC1, 0.05, 1_000, SeedSpec(2))
    assert est.value == pytest.approx(1.0)


def test_matches_two_simplex_closed_form():
    # two triangles sharing one vertex: m1 = m2 = 2, m12 = 1
    pattern = OverlapPattern.make((3, 3), [((0, 1), 1)])
    est = j_oracle_mc(pattern, SPEC1, 0.05, 400_000, SeedSpec(3))
    closed = j2_closed_form(2, 2, 1, SPEC1, 0.05)
    assert est.value == pytest.approx(closed, abs=4 * est.stderr)


def test_seed_reproducibility():
    pattern = OverlapPattern.make((2, 2), [((0, 1), 1)])
    a = j_oracle_mc(pattern, SPEC1, 0.05, 50_000, SeedSpec(9))
    b = j_oracle_mc(pattern, SPEC1, 0.05, 50_000, SeedSpec(9))
    c = j_oracle_mc(pattern, SPEC1, 0.05, 50_000, SeedSpec(10))
    assert a == b
    assert a.value != c.value


def test_batching_invariance(monkeypatch):
    pattern = OverlapPattern.make((2, 2), [((0, 1), 1)])
    monkeypatch.setattr(joracle, "MC_BATCH", 60_000)
    a = j_oracle_mc(pattern, SPEC1, 0.05, 60_000, SeedSpec(4))
    monkeypatch.setattr(joracle, "MC_BATCH", 7_000)
    b = j_oracle_mc(pattern, SPEC1, 0.05, 60_000, SeedSpec(4))
    assert a.value == pytest.approx(b.value, rel=0.05)


def test_dimension_cap():
    # the cap bounds M, the dimension sampled on the circle, at every d
    pattern = OverlapPattern.make((13,))
    with pytest.raises(ValueError):
        j_oracle_mc(pattern, SPEC1, 0.05, 100, SeedSpec(0))
    est = j_oracle_mc(OverlapPattern.make((7,)), TorusSpec(d=2, a=1.0), 0.2,
                      100, SeedSpec(0))
    assert est.samples == 100
    with pytest.raises(ValueError, match="samples"):
        j_oracle_mc(OverlapPattern.make((2,)), SPEC1, 0.05, 0, SeedSpec(0))


@pytest.mark.parametrize("eps", (-0.1, 0.0, math.inf, math.nan))
def test_epsilon_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError, match="epsilon"):
        j_oracle_mc(OverlapPattern.make((2,)), SPEC1, eps, 100, SeedSpec(0))


C4 = OverlapPattern.make((2, 2, 2, 2),
                         [((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), 1)])


def test_max_norm_integral_is_the_circle_integral_to_the_power_d():
    # one stream, one circle estimate: J_2 = J_1^2, and its error is the
    # rise of x^2 over one standard error of J_1
    circle = j_oracle_mc(C4, SPEC1, 0.1, 50_000, SeedSpec(5))
    plane = j_oracle_mc(C4, TorusSpec(d=2, a=1.0), 0.1, 50_000, SeedSpec(5))
    assert plane.value == circle.value ** 2
    assert plane.stderr == 2 * circle.value * circle.stderr + circle.stderr ** 2
    assert plane.samples == circle.samples == 50_000


def test_circle_hits_strict_and_closed_thresholds():
    # fixed points exactly 0.25 apart: within 0.25 closed, not strictly
    rng = np.random.default_rng(0)
    for strict, hits in ((False, 5), (True, 0)):
        assert joracle.circle_hits(rng, 0, [0.25, 0.5], [(0, 1)], 1.0, 0.25,
                                   strict, 5) == hits
