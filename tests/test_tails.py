import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom.cliques import chi_from_bitsets, components, neighbour_bitsets
from torushom.complexes import ComplexParams, threshold_edges
from torushom.harness import ExperimentConfig, run_experiment
from torushom.moments import ModelParams
from torushom.sampling import Poisson
from torushom.tails import beta0_tail_bound, chi2d_tail_bound
from torushom.torus import TorusSpec

P1 = ModelParams(lam=10.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.05)


def test_beta0_bound_frozen_value():
    # d = 1, lam = 10, y = 20: u = 10, v = (2^1-1)^2 * 10 = 10, so the
    # bound is exp(-5 log 2) = 2^-5
    assert beta0_tail_bound(P1, 20.0) == pytest.approx(0.03125, abs=1e-12)


def test_beta0_bound_on_a_longer_circle_covers_monte_carlo():
    # a = 4, lam = 10: 40 points on average, as at a = 1, lam = 40, so
    # alpha^2 = (2^d - 1)^2 lam a^d = 40 and the bound is that of a = 1
    # (0.8^5 at y = 50).  Without the volume a^d, alpha^2 = 10 gave
    # 2^-5 = 0.03125 at y = 50, below the tail of 20,000 replications
    # (about 0.05), whose beta_0 comes from chi and the circular gaps.
    spec = TorusSpec(d=1, a=4.0)
    model = ModelParams(lam=10.0, spec=spec, epsilon=0.001)
    unit = ModelParams(lam=40.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.001)
    cfg = ExperimentConfig(law=Poisson(10.0), spec=spec,
                           params=ComplexParams(epsilon=0.001),
                           replications=20_000, master_seed=77,
                           quantities=("beta_0",))
    beta0 = run_experiment(cfg).raw["beta_0"]
    for y in (50.0, 55.0):
        bound = beta0_tail_bound(model, y)
        assert bound == pytest.approx(beta0_tail_bound(unit, y), rel=1e-12)
        p = float((beta0 >= y).mean())
        se = math.sqrt(p * (1.0 - p) / beta0.size)
        assert p - 3.0 * se <= bound
        u = y - 40.0
        assert p - 3.0 * se > math.exp(-(u / 2.0) * math.log1p(u / 10.0))
    assert beta0_tail_bound(model, 50.0) == pytest.approx(0.8 ** 5, abs=1e-12)


def test_beta0_bound_domain():
    with pytest.raises(ValueError):
        beta0_tail_bound(P1, 10.0)  # at the mean proxy
    with pytest.raises(ValueError):
        beta0_tail_bound(P1, 5.0)


def test_beta0_bound_monotone():
    ys = [11.0, 15.0, 20.0, 30.0, 50.0]
    bounds = [beta0_tail_bound(P1, y) for y in ys]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(0 < b < 1 for b in bounds)


def test_chi2d_bound_frozen_value():
    # var = 1, x = 4: exp(-(4/4) log(1 + 8)) = 1/9
    assert chi2d_tail_bound(1.0, 4.0) == pytest.approx(1.0 / 9.0, abs=1e-12)
    with pytest.raises(ValueError):
        chi2d_tail_bound(1.0, 0.0)
    with pytest.raises(ValueError):
        chi2d_tail_bound(0.0, 1.0)


def test_beta0_bound_frozen_value_d2():
    # d = 2, lam = 10, y = 20: u = 10, v = (2^2-1)^2 * 10 = 90, so the
    # bound is exp(-5 log(10/9)) = (9/10)^5
    p2 = ModelParams(lam=10.0, spec=TorusSpec(d=2, a=1.0), epsilon=0.05)
    assert beta0_tail_bound(p2, 20.0) == pytest.approx(0.9 ** 5, abs=1e-12)


def test_chi2d_bound_monotone():
    xs = [0.5, 1.0, 4.0, 10.0, 40.0]
    bounds = [chi2d_tail_bound(2.0, x) for x in xs]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(0 < b < 1 for b in bounds)
    # a larger variance gives a weaker (larger) bound at the same deviation
    variances = [0.5, 1.0, 5.0, 50.0]
    by_var = [chi2d_tail_bound(v, 4.0) for v in variances]
    assert all(b1 < b2 for b1, b2 in zip(by_var, by_var[1:]))


def test_nan_fails_the_bound_checks():
    with pytest.raises(ValueError):
        beta0_tail_bound(P1, math.nan)
    for var_chi, x in ((1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            chi2d_tail_bound(var_chi, x)


def _chi(points, params) -> int:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    u, v = threshold_edges(pts, 1.0, params)
    return chi_from_bitsets(neighbour_bitsets(u, v, len(pts)))


def _add_one_change(offsets, epsilon) -> int:
    """chi(with v) - chi(without v) for v = (0.5, 0.5) and its neighbours at
    the given offsets, as fractions of the threshold t = 2 epsilon."""
    params = ComplexParams(epsilon=epsilon)  # max-norm, adjacent below t
    t = params.threshold()
    others = [(0.5 + x * t, 0.5 + y * t) for x, y in offsets]
    return _chi(others + [(0.5, 0.5)], params) - _chi(others, params)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
                .filter(lambda xy: xy != (0.0, 0.0)),
                max_size=13, unique=True),
       st.sampled_from([0.01, 0.05, 0.1, 1 / 6]))
def test_property_adding_a_point_raises_chi2d_by_at_most_2(offsets, epsilon):
    # chi2d_tail_bound's upper tail needs only the upward change, 1 - chi of
    # the new point's link, at d = 2 under the max-norm with t <= a/3
    assert _add_one_change(offsets, epsilon) <= 2


def test_four_corner_neighbours_lower_chi2d_by_3():
    # four pairwise non-adjacent neighbours near the corners of the box: the
    # link is four points, so adding the centre lowers chi by 1 - 4
    corners = [(0.9, 0.9), (0.9, -0.9), (-0.9, 0.9), (-0.9, -0.9)]
    assert _add_one_change(corners, 0.05) == -3


def _beta0(points, params) -> int:
    u, v = threshold_edges(points, 1.0, params)
    return len(components(neighbour_bitsets(u, v, len(points))))


def _beta0_add_one_change(offsets, d, epsilon) -> int:
    """beta_0(with v) - beta_0(without v) for v at the centre of the unit
    d-torus and the other points at the given offsets from it, as fractions
    of the threshold t = 2 epsilon."""
    params = ComplexParams(epsilon=epsilon)  # max-norm, adjacent below t
    t = params.threshold()
    others = 0.5 + np.asarray(offsets, dtype=float).reshape(-1, d) * t
    with_v = np.vstack((others, np.full((1, d), 0.5)))
    return _beta0(with_v, params) - _beta0(others, params)


@st.composite
def beta0_neighbourhoods(draw):
    """A dimension d and up to 16 distinct offsets other than 0 in
    [-1.4, 1.4]^d: neighbours of the centre (inside (-1, 1)^d) and points
    beyond that can join them (at t <= 1/3 none wraps round the torus)."""
    d = draw(st.sampled_from([1, 2, 3]))
    offsets = draw(st.lists(st.tuples(*[st.floats(-1.4, 1.4)] * d)
                            .filter(lambda off: any(off)), max_size=16, unique=True))
    return d, offsets


@settings(max_examples=300, deadline=None)
@given(beta0_neighbourhoods(), st.sampled_from([0.01, 0.05, 0.1, 1 / 6]))
def test_property_adding_a_point_raises_beta0_by_at_most_the_constant(case, epsilon):
    # beta0_tail_bound's constant (2^d - 1)^2 is the largest change of beta_0
    # when one point is added, at d in {1, 2, 3} under the max-norm with
    # t <= a/3.  The new point adds one component and merges those of its
    # neighbours, of which at most 2^d are pairwise apart (one per half-open
    # orthant of its box), so the change lies in [1 - 2^d, 1].
    d, offsets = case
    change = _beta0_add_one_change(offsets, d, epsilon)
    assert change <= (2 ** d - 1) ** 2
    assert 1 - 2 ** d <= change <= 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_corner_neighbours_lower_beta0_by_2d_minus_1(d):
    # the largest drop: 2^d pairwise non-adjacent neighbours near the corners
    # of the box merge into one component with the centre; a point with no
    # neighbour raises beta_0 by 1
    corners = list(itertools.product([-0.9, 0.9], repeat=d))
    assert _beta0_add_one_change(corners, d, 0.05) == 1 - 2 ** d
    assert _beta0_add_one_change([], d, 0.05) == 1
