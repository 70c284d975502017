import math

import pytest

from torushom.moments import ModelParams
from torushom.tails import beta0_tail_bound, chi2d_tail_bound
from torushom.torus import TorusSpec

P1 = ModelParams(lam=10.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.05)


def test_beta0_bound_frozen_value():
    # d = 1, lam = 10, y = 20: u = 10, v = (2^1-1)^2 * 10 = 10, so the
    # bound is exp(-5 log 2) = 2^-5
    assert beta0_tail_bound(P1, 20.0) == pytest.approx(0.03125, abs=1e-12)


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
