"""Concentration bounds for beta_0 and for the Euler characteristic (d = 2).

Both bounds are of the Poisson-functional concentration type
exp(-(u/c) * log(1 + u/v)): super-exponential upper bounds on the upper
tail, valid above the stated centering.
"""

from __future__ import annotations

import math

from .moments import ModelParams


def beta0_tail_bound(params: ModelParams, y: float) -> float:
    """Upper bound on P(beta_0 >= y), valid for y > lambda * a^d.

    beta_0 is at most the number of points, whose mean is lambda * a^d; the
    bound compares against that proxy.  The constant (2^d - 1)^2 is the
    square of the largest drop of beta_0 when one point is added, 2^d - 1,
    when the point joins 2^d components into one; beta_0 rises by at most
    1, since a new point adds one component and only merges others.
    """
    d, a = params.spec.d, params.spec.a
    mean_proxy = params.lam * a ** d
    if not y > mean_proxy:  # NaN fails too
        raise ValueError(
            f"bound valid only above the mean proxy lambda*a^d = {mean_proxy}")
    u = y - mean_proxy
    v = (2 ** d - 1) ** 2 * params.lam
    return math.exp(-(u / 2.0) * math.log1p(u / v))


def chi2d_tail_bound(var_chi: float, x: float) -> float:
    """Upper bound on P(chi - E[chi] >= x) on the 2-torus.

    Uses that adding one point raises chi by at most 2: adding v changes chi
    by 1 - chi(link of v), and the upper tail needs only that upward change.
    Adding a point can lower chi by more (by 3 when four pairwise
    non-adjacent neighbours lie near the corners of its box).
    """
    if not x > 0.0:  # NaN fails too
        raise ValueError(f"deviation x must be positive, got {x}")
    if not 0.0 < var_chi < math.inf:
        raise ValueError(f"var_chi must be positive and finite, got {var_chi}")
    return math.exp(-(x / 4.0) * math.log1p(2.0 * x / var_chi))
