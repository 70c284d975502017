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
    bound compares against that proxy.  The constant (2^d - 1)^2 comes from
    the maximal change in beta_0 when one point is added.
    """
    d, a = params.spec.d, params.spec.a
    mean_proxy = params.lam * a ** d
    if y <= mean_proxy:
        raise ValueError(
            f"bound valid only above the mean proxy lambda*a^d = {mean_proxy}")
    u = y - mean_proxy
    v = (2 ** d - 1) ** 2 * params.lam
    return math.exp(-(u / 2.0) * math.log1p(u / v))


def chi2d_tail_bound(var_chi: float, x: float) -> float:
    """Upper bound on P(chi - E[chi] >= x) on the 2-torus.

    Uses that adding one point changes chi by at most 2.
    """
    if x <= 0.0:
        raise ValueError("deviation x must be positive")
    if var_chi <= 0.0:
        raise ValueError("var_chi must be positive")
    return math.exp(-(x / 4.0) * math.log1p(2.0 * x / var_chi))
