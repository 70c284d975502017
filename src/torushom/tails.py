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
    bound compares against that proxy.  It is Wu's concentration inequality
    for Poisson functionals (Wu, PTRF 118, 2000; Houdre & Privault,
    Bernoulli 8, 2002), exp(-(u / 2 beta) log(1 + beta u / alpha^2)), in
    which beta bounds the rise of F when a point is added and alpha^2
    bounds the integral of (D_x F)^2 over the intensity lambda dx, almost
    surely.  For beta_0, beta = 1: a new point adds one component and only
    merges others.  A new point that joins 2^d components into one drops
    beta_0 by 2^d - 1, the largest change either way, so (D_x F)^2 is at
    most (2^d - 1)^2 and, over the torus of volume a^d,
    alpha^2 = (2^d - 1)^2 lambda a^d.
    """
    d, a = params.spec.d, params.spec.a
    mean_proxy = params.lam * a ** d
    if not y > mean_proxy:  # NaN fails too
        raise ValueError(
            f"bound valid only above the mean proxy lambda*a^d = {mean_proxy}")
    u = y - mean_proxy
    v = (2 ** d - 1) ** 2 * mean_proxy
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
