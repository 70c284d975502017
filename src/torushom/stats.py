"""Statistical utilities: normal quantile and Wasserstein-1 normality gap.

The standard-normal quantile uses Wichura's PPND16 rational approximation
(Algorithm AS 241), accurate to well below 1e-8 over (0, 1), so no external
special-function dependency is needed.
"""

from __future__ import annotations

import math

import numpy as np

# the smallest sample ``wasserstein1_to_normal`` accepts
MIN_NORMALITY_SAMPLE = 100

_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
      1.9715909503065514427e3, 1.3731693765509461125e4,
      4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4,
      3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
      5.76949722146069140550e0, 3.64784832476320460504e0,
      1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
      1.78482653991729133580e0, 2.96560571828504891230e-1,
      2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4,
      1.84631831751005468180e-6, 1.42151175831644588870e-9,
      2.04426310338993978564e-15)


def _ratpoly(coeffs_num, coeffs_den, r: float) -> float:
    num = 0.0
    den = 0.0
    for c in reversed(coeffs_num):
        num = num * r + c
    for c in reversed(coeffs_den):
        den = den * r + c
    return num / den


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (PPND16 / AS 241)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _ratpoly(_A, _B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        val = _ratpoly(_C, _D, r - 1.6)
    else:
        val = _ratpoly(_E, _F, r - 5.0)
    return -val if q < 0.0 else val


def wasserstein1_to_normal(sample) -> float:
    """Empirical Wasserstein-1 distance to the standard normal.

    Order statistics are compared with the standard-normal quantiles at
    plotting positions (i - 0.5)/m: value = mean |x_(i) - Phi^{-1}((i-0.5)/m)|.
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    m = xs.size
    if m < MIN_NORMALITY_SAMPLE:
        raise ValueError(f"need at least {MIN_NORMALITY_SAMPLE} values, got {m}")
    if xs[0] == xs[-1]:
        raise ValueError("degenerate (constant) sample")
    qs = np.array([normal_quantile((i - 0.5) / m) for i in range(1, m + 1)])
    return float(np.mean(np.abs(xs - qs)))
