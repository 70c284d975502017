import math
from fractions import Fraction

import pytest
import sympy

from oracles import slot_partition_weights
from torushom.joracle import JEstimate, OverlapPattern, j_oracle_mc
from torushom.moments import (ModelParams, MomentKind, MomentValue,
                              _default_j_oracle, _overlap_patterns,
                              alpha_beta_coeffs,
                              bell_exponential, bell_polynomial,
                              c_coefficient, cov_Nk_Nl,
                              euclid_remark_moments, fourth_moment_Nk,
                              j2_closed_form, mean_Nk, mean_Nk_binomial,
                              mean_chi, mean_chi_binomial, nth_moment_assembler,
                              stirling2, third_moment_Nk, var_chi_1d,
                              var_chi_series)
from torushom.sampling import SeedSpec
from torushom.torus import TorusSpec

SPEC1 = TorusSpec(d=1, a=1.0)
SPEC2 = TorusSpec(d=2, a=1.0)
P1 = ModelParams(lam=30.0, spec=SPEC1, epsilon=0.05)  # x = 3


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(lam=0.0, spec=SPEC1, epsilon=0.05)
    with pytest.raises(ValueError):
        ModelParams(lam=10.0, spec=SPEC1, epsilon=0.25)  # eps = a/4
    assert P1.x == pytest.approx(3.0)


def test_moment_value_variance_guard():
    with pytest.raises(ValueError):
        MomentValue(value=-1.0, kind=MomentKind.VARIANCE)


def test_stirling_numbers():
    # rows of the classical table
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert [stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert stirling2(0, 0) == 1
    # Bell numbers as row sums
    assert sum(stirling2(6, k) for k in range(7)) == 203


def test_bell_polynomials():
    for x in (0.3, 1.0, 2.5):
        assert bell_polynomial(1, x) == pytest.approx(x)
        assert bell_polynomial(2, x) == pytest.approx(x + x ** 2)
        assert bell_polynomial(3, x) == pytest.approx(x + 3 * x ** 2 + x ** 3)
        for n in range(5):
            assert bell_exponential(n, x) == pytest.approx(
                bell_polynomial(n, x), rel=1e-10)


def test_mean_Nk_values():
    # lam * a * x^{k-1} * k / k! with x = 3
    assert mean_Nk(P1, 1).value == pytest.approx(30.0)
    assert mean_Nk(P1, 2).value == pytest.approx(90.0)
    assert mean_Nk(P1, 3).value == pytest.approx(135.0)
    p2 = ModelParams(lam=30.0, spec=SPEC2, epsilon=0.05)
    assert p2.x == pytest.approx(0.3)
    assert mean_Nk(p2, 2).value == pytest.approx(30.0 * 0.3 * 4 / 2)


def test_mean_Nk_binomial_values():
    assert mean_Nk_binomial(SPEC1, 0.05, 3, 1).value == pytest.approx(3.0)
    assert mean_Nk_binomial(SPEC1, 0.05, 3, 2).value == pytest.approx(0.6)
    assert mean_Nk_binomial(SPEC1, 0.05, 3, 3).value == pytest.approx(0.03)
    assert mean_Nk_binomial(SPEC1, 0.05, 3, 4).value == 0.0


def test_mean_chi_closed_form():
    # d = 1: chi mean = a lam e^{-2 lam eps}
    mv = mean_chi(P1)
    assert mv.value == pytest.approx(30.0 * math.exp(-3.0), abs=1e-12)
    assert mv.value == pytest.approx(1.4936120510359183, abs=1e-12)
    # alternating series over mean simplex counts must agree
    assert mv.truncation["alternating_series_value"] == pytest.approx(
        mv.value, rel=1e-9)


def test_mean_chi_d2_d3():
    p2 = ModelParams(lam=30.0, spec=SPEC2, epsilon=0.05)
    x = p2.x
    expected = 30.0 * math.exp(-x) * (1.0 - x)
    mv = mean_chi(p2)
    assert mv.value == pytest.approx(expected, rel=1e-12)
    p3 = ModelParams(lam=30.0, spec=TorusSpec(d=3, a=1.0), epsilon=0.05)
    x3 = p3.x
    assert mean_chi(p3).value == pytest.approx(
        30.0 * math.exp(-x3) * (1.0 - 3.0 * x3 + x3 ** 2), rel=1e-12)


def test_mean_chi_binomial():
    # n = 3, d = 1, 2 eps = 0.1: 3 - 3*2*0.1 + 3*0.01 = 2.43
    assert mean_chi_binomial(SPEC1, 0.05, 3).value == pytest.approx(2.43)
    assert mean_chi_binomial(SPEC1, 0.05, 0).value == 0.0
    assert mean_chi_binomial(SPEC1, 0.05, 1).value == pytest.approx(1.0)


def test_j2_closed_form_values():
    assert j2_closed_form(1, 1, 1, SPEC1, 0.05) == pytest.approx(0.04)
    # shared edge only (m1 = m2 = 0): J = m12 * a * (2eps)^{m12-1} base m12
    assert j2_closed_form(0, 0, 2, SPEC1, 0.05) == pytest.approx(2 * 0.1)
    with pytest.raises(ValueError):
        j2_closed_form(1, 1, 0, SPEC1, 0.05)


def test_covariances():
    assert cov_Nk_Nl(P1, 2, 1).value == pytest.approx(180.0)
    assert cov_Nk_Nl(P1, 1, 2).value == pytest.approx(180.0)  # symmetric
    assert cov_Nk_Nl(P1, 2, 2).value == pytest.approx(1170.0)
    # Var N_1 = lam a^d for a Poisson count
    assert cov_Nk_Nl(P1, 1, 1).value == pytest.approx(30.0)
    assert cov_Nk_Nl(P1, 1, 1).kind is MomentKind.VARIANCE
    assert cov_Nk_Nl(P1, 2, 1).kind is MomentKind.COVARIANCE


def test_variance_assembler_matches_covariance_diagonal():
    for k in (1, 2, 3, 4):
        direct = cov_Nk_Nl(P1, k, k).value
        assembled = nth_moment_assembler(P1, k, 2).value
        assert assembled == pytest.approx(direct, rel=1e-9)


def test_c_coefficients():
    assert c_coefficient(1, 1) == 1
    assert c_coefficient(1, 2) == 1
    assert c_coefficient(2, 1) == -3
    for n in range(1, 21):
        alpha, beta = alpha_beta_coeffs(n)
        assert c_coefficient(n, 1) == alpha + beta


def _chi_variance_coefficient(n: int, d: int) -> Fraction:
    """x^{n-1} coefficient of sum_{k,l} (-1)^{k+l} Cov(N_k, N_l) / (lam a^d),
    from the terms cov_Nk_Nl sums: x^{k+l-i-1} base^d / (i! (k-i)! (l-i)!)."""
    total = Fraction(0)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            i = k + l - n
            if 1 <= i <= min(k, l):
                base = (Fraction(k + l - i)
                        + Fraction(2 * (k - i) * (l - i), i + 1))
                total += Fraction((-1) ** (k + l), math.factorial(i)
                                  * math.factorial(k - i)
                                  * math.factorial(l - i)) * base ** d
    return total


def test_c_coefficients_are_the_covariance_sum():
    for d in (1, 2, 3):
        for n in range(1, 16):
            assert c_coefficient(n, d) == _chi_variance_coefficient(n, d)


def test_alpha_beta_match_sympy_series():
    x = sympy.symbols("x")
    top = 20
    alpha_gf = -x * sympy.exp(-x) + 2 * x * sympy.exp(-2 * x)
    beta_gf = 2 * x * sympy.exp(-x) - 2 * (x + x ** 2) * sympy.exp(-2 * x)
    alpha_poly = sympy.series(alpha_gf, x, 0, top + 1).removeO()
    beta_poly = sympy.series(beta_gf, x, 0, top + 1).removeO()
    for n in range(top + 1):
        assert alpha_beta_coeffs(n) == (Fraction(str(alpha_poly.coeff(x, n))),
                                        Fraction(str(beta_poly.coeff(x, n))))


def test_var_chi_series_matches_closed_form_1d():
    closed = var_chi_1d(P1).value
    assert closed == pytest.approx(
        30 * math.exp(-3.0) - 180 * math.exp(-6.0), abs=1e-12)
    series = var_chi_series(P1, 40)
    assert series.value == pytest.approx(closed, rel=1e-10)
    # heavy truncation reported, not hidden
    short = var_chi_series(P1, 3)
    assert short.truncation["terms"] == 3
    assert short.value != pytest.approx(closed, rel=1e-3)


def test_var_chi_1d_requires_d1():
    with pytest.raises(ValueError):
        var_chi_1d(ModelParams(lam=10.0, spec=SPEC2, epsilon=0.05))


def test_third_moment_k1_is_poisson_cumulant():
    # all k = 1 overlap integrals are exact under the MC oracle, so the
    # third central moment of the point count must be exactly lam a^d
    p = ModelParams(lam=20.0, spec=SPEC1, epsilon=0.05)
    mv = third_moment_Nk(p, 1, oracle_samples=10_000, seed=SeedSpec(1))
    assert mv.value == pytest.approx(20.0, abs=1e-9)
    # hit fraction is exactly 1, so only the conservative 1/samples floor
    # contributes to the reported oracle noise
    assert mv.truncation["oracle_stderr"] < 0.01


def test_fourth_moment_k1_is_poisson_cumulant():
    # fourth central moment of Poisson(mu) is mu + 3 mu^2
    p = ModelParams(lam=20.0, spec=SPEC1, epsilon=0.05)
    mv = fourth_moment_Nk(p, 1, oracle_samples=10_000, seed=SeedSpec(2))
    assert mv.value == pytest.approx(20.0 + 3 * 400.0, abs=1e-6)


def test_assembler_rejects_orders_below_two():
    for n in (0, 1):
        with pytest.raises(ValueError):
            nth_moment_assembler(P1, 2, n)


def test_assembler_k1_gives_poisson_central_moments():
    # N_1 is Poisson(m), m = lam a^d; its central moments are sums of m^b
    # over set partitions of n items into b blocks, none a singleton
    p = ModelParams(lam=20.0, spec=SPEC1, epsilon=0.05)
    m = 20.0
    poisson = {2: m, 3: m, 4: m + 3 * m ** 2, 5: m + 10 * m ** 2,
               6: m + 25 * m ** 2 + 15 * m ** 3}
    for n, expected in poisson.items():
        mv = nth_moment_assembler(p, 1, n, oracle_samples=10,
                                  seed=SeedSpec(n))
        assert mv.value == pytest.approx(expected, rel=1e-9)


def test_overlap_patterns_match_slot_partitions():
    for n in range(2, 10):
        for k in range(1, 9 // n + 1):
            listed = {(shared, M): weight
                      for shared, weight, M in _overlap_patterns(n, k)}
            assert listed == slot_partition_weights(n, k), (n, k)


def test_overlap_pattern_counts():
    # merged signatures of the former hand-written n = 3 and n = 4 terms
    assert [len(_overlap_patterns(3, k)) for k in (1, 2, 3)] == [1, 9, 29]
    assert [len(_overlap_patterns(4, k)) for k in (1, 2, 3)] == [4, 90, 727]


def test_third_moment_with_injected_oracle():
    # injecting a deterministic oracle makes the assembly reproducible and
    # shows the lambda^M bookkeeping: J = 1 for every pattern turns the sum
    # into the pure combinatorial weight polynomial in lambda
    p = ModelParams(lam=2.0, spec=SPEC1, epsilon=0.05)
    seen = []

    def unit_oracle(pattern):
        seen.append(pattern)
        return JEstimate(value=1.0, stderr=0.0, samples=0)

    mv = third_moment_Nk(p, 2, j_oracle=unit_oracle)
    assert len(seen) > 1
    assert mv.truncation["oracle_stderr"] == 0.0
    assert math.isfinite(mv.value)
    for pattern in seen:
        assert pattern.sizes == (2, 2, 2)
        pattern.validate()


def test_default_oracle_multiplies_overlap_components():
    p = ModelParams(lam=20.0, spec=TorusSpec(d=3, a=1.0), epsilon=0.05)
    oracle = _default_j_oracle(p, 10, SeedSpec(0))
    est = oracle(OverlapPattern.make((2, 2, 2, 2), {(0, 1): 1, (2, 3): 1}))
    assert est.stderr == 0.0 and est.samples == 0
    assert est.value == j2_closed_form(1, 1, 1, p.spec, 0.05) ** 2


def test_fourth_moment_at_d3_fits_the_oracle_cap():
    # M * d reaches 24 at d = 3; components and the circle keep every
    # Monte Carlo integral within the cap
    p = ModelParams(lam=20.0, spec=TorusSpec(d=3, a=1.0), epsilon=0.05)
    mv = fourth_moment_Nk(p, 2, oracle_samples=10)
    assert math.isfinite(mv.value)
    assert math.isfinite(mv.truncation["oracle_stderr"])


def test_zero_hit_component_keeps_a_nonzero_error_at_d3():
    # a triangle of edges at a tiny epsilon: ten circle samples find no hit,
    # and J_1^3 = 0 must still carry the error of the circle estimate
    p = ModelParams(lam=20.0, spec=TorusSpec(d=3, a=1.0), epsilon=1e-6)
    pattern = OverlapPattern.make((2, 2, 2), {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    est = _default_j_oracle(p, 10, SeedSpec(0))(pattern)
    circle = j_oracle_mc(pattern, TorusSpec(d=1, a=1.0), 1e-6, 10,
                         SeedSpec(0).child("j_oracle", 1))
    assert circle.value == 0.0 and est.value == 0.0
    assert est.stderr == circle.stderr ** 3 > 0.0


def test_default_oracle_is_the_circle_integral_to_the_power_d():
    # three edges closing a triangle: one component, J_2 = J_1^2 for max-norm
    p = ModelParams(lam=20.0, spec=SPEC2, epsilon=0.1)
    pattern = OverlapPattern.make((2, 2, 2), {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    est = _default_j_oracle(p, 200_000, SeedSpec(3))(pattern)
    direct = j_oracle_mc(pattern, SPEC2, 0.1, 200_000, SeedSpec(4))
    assert abs(est.value - direct.value) < 4 * math.hypot(est.stderr, direct.stderr)


def test_euclid_remark_moments():
    vals = euclid_remark_moments(SPEC2, lam=10.0, epsilon=0.05)
    assert vals["EN2"] == pytest.approx(math.pi * (10.0 * 0.05) ** 2 / 2.0)
    c3 = math.pi - 3.0 * math.sqrt(3.0) / 4.0
    assert vals["EN3"] == pytest.approx(
        math.pi * c3 * 1000.0 * 0.05 ** 4 / 6.0)
    assert vals["VarN2"] > 0 and vals["VarN3"] > 0
    with pytest.raises(ValueError):
        euclid_remark_moments(SPEC1, 10.0, 0.05)
