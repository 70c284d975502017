import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from oracles import (bell_exponential, chi_alternating_series,
                     chi_binomial_alternating_sum,
                     full_dimension_overlap_integral, slot_partition_weights,
                     window_clique_counts)
from torushom.complexes import ComplexParams
from torushom.harness import ExperimentConfig, run_experiment
from torushom.joracle import JEstimate, OverlapPattern, j_oracle_mc
from torushom.moments import (VAR_CHI_MAX_TERMS, ModelParams, MomentKind,
                              MomentValue, _default_j_oracle, _overlap_components,
                              _overlap_patterns, alpha_beta_coeffs,
                              bell_polynomial,
                              c_coefficient, clique_block_integral, cov_Nk_Nl,
                              euclid_remark_moments, fourth_moment_Nk,
                              j2_closed_form, mean_Nk, mean_Nk_binomial,
                              mean_chi, mean_chi_binomial, nth_moment_assembler,
                              stirling2, third_moment_Nk, var_chi_1d,
                              var_chi_series)
from torushom.sampling import Poisson, SeedSpec, sample_run
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
    assert mv.truncation is None
    # the exact alternating series over mean simplex counts must agree
    assert mv.value == pytest.approx(float(chi_alternating_series(P1)),
                                     rel=1e-12)


def test_mean_chi_large_x_is_the_bell_value():
    # x = 100: the terms of the alternating series reach 1e41, the sum 4e-41
    p = ModelParams(lam=1000.0, spec=SPEC1, epsilon=0.05)
    assert p.x == pytest.approx(100.0)
    assert mean_chi(p).value == pytest.approx(10.0 * 100.0 * math.exp(-100.0),
                                              rel=1e-12)
    assert mean_chi(p).value == pytest.approx(
        float(chi_alternating_series(p)), rel=1e-12)


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


@pytest.mark.parametrize("eps", (-0.1, 0.0, 0.25, 0.4, math.nan))
def test_binomial_means_check_epsilon(eps):
    # the same range as ModelParams: 0 < eps < a/4
    with pytest.raises(ValueError, match="epsilon"):
        mean_Nk_binomial(SPEC1, eps, 10, 2)
    with pytest.raises(ValueError, match="epsilon"):
        mean_chi_binomial(SPEC1, eps, 10)


def test_mean_chi_binomial():
    # n = 3, d = 1, 2 eps = 0.1: 3 - 3*2*0.1 + 3*0.01 = 2.43
    assert mean_chi_binomial(SPEC1, 0.05, 3).value == pytest.approx(2.43)
    assert mean_chi_binomial(SPEC1, 0.05, 0).value == 0.0
    assert mean_chi_binomial(SPEC1, 0.05, 1).value == pytest.approx(1.0)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("eps", (0.01, 0.05, 0.2))
def test_mean_chi_binomial_matches_exact_alternating_sum(d, eps):
    # the d-term closed form against the n-term alternating sum, summed in
    # exact rationals; the tolerance is relative to the largest closed-form
    # term, since at d >= 2 the terms can cancel to a tiny mean
    spec = TorusSpec(d=d, a=1.0)
    if 2.0 * eps > 1.0 / 3.0:  # a Cech form, which declines t > a/3
        with pytest.raises(ValueError, match="a/3"):
            mean_chi_binomial(spec, eps, 20)
        return
    p = (2.0 * eps) ** d
    for n in (0, 1, 2, 3, 5, 20, 100, 300, 1000):
        largest = max((stirling2(d, j) * math.perm(n, j) * p ** (j - 1)
                       * (1.0 - p) ** (n - j)
                       for j in range(1, min(d, n) + 1)), default=0.0)
        exact = float(chi_binomial_alternating_sum(spec, eps, n))
        value = mean_chi_binomial(spec, eps, n).value
        assert abs(value - exact) <= 1e-12 * largest, (n, value, exact)


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
    # every coefficient that var_chi_series may sum at d = 1
    for n in range(1, VAR_CHI_MAX_TERMS + 1):
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
    series = var_chi_series(P1)
    assert series.kind is MomentKind.VARIANCE
    assert series.value == pytest.approx(closed, rel=1e-12)
    assert series.truncation == {"terms": 49}


@pytest.mark.parametrize("lam", (20.0, 100.0))
def test_var_chi_series_converges_to_closed_form_1d(lam):
    # x = 2 and x = 10, whose partial sums are still negative at 60 terms
    params = ModelParams(lam=lam, spec=SPEC1, epsilon=0.05)
    series = var_chi_series(params)
    assert series.kind is MomentKind.VARIANCE
    assert series.value == pytest.approx(var_chi_1d(params).value, rel=1e-12)


def test_var_chi_series_raises_when_not_converged():
    # x = 100 needs far more terms than the module's budget
    params = ModelParams(lam=1000.0, spec=SPEC1, epsilon=0.05)
    with pytest.raises(ValueError, match="not converged"):
        var_chi_series(params)


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
    est = oracle(OverlapPattern.make((2, 2, 2, 2), [((0, 1), 1), ((2, 3), 1)]))
    assert est.stderr == 0.0 and est.samples == 0
    assert est.value == j2_closed_form(1, 1, 1, p.spec, 0.05) ** 2


def test_fourth_moment_at_d3_fits_the_oracle_cap():
    # M * d reaches 24 at d = 3; components and the circle keep every
    # Monte Carlo integral within the cap
    p = ModelParams(lam=20.0, spec=TorusSpec(d=3, a=1.0), epsilon=0.05)
    mv = fourth_moment_Nk(p, 2, oracle_samples=10)
    assert math.isfinite(mv.value)
    assert math.isfinite(mv.truncation["oracle_stderr"])


# four edges closing a 4-cycle: one component whose block is no clique, so
# the default oracle takes it by Monte Carlo
C4 = OverlapPattern.make((2, 2, 2, 2),
                         [((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), 1)])
TRIANGLE = OverlapPattern.make((2, 2, 2), [((0, 1), 1), ((1, 2), 1), ((0, 2), 1)])


def test_zero_hit_component_keeps_a_nonzero_error_at_d3():
    # a 4-cycle of edges at a tiny epsilon: ten circle samples find no hit,
    # and J_1^3 = 0 must still carry the error of the circle estimate
    p = ModelParams(lam=20.0, spec=TorusSpec(d=3, a=1.0), epsilon=1e-6)
    est = _default_j_oracle(p, 10, SeedSpec(0))(C4)
    circle = j_oracle_mc(C4, TorusSpec(d=1, a=1.0), 1e-6, 10,
                         SeedSpec(0).child("j_oracle", 1))
    assert circle.value == 0.0 and est.value == 0.0
    assert est.stderr == circle.stderr ** 3 > 0.0


def test_default_oracle_is_the_circle_integral_to_the_power_d():
    # a 4-cycle of edges: one component, J_2 = J_1^2 for max-norm, against a
    # plain estimate over all M*d = 8 coordinates
    p = ModelParams(lam=20.0, spec=SPEC2, epsilon=0.1)
    est = _default_j_oracle(p, 200_000, SeedSpec(3))(C4)
    value, se = full_dimension_overlap_integral(
        C4, SPEC2, 0.1, 200_000, SeedSpec(4).generator())
    assert abs(est.value - value) < 4 * math.hypot(est.stderr, se)


def _components(n, k):
    """The distinct overlap components of n (k-1)-simplices."""
    return sorted({c for shared, _, _ in _overlap_patterns(n, k)
                   for c in _overlap_components(
                       OverlapPattern.make((k,) * n, shared))},
                  key=repr)


def test_clique_block_integrals_match_monte_carlo():
    # eps = 0.15 keeps t = 0.3 <= a/3 with hit fractions that Monte Carlo
    # resolves; every covered component of three or more simplices is checked
    checked = 0
    for n, k in ((3, 2), (3, 3), (4, 2)):
        for i, comp in enumerate(_components(n, k)):
            exact = clique_block_integral(comp, SPEC1, 0.15)
            if exact is None or len(comp.sizes) == 2:
                continue
            est = j_oracle_mc(comp, SPEC1, 0.15, 100_000,
                              SeedSpec(900 + 100 * n + 10 * k, i))
            assert abs(exact - est.value) <= 4 * est.stderr, (comp, exact, est)
            checked += 1
    assert checked == 9 + 9 + 75


def test_clique_block_integral_equals_the_two_simplex_closed_form():
    # where both apply: one shared point, or one simplex inside the other
    for m1, m2, m12 in ((1, 1, 1), (2, 2, 1), (1, 3, 1), (0, 2, 2), (0, 1, 1),
                        (3, 0, 1), (0, 0, 3)):
        pattern = OverlapPattern.make((m1 + m12, m2 + m12), [((0, 1), m12)])
        for d in (1, 2, 3):
            spec = TorusSpec(d=d, a=1.3)
            assert clique_block_integral(pattern, spec, 0.07) == pytest.approx(
                j2_closed_form(m1, m2, m12, spec, 0.07), rel=1e-12)


def test_clique_block_integral_declines_other_blocks():
    # the 4-cycle and K4 - e (two triangles on an edge) are blocks but not
    # cliques; a triangle beyond t = a/3 no longer behaves as on the line
    assert clique_block_integral(C4, SPEC1, 0.05) is None
    assert clique_block_integral(OverlapPattern.make((3, 3), [((0, 1), 2)]),
                                 SPEC1, 0.05) is None
    assert clique_block_integral(TRIANGLE, SPEC1, 0.05) == pytest.approx(
        3 * 0.1 ** 2, rel=1e-12)
    assert clique_block_integral(TRIANGLE, SPEC1, 0.2) is None


def test_triangle_component_beyond_a_third_falls_back_to_monte_carlo():
    p = ModelParams(lam=20.0, spec=SPEC1, epsilon=0.2)
    est = _default_j_oracle(p, 1_000, SeedSpec(6))(TRIANGLE)
    circle = j_oracle_mc(TRIANGLE, SPEC1, 0.2, 1_000,
                         SeedSpec(6).child("j_oracle", 1))
    assert est == circle and est.samples == 1_000


def test_exact_components_advance_the_stream_counter():
    # a Monte Carlo component takes the stream of its place among all the
    # components of three or more simplices, exact ones included
    p = ModelParams(lam=20.0, spec=SPEC1, epsilon=0.05)
    oracle = _default_j_oracle(p, 1_000, SeedSpec(7))
    assert oracle(TRIANGLE).samples == 0
    assert oracle(C4) == j_oracle_mc(C4, SPEC1, 0.05, 1_000,
                                     SeedSpec(7).child("j_oracle", 2))


def test_third_moment_of_N2_is_exact_and_counts_its_components():
    p = ModelParams(lam=20.0, spec=SPEC1, epsilon=0.05)
    mv = third_moment_Nk(p, 2, seed=SeedSpec(1))
    assert mv.value == pytest.approx(6360.0, rel=1e-12)
    assert mv.truncation == {"oracle_stderr": 0.0, "exact_components": 9,
                             "mc_components": 0}
    # N_3: 9 of 29 components exact; fourth moment of N_2: the 24 two-simplex
    # components and 75 of the other 78 exact
    trunc = third_moment_Nk(p, 3, oracle_samples=10).truncation
    assert (trunc["exact_components"], trunc["mc_components"]) == (9, 20)
    trunc = fourth_moment_Nk(p, 2, oracle_samples=10).truncation
    assert (trunc["exact_components"], trunc["mc_components"]) == (99, 3)


def test_assembler_checks_the_sample_count_before_any_pattern():
    # no component of the third moment of N_2 is sampled, and still
    for samples in (0, -5):
        with pytest.raises(ValueError, match="oracle_samples"):
            third_moment_Nk(P1, 2, oracle_samples=samples)


def test_euclid_remark_moments():
    vals = euclid_remark_moments(SPEC2, lam=10.0, epsilon=0.05)
    assert vals["EN2"] == pytest.approx(math.pi * (10.0 * 0.05) ** 2 / 2.0)
    c3 = math.pi - 3.0 * math.sqrt(3.0) / 4.0
    assert vals["EN3"] == pytest.approx(
        math.pi * c3 * 1000.0 * 0.05 ** 4 / 6.0)
    assert vals["VarN2"] > 0 and vals["VarN3"] > 0
    with pytest.raises(ValueError):
        euclid_remark_moments(SPEC1, 10.0, 0.05)


@pytest.mark.parametrize("eps", (-0.1, 0.0, 0.25, math.nan))
def test_euclid_remark_moments_check_epsilon(eps):
    # the variances use the pairwise threshold 2 eps, which must stay below
    # a/2, so the range is that of ModelParams: 0 < eps < a/4
    with pytest.raises(ValueError, match="epsilon"):
        euclid_remark_moments(SPEC2, 10.0, eps)


# Values that used to raise OverflowError: their numerators alone do not fit
# a float.  References computed exactly, to be met to 1e-12 relative.
P_LARGE = ModelParams(lam=1000.0, spec=SPEC1, epsilon=0.05)
LARGE_MEANS = [
    pytest.param(lambda: mean_Nk(P_LARGE, 200), 2.5359539069622313e28, id="mean_Nk"),
    pytest.param(lambda: mean_Nk_binomial(SPEC1, 0.05, 2000, 300),
                 1.0841414987809494e69, id="mean_Nk_binomial"),
    pytest.param(lambda: cov_Nk_Nl(P_LARGE, 200, 200), 8.9168098649918700e130,
                 id="cov_Nk_Nl"),
]


@pytest.mark.parametrize("moment, reference", LARGE_MEANS)
def test_large_means_do_not_overflow(moment, reference):
    assert moment().value == pytest.approx(reference, rel=1e-12)


# t = 2 eps = 0.4 > a/3: three arcs of length t cover the circle, so a
# triangle of the Rips complex need not be a Cech simplex
P_WIDE = ModelParams(lam=10.0, spec=SPEC1, epsilon=0.2)
CECH_FORMS = [
    pytest.param(lambda: mean_Nk(P_WIDE, 3), id="mean_Nk"),
    pytest.param(lambda: mean_Nk_binomial(SPEC1, 0.2, 20, 3), id="mean_Nk_binomial"),
    pytest.param(lambda: mean_chi(P_WIDE), id="mean_chi"),
    pytest.param(lambda: mean_chi_binomial(SPEC1, 0.2, 20), id="mean_chi_binomial"),
    pytest.param(lambda: var_chi_series(P_WIDE), id="var_chi_series"),
    pytest.param(lambda: var_chi_1d(P_WIDE), id="var_chi_1d"),
    pytest.param(lambda: cov_Nk_Nl(P_WIDE, 3, 1), id="cov_Nk_Nl(3,1)"),
    pytest.param(lambda: cov_Nk_Nl(P_WIDE, 2, 3), id="cov_Nk_Nl(2,3)"),
    # the default overlap oracle's j2_closed_form, for two simplices with a
    # triangle
    pytest.param(lambda: third_moment_Nk(P_WIDE, 3, oracle_samples=10,
                                         seed=SeedSpec(1)), id="third_moment_Nk"),
    pytest.param(lambda: fourth_moment_Nk(P_WIDE, 4, oracle_samples=10,
                                          seed=SeedSpec(1)), id="fourth_moment_Nk"),
    pytest.param(lambda: nth_moment_assembler(P_WIDE, 3, 2), id="nth_moment(3,2)"),
]


@pytest.mark.parametrize("moment", CECH_FORMS)
def test_triangle_forms_reject_thresholds_beyond_a_third(moment):
    with pytest.raises(ValueError, match="a/3"):
        moment()


def test_triangle_free_forms_and_the_boundary_stay_valid():
    # N_1, N_2 and Var N_2 hold up to eps < a/4; at 2 eps = a/3 exactly
    # every form holds
    # lam a x 2^d / 2! and C(n, 2) 2^d (2 eps / a)^d, at d = 1 and x = 4
    assert mean_Nk(P_WIDE, 2).value == pytest.approx(40.0)
    assert mean_Nk_binomial(SPEC1, 0.2, 20, 2).value == pytest.approx(190 * 2 * 0.4)
    assert cov_Nk_Nl(P_WIDE, 2, 2).value > 0
    edge = ModelParams(lam=1.0, spec=TorusSpec(d=1, a=6.0), epsilon=1.0)
    for form in (lambda: mean_Nk(edge, 3), lambda: mean_chi(edge),
                 lambda: var_chi_series(edge), lambda: var_chi_1d(edge),
                 lambda: cov_Nk_Nl(edge, 3, 3),
                 lambda: mean_Nk_binomial(edge.spec, 1.0, 20, 3),
                 lambda: mean_chi_binomial(edge.spec, 1.0, 20),
                 lambda: third_moment_Nk(edge, 3, oracle_samples=10,
                                         seed=SeedSpec(1))):
        assert math.isfinite(form().value)
    # the moments of N_2 use no triangle, and an oracle passed in is the
    # caller's to vouch for
    assert math.isfinite(third_moment_Nk(P_WIDE, 2, oracle_samples=10,
                                         seed=SeedSpec(1)).value)
    unit = nth_moment_assembler(
        P_WIDE, 3, 3, j_oracle=lambda pattern: JEstimate(1.0, 0.0, 0))
    assert math.isfinite(unit.value)


def test_the_cech_form_is_the_mean_of_the_window_count_not_the_rips_walk():
    # at t = 0.4 > a/3 the paper's form lam a x^(k-1) k / k! (which mean_Nk
    # declines there) is the mean of the window (Cech) count, while the Rips
    # walk also counts the triangles that wrap round the circle: the chance
    # that three points are pairwise within s is p_3(s) = 3 s^2 + (3 s - 1)^2
    # for 1/3 <= s <= 1/2, against 3 s^2 for a window
    lam, t, reps = P_WIDE.lam, 2 * P_WIDE.epsilon, 4000
    cfg = ExperimentConfig(law=Poisson(lam), spec=SPEC1,
                           params=ComplexParams(epsilon=P_WIDE.epsilon),
                           replications=reps, master_seed=1, quantities=("N_3",))
    rips = run_experiment(cfg).raw["N_3"]
    draws = sample_run(cfg.law, SPEC1, SeedSpec(1), ("experiment",), reps)
    window = np.array([window_clique_counts(pts, SPEC1.a, t, 3)[2]
                       for pts in draws], dtype=float)
    x = lam * t
    cech = lam * SPEC1.a * x ** 2 * 3 / math.factorial(3)  # 80
    # lam^3/3! (p_3(t) - 3 t^2) = (1000/6)(0.52 - 0.48)
    wrapping = lam ** 3 / math.factorial(3) * (3 * t - 1) ** 2
    extra = rips - window
    assert extra.min() >= 0  # a set in a window is a Rips clique
    for values, expected in ((window, cech), (extra, wrapping)):
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - expected) < 3 * se


def test_means_are_the_exact_rational_rounded_once():
    # lam a^d x^(k-1) k^d / k!, from the exact values of the float inputs
    x = 30 * 2 * Fraction(0.05)
    assert mean_Nk(P1, 4).value == float(30 * x ** 3 * 4 / 24)
    p = 2 * Fraction(0.05)
    assert mean_Nk_binomial(SPEC2, 0.05, 20, 3).value == float(
        math.comb(20, 3) * 9 * p ** 4)
    # C(4000, 900) 900 (0.3)^899 is about 1e450, inside the domain t <= a/3
    with pytest.raises(OverflowError):
        mean_Nk_binomial(SPEC1, 0.15, 4000, 900)
