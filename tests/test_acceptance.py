"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (visible even under output capture).  Heavy Monte Carlo runs
are shared through session-scoped fixtures and reused across criteria.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import bitsets, brute_force_clique_counts, empirical_tail, z_score
from torushom.complexes import (ComplexParams, Convention, adjacency_matrix,
                                simplex_counts)
from torushom.harness import (ExperimentConfig, clt_rate_experiment,
                              coverage_experiment, run_experiment)
from torushom.homology import homology_from_bitsets
from torushom.joracle import OverlapPattern, j_oracle_mc
from torushom.moments import (ModelParams, alpha_beta_coeffs, bell_polynomial,
                              c_coefficient, cov_Nk_Nl, euclid_remark_moments,
                              fourth_moment_Nk, j2_closed_form, mean_Nk,
                              mean_Nk_binomial, mean_chi, mean_chi_binomial,
                              nth_moment_assembler, third_moment_Nk,
                              var_chi_1d, var_chi_series)
from torushom.sampling import Binomial, Poisson, SeedSpec, sample
from torushom.subcomplex import GammaGraph, count_gamma_adj
from torushom.tails import beta0_tail_bound, chi2d_tail_bound
from torushom.torus import Metric, TorusSpec

RIPS = Convention.RIPS_HALF_OPEN_2EPS
SUB = Convention.SUBCOMPLEX_EPS


@pytest.fixture
def report(capfd):
    def _report(num: int, desc: str, ok: bool, detail: str = ""):
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
        if detail:
            line += f" [{detail}]"
        with capfd.disabled():
            print(line)
        assert ok, line
    return _report


def _se_mean(arr):
    return float(arr.std(ddof=1)) / math.sqrt(arr.size)


def _var_with_se(arr):
    centered = arr - arr.mean()
    prods = centered ** 2
    return float(prods.mean()), _se_mean(prods)


def _cov_with_se(x, y):
    prods = (x - x.mean()) * (y - y.mean())
    return float(prods.mean()), _se_mean(prods)


def _m3_with_se(arr):
    prods = (arr - arr.mean()) ** 3
    return float(prods.mean()), _se_mean(prods)


# ---------------------------------------------------------------------------
# Shared Monte Carlo runs


def _run(law, d, quantities, reps, seed, eps=0.05, convention=RIPS,
         metric=Metric.MAX_NORM, max_dim=None):
    cfg = ExperimentConfig(
        law=law, spec=TorusSpec(d=d, a=1.0),
        params=ComplexParams(epsilon=eps, metric=metric,
                             convention=convention),
        replications=reps, master_seed=seed, quantities=tuple(quantities),
        max_dim=max_dim)
    report = run_experiment(cfg)
    # A dropped replication would bias every estimate of the fixture.
    assert report.excluded == 0, f"{report.excluded} replications excluded"
    return report


CELLS = [(1, 20.0), (1, 50.0), (2, 20.0), (2, 50.0)]


@pytest.fixture(scope="session")
def cell_reports():
    """10^4 replications of N_1..N_4 and chi on the (d, lambda) grid."""
    out = {}
    for i, (d, lam) in enumerate(CELLS):
        out[(d, lam)] = _run(Poisson(lam), d,
                             ("N_1", "N_2", "N_3", "N_4", "chi"),
                             reps=10_000, seed=1000 + i)
    return out


@pytest.fixture(scope="session")
def cov_report():
    return _run(Poisson(30.0), 1, ("N_1", "N_2", "N_3"), reps=10_000,
                seed=2000, max_dim=2)


@pytest.fixture(scope="session")
def third_moment_report():
    return _run(Poisson(20.0), 1, ("N_2",), reps=100_000, seed=3000,
                max_dim=1)


@pytest.fixture(scope="session")
def beta0_report():
    return _run(Poisson(20.0), 1, ("beta_0",), reps=10_000, seed=4000)


@pytest.fixture(scope="session")
def binomial_report():
    return _run(Binomial(n=20), 1, ("N_2", "chi"), reps=10_000, seed=5000)


@pytest.fixture(scope="session")
def euclid_mean_report():
    return _run(Poisson(100.0), 2, ("N_2", "N_3"), reps=10_000, seed=6000,
                convention=SUB, metric=Metric.EUCLIDEAN, max_dim=2)


@pytest.fixture(scope="session")
def euclid_var_report():
    return _run(Poisson(100.0), 2, ("N_2",), reps=10_000, seed=6001,
                convention=RIPS, metric=Metric.EUCLIDEAN, max_dim=1)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_mean_simplex_counts(cell_reports, report):
    worst = 0.0
    for (d, lam), rep in cell_reports.items():
        params = ModelParams(lam=lam, spec=TorusSpec(d=d, a=1.0),
                             epsilon=0.05)
        for k in (1, 2, 3, 4):
            stats = rep.estimates[f"N_{k}"]
            z = abs(z_score(stats, mean_Nk(params, k).value))
            worst = max(worst, z)
    report(1, "MC mean of N_k matches closed form on the (d, lambda) grid",
           worst < 4.0, f"max |z| = {worst:.2f}")


def test_criterion_02_mean_chi(cell_reports, report):
    worst = 0.0
    for (d, lam), rep in cell_reports.items():
        params = ModelParams(lam=lam, spec=TorusSpec(d=d, a=1.0),
                             epsilon=0.05)
        z = abs(z_score(rep.estimates["chi"], mean_chi(params).value))
        worst = max(worst, z)
    # displayed d = 1, 2, 3 specializations against the Bell form
    analytic_ok = True
    for d in (1, 2, 3):
        params = ModelParams(lam=30.0, spec=TorusSpec(d=d, a=1.0),
                             epsilon=0.05)
        x = params.x
        poly = {1: 1.0, 2: 1.0 - x, 3: 1.0 - 3.0 * x + x * x}[d]
        special = 30.0 * math.exp(-x) * poly
        bell = mean_chi(params).value
        if abs(bell - special) > 1e-12 * max(abs(special), 1e-300):
            analytic_ok = False
    report(2, "MC mean of chi matches the Bell closed form; displayed "
              "specializations agree to 1e-12",
           worst < 4.0 and analytic_ok, f"max |z| = {worst:.2f}")


def test_criterion_03_covariances(cov_report, report):
    params = ModelParams(lam=30.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.05)
    raw = cov_report.raw
    worst = 0.0
    for k, l in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        emp, se = _cov_with_se(raw[f"N_{k}"], raw[f"N_{l}"])
        z = abs(emp - cov_Nk_Nl(params, k, l).value) / se
        worst = max(worst, z)
    exact_11 = cov_Nk_Nl(params, 1, 1).value == pytest.approx(30.0, rel=1e-14)
    report(3, "MC covariances of simplex counts match the formula; "
              "(1,1) equals lambda a^d exactly",
           worst < 4.0 and exact_11, f"max |z| = {worst:.2f}")


def test_criterion_04_var_chi(cell_reports, report):
    series_ok = True
    for lam in (20.0, 30.0, 50.0):
        for eps in (0.03, 0.06):
            params = ModelParams(lam=lam, spec=TorusSpec(d=1, a=1.0),
                                 epsilon=eps)
            series = var_chi_series(params).value
            closed = var_chi_1d(params).value
            if abs(series - closed) > 1e-8 * abs(closed):
                series_ok = False
    params2 = ModelParams(lam=50.0, spec=TorusSpec(d=2, a=1.0), epsilon=0.05)
    analytic = var_chi_series(params2).value
    emp, se = _var_with_se(cell_reports[(2, 50.0)].raw["chi"])
    z = abs(emp - analytic) / se
    report(4, "chi-variance series matches the d=1 closed form to 1e-8 and "
              "the d=2 MC variance",
           series_ok and z < 4.0, f"d=2 |z| = {z:.2f}")


def _series_coeff(n, terms):
    """Exact x^n coefficient of sum_j c_j * x^{p_j} * e^{m_j x}."""
    total = Fraction(0)
    for c, p, m in terms:
        if n - p >= 0:
            total += c * Fraction(m, 1) ** (n - p) / math.factorial(n - p)
    return total


def test_criterion_05_appendix_identities(report):
    ok = True
    for n in range(1, 21):
        alpha, beta = alpha_beta_coeffs(n)
        if c_coefficient(n, 1) != alpha + beta:
            ok = False
        # generating functions: alpha from -x e^{-x} + 2x e^{-2x},
        # beta from 2x e^{-x} - 2(x + x^2) e^{-2x}
        if alpha != _series_coeff(n, [(Fraction(-1), 1, -1),
                                      (Fraction(2), 1, -2)]):
            ok = False
        if beta != _series_coeff(n, [(Fraction(2), 1, -1),
                                     (Fraction(-2), 1, -2),
                                     (Fraction(-2), 2, -2)]):
            ok = False
    spec = TorusSpec(d=1, a=1.0)
    worst = 0.0
    for i, (m1, m2, m12) in enumerate(
            [(1, 1, 1), (0, 0, 2), (2, 2, 1), (1, 2, 1), (0, 1, 2)]):
        pattern = OverlapPattern.make((m1 + m12, m2 + m12), [((0, 1), m12)])
        est = j_oracle_mc(pattern, spec, 0.05, 400_000, SeedSpec(500 + i))
        closed = j2_closed_form(m1, m2, m12, spec, 0.05)
        worst = max(worst, abs(est.value - closed) / est.stderr)
    report(5, "c_n^1 = alpha_n + beta_n exactly for n <= 20 with verified "
              "generating functions; J2 closed form matches MC",
           ok and worst < 3.0, f"max J2 |z| = {worst:.2f}")


def test_criterion_06_third_moment(third_moment_report, report):
    params = ModelParams(lam=20.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.05)
    assembled = third_moment_Nk(params, 2, oracle_samples=1_000_000,
                                seed=SeedSpec(600))
    emp, se_mc = _m3_with_se(third_moment_report.raw["N_2"])
    se = math.hypot(se_mc, assembled.truncation["oracle_stderr"])
    z = abs(assembled.value - emp) / se
    k1 = third_moment_Nk(params, 1, oracle_samples=10_000, seed=SeedSpec(601))
    exact_k1 = k1.value == pytest.approx(20.0, abs=1e-9)
    report(6, "assembled third central moment of N_2 matches 10^5-rep MC; "
              "k=1 equals lambda a^d",
           z < 5.0 and exact_k1, f"|z| = {z:.2f}")


def test_criterion_07_nth_moment_assembler(report):
    params = ModelParams(lam=30.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.05)
    reduction_ok = True
    for k in (1, 2, 3, 4):
        direct = cov_Nk_Nl(params, k, k).value
        assembled = nth_moment_assembler(params, k, 2).value
        if abs(assembled - direct) > 1e-9 * abs(direct):
            reduction_ok = False
    p20 = ModelParams(lam=20.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.05)
    m4 = fourth_moment_Nk(p20, 1, oracle_samples=100_000, seed=SeedSpec(700))
    target = 20.0 * (1.0 + 3.0 * 20.0)
    se = max(m4.truncation["oracle_stderr"], 1e-12)
    z = abs(m4.value - target) / se
    report(7, "n=2 assembler equals the covariance diagonal to 1e-9; "
              "n=4, k=1 reproduces the Poisson fourth central moment",
           reduction_ok and z < 3.0, f"n=4 |z| = {z:.2f}")


def test_criterion_08_concentration(beta0_report, cell_reports, report):
    params = ModelParams(lam=20.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.05)
    ys = [23.0, 26.0, 30.0, 35.0, 40.0]
    # a grid point fails when the empirical tail minus 3 standard errors of
    # Monte Carlo noise still exceeds the bound
    emp = empirical_tail(beta0_report.raw["beta_0"], ys)
    beta0_ok = all(p - 3.0 * se <= beta0_tail_bound(params, y)
                   for y, p, se in emp)

    params2 = ModelParams(lam=50.0, spec=TorusSpec(d=2, a=1.0), epsilon=0.05)
    var2 = var_chi_series(params2).value
    chi = cell_reports[(2, 50.0)].raw["chi"]
    deviations = [6.0, 10.0, 14.0, 18.0, 22.0]
    emp2 = empirical_tail(chi - mean_chi(params2).value, deviations)
    chi_ok = all(p - 3.0 * se <= chi2d_tail_bound(var2, x)
                 for x, p, se in emp2)
    report(8, "empirical beta_0 and chi tails stay below the concentration "
              "bounds on 5-point grids", beta0_ok and chi_ok)


def test_criterion_09_homology_structure(report):
    spec = TorusSpec(d=2, a=1.0)
    params = ComplexParams(epsilon=0.05)
    seed = SeedSpec(900)
    bad = 0
    for r in range(1000):
        pc = sample(Poisson(lam=50.0), spec, seed.child("hom", r))
        res = homology_from_bitsets(bitsets(adjacency_matrix(pc, params)))
        betti = res.betti
        beta_d = betti[2] if len(betti) > 2 else 0
        if res.violations:
            bad += 1
        elif any(b != 0 for b in betti[3:]):
            bad += 1
        elif beta_d not in (0, 1):
            bad += 1
        elif beta_d == 1 and res.chi_counts != 0:
            bad += 1
        elif res.chi_counts != res.chi_betti:
            bad += 1
    report(9, "no structural homology violations over 10^3 samples "
              "(beta_i = 0 above d, beta_d in {0,1}, Euler consistency)",
           bad == 0, f"violations = {bad}")


def test_criterion_10_coverage(report):
    params = ComplexParams(epsilon=0.2, convention=SUB)
    rep = coverage_experiment(TorusSpec(d=1, a=1.0), params,
                              [10.0, 30.0, 100.0], reps=1000,
                              seed=SeedSpec(1001))
    freqs = [p.match_frequency for p in rep.points]
    ses = [p.stderr for p in rep.points]
    nondecreasing = all(
        freqs[i + 1] >= freqs[i] - 3.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(freqs) - 1))
    high = freqs[-1] >= 0.99
    report(10, "torus Betti recovery frequency is nondecreasing in lambda "
               "and >= 0.99 at lambda = 100",
           nondecreasing and high,
           "freqs = " + ", ".join(f"{f:.3f}" for f in freqs))


def test_criterion_11_clt_rate(report):
    params = ComplexParams(epsilon=0.05, convention=SUB)
    rep = clt_rate_experiment(GammaGraph.edge(), TorusSpec(d=1, a=1.0),
                              params, [20.0, 40.0, 80.0], reps=5000,
                              seed=SeedSpec(1101))
    slope_ok = -1.0 <= rep.slope <= -0.1
    report(11, "standardized edge counts approach normality: d_W strictly "
               "decreasing with log-log slope in [-1.0, -0.1]",
           rep.strictly_decreasing and slope_ok,
           f"slope = {rep.slope:.3f}")


def test_criterion_12_depoissonization(binomial_report, report):
    spec = TorusSpec(d=1, a=1.0)
    target_n2 = mean_Nk_binomial(spec, 0.05, 20, 2).value
    assert target_n2 == pytest.approx(38.0)
    z_n2 = abs(z_score(binomial_report.estimates["N_2"], target_n2))
    target_chi = mean_chi_binomial(spec, 0.05, 20).value
    z_chi = abs(z_score(binomial_report.estimates["chi"], target_chi))
    report(12, "Binomial(n=20) MC means of N_2 and chi match the "
               "depoissonized formulas",
           z_n2 < 4.0 and z_chi < 4.0,
           f"|z| = {z_n2:.2f}, {z_chi:.2f}")


def test_criterion_13_euclidean_remark(euclid_mean_report, euclid_var_report,
                                       report):
    spec = TorusSpec(d=2, a=1.0)
    vals = euclid_remark_moments(spec, lam=100.0, epsilon=0.05)
    z2 = abs(z_score(euclid_mean_report.estimates["N_2"], vals["EN2"]))
    z3 = abs(z_score(euclid_mean_report.estimates["N_3"], vals["EN3"]))
    emp_var, se_var = _var_with_se(euclid_var_report.raw["N_2"])
    zv = abs(emp_var - vals["VarN2"]) / se_var
    report(13, "Euclidean-ball E[N_2], E[N_3] and Var N_2 match MC at "
               "matched thresholds",
           z2 < 4.0 and z3 < 4.0 and zv < 4.0,
           f"|z| = {z2:.2f}, {z3:.2f}, {zv:.2f}")


def test_criterion_14_brute_force_equivalence(report):
    rng_seed = SeedSpec(1400)
    ok = True
    for r in range(100):
        d = 1 + r % 2
        n = 5 + (r * 7) % 21  # 5..25 points
        spec = TorusSpec(d=d, a=1.0)
        pc = sample(Binomial(n=n), spec, rng_seed.child("bf", r))
        params = ComplexParams(epsilon=0.04)
        cx = simplex_counts(pc, params)
        adj = adjacency_matrix(pc, params)
        oracle = brute_force_clique_counts(adj, min(n, len(cx.counts) + 1))
        for k in range(1, len(oracle)):
            if cx.N(k) != oracle[k]:
                ok = False
        # complete-graph pattern counts coincide with simplex counts
        for k in (2, 3, 4):
            if k <= n:
                g = count_gamma_adj(adj, GammaGraph.complete(k)).g_gamma
                if g != cx.N(k):
                    ok = False
    report(14, "simplex counts equal the exhaustive subset oracle and the "
               "complete-graph pattern counts on 100 configurations", ok)
