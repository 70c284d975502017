import math

import numpy as np
import pytest

from torushom.complexes import ComplexParams, Convention, simplex_counts
from torushom.harness import (CltReport, CoverageReport, ExperimentConfig,
                              clt_rate_experiment, coverage_experiment,
                              empirical_tail, run_experiment, torus_betti)
from torushom.moments import ModelParams, mean_Nk, mean_chi
from torushom.sampling import Binomial, Poisson, SeedSpec, sample
from torushom.subcomplex import GammaGraph
from torushom.torus import TorusSpec

SPEC1 = TorusSpec(d=1, a=1.0)
PARAMS = ComplexParams(epsilon=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                         replications=0, master_seed=1, quantities=("chi",))
    with pytest.raises(ValueError):
        ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                         replications=1, master_seed=1, quantities=("bogus",))
    with pytest.raises(ValueError):
        ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                         replications=1, master_seed=1, quantities=("N_0",))


def test_reproducible_reports():
    cfg = ExperimentConfig(law=Poisson(20.0), spec=SPEC1, params=PARAMS,
                           replications=50, master_seed=7,
                           quantities=("n_points", "N_2"))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.estimates == b.estimates
    assert all(np.array_equal(a.raw[q], b.raw[q]) for q in a.raw)


def test_estimates_match_analytic_means():
    model = ModelParams(lam=30.0, spec=SPEC1, epsilon=0.05)
    cfg = ExperimentConfig(law=Poisson(30.0), spec=SPEC1, params=PARAMS,
                           replications=400, master_seed=11,
                           quantities=("n_points", "N_1", "N_2", "chi"))
    report = run_experiment(cfg)
    assert report.excluded == 0
    for q, analytic in [("n_points", 30.0),
                        ("N_1", mean_Nk(model, 1).value),
                        ("N_2", mean_Nk(model, 2).value),
                        ("chi", mean_chi(model).value)]:
        assert abs(report.estimates[q].z_score(analytic)) < 4.0, q


def test_beta0_fast_path_matches_full_homology():
    cfg0 = ExperimentConfig(law=Poisson(15.0), spec=SPEC1, params=PARAMS,
                            replications=60, master_seed=13,
                            quantities=("beta_0",))
    cfg01 = ExperimentConfig(law=Poisson(15.0), spec=SPEC1, params=PARAMS,
                             replications=60, master_seed=13,
                             quantities=("beta_0", "beta_1"))
    fast = run_experiment(cfg0)
    full = run_experiment(cfg01)
    assert np.array_equal(fast.raw["beta_0"], full.raw["beta_0"])
    assert full.homology_violations == 0


def test_binomial_law_fixed_count():
    cfg = ExperimentConfig(law=Binomial(n=12), spec=SPEC1, params=PARAMS,
                           replications=30, master_seed=3,
                           quantities=("n_points",))
    report = run_experiment(cfg)
    assert np.all(report.raw["n_points"] == 12.0)
    assert report.estimates["n_points"].stderr == 0.0


def test_truncated_replications_excluded():
    cfg = ExperimentConfig(law=Poisson(40.0), spec=SPEC1, params=PARAMS,
                           replications=20, master_seed=5,
                           quantities=("N_1",), simplex_cap=10)
    report = run_experiment(cfg)
    assert report.excluded > 0
    assert report.estimates["N_1"].n == 20 - report.excluded


def test_cap_bounds_only_the_counts_asked_for():
    # Every draw has more than 2000 cliques in all, but fewer than 500
    # vertices and edges: only N_1, N_2 are counted, and chi never is.
    cfg = ExperimentConfig(law=Poisson(60.0), spec=SPEC1, params=PARAMS,
                           replications=8, master_seed=21,
                           quantities=("N_1", "N_2", "chi"), simplex_cap=2000)
    report = run_experiment(cfg)
    assert report.excluded == 0
    base = SeedSpec(master_seed=21, stream_index=0)
    for rep in range(8):
        pc = sample(cfg.law, SPEC1, base.child("experiment", rep))
        full = simplex_counts(pc, PARAMS, cap=10 ** 9)
        assert not full.truncated and full.counts.sum() > cfg.simplex_cap
        assert report.raw["chi"][rep] == full.euler_characteristic_counts()
        assert report.raw["N_2"][rep] == full.N(2)


def test_report_serialization():
    cfg = ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                           replications=5, master_seed=2,
                           quantities=("n_points",))
    report = run_experiment(cfg)
    doc = report.to_json()
    assert doc["replications"] == 5
    assert "n_points" in doc["estimates"]
    csv = report.raw_csv()
    assert csv.splitlines()[0] == "rep,quantity,value"
    assert len(csv.splitlines()) == 6


def test_empirical_tail():
    vals = [1.0, 2.0, 3.0, 4.0]
    out = empirical_tail(vals, [2.5, 0.0, 5.0])
    assert out[0][0] == 2.5 and out[0][1] == pytest.approx(0.5)
    assert out[1][1] == 1.0 and out[1][2] == 0.0
    assert out[2][1] == 0.0
    with pytest.raises(ValueError):
        empirical_tail([], [1.0])


def test_torus_betti():
    assert torus_betti(1) == (1, 1)
    assert torus_betti(2) == (1, 2, 1)
    assert torus_betti(3) == (1, 3, 3, 1)


def test_clt_experiment_validation():
    gamma = GammaGraph.edge()
    with pytest.raises(ValueError):
        clt_rate_experiment(gamma, SPEC1, PARAMS, [10.0, 5.0, 20.0], 10,
                            SeedSpec(1))
    with pytest.raises(ValueError):
        clt_rate_experiment(gamma, SPEC1, PARAMS, [10.0, 20.0], 10,
                            SeedSpec(1))


def test_clt_experiment_small_run():
    gamma = GammaGraph.edge()
    params = ComplexParams(epsilon=0.1, convention=Convention.SUBCOMPLEX_EPS)
    report = clt_rate_experiment(gamma, SPEC1, params,
                                 [10.0, 40.0, 160.0], reps=150,
                                 seed=SeedSpec(21))
    assert len(report.points) == 3
    assert all(p.d_w > 0 for p in report.points)
    # edge counts grow ~ lam^2
    assert report.points[-1].mean > report.points[0].mean
    assert math.isfinite(report.slope)
    doc = report.to_json()
    assert len(doc["points"]) == 3


def test_coverage_experiment_small_run():
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    report = coverage_experiment(SPEC1, params, [2.0, 60.0], reps=60,
                                 seed=SeedSpec(31))
    assert report.torus_betti == (1, 1)
    low, high = report.points
    # sparse configurations almost never cover the circle; dense ones do
    assert low.match_frequency < high.match_frequency
    assert high.match_frequency > 0.9
    assert low.excluded == 0 and high.excluded == 0
