import hashlib
import math

import numpy as np
import pytest

from torushom import harness
from torushom.complexes import ComplexParams, Convention, simplex_counts
from torushom.harness import (CltReport, CoverageReport, ExperimentConfig,
                              clt_rate_experiment, coverage_experiment,
                              empirical_tail, run_experiment, torus_betti)
from torushom.moments import ModelParams, mean_Nk, mean_chi
from torushom.sampling import Binomial, Poisson, SeedSpec, sample
from torushom.subcomplex import GammaGraph
from torushom.torus import Metric, TorusSpec

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


RIPS = Convention.RIPS_HALF_OPEN_2EPS
NK_CHI = ("N_1", "N_2", "N_3", "N_4", "chi")

# (law, d, quantities, replications, seed, convention, metric, max_dim, cap,
#  SHA-256 of the float64 raw arrays in quantity order, excluded).  The
# hashes were recorded from the per-replication engine that preceded the
# block engine: the seven benchmark cells, one beta_1 run, and three runs
# whose cap excludes part of the replications (through the clique walk,
# through the N_1/N_2 edge counts, and through the vertex count alone).
GOLDEN = [
    (Poisson(20.0), 1, NK_CHI, 200, 101, RIPS, Metric.MAX_NORM, None, 10_000_000,
     "d50d0c88dd8db64f66edc3b5f0d8a0a08d8550ae32d41a6eb006140bc840f560", 0),
    (Poisson(50.0), 1, NK_CHI, 200, 102, RIPS, Metric.MAX_NORM, None, 10_000_000,
     "4d59d277189c149d9a47be32e4dde7e8616d0b426b176f9f263864d5c2fe6bd6", 0),
    (Poisson(20.0), 2, NK_CHI, 200, 103, RIPS, Metric.MAX_NORM, None, 10_000_000,
     "f26809f93a1e0a3e80023fc167d0eb000660345c7c7193369af65b263b109a97", 0),
    (Poisson(50.0), 2, NK_CHI, 200, 104, RIPS, Metric.MAX_NORM, None, 10_000_000,
     "bb0cc279f433321838886c8035bd93ab20c94d3c73f59522526007511874ef19", 0),
    (Poisson(20.0), 1, ("beta_0",), 200, 105, RIPS, Metric.MAX_NORM, None, 10_000_000,
     "54d1191fa3afaf87383d9736d19b40b7da9a31305df7eb4d69964aec21036c99", 0),
    (Binomial(20), 1, ("N_2", "chi"), 200, 106, RIPS, Metric.MAX_NORM, None, 10_000_000,
     "9508eba0c972c2ff223cec8b852b5db851e219ce7a635781341c942df1798bc1", 0),
    (Poisson(100.0), 2, ("N_2", "N_3"), 200, 107, Convention.SUBCOMPLEX_EPS,
     Metric.EUCLIDEAN, 2, 10_000_000,
     "957503feca7b82c3f0daadb1c1e94e7994a3ca49e6ff1b8c1a2ddae5a3a56f31", 0),
    (Poisson(15.0), 1, ("n_points", "beta_0", "beta_1"), 100, 108, RIPS,
     Metric.MAX_NORM, None, 10_000_000,
     "72d9a5cd82ba7cc0ae5f82b4617ce9f3bdb14d63f9586c8e0c530df516649b7d", 0),
    (Poisson(60.0), 1, ("N_1", "N_2", "N_3", "chi"), 60, 109, RIPS,
     Metric.MAX_NORM, None, 1500,
     "d64c549745d27a90a158ace67c41a6462d53fd0c0fe8540be88832214eabc25e", 30),
    (Poisson(40.0), 1, ("N_1", "N_2"), 60, 110, RIPS, Metric.MAX_NORM, None, 200,
     "de3246351c3859f7f9b05c089ac780d48e56df01af202f575253ec58d0bfd740", 22),
    (Poisson(60.0), 1, ("chi",), 60, 111, RIPS, Metric.MAX_NORM, None, 60,
     "008ab14f337f87577bd33c4deab2c8fbf8046c83256eaf78d76801e991cce0c2", 28),
]


def _golden_config(law, d, quantities, reps, seed, convention, metric,
                   max_dim, cap):
    return ExperimentConfig(
        law=law, spec=TorusSpec(d=d, a=1.0),
        params=ComplexParams(epsilon=0.05, metric=metric, convention=convention),
        replications=reps, master_seed=seed, quantities=quantities,
        max_dim=max_dim, simplex_cap=cap)


def _raw_hash(report) -> str:
    h = hashlib.sha256()
    for q in report.config.quantities:
        h.update(np.ascontiguousarray(report.raw[q], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", GOLDEN, ids=[str(c[4]) for c in GOLDEN])
def test_raw_values_match_golden_hashes(case):
    *args, digest, excluded = case
    report = run_experiment(_golden_config(*args))
    assert report.excluded == excluded
    assert report.homology_violations == 0
    assert _raw_hash(report) == digest


def test_block_boundaries_do_not_change_values(monkeypatch):
    cases = [GOLDEN[0], GOLDEN[4], GOLDEN[7], GOLDEN[8], GOLDEN[9]]
    whole = [run_experiment(_golden_config(*c[:-2])) for c in cases]
    # blocks of 7 replications, and a scratch budget below one
    # configuration's n^2, so that most configurations run alone
    monkeypatch.setattr(harness, "_BLOCK_REPS", 7)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 300)
    for c, expected in zip(cases, whole):
        split = run_experiment(_golden_config(*c[:-2]))
        assert split.excluded == expected.excluded
        assert _raw_hash(split) == _raw_hash(expected)
