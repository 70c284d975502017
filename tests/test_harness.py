import hashlib
import math
from itertools import permutations

import numpy as np
import pytest

from torushom import cliques, complexes, harness, homology, subcomplex
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
    with pytest.raises(ValueError):
        ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                         replications=1, master_seed=1, quantities=("chi",),
                         simplex_cap=-1)
    with pytest.raises(ValueError, match="max_dim"):
        ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                         replications=1, master_seed=1, quantities=("chi",),
                         max_dim=-3)


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


def test_zero_cap_excludes_nothing():
    # 0 is no cap, for the clique enumeration of beta_1 as for the counts
    for quantities in (("beta_1",), ("N_3", "chi")):
        cfg = ExperimentConfig(law=Poisson(15.0), spec=SPEC1, params=PARAMS,
                               replications=20, master_seed=8,
                               quantities=quantities, simplex_cap=0)
        assert run_experiment(cfg).excluded == 0


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


def test_full_homology_counts_cliques_once(monkeypatch):
    # N_3 and beta_1: the full count of the homology complex gives N_3 too
    walks = []
    walk = cliques.counts_from_bitsets

    def counting(*args):
        walks.append(len(args[0]))
        return walk(*args)

    for module in (cliques, harness):
        monkeypatch.setattr(module, "counts_from_bitsets", counting)
    cfg = ExperimentConfig(law=Poisson(30.0), spec=TorusSpec(d=2, a=1.0),
                           params=ComplexParams(epsilon=0.07), replications=10,
                           master_seed=7, quantities=("N_3", "beta_1"))
    report = run_experiment(cfg)
    assert report.excluded == 0
    assert len(walks) == 10


def test_report_serialization():
    cfg = ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                           replications=5, master_seed=2,
                           quantities=("n_points",))
    report = run_experiment(cfg)
    doc = report.to_json()
    assert doc["replications"] == 5
    assert "n_points" in doc["estimates"]
    csv = report.raw_csv()
    lines = csv.splitlines()
    assert lines[0] == "rep,quantity,value"
    assert len(lines) == 6
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values == report.raw["n_points"].tolist()


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


def test_clt_experiment_rejects_small_reps_before_sampling(monkeypatch):
    calls = []

    def counting_sample(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(harness, "sample", counting_sample)
    with pytest.raises(ValueError):
        clt_rate_experiment(GammaGraph.edge(), SPEC1, PARAMS,
                            [10.0, 20.0, 40.0], 99, SeedSpec(1))
    assert calls == []


def test_clt_experiment_sweeps_once_per_block(monkeypatch):
    calls = {"sample": 0, "threshold_edges": 0, "adjacency_matrix": 0,
             "neighbour_bitsets": 0}
    blocks = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def counting_blocks(draws):
        for block in real_blocks(draws):
            blocks.append(len(block))
            yield block

    real_blocks = harness._blocks
    monkeypatch.setattr(harness, "_blocks", counting_blocks)
    monkeypatch.setattr(harness, "sample", counting("sample", sample))
    monkeypatch.setattr(harness, "threshold_edges",
                        counting("threshold_edges", harness.threshold_edges))
    for module in (cliques, complexes, harness, homology, subcomplex):
        for name in ("adjacency_matrix", "neighbour_bitsets"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    params = ComplexParams(epsilon=0.05, convention=Convention.SUBCOMPLEX_EPS)
    lambdas = [50.0, 100.0, 200.0]
    for gamma in (GammaGraph.make(3, [(0, 1), (1, 2)]), GammaGraph.complete(3)):
        blocks.clear()
        for name in calls:
            calls[name] = 0
        clt_rate_experiment(gamma, TorusSpec(d=2, a=1.0), params, lambdas,
                            reps=100, seed=SeedSpec(5))
        assert sum(blocks) == 100 * len(lambdas)
        assert calls == {"sample": 100 * len(lambdas),
                         "threshold_edges": len(blocks),
                         "adjacency_matrix": 0, "neighbour_bitsets": 0}


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


def test_clt_scans_automorphisms_once_per_pattern(monkeypatch):
    scans = []

    def counting(*args):
        scans.append(args)
        return permutations(*args)

    monkeypatch.setattr(subcomplex, "permutations", counting)
    subcomplex.automorphism_count.cache_clear()
    params = ComplexParams(epsilon=0.1, convention=Convention.SUBCOMPLEX_EPS)
    path = GammaGraph.make(3, [(0, 1), (1, 2)])
    for gamma in (GammaGraph.edge(), path):
        clt_rate_experiment(gamma, SPEC1, params, [20.0, 40.0, 80.0], reps=100,
                            seed=SeedSpec(21))
    assert len(scans) == 2


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


def test_coverage_experiment_d2_has_no_exclusions():
    params = ComplexParams(epsilon=0.05)
    report = coverage_experiment(TorusSpec(d=2, a=1.0), params, [400.0], reps=5,
                                 seed=SeedSpec(3))
    (point,) = report.points
    assert point.excluded == 0
    assert 0.0 <= point.match_frequency <= 1.0


def test_coverage_experiment_raises_on_homology_violation(monkeypatch):
    collapse_edges = homology._collapse_edges

    def dropping(neigh):
        # Once the real collapse removes nothing, no edge is dominated, so
        # deleting one changes the homotopy type; False ends the collapse.
        if collapse_edges(neigh):
            return True
        u = next((v for v, nb in enumerate(neigh) if nb), None)
        if u is not None:
            w = (neigh[u] & -neigh[u]).bit_length() - 1
            neigh[u] ^= 1 << w
            neigh[w] ^= 1 << u
        return False

    monkeypatch.setattr(homology, "_collapse_edges", dropping)
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    pc = sample(Poisson(lam=60.0), SPEC1, SeedSpec(4).child("coverage", 60.0, 0))
    violations = homology.collapsed_homology(pc, params).violations
    assert violations == ["euler characteristic mismatch: counts give 0, betti give 1"]
    with pytest.raises(RuntimeError, match="lambda=60.0, replication 0: "
                       + violations[0]):
        coverage_experiment(SPEC1, params, [60.0], reps=5, seed=SeedSpec(4))


def test_coverage_experiment_rejects_bad_intensities_before_sampling(monkeypatch):
    calls = []

    def counting_sample(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(harness, "sample", counting_sample)
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    with pytest.raises(ValueError, match="at least one intensity"):
        coverage_experiment(SPEC1, params, [], reps=5, seed=SeedSpec(4))
    with pytest.raises(ValueError, match="intensity must be positive"):
        coverage_experiment(SPEC1, params, [30.0, -5.0], reps=5, seed=SeedSpec(4))
    assert calls == []


# coverage_experiment reports at d=1, eps=0.2 (subcomplex convention),
# lambda in {10, 30, 100}, 20 replications, recorded before the incremental
# strong collapse and the coordinate prune of the neighbour sweep.
GOLDEN_COVERAGE = {
    0: [(10.0, 0.0, 0.0), (30.0, 1.0, 0.0), (100.0, 1.0, 0.0)],
    1: [(10.0, 0.1, 0.0670820393249937), (30.0, 0.9, 0.06708203932499368),
        (100.0, 1.0, 0.0)],
    2: [(10.0, 0.1, 0.0670820393249937), (30.0, 1.0, 0.0), (100.0, 1.0, 0.0)],
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_COVERAGE))
def test_coverage_experiment_matches_golden(seed):
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    report = coverage_experiment(SPEC1, params, (10.0, 30.0, 100.0), reps=20,
                                 seed=SeedSpec(seed))
    assert report.to_json() == {
        "torus_betti": [1, 1],
        "points": [{"lambda": lam, "match_frequency": freq, "stderr": se,
                    "excluded": 0} for lam, freq, se in GOLDEN_COVERAGE[seed]],
    }


# clt_rate_experiment reports at eps=0.05 (subcomplex convention), 100
# replications, SeedSpec(11), recorded from the per-replication engine that
# preceded the block engine: (pattern, d, [(lambda, d_w, mean, std)], slope).
# The edge and the 2-path are stars, counted from the degree sequence; the
# triangle goes through the bitset search.
GOLDEN_CLT = {
    "edge": (GammaGraph.edge(), 1, [
        (20.0, 0.12830141871887116, 19.72, 10.097584469625007),
        (40.0, 0.1342419103337156, 83.02, 28.73353019689292),
        (80.0, 0.1234200553356925, 321.06, 74.86024959681185)],
        -0.027980138437542528),
    "2-path": (GammaGraph.make(3, [(0, 1), (1, 2)]), 2, [
        (50.0, 0.2675343951939982, 5.62, 5.060802028504689),
        (100.0, 0.1746397513913801, 49.11, 25.554811363780086),
        (200.0, 0.2319242261901601, 408.29, 127.17714480839771)],
        -0.10303542679889566),
    "triangle": (GammaGraph.complete(3), 2, [
        (50.0, 0.349968571555754, 0.98, 1.1189822215393825),
        (100.0, 0.17834205176470583, 9.17, 5.7613392803262595),
        (200.0, 0.27046786638146225, 77.71, 27.679732219759206)],
        -0.18588408371840084),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLT))
def test_clt_experiment_matches_golden(name):
    gamma, d, points, slope = GOLDEN_CLT[name]
    params = ComplexParams(epsilon=0.05, convention=Convention.SUBCOMPLEX_EPS)
    report = clt_rate_experiment(gamma, TorusSpec(d=d, a=1.0), params,
                                 [p[0] for p in points], reps=100,
                                 seed=SeedSpec(11))
    assert report.to_json() == {
        "points": [{"lambda": lam, "d_w": d_w, "mean": mean, "std": std}
                   for lam, d_w, mean, std in points],
        "slope": slope,
        "strictly_decreasing": False,
    }


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
