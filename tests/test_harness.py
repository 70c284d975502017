import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (chi_from_counts, dropping_edge_collapse, empirical_tail,
                     permutation_automorphism_count, z_score)
from torushom import cliques, complexes, harness, homology, subcomplex
from torushom.complexes import ComplexParams, Convention, simplex_counts
from torushom.harness import (CltReport, CoverageReport, ExperimentConfig,
                              clt_rate_experiment, coverage_experiment,
                              run_experiment, torus_betti)
from torushom.moments import ModelParams, mean_Nk, mean_chi
from torushom.sampling import Binomial, Poisson, SeedSpec, sample
from torushom.subcomplex import GammaGraph, star_counts
from torushom.torus import Metric, TorusSpec

SPEC1 = TorusSpec(d=1, a=1.0)
PARAMS = ComplexParams(epsilon=0.05)
# On the circle the Euclidean graphs are the max-norm's, but no window holds
# (``complexes.windowed``), so their Betti numbers come from the collapse,
# not from chi and the circular gaps.
EUCLID1 = ComplexParams(epsilon=0.05, metric=Metric.EUCLIDEAN)
COVER_EUCLID1 = ComplexParams(epsilon=0.2, metric=Metric.EUCLIDEAN,
                              convention=Convention.SUBCOMPLEX_EPS)


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
    with pytest.raises(ValueError, match="max_dim"):
        ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                         replications=1, master_seed=1, quantities=("chi",),
                         max_dim=-3)
    # a repeat would merge the values of two quantities into one estimate
    for quantities in ((), ("N_1", "N_1"), ("chi", "N_2", "chi")):
        with pytest.raises(ValueError, match="nonempty and distinct"):
            ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=PARAMS,
                             replications=5, master_seed=1, quantities=quantities)


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
        assert abs(z_score(report.estimates[q], analytic)) < 4.0, q


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


def test_zero_cap_is_no_exemption(monkeypatch):
    # 0 is a cap like any other, for the clique enumeration of beta_1 as for
    # the counts: the first replication with a point passes it
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 0)
    for quantities, params in ((("beta_1",), EUCLID1), (("N_3", "chi"), PARAMS)):
        cfg = ExperimentConfig(law=Poisson(15.0), spec=SPEC1, params=params,
                               replications=20, master_seed=8,
                               quantities=quantities)
        with pytest.raises(cliques.SimplexCapExceeded,
                           match="^replication 0: more than DEFAULT_SIMPLEX_CAP = 0 "):
            run_experiment(cfg)


def test_cap_bounds_only_the_counts_asked_for(monkeypatch):
    # Every draw has more than 2000 cliques in all, but fewer than 500
    # vertices and edges: only N_1, N_2 are counted, and chi never is.
    cfg = ExperimentConfig(law=Poisson(60.0), spec=SPEC1, params=PARAMS,
                           replications=8, master_seed=21,
                           quantities=("N_1", "N_2", "chi"))
    base = SeedSpec(master_seed=21, stream_index=0)
    fulls = [simplex_counts(sample(cfg.law, SPEC1, base.child("experiment", rep)),
                            PARAMS) for rep in range(8)]
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 2000)
    report = run_experiment(cfg)
    assert report.estimates["chi"].n == 8
    for rep, full in enumerate(fulls):
        assert full.counts.sum() > 2000
        assert report.raw["chi"][rep] == chi_from_counts(full.counts)
        assert report.raw["N_2"][rep] == full.N(2)


def test_n3_from_the_join_is_capped_as_the_walk_to_it(monkeypatch):
    # N_3 comes from the triangle join, but a replication raises exactly
    # where the walk to N_3 would: once N_1 + N_2 + N_3 passes the cap
    cfg = ExperimentConfig(law=Poisson(40.0), spec=TorusSpec(d=2, a=1.0),
                           params=ComplexParams(epsilon=0.08), replications=12,
                           master_seed=5, quantities=("N_3",))
    totals = []
    for rep in range(12):
        pts = sample(cfg.law, cfg.spec,
                     SeedSpec(5).child("experiment", rep)).points
        u, v = complexes.threshold_edges(pts, 1.0, cfg.params)
        totals.append(sum(cliques.counts_from_bitsets(
            cliques.neighbour_bitsets(u, v, len(pts)), 3)))
    cap = sorted(totals)[len(totals) // 2]
    first = next(rep for rep, total in enumerate(totals) if total > cap)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", cap)
    with pytest.raises(cliques.SimplexCapExceeded,
                       match=f"^replication {first}: more than "
                             f"DEFAULT_SIMPLEX_CAP = {cap} cliques of at most "
                             "3 vertices$"):
        run_experiment(cfg)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", max(totals))
    assert run_experiment(cfg).estimates["N_3"].n == 12


@pytest.mark.parametrize("block_reps", (1024, 7))
def test_n4_walk_passes_the_cap_inside_a_block(monkeypatch, block_reps):
    # the builder walks each graph of a block as it yields it, so the walk to
    # N_4 raises at the first replication past the cap, named by the
    # experiment, wherever the block boundaries fall (seed 9 puts it at
    # replication 4, inside a block of 7 or of 1024)
    cfg = ExperimentConfig(law=Poisson(40.0), spec=TorusSpec(d=2, a=1.0),
                           params=ComplexParams(epsilon=0.08), replications=12,
                           master_seed=9, quantities=("N_4",))
    totals = []
    for rep in range(12):
        pts = sample(cfg.law, cfg.spec,
                     SeedSpec(9).child("experiment", rep)).points
        u, v = complexes.threshold_edges(pts, 1.0, cfg.params)
        totals.append(sum(cliques.counts_from_bitsets(
            cliques.neighbour_bitsets(u, v, len(pts)), 4)))
    cap = sorted(totals)[len(totals) // 2]
    first = next(rep for rep, total in enumerate(totals) if total > cap)
    assert 0 < first < 7
    monkeypatch.setattr(complexes, "_BLOCK_REPS", block_reps)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", cap)
    with pytest.raises(cliques.SimplexCapExceeded,
                       match=f"^replication {first}: more than "
                             f"DEFAULT_SIMPLEX_CAP = {cap} cliques of at most "
                             "4 vertices$"):
        run_experiment(cfg)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", max(totals))
    assert run_experiment(cfg).estimates["N_4"].n == 12


def _later_counts(x: np.ndarray, t: float) -> list[int]:
    """The number of points within t after each point of a uniform draw on
    the unit circle, from its dense wrapped forward differences."""
    forward = (x[None, :] - x[:, None]) % 1.0
    return ((forward > 0) & (forward < t)).sum(axis=1).tolist()


def test_dense_circle_passes_the_cap_at_once(monkeypatch):
    # t = 0.3 at lambda = 200: N_1..N_4 of each draw is 3.5e6 to 1.5e7
    # cliques, the first past DEFAULT_SIMPLEX_CAP = 10^7 being replication 1
    # (seed 4).  The anchored counts refuse it as the walk would, with the
    # walk's message, at once, where a walk would take seconds a draw.
    params = ComplexParams(epsilon=0.15)
    cfg = ExperimentConfig(law=Poisson(200.0), spec=SPEC1, params=params,
                           replications=8, master_seed=4, quantities=("N_4",))
    draws = [sample(cfg.law, SPEC1, SeedSpec(4).child("experiment", rep))
             for rep in range(2)]
    counts = []
    for draw in draws:
        later = _later_counts(draw.points[:, 0], 0.3)
        counts.append([draw.n] + [sum(math.comb(m, j) for m in later)
                                  for j in (1, 2, 3)])
    cap = cliques.DEFAULT_SIMPLEX_CAP
    assert sum(counts[0]) <= cap < sum(counts[1])
    over = draws[1]
    start = time.perf_counter()
    with pytest.raises(cliques.SimplexCapExceeded,
                       match=f"^replication 1: more than DEFAULT_SIMPLEX_CAP = "
                             f"{cap} cliques of at most 4 vertices$"):
        run_experiment(cfg)
    with pytest.raises(cliques.SimplexCapExceeded,
                       match=f"^more than DEFAULT_SIMPLEX_CAP = {cap} cliques "
                             "of at most 4 vertices$"):
        simplex_counts(over, params, max_dim=3)
    with pytest.raises(cliques.SimplexCapExceeded,
                       match=f"^more than DEFAULT_SIMPLEX_CAP = {cap} cliques "
                             f"of at most {over.n} vertices$"):
        simplex_counts(over, params)
    assert time.perf_counter() - start < 1.0
    # a cap at the draw's exact total passes it, one below refuses it
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", sum(counts[1]))
    assert simplex_counts(over, params, max_dim=3).counts.tolist() == counts[1]
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", sum(counts[1]) - 1)
    with pytest.raises(cliques.SimplexCapExceeded):
        simplex_counts(over, params, max_dim=3)


def _count_walks(monkeypatch) -> list[int]:
    """The vertex count of each clique walk from now on."""
    walks = []
    walk = cliques.counts_from_bitsets

    def counting(*args):
        walks.append(len(args[0]))
        return walk(*args)

    for module in (cliques, complexes):
        monkeypatch.setattr(module, "counts_from_bitsets", counting)
    return walks


def test_triangles_and_full_homology_walk_no_cliques(monkeypatch):
    # N_3 and beta_1: N_3 comes from the block's triangle join, equal to the
    # walk's on the same graphs, and homology counts no cliques
    walk = cliques.counts_from_bitsets
    walks = _count_walks(monkeypatch)
    cfg = ExperimentConfig(law=Poisson(30.0), spec=TorusSpec(d=2, a=1.0),
                           params=ComplexParams(epsilon=0.07), replications=10,
                           master_seed=7, quantities=("N_3", "beta_1"))
    report = run_experiment(cfg)
    assert report.excluded == 0
    assert walks == []
    for rep in range(10):
        pts = sample(cfg.law, cfg.spec,
                     SeedSpec(7).child("experiment", rep)).points
        u, v = complexes.threshold_edges(pts, 1.0, cfg.params)
        assert report.raw["N_3"][rep] == walk(
            cliques.neighbour_bitsets(u, v, len(pts)), 3)[3]
    assert report.raw["N_3"].sum() > 0


def test_betti_numbers_count_no_cliques(monkeypatch):
    walks = _count_walks(monkeypatch)
    cfg = ExperimentConfig(law=Poisson(30.0), spec=TorusSpec(d=2, a=1.0),
                           params=ComplexParams(epsilon=0.07), replications=10,
                           master_seed=7, quantities=("beta_0", "beta_1"))
    report = run_experiment(cfg)
    assert report.excluded == 0 and report.homology_violations == 0
    assert walks == []


def test_cap_on_the_core_raises_naming_the_replication(monkeypatch):
    # a core that is a cycle of m > 5 vertices has 2m > 10 cliques, and a
    # contractible core is one vertex
    cfg = ExperimentConfig(law=Poisson(40.0), spec=SPEC1, params=EUCLID1,
                           replications=20, master_seed=5, quantities=("beta_1",))
    first_cycle = run_experiment(cfg).raw["beta_1"].tolist().index(1.0)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 10)
    with pytest.raises(cliques.SimplexCapExceeded,
                       match=f"^replication {first_cycle}: more than "
                             "DEFAULT_SIMPLEX_CAP = 10 cliques$"):
        run_experiment(cfg)


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


def _count_draws(monkeypatch, calls: dict) -> dict:
    """``calls``, counting under "sample" the configurations that the
    experiments draw through ``sample_run`` from now on."""
    calls["sample"] = 0

    def counting_run(*args):
        for pts in real_run(*args):
            calls["sample"] += 1
            yield pts

    real_run = harness.sample_run
    monkeypatch.setattr(harness, "sample_run", counting_run)
    return calls


def test_clt_experiment_rejects_small_reps_before_sampling(monkeypatch):
    calls = _count_draws(monkeypatch, {})
    with pytest.raises(ValueError):
        clt_rate_experiment(GammaGraph.edge(), SPEC1, PARAMS,
                            [10.0, 20.0, 40.0], 99, SeedSpec(1))
    assert calls == {"sample": 0}


def _counted(calls: dict, name: str, fn):
    """``fn``, counting its calls under ``calls[name]``."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def _count_calls(monkeypatch):
    """Counts of the configurations drawn (``_count_draws``) and of the
    calls to threshold_edges, adjacency_matrix, neighbour_bitsets and
    collapsed_homology from now on, and the point counts of the
    configurations of each block."""
    calls = dict.fromkeys(("threshold_edges", "adjacency_matrix",
                           "neighbour_bitsets", "collapsed_homology"), 0)
    blocks = []

    def counting_blocks(draws, bitsets):
        for block in real_blocks(draws, bitsets):
            blocks.append([pts.shape[0] for pts in block])
            yield block

    real_blocks = complexes._blocks
    monkeypatch.setattr(complexes, "_blocks", counting_blocks)
    for module in (cliques, complexes, harness, homology, subcomplex):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    _counted(calls, name, getattr(module, name)))
    return _count_draws(monkeypatch, calls), blocks


def test_clt_experiment_sweeps_once_per_block(monkeypatch):
    calls, blocks = _count_calls(monkeypatch)
    params = ComplexParams(epsilon=0.05, convention=Convention.SUBCOMPLEX_EPS)
    lambdas = [50.0, 100.0, 200.0]
    # the 2-path is a star, counted from the degrees of a block of at most
    # 2^16 points, so one block per intensity; the triangle is searched for
    # in bitsets, packed once per block of at most 2^16 cells of points x
    # largest configuration
    for gamma, packs in ((GammaGraph.make(3, [(0, 1), (1, 2)]), False),
                         (GammaGraph.complete(3), True)):
        blocks.clear()
        for name in calls:
            calls[name] = 0
        clt_rate_experiment(gamma, TorusSpec(d=2, a=1.0), params, lambdas,
                            reps=100, seed=SeedSpec(5))
        assert sum(map(len, blocks)) == 100 * len(lambdas)
        if packs:
            assert len(blocks) > len(lambdas)
            assert all(len(b) == 1 or sum(b) * max(b) <= complexes._BLOCK_CELLS
                       for b in blocks)
        else:
            assert len(blocks) == len(lambdas)
        assert calls == {"sample": 100 * len(lambdas),
                         "threshold_edges": len(blocks),
                         "adjacency_matrix": 0,
                         "neighbour_bitsets": len(blocks) if packs else 0,
                         "collapsed_homology": 0}


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(1, 40),
       st.integers(1, 3000), st.integers(0, 10 ** 6))
def test_property_block_star_counts_match_each_configuration(k, d, block_reps,
                                                              block_cells, seed):
    # blocks cut anywhere, by the configuration or the point bound, count
    # each configuration as the Python-int sum over its own degrees does
    gamma = GammaGraph.make(k + 1, [(0, i) for i in range(1, k + 1)])
    aut = permutation_automorphism_count(gamma)
    spec = TorusSpec(d=d, a=1.0)
    params = ComplexParams(epsilon=0.05, convention=Convention.SUBCOMPLEX_EPS)
    draws = [sample(Poisson(lam=60.0 * d), spec,
                    SeedSpec(seed).child("clt", r)).points for r in range(30)]
    expected = []
    for pts in draws:
        u, v = complexes.threshold_edges(pts, 1.0, params)
        degrees = np.bincount(np.concatenate((u, v)), minlength=len(pts))
        expected.append(sum(math.perm(int(g), k) for g in degrees) // aut)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_BLOCK_REPS", block_reps)
        mp.setattr(complexes, "_BLOCK_CELLS", block_cells)
        blocks = list(complexes.sweeps(iter(draws), spec, params, False))
    assert all(len(sizes) <= block_reps
               and (len(sizes) == 1 or sizes.sum() <= block_cells)
               for sizes, *_ in blocks)
    assert [c for block in blocks
            for c in star_counts(gamma, block.degrees, block.sizes)] == expected


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
    # an automorphism search is the search of a pattern in itself
    scans = []
    search = subcomplex._search

    def counting(neigh, gamma):
        if neigh is gamma.bits:
            scans.append(gamma)
        return search(neigh, gamma)

    monkeypatch.setattr(subcomplex, "_search", counting)
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
    monkeypatch.setattr(homology, "_collapse_edges",
                        dropping_edge_collapse(homology._collapse_edges))
    params = COVER_EUCLID1
    pc = sample(Poisson(lam=60.0), SPEC1, SeedSpec(4).child("coverage", 60.0, 0))
    violations = homology.collapsed_homology(pc, params).violations
    assert violations == ["euler characteristic mismatch: counts give 0, betti give 1"]
    with pytest.raises(RuntimeError, match="lambda=60.0, replication 0: "
                       + violations[0]):
        coverage_experiment(SPEC1, params, [60.0], reps=5, seed=SeedSpec(4))


def test_a_wrong_first_collapse_fails_the_whole_graph_check(monkeypatch):
    # half of the first strong-collapse core keeps this draw connected and
    # gives beta = [1, 0] for [1, 1], with a core chi to match; only the chi
    # of the whole graph can tell
    collapse = homology.collapse_from_bitsets
    calls = []

    def half_core_first(neigh):
        core = collapse(neigh)
        calls.append(core.size)
        return core[:core.size // 2] if len(calls) == 1 else core

    params = COVER_EUCLID1
    pc = sample(Poisson(lam=60.0), SPEC1, SeedSpec(4).child("coverage", 60.0, 0))
    assert homology.collapsed_homology(pc, params).betti == [1, 1]
    monkeypatch.setattr(homology, "collapse_from_bitsets", half_core_first)
    calls.clear()
    result = homology.collapsed_homology(pc, params)
    assert result.betti == [1, 0]
    assert result.violations == [
        "euler characteristic mismatch: counts give 0, betti give 1"]
    calls.clear()
    with pytest.raises(RuntimeError, match="lambda=60.0, replication 0: euler"):
        coverage_experiment(SPEC1, params, [60.0], reps=1, seed=SeedSpec(4))


@pytest.mark.parametrize("d, lam, eps, clean, chi, mutant_chi", [
    (3, 300.0, 0.1, [1, 43, 14], -28, -47),
    (1, 30.0, 0.2, [1, 0, 0, 1], 0, 1),
], ids=("d=3", "t>=a/3"))
def test_a_wrong_first_collapse_fails_outside_the_windows(
        monkeypatch, d, lam, eps, clean, chi, mutant_chi):
    # at d = 3, and at d = 1 with t = 0.4 >= a/3, no window chi applies:
    # the half core's Betti numbers are checked against the pivoted chi of
    # the whole graph, which its own chi matches
    collapse = homology.collapse_from_bitsets
    calls = []

    def half_core_first(neigh):
        core = collapse(neigh)
        calls.append(core.size)
        return core[:core.size // 2] if len(calls) == 1 else core

    spec, params = TorusSpec(d=d, a=1.0), ComplexParams(epsilon=eps)
    assert not complexes.windowed(d, spec.a, params)
    pc = sample(Poisson(lam=lam), spec, SeedSpec(4).child("coverage", lam, 0))
    result = homology.collapsed_homology(pc, params)
    assert result.betti == clean and result.violations == []
    monkeypatch.setattr(homology, "collapse_from_bitsets", half_core_first)
    mismatch = (f"euler characteristic mismatch: counts give {chi}, "
                f"betti give {mutant_chi}")
    assert homology.collapsed_homology(pc, params).violations == [mismatch]
    calls.clear()
    with pytest.raises(RuntimeError, match=f"lambda={lam}, replication 0: "
                       + mismatch):
        coverage_experiment(spec, params, [lam], 1, SeedSpec(4))


def _count_chi_walks(monkeypatch) -> list[int]:
    """The vertex count of each pivoted chi of the graph builder from now
    on; a ``window_chi`` raises."""
    walks = []
    chi = cliques.chi_from_bitsets

    def counting(neigh):
        walks.append(len(neigh))
        return chi(neigh)

    def refused(*args):
        raise AssertionError("window_chi outside its domain")

    monkeypatch.setattr(complexes, "chi_from_bitsets", counting)
    monkeypatch.setattr(complexes, "window_chi", refused)
    return walks


@pytest.mark.parametrize("d, a, params", [
    (2, 1.0, ComplexParams(epsilon=0.05, metric=Metric.EUCLIDEAN,
                           convention=Convention.SUBCOMPLEX_EPS)),
    (3, 1.0, ComplexParams(epsilon=0.05)),
    (1, 1.0, ComplexParams(epsilon=1 / 6)),
    (1, 3.0, ComplexParams(epsilon=1.0, convention=Convention.SUBCOMPLEX_EPS)),
], ids=("euclidean", "d=3", "3t=a", "subeps-t=a/3"))
def test_chi_outside_the_windows_is_the_pivoted_sum(monkeypatch, d, a, params):
    walks = _count_chi_walks(monkeypatch)
    cfg = ExperimentConfig(law=Poisson(30.0 / a ** d), spec=TorusSpec(d=d, a=a),
                           params=params, replications=6, master_seed=3,
                           quantities=("N_2", "chi"))
    report = run_experiment(cfg)
    assert len(walks) == 6
    for rep in range(6):
        pts = sample(cfg.law, cfg.spec,
                     SeedSpec(3).child("experiment", rep)).points
        u, v = complexes.threshold_edges(pts, a, params)
        assert report.raw["chi"][rep] == cliques.chi_from_bitsets(
            cliques.neighbour_bitsets(u, v, len(pts)))


def test_three_points_a_third_apart_are_a_triangle(monkeypatch):
    # at t = a/3 the three points are pairwise adjacent but fit in no window,
    # where the window rule would give chi = 0
    walks = _count_chi_walks(monkeypatch)
    monkeypatch.setattr(harness, "sample_run",
                        lambda *args: iter([np.array([[0.0], [1.0], [2.0]])]))
    params = ComplexParams(epsilon=1.0, convention=Convention.SUBCOMPLEX_EPS)
    cfg = ExperimentConfig(law=Poisson(1.0), spec=TorusSpec(d=1, a=3.0),
                           params=params, replications=1, master_seed=0,
                           quantities=("N_2", "N_3", "chi"))
    report = run_experiment(cfg)
    assert [report.raw[q][0] for q in cfg.quantities] == [3.0, 1.0, 1.0]
    assert walks == [3]


def test_window_chi_packs_no_bitsets(monkeypatch):
    # N_2 and chi under the max-norm at 3t < a: one window chi per block,
    # no bitsets and no walk, equal to the pivoted sum of each configuration
    cfg = ExperimentConfig(law=Poisson(60.0), spec=TorusSpec(d=2, a=1.0),
                           params=PARAMS, replications=40, master_seed=9,
                           quantities=("N_2", "chi"))
    expected = []
    for rep in range(40):
        pts = sample(cfg.law, cfg.spec, SeedSpec(9).child("experiment", rep)).points
        u, v = complexes.threshold_edges(pts, 1.0, PARAMS)
        expected.append(cliques.chi_from_bitsets(
            cliques.neighbour_bitsets(u, v, len(pts))))
    calls, blocks = _count_calls(monkeypatch)
    monkeypatch.setattr(complexes, "chi_from_bitsets", None)
    report = run_experiment(cfg)
    assert report.raw["chi"].tolist() == expected
    assert calls["neighbour_bitsets"] == 0 and len(blocks) == 1


def test_coverage_experiment_sweeps_once_per_block(monkeypatch):
    # on the circle the Betti numbers come from chi and the gaps, packing
    # no bitsets and running no collapse
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    _check_coverage_sweeps(monkeypatch, 1, params, [10.0, 30.0, 100.0])


def test_coverage_experiment_at_d2_packs_once_per_block(monkeypatch):
    # each block is packed once, and each replication collapsed; a core's
    # cliques are listed only when it has a triangle, which 8 of the 20
    # cores at lambda = 800 have and none at the lower intensities
    _check_coverage_sweeps(monkeypatch, 2, ComplexParams(epsilon=0.05),
                           [50.0, 100.0, 200.0, 800.0])


def _check_coverage_sweeps(monkeypatch, d, params, lambdas):
    """Check the blocks and the calls of ``coverage_experiment`` at d with
    20 replications an intensity, in blocks of at most 7."""
    spec = TorusSpec(d=d, a=1.0)
    # a core is listed when it has a triangle, that is when its Betti list
    # runs past beta_1
    listings = 0 if d == 1 else sum(
        len(homology.collapsed_homology(
            sample(Poisson(lam=lam), spec, SeedSpec(1).child("coverage", lam, rep)),
            params).betti) > 2
        for lam in lambdas for rep in range(20))
    monkeypatch.setattr(complexes, "_BLOCK_REPS", 7)
    calls, blocks = _count_calls(monkeypatch)
    walks = dict.fromkeys(("homology_from_bitsets", "collapse_from_bitsets",
                           "enumerate_cliques"), 0)
    for module, name in ((harness, "homology_from_bitsets"),
                         (homology, "collapse_from_bitsets"),
                         (homology, "enumerate_cliques")):
        monkeypatch.setattr(module, name, _counted(walks, name,
                                                   getattr(module, name)))
    coverage_experiment(spec, params, lambdas, reps=20, seed=SeedSpec(1))
    # at least three blocks of at most 7 configurations per intensity
    reps = 20 * len(lambdas)
    assert sum(map(len, blocks)) == reps
    assert len(blocks) >= 3 * len(lambdas)
    assert calls == {"sample": reps,
                     "threshold_edges": len(blocks),
                     "adjacency_matrix": 0,
                     "neighbour_bitsets": 0 if d == 1 else len(blocks),
                     "collapsed_homology": 0}
    if d == 1:
        assert walks == dict.fromkeys(walks, 0)
    else:
        assert walks["homology_from_bitsets"] == reps
        assert walks["enumerate_cliques"] == listings
        assert walks["collapse_from_bitsets"] >= reps


def _first(stream, reps: int, params, test):
    """The first replication r < ``reps`` of ``stream(r)``, a seed, at which
    ``test`` holds of the sorted coordinates of its draw on the circle,
    under ``params``, else None."""
    for r in range(reps):
        x = np.sort(sample(Poisson(lam=10.0), SPEC1, stream(r)).points[:, 0])
        if test(x, params):
            return r
    return None


def _only_the_wrap_gap_fails(x, params) -> bool:
    return x.size > 0 and all(params.adjacent(g) for g in np.diff(x)) \
        and not params.adjacent(1.0 - (x[-1] - x[0]))


def _every_gap_passes(x, params) -> bool:
    return x.size > 0 and all(params.adjacent(g) for g in np.diff(x)) \
        and params.adjacent(1.0 - (x[-1] - x[0]))


def _covered_without_the_wrap_gap(points, a, params, starts):
    """A broken ``circle_covered`` that forgets the wrap gap."""
    out = []
    for first, last in zip(starts[:-1].tolist(), starts[1:].tolist()):
        x = np.sort(points[first:last, 0])
        out.append(x.size > 0 and all(params.adjacent(g) for g in np.diff(x)))
    return np.array(out)


def _arcs_without_the_wrap(arcs):
    """A broken ``_arcs`` that orients each edge as on a circle twice as
    long, so that no edge wraps round: on the circle, the last point of a
    covered configuration then has no neighbour after it, and chi >= 1."""
    return lambda col, a, u, v: arcs(col, 2.0 * a, u, v)


@pytest.mark.parametrize("name, mutant, test", [
    ("circle_covered", lambda real: _covered_without_the_wrap_gap,
     _only_the_wrap_gap_fails),
    ("_arcs", _arcs_without_the_wrap, _every_gap_passes),
], ids=("gap-test", "window-chi"))
def test_a_broken_circle_rule_fails_its_check(monkeypatch, name, mutant, test):
    # the gaps and chi are found apart, so a fault in either makes every gap
    # pass where chi != 0: first at the replication whose draw the mutant
    # misreads, named by both experiments (seed 4 puts it past replication
    # 0 for both faults in both)
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    seed = SeedSpec(4)
    at_coverage = _first(lambda r: seed.child("coverage", 10.0, r), 60,
                         params, test)
    at_experiment = _first(lambda r: seed.child("experiment", r), 60, params,
                           test)
    assert at_coverage > 0 and at_experiment > 0
    coverage_experiment(SPEC1, params, [10.0], reps=60, seed=seed)
    cfg = ExperimentConfig(law=Poisson(10.0), spec=SPEC1, params=params,
                           replications=60, master_seed=4,
                           quantities=("beta_0", "beta_1"))
    run_experiment(cfg)
    monkeypatch.setattr(complexes, name, mutant(getattr(complexes, name)))
    with pytest.raises(RuntimeError, match=(
            f"^homology check failed at lambda=10.0, replication {at_coverage}: "
            r"\d+ points with chi = [1-9]\d*, but every circular gap passes$")):
        coverage_experiment(SPEC1, params, [10.0], reps=60, seed=seed)
    with pytest.raises(RuntimeError, match=(
            f"^homology check failed at replication {at_experiment}: ")):
        run_experiment(cfg)


def test_coverage_experiment_rejects_large_radius_before_sampling(monkeypatch):
    calls, _ = _count_calls(monkeypatch)
    with pytest.raises(ValueError, match="ball radius"):
        coverage_experiment(SPEC1, ComplexParams(epsilon=0.25), [30.0], reps=5,
                            seed=SeedSpec(4))
    assert calls["sample"] == 0


def test_coverage_experiment_rejects_bad_intensities_before_sampling(monkeypatch):
    calls = _count_draws(monkeypatch, {})
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    with pytest.raises(ValueError, match="at least one intensity"):
        coverage_experiment(SPEC1, params, [], reps=5, seed=SeedSpec(4))
    with pytest.raises(ValueError, match="intensity must be positive"):
        coverage_experiment(SPEC1, params, [30.0, -5.0], reps=5, seed=SeedSpec(4))
    assert calls == {"sample": 0}


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
    _check_coverage_golden(seed)


def _check_coverage_golden(seed):
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    report = coverage_experiment(SPEC1, params, (10.0, 30.0, 100.0), reps=20,
                                 seed=SeedSpec(seed))
    assert report.to_json() == {
        "torus_betti": [1, 1],
        "points": [{"lambda": lam, "match_frequency": freq, "stderr": se}
                   for lam, freq, se in GOLDEN_COVERAGE[seed]],
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
    _check_clt_golden(name)


def _check_clt_golden(name):
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

# (law, d, quantities, replications, seed, convention, metric, max_dim,
#  SHA-256 of the float64 raw arrays in quantity order).  The hashes were
#  recorded from the per-replication engine that preceded the block engine:
#  the seven benchmark cells and one beta_1 run.
GOLDEN = [
    (Poisson(20.0), 1, NK_CHI, 200, 101, RIPS, Metric.MAX_NORM, None,
     "d50d0c88dd8db64f66edc3b5f0d8a0a08d8550ae32d41a6eb006140bc840f560"),
    (Poisson(50.0), 1, NK_CHI, 200, 102, RIPS, Metric.MAX_NORM, None,
     "4d59d277189c149d9a47be32e4dde7e8616d0b426b176f9f263864d5c2fe6bd6"),
    (Poisson(20.0), 2, NK_CHI, 200, 103, RIPS, Metric.MAX_NORM, None,
     "f26809f93a1e0a3e80023fc167d0eb000660345c7c7193369af65b263b109a97"),
    (Poisson(50.0), 2, NK_CHI, 200, 104, RIPS, Metric.MAX_NORM, None,
     "bb0cc279f433321838886c8035bd93ab20c94d3c73f59522526007511874ef19"),
    (Poisson(20.0), 1, ("beta_0",), 200, 105, RIPS, Metric.MAX_NORM, None,
     "54d1191fa3afaf87383d9736d19b40b7da9a31305df7eb4d69964aec21036c99"),
    (Binomial(20), 1, ("N_2", "chi"), 200, 106, RIPS, Metric.MAX_NORM, None,
     "9508eba0c972c2ff223cec8b852b5db851e219ce7a635781341c942df1798bc1"),
    (Poisson(100.0), 2, ("N_2", "N_3"), 200, 107, Convention.SUBCOMPLEX_EPS,
     Metric.EUCLIDEAN, 2,
     "957503feca7b82c3f0daadb1c1e94e7994a3ca49e6ff1b8c1a2ddae5a3a56f31"),
    (Poisson(15.0), 1, ("n_points", "beta_0", "beta_1"), 100, 108, RIPS,
     Metric.MAX_NORM, None,
     "72d9a5cd82ba7cc0ae5f82b4617ce9f3bdb14d63f9586c8e0c530df516649b7d"),
]


def _golden_config(law, d, quantities, reps, seed, convention, metric, max_dim):
    return ExperimentConfig(
        law=law, spec=TorusSpec(d=d, a=1.0),
        params=ComplexParams(epsilon=0.05, metric=metric, convention=convention),
        replications=reps, master_seed=seed, quantities=quantities,
        max_dim=max_dim)


def _raw_hash(report) -> str:
    h = hashlib.sha256()
    for q in report.config.quantities:
        h.update(np.ascontiguousarray(report.raw[q], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", GOLDEN, ids=[str(c[4]) for c in GOLDEN])
def test_raw_values_match_golden_hashes(case):
    *args, digest = case
    assert _raw_hash(run_experiment(_golden_config(*args))) == digest


# A run of N_1..N_3 and chi whose clique walk passes a cap of 1500 cliques
# in about half of its replications; it once dropped them.
CAPPED = _golden_config(Poisson(60.0), 1, ("N_1", "N_2", "N_3", "chi"), 60, 109,
                        RIPS, Metric.MAX_NORM, None)


def _check_cap_overrun_raises(monkeypatch):
    base = SeedSpec(master_seed=CAPPED.master_seed, stream_index=0)
    draws = (sample(CAPPED.law, SPEC1, base.child("experiment", rep))
             for rep in range(CAPPED.replications))
    # the walk to N_3 passes the cap when N_1 + N_2 + N_3 > 1500
    first = next(rep for rep, pc in enumerate(draws)
                 if simplex_counts(pc, PARAMS, max_dim=2).counts.sum() > 1500)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 1500)
    with pytest.raises(cliques.SimplexCapExceeded,
                       match=f"^replication {first}: more than DEFAULT_SIMPLEX_CAP "
                             "= 1500 cliques of at most 3 vertices$"):
        run_experiment(CAPPED)


def test_cap_overrun_raises_naming_the_replication(monkeypatch):
    _check_cap_overrun_raises(monkeypatch)


# (law, quantities, seed): runs that walk no clique, which a cap once cut short
UNCAPPED = [(Poisson(40.0), ("N_1", "N_2"), 110), (Poisson(60.0), ("chi",), 111)]


@pytest.mark.parametrize("cap", (60, 200))
@pytest.mark.parametrize("law, quantities, seed", UNCAPPED, ids=("110", "111"))
def test_cap_never_bounds_points_edges_or_chi(monkeypatch, cap, law, quantities,
                                              seed):
    # N_1, N_2 and chi walk no clique, so no cap drops or fails a replication
    cfg = _golden_config(law, 1, quantities, 60, seed, RIPS, Metric.MAX_NORM, None)
    free = run_experiment(cfg)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", cap)
    capped = run_experiment(cfg)
    for q in quantities:
        assert capped.estimates[q].n == 60
        assert np.array_equal(capped.raw[q], free.raw[q])


def test_block_boundaries_do_not_change_values(monkeypatch):
    # three golden cases, and the uncapped N_1,N_2 and chi-only runs, the
    # first of which builds no neighbour bitsets
    configs = [_golden_config(*c[:-1]) for c in (GOLDEN[0], GOLDEN[4], GOLDEN[7])]
    configs += [_golden_config(law, 1, quantities, 60, seed, RIPS, Metric.MAX_NORM,
                               None) for law, quantities, seed in UNCAPPED]
    whole = [run_experiment(cfg) for cfg in configs]
    # blocks of 7 replications, and a scratch budget below one
    # configuration's n^2, so that most configurations run alone
    monkeypatch.setattr(complexes, "_BLOCK_REPS", 7)
    monkeypatch.setattr(complexes, "_BLOCK_CELLS", 300)
    for cfg, expected in zip(configs, whole):
        split = run_experiment(cfg)
        assert _raw_hash(split) == _raw_hash(expected)
    for seed in GOLDEN_COVERAGE:
        _check_coverage_golden(seed)
    for name in GOLDEN_CLT:
        _check_clt_golden(name)
    _check_cap_overrun_raises(monkeypatch)
