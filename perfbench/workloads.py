"""The four benchmark workloads.

Each workload turns the benchmark seed into the inputs of one round, runs
the round through torushom's public entry points (the timed part), and then
checks the outputs against facts that do not depend on the random stream:
closed-form means within 5 standard errors, identities between two
computations of the same quantity, and counts made on the benchmark side.
Statistical checks pool every round of a run.

A round is one closed-loop pass over the workload's operations, single
threaded.  Call sites reach torushom through module attributes
(``harness.run_experiment``, not a bound name) so that a tracer installed
after import sees every call.

Why each workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from torushom import complexes, harness, homology, moments, subcomplex
from torushom.complexes import ComplexParams, Convention
from torushom.moments import ModelParams
from torushom.sampling import Binomial, PointConfiguration, Poisson, SeedSpec
from torushom.subcomplex import GammaGraph
from torushom.torus import Metric, TorusSpec

RIPS = Convention.RIPS_HALF_OPEN_2EPS
SUB = Convention.SUBCOMPLEX_EPS
Z_LIMIT = 5.0


def round_seed(seed: int, rnd: int, part: int) -> int:
    """A 63-bit seed for part ``part`` of round ``rnd``."""
    state = np.random.SeedSequence([seed, rnd, part]).generate_state(2)
    return (int(state[0]) << 31) ^ int(state[1])


def uniform_points(rng: np.random.Generator, n: int, d: int) -> PointConfiguration:
    """Benchmark-side configuration of n uniform points on the unit d-torus."""
    return PointConfiguration(spec=TorusSpec(d=d, a=1.0),
                              points=rng.uniform(0.0, 1.0, size=(n, d)))


def poisson_points(rng: np.random.Generator, lam: float, d: int) -> PointConfiguration:
    """Benchmark-side Poisson configuration on the unit d-torus."""
    return uniform_points(rng, int(rng.poisson(lam)), d)


def trimmed(betti) -> tuple[int, ...]:
    """Betti numbers without trailing zeros, for comparing two computations."""
    b = list(betti)
    while b and b[-1] == 0:
        b.pop()
    return tuple(b)


def neighbour_graph(pc: PointConfiguration, radius: float):
    """Benchmark-side max-norm graph, adjacent below ``radius`` (scipy).

    Independent of torushom: a periodic k-d tree instead of the dense
    distance matrix.
    """
    from scipy.sparse import coo_matrix
    from scipy.spatial import cKDTree

    pairs = cKDTree(pc.points, boxsize=pc.spec.a).query_pairs(
        np.nextafter(radius, 0.0), p=np.inf, output_type="ndarray")
    n = pc.n
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    return graph, len(pairs)


def mean_beta0_circle(lam: float, t: float) -> float:
    """E[beta_0] of the d=1 Rips complex (adjacent below ``t``) on the unit circle.

    beta_0 is the number of circular spacings >= t, or 1 when there is none
    and the configuration is not empty.  E[#spacings >= t] = lam e^{-lam t};
    P(no spacing >= t | n points) is Stevens' covering formula.
    """
    tf = Fraction(t).limit_denominator(10 ** 9)
    covered = 0.0
    pn = math.exp(-lam)
    for n in range(1, int(lam * 10) + 50):
        pn *= lam / n
        p_cov = sum((-1) ** k * math.comb(n, k) * (1 - k * tf) ** (n - 1)
                    for k in range(0, min(n, int(1 / tf)) + 1)
                    if 1 - k * tf > 0)
        covered += pn * float(p_cov)
    return lam * math.exp(-lam * t) + covered


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for the failures.

    Failures are charged to a group of operations (a cell of one round, a
    configuration, ...).  A group is charged at most once, with the largest
    number of its operations that any check failed, so an operation that
    fails several checks counts once and ``failed`` never exceeds
    ``attempted``.
    """

    attempted: int = 0
    charged: dict[object, int] = field(default_factory=dict)
    reasons: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str, group, ops: int = 1) -> None:
        self.charged[group] = max(self.charged.get(group, 0), ops)
        self.reasons[reason] = self.reasons.get(reason, 0) + ops

    @property
    def failed(self) -> int:
        return sum(self.charged.values())


def _pooled_mean_ok(values: list[np.ndarray], target: float) -> tuple[bool, float]:
    arr = np.concatenate(values)
    se = arr.std(ddof=1) / math.sqrt(arr.size)
    z = abs(arr.mean() - target) / se if se > 0 else (0.0 if arr.mean() == target else math.inf)
    return z <= Z_LIMIT, z


# ---------------------------------------------------------------------------
# replicate


@dataclass(frozen=True)
class Cell:
    label: str
    law: object
    d: int
    quantities: tuple[str, ...]
    reps: int
    convention: Convention = RIPS
    metric: Metric = Metric.MAX_NORM
    max_dim: int | None = None

    def expected(self, q: str) -> float:
        spec = TorusSpec(d=self.d, a=1.0)
        eps = 0.05
        if self.metric is Metric.EUCLIDEAN:
            vals = moments.euclid_remark_moments(spec, self.law.lam, eps)
            return {"N_2": vals["EN2"], "N_3": vals["EN3"]}[q]
        if isinstance(self.law, Binomial):
            if q == "chi":
                return moments.mean_chi_binomial(spec, eps, self.law.n).value
            return moments.mean_Nk_binomial(spec, eps, self.law.n, int(q[2:])).value
        if q == "beta_0":
            return mean_beta0_circle(self.law.lam, 2 * eps)
        params = ModelParams(lam=self.law.lam, spec=spec, epsilon=eps)
        if q == "chi":
            return moments.mean_chi(params).value
        return moments.mean_Nk(params, int(q[2:])).value


NK_CHI = ("N_1", "N_2", "N_3", "N_4", "chi")


class Replicate:
    """``run_experiment`` over the acceptance-fixture grid, scaled per round.

    Replications per round keep the cells' shares of the round balanced:
    d=1, lambda=50 costs about ten times as much per replication as the
    other cells, so it runs a tenth as many.
    """

    name = "replicate"
    CELLS = (
        Cell("N1-4,chi d=1 lam=20", Poisson(20.0), 1, NK_CHI, 100),
        Cell("N1-4,chi d=1 lam=50", Poisson(50.0), 1, NK_CHI, 10),
        Cell("N1-4,chi d=2 lam=20", Poisson(20.0), 2, NK_CHI, 100),
        Cell("N1-4,chi d=2 lam=50", Poisson(50.0), 2, NK_CHI, 100),
        Cell("beta0 d=1 lam=20", Poisson(20.0), 1, ("beta_0",), 100),
        Cell("binomial n=20 d=1", Binomial(20), 1, ("N_2", "chi"), 100),
        Cell("euclid d=2 lam=100", Poisson(100.0), 2, ("N_2", "N_3"), 50,
             SUB, Metric.EUCLIDEAN, 2),
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.raw = {c.label: {q: [] for q in c.quantities} for c in self.CELLS}
        self.rounds = {c.label: [] for c in self.CELLS}  # failure groups per cell

    def inputs(self, rnd: int):
        return [harness.ExperimentConfig(
            law=c.law, spec=TorusSpec(d=c.d, a=1.0),
            params=ComplexParams(epsilon=0.05, metric=c.metric, convention=c.convention),
            replications=c.reps, master_seed=round_seed(self.seed, rnd, i),
            quantities=c.quantities, max_dim=c.max_dim)
            for i, c in enumerate(self.CELLS)]

    @staticmethod
    def run(configs):
        out = []
        for cfg in configs:
            try:
                out.append(harness.run_experiment(cfg))
            except Exception as exc:  # counted as failed replications
                out.append(exc)
        return out

    def check(self, rnd, configs, outputs, tally: Tally) -> None:
        for cell, cfg, rep in zip(self.CELLS, configs, outputs):
            group = (cell.label, rnd)
            tally.attempted += cfg.replications
            self.rounds[cell.label].append(group)
            if isinstance(rep, Exception):
                tally.fail(f"{cell.label}: {type(rep).__name__}", group, cfg.replications)
                continue
            if rep.excluded:
                tally.fail("excluded (simplex cap)", group, rep.excluded)
            if rep.homology_violations:
                tally.fail("homology violation", group, rep.homology_violations)
            for q in cell.quantities:
                self.raw[cell.label][q].append(rep.raw[q])

    def finish(self, tally: Tally) -> list[str]:
        notes = []
        for cell in self.CELLS:
            for q, vals in self.raw[cell.label].items():
                if not vals:
                    continue
                ok, z = _pooled_mean_ok(vals, cell.expected(q))
                notes.append(f"{cell.label} {q}: |z| = {z:.2f}")
                if not ok:
                    for group in self.rounds[cell.label]:
                        tally.fail(f"{cell.label} {q} mean off by {z:.1f} SE",
                                   group, cell.reps)
        return notes

    @staticmethod
    def warmup():
        harness.run_experiment(harness.ExperimentConfig(
            law=Poisson(5.0), spec=TorusSpec(d=1, a=1.0),
            params=ComplexParams(epsilon=0.05), replications=2, master_seed=0,
            quantities=("N_1", "N_2", "chi", "beta_0")))


# ---------------------------------------------------------------------------
# homology


class Homology:
    """Full GF(2) homology of benchmark-drawn configurations on the 2-torus.

    Per round: eight configurations at lambda=175 plus a minority slice of
    twenty at lambda=50 (the acceptance criterion-9 setting), eps=0.05.
    """

    name = "homology"
    PARAMS = ComplexParams(epsilon=0.05)
    LARGE = (175.0, 8)
    SMALL = (50.0, 20)

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, rnd: int):
        rng = np.random.default_rng([self.seed, rnd])
        return ([poisson_points(rng, self.LARGE[0], 2) for _ in range(self.LARGE[1])]
                + [poisson_points(rng, self.SMALL[0], 2) for _ in range(self.SMALL[1])])

    @classmethod
    def run(cls, configs):
        out = []
        for pc in configs:
            try:
                cx = complexes.build_complex(pc, cls.PARAMS, homology_mode=True)
                out.append((cx.truncated, homology.homology_summary(cx)))
            except Exception as exc:
                out.append(exc)
        return out

    def check(self, rnd, configs, outputs, tally: Tally) -> None:
        for i, (pc, res) in enumerate(zip(configs, outputs)):
            group = (rnd, i)
            tally.attempted += 1
            if isinstance(res, Exception):
                tally.fail(type(res).__name__, group)
                continue
            truncated, summary = res
            if truncated:
                tally.fail("truncated complex", group)
            elif summary.violations:
                tally.fail("homology violation", group)
            elif trimmed(summary.betti) != trimmed(
                    homology.collapsed_homology(pc, self.PARAMS).betti):
                tally.fail("betti differ from collapsed_homology", group)

    def finish(self, tally: Tally) -> list[str]:
        return []

    @classmethod
    def warmup(cls):
        pc = poisson_points(np.random.default_rng(0), 20.0, 2)
        homology.homology_summary(complexes.build_complex(pc, cls.PARAMS, homology_mode=True))


# ---------------------------------------------------------------------------
# coverage


class Coverage:
    """Coverage experiment plus the adjacency/collapse layers at large n.

    Per round: ``coverage_experiment`` at d=1, eps=0.2 (subcomplex
    convention), lambda in {10, 30, 100}, 20 replications each; then one
    benchmark-drawn configuration of n=1600 points at d=2 eps=0.025 and one
    of n=2000 at d=3 eps=0.05, each through adjacency_matrix,
    strong_collapse, connected_components and simplex_counts(max_dim=2).
    The point counts are fixed (Binomial rather than Poisson at the same
    intensity) because peak memory follows the largest n of a run.
    """

    name = "coverage"
    COVER_PARAMS = ComplexParams(epsilon=0.2, convention=SUB)
    LAMBDAS = (10.0, 30.0, 100.0)
    REPS = 20
    LARGE = ((2, 1600, 0.025), (3, 2000, 0.05))

    def __init__(self, seed: int):
        self.seed = seed
        self.matches_100 = 0
        self.n_ok_100 = 0
        self.rounds_100 = []  # failure groups of the lambda=100 replications

    def inputs(self, rnd: int):
        rng = np.random.default_rng([self.seed, rnd])
        large = [(uniform_points(rng, n, d), ComplexParams(epsilon=eps))
                 for d, n, eps in self.LARGE]
        return SeedSpec(round_seed(self.seed, rnd, 0)), large

    @classmethod
    def run(cls, inp):
        seed, large = inp
        try:
            report = harness.coverage_experiment(
                TorusSpec(d=1, a=1.0), cls.COVER_PARAMS, cls.LAMBDAS,
                reps=cls.REPS, seed=seed)
        except Exception as exc:
            report = exc
        rows = []
        for pc, params in large:
            try:
                adj = complexes.adjacency_matrix(pc, params)
                core = homology.strong_collapse(adj)
                beta0 = homology.connected_components(adj)
                counts = complexes.simplex_counts(pc, params, max_dim=2)
                rows.append((core.size, beta0, counts))
            except Exception as exc:
                rows.append(exc)
        return report, rows

    def check(self, rnd, inp, outputs, tally: Tally) -> None:
        from scipy.sparse.csgraph import connected_components

        report, rows = outputs
        tally.attempted += len(self.LAMBDAS) * self.REPS
        if isinstance(report, Exception):
            for lam in self.LAMBDAS:
                tally.fail(type(report).__name__, (rnd, lam), self.REPS)
        else:
            for p in report.points:
                if p.excluded:
                    tally.fail("excluded (core too large)", (rnd, p.lam), p.excluded)
            last = report.points[-1]
            n_ok = self.REPS - last.excluded
            if n_ok:
                self.matches_100 += round(last.match_frequency * n_ok)
                self.n_ok_100 += n_ok
                self.rounds_100.append((rnd, last.lam))
        for i, ((pc, params), row) in enumerate(zip(inp[1], rows)):
            group = (rnd, "large", i)
            tally.attempted += 1
            if isinstance(row, Exception):
                tally.fail(type(row).__name__, group)
                continue
            core, beta0, counts = row
            graph, n_edges = neighbour_graph(pc, params.threshold())
            n_comp = connected_components(graph, directed=False)[0]
            if counts.truncated:
                tally.fail("truncated complex", group)
            elif beta0 != n_comp:
                tally.fail("beta_0 differs from scipy component count", group)
            elif counts.N(1) != pc.n or counts.N(2) != n_edges:
                tally.fail("N_1/N_2 differ from scipy neighbour graph", group)
            elif not 1 <= core <= pc.n:
                tally.fail("collapsed core size out of range", group)

    def finish(self, tally: Tally) -> list[str]:
        if not self.n_ok_100:
            return []
        freq = self.matches_100 / self.n_ok_100
        if freq < 0.99:
            for group in self.rounds_100:
                tally.fail(f"match frequency {freq:.3f} < 0.99 at lambda=100",
                           group, self.REPS)
        return [f"match frequency at lambda=100: {freq:.4f} over {self.n_ok_100}"]

    @classmethod
    def warmup(cls):
        harness.coverage_experiment(TorusSpec(d=1, a=1.0), cls.COVER_PARAMS,
                                    (10.0, 30.0, 100.0), reps=1, seed=SeedSpec(0))
        pc = poisson_points(np.random.default_rng(0), 50.0, 2)
        params = ComplexParams(epsilon=0.05)
        adj = complexes.adjacency_matrix(pc, params)
        homology.strong_collapse(adj)
        homology.connected_components(adj)
        complexes.simplex_counts(pc, params, max_dim=2)


# ---------------------------------------------------------------------------
# patterns


PATH3 = GammaGraph.make(3, [(0, 1), (1, 2)])


class Patterns:
    """Pattern-count CLT rates and the J-oracle third moment.

    Per round: ``clt_rate_experiment`` for the edge at d=1, lambda in
    {20, 40, 80} and for the 3-path at d=2, lambda in {50, 100, 200}, 100
    replications each (the fewest ``wasserstein1_to_normal`` accepts),
    eps=0.05, subcomplex convention; then ``third_moment_Nk`` at k=2, d=1,
    lambda=20 through the J-oracle.  The 3-path at lambda=400 alone would
    take 3 s of a round; the statistical checks pool rounds instead.
    """

    name = "patterns"
    PARAMS = ComplexParams(epsilon=0.05, convention=SUB)
    # (label, pattern, d, lambdas, replications per lambda, slope checked)
    CLT = (("edge", GammaGraph.edge(), 1, (20.0, 40.0, 80.0), 100, True),
           ("3-path", PATH3, 2, (50.0, 100.0, 200.0), 100, False))
    MOMENT = ModelParams(lam=20.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.05)
    ORACLE_SAMPLES = 100_000

    def __init__(self, seed: int):
        self.seed = seed
        self.points = {label: [] for label, *_ in self.CLT}
        self.rounds = {label: [] for label, *_ in self.CLT}  # rounds checked

    def inputs(self, rnd: int):
        seeds = [SeedSpec(round_seed(self.seed, rnd, i)) for i in range(len(self.CLT) + 1)]
        edge_check = poisson_points(np.random.default_rng([self.seed, rnd]), 80.0, 1)
        return seeds, edge_check

    @classmethod
    def run(cls, inp):
        seeds, _ = inp
        out = []
        for (label, gamma, d, lambdas, reps, _), seed in zip(cls.CLT, seeds):
            try:
                out.append(harness.clt_rate_experiment(
                    gamma, TorusSpec(d=d, a=1.0), cls.PARAMS, lambdas, reps, seed))
            except Exception as exc:
                out.append(exc)
        try:
            out.append(moments.third_moment_Nk(cls.MOMENT, 2,
                                               oracle_samples=cls.ORACLE_SAMPLES,
                                               seed=seeds[-1]))
        except Exception as exc:
            out.append(exc)
        return out

    def check(self, rnd, inp, outputs, tally: Tally) -> None:
        for (label, gamma, d, lambdas, reps, _), rep in zip(self.CLT, outputs):
            tally.attempted += reps * len(lambdas)
            self.rounds[label].append(rnd)
            if isinstance(rep, Exception):
                for lam in lambdas:
                    tally.fail(f"{label}: {type(rep).__name__}", (label, rnd, lam), reps)
            else:
                self.points[label].append(rep.points)
        third = outputs[-1]
        tally.attempted += 1
        if isinstance(third, Exception):
            tally.fail(f"third moment: {type(third).__name__}", (rnd, "third"))
        elif not (third.value > 0 and math.isfinite(third.truncation["oracle_stderr"])):
            tally.fail("third moment not positive and finite", (rnd, "third"))
        # The edge pattern count is the edge count under the same threshold.
        pc = inp[1]
        tally.attempted += 1
        g = subcomplex.count_gamma_adj(complexes.adjacency_matrix(pc, self.PARAMS),
                                       GammaGraph.edge()).g_gamma
        if g != complexes.simplex_counts(pc, self.PARAMS, max_dim=1).N(2):
            tally.fail("edge g_gamma differs from N_2", (rnd, "edge identity"))

    def finish(self, tally: Tally) -> list[str]:
        notes = []
        eps = self.PARAMS.epsilon
        for label, gamma, d, lambdas, reps, slope_checked in self.CLT:
            rounds = self.points[label]
            if not rounds:
                continue
            # E[count] = lambda^n (2 eps)^(d (n-1)) / |Aut| for a tree pattern
            # with n vertices under the subcomplex (<= eps) convention.
            aut = subcomplex.automorphism_count(gamma)
            for i, lam in enumerate(lambdas):
                means = np.array([pts[i].mean for pts in rounds])
                se = math.sqrt(sum(pts[i].std ** 2 for pts in rounds) / reps) / len(rounds)
                expected = lam ** gamma.n * (2 * eps) ** (d * (gamma.n - 1)) / aut
                z = abs(means.mean() - expected) / se
                notes.append(f"{label} lambda={lam:g} mean count: |z| = {z:.2f}")
                if z > Z_LIMIT:
                    for rnd in self.rounds[label]:
                        tally.fail(f"{label} mean count at lambda={lam:g} off by {z:.1f} SE",
                                   (label, rnd, lam), reps)
            # Slope of the round-averaged distances; see README for why the
            # 3-path slope is reported but not checked.
            mean_dw = np.mean([[p.d_w for p in pts] for pts in rounds], axis=0)
            slope = float(np.polyfit(np.log(lambdas), np.log(mean_dw), 1)[0])
            notes.append(f"{label} CLT slope {slope:.3f} over {len(rounds)} rounds"
                         + ("" if slope_checked else " (not checked)"))
            if slope_checked and not -1.0 <= slope <= -0.1:
                for rnd in self.rounds[label]:
                    for lam in lambdas:
                        tally.fail(f"{label} CLT slope {slope:.3f} outside [-1, -0.1]",
                                   (label, rnd, lam), reps)
        return notes

    @classmethod
    def warmup(cls):
        harness.clt_rate_experiment(GammaGraph.edge(), TorusSpec(d=1, a=1.0),
                                    cls.PARAMS, (5.0, 6.0, 7.0), 100, SeedSpec(0))
        moments.third_moment_Nk(cls.MOMENT, 1, oracle_samples=1000, seed=SeedSpec(0))


WORKLOADS = {w.name: w for w in (Replicate, Homology, Coverage, Patterns)}
