"""Seeded Monte Carlo replication engine.

Runs experiments over Poisson/Binomial configurations, estimates means,
variances, central moments and tails of simplex counts, Euler
characteristic, Betti numbers and pattern counts, and provides the two
asymptotic experiments: the normal-approximation rate of pattern counts
and the torus-coverage probability.

Every replication draws from its own counter-derived stream, so reports are
bit-identical for a fixed configuration regardless of scheduling; the
experiments draw them through ``sampling.sample_run``, one run per
experiment or intensity.
All three experiments take their graphs from ``complexes.sweeps`` and
``complexes.graphs``, a block of replications at a time (see
``complexes``).  N_1 and N_2 are a configuration's point and edge counts,
N_3 is counted for a whole block at once from its edges
(``cliques.triangle_counts``), as a star pattern is from its degrees.
Where more is asked for, each configuration's neighbour bitsets are walked
for N_k with k >= 4 (counted only up to the largest k asked for, walking
no candidate set of one vertex), beta_0 (a flood fill), any pattern other
than a star (a bitset search) and Betti numbers above beta_0
(``homology.homology_from_bitsets``, which lists at most the cliques of a
collapsed core, none for a core with no triangle, and counts none of the
full complex).  chi is the whole
graph's, from the builder, and the Betti numbers are checked against it.
On the circle (d = 1) under ``complexes.windowed`` (the max-norm, 3t < a),
every Betti number comes instead from chi and the circular gaps, a block at
a time, with no bitsets, no collapse and no clique listing: the complex is
a circle, (1, 1), when every gap passes the threshold, else a disjoint union
of chi contractible pieces (Adamaszek & Adams, Pacific J. Math. 290, 2017).
chi comes from the edges' orientation and the gaps from a sort
(``complexes.circle_covered``), and a replication raises unless every gap
passes exactly when chi = 0 and it has a point; tier-1 tests check the rule
against the collapse on the same graphs.
Every replication counts: a cap overrun raises ``SimplexCapExceeded`` and a
failed homology check ``RuntimeError``, naming the replication.  N_3 from
the join is capped as the walk to it would be (``cliques.check_cap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cliques import (SimplexCapExceeded, check_cap, components,
                      counts_from_bitsets)
# simplex_counts and sample are not called here; perfbench's import-site
# test expects this module to hold them.
from .complexes import (ComplexParams, Graph, _check_radius,  # noqa: F401
                        graphs, simplex_counts, sweeps, windowed)
from .homology import homology_from_bitsets
from .sampling import (Poisson, ProcessLaw, SeedSpec, sample,  # noqa: F401
                       sample_run)
from .stats import MIN_NORMALITY_SAMPLE, wasserstein1_to_normal
from .subcomplex import GammaGraph, count_gamma, star_arms, star_counts
from .torus import TorusSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """N_k is counted to the largest k in ``quantities``.  ``max_dim`` is
    validated and otherwise unused: perfbench still passes it, and the
    benchmark change of ROADMAP item 1 removes it."""

    law: ProcessLaw
    spec: TorusSpec
    params: ComplexParams
    replications: int
    master_seed: int
    quantities: tuple[str, ...]
    max_dim: int | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.max_dim is not None and self.max_dim < 0:
            raise ValueError(f"max_dim must be >= 0, got {self.max_dim}")
        # each quantity keys its own list of values, so a repeat would merge two
        if not self.quantities or len(set(self.quantities)) < len(self.quantities):
            raise ValueError("quantities must be nonempty and distinct,"
                             f" got {list(self.quantities)}")
        for q in self.quantities:
            _parse_quantity(q)


@dataclass(frozen=True)
class QuantityStats:
    mean: float
    stderr: float
    variance: float
    n: int


@dataclass
class ReplicationReport:
    config: ExperimentConfig
    estimates: dict[str, QuantityStats]
    raw: dict[str, np.ndarray]
    # always 0, as nothing is dropped and a violation raises; perfbench
    # still reads both, and the benchmark change of ROADMAP item 1 removes them
    excluded: int = 0
    homology_violations: int = 0

    def to_json(self) -> dict:
        return {
            "replications": self.config.replications,
            "estimates": {
                q: {"mean": s.mean, "stderr": s.stderr,
                    "variance": s.variance, "n": s.n}
                for q, s in self.estimates.items()
            },
        }

    def raw_csv(self) -> str:
        lines = ["rep,quantity,value"]
        for q, vals in self.raw.items():
            for r, v in enumerate(vals):
                lines.append(f"{r},{q},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _parse_quantity(q: str):
    if q == "n_points" or q == "chi":
        return (q, None)
    if q.startswith("N_"):
        k = int(q[2:])
        if k < 1:
            raise ValueError(f"bad quantity {q!r}")
        return ("N", k)
    if q.startswith("beta_"):
        i = int(q[5:])
        if i < 0:
            raise ValueError(f"bad quantity {q!r}")
        return ("beta", i)
    raise ValueError(f"unknown quantity {q!r}")


def run_experiment(config: ExperimentConfig) -> ReplicationReport:
    """Run all replications and aggregate the requested statistics."""
    plan = _Plan(config)
    if plan.needs_counts:
        _check_radius(config.spec, config.params, homology_mode=False)
    if plan.needs_full_homology:
        _check_radius(config.spec, config.params, homology_mode=True)
    values: dict[str, list[float]] = {q: [] for q in config.quantities}
    draws = sample_run(config.law, config.spec, SeedSpec(config.master_seed),
                       ("experiment",), config.replications)
    for rep, graph in enumerate(graphs(
            draws, config.spec, config.params, plan.needs_bitsets,
            plan.needs_chi, plan.circle, plan.triangles)):
        row = _row(plan, graph, f"replication {rep}")
        for q, value in zip(config.quantities, row):
            values[q].append(value)

    raw = {q: np.asarray(v, dtype=float) for q, v in values.items()}
    n = config.replications
    estimates = {}
    for q, arr in raw.items():
        var = float(arr.var(ddof=1)) if n > 1 else math.nan
        estimates[q] = QuantityStats(mean=float(arr.mean()), stderr=math.sqrt(var / n),
                                     variance=var, n=n)
    return ReplicationReport(config=config, estimates=estimates, raw=raw)


class _Plan:
    """What each replication of an experiment computes."""

    def __init__(self, config: ExperimentConfig):
        self.parsed = [_parse_quantity(q) for q in config.quantities]
        kinds = {p[0] for p in self.parsed}
        beta_indices = sorted({p[1] for p in self.parsed if p[0] == "beta"})
        self.needs_counts = bool(kinds & {"N", "chi"})
        self.needs_full_homology = bool(beta_indices) and beta_indices != [0]
        # every Betti number from chi and the gaps (``_betti``)
        self.circle = bool(beta_indices) and _on_circle(config.spec,
                                                        config.params)
        self.betti = self.needs_full_homology or self.circle
        # N_k is counted to the largest k asked for; up to N_2 the counts
        # are the point and edge counts, to N_3 the block's triangle join
        # adds the triangles, and beyond it the clique walk counts them all
        self.max_size = max([p[1] for p in self.parsed if p[0] == "N"], default=0)
        self.triangles = self.max_size == 3
        self.clique_walk = self.max_size > 3
        # the whole graph's chi, for itself and for the homology check
        self.needs_chi = "chi" in kinds or self.betti
        self.needs_bitsets = (("beta" in kinds and not self.circle)
                              or self.clique_walk)


def _on_circle(spec: TorusSpec, params: ComplexParams) -> bool:
    """Whether the Betti numbers come from chi and the circular gaps: on
    the circle (d = 1) under ``complexes.windowed``."""
    return spec.d == 1 and windowed(spec.d, spec.a, params)


def _row(plan: _Plan, graph: Graph, where: str) -> list[float]:
    """The values of one configuration, in the order of ``plan.parsed``,
    from its ``complexes.Graph``; ``where`` names the configuration in the
    errors raised.  N_3 from the join is capped as the walk to it would
    be."""
    n, neigh, chi = graph.n, graph.neigh, graph.chi
    counts = [0, n, graph.edges]
    if plan.clique_walk:
        counts = _named(where, counts_from_bitsets, neigh, plan.max_size)
    elif plan.triangles:
        counts.append(graph.triangles)
        _named(where, check_cap, sum(counts), 3)
    betti = _betti(n, neigh, chi, graph.covered, where) if plan.betti else None
    row = []
    for kind, i in plan.parsed:
        if kind == "n_points":
            row.append(float(n))
        elif kind == "N":
            row.append(float(counts[i]) if i < len(counts) else 0.0)
        elif kind == "chi":
            row.append(float(chi))
        elif betti is not None:
            row.append(float(betti[i]) if i < len(betti) else 0.0)
        else:
            row.append(float(len(components(neigh))))
    return row


def _betti(n: int, neigh: list[int] | None, chi: int, covered: bool | None,
           where: str) -> list[int]:
    """The checked Betti numbers of a configuration of n points, with its
    whole graph's ``chi``; errors name ``where``.

    Given the verdict ``covered`` of ``complexes.circle_covered`` (on the
    circle, under ``windowed``), they are (1, 1) when every circular gap
    passes, else (chi,), or () with no point, and every gap must pass
    exactly when chi = 0 and n >= 1.  Else (``covered`` None) they are
    ``homology_from_bitsets``'s of the bitsets ``neigh``, checked against
    ``chi``."""
    if covered is not None:
        if covered != (chi == 0 and n > 0):
            raise RuntimeError(
                f"homology check failed at {where}: {n} points with chi = "
                f"{chi}, but {'every' if covered else 'not every'} circular "
                "gap passes")
        return [1, 1] if covered else [chi] if n else []
    result = _named(where, homology_from_bitsets, neigh, chi)
    if result.violations:
        raise RuntimeError(f"homology check failed at {where}: "
                           f"{'; '.join(result.violations)}")
    return result.betti


def _named(where: str, walk, *args):
    """``walk(*args)``, with a cap overrun's message led by ``where``."""
    try:
        return walk(*args)
    except SimplexCapExceeded as exc:
        raise SimplexCapExceeded(f"{where}: {exc}") from None


@dataclass(frozen=True)
class CltPoint:
    lam: float
    d_w: float
    mean: float
    std: float


@dataclass(frozen=True)
class CltReport:
    points: tuple[CltPoint, ...]
    slope: float
    strictly_decreasing: bool

    def to_json(self) -> dict:
        return {
            "points": [{"lambda": p.lam, "d_w": p.d_w, "mean": p.mean,
                        "std": p.std} for p in self.points],
            "slope": self.slope,
            "strictly_decreasing": self.strictly_decreasing,
        }


def clt_rate_experiment(gamma: GammaGraph, spec: TorusSpec,
                        params: ComplexParams, lambdas, reps: int,
                        seed: SeedSpec) -> CltReport:
    """Normal-approximation rate of the pattern count.

    For each intensity: draw ``reps`` Poisson configurations, count the
    pattern over the edges of one neighbour sweep per block, standardize by
    the empirical mean and standard deviation, and estimate the
    Wasserstein-1 distance to the standard normal.  The distances should
    decay roughly like lambda^{-1/2}.  A star is counted for a whole block
    at once from its degrees (``subcomplex.star_counts``), and its blocks,
    packing no bitsets, are bounded by points; any other pattern is searched
    for in each configuration's bitsets (``subcomplex.count_gamma``).
    """
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) < 3 or any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("need at least 3 strictly increasing intensities")
    if reps < MIN_NORMALITY_SAMPLE:
        raise ValueError(f"need reps >= {MIN_NORMALITY_SAMPLE}, got {reps}")
    star = star_arms(gamma) > 0
    points = []
    for lam in lambdas:
        draws = sample_run(Poisson(lam=lam), spec, seed, ("clt", lam), reps)
        if star:
            counts = [c for block in sweeps(draws, spec, params, False)
                      for c in star_counts(gamma, block.degrees, block.sizes)]
        else:
            counts = [count_gamma(gamma, graph.degrees, graph.neigh)
                      for graph in graphs(draws, spec, params, True)]
        vals = np.array(counts, dtype=float)
        mean = float(vals.mean())
        std = float(vals.std(ddof=1))
        if std == 0.0:
            raise ValueError(f"degenerate pattern-count sample at lambda={lam}")
        d_w = wasserstein1_to_normal((vals - mean) / std)
        points.append(CltPoint(lam=lam, d_w=d_w, mean=mean, std=std))
    logs = np.log([p.lam for p in points])
    logd = np.log([p.d_w for p in points])
    slope = float(np.polyfit(logs, logd, 1)[0])
    decreasing = all(b.d_w < a.d_w for a, b in zip(points, points[1:]))
    return CltReport(points=tuple(points), slope=slope,
                     strictly_decreasing=decreasing)


@dataclass(frozen=True)
class CoveragePoint:
    lam: float
    match_frequency: float
    stderr: float
    # always 0, as no replication is excluded; perfbench still reads it, and
    # the benchmark change of ROADMAP item 1 removes it
    excluded: int = 0


@dataclass(frozen=True)
class CoverageReport:
    points: tuple[CoveragePoint, ...]
    torus_betti: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "torus_betti": list(self.torus_betti),
            "points": [{"lambda": p.lam, "match_frequency": p.match_frequency,
                        "stderr": p.stderr}
                       for p in self.points],
        }


def torus_betti(d: int) -> tuple[int, ...]:
    """Betti numbers of the d-torus: beta_i = C(d, i)."""
    return tuple(math.comb(d, i) for i in range(d + 1))


def coverage_experiment(spec: TorusSpec, params: ComplexParams, lambdas,
                        reps: int, seed: SeedSpec) -> CoverageReport:
    """Frequency of recovering the torus Betti numbers, per intensity.

    The replications of an intensity run in blocks, as in
    ``run_experiment``, and the Betti numbers of each come from ``_betti``:
    a replication whose homology fails its checks raises ``RuntimeError``.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    laws = [Poisson(lam=float(l)) for l in lambdas]
    if not laws:
        raise ValueError("need at least one intensity")
    for i, law in enumerate(laws):
        if law in laws[:i]:  # it would rerun the same seeded streams
            raise ValueError(f"intensity {law.lam} is repeated")
    _check_radius(spec, params, homology_mode=True)
    target = torus_betti(spec.d)
    circle = _on_circle(spec, params)
    points = []
    for law in laws:
        draws = sample_run(law, spec, seed, ("coverage", law.lam), reps)
        matches = 0
        for rep, graph in enumerate(
                graphs(draws, spec, params, not circle, True, circle)):
            # a match may differ from the target only by trailing zeros
            betti = tuple(_betti(graph.n, graph.neigh, graph.chi,
                                 graph.covered,
                                 f"lambda={law.lam}, replication {rep}"))
            matches += betti == target + (0,) * (len(betti) - len(target))
        freq = matches / reps
        se = math.sqrt(freq * (1.0 - freq) / reps)
        points.append(CoveragePoint(lam=law.lam, match_frequency=freq, stderr=se))
    return CoverageReport(points=tuple(points), torus_betti=target)
