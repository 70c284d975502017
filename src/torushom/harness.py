"""Seeded Monte Carlo replication engine.

Runs experiments over Poisson/Binomial configurations, estimates means,
variances, central moments and tails of simplex counts, Euler
characteristic, Betti numbers and pattern counts, and provides the two
asymptotic experiments: the normal-approximation rate of pattern counts
and the torus-coverage probability.

Every replication draws from its own counter-derived stream, so reports are
bit-identical for a fixed configuration regardless of scheduling.
All three experiments take their graphs from ``_graphs``, which processes
the replications in blocks: one neighbour sweep finds the edges of every
configuration of a block, N_1 and N_2 are its point and edge counts, a star
pattern is counted from each configuration's degrees, and where more is
asked for, one ``neighbour_bitsets`` over the block gives each
configuration's neighbour bitsets, built once and walked for N_k (counted
only up to the largest k asked for), chi (a pivoted sum), beta_0 (a flood
fill), any pattern other than a star (a bitset search) and Betti numbers
above beta_0 (``homology.homology_from_bitsets``, which lists only the
cliques of a collapsed core and counts none of the full complex).
Every replication counts: a cap overrun raises ``SimplexCapExceeded`` and a
failed homology check ``RuntimeError``, naming the replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cliques import (SimplexCapExceeded, chi_from_bitsets, counts_from_bitsets,
                      neighbour_bitsets)
# simplex_counts is not called here; perfbench's import-site test expects
# this module to hold it.
from .complexes import (ComplexParams, _check_radius, simplex_counts,  # noqa: F401
                        threshold_edges)
from .homology import components_from_bitsets, homology_from_bitsets
from .sampling import Poisson, ProcessLaw, SeedSpec, sample
from .stats import MIN_NORMALITY_SAMPLE, wasserstein1_to_normal
from .subcomplex import GammaGraph, count_gamma, star_arms
from .torus import TorusSpec


# Replications run in blocks of at most _BLOCK_REPS configurations and
# _BLOCK_CELLS cells of (points x largest configuration), which bound the
# packed bitsets of a block (a bit a cell, 8 KB); a configuration too large
# for it runs alone.  The neighbour sweep bounds its own candidates
# (complexes._RUN_PAIRS), so a block of _BLOCK_CELLS cells is swept in one
# run.  Larger blocks were no faster and raised the peak memory of a run.
_BLOCK_REPS = 1024
_BLOCK_CELLS = 1 << 16


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
    base = SeedSpec(master_seed=config.master_seed, stream_index=0)
    draws = (sample(config.law, config.spec, base.child("experiment", rep)).points
             for rep in range(config.replications))
    for rep, (n, edges, _, neigh) in enumerate(
            _graphs(draws, config.spec.a, config.params, plan.needs_bitsets)):
        row = _row(plan, n, edges, neigh, f"replication {rep}")
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
        # N_k is counted to the largest k asked for; up to N_2 the counts
        # are the point and edge counts
        self.max_size = max([p[1] for p in self.parsed if p[0] == "N"], default=0)
        self.clique_walk = self.max_size > 2
        self.needs_bitsets = "chi" in kinds or "beta" in kinds or self.clique_walk


def _blocks(draws):
    """The configurations drawn, in order, as lists of point arrays of at
    most ``_BLOCK_REPS`` configurations and ``_BLOCK_CELLS`` cells of
    (points x largest configuration); a larger configuration comes alone."""
    block: list[np.ndarray] = []
    total = width = 0
    for pts in draws:
        n = pts.shape[0]
        if block and (len(block) == _BLOCK_REPS
                      or (total + n) * max(width, n) > _BLOCK_CELLS):
            yield block
            block, total, width = [], 0, 0
        block.append(pts)
        total += n
        width = max(width, n)
    if block:
        yield block


def _graphs(draws, a: float, params: ComplexParams, bitsets: bool):
    """The threshold graph of each configuration drawn, in order, as its
    point count, edge count, degree sequence and, if ``bitsets``, neighbour
    bitsets (else None).

    One neighbour sweep finds the edges of a whole block of configurations
    (``_blocks``), and one ``neighbour_bitsets`` packs them into a bitset
    per point of the block, keyed by its configuration's local columns.
    """
    for block in _blocks(draws):
        sizes = np.array([pts.shape[0] for pts in block])
        starts = np.concatenate(([0], np.cumsum(sizes)))
        u, v = threshold_edges(np.concatenate(block), a, params, starts)
        degrees = np.bincount(np.concatenate((u, v)), minlength=starts[-1])
        seg = np.repeat(np.arange(len(block)), sizes)
        edges = np.bincount(seg[u], minlength=len(block)).tolist()
        neigh = None
        if bitsets:
            local = np.arange(starts[-1]) - starts[:-1].repeat(sizes)
            neigh = neighbour_bitsets(u, v, starts[-1], local)
        for s, (first, n) in enumerate(zip(starts.tolist(), sizes.tolist())):
            yield (n, edges[s], degrees[first:first + n],
                   None if neigh is None else neigh[first:first + n])


def _row(plan: _Plan, n: int, edges: int, neigh: list[int] | None,
         where: str) -> list[float]:
    """The values of one configuration, in the order of ``plan.parsed``;
    ``where`` names the configuration in the errors raised."""
    counts = [0, n, edges]
    if plan.clique_walk:
        counts = _named(where, counts_from_bitsets, neigh, plan.max_size)
    betti = _betti(neigh, where) if plan.needs_full_homology else None
    row = []
    for kind, i in plan.parsed:
        if kind == "n_points":
            row.append(float(n))
        elif kind == "N":
            row.append(float(counts[i]) if i < len(counts) else 0.0)
        elif kind == "chi":
            row.append(float(chi_from_bitsets(neigh)))
        elif betti is not None:
            row.append(float(betti[i]) if i < len(betti) else 0.0)
        else:
            row.append(float(components_from_bitsets(neigh)) if n else 0.0)
    return row


def _betti(neigh: list[int], where: str) -> list[int]:
    """``homology_from_bitsets``'s Betti numbers; errors name ``where``."""
    result = _named(where, homology_from_bitsets, neigh)
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
    pattern (``subcomplex.count_gamma``, over the edges of one neighbour
    sweep per block), standardize by the empirical mean and standard
    deviation, and estimate the Wasserstein-1 distance to the standard
    normal.  The distances should decay roughly like lambda^{-1/2}.
    """
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) < 3 or any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("need at least 3 strictly increasing intensities")
    if reps < MIN_NORMALITY_SAMPLE:
        raise ValueError(f"need reps >= {MIN_NORMALITY_SAMPLE}, got {reps}")
    points = []
    for lam in lambdas:
        draws = (sample(Poisson(lam=lam), spec, seed.child("clt", lam, rep)).points
                 for rep in range(reps))
        counts = [count_gamma(gamma, deg, neigh) for _, _, deg, neigh
                  in _graphs(draws, spec.a, params, not star_arms(gamma))]
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
    _check_radius(spec, params, homology_mode=True)
    target = torus_betti(spec.d)
    points = []
    for law in laws:
        draws = (sample(law, spec, seed.child("coverage", law.lam, rep)).points
                 for rep in range(reps))
        matches = 0
        for rep, (_, _, _, neigh) in enumerate(_graphs(draws, spec.a, params, True)):
            # a match may differ from the target only by trailing zeros
            betti = tuple(_betti(neigh, f"lambda={law.lam}, replication {rep}"))
            matches += betti == target + (0,) * (len(betti) - len(target))
        freq = matches / reps
        se = math.sqrt(freq * (1.0 - freq) / reps)
        points.append(CoveragePoint(lam=law.lam, match_frequency=freq, stderr=se))
    return CoverageReport(points=tuple(points), torus_betti=target)
