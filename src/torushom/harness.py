"""Seeded Monte Carlo replication engine.

Runs experiments over Poisson/Binomial configurations, estimates means,
variances, central moments and tails of simplex counts, Euler
characteristic, Betti numbers and pattern counts, and provides the two
asymptotic experiments: the normal-approximation rate of pattern counts
and the torus-coverage probability.

Every replication draws from its own counter-derived stream, so reports are
bit-identical for a fixed configuration regardless of scheduling.
``run_experiment`` and ``clt_rate_experiment`` process the replications in
blocks: one neighbour sweep finds the edges of every configuration of a
block, N_1 and N_2 are its point and edge counts, a star pattern is counted
from each configuration's degrees, and where more is asked for, one
``np.packbits`` over the block gives each configuration's neighbour
bitsets, built once and walked for N_k (counted only up to the largest k
asked for), chi (a pivoted sum), beta_0 (a flood fill), any pattern other
than a star (a bitset search) and, where Betti numbers above beta_0 are
asked for, the clique complex of full homology, whose one full count then
gives N_k as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cliques import chi_from_bitsets, counts_from_bitsets, row_bitsets
# simplex_counts is not called here; perfbench's import-site test expects
# this module to hold it.
from .complexes import (ComplexParams, _check_radius, _complex_from_bitsets,  # noqa: F401
                        simplex_counts, threshold_edges)
from .homology import collapsed_homology, components_from_bitsets, homology_summary
from .sampling import Poisson, ProcessLaw, SeedSpec, sample
from .stats import MIN_NORMALITY_SAMPLE, wasserstein1_to_normal
from .subcomplex import GammaGraph, count_gamma, star_arms
from .torus import TorusSpec


# Replications run in blocks of at most _BLOCK_REPS configurations and
# _BLOCK_CELLS cells of (points x largest configuration), which bound both
# the boolean bitset scratch (64 KB) and the candidate pairs of the neighbour
# sweep; a configuration too large for it runs alone.  Larger blocks were no
# faster and raised the peak memory of a run.
_BLOCK_REPS = 1024
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """N_k is counted to the largest k in ``quantities`` and at least to
    dimension ``max_dim``; a replication whose count exceeds ``simplex_cap``
    (0: no cap) is excluded.  chi is a pivoted sum over the neighbour
    bitsets, never capped."""

    law: ProcessLaw
    spec: TorusSpec
    params: ComplexParams
    replications: int
    master_seed: int
    quantities: tuple[str, ...]
    max_dim: int | None = None
    simplex_cap: int = 10_000_000

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.simplex_cap < 0:
            raise ValueError("simplex_cap must be >= 0 (0: no cap)")
        if self.max_dim is not None and self.max_dim < 0:
            raise ValueError(f"max_dim must be >= 0, got {self.max_dim}")
        for q in self.quantities:
            _parse_quantity(q)


@dataclass(frozen=True)
class QuantityStats:
    mean: float
    stderr: float
    variance: float
    n: int

    def z_score(self, analytic: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.mean == analytic else math.inf
        return (self.mean - analytic) / self.stderr


@dataclass
class ReplicationReport:
    config: ExperimentConfig
    estimates: dict[str, QuantityStats]
    raw: dict[str, np.ndarray]
    excluded: int
    homology_violations: int

    def to_json(self) -> dict:
        return {
            "replications": self.config.replications,
            "excluded": self.excluded,
            "homology_violations": self.homology_violations,
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
    excluded = 0
    homology_violations = 0
    base = SeedSpec(master_seed=config.master_seed, stream_index=0)
    draws = (sample(config.law, config.spec, base.child("experiment", rep)).points
             for rep in range(config.replications))
    for block in _blocks(draws):
        for row in _block_rows(block, config, plan):
            if row is None:
                excluded += 1
                continue
            homology_violations += row.pop("_violations")
            for q in config.quantities:
                values[q].append(row[q])

    estimates = {}
    raw = {}
    for q in config.quantities:
        arr = np.asarray(values[q], dtype=float)
        raw[q] = arr
        n = arr.size
        mean = float(arr.mean()) if n else math.nan
        var = float(arr.var(ddof=1)) if n > 1 else math.nan
        se = math.sqrt(var / n) if n > 1 else math.nan
        estimates[q] = QuantityStats(mean=mean, stderr=se, variance=var, n=n)
    return ReplicationReport(config=config, estimates=estimates, raw=raw,
                             excluded=excluded,
                             homology_violations=homology_violations)


class _Plan:
    """What each replication of an experiment computes."""

    def __init__(self, config: ExperimentConfig):
        self.parsed = [_parse_quantity(q) for q in config.quantities]
        kinds = {p[0] for p in self.parsed}
        beta_indices = sorted({p[1] for p in self.parsed if p[0] == "beta"})
        self.needs_counts = bool(kinds & {"N", "chi"})
        self.needs_full_homology = bool(beta_indices) and beta_indices != [0]
        max_k = max([p[1] for p in self.parsed if p[0] == "N"], default=0)
        # N_k is counted to the largest k asked for and at least to max_dim
        self.max_size = max(max_k - 1, config.max_dim or 0) + 1
        # up to N_2 the counts are the point and edge counts
        self.clique_walk = self.needs_counts and self.max_size > 2
        self.needs_bitsets = "chi" in kinds or "beta" in kinds or self.clique_walk
        self.needs_edges = self.needs_counts or "beta" in kinds


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


def _block_layout(block: list[np.ndarray]):
    """The size and first row of each configuration of a block."""
    sizes = np.array([pts.shape[0] for pts in block])
    return sizes, np.concatenate(([0], np.cumsum(sizes)))


def _block_bitsets(sizes: np.ndarray, starts: np.ndarray, u: np.ndarray,
                   v: np.ndarray) -> list[list[int]]:
    """Each configuration's neighbour bitsets, given the block's edges: one
    boolean row of local columns per point and one ``np.packbits`` over the
    block."""
    local = np.arange(starts[-1]) - starts[:-1].repeat(sizes)
    scratch = np.zeros((starts[-1], sizes.max()), dtype=bool)
    scratch[u, local[v]] = True
    scratch[v, local[u]] = True
    packed = np.packbits(scratch, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    return [row_bitsets(buf, width, range(first, first + n))
            for first, n in zip(starts.tolist(), sizes.tolist())]


def _block_rows(block: list[np.ndarray], config: ExperimentConfig, plan: _Plan):
    """One dict of values per configuration of the block, or None for a
    configuration excluded by the simplex cap.

    One neighbour sweep finds the edges of every configuration; N_2 is the
    edge count of each.  Bitsets come from ``_block_bitsets`` where needed.
    """
    sizes, starts = _block_layout(block)
    cap = config.simplex_cap
    if plan.needs_edges:
        u, v = threshold_edges(np.concatenate(block), config.spec.a,
                               config.params, starts)
        seg = np.repeat(np.arange(len(block)), sizes)
        edges = np.bincount(seg[u], minlength=len(block)).tolist()
    if plan.needs_bitsets:
        block_neigh = _block_bitsets(sizes, starts, u, v)
    for s, n in enumerate(sizes.tolist()):
        row: dict[str, float] = {"_violations": 0}
        if plan.needs_bitsets:
            neigh = block_neigh[s]
        complete = True
        if plan.needs_full_homology:
            # one full walk: it exceeds the cap whenever a shorter one would
            cx = _complex_from_bitsets(neigh, cap)
            counts, complete = [0, *cx.counts], not cx.truncated
        elif plan.clique_walk:
            counts, complete = counts_from_bitsets(neigh, plan.max_size, cap)
        elif plan.needs_counts:
            counts = [0, n, edges[s]]
            # the cap rule of the clique walk, which would count these
            complete = not 0 < cap < n + (edges[s] if plan.max_size == 2 else 0)
        if not complete:
            yield None
            continue
        homology = None
        if plan.needs_full_homology:
            homology = homology_summary(cx)
            row["_violations"] = len(homology.violations)
        for q, (kind, i) in zip(config.quantities, plan.parsed):
            if kind == "n_points":
                row[q] = float(n)
            elif kind == "N":
                row[q] = float(counts[i]) if i < len(counts) else 0.0
            elif kind == "chi":
                row[q] = float(chi_from_bitsets(neigh))
            elif homology is not None:
                betti = homology.betti
                row[q] = float(betti[i]) if i < len(betti) else 0.0
            else:
                row[q] = float(components_from_bitsets(neigh)) if n else 0.0
        yield row


def empirical_tail(values, thresholds):
    """Upper-tail estimates P_hat(X >= y) with binomial standard errors."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    out = []
    n = arr.size
    for y in thresholds:
        p = float(np.mean(arr >= y))
        se = math.sqrt(p * (1.0 - p) / n)
        out.append((float(y), p, se))
    return out


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
        counts = []
        for block in _blocks(draws):
            sizes, starts = _block_layout(block)
            u, v = threshold_edges(np.concatenate(block), spec.a, params, starts)
            degrees = np.bincount(np.concatenate((u, v)), minlength=starts[-1])
            rows = ([None] * len(block) if star_arms(gamma)
                    else _block_bitsets(sizes, starts, u, v))
            for deg, neigh in zip(np.split(degrees, starts[1:-1]), rows):
                counts.append(count_gamma(gamma, deg, neigh))
        vals = np.array(counts, dtype=float)
        mean = float(vals.mean())
        std = float(vals.std(ddof=1))
        if std == 0.0:
            raise ValueError(f"degenerate pattern-count sample at lambda={lam}")
        est = wasserstein1_to_normal((vals - mean) / std)
        points.append(CltPoint(lam=lam, d_w=est.value, mean=mean, std=std))
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
    excluded: int


@dataclass(frozen=True)
class CoverageReport:
    points: tuple[CoveragePoint, ...]
    torus_betti: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "torus_betti": list(self.torus_betti),
            "points": [{"lambda": p.lam, "match_frequency": p.match_frequency,
                        "stderr": p.stderr, "excluded": p.excluded}
                       for p in self.points],
        }


def torus_betti(d: int) -> tuple[int, ...]:
    """Betti numbers of the d-torus: beta_i = C(d, i)."""
    return tuple(math.comb(d, i) for i in range(d + 1))


def coverage_experiment(spec: TorusSpec, params: ComplexParams, lambdas,
                        reps: int, seed: SeedSpec) -> CoverageReport:
    """Frequency of recovering the torus Betti numbers, per intensity.

    Homology is computed by ``collapsed_homology``; a replication whose
    homology fails its checks raises ``RuntimeError``.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    laws = [Poisson(lam=float(l)) for l in lambdas]
    if not laws:
        raise ValueError("need at least one intensity")
    target = torus_betti(spec.d)
    points = []
    for law in laws:
        matches = 0
        for rep in range(reps):
            pc = sample(law, spec, seed.child("coverage", law.lam, rep))
            result = collapsed_homology(pc, params)
            if result.violations:
                raise RuntimeError(
                    f"homology check failed at lambda={law.lam}, replication "
                    f"{rep}: {'; '.join(result.violations)}")
            # a match may differ from the target only by trailing zeros
            betti = tuple(result.betti)
            matches += betti == target + (0,) * (len(betti) - len(target))
        freq = matches / reps
        se = math.sqrt(freq * (1.0 - freq) / reps)
        points.append(CoveragePoint(lam=law.lam, match_frequency=freq, stderr=se,
                                    excluded=0))
    return CoverageReport(points=tuple(points), torus_betti=target)
