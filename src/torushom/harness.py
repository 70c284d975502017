"""Seeded Monte Carlo replication engine.

Runs experiments over Poisson/Binomial configurations, estimates means,
variances, central moments and tails of simplex counts, Euler
characteristic, Betti numbers and pattern counts, and provides the two
asymptotic experiments: the normal-approximation rate for standardized
pattern counts and the torus-coverage probability.

Every replication draws from its own counter-derived stream, so reports are
bit-identical for a fixed configuration regardless of scheduling.  Cliques
are counted only up to the largest N_k asked for; chi is a pivoted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cliques import euler_characteristic
from .complexes import ComplexParams, adjacency_matrix, build_complex, simplex_counts
from .homology import CoreTooLarge, collapsed_homology, connected_components, homology_summary
from .moments import ModelParams
from .sampling import Poisson, PointConfiguration, ProcessLaw, SeedSpec, sample
from .stats import WassersteinEstimate, wasserstein1_to_normal
from .subcomplex import GammaGraph, count_gamma_adj
from .torus import TorusSpec


class ReplicationError(RuntimeError):
    """A single replication exceeded a resource limit."""


@dataclass(frozen=True)
class ExperimentConfig:
    """N_k is counted to the largest k in ``quantities`` and at least to
    dimension ``max_dim``; a replication whose count exceeds ``simplex_cap``
    is excluded.  chi is a pivoted sum over the adjacency, never capped."""

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
                lines.append(f"{r},{q},{v!r}")
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
    parsed = [_parse_quantity(q) for q in config.quantities]
    needs_counts = any(p[0] in ("N", "chi") for p in parsed)
    beta_indices = sorted({p[1] for p in parsed if p[0] == "beta"})
    only_beta0 = beta_indices == [0]
    needs_full_homology = bool(beta_indices) and not only_beta0
    max_k = max([p[1] for p in parsed if p[0] == "N"], default=0)
    count_dim = max(max_k - 1, config.max_dim or 0)

    values: dict[str, list[float]] = {q: [] for q in config.quantities}
    excluded = 0
    homology_violations = 0
    base = SeedSpec(master_seed=config.master_seed, stream_index=0)
    for rep in range(config.replications):
        seed = base.child("experiment", rep)
        pc = sample(config.law, config.spec, seed)
        try:
            row = _replication_values(pc, config, parsed, needs_counts,
                                      count_dim, only_beta0,
                                      needs_full_homology)
        except ReplicationError:
            excluded += 1
            continue
        viol = row.pop("_violations", 0)
        homology_violations += viol
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


def _replication_values(pc: PointConfiguration, config: ExperimentConfig,
                        parsed, needs_counts, count_dim, only_beta0,
                        needs_full_homology) -> dict:
    row: dict[str, float] = {"_violations": 0}
    counts = None
    adj = None
    if needs_counts:
        cx = simplex_counts(pc, config.params, max_dim=count_dim,
                            cap=config.simplex_cap)
        if cx.truncated:
            raise ReplicationError("simplex cap exceeded")
        counts = cx.counts
        adj = cx.adjacency
    homology = None
    if needs_full_homology:
        cx_full = build_complex(pc, config.params, max_dim=None,
                                cap=config.simplex_cap, homology_mode=True)
        if cx_full.truncated:
            raise ReplicationError("simplex cap exceeded")
        homology = homology_summary(cx_full)
        row["_violations"] = len(homology.violations)
    for q, p in zip(config.quantities, parsed):
        kind = p[0]
        if kind == "n_points":
            row[q] = float(pc.n)
        elif kind == "N":
            k = p[1]
            row[q] = float(counts[k - 1]) if k - 1 < len(counts) else 0.0
        elif kind == "chi":
            row[q] = float(euler_characteristic(adj))
        elif kind == "beta":
            i = p[1]
            if homology is not None:
                betti = homology.betti
                row[q] = float(betti[i]) if i < len(betti) else 0.0
            else:
                if adj is None:
                    adj = adjacency_matrix(pc, config.params)
                if pc.n == 0:
                    row[q] = 0.0
                else:
                    row[q] = float(connected_components(adj))
    return row


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
    """Normal-approximation rate of the standardized pattern count.

    For each intensity: draw ``reps`` Poisson configurations, count the
    pattern, standardize by the empirical mean and standard deviation, and
    estimate the Wasserstein-1 distance to the standard normal.  The
    distances should decay roughly like lambda^{-1/2}.
    """
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) < 3 or any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("need at least 3 strictly increasing intensities")
    points = []
    for lam in lambdas:
        vals = np.empty(reps)
        for rep in range(reps):
            pc = sample(Poisson(lam=lam), spec, seed.child("clt", lam, rep))
            adj = adjacency_matrix(pc, params)
            vals[rep] = count_gamma_adj(adj, gamma).g_gamma
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
                        reps: int, seed: SeedSpec,
                        core_limit: int = 60) -> CoverageReport:
    """Frequency of recovering the torus Betti numbers, per intensity.

    Homology is computed after a strong collapse of the clique complex;
    replications whose collapsed core stays above ``core_limit`` vertices
    are excluded and reported (the reduction of such cores is not feasible
    at desk scale).
    """
    target = torus_betti(spec.d)
    points = []
    for lam in [float(l) for l in lambdas]:
        matches = 0
        n_ok = 0
        excluded = 0
        for rep in range(reps):
            pc = sample(Poisson(lam=lam), spec, seed.child("coverage", lam, rep))
            try:
                result = collapsed_homology(pc, params, core_limit=core_limit)
            except CoreTooLarge:
                excluded += 1
                continue
            n_ok += 1
            betti = result.betti
            padded = tuple(betti[i] if i < len(betti) else 0
                           for i in range(spec.d + 1))
            extra = any(b != 0 for b in betti[spec.d + 1:])
            if padded == target and not extra:
                matches += 1
        freq = matches / n_ok if n_ok else math.nan
        se = math.sqrt(freq * (1.0 - freq) / n_ok) if n_ok else math.nan
        points.append(CoveragePoint(lam=lam, match_frequency=freq, stderr=se,
                                    excluded=excluded))
    return CoverageReport(points=tuple(points), torus_betti=target)
