"""Monte Carlo integrals on the circle: overlap integrals and chaos kernels.

The covariance and higher central moments of simplex counts reduce to
integrals of products of simplex indicators over configurations of M
distinct points, where the n simplices share vertices according to a fixed
overlap pattern.  The moment assembly (moments._default_j_oracle) takes each
linked component of a pattern in the first of three cases that applies:

- two simplices: a closed form (moments.j2_closed_form);
- a union graph whose blocks are all cliques, while 2*epsilon <= a/3: a
  closed form too (moments.clique_block_integral);
- any other: the Monte Carlo estimate ``j_oracle_mc`` made here.

The max-norm indicator is a product over coordinates of indicators on the
circle, so an integral over [0, a)^{M*d} is J_1^d, J_1 being the integral
over [0, a)^M.  ``circle_hits`` is the one sampling loop: ``j_oracle_mc``
estimates J_1 with it, and ``subcomplex.kernel_integral_f_i`` one circle
integral per coordinate of its fixed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .sampling import SeedSpec
from .torus import TorusSpec

MAX_ORACLE_DIMENSION = 12
# Monte Carlo points drawn per pass, which bounds the memory of a pass
MC_BATCH = 200_000


@dataclass(frozen=True)
class OverlapPattern:
    """Vertex-sharing structure of n simplices.

    ``sizes[i]`` is the vertex count of simplex i.  ``shared`` maps a
    frozenset of simplex indices (|T| >= 2) to the number of vertices common
    to exactly the simplices in T and no others.
    """
    sizes: tuple[int, ...]
    shared: tuple[tuple[frozenset, int], ...] = field(default=())

    @staticmethod
    def make(sizes, shared: dict | None = None) -> "OverlapPattern":
        items, seen = [], set()
        for subset, count in (shared or {}).items():
            members = [int(i) for i in subset]
            t = frozenset(members)
            if len(t) < len(members) or t in seen:
                raise ValueError(f"shared group {sorted(t)} names a simplex twice"
                                 " or the simplices of another group")
            seen.add(t)
            if len(t) < 2:
                raise ValueError("shared groups must involve >= 2 simplices")
            if not t <= set(range(len(sizes))):
                raise ValueError(f"shared group {sorted(t)} out of range")
            if count < 0:
                raise ValueError("shared counts must be nonnegative")
            if count > 0:
                items.append((t, int(count)))
        items.sort(key=lambda kv: (sorted(kv[0]), kv[1]))
        pattern = OverlapPattern(sizes=tuple(int(p) for p in sizes),
                                 shared=tuple(items))
        pattern.validate()
        return pattern

    def validate(self) -> None:
        if any(p < 1 for p in self.sizes):
            raise ValueError("simplex sizes must be >= 1")
        n = len(self.sizes)
        for i in range(n):
            used = sum(c for t, c in self.shared if i in t)
            if used > self.sizes[i]:
                raise ValueError(
                    f"simplex {i} has {used} shared vertices but size {self.sizes[i]}")

    @property
    def total_vertices(self) -> int:
        """Number of distinct points M in the merged configuration."""
        return sum(self.sizes) - sum(c * (len(t) - 1) for t, c in self.shared)

    def vertex_lists(self) -> list[list[int]]:
        """Assign distinct point indices 0..M-1 to each simplex's vertices."""
        n = len(self.sizes)
        lists: list[list[int]] = [[] for _ in range(n)]
        next_id = 0
        for t, count in self.shared:
            for _ in range(count):
                for i in t:
                    lists[i].append(next_id)
                next_id += 1
        for i in range(n):
            while len(lists[i]) < self.sizes[i]:
                lists[i].append(next_id)
                next_id += 1
        assert next_id == self.total_vertices
        return lists


@dataclass(frozen=True)
class JEstimate:
    value: float
    stderr: float
    samples: int


def circle_hits(rng: np.random.Generator, free: int, fixed, pairs,
                a: float, threshold: float, strict: bool, samples: int) -> int:
    """Draws, out of ``samples``, in which every pair of points is closer
    than ``threshold`` on the circle of length ``a`` (at most ``threshold``
    unless ``strict``).

    Points 0..free-1 are drawn uniformly, ``MC_BATCH`` draws per pass;
    points free.. are the coordinates ``fixed``.  ``pairs`` lists the (i, j)
    index pairs to test.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    fixed = np.asarray(fixed, dtype=float)
    hits = 0
    for done in range(0, samples, MC_BATCH):
        m = min(MC_BATCH, samples - done)
        pts = np.concatenate((rng.random((m, free)) * a,
                              np.broadcast_to(fixed, (m, fixed.size))), axis=1)
        ok = np.ones(m, dtype=bool)
        for i, j in pairs:
            diff = np.abs(pts[:, i] - pts[:, j])
            diff = np.minimum(diff, a - diff)
            ok &= diff < threshold if strict else diff <= threshold
        hits += int(ok.sum())
    return hits


def j_oracle_mc(pattern: OverlapPattern, spec: TorusSpec, epsilon: float,
                samples: int, seed: SeedSpec) -> JEstimate:
    """Estimate the overlap integral of prod_i phi_{p_i} over [0,a)^{M*d}.

    phi_p is the indicator that p points are pairwise within 2*epsilon in
    max-norm toroidal distance.  J_1, the integral on the circle, is a^M
    times the hit fraction of ``circle_hits``, with the standard error of the
    binomial hit count; the estimate is J_1^d, its error the rise of x^d over
    [J_1, J_1 + stderr]: the first-order term and the higher ones, which keep
    a zero-hit estimate's error.
    """
    pattern.validate()
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    M = pattern.total_vertices
    if M > MAX_ORACLE_DIMENSION:
        raise ValueError(
            f"integral dimension M = {M} exceeds cap {MAX_ORACLE_DIMENSION}")
    pairs = {pair for verts in pattern.vertex_lists()
             for pair in combinations(verts, 2)}
    hits = circle_hits(seed.generator(), M, (), pairs, spec.a, 2.0 * epsilon,
                       True, samples)
    p = hits / samples
    volume = float(spec.a ** M)
    value = volume * p
    se = volume * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    d = spec.d
    stderr = sum(math.comb(d, r) * value ** (d - r) * se ** r
                 for r in range(1, d + 1))
    return JEstimate(value=value ** d, stderr=stderr, samples=samples)
