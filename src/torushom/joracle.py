"""Monte Carlo oracle for overlap integrals of simplex indicator products.

The covariance and higher central moments of simplex counts reduce to
integrals of products of simplex indicators over configurations of M
distinct points, where the n simplices share vertices according to a fixed
overlap pattern.  The moment assembly (moments._default_j_oracle) takes each
linked component of a pattern in the first of three cases that applies:

- two simplices: a closed form (moments.j2_closed_form);
- a union graph whose blocks are all cliques, while 2*epsilon <= a/3: a
  closed form too (moments.clique_block_integral);
- any other: the plain Monte Carlo estimate over [0, a)^{M*d} made here, on
  the circle (d = 1), raised to the power d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        items = []
        for subset, count in (shared or {}).items():
            t = frozenset(int(i) for i in subset)
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


def j_oracle_mc(pattern: OverlapPattern, spec: TorusSpec, epsilon: float,
                samples: int, seed: SeedSpec) -> JEstimate:
    """Estimate the overlap integral of prod_i phi_{p_i} over [0,a)^{M*d}.

    phi_p is the indicator that p points are pairwise within 2*epsilon in
    max-norm toroidal distance.  The estimate is a^{M*d} times the hit
    fraction; the standard error comes from the binomial variance of the hit
    indicator.
    """
    pattern.validate()
    M = pattern.total_vertices
    d, a = spec.d, spec.a
    if M * d > MAX_ORACLE_DIMENSION:
        raise ValueError(
            f"integral dimension M*d = {M * d} exceeds cap {MAX_ORACLE_DIMENSION}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lists = pattern.vertex_lists()
    pairs = set()
    for verts in lists:
        for x in range(len(verts)):
            for y in range(x + 1, len(verts)):
                pairs.add((min(verts[x], verts[y]), max(verts[x], verts[y])))
    pairs = sorted(pairs)
    threshold = 2.0 * epsilon
    rng = seed.generator()
    hits = 0
    done = 0
    while done < samples:
        m = min(MC_BATCH, samples - done)
        pts = rng.random((m, M, d)) * a
        ok = np.ones(m, dtype=bool)
        for i, j in pairs:
            diff = np.abs(pts[:, i, :] - pts[:, j, :])
            diff = np.minimum(diff, a - diff)
            ok &= diff.max(axis=1) < threshold
        hits += int(ok.sum())
        done += m
    p = hits / samples
    volume = float(a ** (M * d))
    se = volume * float(np.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples))
    return JEstimate(value=volume * p, stderr=se, samples=samples)
