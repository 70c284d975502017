"""Counting occurrences of a fixed connected graph pattern in the complex.

An occurrence of a pattern graph Gamma is an injective vertex map whose
required edges all pass the distance threshold (non-induced semantics:
extra edges among the image vertices are allowed).  Unordered occurrences
are the labeled embeddings divided by the automorphism count of Gamma's
edge set; the division is always exact.  ``count_gamma`` picks the rule
from the pattern's shape: a star K_{1,k} is counted from the degree
sequence, any other pattern by a search over the neighbour bitsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .cliques import rows_bitsets
from .joracle import MAX_ORACLE_DIMENSION, circle_hits
from .moments import ModelParams
from .sampling import SeedSpec

MAX_AUTOMORPHISM_VERTICES = 10


@dataclass(frozen=True)
class GammaGraph:
    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def make(n: int, edges) -> "GammaGraph":
        if n < 1:
            raise ValueError("pattern needs at least one vertex")
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("self loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((min(u, v), max(u, v)))
        g = GammaGraph(n=n, edges=frozenset(canon))
        if not g.is_connected():
            raise ValueError("pattern graph must be connected")
        return g

    @staticmethod
    def from_json(doc: dict) -> "GammaGraph":
        fields = doc if isinstance(doc, dict) else {}
        n, edges = fields.get("n"), fields.get("edges", [])
        if not (type(n) is int and isinstance(edges, list) and all(
                isinstance(e, list) and list(map(type, e)) == [int, int]
                for e in edges)):
            raise ValueError("a pattern graph is a JSON object with an integer "
                             "n and edges as pairs of integers")
        return GammaGraph.make(n, edges)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}

    @staticmethod
    def edge() -> "GammaGraph":
        return GammaGraph.make(2, [(0, 1)])

    @staticmethod
    def complete(k: int) -> "GammaGraph":
        return GammaGraph.make(k, [(i, j) for i in range(k) for j in range(i + 1, k)])

    def neighbors(self) -> list[set[int]]:
        nb: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nb[u].add(v)
            nb[v].add(u)
        return nb

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        nb = self.neighbors()
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in nb[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == self.n


@functools.lru_cache(maxsize=None)
def automorphism_count(gamma: GammaGraph) -> int:
    """Number of vertex permutations mapping the edge set onto itself,
    scanned once per pattern."""
    if gamma.n > MAX_AUTOMORPHISM_VERTICES:
        raise ValueError(
            f"exhaustive automorphism scan limited to n <= {MAX_AUTOMORPHISM_VERTICES}")
    count = 0
    for perm in permutations(range(gamma.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in gamma.edges
               for u, v in gamma.edges):
            count += 1
    return count


@dataclass(frozen=True)
class SubcountResult:
    g_gamma: int

    def __post_init__(self):
        if self.g_gamma < 0:
            raise ValueError("subgraph count must be nonnegative")


def count_gamma_adj(adj_bool: np.ndarray, gamma: GammaGraph) -> SubcountResult:
    """Count unordered embeddings of the pattern into a threshold graph
    given by its boolean adjacency matrix (see ``count_gamma``)."""
    return SubcountResult(g_gamma=count_gamma(
        gamma, adj_bool.sum(axis=1), rows_bitsets(adj_bool)))


@functools.lru_cache(maxsize=None)
def star_arms(gamma: GammaGraph) -> int:
    """k when the pattern is the star K_{1,k} with k >= 1 (the edge, the
    2-path, ...), else 0."""
    k = gamma.n - 1
    if k < 1 or len(gamma.edges) != k:
        return 0
    degree = [sum(v in e for e in gamma.edges) for v in range(gamma.n)]
    return k if max(degree) == k else 0


def count_gamma(gamma: GammaGraph, degrees: np.ndarray,
                neigh: list[int] | None) -> int:
    """Unordered embeddings of the pattern into a graph given by its degree
    sequence and its neighbour bitsets, which a star does not read (None).

    A star K_{1,k} has sum_v (deg v)_k labelled embeddings (centre on v,
    leaves on k distinct neighbours), summed in Python ints over the degree
    histogram, so exact at any size; any other pattern is searched for.
    The pattern size limit of ``automorphism_count`` is checked first.
    """
    c_gamma = automorphism_count(gamma)
    if len(degrees) < gamma.n:
        return 0
    k = star_arms(gamma)
    if k:
        labeled = sum(c * math.perm(d, k)
                      for d, c in enumerate(np.bincount(degrees).tolist()) if c)
    else:
        labeled = _search(neigh, gamma)
    if labeled % c_gamma != 0:
        raise AssertionError(
            f"labeled count {labeled} not divisible by automorphism count {c_gamma}")
    return labeled // c_gamma


def _search(neigh: list[int], gamma: GammaGraph) -> int:
    """Labelled embeddings, placing the pattern vertices in an order where
    each touches an earlier one; the candidates for a position are the
    unused vertices in the neighbour bitsets of all its placed pattern
    neighbours."""
    nb = gamma.neighbors()
    # order pattern vertices so each (after the first) touches an earlier one
    order = [0]
    placed = {0}
    while len(order) < gamma.n:
        for v in range(gamma.n):
            if v not in placed and nb[v] & placed:
                order.append(v)
                placed.add(v)
                break
    back_edges = []  # for order position p: earlier positions that must be adjacent
    pos_of = {v: p for p, v in enumerate(order)}
    for p, v in enumerate(order):
        back_edges.append([pos_of[u] for u in nb[v] if pos_of[u] < p])

    assignment = [0] * gamma.n
    last = gamma.n - 1
    all_pts = (1 << len(neigh)) - 1

    def extend(p: int, used: int) -> int:
        """Labeled completions of positions p.. given the earlier ones."""
        cand = all_pts & ~used
        for q in back_edges[p]:
            cand &= neigh[assignment[q]]
        if p == last:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            assignment[p] = low.bit_length() - 1
            total += extend(p + 1, used | low)
        return total

    return extend(0, 0)


def kernel_integral_f_i(gamma: GammaGraph, params: ModelParams, i: int,
                        fixed_points, samples: int, seed: SeedSpec) -> float:
    """Monte Carlo value of the i-th chaos kernel of the pattern count.

    f_i is C(n, i) * lambda^{n-i} times the integral of the pattern
    indicator over the n - i free vertices, evaluated at ``fixed_points``
    (a list of i points occupying the last i pattern slots).  An edge holds
    when its ends lie within epsilon in max-norm (the subcomplex
    convention), so the integral is the product over the d coordinates of
    integrals on the circle, each with that coordinate of the fixed points,
    from ``joracle.circle_hits`` on one generator.  For i = n every draw
    tests the fixed points alone, and the value is the indicator itself.
    """
    n = gamma.n
    if not (0 <= i <= n):
        raise ValueError("need 0 <= i <= n")
    d, a = params.spec.d, params.spec.a
    fixed = np.asarray(fixed_points, dtype=float).reshape(i, d)
    if not np.all((fixed >= 0.0) & (fixed < a)):
        raise ValueError(f"fixed points must lie in [0, {a})^{d}")
    free = n - i
    if free > MAX_ORACLE_DIMENSION:
        raise ValueError(f"integral dimension {free} exceeds cap "
                         f"{MAX_ORACLE_DIMENSION}")
    rng = seed.generator()
    value = math.comb(n, i) * params.lam ** free * a ** (free * d)
    for c in range(d):
        value = value * circle_hits(rng, free, fixed[:, c], gamma.edges, a,
                                    params.epsilon, False, samples) / samples
    return value
