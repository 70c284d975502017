"""Counting occurrences of a fixed connected graph pattern in the complex.

An occurrence of a pattern graph Gamma is an injective vertex map whose
required edges all pass the distance threshold (non-induced semantics:
extra edges among the image vertices are allowed).  Unordered occurrences
are the labeled embeddings divided by the automorphism count of Gamma's
edge set; the division is always exact.  ``count_gamma`` picks the rule
from the pattern's shape: a star K_{1,k} is counted from the degree
sequence (``star_counts``, which also counts a whole block of
configurations at once from its degrees), any other pattern by a search over
the neighbour bitsets, in a placement order planned once per pattern
(``GammaGraph.back_edges``).

A pattern is a graph like a configuration, walked through its neighbour
bitsets (``GammaGraph.bits``): it is connected when ``cliques.components``
finds one component, and its automorphisms are its labelled embeddings
into itself, as an injective edge-preserving self-map of a finite graph
maps the edge set onto itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cliques import components, rows_bitsets
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
        # a connected graph has at least n - 1 edges; checked first, so that
        # a large n with few edges builds no neighbour sets
        if len(canon) < n - 1 or not g.is_connected():
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

    @functools.cached_property
    def bits(self) -> list[int]:
        """Neighbour bitsets: bit u of bits[v] is set when uv is an edge."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return bits

    @functools.cached_property
    def back_edges(self) -> tuple[tuple[int, ...], ...]:
        """The plan of ``_search``: the vertices are placed in an order where
        each touches an earlier one, and entry p lists the earlier positions
        that the vertex at position p must be adjacent to."""
        nb = self.bits
        order, placed = [0], 1
        while len(order) < self.n:
            v = next(v for v in range(self.n) if not placed >> v & 1 and nb[v] & placed)
            order.append(v)
            placed |= 1 << v
        return tuple(tuple(q for q in range(p) if nb[v] >> order[q] & 1)
                     for p, v in enumerate(order))

    def is_connected(self) -> bool:
        return len(components(self.bits)) == 1


@functools.lru_cache(maxsize=None)
def automorphism_count(gamma: GammaGraph) -> int:
    """Number of automorphisms, the vertex bijections that map the edge set
    onto itself: the labelled embeddings of the pattern into itself
    (``_search``), searched once per pattern."""
    if gamma.n > MAX_AUTOMORPHISM_VERTICES:
        raise ValueError(
            f"exhaustive automorphism scan limited to n <= {MAX_AUTOMORPHISM_VERTICES}")
    return _search(gamma.bits, gamma)


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
    return k if max(b.bit_count() for b in gamma.bits) == k else 0


def count_gamma(gamma: GammaGraph, degrees: np.ndarray,
                neigh: list[int] | None) -> int:
    """Unordered embeddings of the pattern into a graph given by its degree
    sequence and its neighbour bitsets, which a star does not read (None):
    a star is counted by ``star_counts``, any other pattern searched for.
    The pattern size limit of ``automorphism_count`` is checked first.
    """
    c_gamma = automorphism_count(gamma)
    if star_arms(gamma):
        return star_counts(gamma, degrees, [len(degrees)])[0]
    if len(neigh) < gamma.n:
        return 0
    return _unordered(_search(neigh, gamma), c_gamma)


def star_counts(gamma: GammaGraph, degrees: np.ndarray, sizes) -> list[int]:
    """Unordered embeddings of the star ``gamma`` = K_{1,k} into each of
    consecutive graphs of ``sizes`` vertices, given the degree of every
    vertex in order.

    A star has sum_v (deg v)_k labelled embeddings in a graph (centre on v,
    leaves on k distinct neighbours): the (graph, degree) histogram times a
    table of (deg)_k, held as Python ints so that every count is exact at
    any size, over the automorphism count.
    """
    k, c_gamma = star_arms(gamma), automorphism_count(gamma)
    degrees = np.asarray(degrees, dtype=np.int64)
    width = max(k, int(degrees.max(initial=0)) + 1)
    graph = np.repeat(np.arange(len(sizes)), sizes)
    hist = np.bincount(graph * width + degrees, minlength=len(sizes) * width)
    table = np.array([math.perm(d, k) for d in range(k, width)], dtype=object)
    labeled = hist.reshape(len(sizes), width)[:, k:].astype(object) @ table
    return [_unordered(n, c_gamma) for n in labeled.tolist()]


def _unordered(labeled: int, c_gamma: int) -> int:
    if labeled % c_gamma != 0:
        raise AssertionError(
            f"labeled count {labeled} not divisible by automorphism count {c_gamma}")
    return labeled // c_gamma


def _search(neigh: list[int], gamma: GammaGraph) -> int:
    """Labelled embeddings of the pattern into the graph ``neigh``, placing
    the pattern vertices in the order of ``gamma.back_edges``; the
    candidates for a position are the unused vertices in the neighbour
    bitsets of all its placed pattern neighbours."""
    back_edges = gamma.back_edges
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
