"""Simplicial homology over GF(2).

Betti numbers come from ranks of boundary matrices computed by Gaussian
elimination on Python-int bitset rows (fast XOR of whole rows, no numerics).
The maps are reduced from the top dimension down with clearing (Chen &
Kerber's twist): a k-simplex that is the lowest set bit of a reduced row of
the (k+1)-boundary has a boundary in the span of those of later k-simplices,
so its row is left out of the k-boundary reduction without changing the rank.
For clique complexes that are too large to reduce directly, dominated-vertex
strong collapse shrinks the complex to a small homotopy-equivalent core
first; after one full pass it re-checks only the vertices whose closed
neighbourhood shrank.  A flood fill over the shared neighbour bitsets counts
graph components, an independent oracle for beta_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cliques import neighbour_bitsets
from .complexes import (GeometricComplex, _check_radius, _complex_from_bitsets,
                        adjacency_matrix)


def gf2_rank(rows: list[int], pivot_cols: set[int] | None = None) -> int:
    """Rank over GF(2) of a matrix given as int-bitset rows; the column index
    of each pivot's lowest set bit is added to ``pivot_cols`` if given."""
    pivots: dict[int, int] = {}  # column of the lowest set bit -> pivot row
    rank = 0
    for row in rows:
        while row:
            col = (row & -row).bit_length() - 1
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                rank += 1
                break
            row ^= pivot
    if pivot_cols is not None:
        pivot_cols.update(pivots)
    return rank


def boundary_rank(simplices_low: list[tuple[int, ...]],
                  simplices_high: list[tuple[int, ...]],
                  pivots: set[tuple[int, ...]] | None = None) -> int:
    """Rank of the GF(2) boundary map from high-dim to low-dim simplices; the
    low simplices at the lowest set bits of the reduced rows (the pivots) are
    added to ``pivots`` if given."""
    if not simplices_low or not simplices_high:
        return 0
    index = {s: i for i, s in enumerate(simplices_low)}
    rows = []
    for simplex in simplices_high:
        row = 0
        for face in combinations(simplex, len(simplex) - 1):
            row |= 1 << index[face]
        rows.append(row)
    cols: set[int] = set()
    rank = gf2_rank(rows, cols)
    if pivots is not None:
        pivots.update(simplices_low[i] for i in cols)
    return rank


@dataclass
class HomologyResult:
    betti: list[int]
    chi_counts: int
    chi_betti: int
    violations: list[str]

    def to_json(self) -> dict:
        return {
            "betti": [int(b) for b in self.betti],
            "chi_counts": int(self.chi_counts),
            "chi_betti": int(self.chi_betti),
            "violations": list(self.violations),
        }


def betti_numbers(complex_: GeometricComplex) -> list[int]:
    """Betti numbers beta_0..beta_top over GF(2) of a full clique complex."""
    if complex_.simplices is None:
        raise ValueError("complex was built without simplex lists")
    if complex_.truncated:
        raise ValueError("complex is truncated; homology would be unreliable")
    top = complex_.max_dim_built
    if complex_.n_vertices == 0:
        return []
    ranks = {}
    cleared: set[tuple[int, ...]] = set()
    for dim in range(top + 1, 0, -1):
        kept = [s for s in complex_.simplices.get(dim, []) if s not in cleared]
        cleared = set()
        ranks[dim] = boundary_rank(complex_.simplices.get(dim - 1, []), kept, cleared)
    betti = []
    for k in range(top + 1):
        s_k = len(complex_.simplices.get(k, []))
        betti.append(s_k - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return betti


def connected_components(adj_bool: np.ndarray) -> int:
    """Component count of a graph; see ``components_from_bitsets``."""
    return components_from_bitsets(neighbour_bitsets(adj_bool))


def components_from_bitsets(neigh: list[int]) -> int:
    """Component count by bitset flood fill; independent oracle for beta_0."""
    unseen = (1 << len(neigh)) - 1
    comps = 0
    while unseen:
        frontier = unseen & -unseen
        unseen ^= frontier
        comps += 1
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reached = neigh[low.bit_length() - 1] & unseen
            unseen ^= reached
            frontier |= reached
    return comps


def homology_summary(complex_: GeometricComplex) -> HomologyResult:
    """Betti numbers plus structural consistency checks.

    Checks performed: Euler characteristic from alternating simplex counts
    equals the alternating sum of Betti numbers, beta_0 matches a flood-fill
    component count, and all Betti numbers are non-negative.
    """
    betti = betti_numbers(complex_)
    chi_counts = complex_.euler_characteristic_counts()
    chi_betti = int(sum((-1) ** k * b for k, b in enumerate(betti)))
    violations = []
    if chi_counts != chi_betti:
        violations.append(
            f"euler characteristic mismatch: counts give {chi_counts}, "
            f"betti give {chi_betti}")
    if complex_.neighbours is not None and complex_.n_vertices > 0:
        comps = components_from_bitsets(complex_.neighbours)
        if betti and betti[0] != comps:
            violations.append(
                f"beta_0 = {betti[0]} but flood fill counts {comps} components")
    for k, b in enumerate(betti):
        if b < 0:
            violations.append(f"beta_{k} = {b} is negative")
    return HomologyResult(betti=betti, chi_counts=chi_counts,
                         chi_betti=chi_betti, violations=violations)


class CoreTooLarge(RuntimeError):
    """Strong collapse left a core above the caller's size limit."""


def strong_collapse(adj_bool: np.ndarray) -> np.ndarray:
    """Core vertex indices of a graph; see ``collapse_from_bitsets``."""
    return collapse_from_bitsets(neighbour_bitsets(adj_bool))


def collapse_from_bitsets(neigh: list[int]) -> np.ndarray:
    """Reduce a clique complex by repeatedly deleting dominated vertices.

    Vertex v is dominated by a neighbor u when every neighbor of v (and v
    itself) is adjacent to u, i.e. the closed neighborhood of v is contained
    in that of u.  Deleting a dominated vertex preserves the homotopy type
    of the clique complex, so homology can be read off the (usually tiny)
    core.  Returns the indices of the surviving core vertices.

    Passes run in increasing vertex order until one removes nothing.  The
    first pass checks every vertex; later ones check only the vertices whose
    closed neighbourhood lost a vertex since their last check: closed
    neighbourhoods only shrink, so an unchanged vertex stays undominated.
    A removal puts the live neighbours above it into the current pass and
    those below it into the next, so the removals, and the core, are those
    of rescanning every live vertex each pass.  A removal updates no
    neighbourhood: N[v] is read through the mask of live vertices, and it
    lies inside N[u] exactly when it lies inside the live part of N[u].
    """
    n = len(neigh)
    alive = (1 << n) - 1
    closed = [m | 1 << v for v, m in enumerate(neigh)]
    outside = [alive ^ c for c in closed]  # the complement of each N[u]
    scan = alive
    while scan:
        later = 0  # the vertices to check in the next pass
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            nb_v = closed[v] & alive
            # a dominator must be a live neighbour
            others = cand = nb_v ^ (1 << v)
            while cand:
                u = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                if not nb_v & outside[u]:
                    alive ^= 1 << v
                    below = others & ((1 << v) - 1)
                    later |= below
                    scan |= others ^ below
                    break
        scan = later
    core = [v for v in range(n) if alive >> v & 1]
    return np.array(core, dtype=np.int64)


def collapsed_homology(config, params,
                       core_limit: int | None = None) -> HomologyResult:
    """Homology of a Rips-Vietoris complex via strong collapse then reduction.

    Every Betti number of the core is reported; ``core_limit`` caps its size.
    The graph is packed into bitsets once for the collapse and the component
    check, and the core's induced subgraph once for its complex.
    """
    _check_radius(config.spec, params, homology_mode=True)
    adj = adjacency_matrix(config, params)
    if config.n == 0:
        return HomologyResult(betti=[], chi_counts=0, chi_betti=0, violations=[])
    neigh = neighbour_bitsets(adj)
    core = collapse_from_bitsets(neigh)
    if core_limit is not None and core.size > core_limit:
        raise CoreTooLarge(
            f"collapsed core has {core.size} vertices (limit {core_limit})")
    complex_ = _complex_from_bitsets(neighbour_bitsets(adj[np.ix_(core, core)]))
    result = homology_summary(complex_)
    # component count must be validated on the original graph, not the core
    comps = components_from_bitsets(neigh)
    if result.betti and result.betti[0] != comps:
        result.violations.append(
            f"beta_0 = {result.betti[0]} after collapse but original graph "
            f"has {comps} components")
    return result
