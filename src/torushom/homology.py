"""Simplicial homology over GF(2).

Betti numbers of a clique complex are read off a small homotopy-equivalent
core of its graph: strong collapse deletes dominated vertices and edge
collapse dominated edges (Boissonnat & Pritam, SoCG 2020), in turn until
neither deletes anything, and only the core's cliques are listed.  Their
boundary maps are ranked by Gaussian elimination on Python-int bitset rows
(fast XOR of whole rows, no numerics), from the top dimension down with
clearing (Chen & Kerber's twist): a k-simplex that is the lowest set bit of
a reduced row of the (k+1)-boundary has a boundary in the span of those of
later k-simplices, so its row is left out of the k-boundary reduction
without changing the rank.  Strong collapse re-checks, after one full pass,
only the vertices whose closed neighbourhood shrank.  A flood fill over the
shared neighbour bitsets counts graph components, an independent oracle for
beta_0, and the complex's own simplex counts give an Euler characteristic
that the core's Betti numbers must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cliques import enumerate_cliques, neighbour_bitsets
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
    """Betti numbers beta_0..beta_top over GF(2) of a full clique complex,
    read off the cliques of its collapsed core (see ``collapsed_core``)."""
    if complex_.neighbours is None:
        raise ValueError("complex was built without its neighbour bitsets")
    if complex_.truncated:
        raise ValueError("complex is truncated; homology would be unreliable")
    if complex_.n_vertices == 0:
        return []
    # a subcomplex of one counted within the cap, so it needs none
    by_size, _ = enumerate_cliques(collapsed_core(complex_.neighbours), cap=0)
    simplices = [s for s in by_size.values() if s]  # by size, from 1
    ranks = [0] * (len(simplices) + 1)
    cleared: set[tuple[int, ...]] = set()
    for dim in range(len(simplices) - 1, 0, -1):
        kept = [s for s in simplices[dim] if s not in cleared]
        cleared = set()
        ranks[dim] = boundary_rank(simplices[dim - 1], kept, cleared)
    betti = [len(s_k) - ranks[k] - ranks[k + 1] for k, s_k in enumerate(simplices)]
    return betti + [0] * (complex_.max_dim_built + 1 - len(betti))


def collapsed_core(neigh: list[int]) -> list[int]:
    """Neighbour bitsets of a homotopy-equivalent core of a clique complex,
    relabelled 0..m-1: strong collapse (``collapse_from_bitsets``) and edge
    collapse (``_collapse_edges``) alternate until neither removes anything.
    The input is left as it is."""
    core = _induced(neigh, collapse_from_bitsets(neigh))
    while _collapse_edges(core):
        keep = collapse_from_bitsets(core)
        if keep.size == len(core):
            break
        core = _induced(core, keep)
    return core


def _induced(neigh: list[int], keep: np.ndarray) -> list[int]:
    """Bitsets of the subgraph induced on the sorted vertices ``keep``,
    relabelled by their places in it."""
    place = {v: i for i, v in enumerate(keep.tolist())}
    mask = sum(1 << v for v in place)
    out = []
    for v in place:
        rest, row = neigh[v] & mask, 0
        while rest:
            low = rest & -rest
            rest ^= low
            row |= 1 << place[low.bit_length() - 1]
        out.append(row)
    return out


def _collapse_edges(neigh: list[int]) -> bool:
    """Delete dominated edges in place, in passes over every edge until one
    deletes nothing; whether any went.

    Edge uv is dominated by a common neighbour w when N[u] & N[v] lies in
    N[w], closed neighbourhoods; deleting it keeps the homotopy type of the
    clique complex (Boissonnat & Pritam, SoCG 2020).
    """
    removed = 0
    while True:
        before = removed
        for u in range(len(neigh)):
            later = neigh[u] >> (u + 1) << (u + 1)
            while later:
                bit_v = later & -later
                later ^= bit_v
                v = bit_v.bit_length() - 1
                common = cand = neigh[u] & neigh[v]
                while cand:
                    bit_w = cand & -cand
                    cand ^= bit_w
                    others = common ^ bit_w
                    if others & neigh[bit_w.bit_length() - 1] == others:
                        neigh[u] ^= bit_v
                        neigh[v] ^= 1 << u
                        removed += 1
                        break
        if removed == before:
            return removed > 0


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

    Checks performed: Euler characteristic from the alternating simplex
    counts of the full complex equals the alternating sum of the Betti
    numbers of its collapsed core, beta_0 matches a flood-fill component
    count of the full graph, and all Betti numbers are non-negative.
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
    """Homology of a Rips-Vietoris complex via its strong-collapse core.

    Every Betti number of the core is reported (as many as its top
    dimension + 1), computed by ``homology_summary`` of the core's complex;
    ``core_limit`` caps the core's size.  The graph is packed into bitsets
    once, for the collapse, the core's complex and the component check.
    """
    _check_radius(config.spec, params, homology_mode=True)
    if config.n == 0:
        return HomologyResult(betti=[], chi_counts=0, chi_betti=0, violations=[])
    neigh = neighbour_bitsets(adjacency_matrix(config, params))
    core = collapse_from_bitsets(neigh)
    if core_limit is not None and core.size > core_limit:
        raise CoreTooLarge(
            f"collapsed core has {core.size} vertices (limit {core_limit})")
    complex_ = _complex_from_bitsets(_induced(neigh, core))
    result = homology_summary(complex_)
    # component count must be validated on the original graph, not the core
    comps = components_from_bitsets(neigh)
    if result.betti and result.betti[0] != comps:
        result.violations.append(
            f"beta_0 = {result.betti[0]} after collapse but original graph "
            f"has {comps} components")
    return result
