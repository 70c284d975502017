"""Simplicial homology over GF(2).

Betti numbers of a clique complex are read off a small homotopy-equivalent
core of its graph: strong collapse deletes dominated vertices and edge
collapse dominated edges (Boissonnat & Pritam, SoCG 2020), in turn until
neither deletes anything, and only the core's cliques are listed; no
simplex of the full complex is counted or listed.  Their boundary maps are
ranked by Gaussian elimination on Python-int bitset rows (fast XOR of whole
rows, no numerics), from the top dimension down with clearing (Chen &
Kerber's twist): a k-simplex that is the lowest set bit of a reduced row of
the (k+1)-boundary has a boundary in the span of those of later k-simplices,
so its row is left out of the k-boundary reduction without changing the
rank.  Strong collapse re-checks, after one full pass, only the vertices
whose closed neighbourhood shrank.

``homology_from_bitsets`` computes every Betti number; the other entry
points only find or unpack the graph.  Its checks: the alternating sum of
the Betti numbers must equal an Euler characteristic, beta_0 must equal the
component count of the whole graph (``cliques.components``), and none may
be negative.  That Euler characteristic is the whole graph's when the
caller gives it: ``collapsed_homology`` and the experiments of ``harness``
pass the chi that the graph builder of ``complexes`` gives with the graph,
so a wrong strong collapse fails there.  Elsewhere (``homology_summary``
alone) it is the pivoted Euler characteristic of the strong-collapse core
(``chi_from_bitsets``, which lists no clique and shares the complex's
homotopy type but not the edge collapse).  The list ends at the collapsed
core's top dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cliques import chi_from_bitsets, components, enumerate_cliques, rows_bitsets
from .complexes import GeometricComplex, _check_radius, graphs


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


def homology_from_bitsets(neigh: list[int],
                          chi: int | None = None) -> HomologyResult:
    """Checked Betti numbers of the clique complex of the graph ``neigh``.

    The Betti numbers come from the cliques of the collapsed core
    (``collapsed_core``) of the strong-collapse core, one per dimension of
    those cliques, and are checked (``_checked``) against an Euler
    characteristic and the components of the whole graph; the failed checks
    are listed in ``violations``.  That Euler characteristic is ``chi``, the
    whole graph's, when given (by ``complexes.graphs``), so that a wrong
    collapse cannot pass; else (for ``homology_summary``) the pivoted one of
    the strong-collapse core.
    Raises ``cliques.SimplexCapExceeded`` when the collapsed core has more
    than ``DEFAULT_SIMPLEX_CAP`` cliques.
    """
    strong = _induced(neigh, collapse_from_bitsets(neigh))
    by_size, _ = enumerate_cliques(collapsed_core(strong))
    simplices = [s for s in by_size.values() if s]  # by size, from 1
    ranks = [0] * (len(simplices) + 1)
    cleared: set[tuple[int, ...]] = set()
    for dim in range(len(simplices) - 1, 0, -1):
        kept = [s for s in simplices[dim] if s not in cleared]
        cleared = set()
        ranks[dim] = boundary_rank(simplices[dim - 1], kept, cleared)
    betti = [len(s_k) - ranks[k] - ranks[k + 1] for k, s_k in enumerate(simplices)]
    return _checked(betti, chi_from_bitsets(strong) if chi is None else chi,
                    neigh)


def homology_summary(complex_: GeometricComplex) -> HomologyResult:
    """``homology_from_bitsets`` of the graph a complex keeps."""
    if complex_.neighbours is None:
        raise ValueError("complex was built without its neighbour bitsets")
    return homology_from_bitsets(complex_.neighbours)


def betti_numbers(complex_: GeometricComplex) -> list[int]:
    """The Betti numbers of ``homology_summary``."""
    return homology_summary(complex_).betti


def collapsed_core(strong: list[int]) -> list[int]:
    """Neighbour bitsets of a homotopy-equivalent core of the clique complex
    of a graph with no dominated vertex (a strong-collapse core), relabelled
    0..m-1: edge collapse (``_collapse_edges``) and strong collapse
    (``collapse_from_bitsets``) alternate until neither removes anything.
    The input is left as it is."""
    core = list(strong)
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
            u = rest.bit_length() - 1
            rest ^= 1 << u
            row |= 1 << place[u]
        out.append(row)
    return out


def _collapse_edges(neigh: list[int]) -> bool:
    """Delete dominated edges in place, in passes over the edges uv (u < v,
    lexicographic) until one deletes nothing; whether any went.

    Edge uv is dominated by a common neighbour w when N[u] & N[v] lies in
    N[w], closed neighbourhoods; deleting it keeps the homotopy type of the
    clique complex (Boissonnat & Pritam, SoCG 2020).  A candidate w that
    fails has a witness x in N(u) & N(v) outside N[w], and every dominator
    lies in N(x), so the candidates shrink to those.
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
                    w = cand.bit_length() - 1
                    others = common ^ 1 << w
                    hit = others & neigh[w]
                    if hit == others:
                        neigh[u] ^= bit_v
                        neigh[v] ^= 1 << u
                        removed += 1
                        break
                    cand &= neigh[(others ^ hit).bit_length() - 1]
        if removed == before:
            return removed > 0


def connected_components(adj_bool: np.ndarray) -> int:
    """Component count of a graph given by its boolean adjacency matrix."""
    return len(components(rows_bitsets(adj_bool)))


def _checked(betti: list[int], chi_counts: int, neigh: list[int]) -> HomologyResult:
    """The Betti numbers of the clique complex of the graph ``neigh`` with
    their violations: an alternating sum other than the Euler characteristic
    ``chi_counts``, a beta_0 other than the component count, and negative
    values."""
    chi_betti = int(sum((-1) ** k * b for k, b in enumerate(betti)))
    violations = []
    if chi_counts != chi_betti:
        violations.append(
            f"euler characteristic mismatch: counts give {chi_counts}, "
            f"betti give {chi_betti}")
    comps = len(components(neigh))
    if betti and betti[0] != comps:
        violations.append(
            f"beta_0 = {betti[0]} but flood fill counts {comps} components")
    for k, b in enumerate(betti):
        if b < 0:
            violations.append(f"beta_{k} = {b} is negative")
    return HomologyResult(betti=betti, chi_counts=chi_counts,
                          chi_betti=chi_betti, violations=violations)


def strong_collapse(adj_bool: np.ndarray) -> np.ndarray:
    """Core vertex indices of a graph; see ``collapse_from_bitsets``."""
    return collapse_from_bitsets(rows_bitsets(adj_bool))


def collapse_from_bitsets(neigh: list[int]) -> np.ndarray:
    """Reduce a clique complex by repeatedly deleting dominated vertices.

    Vertex v is dominated by a neighbour u when N[v] lies in N[u], closed
    neighbourhoods; deleting it keeps the homotopy type of the clique
    complex, so homology can be read off the (usually tiny) core of
    surviving vertices, whose indices are returned.  A candidate u that
    fails has a witness w in N[v] outside N[u], and every dominator lies in
    N[w], so the candidates shrink to those.

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
                miss = nb_v & outside[cand.bit_length() - 1]
                if not miss:
                    alive ^= 1 << v
                    below = others & ((1 << v) - 1)
                    later |= below
                    scan |= others ^ below
                    break
                cand &= closed[miss.bit_length() - 1]
        scan = later
    core = [v for v in range(n) if alive >> v & 1]
    return np.array(core, dtype=np.int64)


def collapsed_homology(config, params) -> HomologyResult:
    """``homology_from_bitsets`` of one configuration's Rips-Vietoris
    complex in homology mode, from ``complexes.graphs`` of a block of that
    one configuration: its edges packed into bitsets once, checked against
    the chi of the whole graph."""
    _check_radius(config.spec, params, homology_mode=True)
    (graph,) = graphs([config.points], config.spec, params, True, True)
    return homology_from_bitsets(graph.neigh, graph.chi)
