"""Exhaustive oracles that tests compare the fast graph and homology routines
against."""

from itertools import combinations

import numpy as np


def brute_force_clique_counts(adj_bool: np.ndarray, max_size: int) -> np.ndarray:
    """Exhaustive k-subset checker; independent oracle for small graphs."""
    n = adj_bool.shape[0]
    counts = np.zeros(max_size + 1, dtype=np.int64)
    for k in range(1, max_size + 1):
        for subset in combinations(range(n), k):
            if all(adj_bool[i, j] for i, j in combinations(subset, 2)):
                counts[k] += 1
    return counts


def boundary_matrix(complex_, dim: int) -> np.ndarray:
    """GF(2) boundary matrix from dim-simplices to (dim-1)-simplices.

    Rows index (dim-1)-simplices, columns index dim-simplices, entries in
    {0, 1} as uint8.
    """
    if complex_.simplices is None:
        raise ValueError("complex was built without simplex lists")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lower = complex_.simplices.get(dim - 1, [])
    upper = complex_.simplices.get(dim, [])
    index = {s: i for i, s in enumerate(lower)}
    mat = np.zeros((len(lower), len(upper)), dtype=np.uint8)
    for col, simplex in enumerate(upper):
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1:]
            mat[index[face], col] = 1
    return mat


def dense_gf2_rank(mat: np.ndarray) -> int:
    """GF(2) rank of a 0/1 matrix by Gaussian elimination on numpy rows."""
    m = mat.astype(bool)  # a copy, so the caller's matrix is untouched
    rank = 0
    for col in range(m.shape[1]):
        hits = np.flatnonzero(m[rank:, col])
        if hits.size == 0:
            continue
        pivot = rank + hits[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        below = rank + 1 + np.flatnonzero(m[rank + 1:, col])
        m[below] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def direct_betti_numbers(complex_) -> list[int]:
    """Betti numbers beta_0..beta_top from the GF(2) rank of every full
    boundary matrix, with no clearing."""
    top = complex_.max_dim_built
    ranks = [0] + [dense_gf2_rank(boundary_matrix(complex_, dim))
                   for dim in range(1, top + 2)]
    return [int(complex_.counts[k]) - ranks[k] - ranks[k + 1]
            for k in range(top + 1)]
