"""Clique counting and enumeration on threshold graphs.

Cliques are generated by ordered extension: a clique is only ever extended
by common neighbors with a strictly larger vertex index, so every clique is
produced exactly once and in a deterministic order.  Each vertex's
neighbourhood is one Python int bitset, built by ``neighbour_bitsets`` from
the packed rows of the boolean adjacency matrix.  Clique counting and
enumeration, strong collapse and component counting (in ``homology``) and
pattern counting (in ``subcomplex``) all walk these bitsets.
"""

from __future__ import annotations

import numpy as np


def neighbour_bitsets(adj_bool: np.ndarray) -> list[int]:
    """Row v of a boolean (n, n) matrix as an int whose bit u is adj[v, u]."""
    packed = np.packbits(adj_bool, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _count_ordered_extensions(neigh: list[int], max_size: int, cap: int):
    """Clique counts by size (a list, index = size) and whether the walk
    finished within ``cap``."""
    n = len(neigh)
    counts = [0] * (n + 1)
    total = 0
    for v in range(n):
        counts[1] += 1
        total += 1
        if cap > 0 and total > cap:
            return counts, False
        if max_size <= 1:
            continue
        stack = [neigh[v] & ~((1 << (v + 1)) - 1)]
        while stack:
            cand = stack[-1]
            if cand == 0:
                stack.pop()
                continue
            u = (cand & -cand).bit_length() - 1
            stack[-1] = cand & (cand - 1)
            size = len(stack) + 1
            counts[size] += 1
            total += 1
            if cap > 0 and total > cap:
                return counts, False
            if size < max_size:
                child = stack[-1] & neigh[u]
                if child:
                    stack.append(child)
    return counts, True


def count_cliques(adj_bool: np.ndarray, max_size: int | None = None,
                  cap: int = 10_000_000):
    """Count cliques of every size in an undirected graph.

    Returns (counts, complete): counts[k] is the number of k-cliques
    (counts[1] = vertex count).  If the running total exceeds ``cap``,
    enumeration stops and complete is False.
    """
    n = adj_bool.shape[0]
    if max_size is None:
        max_size = n
    if n == 0:
        return np.zeros(1, dtype=np.int64), True
    counts, complete = _count_ordered_extensions(
        neighbour_bitsets(adj_bool), max_size, cap)
    counts = np.array(counts, dtype=np.int64)
    top = max(1, int(np.nonzero(counts)[0].max(initial=1)))
    return counts[: top + 1], complete


def enumerate_cliques(adj_bool: np.ndarray, max_size: int,
                      cap: int = 10_000_000):
    """List all cliques up to ``max_size`` as sorted vertex tuples.

    Returns (by_size, complete) where by_size[k] is the lexicographically
    ordered list of k-cliques, k = 1..max_size.
    """
    n = adj_bool.shape[0]
    neigh = neighbour_bitsets(adj_bool)
    by_size: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, max_size + 1)}
    total = 0
    for v in range(n):
        by_size[1].append((v,))
        total += 1
        if total > cap:
            return by_size, False
        if max_size <= 1:
            continue
        stack = [(v,), ]
        cands = [neigh[v] & ~((1 << (v + 1)) - 1)]
        while cands:
            cand = cands[-1]
            if cand == 0:
                cands.pop()
                stack.pop()
                continue
            u = (cand & -cand).bit_length() - 1
            cands[-1] = cand & (cand - 1)
            clique = stack[-1] + (u,)
            by_size[len(clique)].append(clique)
            total += 1
            if total > cap:
                return by_size, False
            if len(clique) < max_size:
                child = cands[-1] & neigh[u]
                if child:
                    stack.append(clique)
                    cands.append(child)
    return by_size, True
