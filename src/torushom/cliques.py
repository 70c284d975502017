"""Clique counting, enumeration and the Euler characteristic of clique complexes.

Cliques are generated by ordered extension: a clique is only ever extended
by common neighbors with a strictly larger vertex index, so every clique is
produced exactly once and in a deterministic order.  The Euler
characteristic is a signed clique sum, computed by pivoting instead of
counting every clique (Jain & Seshadhri, WSDM 2020).  Each vertex's
neighbourhood is one Python int bitset, built by ``neighbour_bitsets`` from
the packed rows of the boolean adjacency matrix (``row_bitsets`` reads them
from rows packed for a whole block of graphs).  Clique counting and
enumeration, strong collapse and component counting (in ``homology``) and
pattern counting (in ``subcomplex``) all walk these bitsets.
"""

from __future__ import annotations

import numpy as np


def neighbour_bitsets(adj_bool: np.ndarray) -> list[int]:
    """Row v of a boolean (n, n) matrix as an int whose bit u is adj[v, u]."""
    packed = np.packbits(adj_bool, axis=1, bitorder="little")
    return row_bitsets(packed.tobytes(), packed.shape[1], range(packed.shape[0]))


def row_bitsets(packed: bytes, width: int, rows: range) -> list[int]:
    """The given rows of a little-endian ``np.packbits`` buffer with
    ``width`` bytes a row, each as an int."""
    return [int.from_bytes(packed[r * width:(r + 1) * width], "little")
            for r in rows]


def counts_from_bitsets(neigh: list[int], max_size: int, cap: int):
    """Clique counts by size (a list, index = size) and whether the walk
    finished within ``cap``.  A candidate set adds its size to the next
    size's count when it is formed, so the top size is counted in bulk."""
    n = len(neigh)
    counts = [0] * (n + 1)
    if n == 0:
        return counts, True
    counts[1] = total = n
    if 0 < cap < total:
        return counts, False
    # stack[-1] holds the unvisited cliques of size ``size - 1``, as the
    # candidates extending their common prefix; the vertices come first.
    stack = [(1 << n) - 1] if max_size > 1 else []
    size = 2
    while stack:
        cand = stack[-1]
        if not cand:
            stack.pop()
            size -= 1
            continue
        low = cand & -cand
        stack[-1] = cand = cand ^ low
        child = cand & neigh[low.bit_length() - 1]
        if child:
            found = child.bit_count()
            counts[size] += found
            total += found
            if 0 < cap < total:
                return counts, False
            if size < max_size:
                stack.append(child)
                size += 1
    return counts, True


def count_cliques(adj_bool: np.ndarray, max_size: int | None = None,
                  cap: int = 10_000_000):
    """Count cliques of every size up to ``max_size`` (default: all).

    Returns (counts, complete): counts[k] is the number of k-cliques
    (counts[1] = vertex count), trimmed after the largest nonzero size.
    complete is False when the total exceeds ``cap`` (0: no cap); the walk
    then stops early and the partial counts depend on where it stopped.
    """
    n = adj_bool.shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.int64), True
    counts, complete = counts_from_bitsets(
        neighbour_bitsets(adj_bool), n if max_size is None else max_size, cap)
    counts = np.array(counts, dtype=np.int64)
    top = max(1, int(np.nonzero(counts)[0].max(initial=1)))
    return counts[: top + 1], complete


def euler_characteristic(adj_bool: np.ndarray) -> int:
    """Euler characteristic of the clique complex; see ``chi_from_bitsets``."""
    return chi_from_bitsets(neighbour_bitsets(adj_bool))


def chi_from_bitsets(neigh: list[int]) -> int:
    """Sum of (-1)^(|C| - 1) over the nonempty cliques C, each rooted at its
    lowest vertex.  In a candidate set P, the cliques inside N[p] of the
    pivot p (most neighbours in P) cancel in pairs (T, T + p), so only the
    u in P - N[p] are followed, each with P & N(u) less the earlier u's."""
    return sum(_signed_clique_sum(neigh, nb >> (v + 1) << (v + 1), 1)
               for v, nb in enumerate(neigh))


def _signed_clique_sum(neigh: list[int], cand: int, sign: int) -> int:
    """Sum of sign * (-1)^|T| over the cliques T (empty included) in ``cand``."""
    if not cand:
        return sign
    best = -1
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        inside = cand & neigh[low.bit_length() - 1]
        degree = inside.bit_count()
        if degree > best:
            best, cone = degree, inside | low
    total = 0
    out = cand & ~cone
    while out:
        low = out & -out
        out ^= low
        total += _signed_clique_sum(neigh, cand & neigh[low.bit_length() - 1], -sign)
        cand ^= low
    return total


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
