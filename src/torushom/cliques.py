"""Clique counting, enumeration and the Euler characteristic of clique complexes.

Cliques are generated by ordered extension: a clique is only ever extended
by common neighbours with a strictly smaller vertex index, highest first
(``enumerate_cliques``: larger, to list in lexicographic order), so every
clique is produced exactly once and in a deterministic order.  The Euler
characteristic is a signed clique sum, computed by pivoting instead of
counting every clique (Jain & Seshadhri, WSDM 2020).

A graph is passed as its neighbour bitsets: a list with one Python int per
vertex, whose bit u is set when u is a neighbour.  ``neighbour_bitsets``
packs them from boolean rows: a graph's adjacency matrix, or the rows of a
whole block of graphs at once.  Every walker takes them: clique counting
and enumeration here, strong collapse and component counting in
``homology``, pattern counting in ``subcomplex``.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SIMPLEX_CAP = 10_000_000


def neighbour_bitsets(rows: np.ndarray) -> list[int]:
    """Row v of a boolean matrix as an int whose bit u is rows[v, u]."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[r * width:(r + 1) * width], "little")
            for r in range(packed.shape[0])]


def counts_from_bitsets(neigh: list[int], max_size: int, cap: int | None = None):
    """Clique counts by size (a list, index = size) and whether the walk
    finished within ``cap`` (None: ``DEFAULT_SIMPLEX_CAP``, read at the call).
    A candidate set adds its size to the next size's count when it is
    formed, so the top size is counted in bulk."""
    cap = DEFAULT_SIMPLEX_CAP if cap is None else cap
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
        u = cand.bit_length() - 1
        stack[-1] = cand = cand ^ 1 << u
        child = cand & neigh[u]
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


def count_cliques(neigh: list[int], max_size: int | None = None,
                  cap: int | None = None):
    """Count cliques of every size up to ``max_size`` (default: all).

    Returns (counts, complete): counts[k] is the number of k-cliques
    (counts[1] = vertex count), trimmed after the largest nonzero size.
    complete is False when the total exceeds ``cap`` (0: no cap); the walk
    then stops early and the partial counts depend on where it stopped.
    """
    counts, complete = counts_from_bitsets(
        neigh, len(neigh) if max_size is None else max_size, cap)
    counts = np.array(counts, dtype=np.int64)
    top = max(1, int(np.nonzero(counts)[0].max(initial=1)))
    return counts[: top + 1], complete


def chi_from_bitsets(neigh: list[int]) -> int:
    """Sum of (-1)^(|C| - 1) over the nonempty cliques C, each rooted at its
    highest vertex.  In a candidate set P, the cliques inside N[p] of the
    pivot p (most neighbours in P) cancel in pairs (T, T + p), so only the
    u in P - N[p] are followed, each with P & N(u) less the earlier u's."""
    return sum(_signed_clique_sum(neigh, nb & (1 << v) - 1, 1)
               for v, nb in enumerate(neigh))


def _signed_clique_sum(neigh: list[int], cand: int, sign: int) -> int:
    """Sum of sign * (-1)^|T| over the cliques T (empty included) in ``cand``."""
    if not cand:
        return sign
    best = -1
    rest = cand
    while rest:
        u = rest.bit_length() - 1
        rest ^= 1 << u
        inside = cand & neigh[u]
        degree = inside.bit_count()
        if degree > best:
            best, cone = degree, inside ^ 1 << u
    total = 0
    out = cand ^ cone
    while out:
        u = out.bit_length() - 1
        out ^= 1 << u
        total += _signed_clique_sum(neigh, cand & neigh[u], -sign)
        cand ^= 1 << u
    return total


def enumerate_cliques(neigh: list[int], cap: int | None = None):
    """List every clique as a sorted vertex tuple.

    Returns (by_size, complete) where by_size[k] is the lexicographically
    ordered list of k-cliques, k = 1..n.  complete is False when the total
    exceeds ``cap`` (0: no cap), as in ``counts_from_bitsets``; the lists
    then stop where the walk stopped.
    """
    cap = DEFAULT_SIMPLEX_CAP if cap is None else cap
    n = len(neigh)
    by_size: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, n + 1)}
    total = 0
    for v in range(n):
        by_size[1].append((v,))
        total += 1
        if 0 < cap < total:
            return by_size, False
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
            if 0 < cap < total:
                return by_size, False
            child = cands[-1] & neigh[u]
            if child:
                stack.append(clique)
                cands.append(child)
    return by_size, True
