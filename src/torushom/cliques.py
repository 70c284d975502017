"""Clique counting, enumeration and the Euler characteristic of clique complexes.

Cliques are generated by ordered extension: a clique is only ever extended
by common neighbours with a strictly smaller vertex index, highest first
(``enumerate_cliques``: larger, to list in lexicographic order), so every
clique is produced exactly once and in a deterministic order.  The Euler
characteristic is a signed clique sum, computed by pivoting instead of
counting every clique (Jain & Seshadhri, WSDM 2020).

A graph is passed as its neighbour bitsets: a list with one Python int per
vertex, whose bit u is set when u is a neighbour.  ``neighbour_bitsets``
makes them from an edge list (``complexes.threshold_edges``) of one graph or
a block by the one checked pack of arcs into n * ceil(width / 64) words
(``_packed_rows``); no (n, n) boolean matrix is built.  Every walker takes
them: clique counting, enumeration and connected components (``components``,
of configurations and of patterns alike) here, strong collapse in
``homology``, pattern counting in ``subcomplex``.  The triangles of a block
are counted from the same pack of later neighbours (``triangle_counts``), in
numpy, with no walk and no Python ints, so the clique walk is needed for N_4
and up only; where every clique is a vertex and a subset of its later
neighbours (the circle's nerve of arcs), every N_k of a block comes from the
later-neighbour counts alone (``anchored_counts``).  A count by any way is
capped alike (``check_cap``).
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SIMPLEX_CAP = 10_000_000


class SimplexCapExceeded(ValueError):
    """A clique walk passed ``DEFAULT_SIMPLEX_CAP`` cliques."""


def _packed_rows(tail: np.ndarray, head: np.ndarray, n: int,
                column: np.ndarray | None = None) -> np.ndarray:
    """The arcs tail[a] -> head[a] as an (n, ceil(width / 64)) uint64 array,
    at least one word wide, whose row x has bit column[y] (default y) set
    for each arc x -> y, width being the largest column plus one (default
    n).  ``np.add.at`` ORs the bits only if they are distinct, so unless the
    rows' popcount is the arc count (no arc is repeated, no two heads of one
    tail share a column) a ``ValueError`` is raised."""
    cols = head if column is None else column[head]
    width = n if column is None else int(column.max(initial=-1)) + 1
    words = max(1, -(-width // 64))
    rows = np.zeros(n * words, dtype="<u8")
    np.add.at(rows, tail * words + (cols >> 6),
              np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64)))
    if int(np.bitwise_count(rows).sum()) != tail.size:
        raise ValueError("an arc is repeated, or shares a column and a tail")
    return rows.reshape(n, words)


def neighbour_bitsets(u: np.ndarray, v: np.ndarray, n: int,
                      column: np.ndarray | None = None) -> list[int]:
    """The bitsets of the graph on the vertices 0..n-1 whose edges are
    (u[e], v[e]), each listed once: vertex x's int has bit column[y] set for
    each neighbour y (by default bit y), from the ``_packed_rows`` of the
    arcs both ways."""
    return _row_ints(_packed_rows(np.concatenate((u, v)),
                                 np.concatenate((v, u)), n, column))


def triangle_counts(u: np.ndarray, v: np.ndarray, column: np.ndarray,
                    seg: np.ndarray, groups: int, run: int) -> np.ndarray:
    """The triangle count of each of ``groups`` graphs whose vertices lie
    in one array, each graph's consecutively: vertex x is in graph seg[x]
    at its local column column[x].  The edges (u[e], v[e]) are each listed
    once, in any order and orientation.

    Each vertex x's later neighbours (y > x) are the row x of the
    ``_packed_rows`` of the arcs x -> y, by column.  A triangle x < y < z is
    then counted once, at its lowest edge xy, as the bit z of row x AND
    row y: the popcounts of those ANDs, summed over the edges, are the
    triangle counts.  The edges are ANDed in runs of at most ``run`` words,
    so that the join holds the rows and one run."""
    found = np.zeros(groups, dtype=np.int64)
    if u.size == 0:
        return found
    x, y = np.minimum(u, v), np.maximum(u, v)
    later = _packed_rows(x, y, column.size, column)
    step = max(1, run // later.shape[1])
    for first in range(0, x.size, step):
        xs = x[first:first + step]
        common = later.take(xs, axis=0)
        common &= later.take(y[first:first + step], axis=0)
        per_edge = np.bitwise_count(common).sum(axis=1, dtype=np.int64)
        # each run's sum is below 2^53, exact as a float weight
        found += np.bincount(seg[xs], weights=per_edge,
                             minlength=groups).astype(np.int64)
    return found


def anchored_counts(later: np.ndarray, seg: np.ndarray, groups: int,
                    max_size: int | None) -> tuple[list[list[int]], list[int]]:
    """The clique counts of ``groups`` graphs whose vertices lie in one
    array (vertex x in graph seg[x]) and whose cliques are each a vertex x
    and any subset of its later[x] later neighbours (the circle's nerve of
    arcs), so that N_k = sum_x C(later[x], k - 1).

    Returns (rows, totals): rows[s] is N_2, N_3, ... of graph s, up to
    ``max_size`` (None: every size), all rows padded to one length; totals[s]
    is N_1 + N_2 + ... up to ``max_size``, for ``check_cap``.  A vertex
    whose own cliques pass ``DEFAULT_SIMPLEX_CAP`` (read at the call) adds
    cap + 1 to its total and nothing to its row, so no large binomial is
    formed.  The counts are a (graph, later count) histogram times a table
    of binomials, in int64 where no sum reaches 2^63, else in Python ints."""
    cap = DEFAULT_SIMPLEX_CAP
    present = np.bincount(later) > 0
    values, index = np.flatnonzero(present), (present.cumsum() - 1)[later]
    table, weights = [], []
    for m in values.tolist():
        row, total = [], 0
        for j in range(1, m + 1 if max_size is None else min(m, max_size - 1) + 1):
            row.append(math.comb(m, j))
            total += row[-1]
            if total > cap:
                row, total = [], cap + 1
                break
        table.append(row)
        weights.append(total)
    width = max(map(len, table), default=0)
    matrix = [row + [0] * (width - len(row)) + [w] for row, w in zip(table, weights)]
    sizes = np.bincount(seg, minlength=groups)
    hist = np.bincount(seg * values.size + index,
                       minlength=groups * values.size).reshape(groups, values.size)
    dtype = np.int64 if int(sizes.max(initial=0)) * (cap + 2) < 1 << 63 else object
    counts = hist.astype(dtype) @ np.array(matrix, dtype=dtype).reshape(
        values.size, width + 1)
    return counts[:, :-1].tolist(), (counts[:, -1] + sizes).tolist()


# Only the adjacency-matrix wrappers that perfbench calls (strong_collapse,
# connected_components, count_gamma_adj) pack boolean rows: np.packbits of a
# 2000 x 2000 matrix takes 1.4 ms, np.nonzero to find its edges 9 ms.  The
# benchmark change of ROADMAP item 1 removes those wrappers, and this.
def rows_bitsets(rows: np.ndarray) -> list[int]:
    """Row v of a boolean matrix as an int whose bit u is rows[v, u], from
    its ``np.packbits`` bytes, padded to whole 64-bit words where they are
    not (padding 1,600 rows of whole words took 1.3x longer, on 2 cores)."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    if packed.shape[1] % 8 or not packed.shape[1]:
        packed = np.pad(packed, ((0, 0), (0, 8 - packed.shape[1] % 8)))
    return _row_ints(packed.view("<u8"))


def _row_ints(rows: np.ndarray) -> list[int]:
    """Row r of an (n, words) array of little-endian uint64 words as an int,
    word 0 lowest.

    A row of up to two words is joined high to low (``hi << 64 | lo``) from
    the words, which numpy converts to Python ints a column at a time; a
    wider one is ``int.from_bytes`` of its bytes, which one view of the
    rows as ``V{8 * words}`` items converts to ``bytes`` all at once.
    Against ``int.from_bytes`` of each numpy row (paired medians of 9
    shuffled passes over 40 to 5,000 rows), the join takes 0.07-0.11 of its
    time at one word, 0.41-0.46 at two, 0.63-0.74 at three and 1.04-1.13 at
    four; the view 0.45-0.57 from one word to five, 0.54-0.61 at eight and
    0.64-0.91 at 25."""
    if rows.shape[1] > 2:
        return [int.from_bytes(row, "little")
                for row in rows.view(f"V{8 * rows.shape[1]}").ravel().tolist()]
    *low, ints = rows.T.tolist()
    for word in reversed(low):
        ints = [hi << 64 | lo for hi, lo in zip(ints, word)]
    return ints


def components(neigh: list[int]) -> list[int]:
    """The connected components of a graph by flood fill, each as a vertex
    bitset, in the order of their lowest vertex."""
    unseen = (1 << len(neigh)) - 1
    found = []
    while unseen:
        start = unseen
        frontier = unseen & -unseen
        unseen ^= frontier
        while frontier:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            reached = neigh[v] & unseen
            unseen ^= reached
            frontier |= reached
        found.append(start ^ unseen)
    return found


def counts_from_bitsets(neigh: list[int], max_size: int) -> list[int]:
    """Clique counts by size (a list, index = size); raises
    ``SimplexCapExceeded`` once they pass ``DEFAULT_SIMPLEX_CAP``, read at
    the call.  Each vertex v roots the cliques whose other vertices lie
    below it, its lower neighbours being their first candidate set.  A
    candidate set adds its size to the next size's count when it is formed,
    so the top size is counted in bulk; a set of one vertex cannot grow and
    is never walked, and a set whose walk reaches no further than the last
    size is walked in one tight loop (``_last_sizes``)."""
    cap = DEFAULT_SIMPLEX_CAP
    n = len(neigh)
    counts = [0] * (n + 1)
    if n == 0:
        return counts
    counts[1] = total = n
    for v, nb in enumerate(neigh if max_size > 1 else ()):
        if total > cap:
            break
        cand = nb & (1 << v) - 1
        if not cand:
            continue
        found = cand.bit_count()
        counts[2] += found
        total += found
        if found < 2 or max_size < 3:
            continue
        if max_size <= 4:
            one, two = _last_sizes(neigh, cand, max_size == 4)
            counts[3] += one
            if two:
                counts[4] += two
            total += one + two
            continue
        # stack[-1] holds the unvisited candidates of a clique of size
        # ``size - 2``, each of which forms one of size ``size - 1``; a set
        # formed at ``max_size - 2`` is walked by ``_last_sizes``
        stack = [cand]
        size = 3
        while stack and total <= cap:
            cand = stack[-1]
            if not cand:
                stack.pop()
                size -= 1
                continue
            u = cand.bit_length() - 1
            stack[-1] = cand = cand ^ 1 << u
            child = cand & neigh[u]
            if not child:
                continue
            found = child.bit_count()
            counts[size] += found
            total += found
            if found < 2:
                continue
            if size + 2 < max_size:
                stack.append(child)
                size += 1
                continue
            one, two = _last_sizes(neigh, child, True)
            counts[size + 1] += one
            if two:
                counts[size + 2] += two
            total += one + two
    check_cap(total, max_size)
    return counts


def check_cap(total: int, max_size: int | None = None) -> None:
    """Raise ``SimplexCapExceeded`` when ``total`` cliques, of at most
    ``max_size`` vertices if given, pass ``DEFAULT_SIMPLEX_CAP``, read at
    the call."""
    cap = DEFAULT_SIMPLEX_CAP
    if total > cap:
        sizes = "" if max_size is None else f" of at most {max_size} vertices"
        raise SimplexCapExceeded(f"more than DEFAULT_SIMPLEX_CAP = {cap} cliques"
                                 + sizes)


def _last_sizes(neigh: list[int], cand: int, deep: bool) -> tuple[int, int]:
    """The cliques that the vertices of a candidate set form with the
    vertices below them in it, which are one size up, and, if ``deep``,
    those two sizes up: the edges inside the sets formed."""
    one = two = 0
    while cand:
        u = cand.bit_length() - 1
        cand ^= 1 << u
        child = cand & neigh[u]
        if child:
            one += child.bit_count()
            while deep and child:
                w = child.bit_length() - 1
                child ^= 1 << w
                two += (child & neigh[w]).bit_count()
    return one, two


# The flag that count_cliques and enumerate_cliques return, always True, and
# GeometricComplex.truncated, always False, stay only because perfbench
# reads them; the benchmark change of ROADMAP item 1 removes them.
def count_cliques(neigh: list[int], max_size: int | None = None):
    """Count cliques of every size up to ``max_size`` (default: all).

    Returns (counts, True): counts[k] is the number of k-cliques
    (counts[1] = vertex count), trimmed after the largest nonzero size.
    Raises ``SimplexCapExceeded`` as ``counts_from_bitsets`` does.
    """
    counts = counts_from_bitsets(
        neigh, len(neigh) if max_size is None else max_size)
    return np.concatenate(([0], _trimmed(counts[1:]))), True


def _trimmed(counts: list[int]) -> np.ndarray:
    """Clique counts N_1, N_2, ... trimmed after the largest nonzero one."""
    top = len(counts)
    while top and not counts[top - 1]:
        top -= 1
    return np.array(counts[:top], dtype=np.int64)


def chi_from_bitsets(neigh: list[int]) -> int:
    """Sum of (-1)^(|C| - 1) over the nonempty cliques C, each rooted at its
    highest vertex.  In a candidate set P, the cliques inside N[p] of the
    pivot p (most neighbours in P) cancel in pairs (T, T + p), so only the
    u in P - N[p] are followed, each with P & N(u) less the earlier u's.
    A root with no lower neighbour adds 1, and one with exactly one adds 0
    (the root, less the edge)."""
    total = 0
    for v, nb in enumerate(neigh):
        lower = nb & (1 << v) - 1
        if not lower:
            total += 1
        elif lower & (lower - 1):
            total += _signed_clique_sum(neigh, lower, 1)
    return total


def _signed_clique_sum(neigh: list[int], cand: int, sign: int) -> int:
    """Sum of sign * (-1)^|T| over the cliques T (empty included) in
    ``cand``, of at least two vertices; a candidate set of at most one
    vertex sums to sign or 0 inline, with no call."""
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
        sub = cand & neigh[u]
        if not sub:
            total -= sign
        elif sub & (sub - 1):
            total += _signed_clique_sum(neigh, sub, -sign)
        cand ^= 1 << u
    return total


def enumerate_cliques(neigh: list[int]):
    """List every clique as a sorted vertex tuple.

    Returns (by_size, True) where by_size[k] is the lexicographically
    ordered list of k-cliques, k = 1..n.  Raises ``SimplexCapExceeded``
    once the cliques pass ``DEFAULT_SIMPLEX_CAP``, read at the call.
    """
    cap = DEFAULT_SIMPLEX_CAP
    n = len(neigh)
    by_size: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, n + 1)}
    total = 0
    # the empty clique, whose candidates are all the vertices, is the root
    stack, cands = [()], [(1 << n) - 1]
    while cands and total <= cap:
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
        child = cands[-1] & neigh[u]
        if child:
            stack.append(clique)
            cands.append(child)
    check_cap(total)
    return by_size, True
