"""Exhaustive oracles and small reference helpers that tests compare the fast
graph, homology, geometry and moment routines against."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from torushom.cliques import neighbour_bitsets


def bitsets(adj_bool: np.ndarray) -> list[int]:
    """Neighbour bitsets of a symmetric boolean adjacency matrix, packed by
    ``neighbour_bitsets`` from the edges above its diagonal."""
    u, v = np.nonzero(np.triu(adj_bool, 1))
    return neighbour_bitsets(u, v, adj_bool.shape[0])


def brute_force_clique_counts(adj_bool: np.ndarray, max_size: int) -> np.ndarray:
    """Exhaustive k-subset checker; independent oracle for small graphs."""
    n = adj_bool.shape[0]
    counts = np.zeros(max_size + 1, dtype=np.int64)
    for k in range(1, max_size + 1):
        for subset in combinations(range(n), k):
            if all(adj_bool[i, j] for i, j in combinations(subset, 2)):
                counts[k] += 1
    return counts


def permutation_automorphism_count(gamma) -> int:
    """Automorphisms of a pattern graph (``subcomplex.GammaGraph``) by
    scanning all n! vertex permutations for those that map its edge set
    onto itself."""
    return sum(all((min(p[u], p[v]), max(p[u], p[v])) in gamma.edges
                   for u, v in gamma.edges)
               for p in permutations(range(gamma.n)))


def chi_from_counts(counts) -> int:
    """The Euler characteristic sum_i (-1)^i counts[i] of simplex counts
    (counts[i] = N_{i+1})."""
    return sum((-1) ** i * int(c) for i, c in enumerate(counts))


def z_score(stats, analytic: float) -> float:
    """(mean - analytic) / stderr of an estimate (``harness.QuantityStats``);
    0 or infinity when the stderr is 0."""
    if stats.stderr == 0.0:
        return 0.0 if stats.mean == analytic else math.inf
    return (stats.mean - analytic) / stats.stderr


def clique_simplices(neigh: list[int], dim: int) -> list[tuple[int, ...]]:
    """The dim-simplices of the clique complex of the graph ``neigh``
    (neighbour bitsets) in lexicographic order, by testing every
    (dim + 1)-subset of its vertices."""
    return [s for s in combinations(range(len(neigh)), dim + 1)
            if all(neigh[u] >> v & 1 for u, v in combinations(s, 2))]


def boundary_matrix(neigh: list[int], dim: int) -> np.ndarray:
    """GF(2) boundary matrix from dim-simplices to (dim-1)-simplices.

    Rows index (dim-1)-simplices, columns index dim-simplices, both listed
    by ``clique_simplices``; entries in {0, 1} as uint8.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lower = clique_simplices(neigh, dim - 1)
    upper = clique_simplices(neigh, dim)
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


def direct_betti_numbers(neigh: list[int]) -> list[int]:
    """Betti numbers beta_0..beta_top of the clique complex of the graph
    ``neigh``, top its largest dimension with a simplex (found by testing
    every subset), from the GF(2) rank of every full boundary matrix, with
    no clearing and no collapse."""
    simplices = []
    while found := clique_simplices(neigh, len(simplices)):
        simplices.append(found)
    ranks = ([0] + [dense_gf2_rank(boundary_matrix(neigh, dim))
                    for dim in range(1, len(simplices))] + [0])
    return [len(s_k) - ranks[k] - ranks[k + 1] for k, s_k in enumerate(simplices)]


def circle_betti_numbers(config, params) -> list[int]:
    """Betti numbers, without trailing zeros, of the Rips complex of points
    on the circle of length a (d = 1) at a threshold t < a/3, from the
    circular gaps between consecutive points alone.

    The complex is a circle, (1, 1), when every gap passes the threshold,
    and otherwise a disjoint union of contractible pieces, one per failing
    gap (Adamaszek & Adams, "The Vietoris-Rips complexes of a circle",
    Pacific J. Math. 290, 2017).  Each gap is the difference that the
    max-norm distance test computes, so the two agree at exact ties."""
    a = config.spec.a
    if config.spec.d != 1 or not 3 * params.threshold() < a:
        raise ValueError("the circle rule needs d = 1 and t < a/3")
    x = np.sort(config.points[:, 0])
    if x.size == 0:
        return []
    gaps = [*np.diff(x).tolist(), a - (x[-1] - x[0])]
    failing = sum(not params.adjacent(g) for g in gaps)
    return [failing] if failing else [1, 1]


def circle_recovery_probability(lam: float, t: float) -> float:
    """P(beta = (1, 1)) for a Poisson process of intensity ``lam`` on the
    unit circle at a threshold t < 1/3: by the circle rule, the chance that
    no circular spacing is t or more.  Given n >= 1 uniform points that is
    Stevens' covering probability, sum_k (-1)^k C(n, k) (1 - k t)^(n - 1)
    over k with k t < 1, computed exactly in rationals (the alternating sum
    cancels too much for floats); the Poisson law of n mixes it, with n
    taken to 10 lam + 50."""
    tf = Fraction(t).limit_denominator(10 ** 9)
    covered = 0.0
    pn = math.exp(-lam)
    for n in range(1, int(lam * 10) + 50):
        pn *= lam / n
        p_cov = sum((-1) ** k * math.comb(n, k) * (1 - k * tf) ** (n - 1)
                    for k in range(0, min(n, int(1 / tf)) + 1)
                    if 1 - k * tf > 0)
        covered += pn * float(p_cov)
    return covered


def window_clique_counts(points, a: float, t: float, max_size: int) -> list[int]:
    """N_1..N_max_size of the window (Cech) complex of points on the circle
    of length a (d = 1): the sets that fit in a half-open arc of length t.
    Each such set is counted at its first point i clockwise, with any k - 1
    of the m_i points at clockwise offsets in (0, t) from i, so
    N_k = sum_i C(m_i, k - 1).  Past t = a/3 these are fewer than the
    cliques of the Rips graph, some of whose triangles wrap round."""
    x = np.asarray(points, dtype=float).reshape(-1)
    offsets = np.mod(x[None, :] - x[:, None], a)
    m = ((offsets > 0) & (offsets < t)).sum(axis=1).tolist()
    return [sum(math.comb(mi, k - 1) for mi in m)
            for k in range(1, max_size + 1)]


def rescan_strong_collapse(adj_bool: np.ndarray) -> np.ndarray:
    """Strong collapse by full rescans: every live vertex is checked in each
    pass until a pass removes nothing.  Returns the core's vertex indices."""
    n = adj_bool.shape[0]
    closed = [m | 1 << v for v, m in enumerate(bitsets(adj_bool))]
    alive_mask = (1 << n) - 1
    changed = True
    while changed:
        changed = False
        scan = alive_mask
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            nb_v = closed[v]
            cand = nb_v & ~(1 << v)  # a dominator must be a live neighbor
            while cand:
                u = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                if nb_v & ~closed[u] == 0:
                    alive_mask &= ~(1 << v)
                    bit = ~(1 << v)
                    nbs = nb_v & alive_mask
                    while nbs:
                        w = (nbs & -nbs).bit_length() - 1
                        nbs &= nbs - 1
                        closed[w] &= bit
                    changed = True
                    break
    core = [v for v in range(n) if alive_mask >> v & 1]
    return np.array(core, dtype=np.int64)


def rescan_edge_collapse(neigh: list[int]) -> bool:
    """Edge collapse by full rescans: in each pass every edge uv (u < v) is
    tested in lexicographic order against its common neighbours w one by
    one, lowest first, and deleted in place when N[u] & N[v] lies in N[w];
    passes run until one deletes nothing.  Returns whether any edge went."""
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


def dropping_edge_collapse(collapse_edges):
    """An edge collapse that runs ``collapse_edges`` and, once that removes
    nothing, deletes one more edge and returns False.  No edge is dominated
    then, so the deletion changes the homotopy type of the clique complex:
    a fault for the homology checks to catch."""
    def dropping(neigh: list[int]) -> bool:
        if collapse_edges(neigh):
            return True
        u = next((v for v, nb in enumerate(neigh) if nb), None)
        if u is not None:
            w = (neigh[u] & -neigh[u]).bit_length() - 1
            neigh[u] ^= 1 << w
            neigh[w] ^= 1 << u
        return False
    return dropping


def empirical_tail(values, thresholds):
    """Upper-tail estimates P_hat(X >= y) with binomial standard errors."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    out = []
    n = arr.size
    for y in thresholds:
        p = float(np.mean(arr >= y))
        se = math.sqrt(p * (1.0 - p) / n)
        out.append((float(y), p, se))
    return out


def slot_partition_weights(n: int, k: int) -> dict:
    """Overlap-signature weights of n (k-1)-simplices by listing every slot
    partition.

    The n*k vertex slots (simplex i, position j) are split into blocks with
    at most one slot of each simplex; a partition counts when every simplex
    has a slot in a block of two or more.  Returns {(shared, M): weight},
    where ``shared`` is the sorted tuple of (simplices of a block, number
    of such blocks) over blocks of two or more, M the number of blocks and
    weight the number of partitions over (k!)^n.
    """
    slots = [(i, j) for i in range(n) for j in range(k)]
    tally = Counter()
    blocks: list[list[int]] = []  # each block as its list of simplex indices

    def place(pos: int) -> None:
        if pos == len(slots):
            shared = Counter(tuple(b) for b in blocks if len(b) > 1)
            if len({i for t in shared for i in t}) == n:
                tally[(tuple(sorted(shared.items())), len(blocks))] += 1
            return
        simplex = slots[pos][0]
        for block in blocks:
            if simplex not in block:
                block.append(simplex)
                place(pos + 1)
                block.pop()
        blocks.append([simplex])
        place(pos + 1)
        blocks.pop()

    place(0)
    return {key: Fraction(count, math.factorial(k) ** n)
            for key, count in tally.items()}


def bell_exponential(n: int, x: float) -> float:
    """Dobinski-style evaluation B_n(x) = e^{-x} sum_k x^k k^n / k!, a
    reference for the exact-coefficient ``moments.bell_polynomial``."""
    total = 0.0
    term_count = max(40, int(abs(x)) * 4 + 40)
    for k in range(term_count):
        total += x ** k * k ** n / math.factorial(k)
    return math.exp(-x) * total


def chi_alternating_series(params) -> Fraction:
    """E[chi] as the alternating series sum_k (-1)^(k+1) E[N_k] over the
    Poisson mean simplex counts lam a^d x^(k-1) k^d / k!, in exact
    rationals, a reference for the Bell form of ``moments.mean_chi``.

    Once the terms decrease, the alternating series is off by less than the
    next term, so the sum stops when a decreasing term falls below 2^-60 of
    the partial sum."""
    d, lam = params.spec.d, Fraction(params.lam)
    x = lam * (2 * Fraction(params.epsilon)) ** d
    scale = lam * Fraction(params.spec.a) ** d
    total, last, k = Fraction(0), math.inf, 0
    while True:
        k += 1
        term = scale * x ** (k - 1) * k ** d / math.factorial(k)
        total += term if k % 2 else -term
        if term < last and term * 2 ** 60 < abs(total):
            return total
        last = term


def chi_binomial_alternating_sum(spec, epsilon: float, n: int) -> Fraction:
    """E[chi] for n uniform points as the alternating sum over k of the
    Binomial mean simplex counts C(n, k) k^d p^(k-1), p = (2 epsilon/a)^d,
    in exact rationals, with p the d-th power of the float 2 epsilon/a.

    With p = P/Q, Horner's rule on sum_k c_k P^(k-1) Q^(n-k) keeps every
    step in integers, and the sum is that over Q^(n-1)."""
    p = Fraction(2.0 * epsilon / spec.a) ** spec.d
    acc, q_power = 0, 1
    for k in range(n, 0, -1):
        acc = acc * p.numerator + ((-1) ** (k + 1) * math.comb(n, k)
                                   * k ** spec.d * q_power)
        q_power *= p.denominator
    return Fraction(acc * p.denominator, q_power)


def count_in_box(config, corner, sides) -> int:
    """Number of points in a wrap-aware axis-aligned box.

    The box starts at ``corner`` (componentwise in [0, a)) and extends by
    ``sides`` (componentwise in (0, a]) in the positive direction, wrapping
    around the torus where needed.
    """
    spec = config.spec
    corner = np.asarray(corner, dtype=float)
    sides = np.asarray(sides, dtype=float)
    if corner.shape != (spec.d,) or sides.shape != (spec.d,):
        raise ValueError(f"corner and sides must have {spec.d} components")
    if np.any(sides <= 0) or np.any(sides > spec.a):
        raise ValueError(f"box side lengths must lie in (0, {spec.a}]")
    if config.n == 0:
        return 0
    rel = np.mod(config.points - corner, spec.a)
    inside = np.all(rel < sides, axis=1)
    return int(inside.sum())


def wrap_coords(x, a: float):
    """Reduce coordinates into the canonical cell [0, a)."""
    x = np.asarray(x, dtype=float)
    out = np.mod(x, a)
    # mod can return a itself for tiny negative inputs; fold those back
    out = np.where(out >= a, out - a, out)
    return out


def toroidal_coordinate_distance(x: float, y: float, a: float) -> float:
    """Wrap-around distance between two scalars on a circle of length ``a``.

    Both inputs must already lie in [0, a).  The result is in [0, a/2].
    """
    if a <= 0:
        raise ValueError(f"side length must be positive, got {a}")
    if not (0 <= x < a) or not (0 <= y < a):
        raise ValueError(f"coordinates must lie in [0, {a}): got {x}, {y}")
    diff = abs(x - y)
    return min(diff, a - diff)


def full_dimension_overlap_integral(pattern, spec, epsilon: float,
                                    samples: int, rng) -> tuple[float, float]:
    """Plain Monte Carlo of an overlap integral over all M*d coordinates of
    [0, a)^{M*d}, with no use of the max-norm factorisation: a reference for
    ``joracle.j_oracle_mc``, which samples the circle and takes the d-th
    power.  Returns (value, standard error)."""
    M, d, a = pattern.total_vertices, spec.d, spec.a
    pts = rng.random((samples, M, d)) * a
    ok = np.ones(samples, dtype=bool)
    for verts in pattern.vertex_lists():
        for u, v in combinations(verts, 2):
            gap = np.abs(np.mod(pts[:, u] - pts[:, v] + a / 2, a) - a / 2)
            ok &= gap.max(axis=1) < 2.0 * epsilon
    volume = a ** (M * d)
    p = ok.mean()
    return volume * p, volume * math.sqrt(p * (1.0 - p) / samples)
