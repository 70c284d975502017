"""Rips-Vietoris complexes of point configurations on the flat torus.

A Rips-Vietoris complex is the clique (flag) complex of a proximity graph,
so it is fully determined by pairwise distances.  The graph is found by a
sort-and-sweep neighbour search along the first coordinate, which drops
candidate pairs one further coordinate at a time before the exact distance
test, without the dense (n, n, d) distance tensor, in runs of at most
``_RUN_PAIRS`` candidates, so that its memory is bounded by that budget
plus the edges; one sweep also finds the edges of a whole block of
configurations.  The edges are packed once into neighbour bitsets (see
``cliques``), which a complex keeps and every walker reads; the (n, n)
boolean matrix of ``adjacency_matrix`` is only a way in, built nowhere
else.  ``simplex_counts`` counts a complex's simplices by a clique walk;
``build_complex`` counts only its vertices and edges and keeps its graph,
from which homology (see ``homology``) lists only the cliques of a
collapsed core.  Neither stores a list of simplices.
Two threshold conventions are supported:

* ``RIPS_HALF_OPEN_2EPS``: vertices are adjacent when their distance is
  strictly below 2*epsilon.  With the max-norm metric this is the complex
  whose k-simplex indicator is the product of half-open pairwise indicators;
  it matches the closed-form moment formulas.
* ``SUBCOMPLEX_EPS``: vertices are adjacent when their distance is at most
  epsilon.  This is the convention used for counting embedded subgraphs.

For homology to reflect the underlying continuous coverage region the
effective ball radius must stay below a/4 (balls must not wrap around the
torus); builders enforce this in homology mode and warn otherwise.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from .cliques import count_cliques, neighbour_bitsets
from .sampling import PointConfiguration
# pairwise_distances is not called here; perfbench's import-site test
# expects this module to hold it.
from .torus import Metric, TorusSpec, pairwise_distances, torus_distance  # noqa: F401


class Convention(Enum):
    RIPS_HALF_OPEN_2EPS = "rips_half_open_2eps"
    SUBCOMPLEX_EPS = "subcomplex_eps"


@dataclass(frozen=True)
class ComplexParams:
    epsilon: float
    metric: Metric = Metric.MAX_NORM
    convention: Convention = Convention.RIPS_HALF_OPEN_2EPS

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def ball_radius(self) -> float:
        """Effective covering-ball radius implied by the convention."""
        if self.convention is Convention.RIPS_HALF_OPEN_2EPS:
            return self.epsilon
        return self.epsilon / 2.0

    def threshold(self) -> float:
        if self.convention is Convention.RIPS_HALF_OPEN_2EPS:
            return 2.0 * self.epsilon
        return self.epsilon

    def adjacent(self, dist: float) -> bool:
        if self.convention is Convention.RIPS_HALF_OPEN_2EPS:
            return dist < 2.0 * self.epsilon
        return dist <= self.epsilon


@dataclass
class GeometricComplex:
    counts: np.ndarray            # counts[i] = N_{i+1}, the number of i-simplices
    truncated: bool = False       # always; see cliques.count_cliques
    neighbours: list[int] | None = field(default=None, repr=False)

    def N(self, k: int) -> int:
        """Number of (k-1)-simplices (k-vertex cliques)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k - 1 >= len(self.counts):
            return 0
        return int(self.counts[k - 1])

    def to_json(self) -> dict:
        return {"N": [int(c) for c in self.counts]}


def threshold_edges(points: np.ndarray, a: float, params: ComplexParams,
                    starts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Edges (u, v) of the threshold graphs of one or more configurations.

    ``points`` holds the configurations one after another: configuration s
    is rows ``starts[s]:starts[s + 1]`` (default: one configuration), and an
    edge never joins two configurations.  Points are sorted by their first
    coordinate, each configuration shifted by 4a times its first row so that
    the configurations stay apart, and a periodic forward sweep yields every
    pair whose first coordinates lie within the threshold on the circle.
    Coordinate by coordinate from the second, the candidates whose wrapped
    difference fails the threshold are dropped, since no distance of theirs
    can pass it.  The survivors are tested with the elementwise formula of
    ``torus.pairwise_distances``, so the edges are those of the thresholded
    dense distance matrix bit for bit.  The sorted points are filtered in
    consecutive runs of at most ``_RUN_PAIRS`` candidate pairs, so memory
    grows with that budget plus the edges, not with n^2 * d.  Every edge is
    listed once, and the edges come grouped by configuration, in order.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    starts = np.array((0, n)) if starts is None else np.asarray(starts)
    sizes = starts[1:] - starts[:-1]
    # the first row and the size of each row's configuration
    lo = starts[:-1].repeat(sizes)
    span = sizes.repeat(sizes)
    x = pts[:, 0] + lo * (4.0 * a)
    # sorting keeps each configuration's rows in place
    order = x.argsort(kind="stable")
    x = x[order]
    # Sorted point i sits at base[i] in ``doubled`` and its copy at hi[i]:
    # each configuration followed by its copy shifted by a, in turn.
    # ``back`` maps a place in ``doubled`` to the row of ``points``.
    base = np.arange(n) + lo
    hi = base + span
    doubled = np.empty(2 * n)
    doubled[base] = x
    doubled[hi] = x + a
    back = np.empty(2 * n, dtype=np.intp)
    back[base] = order
    back[hi] = order
    t = params.threshold()
    # A few ulps of slack keep the rounding of x + reach, x + a and the
    # shifts from dropping a true neighbour; the exact test removes the
    # extras.
    reach = t + 8 * math.ulp(4.0 * a * n + t)
    ends = doubled.searchsorted(x + reach, side="right")
    # The candidates of sorted point i are the places base[i] + 1 .. end - 1
    # of ``doubled``, which wrap round its configuration: at most
    # span[i] - 1 of them, so no point pairs with itself.
    counts = np.minimum(ends - base, span) - 1
    # a point with more than _RUN_PAIRS candidates is a run alone
    done = counts.cumsum()
    first, runs = 0, []
    while first < n:
        last = max(first + 1, int(done.searchsorted(
            done[first] - counts[first] + _RUN_PAIRS, side="right")))
        runs.append(_run_edges(pts, a, params, order[first:last],
                               back, base[first:last], counts[first:last]))
        first = last
    i, j = (np.concatenate(e) for e in zip(*runs)) if len(runs) > 1 else runs[0]
    if 2.0 * reach >= a:
        # only a sweep reaching half way round can meet a pair from both ends
        i, j = np.minimum(i, j), np.maximum(i, j)
        pair = np.unique(i * n + j)
        i, j = pair // n, pair % n
    return i, j


# The most candidate pairs threshold_edges filters at once; it holds a few
# arrays of 8 bytes a candidate, about 2.5 MB at 2^16.  A block of
# harness._blocks has at most _BLOCK_CELLS = 2^16 cells, which bound its
# candidates, so it is swept in one run, as before.  At d = 2 (max-norm,
# 2-core machine), budgets of 2^14 to 2^17 swept n = 20099 at eps = 0.01 in
# 110-145 ms and n = 10^5 at eps = 0.0025 in 0.5-0.7 s, against 309 ms for
# one run over the 8e6 candidates of the former; 2^16 was among the fastest.
_RUN_PAIRS = 1 << 16


def _run_edges(pts, a, params, rows, back, base, counts):
    """The edges among the candidates of one run of sorted points: row
    ``rows[k]`` of ``pts`` against the ``counts[k]`` places of ``back``
    after ``base[k]``, in that order."""
    t = params.threshold()
    i = rows.repeat(counts)
    j = back[np.arange(1, i.size + 1)
             + (base - counts.cumsum() + counts).repeat(counts)]
    within = (np.less if params.convention is Convention.RIPS_HALF_OPEN_2EPS
              else np.less_equal)
    # A pair whose wrapped difference in one coordinate fails the threshold
    # fails the exact test: the max-norm is at least that difference, and so
    # is a rounded Euclidean norm, sqrt(fl(w * w) + non-negatives) >= w, once
    # w * w is a normal float (hence the floor, which only keeps more).
    bound = max(t, 2.0 ** -500)
    for q in range(1, pts.shape[1]):
        col = pts[:, q]
        w = np.abs(col[i] - col[j])
        np.minimum(w, a - w, out=w)
        keep = np.flatnonzero(within(w, bound))
        i, j = i.take(keep), j.take(keep)
    wrapped = np.abs(pts[i] - pts[j])
    np.minimum(wrapped, a - wrapped, out=wrapped)
    if params.metric is Metric.MAX_NORM:
        # column by column: a maximum is exact in any order, and this is
        # much faster than a reduction along the short rows
        dist = functools.reduce(np.maximum, wrapped.T)
    else:
        dist = np.sqrt((wrapped ** 2).sum(axis=1))
    keep = within(dist, t)
    return i[keep], j[keep]


def adjacency_matrix(config: PointConfiguration, params: ComplexParams) -> np.ndarray:
    """Boolean threshold-graph adjacency (no self loops), from
    ``threshold_edges`` of the one configuration."""
    n = config.n
    adj = np.zeros((n, n), dtype=bool)
    u, v = threshold_edges(config.points, config.spec.a, params)
    adj[u, v] = True
    adj[v, u] = True
    return adj


def _check_radius(spec: TorusSpec, params: ComplexParams,
                  homology_mode: bool) -> None:
    limit = spec.a / 4.0
    if params.ball_radius >= limit:
        msg = (f"ball radius {params.ball_radius} >= a/4 = {limit}; "
               f"homology may not reflect the continuous coverage region")
        if homology_mode:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=3)


def simplex_counts(config: PointConfiguration, params: ComplexParams,
                   max_dim: int | None = None) -> GeometricComplex:
    """Count simplices up to ``max_dim`` (default: all) without storing them;
    raises ``cliques.SimplexCapExceeded`` past ``DEFAULT_SIMPLEX_CAP``."""
    if max_dim is not None and max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    _check_radius(config.spec, params, homology_mode=False)
    max_size = None if max_dim is None else max_dim + 1
    u, v = threshold_edges(config.points, config.spec.a, params)
    counts, _ = count_cliques(neighbour_bitsets(u, v, config.n), max_size=max_size)
    return GeometricComplex(counts=counts[1:])  # drop the size-0 slot


def build_complex(config: PointConfiguration, params: ComplexParams,
                  homology_mode: bool = False) -> GeometricComplex:
    """The neighbour bitsets of the graph, from which
    ``homology.homology_summary`` works, with N_1 and N_2 (the counts of
    ``simplex_counts(config, params, max_dim=1)``, found without a clique
    walk)."""
    _check_radius(config.spec, params, homology_mode)
    u, v = threshold_edges(config.points, config.spec.a, params)
    n, edges = config.n, len(u)
    # trimmed after the largest nonzero size, as by ``count_cliques``
    counts = np.array([n, edges][:bool(n) + bool(edges)], dtype=np.int64)
    return GeometricComplex(counts=counts, neighbours=neighbour_bitsets(u, v, n))


def phi_k(points: np.ndarray, params: ComplexParams, spec: TorusSpec) -> int:
    """Indicator that a tuple of points spans a simplex (all pairs adjacent)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.d:
        raise ValueError(f"expected shape (k, {spec.d}), got {pts.shape}")
    for i, j in combinations(range(pts.shape[0]), 2):
        if not params.adjacent(torus_distance(pts[i], pts[j], spec, params.metric)):
            return 0
    return 1

