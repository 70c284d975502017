"""Rips-Vietoris complexes of point configurations on the flat torus.

A Rips-Vietoris complex is the clique (flag) complex of a proximity graph,
so it is fully determined by pairwise distances.  The graph is found by a
sort-and-sweep neighbour search along the first coordinate, without the
dense (n, n, d) distance tensor, and is exchanged as an (n, n) boolean
matrix.  Two threshold conventions are supported:

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

import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from .cliques import count_cliques, enumerate_cliques
from .sampling import PointConfiguration
# pairwise_distances is not called here; perfbench's import-site test
# expects this module to hold it.
from .torus import Metric, TorusSpec, pairwise_distances, torus_distance  # noqa: F401

DEFAULT_SIMPLEX_CAP = 10_000_000


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
    spec: TorusSpec
    params: ComplexParams
    n_vertices: int
    counts: np.ndarray            # counts[i] = N_{i+1}, number of i-simplices... see N_k
    max_dim_built: int
    truncated: bool
    simplices: dict[int, list[tuple[int, ...]]] | None = None
    adjacency: np.ndarray | None = field(default=None, repr=False)

    def N(self, k: int) -> int:
        """Number of (k-1)-simplices (k-vertex cliques)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k - 1 >= len(self.counts):
            return 0
        return int(self.counts[k - 1])

    def euler_characteristic_counts(self) -> int:
        signs = (-1) ** np.arange(len(self.counts))
        return int(np.sum(signs * self.counts))

    def to_json(self) -> dict:
        return {
            "N": [int(c) for c in self.counts],
            "max_dim_built": int(self.max_dim_built),
            "truncated": bool(self.truncated),
        }


def adjacency_matrix(config: PointConfiguration, params: ComplexParams) -> np.ndarray:
    """Boolean threshold-graph adjacency (no self loops).

    Points are sorted by their first coordinate and a periodic forward sweep
    over ``concat(x, x + a)`` yields every pair whose first coordinates lie
    within the threshold on the circle.  Each candidate pair is then tested
    with the elementwise formula of ``torus.pairwise_distances``, so the
    result equals the thresholded dense distance matrix bit for bit while
    memory grows with the number of candidate pairs, not with n^2 * d.
    """
    n = config.n
    adj = np.zeros((n, n), dtype=bool)
    if n < 2:
        return adj
    a = config.spec.a
    t = params.threshold()
    order = np.argsort(config.points[:, 0], kind="stable")
    pts = np.asarray(config.points, dtype=float)[order]
    x = pts[:, 0]
    # A few ulps of slack keep the rounding of x + reach and x + a from
    # dropping a true neighbour; the exact test below removes the extras.
    reach = t + 8 * np.spacing(2.0 * a + t)
    ends = np.searchsorted(np.concatenate((x, x + a)), x + reach, side="right")
    # Candidates of sorted point i are i+1 .. end-1 (mod n): at most n - 1
    # of them, so no point pairs with itself.
    idx = np.arange(n)
    counts = np.minimum(ends, idx + n) - (idx + 1)
    i = np.repeat(idx, counts)
    j = (np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
         + i + 1) % n
    diff = np.abs(pts[i] - pts[j])
    wrapped = np.minimum(diff, a - diff)
    if params.metric is Metric.MAX_NORM:
        dist = wrapped.max(axis=1)
    else:
        dist = np.sqrt((wrapped ** 2).sum(axis=1))
    if params.convention is Convention.RIPS_HALF_OPEN_2EPS:
        keep = dist < t
    else:
        keep = dist <= t
    u, v = order[i[keep]], order[j[keep]]
    adj[u, v] = True
    adj[v, u] = True
    return adj


def _check_radius(config: PointConfiguration, params: ComplexParams,
                  homology_mode: bool) -> None:
    limit = config.spec.a / 4.0
    if params.ball_radius >= limit:
        msg = (f"ball radius {params.ball_radius} >= a/4 = {limit}; "
               f"homology may not reflect the continuous coverage region")
        if homology_mode:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=3)


def simplex_counts(config: PointConfiguration, params: ComplexParams,
                   max_dim: int | None = None,
                   cap: int = DEFAULT_SIMPLEX_CAP,
                   homology_mode: bool = False) -> GeometricComplex:
    """Count simplices of every dimension without storing them."""
    _check_radius(config, params, homology_mode)
    adj = adjacency_matrix(config, params)
    max_size = None if max_dim is None else max_dim + 1
    counts, complete = count_cliques(adj, max_size=max_size, cap=cap)
    counts = counts[1:]  # drop the size-0 slot
    if config.n == 0:
        counts = np.zeros(0, dtype=np.int64)
    max_dim_built = len(counts) - 1
    return GeometricComplex(
        spec=config.spec, params=params, n_vertices=config.n,
        counts=counts, max_dim_built=max_dim_built,
        truncated=not complete, simplices=None, adjacency=adj,
    )


def build_complex(config: PointConfiguration, params: ComplexParams,
                  max_dim: int | None = None,
                  cap: int = DEFAULT_SIMPLEX_CAP,
                  homology_mode: bool = False) -> GeometricComplex:
    """Build the complex with explicit simplex lists up to ``max_dim``.

    Simplices are stored per dimension as lexicographically sorted vertex
    tuples.  If the total simplex count exceeds ``cap`` the result is marked
    truncated.
    """
    _check_radius(config, params, homology_mode)
    return _complex_from_adjacency(config.spec, params,
                                   adjacency_matrix(config, params), max_dim, cap)


def _complex_from_adjacency(spec: TorusSpec, params: ComplexParams,
                            adj: np.ndarray, max_dim: int | None = None,
                            cap: int = DEFAULT_SIMPLEX_CAP) -> GeometricComplex:
    """The clique complex of a built adjacency matrix, as ``build_complex``."""
    n = adj.shape[0]
    max_size = n if max_dim is None else max_dim + 1
    by_size, complete = enumerate_cliques(adj, max_size=max(1, max_size), cap=cap)
    dims = [k - 1 for k in by_size if by_size[k]]
    max_dim_built = max(dims) if dims else -1
    simplices = {k - 1: by_size[k] for k in by_size if by_size[k]}
    counts = np.array([len(simplices.get(i, ())) for i in range(max_dim_built + 1)],
                      dtype=np.int64)
    return GeometricComplex(
        spec=spec, params=params, n_vertices=n,
        counts=counts, max_dim_built=max_dim_built,
        truncated=not complete, simplices=simplices, adjacency=adj,
    )


def phi_k(points: np.ndarray, params: ComplexParams, spec: TorusSpec) -> int:
    """Indicator that a tuple of points spans a simplex (all pairs adjacent)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.d:
        raise ValueError(f"expected shape (k, {spec.d}), got {pts.shape}")
    for i, j in combinations(range(pts.shape[0]), 2):
        if not params.adjacent(torus_distance(pts[i], pts[j], spec, params.metric)):
            return 0
    return 1

