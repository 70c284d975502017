"""Rips-Vietoris complexes of point configurations on the flat torus.

A Rips-Vietoris complex is the clique (flag) complex of a proximity graph,
so it is fully determined by pairwise distances.  The graph is found by a
fixed-radius neighbour search in cells: where the window of the first
coordinate is wide, the points are put in cells at least the threshold
wide in the other coordinates, and each point is searched against its own
cell and its neighbouring cells by windows of its first coordinate
(otherwise one cell holds a whole configuration, and the search is a sweep
of the first coordinate).  Candidate pairs are dropped one further
coordinate at a time before the exact distance test, without the dense
(n, n, d) distance tensor, in runs of at most ``_RUN_PAIRS`` candidates, so
that the cost grows with n times the degree and memory with that budget
plus the edges; one search also finds the edges of a whole block of
configurations.  The edges are packed once, by one routine, into rows of
64-bit words (see ``cliques``): neighbour bitsets, which a complex keeps and
every walker reads, or the later-neighbour rows of the triangle join; the
(n, n) boolean matrix of ``adjacency_matrix`` is only a way in, built nowhere
else.  Neither ``simplex_counts`` nor ``build_complex`` stores a list of
simplices; homology (see ``homology``) lists at most the cliques of a
collapsed core.  Under the max-norm at d <= 2 with 3t < a (``windowed``), a
clique is a set that fits in a window of length t in each coordinate, and
``window_chi`` gets the Euler characteristic of a whole block from its edges
alone, by counting each clique at its anchors (its first point in each
coordinate), with no clique walk: each edge is oriented by the sign of the
wrapped difference that the search tests, ties going to the larger row.  On
the circle (d = 1) there, the cliques anchored at a point i are i and any
subset of its m_i neighbours after it, so every clique count of a block,
N_k = sum_i C(m_i, k - 1), comes from the same oriented edges
(``cliques.anchored_counts``), with no bitsets, walk or join; and
``circle_covered`` tells from a sort of each configuration's coordinates
whether every circular gap passes the threshold, which with chi gives every
Betti number (see ``harness``);
``homology.collapsed_homology`` and the ``homology`` command always run the
collapse.

``sweeps`` and ``graphs`` are the one way from point arrays to graphs for
``harness``, ``homology.collapsed_homology``, ``simplex_counts`` and the
``subcount`` command, and the one place where a route is chosen: a caller
names what it needs (the bitsets, chi, the Betti numbers' inputs, the clique
counts up to a size) and ``sweeps`` picks how each is found, from one
neighbour search of a block of configurations.  Counts found with no walk
(the join's N_3, the circle's anchored N_k) are capped at
``DEFAULT_SIMPLEX_CAP`` where the walk would cap them, with its message.

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

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

# count_cliques and pairwise_distances are not called here; perfbench's
# import-site test expects this module to hold them.
from .cliques import (_trimmed, anchored_counts, check_cap,  # noqa: F401
                      chi_from_bitsets, count_cliques, counts_from_bitsets,
                      neighbour_bitsets, triangle_counts)
from .sampling import PointConfiguration
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
    edge never joins two configurations.  Each configuration's points are
    put in m^(d - 1) cells of side a/m in the coordinates after the first,
    wider than the threshold t (a cell index is floor(y m / a), clamped into
    [0, m - 1]), so that a pair within t lies in one cell or in two
    neighbouring ones; ``_cells_per_axis`` picks m, which is 1 (a cell per
    configuration) at d = 1 or where the first coordinate's windows are
    narrow.  The points are sorted by configuration, cell and first
    coordinate (each cell shifted by 4a times its first row, so that the
    cells stay apart), and each cell is followed by its copy shifted by a
    in one doubled array.  A point's candidates are its periodic forward
    window of the first coordinate in its own cell, and its two-sided window
    in each neighbouring cell that comes after its own in lexicographic
    order of the offsets, each found by ``searchsorted`` on the doubled
    array; so each pair within t on the circle of the first coordinate, in
    the same or neighbouring cells, is a candidate once.  Coordinate by
    coordinate from the second, the candidates whose wrapped difference
    fails the threshold are dropped, since no distance of theirs can pass
    it.  The survivors are tested with the elementwise formula of
    ``torus.pairwise_distances`` (under the max-norm, that filter run on the
    first coordinate too), so the edges are those of the thresholded dense
    distance matrix bit for bit.  The candidates are filtered point by point
    in consecutive runs of at most ``_RUN_PAIRS`` pairs, so memory grows
    with that budget plus the edges, not with n^2 * d.  Every edge is listed
    once, and the edges come grouped by configuration, in order.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    starts = np.array((0, n)) if starts is None else np.asarray(starts)
    sizes = starts[1:] - starts[:-1]
    t = params.threshold()
    # A few ulps of slack keep the rounding of x + reach, x + a, the shifts
    # and the cell indices from dropping a true neighbour; the exact test
    # removes the extras.
    reach = t + 8 * math.ulp(4.0 * a * n + t)
    m = _cells_per_axis(d, a, t, reach, n, sizes)
    if m == 1:
        # one cell per configuration: its first row and size, for each row
        lo = starts[:-1].repeat(sizes)
        span = sizes.repeat(sizes)
    else:
        key = _cell_keys(pts, a, m, sizes)
        cell_size = np.bincount(key, minlength=sizes.size * m ** (d - 1))
        cell_lo = cell_size.cumsum() - cell_size
        lo, span = cell_lo[key], cell_size[key]
    x = pts[:, 0] + lo * (4.0 * a)
    # the shifts keep each cell's rows together in any sort order
    order = x.argsort()
    x = x[order]
    if m > 1:
        lo, span = lo[order], span[order]
    # Sorted point i sits at base[i] in ``doubled`` and its copy at hi[i]:
    # each cell followed by its copy shifted by a, in turn.  ``back`` maps a
    # place in ``doubled`` to the row of ``points``.
    base = np.arange(n) + lo
    hi = base + span
    doubled = np.empty(2 * n)
    doubled[base] = x
    doubled[hi] = x + a
    back = np.empty(2 * n, dtype=np.intp)
    back[base] = order
    back[hi] = order
    ends = doubled.searchsorted(x + reach, side="right")
    # The candidates of sorted point i in its own cell are the places
    # base[i] + 1 .. end - 1 of ``doubled``, which wrap round the cell: at
    # most span[i] - 1 of them, so no point pairs with itself.
    counts = np.minimum(ends - base, span) - 1
    rows = order
    if m > 1:
        base, counts = _cell_windows(pts[order, 0], key[order], a, reach, m, d,
                                     cell_lo, cell_size, doubled, base, counts)
        rows = order.repeat(base.size // n)
    runs = [_run_edges(pts, a, params, rows[first:last], back,
                       base[first:last], counts[first:last])
            for first, last in _runs(counts)]
    i, j = (np.concatenate(e) for e in zip(*runs)) if len(runs) > 1 else runs[0]
    if 2.0 * reach >= a:
        # only a sweep reaching half way round can meet a pair from both ends
        i, j = np.minimum(i, j), np.maximum(i, j)
        pair = np.unique(i * n + j)
        i, j = pair // n, pair % n
    return i, j


# The most candidate pairs threshold_edges filters at once; it holds a few
# arrays of 8 bytes a candidate, about 2.5 MB at 2^16.  A block of _blocks
# that packs bitsets has at most _BLOCK_CELLS = 2^16 cells of points x
# largest configuration, which bound its candidates, so it is swept in one
# run; one that packs none has up to 2^16 points, swept in as many runs as
# its candidates need.  At d = 2 (max-norm, 2-core machine), budgets of
# 2^14 to 2^17 swept n = 20099 at eps = 0.01 in 110-145 ms and n = 10^5 at
# eps = 0.0025 in 0.5-0.7 s, against 309 ms for one run over the 8e6
# candidates of the former; 2^16 was among the fastest.
_RUN_PAIRS = 1 << 16


# threshold_edges puts the points in cells of the coordinates after the
# first when the mean window of the first coordinate, sum n_s^2 t / (a n)
# over the configurations s of a block of n points, reaches _CELL_WINDOW
# points; below it, one cell per configuration is faster, since the cells'
# bookkeeping (a sort key, and up to (3^(d-1) + 1) / 2 window searches a
# point) costs more than the candidates it saves.  Measured on one
# configuration (max-norm, 2-core machine): at d = 3 with n = 1600 and 6400,
# cells were slower at windows of 30 points and faster from 40; at d = 2
# they were faster from 20, but at n = 400 only from 60.  The benchmark's
# homology, patterns and replicate workloads have windows of 17.5, 10 and 5
# points, its coverage graphs 80 and 200.
_CELL_WINDOW = 40


def _cells_per_axis(d: int, a: float, t: float, reach: float, n: int,
                    sizes: np.ndarray) -> int:
    """The number m of cells per coordinate after the first for
    ``threshold_edges`` on a block of n points in configurations of
    ``sizes``: 1 (one cell per configuration) at d = 1 or below
    ``_CELL_WINDOW``, else the most cells wider than ``reach`` with at most
    one cell per point, if that is at least 3, else 1."""
    # the mean window is at most n t / a, which rules out most small blocks
    # without the sum of squares
    if (d == 1 or n * t < _CELL_WINDOW * a
            or (sizes * sizes).sum() * t < _CELL_WINDOW * a * n):
        return 1
    m = min(int(a / (reach * (1.0 + 2.0 ** -40))),
            int((n / sizes.size) ** (1.0 / (d - 1))))
    # at m = 2 the cells on either side of a cell are one and the same
    return m if m >= 3 else 1


def _cell_keys(pts: np.ndarray, a: float, m: int, sizes: np.ndarray) -> np.ndarray:
    """The cell of each row: its configuration, then its cells in the
    coordinates after the first, the index floor(x m / a) clamped into
    [0, m - 1], in lexicographic order."""
    d = pts.shape[1]
    cells = (pts[:, 1:] * (m / a)).astype(np.intp)
    np.clip(cells, 0, m - 1, out=cells)
    key = np.arange(sizes.size).repeat(sizes) * m ** (d - 1)
    for q in range(d - 1):
        key += cells[:, q] * m ** (d - 2 - q)
    return key


def _cell_windows(x0, key, a, reach, m, d, cell_lo, cell_size, doubled,
                  base, counts):
    """The candidate windows of the sorted points, point by point: its own
    cell's forward window (``base``, ``counts``), then the two-sided window
    of the first coordinate in each neighbour cell that comes after its own
    in lexicographic order of the offsets, so each pair of neighbouring cells
    is searched once.  ``x0`` is the first coordinate of each sorted point
    and ``key`` its cell; a point with x0 < reach searches a window shifted by
    +a, which is contiguous in ``doubled``.  Each window is returned as the
    place before it in ``doubled`` and its length."""
    wrap = np.where(x0 < reach, a, 0.0)
    offsets = [step for step in product((-1, 0, 1), repeat=d - 1)
               if step > (0,) * (d - 1)]
    bases = np.empty((key.size, len(offsets) + 1), dtype=np.intp)
    lengths = np.empty_like(bases)
    bases[:, 0], lengths[:, 0] = base, counts
    # each point's configuration, and its cell index on each axis after a
    # step of -1, 0 or +1, each times its axis's weight in the key
    weights = [m ** (d - 2 - q) for q in range(d - 1)]
    config = key - key % m ** (d - 1)
    moved = [{step: (key // w + step) % m * w for step in (-1, 0, 1)}
             for w in weights]
    for k, offset in enumerate(offsets, 1):
        cell = config + sum(moved[q][step] for q, step in enumerate(offset))
        # the same rounding as the sorted points and their copies
        x = x0 + cell_lo[cell] * (4.0 * a) + wrap
        left = doubled.searchsorted(x - reach, side="left")
        right = doubled.searchsorted(x + reach, side="right")
        bases[:, k] = left - 1
        # an empty cell's place is that of the next cell, which is not its
        right -= left
        right[cell_size[cell] == 0] = 0
        lengths[:, k] = right
    return bases.ravel(), lengths.ravel()


def _runs(counts: np.ndarray):
    """The runs of consecutive items, as slices (first, last), whose
    ``counts`` sum to at most ``_RUN_PAIRS``; an item with more is a run
    alone."""
    done = counts.cumsum()
    first = 0
    while first < counts.size:
        last = max(first + 1, int(done.searchsorted(
            done[first] - counts[first] + _RUN_PAIRS, side="right")))
        yield first, last
        first = last


def _run_edges(pts, a, params, rows, back, base, counts):
    """The edges among the candidates of one run of sorted points: row
    ``rows[k]`` of ``pts`` against the ``counts[k]`` places of ``back``
    after ``base[k]``, in that order."""
    t = params.threshold()
    i = rows.repeat(counts)
    j = back[np.arange(1, i.size + 1)
             + (base - counts.cumsum() + counts).repeat(counts)]
    within = _within(params)
    max_norm = params.metric is Metric.MAX_NORM
    # A pair whose wrapped difference in one coordinate fails the threshold
    # fails the exact test: the max-norm is at least that difference, and so
    # is a rounded Euclidean norm, sqrt(fl(w * w) + non-negatives) >= w, once
    # w * w is a normal float (hence the floor, which only keeps more).  The
    # max-norm passes exactly when every coordinate does, so there the
    # filter is the exact test of its coordinates.
    bound = t if max_norm else max(t, 2.0 ** -500)
    coords = list(range(1, pts.shape[1]))
    if max_norm:
        coords.append(0)  # the windows have a few ulps of slack
    for q in coords:
        col = pts[:, q]
        w = np.abs(col[i] - col[j])
        np.minimum(w, a - w, out=w)
        keep = np.flatnonzero(within(w, bound))
        i, j = i.take(keep), j.take(keep)
    if max_norm:
        return i, j
    wrapped = np.abs(pts[i] - pts[j])
    np.minimum(wrapped, a - wrapped, out=wrapped)
    keep = within(np.sqrt((wrapped ** 2).sum(axis=1)), t)
    return i[keep], j[keep]


def _within(params: ComplexParams):
    """The convention's test of a distance against the threshold, as a
    ufunc: ``np.less`` or ``np.less_equal``."""
    return (np.less if params.convention is Convention.RIPS_HALF_OPEN_2EPS
            else np.less_equal)


def windowed(d: int, a: float, params: ComplexParams) -> bool:
    """Whether ``window_chi`` applies: the max-norm at d <= 2 with 3t < a."""
    return (params.metric is Metric.MAX_NORM and d <= 2
            and 3.0 * params.threshold() < a)


def window_chi(points: np.ndarray, a: float, params: ComplexParams,
               starts: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Euler characteristic of each configuration of a block, from the
    edges (u, v) that ``threshold_edges(points, a, params, starts)`` found,
    with no clique walk; raises ``ValueError`` outside ``windowed``.

    There, a set of points is a clique exactly when it fits, in each
    coordinate, in a window of length t (Helly's theorem on the circle,
    which needs 3t < a), so it has one anchor per coordinate, its first
    point.  Point k lies after its neighbour i in a coordinate when the
    wrapped difference that ``threshold_edges`` tests, taken from i to k,
    is positive, or zero and k > i.  Summing (-1)^(|C| - 1) over the
    cliques C by their anchors:

    * the cliques anchored at i in every coordinate are i and any subset of
      the neighbours after i in every coordinate, which lie in one box and
      so form a clique: they sum to 1 if there is none, else 0;
    * at d = 2, those anchored at i in the first coordinate and at j != i
      in the second contain the edge ij, oppositely oriented (j after i in
      the first, i after j in the second), and any subset of the common
      neighbours k after i in the first and after j in the second: they sum
      to -1 if there is none, else 0.

    The second sum pairs each opposite edge ij with the arcs i -> k of the
    first coordinate and looks each (j, k) up among the arcs of the second,
    in runs of at most ``_RUN_PAIRS`` pairs, so that memory grows with the
    edges, not with edges x degree.  Adjacency is read from the edges only.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if not windowed(d, a, params):
        raise ValueError("window_chi needs the max-norm, d <= 2 and 3t < a")
    sizes = np.diff(starts)
    seg = np.repeat(np.arange(sizes.size), sizes)
    # The arc of each edge in each coordinate, tail -> head.  Few boolean
    # temporaries are alive at once: numpy keeps up to 7 freed buffers of
    # each size under 1 KB, and a block's sizes vary.
    tail, head = _arcs(pts[:, 0], a, u, v)
    alone = np.ones(n, dtype=bool)  # no neighbour after it in every coordinate
    if d == 1:
        alone[tail] = False
        return np.bincount(seg[alone], minlength=sizes.size)
    tail2, head2 = _arcs(pts[:, 1], a, u, v)
    same = tail == tail2
    alone[tail[same]] = False
    chi = np.bincount(seg[alone], minlength=sizes.size)
    # the arcs of the second coordinate, as sorted keys tail * n + head
    keys = tail2 * n
    keys += head2
    keys.sort()
    del tail2, head2
    # the heads of the first coordinate's arcs, grouped by tail
    heads = head[tail.argsort()]
    out = np.bincount(tail, minlength=n)
    # the opposite edges ij, as the arcs i -> j of the first coordinate
    np.logical_not(same, out=same)
    i, j = tail[same], head[same]
    del tail, head, same
    counts = out[i]
    begin = out.cumsum()[i] - counts
    lonely = []
    for first, last in _runs(counts):
        c = counts[first:last]
        edge = np.repeat(np.arange(last - first), c)
        k = heads[np.arange(edge.size) + (begin[first:last] - c.cumsum() + c)[edge]]
        key = j[first:last][edge] * n + k
        shared = edge[keys.take(keys.searchsorted(key), mode="clip") == key]
        lone = np.ones(last - first, dtype=bool)
        lone[shared] = False
        lonely.append(i[first:last][lone])
    if lonely:
        chi -= np.bincount(seg[np.concatenate(lonely)], minlength=sizes.size)
    return chi


def circle_covered(points: np.ndarray, a: float, params: ComplexParams,
                   starts: np.ndarray) -> np.ndarray:
    """Whether each configuration of a block on the circle (d = 1) has a
    point and passes the threshold at every circular gap; raises
    ``ValueError`` outside ``windowed``.

    A configuration's points, sorted by coordinate, leave the gaps
    x_{k+1} - x_k between consecutive points and the wrap gap
    a - (x_last - x_first), each tested with the convention's < or <= as
    the distance test of ``threshold_edges`` tests it.  With 3t < a, the
    Rips complex is a circle when every gap passes, and otherwise a
    disjoint union of contractible pieces, one per failing gap (Adamaszek &
    Adams, "The Vietoris-Rips complexes of a circle", Pacific J. Math. 290,
    2017): its Betti numbers are (1, 1) or (chi,), with chi that of
    ``window_chi``.  The gaps come from a sort, not from the edges, so they
    and chi are found apart: every gap passes exactly when chi = 0 and
    there is a point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] != 1 or not windowed(1, a, params):
        raise ValueError("circle_covered needs d = 1, the max-norm and 3t < a")
    sizes = np.diff(starts)
    seg = np.repeat(np.arange(sizes.size), sizes)
    x = pts[np.lexsort((pts[:, 0], seg)), 0]
    within, t = _within(params), params.threshold()
    full = sizes > 0
    covered = full.copy()
    first, last = starts[:-1][full], starts[1:][full] - 1
    covered[full] = within(a - (x[last] - x[first]), t)
    # the consecutive gaps that fail, each inside one configuration
    fails = ~within(np.diff(x), t)
    fails &= seg[1:] == seg[:-1]
    covered[seg[1:][fails]] = False
    return covered


def _arcs(col: np.ndarray, a: float, u: np.ndarray, v: np.ndarray):
    """Each edge (u[e], v[e]) as an arc (tail, head) whose head lies after
    its tail in the coordinate ``col``: the wrapped difference from tail to
    head is positive, or zero and head > tail.  With w the absolute
    difference, that is the plain difference up to w = a/2 and a - w the
    other way round past it, which is where ``threshold_edges``'s minimum
    takes a - w (fl(a - w) < w exactly when w > a/2)."""
    diff = col[v] - col[u]
    later = diff > 0
    np.abs(diff, out=diff)
    later ^= diff > 0.5 * a
    tie = np.flatnonzero(diff == 0)
    later[tie] = v[tie] > u[tie]
    tail = np.where(later, u, v)
    return tail, u + v - tail


# Configurations are swept in blocks of at most _BLOCK_REPS configurations
# and _BLOCK_CELLS cells.  A block that keeps a row of bits a point (its
# bitsets, or the words of its triangle join) has a cell per (point, largest
# configuration), which bounds those rows (a bit a cell, 8 KB, padded to
# whole 64-bit words); larger such blocks were no faster and raised the
# peak memory of a run.  A block that keeps none has a cell per point, which
# bounds the search's arrays of a few words a point (with one run of
# _RUN_PAIRS candidates, 5 MB traced at 20,000 points, d=2).  A
# configuration too large for a block runs alone.
_BLOCK_REPS = 1024
_BLOCK_CELLS = 1 << 16


def _blocks(draws, rows: bool):
    """The configurations drawn, in order, as lists of point arrays of at
    most ``_BLOCK_REPS`` configurations and ``_BLOCK_CELLS`` cells: points x
    largest configuration if a row of bits is kept a point (``rows``), else
    points; a larger configuration comes alone."""
    block: list[np.ndarray] = []
    total = width = 0
    for pts in draws:
        n = pts.shape[0]
        cells = (total + n) * (max(width, n) if rows else 1)
        if block and (len(block) == _BLOCK_REPS or cells > _BLOCK_CELLS):
            yield block
            block, total, width = [], 0, 0
        block.append(pts)
        total += n
        width = max(width, n)
    if block:
        yield block


class Sweep(NamedTuple):
    """One block of ``sweeps``: per configuration, its point count, edge
    count, chi, gaps' verdict, and clique counts N_2, N_3, ... with their
    total, and per point, its degree and bitset; an item not found is
    None."""
    sizes: np.ndarray
    edges: np.ndarray
    degrees: np.ndarray
    neigh: list[int] | None
    chi: list[int] | None
    covered: list[bool] | None
    counts: list[list[int]] | None
    totals: list[int] | None


class Graph(NamedTuple):
    """One configuration's threshold graph, cut from its ``Sweep``: counts[k]
    is its number of k-cliques, up to the size asked for."""
    n: int
    counts: list[int]
    degrees: np.ndarray
    neigh: list[int] | None
    chi: int | None
    covered: bool | None


def sweeps(draws, spec: TorusSpec, params: ComplexParams, bitsets: bool = False,
           chi: bool = False, betti: bool = False, max_size: int | None = 0):
    """Each block of the configurations drawn on the torus ``spec``
    (``_blocks``), after one neighbour search over the whole block, as a
    ``Sweep`` of what the caller needs and of the route this function picks
    for it, each item else None:

    * the point and edge counts of its configurations and the degree of
      each of its points in order, always;
    * a bitset per point by its configuration's local columns
      (``neighbour_bitsets``), if ``bitsets``, or if a route below needs
      them;
    * with ``chi``, the Euler characteristic of the whole graph of each of
      its configurations: the block's ``window_chi`` where ``windowed``
      holds, else ``chi_from_bitsets`` of each configuration's bitsets;
    * with ``betti``, the inputs of the Betti numbers: on the circle under
      ``windowed``, chi and whether each configuration passes at every
      circular gap (``circle_covered``), with no bitsets; elsewhere, the
      bitsets;
    * with ``max_size`` 3 or more, or None (every size), on the circle under
      ``windowed``, the anchored counts N_k = sum_i C(m_i, k - 1), m_i being
      the number of neighbours after point i by the ``_arcs`` that orient
      ``window_chi`` (``cliques.anchored_counts``), with no bitsets, walk or
      join; the same ``_arcs`` call gives chi (the points with m_i = 0);
    * elsewhere, with ``max_size`` 3, the triangle count of each
      configuration (``cliques.triangle_counts``, from word rows packed as
      the bitsets are); above 3, or None, the bitsets, which ``graphs``
      walks."""
    windows = windowed(spec.d, spec.a, params)
    circle = windows and spec.d == 1
    gaps = betti and circle
    chi = chi or gaps
    anchored = circle and (max_size is None or max_size > 2)
    join = max_size == 3 and not circle
    walk = not circle and (max_size is None or max_size > 3)
    pack = bitsets or (betti and not circle) or (chi and not windows) or walk
    for block in _blocks(draws, pack or join):
        sizes = np.array([pts.shape[0] for pts in block])
        starts = np.concatenate(([0], np.cumsum(sizes)))
        points = np.concatenate(block)
        u, v = threshold_edges(points, spec.a, params, starts)
        degrees = np.bincount(np.concatenate((u, v)), minlength=starts[-1])
        seg = np.repeat(np.arange(len(block)), sizes)
        edges = np.bincount(seg[u], minlength=len(block))
        neigh = chis = covered = counts = totals = None
        if pack or join:
            local = np.arange(starts[-1]) - starts[seg]
        if pack:
            neigh = neighbour_bitsets(u, v, starts[-1], local)
        if join:
            tri = triangle_counts(u, v, local, seg, len(block), _RUN_PAIRS)
            counts = np.stack((edges, tri), axis=1).tolist()
            totals = (sizes + edges + tri).tolist()
        if circle and (chi or anchored):
            later = np.bincount(_arcs(points[:, 0], spec.a, u, v)[0],
                                minlength=starts[-1])
            if chi:
                chis = np.bincount(seg[later == 0], minlength=len(block)).tolist()
            if anchored:
                counts, totals = anchored_counts(later, seg, len(block), max_size)
        elif chi and windows:
            chis = window_chi(points, spec.a, params, starts, u, v).tolist()
        elif chi:
            bounds = starts.tolist()
            chis = [chi_from_bitsets(neigh[first:last])
                    for first, last in zip(bounds, bounds[1:])]
        if gaps:
            covered = circle_covered(points, spec.a, params, starts).tolist()
        yield Sweep(sizes, edges, degrees, neigh, chis, covered, counts, totals)


def graphs(draws, spec: TorusSpec, params: ComplexParams, bitsets: bool = False,
           chi: bool = False, betti: bool = False, max_size: int | None = 0):
    """The threshold graph of each configuration drawn, in order, as a
    ``Graph`` cut from its block's ``sweeps`` (the same requests): its
    point count, clique counts, degree sequence, neighbour bitsets, Euler
    characteristic and gaps' verdict, each else None.

    The counts are [0, n, edges] up to ``max_size`` 2, [0, n, N_2, N_3] at
    3, and n + 1 long above it (every size for None), in the walk's layout:
    from the block's anchored counts or join where it found them, else
    ``counts_from_bitsets(neigh, max_size)`` (n for None), walked as the
    graph is yielded.  They are capped as the walk would be, when the graph
    is yielded: N_1 and N_2 never, found counts by ``check_cap`` of their
    total, and the walk by itself."""
    for block in sweeps(draws, spec, params, bitsets, chi, betti, max_size):
        first, neigh = 0, block.neigh
        nones = [None] * len(block.sizes)
        for n, e, c, cov, found, total in zip(
                block.sizes.tolist(), block.edges.tolist(),
                nones if block.chi is None else block.chi,
                nones if block.covered is None else block.covered,
                nones if block.counts is None else block.counts,
                nones if block.totals is None else block.totals):
            own = None if neigh is None else neigh[first:first + n]
            if found is not None:
                check_cap(total, max_size or n)
                length = 4 if max_size == 3 else n + 1
                counts = ([0, n, *found] + [0] * length)[:length]
            elif max_size is None or max_size > 3:
                counts = counts_from_bitsets(own, max_size or n)
            else:
                counts = [0, n, e]
            yield Graph(n, counts, block.degrees[first:first + n], own, c, cov)
            first += n


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
    """Count simplices up to ``max_dim`` (default: all) without storing them,
    by the routes of ``graphs``; raises ``cliques.SimplexCapExceeded`` when
    they pass ``DEFAULT_SIMPLEX_CAP``, as a walk to them would: ``graphs``
    caps from the triangles up, and up to max_dim = 1 the point and edge
    counts are capped here."""
    if max_dim is not None and max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    _check_radius(config.spec, params, homology_mode=False)
    size = None if max_dim is None else max_dim + 1
    (graph,) = graphs([config.points], config.spec, params, max_size=size)
    if max_dim is None:
        counts = graph.counts[1:]
    else:
        counts = graph.counts[1:size + 1]
        if max_dim < 2:
            check_cap(sum(counts), size)
    return GeometricComplex(counts=_trimmed(counts))


def build_complex(config: PointConfiguration, params: ComplexParams,
                  homology_mode: bool = False) -> GeometricComplex:
    """The neighbour bitsets of the graph, from which
    ``homology.homology_summary`` works, with N_1 and N_2 (the counts of
    ``simplex_counts(config, params, max_dim=1)``, found without a clique
    walk)."""
    _check_radius(config.spec, params, homology_mode)
    u, v = threshold_edges(config.points, config.spec.a, params)
    return GeometricComplex(counts=_trimmed([config.n, len(u)]),
                            neighbours=neighbour_bitsets(u, v, config.n))


def phi_k(points: np.ndarray, params: ComplexParams, spec: TorusSpec) -> int:
    """Indicator that a tuple of points spans a simplex (all pairs adjacent)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.d:
        raise ValueError(f"expected shape (k, {spec.d}), got {pts.shape}")
    for i, j in combinations(range(pts.shape[0]), 2):
        if not params.adjacent(torus_distance(pts[i], pts[j], spec, params.metric)):
            return 0
    return 1

