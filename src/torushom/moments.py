"""Closed-form and series moments of simplex counts and Euler characteristic.

All formulas are for the Rips-Vietoris complex of a Poisson (or Binomial)
point process on the flat torus with max-norm balls, using the half-open
pairwise threshold 2*epsilon.  Combinatorial coefficients (Stirling numbers,
the c_n^d variance coefficients, the alpha_n/beta_n series coefficients) are
computed in exact rational arithmetic and converted to float only at final
evaluation, because the alternating factorial sums cancel catastrophically
in floating point.  So each Euler-characteristic moment is computed once,
the mean from its closed form in d terms and the variance from its series
summed exactly to convergence, never as a float alternating sum over k.

Central moments of every order n >= 2 are assembled from overlap patterns,
following the diagram formula for Poisson U-statistics (Peccati & Taqqu,
"Wiener Chaos: Moments, Cumulants and Diagrams", 2011; Reitzner & Schulte,
Ann. Probab. 2013).  Writing N_k as a sum over ordered k-tuples of distinct
points divided by k!, E[(N_k - E N_k)^n] is a sum over partitions of the
n*k vertex slots in which no block holds two slots of one simplex and no
simplex is left without a shared vertex.  Partitions with the same overlap
signature (how many points are common to exactly each group of simplices)
have the same integral, so each signature is visited once with its exact
combinatorial weight and carries lambda^M, M being its number of distinct
points.  A pattern's integral is the product of its overlap components'
integrals, and the max-norm integral in dimension d is the d-th power of the
one on the circle.  A two-simplex component has a closed form
(j2_closed_form); a component whose union graph has only cliques as blocks
has one too (clique_block_integral); any other is delegated to the Monte
Carlo oracle in joracle, which samples on the circle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_

from .cliques import enumerate_cliques
from .joracle import JEstimate, OverlapPattern, j_oracle_mc
from .sampling import SeedSpec
from .torus import TorusSpec


def _check_epsilon(spec: TorusSpec, epsilon: float) -> None:
    if not (0.0 < epsilon < spec.a / 4.0):
        raise ValueError(f"epsilon must lie in (0, a/4) = (0, {spec.a / 4.0}), "
                         f"got {epsilon}")


@dataclass(frozen=True)
class ModelParams:
    lam: float
    spec: TorusSpec
    epsilon: float

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        _check_epsilon(self.spec, self.epsilon)

    @property
    def x(self) -> float:
        """The recurring dimensionless intensity lambda*(2*epsilon)^d."""
        return self.lam * (2.0 * self.epsilon) ** self.spec.d


class MomentKind(Enum):
    MEAN = "mean"
    COVARIANCE = "covariance"
    VARIANCE = "variance"
    CENTRAL_MOMENT = "central_moment"


@dataclass(frozen=True)
class MomentValue:
    value: float
    kind: MomentKind
    truncation: dict | None = None

    def __post_init__(self):
        if self.kind is MomentKind.VARIANCE and self.value < 0.0:
            raise ValueError(f"variance must be nonnegative, got {self.value}")


# ---------------------------------------------------------------------------
# Combinatorial machinery


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    if k == n:
        return 1
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell_polynomial(n: int, x: float) -> float:
    """B_n(x) = sum_k S(n,k) x^k with exact integer coefficients."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(sum(stirling2(n, k) * x ** k for k in range(n + 1)))


# ---------------------------------------------------------------------------
# First moments


def _exact(params: ModelParams) -> tuple[Fraction, Fraction]:
    """lambda*a^d and x = lambda*(2*epsilon)^d, exact from the float inputs."""
    lam, a, eps = (Fraction(v) for v in (params.lam, params.spec.a, params.epsilon))
    return lam * a ** params.spec.d, lam * (2 * eps) ** params.spec.d


def mean_Nk(params: ModelParams, k: int) -> MomentValue:
    """Expected number of (k-1)-simplices of the Poisson-process complex,
    lambda a^d x^(k-1) k^d / k!, in exact rationals rounded once."""
    if k < 1:
        raise ValueError("k must be >= 1")
    volume, x = _exact(params)
    value = volume * x ** (k - 1) * k ** params.spec.d / math.factorial(k)
    return MomentValue(value=float(value), kind=MomentKind.MEAN)


def mean_Nk_binomial(spec: TorusSpec, epsilon: float, n: int, k: int) -> MomentValue:
    """Expected (k-1)-simplex count for n independent uniform points,
    C(n, k) k^d (2 epsilon / a)^(d(k-1)), in exact rationals rounded once."""
    _check_epsilon(spec, epsilon)
    if k < 0 or n < 0:
        raise ValueError("n and k must be >= 0")
    if k > n or k == 0:
        return MomentValue(value=0.0, kind=MomentKind.MEAN)
    d, p = spec.d, 2 * Fraction(epsilon) / Fraction(spec.a)
    value = math.comb(n, k) * k ** d * p ** (d * (k - 1))
    return MomentValue(value=float(value), kind=MomentKind.MEAN)


def mean_chi(params: ModelParams) -> MomentValue:
    """Expected Euler characteristic, closed Bell-polynomial form."""
    d, a = params.spec.d, params.spec.a
    x = params.x
    value = (a / (2.0 * params.epsilon)) ** d * math.exp(-x) * (
        -bell_polynomial(d, -x))
    return MomentValue(value=value, kind=MomentKind.MEAN)


def mean_chi_binomial(spec: TorusSpec, epsilon: float, n: int) -> MomentValue:
    """Expected Euler characteristic for n uniform points, in closed form.

    The alternating sum over k of E[N_k] = C(n, k) k^d p^(k-1), p =
    (2 epsilon / a)^d, collapses through k^d = sum_j S(d, j) (k)_j into d
    terms, sum_{j=1}^{min(d, n)} S(d, j) (n)_j (-1)^(j+1) p^(j-1)
    (1 - p)^(n-j): the Binomial counterpart of ``mean_chi``'s Bell form.
    """
    _check_epsilon(spec, epsilon)
    if n < 0:
        raise ValueError("n must be >= 0")
    d = spec.d
    p = (2.0 * epsilon / spec.a) ** d
    value = sum((-1) ** (j + 1) * stirling2(d, j) * math.perm(n, j)
                * p ** (j - 1) * (1.0 - p) ** (n - j)
                for j in range(1, min(d, n) + 1))
    return MomentValue(value=float(value), kind=MomentKind.MEAN)


# ---------------------------------------------------------------------------
# Exact overlap integrals and covariances


def j2_closed_form(m1: int, m2: int, m12: int, spec: TorusSpec,
                   epsilon: float) -> float:
    """Overlap integral of two simplices sharing m12 vertices.

    The simplices have m1 + m12 and m2 + m12 vertices; m1 and m2 are the
    private vertex counts.  Disjoint simplices (m12 = 0) factorize into a
    product of single-simplex integrals and are rejected here.
    """
    if m12 < 1:
        raise ValueError("m12 must be >= 1 (disjoint simplices factorize)")
    if m1 < 0 or m2 < 0:
        raise ValueError("m1 and m2 must be >= 0")
    d, a = spec.d, spec.a
    base = m1 + m2 + m12 + 2.0 * m1 * m2 / (m12 + 1.0)
    return base ** d * a ** d * (2.0 * epsilon) ** ((m1 + m2 + m12 - 1) * d)


def clique_block_integral(pattern: OverlapPattern, spec: TorusSpec,
                          epsilon: float) -> float | None:
    """Overlap integral of a linked pattern whose union graph has only
    cliques as blocks, or None for any other pattern.

    The union graph has the pattern's M points as vertices, and each simplex
    adds the edges of a clique.  Its maximal cliques Q are its blocks
    exactly when they form a hypertree, sum of (|Q| - 1) = M - 1.  Fixing
    one point, each block then places its other points independently of the
    rest, a clique K_m on the line with volume m t^(m-1) (t = 2 epsilon), so
    J_1 = a t^(M-1) prod |Q| and the max-norm integral is J_1^d.  The circle
    behaves like the line only while points pairwise closer than t fit an
    arc shorter than t, that is for t <= a/3; beyond that None is returned.
    """
    t, a = 2.0 * epsilon, spec.a
    if 3.0 * t > a:
        return None
    M = pattern.total_vertices
    neigh = [0] * M
    for verts in pattern.vertex_lists():
        mask = sum(1 << v for v in verts)
        for v in verts:
            neigh[v] |= mask ^ 1 << v
    by_size, _ = enumerate_cliques(neigh)
    # a clique is maximal when its vertices have no common neighbour
    blocks = [len(c) for cliques in by_size.values() for c in cliques
              if not reduce(and_, (neigh[v] for v in c))]
    if sum(m - 1 for m in blocks) != M - 1:
        return None
    return (a * t ** (M - 1) * math.prod(blocks)) ** spec.d


def cov_Nk_Nl(params: ModelParams, k: int, l: int) -> MomentValue:
    """Covariance of the numbers of (k-1)- and (l-1)-simplices, in exact
    rationals rounded once."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    k, l = max(k, l), min(k, l)
    d = params.spec.d
    volume, x = _exact(params)
    # base_i = k + l - i + 2(k-i)(l-i)/(i+1), over i! (k-i)! (l-i)!
    total = sum(x ** (k + l - i - 1)
                * Fraction((k + l - i) * (i + 1) + 2 * (k - i) * (l - i), i + 1) ** d
                / (math.factorial(i) * math.factorial(k - i) * math.factorial(l - i))
                for i in range(1, l + 1))
    kind = MomentKind.VARIANCE if k == l else MomentKind.COVARIANCE
    return MomentValue(value=float(volume * total), kind=kind)


# ---------------------------------------------------------------------------
# Variance of the Euler characteristic


@lru_cache(maxsize=None)
def c_coefficient(n: int, d: int) -> Fraction:
    """Series coefficient c_n^d of the Euler-characteristic variance.

    Its factorials 1/((n-j)! (n-i)! m!), m = i + j - n, are multinomials
    over n!, and its bases n + 2(n-i)(n-j)/(1+m) have denominators dividing
    lcm(2..n+1), so it is summed in integers over n! lcm(2..n+1)^d.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    lcm = math.lcm(*range(2, n + 2)) ** d
    total = 0
    for j in range(-(-(n + 1) // 2), n + 1):
        for i in range(n - j + 1, j + 1):
            m = i + j - n
            term = (math.comb(n, m) * math.comb(n - m, n - j)
                    * (n * (1 + m) + 2 * (n - i) * (n - j)) ** d
                    * (lcm // (1 + m) ** d))
            total += (-1) ** (i + j) * (2 if i < j else 1) * term
    return Fraction(total, math.factorial(n) * lcm)


VAR_CHI_MAX_TERMS = 150


def var_chi_series(params: ModelParams) -> MomentValue:
    """Euler-characteristic variance as a power series in lambda*(2eps)^d,
    lambda a^d sum_n c_n^d x^(n-1), summed to convergence.

    The partial sums cancel by many orders of magnitude around n ~ 2x, so
    the series is accumulated in exact rationals and rounded once.  It stops
    once three terms in a row are each below 2^-60 of the positive partial
    sum, and raises ValueError when that has not happened within
    VAR_CHI_MAX_TERMS terms (x beyond about 17).  ``truncation`` records the
    number of terms summed.
    """
    volume, x = _exact(params)
    acc, power, small = Fraction(0), Fraction(1), 0
    for n in range(1, VAR_CHI_MAX_TERMS + 1):
        term = c_coefficient(n, params.spec.d) * power
        acc += term
        small = small + 1 if abs(term) * 2 ** 60 < acc else 0
        if small == 3:
            return MomentValue(value=float(volume * acc), kind=MomentKind.VARIANCE,
                               truncation={"terms": n})
        power *= x
    raise ValueError(f"the chi-variance series has not converged within "
                     f"{VAR_CHI_MAX_TERMS} terms at x = {params.x}")


def var_chi_1d(params: ModelParams) -> MomentValue:
    """Closed-form Euler-characteristic variance on the circle (d = 1)."""
    if params.spec.d != 1:
        raise ValueError("closed form requires d = 1")
    lam, eps, a = params.lam, params.epsilon, params.spec.a
    value = a * (lam * math.exp(-2.0 * lam * eps)
                 - 4.0 * lam ** 2 * eps * math.exp(-4.0 * lam * eps))
    return MomentValue(value=value, kind=MomentKind.VARIANCE)


@lru_cache(maxsize=None)
def alpha_beta_coeffs(n: int) -> tuple[Fraction, Fraction]:
    """Series coefficients (alpha_n, beta_n) with c_n^1 = alpha_n + beta_n.

    alpha_n is the coefficient of x^n in -x e^{-x} + 2x e^{-2x}; beta_n is
    the coefficient of x^n in 2x e^{-x} - 2(x + x^2) e^{-2x}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(0), Fraction(0)
    alpha = Fraction((-1) ** n * (1 - 2 ** n), math.factorial(n - 1))
    beta = (Fraction(2 * (-1) ** (n - 1), math.factorial(n - 1))
            - Fraction(2 * (-2) ** (n - 1), math.factorial(n - 1)))
    if n >= 2:
        beta -= Fraction(2 * (-2) ** (n - 2), math.factorial(n - 2))
    return alpha, beta


# ---------------------------------------------------------------------------
# Euclidean-ball remark values (d = 2)


def euclid_remark_moments(spec: TorusSpec, lam: float, epsilon: float) -> dict:
    """Closed-form Euclidean-ball moments on the 2-torus.

    E[N_2] and E[N_3] are for the pairwise threshold epsilon; the two
    variances are for the pairwise threshold 2*epsilon (the two conventions
    coexist in the source formulas and are preserved as stated, with the
    first Var N_3 factor read as (4 lambda eps^2)^3 to keep the term
    dimensionally consistent with the rest of its series).  epsilon must
    lie in (0, a/4): a disc of the pairwise radius 2*epsilon wraps around
    the torus once 2*epsilon reaches a/2.
    """
    if spec.d != 2:
        raise ValueError("Euclidean remark values require d = 2")
    _check_epsilon(spec, epsilon)
    a = spec.a
    pi = math.pi
    en2 = pi * (a * lam * epsilon) ** 2 / 2.0
    en3 = pi * (pi - 3.0 * math.sqrt(3.0) / 4.0) * lam ** 3 * a ** 2 * epsilon ** 4 / 6.0
    y = 4.0 * lam * epsilon ** 2
    pref = (a / (2.0 * epsilon)) ** 2
    varn2 = pref * (pi / 2.0 * y ** 2 + pi ** 2 * y ** 3)
    varn3 = pref * (
        y ** 3 * (pi / 6.0) * (pi - 3.0 * math.sqrt(3.0) / 4.0)
        + y ** 4 * pi * (pi ** 2 / 2.0 - 5.0 / 12.0 - pi * math.sqrt(3.0) / 2.0)
        + y ** 5 * (pi ** 2 / 4.0) * (pi - 3.0 * math.sqrt(3.0) / 4.0) ** 2)
    return {"EN2": en2, "EN3": en3, "VarN2": varn2, "VarN3": varn3}


# ---------------------------------------------------------------------------
# Higher central moments via overlap-pattern assembly


def _overlap_patterns(n: int, k: int) -> list:
    """Overlap signatures of n (k-1)-simplices, as sorted (shared, weight, M).

    ``shared`` lists (T, c_T) for every group T of at least two simplices
    that has c_T > 0 points common to exactly the simplices in T.  Simplex i
    then has s_i = sum of c_T over the groups T containing i shared
    vertices, and every signature has 1 <= s_i <= k (no simplex is left
    isolated).  ``weight`` is the exact number of slot partitions with this
    signature, prod_i k!/(k - s_i)! / prod_T c_T!, over (k!)^n; M is the
    number of distinct points, n*k - sum c_T (|T| - 1).
    """
    # lexicographic order puts every group containing i before any group
    # whose smallest member exceeds i, so s_i is final once the walk is past
    # them; groups with a member already at s_i = k are skipped
    groups = sorted(t for r in range(2, n + 1) for t in combinations(range(n), r))
    kfact = math.factorial(k)
    found = []

    def walk(g, shared, counts):
        while g < len(groups) and k in (shared[i] for i in groups[g]):
            g += 1
        if 0 in shared[:groups[g][0] if g < len(groups) else n]:
            return
        if g == len(groups):
            weight = Fraction(
                math.prod(math.perm(k, s) for s in shared),
                kfact ** n * math.prod(math.factorial(c) for _, c in counts))
            found.append((counts, weight,
                          n * k - sum(c * (len(t) - 1) for t, c in counts)))
            return
        t = groups[g]
        for c in range(k - max(shared[i] for i in t) + 1):
            walk(g + 1, tuple(s + c * (i in t) for i, s in enumerate(shared)),
                 counts + ((t, c),) if c else counts)

    walk(0, (0,) * n, ())
    return sorted(found)


def _overlap_components(pattern: OverlapPattern) -> list[OverlapPattern]:
    """The pattern's groups of simplices linked by shared points, each as a
    pattern of its own, in the order of their lowest simplex."""
    label = list(range(len(pattern.sizes)))
    for t, _ in pattern.shared:
        merged = {label[i] for i in t}
        label = [min(merged) if g in merged else g for g in label]
    parts = []
    for root in sorted(set(label)):
        members = [i for i, g in enumerate(label) if g == root]
        index = {i: r for r, i in enumerate(members)}
        parts.append(OverlapPattern.make(
            [pattern.sizes[i] for i in members],
            [([index[i] for i in t], c) for t, c in pattern.shared if min(t) in index]))
    return parts


def _default_j_oracle(params: ModelParams, samples: int, seed: SeedSpec,
                      tally: Counter | None = None):
    """Overlap integrals of the max-norm model.  Points in separate overlap
    components are independent, so a pattern's integral is the product of
    its components'.  Each component takes the first of three cases that
    applies:

    - two simplices: ``j2_closed_form``;
    - a union graph with only cliques as blocks, at t <= a/3:
      ``clique_block_integral``;
    - any other: ``j_oracle_mc``, which samples on the circle and returns
      J_1^d with its error.

    Each component of three or more simplices, exact or not, takes the next
    child stream ``seed.child("j_oracle", i)``, so a Monte Carlo component
    keeps its stream whichever components before it are exact.  ``tally``
    counts the components under ``exact_components`` (the first two cases)
    and ``mc_components``.  Errors of a product propagate to first order."""
    counter = [0]
    tally = Counter() if tally is None else tally

    def component(pattern: OverlapPattern) -> JEstimate:
        if len(pattern.sizes) == 2:
            ((_, m12),) = pattern.shared
            value = j2_closed_form(pattern.sizes[0] - m12, pattern.sizes[1] - m12,
                                   m12, params.spec, params.epsilon)
        else:
            counter[0] += 1
            value = clique_block_integral(pattern, params.spec, params.epsilon)
        if value is not None:
            tally["exact_components"] += 1
            return JEstimate(value=value, stderr=0.0, samples=0)
        tally["mc_components"] += 1
        return j_oracle_mc(pattern, params.spec, params.epsilon, samples,
                           seed.child("j_oracle", counter[0]))

    def oracle(pattern: OverlapPattern) -> JEstimate:
        parts = [component(c) for c in _overlap_components(pattern)]
        stderr = math.sqrt(sum(
            (p.stderr * math.prod(q.value for q in parts if q is not p)) ** 2
            for p in parts))
        return JEstimate(value=math.prod(p.value for p in parts), stderr=stderr,
                         samples=sum(p.samples for p in parts))

    return oracle


def nth_moment_assembler(params: ModelParams, k: int, n: int,
                         j_oracle=None, oracle_samples: int = 1_000_000,
                         seed: SeedSpec | None = None) -> MomentValue:
    """n-th central moment of the (k-1)-simplex count, for any n >= 2.

    Sums weight * lambda^M * J over the overlap patterns of n simplices in
    sorted order, J being the pattern's overlap integral from ``j_oracle``.
    The default oracle multiplies the integrals of the pattern's overlap
    components, each in the first of three cases that applies: the closed
    form for two simplices, so n = 2 reproduces the covariance diagonal; the
    exact clique-block integral when every block of the component's union
    graph is a clique and t <= a/3; otherwise the Monte Carlo oracle
    ``j_oracle_mc`` with ``oracle_samples`` samples.  With the
    default oracle, ``truncation`` also counts the component integrals taken
    exactly (``exact_components``) and by Monte Carlo (``mc_components``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        raise ValueError(f"central moment order must be >= 2, got {n}")
    if oracle_samples < 1:
        raise ValueError(f"oracle_samples must be >= 1, got {oracle_samples}")
    tally = {}
    if j_oracle is None:
        if seed is None:
            seed = SeedSpec(master_seed=0, stream_index=0)
        tally = Counter(exact_components=0, mc_components=0)
        j_oracle = _default_j_oracle(params, oracle_samples, seed, tally)
    total = 0.0
    var = 0.0
    for shared, weight, M in _overlap_patterns(n, k):
        pattern = OverlapPattern.make((k,) * n, shared)
        assert pattern.total_vertices == M
        est = j_oracle(pattern)
        coeff = float(weight) * params.lam ** M
        total += coeff * est.value
        var += (coeff * est.stderr) ** 2
    kind = MomentKind.VARIANCE if n == 2 else MomentKind.CENTRAL_MOMENT
    return MomentValue(value=total, kind=kind,
                       truncation={"oracle_stderr": math.sqrt(var), **tally})


def third_moment_Nk(params: ModelParams, k: int,
                    j_oracle=None, oracle_samples: int = 1_000_000,
                    seed: SeedSpec | None = None) -> MomentValue:
    """Third central moment of the number of (k-1)-simplices."""
    return nth_moment_assembler(params, k, 3, j_oracle, oracle_samples, seed)


def fourth_moment_Nk(params: ModelParams, k: int,
                     j_oracle=None, oracle_samples: int = 200_000,
                     seed: SeedSpec | None = None) -> MomentValue:
    """Fourth central moment of the number of (k-1)-simplices."""
    return nth_moment_assembler(params, k, 4, j_oracle, oracle_samples, seed)
