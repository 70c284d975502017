"""Span tracer that wraps torushom's layer functions from the outside.

``Tracer.install`` rebinds every listed layer function at every site that
holds a reference to it: the defining module, every torushom module that
imported it by name, and the package namespace.  ``Tracer.restore`` puts the
originals back.  Nothing under ``src/`` changes.

While a root span is open (``Tracer.root``), each wrapped call appends one
span ``(name, start, end, parent)`` to an in-memory list and updates the
layer's work counters; outside a root span the wrappers call straight
through.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Self time of a traced round that no layer span may leave unexplained:
# the benchmark's own glue inside a round must stay below this share.
SELF_TIME_TOLERANCE = 0.05


def _count_sample(c, args, kwargs, out):
    c["sampling.points"] += out.n


def _count_pairwise(c, args, kwargs, out):
    # The (n, n, d) float64 difference tensor, from array sizes (not measured).
    n = out.shape[0]
    d = np.asarray(args[0]).shape[1] if n else 0
    c["torus.pairwise_bytes"] += n * n * d * 8


def _count_adjacency(c, args, kwargs, out):
    c["complexes.edges"] += int(np.count_nonzero(out)) // 2


def _count_clique_counts(c, args, kwargs, out):
    counts, complete = out
    c["cliques.cliques"] += int(counts[1:].sum())
    c["cliques.max_clique"] = max(c["cliques.max_clique"], len(counts) - 1)
    c["cliques.cap_hits"] += not complete


def _count_clique_lists(c, args, kwargs, out):
    by_size, complete = out
    sizes = [k for k, v in by_size.items() if v]
    c["cliques.cliques"] += sum(len(v) for v in by_size.values())
    c["cliques.max_clique"] = max(c["cliques.max_clique"], max(sizes, default=0))
    c["cliques.cap_hits"] += not complete


def _count_reduce(c, args, kwargs, out):
    low, high = args[0], args[1]
    if low and high:  # boundary_rank feeds gf2_rank only in this case
        c["homology.reduce_rows"] += len(high)
        c["homology.rank"] += out


def _count_collapse(c, args, kwargs, out):
    c["homology.collapse_vertices"] += args[0].shape[0]
    c["homology.core_vertices"] += out.size


def _count_embeddings(c, args, kwargs, out):
    c["subcomplex.embeddings"] += out.g_gamma


def _count_oracle(c, args, kwargs, out):
    c["joracle.samples"] += out.samples


def _count_experiment(c, args, kwargs, out):
    c["harness.excluded"] += out.excluded


def _count_coverage(c, args, kwargs, out):
    c["harness.excluded"] += sum(p.excluded for p in out.points)


# (module, function, work counter); the span name is "module.function".
LAYER_FUNCTIONS = (
    ("sampling", "sample", _count_sample),
    ("torus", "pairwise_distances", _count_pairwise),
    ("complexes", "adjacency_matrix", _count_adjacency),
    ("complexes", "simplex_counts", None),
    ("complexes", "build_complex", None),
    ("cliques", "count_cliques", _count_clique_counts),
    ("cliques", "enumerate_cliques", _count_clique_lists),
    ("homology", "boundary_rank", _count_reduce),
    ("homology", "betti_numbers", None),
    ("homology", "homology_summary", None),
    ("homology", "strong_collapse", _count_collapse),
    ("homology", "connected_components", None),
    ("homology", "collapsed_homology", None),
    ("subcomplex", "count_gamma_adj", _count_embeddings),
    ("joracle", "j_oracle_mc", _count_oracle),
    ("moments", "third_moment_Nk", None),
    ("stats", "wasserstein1_to_normal", None),
    ("harness", "run_experiment", _count_experiment),
    ("harness", "coverage_experiment", _count_coverage),
    ("harness", "clt_rate_experiment", None),
)

# Per-layer self-time metrics and the spans whose self time each one sums.
SELF_TIME_METRICS = {
    "sampling.sample_s": ("sampling.sample",),
    "torus.pairwise_s": ("torus.pairwise_distances",),
    "complexes.adjacency_s": ("complexes.adjacency_matrix",),
    "complexes.build_s": ("complexes.simplex_counts", "complexes.build_complex"),
    "cliques.count_s": ("cliques.count_cliques",),
    "cliques.enumerate_s": ("cliques.enumerate_cliques",),
    "homology.reduce_s": ("homology.boundary_rank",),
    "homology.collapse_s": ("homology.strong_collapse",),
    "homology.components_s": ("homology.connected_components",),
    "homology.summary_s": ("homology.betti_numbers", "homology.homology_summary",
                           "homology.collapsed_homology"),
    "subcomplex.count_s": ("subcomplex.count_gamma_adj",),
    "joracle.mc_s": ("joracle.j_oracle_mc",),
    "moments.assemble_s": ("moments.third_moment_Nk",),
    "stats.wasserstein_s": ("stats.wasserstein1_to_normal",),
    "harness.self_s": ("harness.run_experiment", "harness.coverage_experiment",
                       "harness.clt_rate_experiment"),
}

ROOT = "round"


class Tracer:
    """In-memory span recorder over torushom's layer functions."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.rebound: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._active = False

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(counters, args, kwargs, out)
            return out

        return traced

    def install(self) -> "Tracer":
        """Rebind every layer function at every torushom site that holds it."""
        import torushom  # noqa: F401  (loads the package and its modules)

        sites = [m for k, m in sorted(sys.modules.items())
                 if k == "torushom" or k.startswith("torushom.")]
        for mod_name, fn_name, counter in LAYER_FUNCTIONS:
            home = sys.modules[f"torushom.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, attr, wrapper)
                        self.rebound.append((site, attr, original))
        return self

    def restore(self) -> None:
        for site, attr, original in reversed(self.rebound):
            setattr(site, attr, original)
        self.rebound.clear()

    # -- recording ------------------------------------------------------------

    @contextmanager
    def root(self):
        """Record one traced round: a root span with the layer spans under it."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._active = False
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, _, _, _), t in zip(self.spans, own):
            totals[name] += t
        return dict(totals)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced round: ``name -> (value, unit)``."""
        rounds = sum(1 for s in self.spans if s[3] == -1)
        if rounds == 0:
            raise ValueError("no traced round recorded")
        own = self.self_times()
        wall = sum(end - start for name, start, end, parent in self.spans
                   if parent == -1)
        c = self.counters
        out: dict[str, tuple[float, str]] = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = (sum(own.get(n, 0.0) for n in names) / rounds, "s")
        for metric, unit in (("sampling.points", "count"),
                             ("torus.pairwise_bytes", "bytes-computed"),
                             ("complexes.edges", "count"),
                             ("cliques.cliques", "count"),
                             ("cliques.cap_hits", "count"),
                             ("homology.reduce_rows", "count"),
                             ("subcomplex.embeddings", "count"),
                             ("joracle.samples", "count"),
                             ("harness.excluded", "count")):
            out[metric] = (c[metric] / rounds, unit)
        out["cliques.max_clique"] = (c["cliques.max_clique"], "count")
        out["homology.rank_frac"] = (
            c["homology.rank"] / c["homology.reduce_rows"]
            if c["homology.reduce_rows"] else 0.0, "ratio")
        out["homology.core_frac"] = (
            c["homology.core_vertices"] / c["homology.collapse_vertices"]
            if c["homology.collapse_vertices"] else 0.0, "ratio")
        out["trace.unattributed_frac"] = (own.get(ROOT, 0.0) / wall, "ratio")
        return out
