"""A fixed reference task that times the machine rather than torushom.

The speed of a shared sandbox drifts by 10-30% over minutes, and all of a
process's work slows together.  The benchmark runs this task between rounds
and at the end of set-up, in the same process, and scales its times by
``NOMINAL_S / median(reference times)``: its timings read as seconds on a
machine that runs this task in ``NOMINAL_S``.  A change to torushom moves
the round times and not the reference, so it shows in full.

The task mixes the kinds of work the workloads do: Python set operations on
a graph (the clique counting and harness loops), many small numpy calls
(sampling and small adjacency matrices) and one large numpy broadcast (the
dense pairwise tensor).  It uses no torushom code.
"""

from __future__ import annotations

import functools
import random
import statistics
import time

import numpy as np

# Median reference time of the machine the benchmark was sized on (2-core
# Intel Xeon VM, Python 3.11, numpy 2.4), so scaled times read as seconds
# there.
NOMINAL_S = 0.030


@functools.cache
def _inputs():
    rng = random.Random(0)
    adj: list[set[int]] = [set() for _ in range(1500)]
    for _ in range(10_000):
        u, v = rng.randrange(1500), rng.randrange(1500)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    small = [np.random.default_rng(i).integers(0, 50, size=60) for i in range(200)]
    return adj, small, np.random.default_rng(0).uniform(size=(400, 2))


def _task(adj, small, big) -> int:
    quads = 0
    for u, nbrs in enumerate(adj):
        up = {v for v in nbrs if v > u}
        for v in up:
            common = {w for w in up & adj[v] if w > v}
            for w in common:
                quads += len(common & adj[w])
    gen = np.random.default_rng(5)
    for a in small:
        np.unique(a, return_counts=True)
        gen.uniform(size=(40, 2))
        quads += int((a[:, None] == a[None, :]).sum())
    quads += int(np.abs(big[:, None, :] - big[None, :, :]).max(axis=2).argmax())
    return quads


def time_reference() -> float:
    """Seconds one run of the reference task takes now."""
    inputs = _inputs()
    t0 = time.perf_counter()
    _task(*inputs)
    return time.perf_counter() - t0


def scale(refs: list[float]) -> float:
    """Factor that turns this process's times into reference-speed seconds."""
    return NOMINAL_S / statistics.median(refs)
