"""Exhaustive oracles that tests compare the fast graph routines against."""

from itertools import combinations

import numpy as np


def brute_force_clique_counts(adj_bool: np.ndarray, max_size: int) -> np.ndarray:
    """Exhaustive k-subset checker; independent oracle for small graphs."""
    n = adj_bool.shape[0]
    counts = np.zeros(max_size + 1, dtype=np.int64)
    for k in range(1, max_size + 1):
        for subset in combinations(range(n), k):
            if all(adj_bool[i, j] for i, j in combinations(subset, 2)):
                counts[k] += 1
    return counts
