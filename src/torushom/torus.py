"""Flat torus geometry: wrap-around coordinates and toroidal metrics.

The ambient space is the cube [0, a)^d with opposite faces identified.
Distances are computed either with the product (max-norm) metric, which is
the default everywhere, or with the Euclidean toroidal metric, which is only
meaningful for the d=2 closed forms that assume round balls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Metric(enum.Enum):
    """Toroidal metric choice."""

    MAX_NORM = "max"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class TorusSpec:
    """The flat torus T_a^d: dimension ``d`` and side length ``a``."""

    d: int
    a: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not (self.a > 0):
            raise ValueError(f"side length must be positive, got {self.a}")

    @property
    def volume(self) -> float:
        return self.a ** self.d


def torus_distance(p, q, spec: TorusSpec, metric: Metric = Metric.MAX_NORM) -> float:
    """Distance between two points of the torus under the chosen metric."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (spec.d,) or q.shape != (spec.d,):
        raise ValueError(
            f"points must have {spec.d} coordinates, got shapes {p.shape} and {q.shape}"
        )
    diff = np.abs(p - q)
    wrapped = np.minimum(diff, spec.a - diff)
    if metric is Metric.MAX_NORM:
        return float(wrapped.max())
    return float(np.sqrt((wrapped ** 2).sum()))


def pairwise_distances(points: np.ndarray, spec: TorusSpec,
                       metric: Metric = Metric.MAX_NORM) -> np.ndarray:
    """Full (n, n) matrix of toroidal distances for an (n, d) point array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or (pts.size and pts.shape[1] != spec.d):
        raise ValueError(f"expected an (n, {spec.d}) array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        return np.zeros((0, 0))
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    wrapped = np.minimum(diff, spec.a - diff)
    if metric is Metric.MAX_NORM:
        return wrapped.max(axis=2)
    return np.sqrt((wrapped ** 2).sum(axis=2))
