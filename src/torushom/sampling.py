"""Seeded sampling of Poisson and Binomial point processes on the torus.

Randomness is driven by the counter-based Philox generator keyed on
(master_seed, stream_index), so replication r of experiment e can use an
independent stream computed as a stable hash of (e, r).  Sampling the same
(law, spec, seed) triple always returns the bit-identical configuration,
regardless of execution order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .torus import TorusSpec

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeedSpec:
    """A reproducible random stream: master seed plus stream index."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_index & _MASK64],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *tokens) -> "SeedSpec":
        """Derive a stream index from arbitrary hashable tokens.

        Uses SHA-256 of the token repr, so the mapping is stable across
        processes and platforms.
        """
        h = hashlib.sha256(repr(tokens).encode()).digest()
        idx = int.from_bytes(h[:8], "big") & _MASK64
        return SeedSpec(self.master_seed, idx)


@dataclass(frozen=True)
class Poisson:
    """Poisson point process of intensity ``lam`` (points per unit volume)."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError(f"intensity must be positive, got {self.lam}")


@dataclass(frozen=True)
class Binomial:
    """Binomial point process: exactly ``n`` i.i.d. uniform points."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"point count must be nonnegative, got {self.n}")


ProcessLaw = Union[Poisson, Binomial]


@dataclass(frozen=True)
class PointConfiguration:
    """A finite simple point set on the torus, coordinates in [0, a)."""

    spec: TorusSpec
    points: np.ndarray  # shape (n, d)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> dict:
        return {"d": self.spec.d, "a": self.spec.a,
                "points": self.points.tolist()}

    @classmethod
    def from_json(cls, obj) -> "PointConfiguration":
        if isinstance(obj, (str, bytes)):
            obj = json.loads(obj)
        spec = TorusSpec(d=obj["d"], a=obj["a"])
        pts = np.asarray(obj["points"], dtype=float).reshape(-1, spec.d)
        # elementwise, so NaN (for which every comparison is False) fails too
        if not ((pts >= 0) & (pts < spec.a)).all():
            raise ValueError("point coordinates must be finite and lie in [0, a)")
        return cls(spec=spec, points=pts)


def _draw_uniform(rng: np.random.Generator, n: int, spec: TorusSpec) -> np.ndarray:
    pts = rng.uniform(0.0, spec.a, size=(n, spec.d))
    # Simplicity invariant: bitwise-duplicate rows are resampled (a
    # probability-zero event under the continuous law).
    while n > 1:
        # Rows can only coincide where first coordinates do; that rules out
        # nearly every draw without the full-row sort.
        first_coords = np.sort(pts[:, 0])
        if not (np.diff(first_coords) == 0).any():
            break
        _, first = np.unique(pts, axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(n), first)
        if dup.size == 0:
            break
        pts[dup] = rng.uniform(0.0, spec.a, size=(dup.size, spec.d))
    return pts


def sample(law: ProcessLaw, spec: TorusSpec, seed: SeedSpec) -> PointConfiguration:
    """Draw one configuration from the process law.

    Poisson: N ~ Poisson(lam * a^d), then N uniform points.
    Binomial: exactly n uniform points.
    """
    rng = seed.generator()
    if isinstance(law, Poisson):
        n = int(rng.poisson(law.lam * spec.volume))
    elif isinstance(law, Binomial):
        n = law.n
    else:
        raise TypeError(f"unknown process law: {law!r}")
    return PointConfiguration(spec=spec, points=_draw_uniform(rng, n, spec))

