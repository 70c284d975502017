"""Seeded sampling of Poisson and Binomial point processes on the torus.

Randomness is driven by the counter-based Philox generator keyed on
(master_seed, stream_index), so replication r of experiment e can use an
independent stream computed as a stable hash of (e, r).  Sampling the same
(law, spec, seed) triple always returns the bit-identical configuration,
regardless of execution order.  ``sample_run`` draws a run of replications,
each from ``sample`` on its child stream: the run's fixed prefix of tokens is
hashed once, and each replication's stream index from a copy of that hash.
Every draw resets one reused generator per thread in place, through one
state dict and key array, and checks its rows for duplicates through a sort
of the first coordinates alone.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .torus import TorusSpec, is_integer

@dataclass(frozen=True)
class SeedSpec:
    """A reproducible random stream: master seed plus stream index, each a
    64-bit word of the Philox key, so each must lie in [0, 2^64)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        # a float or a bool would be truncated into the key (1.5 draws as 1)
        if not (is_integer(self.master_seed) and is_integer(self.stream_index)):
            raise ValueError("master_seed and stream_index must be integers, "
                             f"got {self.master_seed!r} and {self.stream_index!r}")
        if not (0 <= self.master_seed < 1 << 64
                and 0 <= self.stream_index < 1 << 64):
            raise ValueError("master_seed and stream_index must be in "
                             f"[0, 2**64), got {self.master_seed} and "
                             f"{self.stream_index}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key()))

    def _key(self) -> np.ndarray:
        return np.array([self.master_seed, self.stream_index], dtype=np.uint64)

    def child(self, *tokens) -> "SeedSpec":
        """Derive a stream index from arbitrary hashable tokens.

        Uses the first 8 bytes (big-endian) of the SHA-256 of the token
        repr, so the mapping is stable across processes and platforms.
        """
        h = hashlib.sha256(repr(tokens).encode()).digest()
        return SeedSpec(self.master_seed, int.from_bytes(h[:8], "big"))


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
        if not is_integer(self.n) or self.n < 0:
            raise ValueError(f"point count must be a nonnegative integer, "
                             f"got {self.n!r}")


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
        fields = obj if isinstance(obj, dict) else {}
        d, a, points = fields.get("d"), fields.get("a"), fields.get("points")
        pts = np.asarray(points if isinstance(points, list) else None)
        if (type(d) is not int or type(a) not in (int, float)
                or pts.dtype.kind not in "iuf" or pts.size and pts.shape[1:] != (d,)):
            raise ValueError("a point configuration is a JSON object with an integer"
                             " d, a number a and points, a list of d-coordinate lists")
        spec = TorusSpec(d=d, a=a)
        pts = pts.astype(float).reshape(-1, spec.d)
        # elementwise, so NaN (for which every comparison is False) fails too
        if not ((pts >= 0) & (pts < spec.a)).all():
            raise ValueError("point coordinates must be finite and lie in [0, a)")
        return cls(spec=spec, points=pts)


def _uniform(rng: np.random.Generator, rows: int, spec: TorusSpec) -> np.ndarray:
    """``rng.uniform(0.0, spec.a, (rows, spec.d))`` bit for bit, which numpy
    computes as 0.0 + a * u, that is a * u, from the same doubles u."""
    pts = rng.random((rows, spec.d))
    if spec.a != 1.0:
        pts *= spec.a
    return pts


def _draw_uniform(rng: np.random.Generator, n: int, spec: TorusSpec) -> np.ndarray:
    pts = _uniform(rng, n, spec)
    # Simplicity invariant: bitwise-duplicate rows are resampled (a
    # probability-zero event under the continuous law).
    while n > 1:
        # Rows can only coincide where first coordinates do; that rules out
        # nearly every draw without the full-row sort.  An in-place sort of
        # a copy and a count cost about 60% of np.sort and .all().
        first = pts[:, 0].copy()
        first.sort()
        if not np.count_nonzero(first[1:] == first[:-1]):
            break
        _, kept = np.unique(pts, axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(n), kept)
        if dup.size == 0:
            break
        pts[dup] = _uniform(rng, dup.size, spec)
    return pts


_ZERO4 = np.zeros(4, dtype=np.uint64)
_reused = threading.local()


def _seeded_generator(seed: SeedSpec) -> np.random.Generator:
    """This thread's reused Philox generator, reset to the state of a fresh
    ``seed.generator()``: the seed's key, a zero counter and an empty
    buffer.  The state dict and its key array are reused too, the key
    written in place.  Resetting costs a fraction of building a new
    generator."""
    rng = getattr(_reused, "rng", None)
    if rng is None:
        rng = _reused.rng = np.random.Generator(np.random.Philox(0))
        _reused.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": np.zeros(2, dtype=np.uint64)},
            "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
    state = _reused.state
    key = state["state"]["key"]
    key[0] = seed.master_seed
    key[1] = seed.stream_index
    rng.bit_generator.state = state
    return rng


def sample(law: ProcessLaw, spec: TorusSpec, seed: SeedSpec) -> PointConfiguration:
    """Draw one configuration from the process law.

    Poisson: N ~ Poisson(lam * a^d), then N uniform points.
    Binomial: exactly n uniform points.
    """
    rng = _seeded_generator(seed)
    if isinstance(law, Poisson):
        n = int(rng.poisson(law.lam * spec.volume))
    elif isinstance(law, Binomial):
        n = law.n
    else:
        raise TypeError(f"unknown process law: {law!r}")
    return PointConfiguration(spec=spec, points=_draw_uniform(rng, n, spec))


def sample_run(law: ProcessLaw, spec: TorusSpec, seed: SeedSpec, prefix: tuple,
               reps: int) -> Iterator[np.ndarray]:
    """The points of ``sample(law, spec, seed.child(*prefix, rep))`` for
    rep = 0, 1, ..., reps - 1, in order, drawn as they are consumed.

    ``child`` hashes repr((*prefix, rep)), which is the text of the prefix,
    then repr(rep), then ")" (",)" after an empty prefix, as the repr of a
    one-tuple ends).  The prefix's text is hashed once per run, and each
    replication's index from a copy of that SHA-256 state, with no ``child``
    call.  Each is drawn by one call to the module's ``sample``, so that a
    wrapper installed over it (the benchmark's tracer counts a span per
    configuration) sees every draw."""
    head = hashlib.sha256(("(" + "".join(f"{t!r}, " for t in prefix)).encode())
    tail = ")" if prefix else ",)"
    master = seed.master_seed
    for rep in range(reps):
        h = head.copy()
        h.update(f"{rep}{tail}".encode())
        index = int.from_bytes(h.digest()[:8], "big")
        yield sample(law, spec, SeedSpec(master, index)).points
