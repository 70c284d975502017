import json

import numpy as np
import pytest

from oracles import count_in_box
from torushom.sampling import (Binomial, PointConfiguration, Poisson,
                               SeedSpec, _draw_uniform, sample)
from torushom.torus import TorusSpec


SPEC1 = TorusSpec(d=1, a=1.0)
SPEC2 = TorusSpec(d=2, a=1.0)


def test_seed_reproducibility():
    seed = SeedSpec(1234, 7)
    c1 = sample(Poisson(lam=30.0), SPEC2, seed)
    c2 = sample(Poisson(lam=30.0), SPEC2, seed)
    assert np.array_equal(c1.points, c2.points)


def test_child_streams_stable_and_distinct():
    seed = SeedSpec(42)
    a = seed.child("experiment", 3)
    b = seed.child("experiment", 3)
    c = seed.child("experiment", 4)
    assert a == b
    assert a != c
    assert a.master_seed == 42


def test_streams_independentish():
    s = SeedSpec(99)
    x = sample(Binomial(n=50), SPEC1, s.child("e", 0)).points
    y = sample(Binomial(n=50), SPEC1, s.child("e", 1)).points
    assert not np.array_equal(x, y)


def test_binomial_exact_count():
    for n in (0, 1, 17):
        cfg = sample(Binomial(n=n), SPEC2, SeedSpec(5, n))
        assert cfg.n == n
        assert cfg.points.shape == (n, 2)


def test_points_in_domain_and_distinct():
    cfg = sample(Poisson(lam=200.0), SPEC2, SeedSpec(11))
    assert cfg.points.min() >= 0.0
    assert cfg.points.max() < 1.0
    assert len(np.unique(cfg.points, axis=0)) == cfg.n


class ScriptedGenerator:
    """A generator stub whose uniform draws are given in advance."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]
        self.sizes = []

    def uniform(self, low, high, size):
        self.sizes.append(size)
        return self.draws.pop(0)


def test_draw_uniform_redraws_a_duplicate_row():
    # rows 0 and 2 coincide: the later one is redrawn, the others are kept
    rng = ScriptedGenerator([[0.1, 0.2], [0.5, 0.6], [0.1, 0.2]],
                            [[0.7, 0.8]])
    pts = _draw_uniform(rng, 3, SPEC2)
    assert pts.tolist() == [[0.1, 0.2], [0.5, 0.6], [0.7, 0.8]]
    assert rng.sizes == [(3, 2), (1, 2)] and not rng.draws


def test_draw_uniform_keeps_a_draw_without_duplicates():
    # a shared first coordinate alone is not a duplicate row
    first = [[0.1, 0.2], [0.1, 0.3], [0.4, 0.5]]
    rng = ScriptedGenerator(first)
    assert _draw_uniform(rng, 3, SPEC2).tolist() == first
    assert rng.sizes == [(3, 2)]


def test_poisson_count_distribution():
    # mean of N over many reps should match lam * a^d within 4 sigma
    lam, reps = 30.0, 2000
    seed = SeedSpec(2024)
    counts = np.array([
        sample(Poisson(lam=lam), SPEC1, seed.child("n", r)).n
        for r in range(reps)
    ])
    se = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - lam) < 4 * se


def test_json_round_trip():
    cfg = sample(Binomial(n=9), SPEC2, SeedSpec(3))
    obj = cfg.to_json()
    back = PointConfiguration.from_json(json.dumps(obj))
    assert back.spec == cfg.spec
    assert np.allclose(back.points, cfg.points)
    back2 = PointConfiguration.from_json(obj)
    assert np.allclose(back2.points, cfg.points)


def test_from_json_rejects_out_of_domain():
    with pytest.raises(ValueError):
        PointConfiguration.from_json({"d": 1, "a": 1.0, "points": [[1.0]]})


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_from_json_rejects_non_finite(bad):
    text = f'{{"d": 1, "a": 1.0, "points": [[0.1], [{bad}], [0.12]]}}'
    with pytest.raises(ValueError, match="finite"):
        PointConfiguration.from_json(text)
    with pytest.raises(ValueError, match="finite"):
        PointConfiguration.from_json(
            {"d": 2, "a": 1.0, "points": [[0.1, 0.2], [0.3, float(bad)]]})


def test_law_validation():
    with pytest.raises(ValueError):
        Poisson(lam=0.0)
    with pytest.raises(ValueError):
        Binomial(n=-1)


def test_count_in_box_wraps():
    cfg = PointConfiguration(
        spec=SPEC1, points=np.array([[0.05], [0.5], [0.95]]))
    assert count_in_box(cfg, [0.9], [0.2]) == 2  # wraps past 1.0
    assert count_in_box(cfg, [0.0], [1.0]) == 3
    assert count_in_box(cfg, [0.4], [0.05]) == 0


def test_count_in_box_uniformity():
    # expected count in a box of volume v is lam * v
    lam, reps, v = 50.0, 1000, 0.3
    seed = SeedSpec(77)
    counts = np.array([
        count_in_box(sample(Poisson(lam=lam), SPEC1, seed.child("b", r)),
                     [0.85], [v])
        for r in range(reps)
    ])
    se = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - lam * v) < 4 * se


def _fresh_draw(law, spec, seed):
    """The configuration drawn from a newly built ``seed.generator()``."""
    rng = seed.generator()
    n = int(rng.poisson(law.lam * spec.volume)) if isinstance(law, Poisson) else law.n
    return rng.uniform(0.0, spec.a, size=(n, spec.d))


SAMPLING_CASES = [(Poisson(lam=30.0), SPEC2), (Poisson(lam=5.0), SPEC1),
                  (Binomial(n=0), SPEC2), (Binomial(n=1), SPEC1),
                  (Binomial(n=17), SPEC2)]


def test_sample_equals_a_fresh_generator_draw():
    base = SeedSpec(2 ** 64 - 1, 3)
    for r in range(20):
        # interleaved: every law and seed in turn, each seed twice
        for law, spec in SAMPLING_CASES + SAMPLING_CASES[::-1]:
            seed = base.child("s", r)
            got = sample(law, spec, seed).points
            assert got.shape[1] == spec.d
            assert np.array_equal(got, _fresh_draw(law, spec, seed))


def test_sample_equals_a_fresh_generator_draw_across_threads():
    # more threads than cores, switching often, each with its own law
    import sys
    import threading

    seeds = [SeedSpec(7).child("t", r) for r in range(200)]
    cases = SAMPLING_CASES[:2] * 2
    start = threading.Barrier(len(cases))
    results = {}

    def draw(name, law, spec):
        start.wait()
        results[name] = [sample(law, spec, s).points for s in seeds]

    threads = [threading.Thread(target=draw, args=(name, law, spec))
               for name, (law, spec) in enumerate(cases)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for name, (law, spec) in enumerate(cases):
        for s, got in zip(seeds, results[name]):
            assert np.array_equal(got, _fresh_draw(law, spec, s))
