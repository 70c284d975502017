import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import count_in_box
from torushom import sampling
from torushom.sampling import (Binomial, PointConfiguration, Poisson,
                               SeedSpec, _draw_uniform, sample, sample_run)
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


@pytest.mark.parametrize("master, index", [(-1, 0), (2 ** 64, 0), (0, -1),
                                           (0, 2 ** 64)])
def test_seed_outside_64_bits_is_rejected(master, index):
    # each is one 64-bit word of the Philox key: reduced mod 2^64, 2^64 would
    # draw the stream of 0 and -1 that of 2^64 - 1
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        SeedSpec(master, index)
    assert SeedSpec(2 ** 64 - 1, 2 ** 64 - 1).generator() is not None


@pytest.mark.parametrize("master, index", [(1.5, 0), (1.0, 0), (True, 0),
                                           (0, 2.0), (0, False), ("1", 0)])
def test_seed_that_is_not_an_integer_is_rejected(master, index):
    # a float was truncated into the key, so SeedSpec(1.5) drew the points
    # of SeedSpec(1) while the two compared unequal
    with pytest.raises(ValueError, match="must be integers"):
        SeedSpec(master, index)


def test_integer_seeds_keep_their_streams():
    # a numpy integer is an integer: it draws the stream of the same int
    expected = sample(Binomial(n=5), SPEC2, SeedSpec(7, 3)).points
    for master, index in ((np.uint64(7), np.int64(3)), (np.int32(7), 3)):
        seed = SeedSpec(master, index)
        assert np.array_equal(sample(Binomial(n=5), SPEC2, seed).points,
                              expected)
    assert np.array_equal(
        sample(Binomial(n=np.int64(5)), SPEC2, SeedSpec(7, 3)).points, expected)


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
    """A generator stub whose draws of doubles in [0, 1) are given in
    advance (on a side of 1, they are the points)."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]
        self.sizes = []

    def random(self, size):
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
    # a non-integer count is refused when the law is built, not at the draw
    for n in (2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="nonnegative integer"):
            Binomial(n=n)


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
                  (Binomial(n=17), SPEC2),
                  # sides other than 1: the draw scales doubles by a
                  (Poisson(lam=3.0), TorusSpec(d=2, a=2.5)),
                  (Binomial(n=17), TorusSpec(d=3, a=0.7))]


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


RUN_CASES = [(law, TorusSpec(d=d, a=a)) for d in (1, 2, 3)
             for law, a in ((Poisson(lam=12.0), 1.0), (Poisson(lam=3.0), 2.5),
                            (Binomial(n=0), 1.0), (Binomial(n=9), 1.0))]


def _run_equals_each_sample(law, spec):
    seed = SeedSpec(2 ** 64 - 1, 3)
    for prefix in (("experiment",), ("clt", 12.0), ()):
        run = list(sample_run(law, spec, seed, prefix, 12))
        assert len(run) == 12
        for rep, got in enumerate(run):
            expect = sample(law, spec, seed.child(*prefix, rep)).points
            assert got.shape == expect.shape and got.shape[1] == spec.d
            assert np.array_equal(got, expect)


@pytest.mark.parametrize("law, spec", RUN_CASES)
def test_sample_run_equals_sample_of_each_child(law, spec):
    _run_equals_each_sample(law, spec)
    assert list(sample_run(law, spec, SeedSpec(1), ("e",), 0)) == []


class DuplicatingGenerator:
    """A generator whose draws of two or more rows of doubles repeat their
    first row as their last, so that the last row has to be redrawn."""

    def __init__(self, rng, forced):
        self.rng, self.forced = rng, forced

    def random(self, size):
        pts = self.rng.random(size)
        if size[0] > 1:
            pts[-1] = pts[0]
            self.forced.append(size)
        return pts


def test_sample_run_equals_sample_through_a_forced_resample(monkeypatch):
    forced = []

    def duplicating_draw(rng, n, spec):
        return real_draw(DuplicatingGenerator(rng, forced), n, spec)

    real_draw = sampling._draw_uniform
    monkeypatch.setattr(sampling, "_draw_uniform", duplicating_draw)
    for law, spec in RUN_CASES:
        _run_equals_each_sample(law, spec)
        if law == Binomial(n=9):
            pts = next(sample_run(law, spec, SeedSpec(5), ("e",), 1))
            assert len(np.unique(pts, axis=0)) == 9
    assert forced


def test_from_json_rejects_a_document_that_is_not_an_object():
    with pytest.raises(ValueError, match="JSON object"):
        PointConfiguration.from_json("[1, 2]")


TOKENS = st.recursive(
    st.text(max_size=6) | st.integers(-10 ** 20, 10 ** 20)
    | st.sampled_from([200.0, 1e-300, -0.0, 12.5]) | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(TOKENS, max_size=4).map(tuple), st.integers(0, 12))
@example((), 12)
@example(("experiment",), 12)
@example(("clt", 200.0), 3)
@example(("coverage", 1e-300, -7, ("nested", (1, "x"))), 3)
@example(((), ("solo",)), 2)
def test_property_run_stream_indices_equal_child(prefix, reps):
    # the run hashes its prefix once; each index must still be the one
    # SeedSpec.child(*prefix, rep) hashes from the whole repr, even after
    # an empty prefix, whose one-tuple repr is "(rep,)"
    seeds = []

    def recording_sample(law, spec, seed):
        seeds.append(seed)
        return real_sample(law, spec, seed)

    real_sample = sampling.sample
    base = SeedSpec(2 ** 64 - 1, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "sample", recording_sample)
        assert len(list(sample_run(Binomial(n=0), SPEC1, base, prefix, reps))) == reps
    assert seeds == [base.child(*prefix, rep) for rep in range(reps)]
