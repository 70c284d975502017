import math

import numpy as np
import pytest
from scipy.special import ndtri

from torushom.stats import normal_quantile, wasserstein1_to_normal


def test_quantile_symmetry_and_anchor():
    assert normal_quantile(0.5) == 0.0
    for p in (0.01, 0.1, 0.3, 0.45):
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p),
                                                   abs=1e-12)


def test_quantile_frozen_values():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.8413447460685429) == pytest.approx(1.0, abs=1e-9)
    assert normal_quantile(0.999) == pytest.approx(3.090232306167814, abs=1e-9)


def test_quantile_against_scipy():
    ps = np.concatenate([
        np.linspace(1e-10, 1e-3, 50),
        np.linspace(1e-3, 0.999, 200),
        1.0 - np.linspace(1e-10, 1e-3, 50),
    ])
    for p in ps:
        assert normal_quantile(float(p)) == pytest.approx(
            float(ndtri(p)), abs=1e-8)


def test_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal_quantile(p)


def test_quantile_round_trip():
    # Phi(Phi^{-1}(p)) = p via erf
    for p in (0.001, 0.2, 0.7, 0.9999):
        z = normal_quantile(p)
        phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        assert phi == pytest.approx(p, abs=1e-12)


def test_wasserstein_normal_sample_small():
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 0],
                                                            dtype=np.uint64)))
    sample = rng.standard_normal(20_000)
    d_w = wasserstein1_to_normal(sample)
    assert type(d_w) is float and 0.0 <= d_w < 0.02


def test_wasserstein_detects_shift():
    rng = np.random.default_rng(2)
    shifted = rng.standard_normal(5_000) + 1.0
    assert wasserstein1_to_normal(shifted) == pytest.approx(1.0, abs=0.1)


def test_wasserstein_guards():
    with pytest.raises(ValueError):
        wasserstein1_to_normal(np.zeros(50))  # too few
    with pytest.raises(ValueError):
        wasserstein1_to_normal(np.zeros(200))  # degenerate
