"""Seeded outputs of the Monte Carlo integrals, frozen as ``float.hex``.

The moments at d in {1, 2, 3} use epsilon = 0.05 and 0.2, so they include
components that the oracle samples (at 0.2, t = 0.4 > a/3 sends every
component of three or more simplices to Monte Carlo).  At 0.2 the moments
of N_3 raise instead: their two-simplex components would be the Cech values
of ``j2_closed_form``.  A change to the sampling routine that is meant to
keep these outputs must keep them bit for bit; one that moves them must say
so and re-derive the table.
"""

import pytest

from torushom.joracle import OverlapPattern, j_oracle_mc
from torushom.moments import ModelParams, fourth_moment_Nk, third_moment_Nk
from torushom.sampling import SeedSpec
from torushom.subcomplex import GammaGraph, kernel_integral_f_i
from torushom.torus import TorusSpec

# the moment raises the ValueError of moments._check_cech
CECH = "Cech guard"

# (order, d, epsilon, k): (value, oracle_stderr), at lambda = 20, a = 1,
# 200 oracle samples and seed SeedSpec(31, d), or CECH
MOMENTS = {
    (3, 1, 0.05, 2): ('0x1.8d80000000001p+12', '0x0.0p+0'),
    (4, 1, 0.05, 2): ('0x1.1585000000001p+19', '0x1.06adb2e118ce8p+11'),
    (3, 1, 0.05, 3): ('0x1.0ef0000000002p+15', '0x1.c89d5362fac9dp+18'),
    (4, 1, 0.05, 3): ('0x1.38103aaaaaaadp+23', '0x1.ecea18dcec3dap+28'),
    (3, 1, 0.2, 2): ('0x1.4dae000000000p+18', '0x1.5f5ded219cc0bp+13'),
    (4, 1, 0.2, 2): ('0x1.c4509bc000003p+26', '0x1.0e9bafd57aa47p+19'),
    (3, 1, 0.2, 3): CECH,
    (4, 1, 0.2, 3): CECH,
    (3, 2, 0.05, 2): ('0x1.7a3d70a3d70a7p+6', '0x0.0p+0'),
    (4, 2, 0.05, 2): ('0x1.fe9999999999ep+10', '0x1.5628a4bc9963dp+6'),
    (3, 2, 0.05, 3): ('0x1.6853e2d6238dbp+4', '0x1.243eca1b4b358p+11'),
    (4, 2, 0.05, 3): ('0x1.3b0f96ea43272p+14', '0x1.3b83a9d3c2146p+21'),
    (3, 2, 0.2, 2): ('0x1.58bd8f5c28f5cp+17', '0x1.70f82a6b50cbep+13'),
    (4, 2, 0.2, 2): ('0x1.76181d1000001p+25', '0x1.c4c50ed2ae477p+18'),
    (3, 2, 0.2, 3): CECH,
    (4, 2, 0.2, 3): CECH,
    (3, 3, 0.05, 2): ('0x1.d6ffc115df65ap+1', '0x0.0p+0'),
    (4, 3, 0.05, 2): ('0x1.807b56b87379fp+4', '0x1.8867081e204e0p+1'),
    (3, 3, 0.05, 3): ('0x1.aa02026252aa4p-3', '0x1.76549d4094e2bp+3'),
    (4, 3, 0.05, 3): ('0x1.9232c4c1ca989p+6', '0x1.942c15623ef60p+13'),
    (3, 3, 0.2, 2): ('0x1.69ba6d42c3c9fp+16', '0x1.2a1d02359376fp+13'),
    (4, 3, 0.2, 2): ('0x1.37080d9a56cdap+24', '0x1.1ef2f78ab2626p+18'),
    (3, 3, 0.2, 3): CECH,
    (4, 3, 0.2, 3): CECH,
}

# (pattern, epsilon): (value, stderr) of j_oracle_mc at d = 1, 3000 samples,
# seed SeedSpec(41, i) for the i-th pattern
J_ORACLE = {
    ('C4', 0.05): ('0x1.89374bc6a7efap-8', '0x1.719d1e53996b6p-10'),
    ('C4', 0.2): ('0x1.9eb851eb851ecp-2', '0x1.25ae3db8675aep-7'),
    ('TRIANGLE', 0.05): ('0x1.fbe76c8b43958p-6', '0x1.9ec160f88927dp-9'),
    ('TRIANGLE', 0.2): ('0x1.0624dd2f1a9fcp-1', '0x1.2b0b1b3cacc72p-7'),
    ('K4_MINUS_E', 0.05): ('0x1.9f0fb38a94d24p-8', '0x1.7bada80cc09f9p-10'),
    ('K4_MINUS_E', 0.2): ('0x1.57b900aec33e2p-2', '0x1.1a82febaacb2dp-7'),
    ('CHERRY', 0.05): ('0x1.3f7ced916872bp-5', '0x1.cf479c352038bp-9'),
    ('CHERRY', 0.2): ('0x1.428f5c28f5c29p-1', '0x1.20d791b59225fp-7'),
}

# (pattern, i): f_i at d = 1, lambda = 10, epsilon = 0.1, 3000 samples, seed
# SeedSpec(51, j) for the j-th pattern, the fixed points taken from FIXED
KERNELS = {
    ('PATH', 0): '0x1.3800000000000p+5',
    ('PATH', 1): '0x1.acccccccccccdp+3',
    ('PATH', 2): '0x1.7b851eb851eb8p+2',
    ('PATH', 3): '0x1.0000000000000p+0',
    ('TRIANGLE', 0): '0x1.f555555555555p+4',
    ('TRIANGLE', 1): '0x1.6666666666666p+3',
    ('TRIANGLE', 2): '0x1.31eb851eb851fp+2',
    ('TRIANGLE', 3): '0x1.0000000000000p+0',
}

PATTERNS = {
    "C4": OverlapPattern.make((2, 2, 2, 2),
                              [((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), 1)]),
    "TRIANGLE": OverlapPattern.make((2, 2, 2),
                                    [((0, 1), 1), ((1, 2), 1), ((0, 2), 1)]),
    "K4_MINUS_E": OverlapPattern.make((3, 3), [((0, 1), 2)]),
    "CHERRY": OverlapPattern.make((2, 2), [((0, 1), 1)]),
}
GAMMAS = {"PATH": GammaGraph.make(3, [(0, 1), (1, 2)]),
          "TRIANGLE": GammaGraph.complete(3)}
FIXED = [[0.5], [0.55], [0.47]]


@pytest.mark.parametrize("d", (1, 2, 3))
def test_seeded_moments(d):
    got = {}
    for eps in (0.05, 0.2):
        p = ModelParams(lam=20.0, spec=TorusSpec(d=d, a=1.0), epsilon=eps)
        for k in (2, 3):
            for n, fn in ((3, third_moment_Nk), (4, fourth_moment_Nk)):
                try:
                    mv = fn(p, k, oracle_samples=200, seed=SeedSpec(31, d))
                except ValueError as exc:
                    assert "Cech closed form" in str(exc)
                    got[(n, d, eps, k)] = CECH
                    continue
                got[(n, d, eps, k)] = (mv.value.hex(),
                                       mv.truncation["oracle_stderr"].hex())
    assert got == {key: v for key, v in MOMENTS.items() if key[1] == d}


def test_seeded_j_oracle_on_the_circle():
    got = {}
    for i, (name, pattern) in enumerate(PATTERNS.items()):
        for eps in (0.05, 0.2):
            est = j_oracle_mc(pattern, TorusSpec(d=1, a=1.0), eps, 3000,
                              SeedSpec(41, i))
            got[(name, eps)] = (est.value.hex(), est.stderr.hex())
    assert got == J_ORACLE


def test_seeded_kernels_on_the_circle():
    params = ModelParams(lam=10.0, spec=TorusSpec(d=1, a=1.0), epsilon=0.1)
    got = {(name, i): kernel_integral_f_i(gamma, params, i, FIXED[:i], 3000,
                                          SeedSpec(51, j)).hex()
           for j, (name, gamma) in enumerate(GAMMAS.items())
           for i in range(gamma.n + 1)}
    assert got == KERNELS
