"""Random geometric simplicial complexes on the flat torus.

Simulation and exact-moment analysis of Rips-Vietoris complexes built over
Poisson and Binomial point processes on the d-dimensional flat torus:
simplex counts, Betti numbers, Euler characteristic, closed-form moments,
concentration bounds, subcomplex counting, and Monte Carlo verification
harnesses.
"""

from .torus import Metric, TorusSpec
from .sampling import Binomial, PointConfiguration, Poisson, SeedSpec, sample
from .complexes import ComplexParams, Convention, GeometricComplex, simplex_counts
from .homology import HomologyResult
from .moments import ModelParams, MomentValue, mean_Nk, mean_chi

__version__ = "0.1.0"

__all__ = [
    "Metric", "TorusSpec", "Binomial", "PointConfiguration", "Poisson",
    "SeedSpec", "sample", "ComplexParams", "Convention", "GeometricComplex",
    "simplex_counts", "HomologyResult", "ModelParams", "MomentValue", "mean_Nk",
    "mean_chi",
]
