"""sobolab: Sobolev-space bump interpolants and overfitting experiments.

A numerical laboratory around one construction: interpolate n noisy labels
by disjointly supported smooth bumps whose radii come from nearest-neighbor
distances, compute the interpolant's W^{k,p} norm exactly via precomputed
reference moduli, and measure how risk, norm, and local geometry scale with
the sample size and with the norm-minimization factor gamma.
"""

from . import (  # noqa: F401
    bump,
    config,
    experiments,
    geometry,
    interpolant,
    model,
    morrey,
    quadrature,
    risk,
    rkhs,
)
from .bump import BumpSum, ReferenceModuli, SobolevParams  # noqa: F401
from .geometry import Dataset, NnGraph  # noqa: F401
from .interpolant import GammaReport  # noqa: F401
from .model import DistributionSpec, NoiseConstants, SubsetSelection  # noqa: F401
from .risk import RiskEstimate  # noqa: F401
from .rkhs import KernelInterpolant, KernelSpec  # noqa: F401

__version__ = "0.1.0"
