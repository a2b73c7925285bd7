"""Second-order non-Markovian master equations for finite-dimensional open
quantum systems: TCL2 assembly, pseudo-Lindblad decomposition, complete
positivity audits, bath correlation functions, Liouvillian spectral
perturbation theory, Laplace-domain memory kernels, regression-theorem
corrections, and an exact-diagonalization oracle."""

from . import (  # noqa: F401
    bath,
    core,
    memkernel,
    multitime,
    oracle,
    positivity,
    spectral,
    tcl2,
)
from .bath import ExponentialOU, Tabulated, ThermalLorentz, WhiteNoise  # noqa: F401
from .tcl2 import SystemModel, build_L2, propagate  # noqa: F401

__version__ = "1.0.0"
