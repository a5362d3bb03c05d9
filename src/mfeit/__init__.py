"""Multifrequency electrical impedance tomography in the unit disk.

Pipeline: forward simulation of boundary voltages for a frequency-dependent
conductivity inclusion via the Neumann-Poincare spectral decomposition,
extraction of the frequency-independent perfect-conductor Cauchy data from
multifrequency measurements by shared-pole rational fitting, and
Levenberg-Marquardt recovery of the star-shaped inclusion.
"""

from .errors import MfeitError
from .geometry import (BoundaryGrid, DomainConfig, StarShape,
                       build_star_shape, circle, discretize, r_inf,
                       unit_circle_grid)
from .potential import KernelMatrices, assemble, eval_S
from .spectrum import NPSpectrum, compute_spectrum, resonance_bound
from .forward import (CauchyData, FrequencyProfile, MultiFreqData,
                      current_from_fourier, solve_forward_direct,
                      solve_forward_spectral, solve_u0, synthesize,
                      u0_shape_derivative)
from .disentangle import RationalModel, extract_u0, fit_rational
from .reconstruct import (InversionResult, InversionSettings, SweepResult,
                          invert, stability_sweep,
                          symmetric_difference)

__all__ = [
    "MfeitError", "BoundaryGrid", "DomainConfig", "StarShape",
    "build_star_shape", "circle", "discretize", "r_inf", "unit_circle_grid",
    "KernelMatrices", "assemble", "eval_S",
    "NPSpectrum", "compute_spectrum", "resonance_bound",
    "CauchyData", "FrequencyProfile", "MultiFreqData", "current_from_fourier",
    "solve_forward_direct", "solve_forward_spectral", "solve_u0", "synthesize",
    "u0_shape_derivative",
    "RationalModel", "extract_u0", "fit_rational",
    "InversionResult", "InversionSettings", "SweepResult", "invert",
    "stability_sweep", "symmetric_difference",
]

__version__ = "0.1.0"
