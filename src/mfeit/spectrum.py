"""Variational Poincare spectrum, eigenfunction traces, plasmonic resonances.

Eigenfunctions are single layer potentials S_D[phi_n]; the spectrum comes
from the boundary reduction of the variational operator, i.e. a symmetric
generalized eigenproblem for K*_D in the energy inner product <-S .,.>.
With this package's kernel conventions the variational eigenvalue is
lambda = 1/2 - mu for mu an eigenvalue of the discrete K*_D (verified
against the concentric-disk closed form lambda_n = (1 + r0^(2n)) / 2).

Resonances are the contrasts whose shift c = (k0 + k) / (2 (k0 - k)) is
-mu_n = lambda_n - 1/2, hence k_n = k0 (1 - 1/lambda_n); they accumulate
at -k0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .geometry import StarShape, unit_circle_grid, r_inf
from .potential import KernelMatrices, eval_S

#: modes with |lambda - 1/2| at or below this are unresolved tail
DEFAULT_TAIL = 1e-8


@dataclass(frozen=True)
class NPSpectrum:
    """Resolved part of the Poincare spectrum on one inclusion grid."""

    lam: np.ndarray             # (k,) eigenvalues in (0,1), |lam-1/2| descending
    traces_bd_omega: np.ndarray  # (m, k) traces of w_n at angles 2 pi i / m
    resonances: np.ndarray      # (k,) k_n = k0 (1 - 1/lambda_n)
    k0: float
    n_discarded: int            # tail modes dropped below the threshold

    def report(self, bound: float) -> dict:
        return {"lambda": self.lam.tolist(),
                "resonances": self.resonances.tolist(), "k0": self.k0,
                "n_discarded": self.n_discarded, "bound": float(bound)}


def compute_spectrum(kernels: KernelMatrices, n_modes: int, k0: float = 1.0,
                     n_boundary: int = 256,
                     tail: float = DEFAULT_TAIL) -> NPSpectrum:
    """Leading eigenvalues of the variational operator and the traces of
    their energy-normalized eigenfunctions.

    Tail modes with |lambda - 1/2| <= tail, which the grid cannot resolve,
    are discarded; ``kernels.eig`` holds no equilibrium mode (lambda = 0).
    """
    n = kernels.grid.n
    if n_modes > n // 4:
        raise NotConverged(f"{n_modes} modes not resolvable on {n} nodes")
    mu, V = kernels.eig  # columns are B-orthonormal: unit energy
    lam = 0.5 - mu

    # compose the column index first, then gather the kept columns once
    idx = np.flatnonzero(np.abs(lam - 0.5) > tail)
    n_discarded = lam.size - idx.size
    idx = idx[np.argsort(-np.abs(lam[idx] - 0.5), kind="stable")]
    if idx.size < n_modes:
        raise NotConverged(
            f"only {idx.size} modes resolved above tail {tail:g}, "
            f"requested {n_modes}")
    idx = idx[:n_modes]
    lam = lam[idx]

    traces = eval_S(kernels.grid, V[:, idx],
                    unit_circle_grid(n_boundary).points)
    return NPSpectrum(lam=lam, traces_bd_omega=traces,
                      resonances=k0 * (1.0 - 1.0 / lam), k0=k0,
                      n_discarded=n_discarded)


def resonance_bound(shape: StarShape, k0: float = 1.0) -> float:
    """Class-uniform lower bound -k0 (1 + ((r+2)/r)^2) on all resonances."""
    r = r_inf(shape)
    return -k0 * (1.0 + ((r + 2.0) / r) ** 2)
