"""Recover the frequency-independent voltage from multifrequency data.

The boundary voltage at a fixed point is a meromorphic function of the
contrast k with shared poles (the plasmonic resonances) across boundary
points. Stage 1 fits an adaptive barycentric rational model at a reference
boundary point (greedy support selection, least-squares weights); stage 2
keeps the extracted pole set fixed and solves one linear least-squares
problem per boundary point for constants and residues. The value at
k = infinity is the frequency-free part u0 / k0.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (ContourCrossesPole, FitDiverged, InsufficientFrequencies,
                     NonRealLimit)
from .forward import CauchyData, MultiFreqData
from .geometry import DomainConfig, circle
from .spectrum import resonance_bound

#: quadrature nodes on the contour of ``cauchy_integral_check``
_N_CONTOUR = 4096


@dataclass(frozen=True)
class RationalModel:
    """Shared-pole rational surrogate alpha_i(k) = a_inf_i + sum_n R_in/(k-p_n)."""

    poles: np.ndarray      # (P,) complex, shared across boundary points
    alpha_inf: np.ndarray  # (m,) complex constants
    residues: np.ndarray   # (m, P) complex
    residual: float        # sup fit residual over all data
    scale: float           # sup magnitude of the fitted data

    def to_json(self) -> str:
        return json.dumps({
            "poles": [[p.real, p.imag] for p in self.poles],
            "alpha_inf": [[a.real, a.imag] for a in self.alpha_inf],
            "residues": [[[r.real, r.imag] for r in row]
                         for row in self.residues],
            "residual": self.residual,
            "scale": self.scale,
        }, sort_keys=True)


def _aaa(Z: np.ndarray, F: np.ndarray, rtol: float, max_support: int):
    """Greedy barycentric interpolation; returns (support z, f, weights)."""
    J = Z.size
    mask = np.ones(J, dtype=bool)
    zs, fs = [], []
    R = np.full(J, np.mean(F), dtype=complex)
    scale = np.max(np.abs(F))
    if scale == 0:
        return np.array([]), np.array([]), np.array([])
    w = np.array([])
    for _ in range(max_support):
        j = int(np.argmax(np.abs(F - R) * mask))
        if not mask[j]:
            break
        zs.append(Z[j]); fs.append(F[j]); mask[j] = False
        zsa, fsa = np.array(zs), np.array(fs)
        C = 1.0 / (Z[mask, None] - zsa[None, :])
        A = (F[mask, None] - fsa[None, :]) * C
        _, _, Vh = np.linalg.svd(A)
        w = Vh[-1].conj()
        num = C @ (w * fsa)
        den = C @ w
        R = F.copy()
        R[mask] = num / den
        if np.max(np.abs(F - R)) <= rtol * scale:
            break
    return np.array(zs), np.array(fs), w


def _barycentric_poles(zs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Poles of the barycentric form via the generalized arrowhead eigenproblem."""
    m = zs.size
    if m < 2:
        return np.array([], dtype=complex)
    E = np.zeros((m + 1, m + 1), dtype=complex)
    E[1:, 1:] = np.eye(m)
    A = np.zeros((m + 1, m + 1), dtype=complex)
    A[0, 1:] = w
    A[1:, 0] = 1.0
    A[1:, 1:] = np.diag(zs)
    ev = sla.eigvals(A, E)
    return ev[np.isfinite(ev)]


@functools.lru_cache(maxsize=32)
def admissible_pole_region(config: DomainConfig) -> tuple[complex, float]:
    """(center, radius) disk around the class-uniform resonance segment.

    Uses the prior lower bound from the class constant b0, not the unknown
    shape, so the same region works for every admissible inclusion. Computed
    once per (frozen, hashable) config.
    """
    delta_hat_inv = abs(resonance_bound(circle(config.b0), config.k0))
    center = complex(-0.5 * delta_hat_inv, 0.0)
    return center, 1.5 * delta_hat_inv


def fit_rational(data: MultiFreqData, max_poles: int = 6, tol: float = 1e-9,
                 *, config: DomainConfig) -> RationalModel:
    """Shared-pole rational model of the voltage as a function of contrast."""
    kvals = np.asarray(data.k, dtype=complex)
    if np.unique(kvals).size < 2 * max_poles + 2:
        raise InsufficientFrequencies(
            f"need at least {2 * max_poles + 2} distinct contrasts, "
            f"got {np.unique(kvals).size}")
    U = data.U
    scale = float(np.max(np.abs(U)))
    if scale == 0:
        m = U.shape[0]
        return RationalModel(poles=np.zeros(0, dtype=complex),
                             alpha_inf=np.zeros(m, dtype=complex),
                             residues=np.zeros((m, 0), dtype=complex),
                             residual=0.0, scale=0.0)

    # reference point: strongest frequency variation
    ref = int(np.argmax(np.std(U, axis=1)))
    zs, _, w = _aaa(kvals, U[ref], tol, max_support=max_poles + 1)
    poles = _barycentric_poles(zs, w)

    center, radius = admissible_pole_region(config)
    poles = poles[np.abs(poles - center) <= radius]
    # a pole sitting on a data sample would make the LS basis singular
    if poles.size:
        dmin = np.min(np.abs(poles[:, None] - kvals[None, :]), axis=1)
        poles = poles[dmin > 1e-13 * max(1.0, float(np.max(np.abs(kvals))))]

    def _least_squares(p):
        basis = np.ones((kvals.size, p.size + 1), dtype=complex)
        for j, pole in enumerate(p):
            basis[:, j + 1] = 1.0 / (kvals - pole)
        X, *_ = np.linalg.lstsq(basis, U.T, rcond=None)
        resid = float(np.max(np.abs(basis @ X - U.T)))
        return X, resid

    X, resid = _least_squares(poles)
    if poles.size:
        strength = np.max(np.abs(X[1:]), axis=1)
        keep = strength >= tol * scale
        if not np.all(keep):
            poles = poles[keep]
            X, resid = _least_squares(poles)

    # allow an order of magnitude of slack for quadrature/noise floors
    if resid > 10 * tol * scale:
        raise FitDiverged(
            f"residual {resid:.3g} above tolerance {tol * scale:.3g} "
            f"with {poles.size} poles")

    return RationalModel(poles=poles, alpha_inf=X[0].copy(),
                         residues=X[1:].T.copy(), residual=resid, scale=scale)


def extract_u0(model: RationalModel, k0: float) -> CauchyData:
    """Frequency-free voltage u0 = k0 * alpha(infinity), recentered.

    alpha(infinity) must be real up to 50 times the relative fit residual
    (at least 1e-8). The constant value rho on the inclusion is not
    observable here; the voltages sit on the equispaced angles 2 pi i / m.
    """
    imag_tol = max(1e-8, 50 * model.residual / max(model.scale, 1e-300))
    alpha = model.alpha_inf
    scale = max(float(np.max(np.abs(alpha))), 1e-300)
    worst = float(np.max(np.abs(alpha.imag))) / scale
    if worst > imag_tol:
        raise NonRealLimit(
            f"relative imaginary part {worst:.3g} exceeds {imag_tol:.3g}")
    u0 = k0 * alpha.real
    return CauchyData(f=None, u0=u0 - np.mean(u0))


def cauchy_integral_check(model: RationalModel, center: complex,
                          radius: float, k_eval: complex,
                          index: int = 0) -> complex:
    """Frequency part at an exterior contrast via the contour representation.

    Integrates the fitted model's pole part over the circle of ``center``
    and ``radius``, which must enclose all poles; must reproduce the direct
    evaluation alpha(k_eval) - alpha_inf. This is the oracle of the paper's
    contour representation of the frequency dependence: the pipeline never
    calls it, and tests compare the fitted model's direct evaluation
    against it.
    """
    if model.poles.size:
        if np.max(np.abs(model.poles - center)) >= radius * (1 - 1e-12):
            raise ContourCrossesPole("a model pole lies on or outside the contour")
    if abs(k_eval - center) <= radius:
        raise ContourCrossesPole("evaluation point inside the contour")
    t = 2 * np.pi * np.arange(_N_CONTOUR) / _N_CONTOUR
    kq = center + radius * np.exp(1j * t)
    dk = 1j * radius * np.exp(1j * t) * (2 * np.pi / _N_CONTOUR)
    pole_part = np.zeros(_N_CONTOUR, dtype=complex)
    for p, r in zip(model.poles, model.residues[index]):
        pole_part += r / (kq - p)
    integral = np.sum(pole_part / (kq - k_eval) * dk) / (2j * np.pi)
    # exterior-point orientation: the residue sum equals minus the integral
    return -integral
