"""Layer potentials built on the Neumann function of the unit disk.

The Neumann function used throughout is the image-charge closed form

    N(x, z) = (1/4pi) [ ln|x - z|^2 + ln(|x|^2 |z|^2 - 2 x.z + 1) ],

which satisfies Delta_x N = delta_z in the disk, dN/dnu = 1/(2pi) on the
unit circle and has zero boundary mean. The second log is smooth whenever
x stays strictly inside the closed disk times z inside, so only the
free-space log needs the singular quadrature.

The single layer S_D and the Neumann-Poincare operator K*_D are assembled
with the classical periodic log-kernel product rule (spectrally accurate
for smooth boundaries); the normal-derivative kernel takes its smooth
diagonal limit kappa/(4pi) plus the image contribution evaluated directly.
Each ``KernelMatrices`` also carries, computed once on first use, the
eigendecomposition of K*_D in the energy inner product, which diagonalizes
every forward solve on that shape.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import (DomainViolation, ResolutionTooLow, SingularEvaluation,
                     TargetTooClose)
from .geometry import BoundaryGrid


def _dot(a, b):
    """Inner product over the last axis, broadcasting the leading axes."""
    return np.einsum("...k,...k->...", a, b)


def _image(x, z):
    """|  |z| x - z/|z| |^2 = |x|^2 |z|^2 - 2 x.z + 1, smooth through z -> 0."""
    return _dot(x, x) * _dot(z, z) - 2.0 * _dot(x, z) + 1.0


def neumann_kernel(x, z):
    """Neumann function of the unit disk, elementwise over broadcast points.

    ``x`` may lie anywhere in the closed disk, ``z`` strictly inside; the
    two must not coincide.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(_dot(z, z) >= 1.0):
        raise DomainViolation("source point z must lie in the open unit disk")
    d2 = _dot(x - z, x - z)
    if np.any(d2 == 0.0):
        raise SingularEvaluation("Neumann kernel evaluated at x == z")
    return (np.log(d2) + np.log(_image(x, z))) / (4 * np.pi)


def _normal_derivative_parts(x, z, nu):
    """Free-space and image parts of nu . grad_x N(x, z); free is nan at x == z."""
    diff = x - z
    with np.errstate(divide="ignore", invalid="ignore"):
        free = _dot(diff, nu) / (2 * np.pi * _dot(diff, diff))
    image = (_dot(z, z) * _dot(x, nu) - _dot(z, nu)) / (2 * np.pi * _image(x, z))
    return free, image


def neumann_normal_derivative(x, z, nu):
    """nu . grad_x N(x, z), elementwise over broadcast points.

    Both points may lie anywhere in the closed disk, ``z`` on the unit circle
    included (where the harmonic lift puts its sources), but must not
    coincide; ``nu`` is the direction at ``x``.
    """
    free, image = _normal_derivative_parts(
        *(np.asarray(a, dtype=float) for a in (x, z, nu)))
    if np.any(np.isnan(free)):
        raise SingularEvaluation("Neumann kernel gradient evaluated at x == z")
    return free + image


def kress_log_matrix(n: int) -> np.ndarray:
    """Circulant quadrature rule for (1/2pi) int ln(4 sin^2((t-s)/2)) g(s) ds.

    Exact on trigonometric polynomials of degree <= n/2: the symbol maps
    e^{ims} to -(1/|m|) e^{imt} (0 for m = 0, -(2/n) at the Nyquist mode).
    """
    freqs = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
    d = np.zeros(n)
    nz = freqs != 0
    d[nz] = -1.0 / np.abs(freqs[nz])
    row = np.fft.ifft(d).real
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return row[idx]


@dataclass(frozen=True)
class KernelMatrices:
    """Discrete single layer and Neumann-Poincare operators on one grid.

    ``S`` and ``Kstar`` act on nodal density values and return boundary
    traces / normal derivatives at the same nodes (quadrature weights are
    folded in). ``B = -W S`` is the symmetric positive definite Gram matrix
    of the energy inner product <-S phi, psi>; ``B`` and ``eig`` are computed
    on first use and kept.
    """

    S: np.ndarray
    Kstar: np.ndarray
    grid: BoundaryGrid

    @cached_property
    def B(self) -> np.ndarray:
        W = self.grid.weights
        M = -(W[:, None] * self.S)
        return 0.5 * (M + M.T)

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, V) with sym(B K*) V = B V diag(mu) and V^T B V = I.

        K* is self-adjoint in the energy inner product up to the Calderon
        residual, so K* = V diag(mu) V^T B on the discrete level.
        """
        A = self.B @ self.Kstar
        return sla.eigh(0.5 * (A + A.T), self.B)

    def calderon_residual(self) -> float:
        """Relative asymmetry of K* in the -S inner product (-> 0 with n)."""
        W = self.grid.weights
        M = -(W[:, None] * self.S)
        A = M @ self.Kstar
        return float(np.linalg.norm(A - A.T) / np.linalg.norm(M))


def _assemble_single_layer(grid: BoundaryGrid) -> np.ndarray:
    pts, t, h = grid.points, grid.t, grid.h
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = _dot(diff, diff)
    sin2 = 4.0 * np.sin(0.5 * (t[:, None] - t[None, :])) ** 2
    np.fill_diagonal(d2, 1.0)
    np.fill_diagonal(sin2, 1.0)
    # smooth remainder of the free-space log, diagonal limit ln|x'(t)|
    M = 0.5 * np.log(d2 / sin2)
    np.fill_diagonal(M, np.log(grid.jacobian))
    img2 = _image(pts[:, None, :], pts[None, :, :])
    return (0.5 * kress_log_matrix(grid.n) + (h / (2 * np.pi)) * M
            + (h / (4 * np.pi)) * np.log(img2)) * grid.jacobian[None, :]


def assemble(grid: BoundaryGrid) -> KernelMatrices:
    """Discrete S_D and K*_D on an inclusion boundary grid."""
    if grid.n < 32:
        raise ResolutionTooLow(f"need n >= 32 nodes, got {grid.n}")
    pts = grid.points
    free, image = _normal_derivative_parts(pts[:, None, :], pts[None, :, :],
                                           grid.normals[:, None, :])
    # K* only replaces the free-space diagonal, by its limit kappa/(4pi)
    np.fill_diagonal(free, grid.curvature / (4 * np.pi))
    return KernelMatrices(S=_assemble_single_layer(grid),
                          Kstar=(free + image) * grid.weights[None, :],
                          grid=grid)


def trace_matrix(grid: BoundaryGrid, targets) -> np.ndarray:
    """Matrix of S_D from nodal densities to off-boundary targets (trapezoid).

    Targets must keep a distance of at least one local grid spacing
    2 pi max|x'| / n from the boundary, where the kernel is smooth enough.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    dist = np.sqrt(np.min(np.sum(
        (targets[:, None, :] - grid.points[None, :, :]) ** 2, axis=-1), axis=1))
    zone = grid.h * float(np.max(grid.jacobian))
    if np.any(dist <= zone):
        raise TargetTooClose(
            f"target at distance {dist.min():.3g} inside accuracy zone {zone:.3g}")
    return (neumann_kernel(targets[:, None, :], grid.points[None, :, :])
            * grid.weights[None, :])


def eval_S(grid: BoundaryGrid, density, targets) -> np.ndarray:
    """S_D[phi] at off-boundary targets; one density per column allowed."""
    return trace_matrix(grid, targets) @ np.asarray(density)
