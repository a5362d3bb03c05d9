"""Layer potentials built on the Neumann function of the unit disk.

The Neumann function used throughout is the image-charge closed form

    N(x, z) = (1/4pi) ln( |x - z|^2 (|x|^2 |z|^2 - 2 x.z + 1) ),

which satisfies Delta_x N = delta_z in the disk, dN/dnu = 1/(2pi) on the
unit circle and has zero boundary mean. The image factor is smooth whenever
x stays in the closed disk and z inside, so only the free-space factor needs
the singular quadrature. Every kernel entry costs one logarithm, of the
product of the two factors.

The single layer S_D is assembled with the periodic log-kernel product rule
(Kress, Linear Integral Equations, 3rd ed., sec. 12.3), spectrally accurate
for smooth boundaries. Its singular part depends on the parameter alone, so
it is one circulant, R/2 - (h/4pi) ln 4 sin^2((t-s)/2), built from a vector;
the shape enters only through the smooth remainder (h/4pi) ln(d2 img2),
whose diagonal takes the limit (h/4pi) ln(|x'|^2 img2). The normal-derivative
kernel of K*_D takes its smooth diagonal limit kappa/(4pi) plus the image
contribution evaluated directly; both operators share one set of squared
distances and image terms. Each ``KernelMatrices`` also carries, computed
once on first use, the eigendecomposition of K*_D in the energy inner
product, which diagonalizes every forward solve on that shape.

What depends on the grid size alone is built once per size and shared
read-only: the Kress row ``_kress_log_row(n)``, the first column
``_single_layer_row(n)`` of the circulant C, and the m x m measurement rule
``kress_log_matrix(m)``. No n x n matrix of an inclusion grid is kept.

An n x n step runs in place only where that lowers a peak, and in the
operation order of the plain expression (every dot product as two products
and one sum, never a matmul, whose blocking and FMA would move the last
bit), so results are bit for bit those of one temporary per operation.
Traced peaks, in n x n matrices: assembly builds K* in the free-space
buffer of its two parts (-1), drops the image part and builds S in the
image-term buffer (5.3 against 6.0 without both); the eigensolve lets
LAPACK overwrite sym(B K*) (-1); the direct solve shifts its copy of K* in
place and drops it early (-2). The m x n trace matrix is the Neumann kernel
built in its image-term buffer and weighted in place (3.0 against 4.0 m x n
matrices at m = 64, n = 256). Peak resident set of the benchmark's
spectrum ladder (n up to 512): a fresh S, a rebound B or a rebound
sym(B K*) each raise it, by about 0.3, 1 and 1.8 MB, and so would the
untraced copy that ``np.linalg.solve`` makes of the direct solve's matrix,
by 4 MB at n = 512: LAPACK factors that matrix in place instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla

from .errors import (DomainViolation, InvalidResolution, SingularEvaluation,
                     TargetTooClose)
from .geometry import BoundaryGrid


def _dot(a, b):
    """Inner product of 2-vectors over the last axis, broadcasting the rest."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _pair_terms(x, z):
    """d2 = |x - z|^2 and the image term |x|^2 |z|^2 - 2 x.z + 1.

    The image term equals | |z| x - z/|z| |^2, smooth through z -> 0, and is
    formed as d2 + (1 - |x|^2)(1 - |z|^2): a sum of two non-negative terms in
    the closed disk. Both are built componentwise and in place, so broadcast
    point sets never form an (..., 2) difference array.
    """
    d2 = x[..., 0] - z[..., 0]
    d2 *= d2
    dy = x[..., 1] - z[..., 1]
    dy *= dy
    d2 += dy
    del dy
    img2 = (1.0 - _dot(x, x)) * (1.0 - _dot(z, z))
    img2 += d2
    return d2, img2


def neumann_kernel(x, z):
    """Neumann function of the unit disk, elementwise over broadcast points.

    ``x`` may lie anywhere in the closed disk, ``z`` strictly inside; the
    two must not coincide.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    d2, img2 = _pair_terms(x, z)
    if np.any(d2 == 0.0):
        raise SingularEvaluation("Neumann kernel evaluated at x == z")
    return _neumann(z, d2, img2)


def _neumann(z, d2, img2):
    """N(x, z) from d2 = |x - z|^2 > 0 and the image term of ``_pair_terms``.

    ``z`` must lie in the open disk. N is built in the buffer of ``img2``,
    which it overwrites (a scalar, for two single points, is copied).
    """
    if np.any(_dot(z, z) >= 1.0):
        raise DomainViolation("source point z must lie in the open unit disk")
    img2 = np.asarray(img2)
    img2 *= d2
    np.log(img2, out=img2)
    img2 /= 4 * np.pi
    return img2


def _normal_derivative_parts(x, z, nu, d2, img2):
    """Free-space and image parts of nu . grad_x N(x, z); free is nan at x == z.

    ``d2`` and ``img2`` are the ``_pair_terms`` of ``x`` and ``z``. Each
    part is built in its own buffer with one scratch buffer beside them,
    and every dot product as two products and one sum, never a matmul.
    """
    shape = np.broadcast(d2, nu[..., 0]).shape  # () for two single points
    free = np.subtract(x[..., 0], z[..., 0], out=np.empty(shape))
    free *= nu[..., 0]
    scratch = np.subtract(x[..., 1], z[..., 1], out=np.empty(shape))
    scratch *= nu[..., 1]
    free += scratch
    np.multiply(2 * np.pi, d2, out=scratch)
    with np.errstate(divide="ignore", invalid="ignore"):
        free /= scratch
    image = np.multiply(z[..., 0], nu[..., 0], out=np.empty(shape))
    np.multiply(z[..., 1], nu[..., 1], out=scratch)
    image += scratch  # z . nu
    np.multiply(_dot(z, z), _dot(x, nu), out=scratch)
    np.subtract(scratch, image, out=image)
    np.multiply(2 * np.pi, img2, out=scratch)
    image /= scratch
    return free, image


def neumann_normal_derivative(x, z, nu):
    """nu . grad_x N(x, z), elementwise over broadcast points.

    Both points may lie anywhere in the closed disk, ``z`` on the unit circle
    included (where the harmonic lift puts its sources), but must not
    coincide; ``nu`` is the direction at ``x``.
    """
    x, z, nu = (np.asarray(a, dtype=float) for a in (x, z, nu))
    free, image = _normal_derivative_parts(x, z, nu, *_pair_terms(x, z))
    if np.any(np.isnan(free)):
        raise SingularEvaluation("Neumann kernel gradient evaluated at x == z")
    return free + image


@lru_cache(maxsize=16)
def _kress_log_row(n: int) -> np.ndarray:
    """First column (and row: the rule is symmetric) of ``kress_log_matrix(n)``.

    Built once per n and shared, so read-only.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
    d = np.zeros(n)
    nz = freqs != 0
    d[nz] = -1.0 / np.abs(freqs[nz])
    row = np.fft.ifft(d).real
    row.setflags(write=False)
    return row


@lru_cache(maxsize=4)
def kress_log_matrix(n: int) -> np.ndarray:
    """Circulant quadrature rule for (1/2pi) int ln(4 sin^2((t-s)/2)) g(s) ds.

    Exact on trigonometric polynomials of degree <= n/2: the symbol maps
    e^{ims} to -(1/|m|) e^{imt} (0 for m = 0, -(2/n) at the Nyquist mode).
    Built once per n for the measurement grid and shared, so read-only.
    """
    R = sla.circulant(_kress_log_row(n))
    R.setflags(write=False)
    return R


def check_resolution(n: int) -> None:
    """Raise ``InvalidResolution`` unless n is even and at least 32.

    The rule of every inclusion grid that operators are built on.
    """
    if n % 2 != 0 or n < 32:
        raise InvalidResolution(f"need even n >= 32 nodes, got {n}")


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
        B = -(self.grid.weights[:, None] * self.S)
        B += B.T
        B *= 0.5
        return B

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, V) with sym(B K*) V = B V diag(mu) and V^T B V = I.

        K* is self-adjoint in the energy inner product up to the Calderon
        residual, so K* = V diag(mu) V^T B on the discrete level. Both
        matrices are exactly symmetric, so their transposes are Fortran
        views of the same values: LAPACK overwrites sym(B K*) in place and
        copies only B, which stays cached.
        """
        A = self.B @ self.Kstar
        A += A.T
        A *= 0.5
        return sla.eigh(A.T, self.B.T, overwrite_a=True, check_finite=False)


def _node_pairs(grid: BoundaryGrid) -> tuple[np.ndarray, np.ndarray]:
    """``_pair_terms`` of every pair of nodes.

    The zero diagonal of d2 is replaced by |x'(t)|^2, the diagonal limit of
    d2 / 4 sin^2((t - s)/2), which is what the single layer takes the log of.
    """
    pts = grid.points
    d2, img2 = _pair_terms(pts[:, None, :], pts[None, :, :])
    np.fill_diagonal(d2, grid.jacobian ** 2)
    return d2, img2


@lru_cache(maxsize=16)
def _single_layer_row(n: int) -> np.ndarray:
    """First column of the circulant C = R/2 - (h/4pi) ln 4 sin^2((t-s)/2).

    The log is zero on the diagonal. Built once per n and shared, so
    read-only.
    """
    h = 2 * np.pi / n
    c = 0.5 * _kress_log_row(n)
    c[1:] -= (h / (4 * np.pi)) * np.log(
        4.0 * np.sin(np.pi * np.arange(1, n) / n) ** 2)
    c.setflags(write=False)
    return c


def _assemble_single_layer(grid: BoundaryGrid, pairs=None) -> np.ndarray:
    """Discrete S_D; ``pairs`` are the ``_node_pairs`` of the grid if given.

    S = [C + (h/4pi) ln(d2 img2)] diag|x'|, where the circulant C of
    ``_single_layer_row`` holds everything that depends on the parameter
    alone. S is built in the image-term buffer of ``pairs``, which it
    overwrites.
    """
    d2, S = _node_pairs(grid) if pairs is None else pairs
    S *= d2
    np.log(S, out=S)
    S *= grid.h / (4 * np.pi)
    S += sla.circulant(_single_layer_row(grid.n))
    S *= grid.jacobian[None, :]
    return S


def assemble(grid: BoundaryGrid) -> KernelMatrices:
    """Discrete S_D and K*_D on an inclusion boundary grid.

    K* is built in the free-space buffer and S in the image-term buffer of
    the node pairs, so the n x n working set peaks at five matrices: the
    two pair terms, the two parts of K* and one scratch buffer.
    """
    check_resolution(grid.n)
    pts = grid.points
    pairs = _node_pairs(grid)
    Kstar, image = _normal_derivative_parts(pts[:, None, :], pts[None, :, :],
                                            grid.normals[:, None, :], *pairs)
    # K* only replaces the free-space diagonal, by its limit kappa/(4pi)
    np.fill_diagonal(Kstar, grid.curvature / (4 * np.pi))
    Kstar += image
    del image
    Kstar *= grid.weights[None, :]
    return KernelMatrices(S=_assemble_single_layer(grid, pairs), Kstar=Kstar,
                          grid=grid)


def _target_kernel(grid: BoundaryGrid, targets) -> np.ndarray:
    """Matrix N(target, node) of the Neumann kernel for off-boundary targets.

    Targets must keep a distance of at least one local grid spacing
    2 pi max|x'| / n from the boundary, where the kernel is smooth enough;
    the check reuses the squared distances the kernel is built from.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    z = grid.points[None, :, :]
    d2, img2 = _pair_terms(targets[:, None, :], z)
    dist = float(np.sqrt(np.min(d2)))
    zone = grid.h * float(np.max(grid.jacobian))
    if dist <= zone:
        raise TargetTooClose(
            f"target at distance {dist:.3g} inside accuracy zone {zone:.3g}")
    return _neumann(z, d2, img2)


def trace_matrix(grid: BoundaryGrid, targets) -> np.ndarray:
    """Matrix of S_D from nodal densities to off-boundary targets (trapezoid).

    Targets obey the distance rule of ``_target_kernel``; the weights are
    applied in place.
    """
    T = _target_kernel(grid, targets)
    T *= grid.weights[None, :]
    return T


def eval_S(grid: BoundaryGrid, density, targets) -> np.ndarray:
    """S_D[phi] at off-boundary targets; one density per column allowed."""
    return trace_matrix(grid, targets) @ np.asarray(density)
