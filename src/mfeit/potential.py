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
read-only: the Kress row ``_kress_log_row(n)`` and the first column
``_single_layer_row(n)`` of the circulant C. No n x n matrix of an
inclusion grid is kept. The harmonic lift of the injected current needs no
kernel: ``forward.harmonic_lift`` sums it in closed form.

An n x n step runs in place only where that lowers a peak, and in the
operation order of the plain expression (every dot product as two products
and one sum, never a matmul, whose blocking and FMA would move the last
bit), so results are bit for bit those of one temporary per operation.
Traced peaks, in n x n matrices: assembly builds K* in the free-space
buffer of its two parts (-1), drops the image part and builds S in the
image-term buffer (5.3 against 6.0 without both); the eigensolve builds
B for itself and lets LAPACK overwrite both sym(B K*) and B (4.0 against
5.0 with B kept and copied); the direct solve shifts its copy of K* in
place and drops it early (-2). The m x n trace matrix of
``_target_kernel``, which ``eval_S`` applies and ``forward.solve_u0``
keeps, is the Neumann kernel built in its image-term buffer and weighted
in place (3.0 against 4.0 m x n matrices at m = 64, n = 256). Peak
resident set of the benchmark's spectrum ladder (n up to 512): a fresh S
or a rebound sym(B K*) each raise it, by about 0.3 and 1.8 MB, a B kept
beside the operators by about 2 MB, and so would the untraced copy that
``np.linalg.solve`` makes of the direct solve's matrix, by 4 MB at
n = 512: LAPACK factors that matrix in place instead.
"""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainViolation, TargetTooClose
from .geometry import BoundaryGrid, check_grid_size


def _lazy_module(name: str):
    """``sys.modules[name]``, registered now and executed on first access.

    A module already loaded is returned as it is. Otherwise the module is
    registered through ``importlib.util.LazyLoader`` and runs when one of
    its attributes is first read, so a start that never solves (``extract``,
    a refused config) skips the import (about 0.27 s and 22 MB for
    ``scipy.linalg``). Registering it, rather than importing it inside each
    function, keeps ``sys.modules[name]`` present for code that looks it up
    before any solve, and every caller shares the one module object.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


sla = _lazy_module("scipy.linalg")


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


@lru_cache(maxsize=16)
def _kress_log_row(n: int) -> np.ndarray:
    """First column (and row: the rule is symmetric) of the circulant
    quadrature rule for (1/2pi) int ln(4 sin^2((t-s)/2)) g(s) ds.

    Exact on trigonometric polynomials of degree <= n/2: the symbol maps
    e^{ims} to -(1/|m|) e^{imt} (0 for m = 0, -(2/n) at the Nyquist mode).
    Built once per n and shared, so read-only.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
    d = np.zeros(n)
    nz = freqs != 0
    d[nz] = -1.0 / np.abs(freqs[nz])
    row = np.fft.ifft(d).real
    row.setflags(write=False)
    return row


def _symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 of the square matrix ``M``, in its own buffer."""
    M += M.T
    M *= 0.5
    return M


@dataclass(frozen=True)
class KernelMatrices:
    """Discrete single layer and Neumann-Poincare operators on one grid.

    ``S`` and ``Kstar`` act on nodal density values and return boundary
    traces / normal derivatives at the same nodes (quadrature weights are
    folded in). ``B = -W S`` is the symmetric positive definite Gram matrix
    of the energy inner product <-S phi, psi>, built anew on each access;
    ``eig`` is computed on first use and kept.
    """

    S: np.ndarray
    Kstar: np.ndarray
    grid: BoundaryGrid

    @property
    def B(self) -> np.ndarray:
        return _symmetrize(-(self.grid.weights[:, None] * self.S))

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, V) with sym(B K*) V = B V diag(mu) and V^T B V = I.

        K* is self-adjoint in the energy inner product up to the Calderon
        residual, so K* = V diag(mu) V^T B on the discrete level. Both
        matrices are exactly symmetric, so their transposes are Fortran
        views of the same values: LAPACK overwrites sym(B K*) and B in
        place, the latter with its Cholesky factor. The last pair in
        ``eigh``'s ascending order, mu = 1/2 to rounding, is the equilibrium
        density: no zero-flux current excites it (its coefficient is the
        zero boundary integral of d_nu H; Ammari & Kang, 2007, ch. 2), and
        at k = inf, c = -1/2, it would make every system look singular. It
        is dropped by a view, which copies no n x n matrix; the next mu is
        at most 0.16 on circles, the trefoil and random shapes of the class.
        """
        B = self.B
        A = _symmetrize(B @ self.Kstar)
        mu, V = sla.eigh(A.T, B.T, overwrite_a=True, overwrite_b=True,
                         check_finite=False)
        return mu[:-1], V[:, :-1]


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
    check_grid_size(grid.n, 32, "inclusion grid")
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
    """Trace matrix N(target, node) w(node) of the single layer at
    off-boundary targets: the Neumann kernel, built in its image-term
    buffer and weighted there by the trapezoid weights.

    Targets must keep a distance of more than ``grid.zone``, one local grid
    spacing 2 pi max|x'| / n, from the boundary, where the kernel is smooth;
    the check reuses the squared distances the kernel is built from.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    z = grid.points[None, :, :]
    d2, img2 = _pair_terms(targets[:, None, :], z)
    dist = float(np.sqrt(np.min(d2)))
    if dist <= grid.zone:
        raise TargetTooClose(f"target at distance {dist:.3g} inside accuracy "
                             f"zone {grid.zone:.3g}")
    T = _neumann(z, d2, img2)
    return np.multiply(T, grid.weights[None, :], out=T)


def eval_S(grid: BoundaryGrid, density, targets) -> np.ndarray:
    """S_D[phi] at off-boundary targets (trapezoid); one density per column
    allowed.

    Targets obey the distance rule of ``_target_kernel``, whose trace
    matrix is applied.
    """
    return _target_kernel(grid, targets) @ np.asarray(density)
