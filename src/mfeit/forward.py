"""Forward mfEIT solvers and multifrequency dataset synthesis.

Four routes to the boundary voltage:

* ``solve_forward_batched`` -- the second-kind integral equation in the
  contrast k, (c + K*) phi = -d_nu frak / k0 with c = (k0 + k) / (2 (k0 - k)),
  diagonalized in the energy eigenbasis of K* that the shape's
  ``KernelMatrices`` computes once: every contrast of a sweep costs one
  diagonal solve, and the distance min|c + mu| to the nearest resonance is
  checked for free. ``synthesize`` and ``mfeit forward`` use it.
* ``solve_forward_direct`` -- the same equation by one dense LU per contrast,
  kept as the independent oracle for the batched route and the spectral one,
* ``solve_forward_spectral`` -- truncated resonance expansion
  u = u0/k0 + sum_n c_n w_n / (k0 + lambda_n (k - k0)),
* ``solve_u0`` -- the perfect-conductor limit, whose Cauchy data drive the
  shape reconstruction; ``u0_shape_derivative`` is its domain derivative
  and reuses that solve's LU factors and trace matrix.

All boundary voltages are recentered to zero mean on the measurement circle.
"""
from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import NearResonance, SingularSystem
from .geometry import (BoundaryGrid, StarShape, discretize, fourier_series,
                       unit_circle_grid)
from .potential import (KernelMatrices, _assemble_single_layer,
                        _target_kernel, eval_S, kress_log_matrix,
                        neumann_normal_derivative, trace_matrix)
from .spectrum import NPSpectrum

#: smallest admitted distance of a forward system from singularity
_RESONANCE_TOL = 1e-10


def current_from_fourier(cos_coeffs, sin_coeffs, bgrid: BoundaryGrid) -> np.ndarray:
    """Zero-mean injected current from Fourier coefficients (mode >= 1)."""
    return fourier_series((0.0, *cos_coeffs), sin_coeffs, bgrid.t)[0]


def _check_zero_mean(f: np.ndarray, bgrid: BoundaryGrid, what: str) -> None:
    mean = float(np.sum(f * bgrid.weights)) / bgrid.perimeter
    scale = float(np.max(np.abs(f))) or 1.0
    if abs(mean) > 1e-12 * scale:
        raise ValueError(f"{what} must have zero boundary mean, got {mean:g}")


def _recenter(values: np.ndarray, bgrid: BoundaryGrid) -> np.ndarray:
    """Subtract the boundary mean of each column."""
    w = bgrid.weights.reshape((-1,) + (1,) * (values.ndim - 1))
    return values - np.sum(values * w, axis=0) / bgrid.perimeter


def _check_contrasts(k: np.ndarray) -> None:
    """Raise ``ValueError`` if a contrast touches the closed negative real
    axis, where the resonances lie."""
    on_axis = (np.abs(k.imag) < 1e-14) & (k.real <= 0)
    if np.any(on_axis):
        raise ValueError(f"contrast {k[on_axis][0]} touches the closed "
                         f"negative real axis")


def _affine(omega, *, k_r, c):
    return k_r + 1j * c * omega


def _debye(omega, *, k_inf, k_s, tau):
    return k_inf + (k_s - k_inf) / (1 + 1j * omega * tau)


#: contrast laws by model name; their keywords are the model's parameters
_PROFILES = {"affine": _affine, "debye": _debye}


@dataclass(frozen=True)
class FrequencyProfile:
    """Contrast law k(omega); must avoid the closed negative real axis.

    ``affine``: k = k_r + i c omega.
    ``debye``:  k = k_inf + (k_s - k_inf) / (1 + i omega tau).
    """

    model: str
    params: dict

    def contrast(self, omega) -> np.ndarray:
        """An unknown or missing parameter raises ``TypeError`` naming it,
        and a contrast on the closed negative real axis ``ValueError``."""
        if self.model not in _PROFILES:
            raise ValueError(f"unknown frequency profile model {self.model!r}")
        k = _PROFILES[self.model](np.asarray(omega, dtype=float), **self.params)
        _check_contrasts(k)
        return k

    @classmethod
    def from_dict(cls, d: dict) -> "FrequencyProfile":
        d = dict(d)
        return cls(model=d.pop("model"), params=d)


def _read_table(text: str, optional: int | None = None,
                need: tuple = ()) -> tuple:
    """(header, numeric CSV body), the body all finite bar an all-NaN
    (unrecorded) ``optional`` column, the header at least as long as the
    column names ``need``.

    The body is converted in one call, which parses each cell as ``float``
    does; a body it refuses is walked only to name the first bad cell by
    row (the header is row 1) and column.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or not rows[0]:  # csv reads a blank line as no cells
        raise ValueError("no header or no data rows")
    header = rows[0]
    if len(header) < len(need):
        raise ValueError(f"row 1, column {need[len(header)]}: missing")
    try:
        data = np.array(rows[1:], dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header):
        _raise_at_bad_cell(rows[1:], header)
    bad = ~np.isfinite(data)
    if optional is not None and np.all(np.isnan(data[:, optional])):
        bad[:, optional] = False
    if np.any(bad):
        i, j = np.argwhere(bad)[0]  # the header is row 1
        raise ValueError(f"row {i + 2}, column {header[j]}: not finite")
    return header, data


def _raise_at_bad_cell(body: list, header: list) -> None:
    """Raise ``ValueError`` naming the first cell of a CSV body that is
    missing, beyond the header, or not a number."""
    for i, row in enumerate(body, 2):
        if len(row) < len(header):
            raise ValueError(f"row {i}, column {header[len(row)]}: missing")
        if len(row) > len(header):
            raise ValueError(f"row {i}, column {len(header) + 1}: beyond the "
                             f"{len(header)} header columns")
        for value, name in zip(row, header):
            try:
                float(value)
            except ValueError:
                raise ValueError(f"row {i}, column {name}: not a number: "
                                 f"{value!r}") from None


def _angles(m: int) -> np.ndarray:
    """Angles 2 pi i / m: bitwise ``unit_circle_grid(m).t``, but for any m
    (the CSV codecs read any row count; that grid needs even m >= 16)."""
    return 2 * np.pi * np.arange(m) / m


def _write_table(header: list, rows: list) -> str:
    """CSV text of rows of numbers and words; a float is written as its
    shortest round-trip repr."""
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass
class CauchyData:
    """Current f and perfect-conductor trace u0 at the angles 2 pi i / m."""

    f: np.ndarray | None
    u0: np.ndarray
    rho: float | None = None
    #: density of a solve on the inclusion grid; by the jump relation the
    #: outer normal derivative of u0 there (None for data read from files)
    psi: np.ndarray | None = field(default=None, repr=False)
    #: (LU factors of the saddle matrix, trace matrix) of that solve
    saddle: tuple | None = field(default=None, repr=False)

    def to_csv(self) -> str:
        fvals = self.f if self.f is not None else np.full_like(self.u0, np.nan)
        return _write_table(["theta", "f", "u0"],
                            np.column_stack([_angles(self.u0.size), fvals,
                                             self.u0]).tolist())

    def sidecar(self) -> dict:
        return {"rho": None if self.rho is None else float(self.rho)}

    @classmethod
    def from_csv(cls, text: str) -> "CauchyData":
        data = _read_table(text, optional=1, need=("theta", "f", "u0"))[1]
        m = data.shape[0]
        off = np.abs(data[:, 0] - _angles(m))
        if np.max(off) > 1e-9:
            raise ValueError(f"row {np.argmax(off) + 2}, column theta: not on "
                             f"the equispaced grid 2 pi i / {m}")
        f = data[:, 1]
        if np.all(np.isnan(f)):
            f = None
        return cls(f=f, u0=data[:, 2])


@dataclass
class MultiFreqData:
    """Boundary voltages over a frequency sweep, plus the contrast values."""

    omega: np.ndarray   # (J,)
    k: np.ndarray       # (J,) complex contrasts
    U: np.ndarray       # (m, J) complex voltages at angles 2 pi i / m

    def to_csv(self) -> str:
        header = ["omega", "re_k", "im_k"]
        for i in range(self.U.shape[0]):
            header += [f"re_u{i}", f"im_u{i}"]
        table = np.empty((self.omega.size, len(header)))
        table[:, 0] = self.omega
        table[:, 1] = self.k.real
        table[:, 2] = self.k.imag
        table[:, 3::2] = self.U.real.T
        table[:, 4::2] = self.U.imag.T
        return _write_table(header, table.tolist())

    @classmethod
    def from_csv(cls, text: str) -> "MultiFreqData":
        header, data = _read_table(text)
        if data.shape[1] < 5 or data.shape[1] % 2 == 0:
            raise ValueError(f"row 1, column {header[-1]}: need omega, re_k, "
                             f"im_k and re/im pairs, got {data.shape[1]} "
                             f"columns")
        omega = data[:, 0]
        # adjacent (re, im) columns viewed as complex, bit for bit (-0.0 too)
        pairs = np.ascontiguousarray(data[:, 1:]).view(complex)
        return cls(omega=omega, k=pairs[:, 0], U=pairs[:, 1:].T)


def harmonic_lift_trace(f: np.ndarray, bgrid_omega: BoundaryGrid) -> np.ndarray:
    """Trace on the unit circle of the harmonic lift of a zero-mean current.

    On the circle the Neumann kernel reduces exactly to the periodic log
    kernel, so the singular quadrature rule applies verbatim.
    """
    _check_zero_mean(f, bgrid_omega, "injected current")
    R = kress_log_matrix(bgrid_omega.n)
    return -(R @ f)


def harmonic_lift_normal_derivative(f: np.ndarray, bgrid_omega: BoundaryGrid,
                                    targets, normals) -> np.ndarray:
    """Directional derivative of the harmonic lift at interior points."""
    ker = neumann_normal_derivative(targets[:, None, :],
                                    bgrid_omega.points[None, :, :],
                                    normals[:, None, :])
    return -(ker @ (f * bgrid_omega.weights))


def _lu_in_place(A: np.ndarray, what: str) -> tuple:
    """LU factors of the Fortran-ordered ``A``, which LAPACK overwrites; an
    exactly zero pivot of the ``what`` raises ``SingularSystem``."""
    lu, piv = sla.lu_factor(A, overwrite_a=True, check_finite=False)
    if np.any(np.diag(lu) == 0.0):
        raise SingularSystem(f"zero pivot in the {what}")
    return lu, piv


def _factor_saddle(grid: BoundaryGrid, S: np.ndarray) -> tuple:
    """LU factors of [S -1; w^T 0] (constant trace, zero total density).

    Raises ``SingularSystem`` on an exactly zero pivot.
    """
    nd = grid.n
    A = np.zeros((nd + 1, nd + 1), order="F")
    A[:nd, :nd] = S
    A[:nd, nd] = -1.0
    A[nd, :nd] = grid.weights
    return _lu_in_place(A, "saddle system")


def _solve_saddle(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored saddle system for [psi; rho].

    ``rhs`` has nd + 1 rows and any number of columns.
    """
    sol = sla.lu_solve(factors, rhs, check_finite=False)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("non-finite solution of the saddle system")
    return sol


def solve_u0(shape: StarShape, f: np.ndarray, *, n: int = 256,
             grid: BoundaryGrid | None = None,
             S: np.ndarray | None = None) -> CauchyData:
    """Perfect-conductor solution: u0 constant on the inclusion, flux f.

    Represents u0 = frak_f + S_D[psi] and solves the saddle system enforcing
    a constant trace (unknown rho) on the inclusion boundary and zero total
    density. One kernel matrix N(circle point, node) serves twice: its
    transpose is the harmonic lift at the nodes (the kernel is symmetric),
    and N diag(w) the trace matrix T. The saddle factors and T stay on the
    result for ``u0_shape_derivative``.
    """
    bgrid_omega = unit_circle_grid(f.size)
    if grid is None:
        grid = discretize(shape, n)
    if S is None:
        S = _assemble_single_layer(grid)

    frak_omega = harmonic_lift_trace(f, bgrid_omega)
    N = _target_kernel(grid, bgrid_omega.points)
    frak_d = -(N.T @ (f * bgrid_omega.weights))
    factors = _factor_saddle(grid, S)
    sol = _solve_saddle(factors, np.concatenate([-frak_d, [0.0]]))
    psi, rho = sol[:grid.n], float(sol[grid.n])

    T = N  # the lift is taken: the weights go into the kernel in place
    T *= grid.weights[None, :]
    trace = _recenter(frak_omega + T @ psi, bgrid_omega)
    return CauchyData(f=f, u0=trace, rho=rho, psi=psi, saddle=(factors, T))


def u0_shape_derivative(sim: CauchyData, velocity: np.ndarray) -> np.ndarray:
    """Domain derivative of the perfect-conductor trace on the unit circle.

    For a boundary perturbation with normal velocity v = h . nu on dD the
    derivative u0' is harmonic in Omega minus D, has zero Neumann data on
    the circle and zero flux through dD, and equals rho' - v d_nu u0 on dD
    (Kirsch, Inverse Problems 9, 1993; Hettlich & Rundell, Inverse
    Problems 14, 1998). The jump relation of the single layer gives
    d_nu u0 = psi from outside, so u0' = S_D[psi'] with
    [S -1; w^T 0] [psi'; rho'] = [-v psi; 0], the saddle system of the
    ``solve_u0`` result ``sim``, whose factors and trace matrix it reuses.

    ``velocity`` holds one normal velocity per column, sampled at the grid
    nodes; returns one recentered trace per column.
    """
    factors, T = sim.saddle
    psi = sim.psi
    rhs = np.vstack([-velocity * psi[:, None], np.zeros((1, velocity.shape[1]))])
    dpsi = _solve_saddle(factors, rhs)[:psi.size]
    return _recenter(T @ dpsi, unit_circle_grid(sim.u0.size))


def _contrast_c(k, k0: float):
    """c = (k0 + k) / (2 (k0 - k)), the shift of K* in the equation for k."""
    return (k0 + k) / (2.0 * (k0 - k))


def solve_forward_direct(shape: StarShape, f: np.ndarray, k: complex,
                         k0: float = 1.0, *,
                         kernels: KernelMatrices) -> np.ndarray:
    """Boundary voltage from the second-kind integral equation in k, by LU.

    The oracle for ``solve_forward_batched``: no resonance guard, and an
    exactly zero pivot raises ``SingularSystem``. ``kernels`` are the
    operators of the inclusion; ``shape`` is not read and stays first only
    because the benchmark passes it positionally. LAPACK factors in place
    one Fortran-ordered complex copy of K*, shifted by c on its diagonal.
    With one BLAS thread the result is bit for bit that of
    ``np.linalg.solve``, which factors a second copy.
    """
    bgrid_omega = unit_circle_grid(f.size)
    frak_omega = harmonic_lift_trace(f, bgrid_omega)
    if k == k0:
        return _recenter(frak_omega / k0, bgrid_omega)
    grid = kernels.grid

    dn_frak = harmonic_lift_normal_derivative(f, bgrid_omega, grid.points,
                                              grid.normals)
    A = kernels.Kstar.astype(complex, order="F")
    A.flat[::grid.n + 1] += _contrast_c(k, k0)
    phi = sla.lu_solve(_lu_in_place(A, "direct system"),
                       -dn_frak.astype(complex) / k0, check_finite=False)
    del A  # the trace matrix of eval_S need not sit beside it
    u = frak_omega / k0 + eval_S(grid, phi, bgrid_omega.points)
    return _recenter(u, bgrid_omega)


def solve_forward_batched(kernels: KernelMatrices, f: np.ndarray, kvals,
                          k0: float = 1.0) -> np.ndarray:
    """Boundary voltages at all contrasts ``kvals``, one column each.

    With K* = V diag(mu) V^T B (``kernels.eig``) the equation
    (c_j + K*) phi_j = g, g = -d_nu frak / k0, has the solution
    phi_j = V diag(1 / (c_j + mu)) V^T B g, so the lift terms, the trace
    matrix T and q = V^T B g are built once and U = frak / k0 + (T V) Q with
    Q_ij = q_i / (c_j + mu_i). Raises ``NearResonance`` where
    min|c_j + mu| < 1e-10, the distance of the system from singularity.
    """
    kvals = np.asarray(kvals, dtype=complex)
    bgrid_omega = unit_circle_grid(f.size)
    grid = kernels.grid
    mu, V = kernels.eig
    frak_omega = harmonic_lift_trace(f, bgrid_omega)
    U = np.tile((frak_omega / k0)[:, None], (1, kvals.size)).astype(complex)
    live = kvals != k0  # at k = k0 the inclusion is invisible
    if np.any(live):
        denom = _contrast_c(kvals[live], k0)[None, :] + mu[:, None]
        gap = np.min(np.abs(denom), axis=0)
        near = np.flatnonzero(gap < _RESONANCE_TOL)
        if near.size:
            raise NearResonance(complex(kvals[live][near[0]]),
                                float(gap[near[0]]))
        dn_frak = harmonic_lift_normal_derivative(f, bgrid_omega, grid.points,
                                                  grid.normals)
        q = V.T @ (kernels.B @ (-dn_frak / k0))
        TV = trace_matrix(grid, bgrid_omega.points) @ V
        U[:, live] += TV @ (q[:, None] / denom)
    return _recenter(U, bgrid_omega)


def solve_forward_spectral(spectrum: NPSpectrum, f: np.ndarray, k: complex,
                           k0: float, u0: CauchyData) -> np.ndarray:
    """Boundary voltage from the truncated resonance expansion.

    The expansion runs over every mode that ``spectrum`` holds.
    """
    bgrid_omega = unit_circle_grid(f.size)
    if spectrum.traces_bd_omega.shape[0] != f.size:
        raise ValueError("current sampled on a different grid than the traces")
    lam = spectrum.lam
    W = spectrum.traces_bd_omega
    denom = k0 + lam * (k - k0)
    gap = np.min(np.abs(denom))
    if gap < _RESONANCE_TOL:
        raise NearResonance(k, float(gap))
    c_n = (f * bgrid_omega.weights) @ W
    u = u0.u0 / k0 + W @ (c_n / denom)
    return _recenter(u, bgrid_omega)


def synthesize(kernels: KernelMatrices, f: np.ndarray, omega_grid, kvals,
               eta: float, seed: int | None, *, k0: float) -> MultiFreqData:
    """Multifrequency dataset from the batched solver plus calibrated noise.

    ``kernels`` are the operators of the inclusion's grid, ``kvals`` the
    array of contrasts at the array ``omega_grid``, as
    ``FrequencyProfile.contrast`` gives them. Additive complex Gaussian
    noise rescaled so its sup magnitude over all entries equals eta
    exactly; a negative eta raises ``ValueError``. Raises ``NearResonance``
    if a contrast of the sweep is within the solver tolerance of a
    resonance.
    """
    _check_noise_level(eta)
    U = solve_forward_batched(kernels, f, kvals, k0)
    return MultiFreqData(omega=omega_grid, k=kvals, U=_add_noise(U, eta, seed))


def _is_count(value) -> bool:
    """Whether ``value`` is an integer >= 0; a bool is not."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= 0)


def _is_number(value) -> bool:
    """Whether ``value`` is a real number; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_noise_level(eta: float) -> None:
    """Raise ``ValueError`` unless the noise level eta is a number >= 0."""
    if not (_is_number(eta) and eta >= 0):
        raise ValueError(f"noise level eta must be a number >= 0, "
                         f"got {eta!r}")


def _add_noise(U: np.ndarray, eta: float, seed: int | None) -> np.ndarray:
    """U plus complex Gaussian noise scaled to sup magnitude exactly eta."""
    if eta <= 0:
        return U
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(U.shape) + 1j * rng.standard_normal(U.shape)
    return U + raw * (eta / np.max(np.abs(raw)))
