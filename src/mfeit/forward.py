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
  u = (u0 + sum_n c_n w_n (1 + lambda_n / (c + mu_n))) / k0,
* ``solve_u0`` -- the perfect-conductor limit, whose Cauchy data drive the
  shape reconstruction; given boundary velocities, the same call returns
  the domain derivative along each from that solve's LU factors and trace
  matrix, which it frees on return.

Every solver, and ``disentangle.fit_rational``, reads c from
``_contrast_c``, which owns both ends of the contrast axis: c = inf at
k = k0, where the inclusion is invisible, and c = -1/2 at an infinite k,
the perfect conductor, whose voltage is u0 / k0. The batched and spectral
solves take either end as an ordinary contrast; only the LU oracle
returns early at k = k0, whose diagonal it cannot factor.

All boundary voltages are recentered to zero mean on the measurement circle.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import NearResonance, SingularSystem
from .geometry import (BoundaryGrid, StarShape, _angles, _is_number, check,
                       discretize, fourier_series, unit_circle_grid)
from .potential import (KernelMatrices, _assemble_single_layer,
                        _target_kernel, eval_S, lapack)
from .spectrum import NPSpectrum

#: smallest admitted distance of a forward system from singularity
_RESONANCE_TOL = 1e-10


def current_from_fourier(cos_coeffs, sin_coeffs, bgrid: BoundaryGrid) -> np.ndarray:
    """Zero-mean injected current from Fourier coefficients (mode >= 1)."""
    return fourier_series((0.0, *cos_coeffs), sin_coeffs, bgrid.t)[0]


def _check_zero_mean(f: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless the samples of ``f`` on the equispaced
    measurement circle have zero mean, to 1e-12 of their largest value."""
    mean = float(f.sum()) / f.size
    scale = float(np.abs(f).max()) or 1.0
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
        """A model not in ``_PROFILES``, a parameter that is not a number and
        a contrast on the closed negative real axis raise ``ValueError``; an
        unknown or missing parameter ``TypeError`` naming it."""
        check(self.model, "profile.model", " or ".join(map(repr, _PROFILES)),
              lambda model: isinstance(model, str) and model in _PROFILES)
        for key, value in self.params.items():
            check(value, f"profile.{key}", "a number", _is_number)
        k = _PROFILES[self.model](np.asarray(omega, dtype=float), **self.params)
        _check_contrasts(k)
        return k

    @classmethod
    def from_dict(cls, d: dict) -> "FrequencyProfile":
        d = dict(d)
        return cls(model=d.pop("model", None), params=d)


def _read_table(text: str, optional: int | None = None,
                need: tuple = ()) -> tuple:
    """(header, numeric CSV body), the body all finite bar an all-NaN
    (unrecorded) ``optional`` column, the header at least as long as the
    column names ``need``.

    A table as the package writes it is read by ``_read_plain``, its body
    parsed in C by ``np.loadtxt``, which rounds each cell as ``float``
    does. The ``csv`` module reads every other text and one ``np.array``
    call converts its body; a body that call refuses is walked to name the
    first bad cell by row (the header is row 1) and column. That path alone
    runs on the texts the two readers split differently (loadtxt skips a
    blank line, csv reads a row of no cells) and on the bodies loadtxt
    refuses, so the bits, the header and the message of an error do not
    depend on the path.
    """
    table = _read_plain(text, len(need))
    if table is None:
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
        table = header, data
    header, data = table
    bad = ~np.isfinite(data)
    if optional is not None and np.all(np.isnan(data[:, optional])):
        bad[:, optional] = False
    if np.any(bad):
        i, j = np.argwhere(bad)[0]  # the header is row 1
        raise ValueError(f"row {i + 2}, column {header[j]}: not finite")
    return header, data


def _read_plain(text: str, least: int) -> tuple | None:
    """(header, body) by numpy's C reader, or None for a text that
    ``_read_table`` leaves to the ``csv`` module: one with a quote, a
    carriage return, a blank line or no body, a header shorter than
    ``least``, or a body loadtxt refuses or that is not as wide as the
    header."""
    head, _, body = text.partition("\n")
    if (not head or not body or "\n\n" in text or '"' in text
            or "\r" in text):
        return None
    header = head.split(",")
    if len(header) < least:
        return None
    try:
        data = np.loadtxt(body.split("\n"), delimiter=",", comments=None,
                          ndmin=2)
    except ValueError:
        return None
    return (header, data) if data.shape[1] == len(header) else None


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
    #: domain derivative of u0 along each velocity given to the solve, one
    #: column each (None without velocities and for data read from files)
    du0: np.ndarray | None = field(default=None, repr=False)

    def to_csv(self) -> str:
        fvals = self.f if self.f is not None else np.full_like(self.u0, np.nan)
        return _write_table(["theta", "f", "u0"],
                            np.column_stack([_angles(self.u0.size), fvals,
                                             self.u0]).tolist())

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
        # the complex columns k, u0, u1, ... as the adjacent (re, im) pairs
        # that from_csv views as complex; column_stack of these columns is
        # Fortran-ordered, and a real-typed k or U must be widened first
        cols = ["k"] + [f"u{i}" for i in range(self.U.shape[0])]
        header = ["omega"] + [f"{p}_{c}" for c in cols for p in ("re", "im")]
        pairs = np.column_stack([self.k, self.U.T]).astype(complex, order="C")
        return _write_table(header, np.column_stack(
            [self.omega, pairs.view(float)]).tolist())

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


def harmonic_lift(f: np.ndarray, points, normals=None) -> np.ndarray:
    """Harmonic lift H of the zero-mean current ``f`` at points of the
    closed disk, or nu . grad H along the unit ``normals`` if given.

    H is harmonic in the disk, has d_nu H = f and zero mean on the circle.
    One rfft of the m samples gives the coefficients c_k = a_k - i b_k of
    their trigonometric interpolant (the Nyquist term halved), so with
    z = x1 + i x2 and nu = nu1 + i nu2, H = Re sum c_k z^k / k and
    nu . grad H = Re(nu sum c_k z^(k-1)) for k = 1 ... m/2, from one power
    matrix of z. Both are exact for the interpolant at every point, the
    circle and the class edge included.
    """
    _check_zero_mean(f, "injected current")
    m = f.size
    c = np.fft.rfft(f)[1:] * (2.0 / m)
    c[-1] *= 0.5  # m is even: the last coefficient is the Nyquist mode
    z = points[:, 0] + 1j * points[:, 1]
    # rows z^0 ... z^(m/2 - 1): rows j ... 2j - 1 are rows 0 ... j - 1
    # times z^j, so about log2(m/2) products fill them
    P = np.empty((m // 2, z.size), complex)
    P[0] = 1.0
    j = 1
    while j < m // 2:
        rows = min(j, m // 2 - j)
        np.multiply(P[:rows], P[j - 1] * z, out=P[j:j + rows])
        j += rows
    if normals is None:
        return (z * ((c / np.arange(1, m // 2 + 1)) @ P)).real
    return ((normals[:, 0] + 1j * normals[:, 1]) * (c @ P)).real


def _factor_saddle(grid: BoundaryGrid, S: np.ndarray) -> tuple:
    """LU factors of [S -1; w^T 0] (constant trace, zero total density),
    by LAPACK's ``dgetrf`` in place of the Fortran-ordered matrix.

    Raises ``SingularSystem`` on an exactly zero pivot.
    """
    nd = grid.n
    A = np.zeros((nd + 1, nd + 1), order="F")
    A[:nd, :nd] = S
    A[:nd, nd] = -1.0
    A[nd, :nd] = grid.weights
    lu, piv, info = lapack().dgetrf(A, overwrite_a=True)
    if info:
        raise SingularSystem("zero pivot in the saddle system")
    return lu, piv


def _solve_saddle(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored saddle system for [psi; rho] by ``dgetrs``.

    ``rhs`` has nd + 1 rows and any number of columns.
    """
    sol, info = lapack().dgetrs(*factors, rhs)
    if info or not np.all(np.isfinite(sol)):
        raise SingularSystem("non-finite solution of the saddle system")
    return sol


def solve_u0(shape: StarShape, f: np.ndarray, *, n: int = 256,
             grid: BoundaryGrid | None = None, S: np.ndarray | None = None,
             velocity: np.ndarray | None = None) -> CauchyData:
    """Perfect-conductor solution: u0 constant on the inclusion, flux f.

    Represents u0 = frak_f + S_D[psi] and solves the saddle system enforcing
    a constant trace (unknown rho) on the inclusion boundary and zero total
    density. One ``harmonic_lift`` call gives the lift on the circle and at
    the nodes; ``_target_kernel`` gives the trace matrix T from the nodes to
    the circle.

    ``velocity`` holds normal velocities v = h . nu of dD, one per column,
    sampled at the grid nodes; ``du0`` then holds the domain derivative u0'
    of the trace along each, recentered. u0' is harmonic in Omega minus D,
    has zero Neumann data on the circle and zero flux through dD, and
    equals rho' - v d_nu u0 on dD (Kirsch, Inverse Problems 9, 1993;
    Hettlich & Rundell, Inverse Problems 14, 1998). The jump relation of
    the single layer gives d_nu u0 = psi from outside, so u0' = S_D[psi']
    with [S -1; w^T 0] [psi'; rho'] = [-v psi; 0], solved by the same LU
    factors and traced by the same T. The factors, T and psi are freed
    when the call returns.
    """
    bgrid_omega = unit_circle_grid(f.size)
    if grid is None:
        grid = discretize(shape, n)
    if S is None:
        S = _assemble_single_layer(grid)

    frak = harmonic_lift(f, np.vstack([bgrid_omega.points, grid.points]))
    frak_omega, frak_d = frak[:f.size], frak[f.size:]
    factors = _factor_saddle(grid, S)
    sol = _solve_saddle(factors, np.concatenate([-frak_d, [0.0]]))
    psi, rho = sol[:grid.n], float(sol[grid.n])

    T = _target_kernel(grid, bgrid_omega.points)
    trace = _recenter(frak_omega + T @ psi, bgrid_omega)
    du0 = None
    if velocity is not None:
        rhs = np.vstack([-velocity * psi[:, None],
                         np.zeros((1, velocity.shape[1]))])
        dpsi = _solve_saddle(factors, rhs)[:grid.n]
        du0 = _recenter(T @ dpsi, bgrid_omega)
    return CauchyData(f=f, u0=trace, rho=rho, du0=du0)


def _pow2_unit(x):
    """2^-e, where 2^e is the power of two just above |x| (1 at 0, inf and
    nan), element by element, and at most 2^1023 so that it stays finite.
    A product with it moves no bit unless it falls below the normal
    range."""
    return np.ldexp(1.0, np.minimum(-np.frexp(x)[1], 1023))


def _contrast_c(k, k0: float):
    """c = (k0 + k) / (2 (k0 - k)), the shift of K* in the equation for k,
    and the one map from k to c that the solvers and the fit read.

    It is the ratio (a + b) / (2 (a - b)) with a = k0 u and b = k u, u the
    ``_pow2_unit`` of max(|k0|, |Re k|, |Im k|), element by element, so no
    sum, difference or quotient of a and b can overflow, up to the largest
    float. While a, Re b and Im b stay zero or normal numbers, as they do
    unless one is about 2^-1022 of the largest, c is the unscaled ratio bit
    for bit: finite for every finite k != k0, and -1/2 to rounding for a k
    near the largest float. At the ends of the axis it is exactly -1/2 for
    a k with an infinite part, the perfect conductor, whose k it replaces
    by the limit pair (-2, 1) of k -> infinity before any product, and
    inf + 0j at k = k0, where the inclusion is invisible; it divides only
    where 2 (a - b) is nonzero, so neither end warns. A nan k gives a nan
    shift. Scalar or array, it is numpy's complex quotient.
    """
    k = np.where(inf := np.isinf(k), 0.0, np.asarray(k, dtype=complex))
    unit = _pow2_unit(np.maximum(abs(k0),
                                 np.maximum(abs(k.real), abs(k.imag))))
    a, b = k0 * unit, k * unit
    num, den = np.where(inf, -2.0, 2.0 * (a - b)), np.where(inf, 1.0, a + b)
    return np.divide(den, num, out=np.full_like(den, np.inf),
                     where=num != 0)[()]


def _shifted(c: np.ndarray, mu: np.ndarray, k: np.ndarray) -> np.ndarray:
    """c_j + mu_i, one column per contrast k_j of shift c_j.

    Raises ``NearResonance`` at the first k_j whose distance
    min_i |c_j + mu_i| to singularity is below ``_RESONANCE_TOL`` or nan,
    so a contrast whose shift is nan fails closed.
    """
    denom = c[None, :] + mu[:, None]
    gap = np.min(np.abs(denom), axis=0)
    near = np.flatnonzero(~(gap >= _RESONANCE_TOL))
    if near.size:
        raise NearResonance(k[near[0]].item(), gap[near[0]].item())
    return denom


def solve_forward_direct(shape: StarShape, f: np.ndarray, k: complex,
                         k0: float = 1.0, *,
                         kernels: KernelMatrices) -> np.ndarray:
    """Boundary voltage from the second-kind integral equation in k, by LU.

    The oracle for ``solve_forward_batched``: no resonance guard, and an
    exactly zero pivot raises ``SingularSystem``. At k = k0 it returns the
    lift alone, since a diagonal shifted by c = inf cannot be factored.
    ``kernels`` are the operators of the inclusion; ``shape`` is not read
    and stays first only because the benchmark passes it positionally.
    ``np.linalg.solve`` factors a copy of the complex K* shifted by c on its
    diagonal, on numpy's own LAPACK build, so the oracle shares no LAPACK
    call with the routes it checks; with one BLAS thread its result is bit
    for bit that of scipy's ``lu_factor`` and ``lu_solve``.
    """
    bgrid_omega = unit_circle_grid(f.size)
    frak_omega = harmonic_lift(f, bgrid_omega.points)
    if k == k0:
        return _recenter(frak_omega / k0, bgrid_omega)
    grid = kernels.grid

    dn_frak = harmonic_lift(f, grid.points, grid.normals)
    A = kernels.Kstar.astype(complex)
    A.flat[::grid.n + 1] += _contrast_c(k, k0)
    try:
        phi = np.linalg.solve(A, -dn_frak.astype(complex) / k0)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("zero pivot in the direct system") from exc
    del A  # the trace matrix of eval_S need not sit beside it
    u = frak_omega / k0 + eval_S(grid, phi, bgrid_omega.points)
    return _recenter(u, bgrid_omega)


def _modes(kernels: KernelMatrices, f: np.ndarray, k0: float) -> tuple:
    """(mu, TV, q), the modal data of the inclusion of ``kernels`` and the
    current ``f``: the eigenvalues mu and eigenvectors V of K* =
    V diag(mu) V^T B (``kernels.eig``), the traces TV of their single
    layers at the angles 2 pi i / m of ``f``, and q = V^T B g with
    g = -d_nu frak / k0 at the nodes.

    The voltage at shift c, before recentering, is the Stieltjes form
    U(c) = frak / k0 + TV diag(q / (c + mu)) (Bergman, Phys. Rep. 43,
    1978; Milton, The Theory of Composites, 2002, ch. 18), and with the
    circle's quadrature weights w each mode satisfies
    <f, TV_n>_w = k0 q_n / (1/2 - mu_n).
    """
    grid = kernels.grid
    mu, V = kernels.eig
    q = V.T @ (kernels.B @ (-harmonic_lift(f, grid.points, grid.normals)
                            / k0))
    return mu, eval_S(grid, V, unit_circle_grid(f.size).points), q


def solve_forward_batched(kernels: KernelMatrices, f: np.ndarray, kvals,
                          k0: float = 1.0) -> np.ndarray:
    """Boundary voltages at all contrasts ``kvals``, one column each.

    With K* = V diag(mu) V^T B (``kernels.eig``) the equation
    (c_j + K*) phi_j = g, g = -d_nu frak / k0, has the solution
    phi_j = V diag(1 / (c_j + mu)) V^T B g, so the lift on the circle and
    the ``_modes`` of the shape and current, the traces TV and q = V^T B g,
    are built once and U = frak / k0 + TV Q with
    Q_ij = q_i / (c_j + mu_i). Raises ``NearResonance`` unless
    min|c_j + mu| >= 1e-10, the distance of the system from singularity.
    Every column takes these steps: at k = k0 the shift is infinite and
    the column's Q is 0, the lift alone. The eigenbasis holds no
    equilibrium mode, so a huge contrast (c = -1/2 to rounding) solves like
    any other, its column tending to u0 / k0, and an infinite one (c = -1/2)
    gives u0 / k0.
    """
    kvals = np.asarray(kvals, dtype=complex)
    bgrid_omega = unit_circle_grid(f.size)
    mu, TV, q = _modes(kernels, f, k0)
    denom = _shifted(_contrast_c(kvals, k0), mu, kvals)
    U = (harmonic_lift(f, bgrid_omega.points) / k0)[:, None] \
        + TV @ (q[:, None] / denom)
    return _recenter(U, bgrid_omega)


def solve_forward_spectral(spectrum: NPSpectrum, f: np.ndarray, k: complex,
                           k0: float, u0: CauchyData) -> np.ndarray:
    """Boundary voltage from the truncated resonance expansion.

    The expansion runs over every mode that ``spectrum`` holds. As in
    ``solve_forward_batched``, ``NearResonance`` is raised unless
    min|c + mu| >= 1e-10 over those modes, mu = 1/2 - lambda. The term of
    mode n, c_n w_n / ((k0 - k) (c + mu_n)) with k0 - k = k0 / (c + 1/2),
    is c_n w_n (1 + lambda_n / (c + mu_n)) / k0, read from the c + mu that
    the guard forms. At k = k0 the shift is infinite and each weight is
    c_n, so the inclusion is invisible with no branch; at every infinite k,
    c + mu = -lambda and each weight is 0 to rounding, so u = u0 / k0.
    """
    bgrid_omega = unit_circle_grid(f.size)
    if spectrum.traces_bd_omega.shape[0] != f.size:
        raise ValueError("current sampled on a different grid than the traces")
    lam, W = spectrum.lam, spectrum.traces_bd_omega
    c_mu = _shifted(np.atleast_1d(_contrast_c(k, k0)), 0.5 - lam,
                    np.atleast_1d(k))[:, 0]
    c_n = (f * bgrid_omega.weights) @ W
    u = (u0.u0 + W @ (c_n * (1 + lam / c_mu))) / k0
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
    check(eta, "eta", "a number >= 0", lambda v: _is_number(v) and v >= 0)
    U = solve_forward_batched(kernels, f, kvals, k0)
    return MultiFreqData(omega=omega_grid, k=kvals, U=_add_noise(U, eta, seed))


def _add_noise(U: np.ndarray, eta: float, seed: int | None) -> np.ndarray:
    """U plus complex Gaussian noise scaled to sup magnitude exactly eta."""
    if eta <= 0:
        return U
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(U.shape) + 1j * rng.standard_normal(U.shape)
    return U + raw * (eta / np.max(np.abs(raw)))
