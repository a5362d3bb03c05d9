"""Shape recovery from perfect-conductor Cauchy data, and stability sweeps.

A single zero-mean current f and the trace u0 of the perfect-conductor
voltage on the unit circle determine a star-shaped inclusion uniquely; the
inverter here is the Levenberg-Marquardt iteration of ``lsq`` on the radial
Fourier coefficients with a curvature penalty, each step solved exactly
under the admissible class written as linear rows (``geometry.class_rows``),
so every iterate is admissible. It stops where a step's predicted decrease
of the misfit is negligible, so a shape outside the class ends at the
constrained optimum on the class's edge, converged. Its
Jacobian is the domain derivative of the perfect conductor (Kirsch, Inverse
Problems 9, 1993; Hettlich & Rundell, Inverse Problems 14, 1998): for the
radial velocity h = phi_j e_r of Fourier mode j, u0' is harmonic outside D
with zero Neumann data on the circle and zero flux, and
u0' = rho' - (h . nu) d_nu u0 on dD. The jump relation of the single
layer gives d_nu u0 = psi from outside, psi being the density that
``solve_u0`` solves for, so all 2M + 1 columns come from one more solve of
its saddle system (``forward.u0_shape_derivative``). That solve reuses the
LU factors and trace matrix of the point's solve, from the loop's state:
each new point costs one factorization and one kernel matrix, the Jacobian
neither. The central-difference Jacobian ``_Objective.fd_jacobian`` stays
as the test oracle. Errors between shapes are measured by the area of the
symmetric difference, which for star shapes about the origin reduces to a
1D integral of |r_a^2 - r_b^2| / 2.

Every inversion starts from the same circle, which depends only on the
settings, and the start's perfect-conductor solve depends only on them and
on the current f. A stability sweep therefore solves its starting circle
once, before any row runs; every row then starts from that solve, which is
read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .disentangle import DEFAULT_MAX_POLES, extract_u0, fit_rational
from .errors import MfeitError
from .forward import (CauchyData, FrequencyProfile, _add_noise, _write_table,
                      current_from_fourier, solve_u0, synthesize,
                      u0_shape_derivative)
from .geometry import (DomainConfig, StarShape, _is_count, _is_number, check,
                       check_grid_size, check_list, class_rows, discretize,
                       unit_circle_grid)
from .lsq import levenberg_marquardt
from .potential import assemble

_FD_BASE_STEP = 1e-6
#: strict distance the iterates keep from the admissible class's bounds
_BAND_MARGIN = 1e-3
#: quadrature nodes of the symmetric-difference integral
_N_QUAD = 8192


@dataclass(frozen=True)
class InversionSettings:
    """Settings of the Levenberg-Marquardt shape inverter.

    The iteration starts from the circle of radius (b0 + 1 - delta) / 2,
    the middle of the admissible band of ``config``.
    """

    n_fourier_modes: int = 8      # M; unknowns are a0, a1..aM, b1..bM
    alpha: float = 1e-6           # curvature penalty weight
    n_boundary: int = 128         # inclusion quadrature nodes per solve
    config: DomainConfig = field(default_factory=DomainConfig)

    def __post_init__(self):
        # the saddle solves skip assemble, so its resolution rule is applied here
        check_grid_size(self.n_boundary, 32, "inversion.n_boundary")
        check(self.alpha, "inversion.alpha", "a number >= 0",
              lambda v: _is_number(v) and v >= 0)
        check(self.n_fourier_modes, "inversion.n_fourier_modes",
              "an integer in 0..16", lambda v: _is_count(v) and v <= 16)


@dataclass
class InversionResult:
    shape: StarShape
    history: list  # accepted misfit values, one per iterate; the last is final
    rho: float | None
    hit_constraint: bool
    converged: bool
    n_iter: int


def _params_to_shape(x: np.ndarray, M: int) -> StarShape:
    return StarShape(cos=tuple(x[:M + 1]), sin=tuple(x[M + 1:]))


def _shape_to_params(shape: StarShape, M: int) -> np.ndarray:
    cos = list(shape.cos) + [0.0] * (M + 1 - len(shape.cos))
    sin = list(shape.sin) + [0.0] * (M - len(shape.sin))
    return np.array(cos[:M + 1] + sin[:M], dtype=float)


def _start_params(settings: InversionSettings) -> np.ndarray:
    """Parameters of the starting circle, the middle of the admissible band:
    radius (b0 + 1 - delta) / 2."""
    mid = 0.5 * (settings.config.b0 + 1 - settings.config.delta)
    return _shape_to_params(StarShape(cos=(mid,)), settings.n_fourier_modes)


def _point(x: np.ndarray, settings: InversionSettings, f: np.ndarray) -> tuple:
    """(grid, perfect-conductor solve) of the shape with parameters x."""
    shape = _params_to_shape(x, settings.n_fourier_modes)
    grid = discretize(shape, settings.n_boundary)
    return grid, solve_u0(shape, f, grid=grid)


class _Objective:
    """Weighted residual vector r(x) with J = 1/2 |r|^2 (data + penalty)."""

    def __init__(self, data: CauchyData, settings: InversionSettings):
        if data.f is None:
            raise ValueError("inversion needs the injected current f")
        self.data = data
        self.settings = settings
        self.M = settings.n_fourier_modes
        self.sqrt_w = np.sqrt(unit_circle_grid(data.u0.size).weights)
        M = self.M
        # penalty 1/2 alpha |r''|^2 = 1/2 alpha pi sum m^4 (a_m^2 + b_m^2)
        m2 = np.arange(1, M + 1) ** 2.0
        pen = np.concatenate([[0.0], m2, m2])
        self.pen_scale = math.sqrt(settings.alpha * math.pi) * pen

    def value(self, x: np.ndarray, point: tuple | None = None) -> tuple:
        """(J, (r, point)) at x; ``point`` is the ``_point`` of x, solved
        here unless the caller has solved it with ``data.f`` already."""
        if point is None:
            point = _point(x, self.settings, self.data.f)
        r_data = self.sqrt_w * (point[1].u0 - self.data.u0)
        r = np.concatenate([r_data, self.pen_scale * x])
        return 0.5 * float(r @ r), (r, point)

    def normal(self, x: np.ndarray, state: tuple) -> tuple:
        """Gauss-Newton matrix and gradient at a point ``value`` solved."""
        Jac = self.jacobian(state[1])
        return Jac.T @ Jac, Jac.T @ state[0]

    def jacobian(self, point: tuple) -> np.ndarray:
        """Domain-derivative Jacobian, reusing the solve of the ``_point``."""
        grid, sim = point
        # normal velocity of mode j: phi_j(t) (e_r . nu), phi = 1, cos mt, sin mt
        mt = np.outer(grid.t, np.arange(1, self.M + 1))
        modes = np.hstack([np.ones((grid.n, 1)), np.cos(mt), np.sin(mt)])
        er_nu = (np.cos(grid.t) * grid.normals[:, 0]
                 + np.sin(grid.t) * grid.normals[:, 1])
        du = u0_shape_derivative(sim, modes * er_nu[:, None])
        return np.vstack([self.sqrt_w[:, None] * du, np.diag(self.pen_scale)])

    def fd_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Central-difference Jacobian, 2 (2M + 1) solves: the test oracle."""
        steps = _FD_BASE_STEP * np.maximum(np.abs(x), 1.0)
        cols = []
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = steps[i]
            cols.append((self.value(x + e)[1][0] - self.value(x - e)[1][0])
                        / (2 * steps[i]))
        return np.column_stack(cols)


def invert(data: CauchyData, settings: InversionSettings, *,
           _start: tuple | None = None) -> InversionResult:
    """Levenberg-Marquardt recovery of the inclusion from Cauchy data.

    Minimises J = 1/2 |r|^2 from the band's middle circle with
    ``lsq.levenberg_marquardt``, on the Gauss-Newton matrix of the
    domain-derivative Jacobian, under the rows of ``geometry.class_rows``
    with the margin ``_BAND_MARGIN``. ``converged`` means a first-order
    point under those rows, ``hit_constraint`` a row active at the stop.
    ``_start`` is internal: the ``_point`` of the starting circle when the
    caller has solved it with ``data.f`` already (``stability_sweep``).
    """
    M = settings.n_fourier_modes
    obj = _Objective(data, settings)
    x0 = _start_params(settings)
    x, (_, (_, sim)), history, active, stopped = levenberg_marquardt(
        x0, obj.value(x0, _start), obj.value, obj.normal,
        *class_rows(M, settings.config, _BAND_MARGIN))
    return InversionResult(shape=_params_to_shape(x, M), history=history,
                           rho=sim.rho, hit_constraint=active,
                           converged=stopped, n_iter=len(history) - 1)


def _radius_samples(shape: StarShape):
    """r at the ``_N_QUAD`` angles 2 pi j / ``_N_QUAD``: the constant a0
    where the shape has no nonzero mode, else one irfft of its coefficients.

    Mode m adds Re(c_m e^(i m theta)), c_m = a_m - i b_m. At these angles
    it takes the values of mode j = m mod ``_N_QUAD``, and a mode j above
    ``_N_QUAD`` / 2 those of mode ``_N_QUAD`` - j with c_m conjugated, so
    each mode is folded onto that alias.
    """
    if not (any(shape.cos[1:]) or any(shape.sin)):
        return shape.cos[0]
    c = np.zeros(max(len(shape.cos), len(shape.sin) + 1), dtype=complex)
    c.real[:len(shape.cos)] = shape.cos
    c.imag[1:len(shape.sin) + 1] = np.negative(shape.sin)
    m = np.arange(c.size) % _N_QUAD
    mirror = m > _N_QUAD // 2
    m[mirror] = _N_QUAD - m[mirror]
    c[mirror] = c[mirror].conj()
    # irfft counts every coefficient twice but the constant and the Nyquist
    c[(m > 0) & (m < _N_QUAD // 2)] *= 0.5
    X = np.zeros(_N_QUAD // 2 + 1, dtype=complex)
    np.add.at(X, m, c)
    return np.fft.irfft(X, _N_QUAD, norm="forward")


def symmetric_difference(shape_a: StarShape, shape_b: StarShape) -> float:
    """Area of the symmetric difference of two star-shaped sets about 0,
    the integral of |r_a^2 - r_b^2| / 2 over the angle by the trapezoid
    rule on ``_N_QUAD`` angles; two circles give pi |a^2 - b^2| without a
    sample."""
    ra = _radius_samples(shape_a)
    rb = _radius_samples(shape_b)
    gap = abs(ra * ra - rb * rb)
    if isinstance(gap, float):  # two circles
        return gap * np.pi
    return float(np.sum(gap) * (np.pi / _N_QUAD))


def _fit_power(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit y = C x^tau in log-log; returns (C, tau, residual)."""
    lx, ly = np.log(xs), np.log(ys)
    A = np.column_stack([np.ones_like(lx), lx])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.linalg.norm(A @ coef - ly))
    return float(np.exp(coef[0])), float(coef[1]), resid


@dataclass
class SweepResult:
    rows: list       # dicts: level, eps_measured, seed, sym_diff, status
    summary: dict    # fitted (C, tau) and (C, tau_prime) with residuals

    def to_csv(self) -> str:
        keys = ["level", "eps_measured", "seed", "sym_diff", "status"]
        return _write_table(keys, [[r[k] for k in keys] for r in self.rows])


def stability_sweep(truth: StarShape, f_coeffs: tuple, profile: FrequencyProfile,
                    omega_grid, noise_levels, settings: InversionSettings,
                    seeds, max_poles: int = DEFAULT_MAX_POLES,
                    threads: int = 1, n_forward: int = 256, n_measure: int = 64,
                    allow_degenerate: bool = False) -> SweepResult:
    """Noise-to-error curve of the full pipeline, with fitted stability laws.

    Solves the inversion's starting circle and synthesizes the clean
    multifrequency data once; per (level, seed): add noise, fit the
    shared-pole rational model, extract u0, invert from the shared start,
    and compare with the truth by symmetric difference. Fits
    |D delta D~| = C (1/ln eps^-1)^tau and C' eps^tau' over the noisy levels.
    Every input, the contrasts too, is checked before any solve. Rows run
    in order; ``threads`` and ``allow_degenerate`` are accepted and ignored.
    """
    # the log law (1/ln eps^-1)^tau needs eps < 1
    check_list(noise_levels, "noise_levels", "numbers in [0, 1)",
               lambda v: _is_number(v) and 0 <= v < 1)
    check_list(seeds, "seeds", "integers >= 0", _is_count)
    # a repeated level or seed would count one row twice in the summary
    for key, values in (("noise_levels", noise_levels), ("seeds", seeds)):
        check(values, key, "distinct", lambda v: len(set(v)) == len(v))
    check(max_poles, "max_poles", "an integer >= 0", _is_count)
    noise_levels = sorted(float(v) for v in noise_levels)
    omega_grid = np.asarray(omega_grid, dtype=float)
    kvals = profile.contrast(omega_grid)
    bgrid_omega = unit_circle_grid(n_measure)

    f = current_from_fourier(f_coeffs[0], f_coeffs[1], bgrid_omega)
    start = _point(_start_params(settings), settings, f)
    # every row reads f and the start: make each array read-only
    grid0, sim0 = start
    for a in (f, grid0.t, grid0.points, grid0.normals, grid0.jacobian,
              grid0.curvature, sim0.u0, sim0.psi, *sim0.saddle[0],
              sim0.saddle[1]):
        a.setflags(write=False)
    clean = synthesize(assemble(discretize(truth, n_forward)), f, omega_grid,
                       kvals, eta=0.0, seed=None, k0=settings.config.k0)

    rows = []
    for level in noise_levels:
        for seed in (seeds if level > 0 else seeds[:1]):
            row = {"level": level, "eps_measured": float("nan"), "seed": seed,
                   "sym_diff": float("nan")}
            try:
                data = replace(clean, U=_add_noise(clean.U, level, seed))
                eps = float(np.max(np.abs(data.U - clean.U)))
                # fit down to the noise floor, never below quadrature accuracy
                tol = max(level / max(float(np.max(np.abs(data.U))), 1e-300),
                          1e-11)
                model = fit_rational(data, max_poles=max_poles, tol=tol,
                                     config=settings.config)
                u0_hat = extract_u0(model, settings.config.k0)
                u0_hat.f = f
                res = invert(u0_hat, settings, _start=start)
                row.update(eps_measured=eps, sym_diff=symmetric_difference(
                    truth, res.shape), status="ok")
            except MfeitError as exc:
                row["status"] = f"failed:{type(exc).__name__}"
            rows.append(row)

    # per-level medians over seeds, one entry per level, None for the
    # noise-free level and for a level with no ok row; n_ok counts the rows
    # each level's median rests on
    eps_med, dif_med, n_ok = [], [], []
    for lv in noise_levels:
        ok = [r for r in rows if r["level"] == lv and r["status"] == "ok"
              and np.isfinite(r["sym_diff"])]
        n_ok.append(len(ok))
        for med, key in ((eps_med, "eps_measured"), (dif_med, "sym_diff")):
            med.append(float(np.median([r[key] for r in ok]))
                       if lv > 0 and ok else None)
    summary: dict = {"levels": noise_levels, "n_ok": n_ok,
                     "eps_median": eps_med, "sym_diff_median": dif_med}
    # the stability fits read the levels that have a median
    fitted = [(e, d) for e, d in zip(eps_med, dif_med) if e is not None]
    if len(fitted) >= 2 and all(d > 0 for _, d in fitted):
        eps, dif = np.array(fitted).T
        C, tau, res_log = _fit_power(1.0 / np.log(1.0 / eps), dif)
        Cp, taup, res_hold = _fit_power(eps, dif)
        summary["log_model"] = {"C": C, "tau": tau, "residual": res_log}
        summary["holder_model"] = {"C": Cp, "tau_prime": taup,
                                   "residual": res_hold}
    return SweepResult(rows=rows, summary=summary)
