from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from mfeit import forward, potential, reconstruct
from mfeit.disentangle import extract_u0, fit_rational
from mfeit.forward import (CauchyData, FrequencyProfile, _add_noise,
                           _recenter, current_from_fourier, solve_u0,
                           synthesize)
from mfeit.geometry import (DomainConfig, StarShape, build_star_shape, circle,
                            class_rows, discretize, fourier_series,
                            unit_circle_grid)
from mfeit.lsq import levenberg_marquardt
from mfeit.potential import assemble
from mfeit.reconstruct import (InversionSettings, _Objective, _params_to_shape,
                               _shape_to_params, _start_params, invert,
                               stability_sweep, symmetric_difference)

from conftest import R0, TREFOIL, g_two_phase, misfit, objective_value


@pytest.fixture(scope="module")
def conc_data(f_cos):
    return solve_u0(circle(R0), f_cos, n=256)


@pytest.fixture(scope="module")
def tre_data(f_cos):
    return solve_u0(TREFOIL, f_cos, n=256)


def test_settings_validation():
    with pytest.raises(ValueError):
        InversionSettings(alpha=-1.0)
    with pytest.raises(ValueError):
        InversionSettings(n_fourier_modes=17)


def test_misfit_zero_at_truth(conc_data):
    st0 = InversionSettings(n_fourier_modes=0, alpha=0.0, n_boundary=256)
    J, _ = misfit(circle(R0), conc_data, st0)
    assert J < 1e-14


def test_misfit_concentric_closed_form(conc_data):
    # J = pi/2 (g(0.4) - g(0.5))^2 for a radius-0.4 candidate, f = cos
    st0 = InversionSettings(n_fourier_modes=0, alpha=0.0, n_boundary=256)
    J, grad = misfit(circle(0.4), conc_data, st0)
    expect = np.pi / 2 * (g_two_phase(0.4) - g_two_phase(R0)) ** 2
    assert np.isclose(J, expect, rtol=1e-12)
    assert grad.shape == (1,)


def test_gradient_finite_difference_consistency(tre_data):
    # central-difference gradient vs forward differences at half the step
    settings_ = InversionSettings(n_fourier_modes=3, alpha=1e-6)
    shape = StarShape(cos=(0.52, 0.01, 0.0, 0.06))
    _, grad = misfit(shape, tre_data, settings_)
    obj = _Objective(tre_data, settings_)
    x = _shape_to_params(shape, 3)
    h = 0.5e-6 * np.maximum(np.abs(x), 1.0)
    J0 = objective_value(obj, x)
    fwd = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        fwd[i] = (objective_value(obj, x + e) - J0) / h[i]
    assert np.max(np.abs(fwd - grad)) / np.max(np.abs(grad)) < 1e-4


def test_analytic_jacobian_matches_fd_oracle(tre_data):
    settings_ = InversionSettings(n_fourier_modes=8, alpha=1e-7)
    shape = StarShape(cos=(0.52, 0.01, 0.0, 0.06, 0.01),
                      sin=(0.02, -0.01, 0.015))
    obj = _Objective(tre_data, settings_)
    x = _shape_to_params(shape, 8)
    analytic = obj.jacobian(obj.value(x)[1][1])
    fd = obj.fd_jacobian(x)
    assert analytic.shape == fd.shape == (64 + 17, 17)
    assert np.max(np.abs(analytic - fd)) / np.max(np.abs(fd)) < 1e-7


def _counter(calls: dict):
    """``counted(name, fn)``: fn, counting its calls in ``calls[name]``."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


def test_jacobian_reuses_the_residual_solve(tre_data, monkeypatch):
    obj = _Objective(tre_data, InversionSettings(n_fourier_modes=3, alpha=1e-6))
    x = _shape_to_params(StarShape(cos=(0.52, 0.01, 0.0, 0.06)), 3)
    calls = {"lu": 0, "kernel": 0}
    counted = _counter(calls)
    monkeypatch.setattr(sla, "lu_factor", counted("lu", sla.lu_factor))
    for module, attr in [(forward, "_target_kernel"),
                         (potential, "_target_kernel"),
                         (forward, "_assemble_single_layer")]:
        monkeypatch.setattr(module, attr,
                            counted("kernel", getattr(module, attr)))
    _, (_, point) = obj.value(x)
    # one LU, one circle-to-node kernel and one single layer S
    assert calls == {"lu": 1, "kernel": 2}
    obj.jacobian(point)
    assert calls == {"lu": 1, "kernel": 2}


def test_invert_solves_each_point_it_evaluates_once(tre_data, monkeypatch):
    """One perfect-conductor solve per point the loop evaluates, the start
    and every trial, and none for a Jacobian; a start the caller solved is
    not solved again."""
    settings_ = InversionSettings(n_fourier_modes=3, alpha=1e-6)
    calls = {"solve_u0": 0, "value": 0, "jacobian": 0}
    counted = _counter(calls)
    monkeypatch.setattr(reconstruct, "solve_u0",
                        counted("solve_u0", solve_u0))
    for name in ("value", "jacobian"):
        monkeypatch.setattr(_Objective, name,
                            counted(name, getattr(_Objective, name)))
    res = invert(tre_data, settings_)
    # a Jacobian at every accepted point, the last one's meeting the stop
    assert res.converged and calls["jacobian"] == res.n_iter + 1
    assert calls["solve_u0"] == calls["value"] >= res.n_iter + 1

    start = reconstruct._point(_start_params(settings_), settings_,
                               tre_data.f)
    calls.update(solve_u0=0, value=0)
    again = invert(tre_data, settings_, _start=start)
    assert again.history == res.history
    assert calls["solve_u0"] == calls["value"] - 1


def test_shape_derivative_concentric_closed_form(conc_data):
    # u0 = g(a0) cos(theta) on the circle, so du0/da0 = g'(a0) cos(theta)
    dg = -4 * R0 / (1 + R0 * R0) ** 2
    h = 1e-5
    assert np.isclose(dg, (g_two_phase(R0 + h) - g_two_phase(R0 - h)) / (2 * h),
                      rtol=1e-8)
    obj = _Objective(conc_data, InversionSettings(n_fourier_modes=0, alpha=0.0,
                                                  n_boundary=256))
    du = obj.jacobian(obj.value(np.array([R0]))[1][1])[:64, 0] / obj.sqrt_w
    theta = unit_circle_grid(conc_data.u0.size).t
    assert np.max(np.abs(du - dg * np.cos(theta))) < 1e-10


def test_invert_circle_radius_only(conc_data):
    st0 = InversionSettings(n_fourier_modes=0, alpha=0.0)
    res = invert(conc_data, st0)
    assert abs(res.shape.cos[0] - R0) < 1e-6
    assert symmetric_difference(res.shape, circle(R0)) < 1e-6
    assert res.converged


def test_invert_descends(tre_data):
    settings_ = InversionSettings(n_fourier_modes=8, alpha=1e-7)
    res = invert(tre_data, settings_)
    hist = np.array(res.history)
    assert np.all(np.diff(hist) < 0)


def test_reinversion_is_fixed_point(conc_data, f_cos):
    st0 = InversionSettings(n_fourier_modes=0, alpha=0.0)
    first = invert(conc_data, st0)
    data2 = solve_u0(first.shape, f_cos, n=128)
    second = invert(data2, st0)
    assert abs(first.shape.cos[0] - second.shape.cos[0]) < 1e-8


def test_invert_requires_current(conc_data):
    from mfeit.forward import CauchyData
    bare = CauchyData(f=None, u0=conc_data.u0)
    with pytest.raises(ValueError):
        invert(bare, InversionSettings(n_fourier_modes=0))


def test_symmetric_difference_oracles():
    assert symmetric_difference(TREFOIL, TREFOIL) == 0.0
    assert np.isclose(symmetric_difference(circle(0.5), circle(0.4)),
                      0.09 * np.pi, rtol=1e-12)
    # dense-quadrature oracle for circle vs trefoil
    th = np.linspace(0, 2 * np.pi, 1_000_000, endpoint=False)
    r = fourier_series(TREFOIL.cos, TREFOIL.sin, th)[0]
    dense = np.sum(np.abs(R0 ** 2 - r ** 2)) / 2 * (2 * np.pi / 1e6)
    assert np.isclose(symmetric_difference(circle(R0), TREFOIL), dense,
                      atol=1e-7)


def _direct_symmetric_difference(a, b):
    """Oracle: each radius summed mode by mode at the ``_N_QUAD`` angles."""
    n = reconstruct._N_QUAD
    th = 2 * np.pi * np.arange(n) / n
    ra = fourier_series(a.cos, a.sin, th)[0]
    rb = fourier_series(b.cos, b.sin, th)[0]
    return float(np.sum(np.abs(ra * ra - rb * rb)) * (np.pi / n))


@pytest.mark.parametrize("M", range(17))
def test_symmetric_difference_matches_the_direct_sum(M):
    rng = np.random.default_rng(M)
    a, b = (StarShape(cos=(r, *0.02 * rng.standard_normal(M)),
                      sin=tuple(0.02 * rng.standard_normal(M)))
            for r in (0.5, 0.52))
    for x, y in [(a, b), (a, circle(0.45)), (circle(0.6), b)]:
        want = _direct_symmetric_difference(x, y)
        assert abs(symmetric_difference(x, y) - want) <= 1e-14 * want


def test_symmetric_difference_folds_a_mode_above_the_nyquist():
    n = reconstruct._N_QUAD
    a = StarShape(cos=(0.5, 0.01, *[0.0] * 4997, 0.01),
                  sin=(*[0.0] * 4999, 0.02))
    nyquist = StarShape(cos=(0.5, *[0.0] * (n // 2 - 1), 0.02))
    b = StarShape(cos=(0.52, 0.0, 0.01), sin=(0.01,))
    for x, y in [(a, circle(0.45)), (a, b), (nyquist, b)]:
        want = _direct_symmetric_difference(x, y)
        assert abs(symmetric_difference(x, y) - want) <= 1e-14 * want
    # at the angles, mode n + 3 is mode 3
    high = StarShape(cos=(0.5, *[0.0] * (n + 2), 0.02),
                     sin=(*[0.0] * (n + 2), 0.01))
    low = StarShape(cos=(0.5, 0.0, 0.0, 0.02), sin=(0.0, 0.0, 0.01))
    assert np.isclose(symmetric_difference(high, b),
                      symmetric_difference(low, b), rtol=1e-14, atol=0)


def test_symmetric_difference_of_circles_is_the_annulus():
    for ra, rb in [(0.5, 0.4), (0.3, 0.7), (0.55, 0.55 + 1e-9)]:
        want = np.pi * abs(ra ** 2 - rb ** 2)
        assert np.isclose(symmetric_difference(circle(ra), circle(rb)), want,
                          rtol=4e-16, atol=0)


@given(st.lists(st.floats(0.25, 0.8), min_size=3, max_size=3),
       st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_symmetric_difference_is_a_metric(radii, wobbles):
    shapes = [StarShape(cos=(r, 0.0, w)) for r, w in zip(radii, wobbles)]
    a, b, c = shapes
    dab = symmetric_difference(a, b)
    assert np.isclose(dab, symmetric_difference(b, a), rtol=1e-12)
    assert dab >= 0
    assert dab <= symmetric_difference(a, c) + symmetric_difference(c, b) + 1e-12


def _project(y: np.ndarray, M: int) -> tuple:
    """Nearest point to y in the class rows of the inversion: 1/2 |x - y|^2
    minimised by ``levenberg_marquardt`` from the band's middle circle."""
    def value(x):
        return 0.5 * float((x - y) @ (x - y)), x - y

    x0 = _shape_to_params(circle(0.55), M)
    x, _, _, active, stopped = levenberg_marquardt(
        x0, value(x0), value, lambda x, r: (np.eye(x.size), r),
        *class_rows(M, DomainConfig(), 1e-3))
    return x, active, stopped


def test_projection_restores_the_c2_bound():
    # inside the band, but mode 16 alone gives |r''| = 64 > m = 50
    cfg = DomainConfig()
    y = np.zeros(33)
    y[0], y[16] = 0.5, 0.25
    x, active, stopped = _project(y, 16)
    assert stopped and active
    build_star_shape(x[:17], x[17:], cfg)


def test_projection_is_a_no_op_inside_the_class(tre_data, monkeypatch):
    """Trials inside the class never meet a row: the criterion-7 trefoil
    inverts bit for bit as it does with no rows at all."""
    settings_ = InversionSettings(n_fourier_modes=8, alpha=1e-7)
    res = invert(tre_data, settings_)
    monkeypatch.setattr(reconstruct, "class_rows",
                        lambda M, config, margin: (np.zeros((0, 2 * M + 1)),
                                                   np.zeros(0)))
    free = invert(tre_data, settings_)
    assert res.shape == free.shape and res.history == free.history
    assert res.converged and not res.hit_constraint


@given(st.floats(0.3, 0.8), st.lists(st.floats(-1.0, 1.0), min_size=32,
                                     max_size=32))
@settings(max_examples=20, deadline=None)
def test_projected_shapes_are_admissible(a0, coeffs):
    # such targets break thousands of rows at once
    cfg = DomainConfig()
    x, _, stopped = _project(np.array([a0] + coeffs), 16)
    assert stopped
    build_star_shape(x[:17], x[17:], cfg)


def test_rho_gap(conc_data, f_cos):
    assert abs(conc_data.rho - conc_data.rho) == 0.0
    other = solve_u0(circle(0.4), f_cos, n=256)
    # concentric circles both have rho = 0 by symmetry
    assert abs(conc_data.rho - other.rho) < 1e-12
    # asymmetric inclusion: value locked by regression
    bent = solve_u0(StarShape(cos=(0.5, 0.1)), f_cos, n=256)
    assert np.isclose(abs(conc_data.rho - bent.rho), 0.0790234926459577,
                      atol=1e-8)


def test_stationary_start_takes_no_step(f_cos, bgrid64):
    """The start circle fits the data up to a mode M = 0 cannot see and
    1e-9 cos(theta); the first step's predicted decrease is far below
    RTOL J, so the iteration stops at the start."""
    settings_ = InversionSettings(n_fourier_modes=0, alpha=0.0, n_boundary=64)
    u0 = (solve_u0(circle(0.55), f_cos, n=64).u0
          + 0.1 * np.cos(20 * bgrid64.t) + 1e-9 * np.cos(bgrid64.t))
    res = invert(CauchyData(f=f_cos, u0=_recenter(u0, bgrid64)), settings_)
    assert res.converged and res.n_iter == 0 and len(res.history) == 1
    assert res.shape == _params_to_shape(_start_params(settings_), 0)


@pytest.mark.parametrize("radius,edge", [(0.93, 1 - 0.1 - 1e-3),
                                         (0.15, 0.2 + 1e-3)])
def test_circle_outside_the_class_stops_converged_at_its_edge(f_cos, radius,
                                                              edge):
    """The admissible optimum of a circle outside the band (b0 = 0.2,
    delta = 0.1) is the band's edge less the inversion's margin."""
    settings_ = InversionSettings(n_fourier_modes=0, alpha=0.0, n_boundary=64)
    res = invert(solve_u0(circle(radius), f_cos, n=256), settings_)
    assert res.converged
    assert abs(res.shape.cos[0] - edge) < 1e-4


@pytest.mark.parametrize("shape,J,steps", [
    (StarShape(cos=(0.8, 0.0, 0.15)), 1.377e-3, 5),
    (StarShape(cos=(0.3, 0.0, 0.0, 0.1), sin=(0.0, 0.05)), 5.43e-8, 8)])
def test_shape_outside_the_class_reaches_the_constrained_optimum(
        f_cos, shape, J, steps):
    """SLSQP on the same misfit under the same rows reaches J = 1.376e-3
    and 5.4195e-8; each constrained step is exact, so a few steps do."""
    settings_ = InversionSettings(n_fourier_modes=4, alpha=0.0, n_boundary=64)
    res = invert(solve_u0(shape, f_cos, n=256), settings_)
    assert res.converged and res.hit_constraint
    assert res.history[-1] <= J and res.n_iter <= steps


@pytest.mark.parametrize("shape,M,J,steps", [
    (circle(0.93), 0, 1.772710e-3, 1), (circle(0.15), 0, 1.779124e-3, 2),
    (StarShape(cos=(0.8, 0.0, 0.15)), 4, 1.375469e-3, 3),
    (StarShape(cos=(0.3, 0.0, 0.0, 0.1), sin=(0.0, 0.05)), 4, 5.419486e-8, 6)])
def test_out_of_class_optimum_and_step_count_are_kept(f_cos, shape, M, J,
                                                      steps):
    """The constrained optima of ROADMAP's out-of-class table, to 6 digits,
    each in the same number of steps (64 nodes, alpha = 0)."""
    settings_ = InversionSettings(n_fourier_modes=M, alpha=0.0, n_boundary=64)
    res = invert(solve_u0(shape, f_cos, n=256), settings_)
    assert f"{res.history[-1]:.6e}" == f"{J:.6e}" and res.n_iter == steps
    assert res.converged and res.hit_constraint


def test_out_of_class_circle_reaches_the_closed_form_optimum(f_cos):
    """Circle 0.93 against the admissible circles: the optimum is the band's
    edge R = 0.899, where J = (pi/2) (g(R) - g(0.93))^2 for u0 = g cos, to 6
    digits once the inversion's own grid resolves the edge (256 nodes)."""
    settings_ = InversionSettings(n_fourier_modes=0, alpha=0.0,
                                  n_boundary=256)
    res = invert(solve_u0(circle(0.93), f_cos, n=256), settings_)
    J = np.pi / 2 * (g_two_phase(0.899) - g_two_phase(0.93)) ** 2
    assert f"{res.history[-1]:.6e}" == f"{J:.6e}"
    assert res.converged and res.hit_constraint


def test_stability_sweep_synthesizes_at_the_background_k0():
    """Synthesis and extraction share k0 = 2: the near-clean row recovers."""
    from mfeit.forward import FrequencyProfile
    from mfeit.geometry import DomainConfig
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    st0 = InversionSettings(n_fourier_modes=0, alpha=0.0,
                            config=DomainConfig(k0=2.0))
    res = stability_sweep(circle(R0), ([1.0], []), prof,
                          np.linspace(10.0, 50.0, 40), [1e-5], st0, seeds=[1],
                          max_poles=6, n_forward=128, allow_degenerate=True)
    (row,) = res.rows
    assert row["status"] == "ok"
    assert row["sym_diff"] < 1e-4


#: a cheap sweep of a circle: radius only, 12 frequencies, 64 nodes
_SMALL = dict(truth=circle(R0), f_coeffs=([1.0], []),
              profile=FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05}),
              omega_grid=np.linspace(10.0, 50.0, 12),
              settings=InversionSettings(n_fourier_modes=0, alpha=0.0),
              n_forward=64, allow_degenerate=True)


def test_a_failed_sweep_row_is_reported_and_left_out_of_the_medians(
        monkeypatch):
    """A row whose fit raises keeps its level and seed, reads NaN and
    ``failed:<Error>``, and counts in neither ``n_ok`` nor the medians."""
    # no pole cannot fit a circle's one-pole response: every row fails
    res = stability_sweep(**_SMALL, noise_levels=[1e-3], seeds=[1, 2],
                          max_poles=0)
    assert [r["status"] for r in res.rows] == ["failed:FitDiverged"] * 2
    assert all(np.isnan(r["eps_measured"]) and np.isnan(r["sym_diff"])
               for r in res.rows)
    assert res.summary == {"levels": [1e-3], "n_ok": [0],
                           "eps_median": [None], "sym_diff_median": [None]}
    assert res.to_csv().splitlines()[1] == "0.001,nan,1,nan,failed:FitDiverged"

    # only the second row, (1e-5, seed 2), gets no pole
    calls = []

    def fit(data, *, max_poles, **kwargs):
        calls.append(max_poles)
        return fit_rational(data, max_poles=0 if len(calls) == 2 else max_poles,
                            **kwargs)

    monkeypatch.setattr(reconstruct, "fit_rational", fit)
    res = stability_sweep(**_SMALL, noise_levels=[1e-5, 1e-3, 5e-2],
                          seeds=[1, 2], max_poles=1)
    first, failed = res.rows[:2]
    assert failed["status"] == "failed:FitDiverged"
    assert [r["status"] for r in res.rows].count("ok") == 5
    assert res.summary["n_ok"] == [1, 2, 2]
    assert res.summary["eps_median"][0] == first["eps_measured"]
    assert res.summary["sym_diff_median"][0] == first["sym_diff"]
    assert "log_model" in res.summary

    # with one seed the second row is the whole level 1e-3: its medians are
    # None, and the next level's stays at its own index
    calls.clear()
    res = stability_sweep(**_SMALL, noise_levels=[1e-5, 1e-3, 5e-2],
                          seeds=[1], max_poles=1)
    low, failed, high = res.rows
    assert failed["status"] == "failed:FitDiverged"
    assert res.summary["n_ok"] == [1, 0, 1]
    assert res.summary["eps_median"] == [low["eps_measured"], None,
                                         high["eps_measured"]]
    assert res.summary["sym_diff_median"] == [low["sym_diff"], None,
                                              high["sym_diff"]]
    assert "log_model" in res.summary


def test_stability_sweep_evaluates_its_profile_once(monkeypatch):
    calls = []

    def counted(omega, **params):
        calls.append(omega.size)
        return forward._affine(omega, **params)

    monkeypatch.setitem(forward._PROFILES, "affine", counted)
    stability_sweep(**_SMALL, noise_levels=[1e-3], seeds=[1], max_poles=1)
    assert calls == [12]


#: a small sweep: 3 noisy levels x 2 seeds = 6 rows, radius only
_SWEEP = dict(truth=StarShape(cos=(0.45, 0.0, 0.03)), f_coeffs=([1.0], []),
              profile=FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05}),
              omega_grid=np.linspace(10.0, 50.0, 40),
              noise_levels=[1e-4, 1e-3, 1e-2],
              settings=InversionSettings(n_fourier_modes=2, alpha=1e-6,
                                         n_boundary=64),
              seeds=[1, 2], max_poles=4, n_forward=128, allow_degenerate=True)


def test_sweep_solves_its_starting_circle_once(monkeypatch):
    settings_ = _SWEEP["settings"]
    start = _params_to_shape(_start_params(settings_), 2)
    calls = []

    def counted(shape, *args, **kwargs):
        calls.append(shape == start)
        return solve_u0(shape, *args, **kwargs)

    monkeypatch.setattr(reconstruct, "solve_u0", counted)
    res = stability_sweep(**_SWEEP)
    rows = len(res.rows)
    assert rows == 6
    # every row inverted, and only the sweep itself solved the start
    assert sum(r["status"] == "ok" for r in res.rows) == rows
    assert sum(calls) == 1
    assert len(calls) > rows


@pytest.fixture(scope="module")
def standalone_rows():
    """Each sweep row rebuilt by fit_rational -> extract_u0 -> invert."""
    s = _SWEEP
    k0 = s["settings"].config.k0
    f = current_from_fourier(*s["f_coeffs"], unit_circle_grid(64))
    kernels = assemble(discretize(s["truth"], s["n_forward"]))
    clean = synthesize(kernels, f, s["omega_grid"],
                       s["profile"].contrast(s["omega_grid"]), eta=0.0,
                       seed=None, k0=k0)
    rows = []
    for level in s["noise_levels"]:
        for seed in s["seeds"]:
            data = replace(clean, U=_add_noise(clean.U, level, seed))
            tol = max(level / float(np.max(np.abs(data.U))), 1e-11)
            model = fit_rational(data, max_poles=s["max_poles"], tol=tol,
                                 config=s["settings"].config)
            u0 = extract_u0(model, k0)
            u0.f = f
            shape = invert(u0, s["settings"]).shape
            rows.append((float(np.max(np.abs(data.U - clean.U))),
                         symmetric_difference(s["truth"], shape)))
    return rows


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_sweep_rows_equal_standalone_inversions(standalone_rows, threads):
    """Rows that share the start match standalone runs bit for bit.

    The sweep runs rows in order and ignores ``threads``; every value
    (``2`` is what the benchmark passes) gives the same rows.
    """
    res = stability_sweep(**_SWEEP, threads=threads)
    got = [(r["eps_measured"], r["sym_diff"]) for r in res.rows]
    assert got == standalone_rows
