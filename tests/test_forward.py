import csv
import io
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from mfeit.errors import ConstraintViolation, NearResonance, SingularSystem
from mfeit import forward
from mfeit.forward import (CauchyData, FrequencyProfile, MultiFreqData,
                           _contrast_c, _read_plain, _read_table, _recenter,
                           _write_table, current_from_fourier, harmonic_lift,
                           solve_forward_batched, solve_forward_direct,
                           solve_forward_spectral, solve_u0, synthesize)
from mfeit.geometry import (DomainConfig, StarShape, build_star_shape, circle,
                            discretize, unit_circle_grid)
from mfeit.potential import KernelMatrices, assemble, eval_S

from conftest import R0, TREFOIL, g_two_phase


def test_current_has_zero_mean(bgrid64):
    f = current_from_fourier([1.0, 0.3], [0.2], bgrid64)
    assert abs(np.sum(f * bgrid64.weights)) < 1e-12


def test_harmonic_lift_neumann_to_dirichlet_multiplier(bgrid64):
    # lift of cos(m t) has trace cos(m t)/m on the unit circle
    for m in (1, 2, 5):
        f = np.cos(m * bgrid64.t)
        assert np.allclose(harmonic_lift(f, bgrid64.points), f / m,
                           atol=1e-12)


def test_harmonic_lift_rejects_nonzero_mean(bgrid64):
    with pytest.raises(ValueError, match="zero boundary mean"):
        harmonic_lift(np.cos(bgrid64.t) + 0.1, bgrid64.points)


def test_harmonic_lift_interior_is_linear_for_mode_one(bgrid64, f_cos):
    # lift of cos(theta) is u(x) = x1 in the whole disk, so its derivative
    # along nu is nu1
    grid = discretize(TREFOIL, 64)
    assert np.allclose(harmonic_lift(f_cos, grid.points), grid.points[:, 0],
                       atol=1e-14)
    assert np.allclose(harmonic_lift(f_cos, grid.points, grid.normals),
                       grid.normals[:, 0], atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 7, 31, 32])
def test_harmonic_lift_matches_the_polar_closed_forms(bgrid64, m):
    # the lift of cos(m t) is r^m cos(m phi) / m, of sin(m t) r^m sin(m phi)
    # / m; on 64 samples m = 32 is the Nyquist mode, where sin(m t) vanishes
    # and cos(m t) must come back whole from the halved coefficient
    rng = np.random.default_rng(m)
    phi = rng.uniform(0.0, 2 * np.pi, 9)
    r = 0.95
    points = r * np.column_stack([np.cos(phi), np.sin(phi)])
    angle = rng.uniform(0.0, 2 * np.pi, 9)
    normals = np.column_stack([np.cos(angle), np.sin(angle)])
    e_r = points / r
    e_phi = np.column_stack([-e_r[:, 1], e_r[:, 0]])
    cases = [(np.cos, lambda a: -np.sin(a))]
    if m < 32:
        cases.append((np.sin, np.cos))
    for trig, dtrig in cases:
        f = trig(m * bgrid64.t)
        H = r ** m * trig(m * phi) / m
        # grad H = d_r H e_r + (1/r) d_phi H e_phi
        grad = (r ** (m - 1) * trig(m * phi))[:, None] * e_r \
            + (r ** (m - 1) * dtrig(m * phi))[:, None] * e_phi
        assert np.max(np.abs(harmonic_lift(f, points) - H)) <= 1e-13
        assert np.max(np.abs(harmonic_lift(f, points, normals)
                             - np.sum(grad * normals, axis=1))) <= 1e-13


def test_class_edge_circle_meets_the_closed_forms(bgrid64, f_cos):
    # circle 0.9, at the top of the band: u0 = g(R) cos and, with
    # lambda = (k0 - k) / (k0 + k), U = (1 + R^2 lambda)/(1 - R^2 lambda) cos;
    # the lift carries no quadrature floor there
    R = 0.9
    data = solve_u0(circle(R), f_cos, n=256)
    assert np.max(np.abs(data.u0 - g_two_phase(R) * np.cos(bgrid64.t))) <= 1e-13
    kernels = assemble(discretize(circle(R), 256))
    kvals = np.array([2.0, 0.5, 3 + 1j])
    lam = (1 - kvals) / (1 + kvals)
    expect = np.cos(bgrid64.t)[:, None] * ((1 + R * R * lam)
                                           / (1 - R * R * lam))[None, :]
    U = solve_forward_batched(kernels, f_cos, kvals)
    assert np.max(np.abs(U - expect)) <= 1e-13


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("fill,cause", [(0.0, "zero pivot"),
                                        (np.nan, "non-finite")])
def test_degenerate_saddle_raises_singular_system(f_cos, fill, cause):
    # S = 0 leaves every trace row [0 ... 0 -1]: an exactly zero pivot;
    # a NaN operator passes the factorization but not the solution check
    grid = discretize(circle(R0), 64)
    with pytest.raises(SingularSystem, match=cause):
        solve_u0(circle(R0), f_cos, grid=grid, S=np.full((64, 64), fill))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_direct_system_raises_singular_system(f_cos):
    # K* = 0 and k = -k0 give c = 0: the system matrix is exactly zero
    grid = discretize(circle(R0), 64)
    zero = KernelMatrices(S=np.zeros((64, 64)), Kstar=np.zeros((64, 64)),
                          grid=grid)
    with pytest.raises(SingularSystem, match="zero pivot in the direct"):
        solve_forward_direct(circle(R0), f_cos, -1.0, kernels=zero)


def test_solve_u0_concentric_closed_form(bgrid64, f_cos, conc_kernels):
    data = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    expect = g_two_phase(R0) * np.cos(bgrid64.t)
    assert np.max(np.abs(data.u0 - expect)) < 1e-12
    assert abs(data.rho) < 1e-12


def test_solve_forward_direct_concentric_closed_form(bgrid64, f_cos,
                                                     conc_kernels):
    for k in (2.0, 0.5, 3 + 1j):
        mu = (1 - k) / (1 + k)
        u = solve_forward_direct(circle(R0), f_cos, k, kernels=conc_kernels)
        expect = (1 + mu * R0**2) / (1 - mu * R0**2) * np.cos(bgrid64.t)
        assert np.max(np.abs(u - expect)) < 1e-8


def test_forward_at_background_contrast(bgrid64, f_cos, conc_kernels):
    # k = k0: inclusion invisible, voltage is the lift divided by k0
    u = solve_forward_direct(circle(R0), f_cos, 1.0, kernels=conc_kernels)
    assert np.max(np.abs(u - np.cos(bgrid64.t))) < 1e-12


def test_forward_outputs_zero_mean(bgrid64, f_cos, tre_kernels):
    u = solve_forward_direct(TREFOIL, f_cos, 2 + 1j, kernels=tre_kernels)
    assert abs(np.sum(u * bgrid64.weights)) < 1e-10


def test_spectral_matches_direct_concentric(bgrid64, f_cos, conc_kernels,
                                            conc_spectrum):
    u0 = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    for k in (2.0, 0.4 + 0.8j, -0.3 + 0.5j):
        ud = solve_forward_direct(circle(R0), f_cos, k, kernels=conc_kernels)
        us = solve_forward_spectral(conc_spectrum, f_cos, k, 1.0, u0)
        assert np.max(np.abs(ud - us)) / np.max(np.abs(ud)) < 1e-10


def test_spectral_series_term_closed_form(bgrid64, f_cos, conc_kernels,
                                          conc_spectrum):
    # k=2 concentric: u - u0 has amplitude g(r0) terms summing to
    # c_1 w_1 / (1 + lambda_1) with value 0.4/1.625 cos(theta) on the circle
    u0 = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    us = solve_forward_spectral(conc_spectrum, f_cos, 2.0, 1.0, u0)
    diff = us - u0.u0
    assert np.max(np.abs(diff - (0.4 / 1.625) * np.cos(bgrid64.t))) < 1e-10


def test_guards_refuse_a_nan_distance(f_cos, conc_kernels, conc_spectrum):
    # a nan contrast has a nan shift and distance: no nan voltage is returned
    u0 = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NearResonance, match="within nan"):
            solve_forward_batched(conc_kernels, f_cos, [2.0, complex(np.nan)])
        with pytest.raises(NearResonance, match="within nan"):
            solve_forward_spectral(conc_spectrum, f_cos, complex(np.nan), 1.0,
                                   u0)


@pytest.mark.parametrize("k", [1e308, 1.7e308j], ids=["real", "imag"])
def test_shift_of_a_contrast_near_the_float_maximum_is_minus_half(k):
    # 2 (k0 - k) overflows; c = (k0 + k) / (2 (k0 - k)) -> -1/2 as k -> inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shifts = [_contrast_c(k, 1.0), *_contrast_c(np.array([2.0, k]), 1.0)]
    assert abs(shifts[0] + 0.5) <= 1e-15 and abs(shifts[2] + 0.5) <= 1e-15
    # every other shift is the quotient, bit for bit
    assert shifts[1] == (1.0 + 2.0) / (2.0 * (1.0 - 2.0))


def test_shift_at_a_float_maximum_k0_is_formed_without_a_warning():
    # k0 - k overflows too, and 2 (k0 - k) reads inf + nan j; at k = 0.5,
    # k0 / k would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = _contrast_c(np.array([-1.7e308 + 0j, 2.0, 0.5]), 1.7e308)
    assert np.max(np.abs(c - [0.0, 0.5, 0.5])) <= 1e-15


def test_shift_keeps_its_bits_below_the_float_maximum():
    rng = np.random.default_rng(5)
    k = rng.standard_normal(64) * 10.0 ** rng.uniform(-3, 300, 64) \
        + 1j * rng.standard_normal(64) * 10.0 ** rng.uniform(-3, 300, 64)
    quotient = (2.0 + k) / (2.0 * (2.0 - k))
    assert _contrast_c(k, 2.0).tobytes() == quotient.tobytes()
    # a scalar shift is numpy's complex quotient too (Python's complex
    # division differs from it in the last bit on about one in seven)
    scalars = np.array([_contrast_c(complex(v), 2.0) for v in k])
    numpy_quotients = np.array([(np.complex128(2.0) + v)
                                / (2.0 * (np.complex128(2.0) - v)) for v in k])
    assert scalars.tobytes() == numpy_quotients.tobytes() == quotient.tobytes()


#: contrasts with an infinite part: each is the perfect conductor
INFINITE = [np.inf, complex(np.inf, 0.0), complex(1.0, np.inf),
            complex(np.inf, np.inf), complex(-np.inf, 1.0)]


@pytest.mark.parametrize("k0", [1.0, 2.5])
def test_shift_is_a_value_at_both_ends_of_the_axis(k0):
    # k = k0 is c = inf + 0j, where the inclusion is invisible, and every
    # infinite k is c = -1/2 exactly; neither end warns, alone or in an
    # array, and a finite contrast beside them keeps its quotient
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_k0 = [_contrast_c(k0, k0), *_contrast_c(np.array([k0, 2.0]), k0)]
        at_inf = [*(_contrast_c(k, k0) for k in INFINITE),
                  *_contrast_c(np.array(INFINITE), k0)]
    for c in at_k0[:2]:
        assert c.real == np.inf and c.imag == 0.0
    assert at_k0[2] == (k0 + 2.0) / (2.0 * (k0 - 2.0))
    assert all(c == -0.5 for c in at_inf)
    # a nan contrast keeps a nan shift, which both guards refuse
    with np.errstate(invalid="ignore"):
        assert np.isnan(_contrast_c(complex(np.nan), k0))


@pytest.mark.parametrize("k0", [1.0, 2.5])
@pytest.mark.parametrize("shape, kernels_name", [(TREFOIL, "tre_kernels"),
                                                 (circle(R0), "conc_kernels")],
                         ids=["trefoil", "circle"])
def test_batched_solve_at_an_infinite_contrast_is_u0_over_k0(
        request, shape, kernels_name, k0, f_cos):
    # the paper's limit u0 = k0 U(k = inf), taken as an ordinary contrast
    kernels = request.getfixturevalue(kernels_name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        U = solve_forward_batched(kernels, f_cos, [2.0, *INFINITE], k0)
    u0 = solve_u0(shape, f_cos, grid=kernels.grid).u0
    assert np.max(np.abs(U[:, 1:] - u0[:, None] / k0)) <= 1e-13


@pytest.mark.parametrize("k0", [1.0, 2.5])
@pytest.mark.parametrize("shape, kernels_name, spectrum_name",
                         [(TREFOIL, "tre_kernels", "tre_spectrum"),
                          (circle(R0), "conc_kernels", "conc_spectrum")],
                         ids=["trefoil", "circle"])
def test_spectral_solve_at_an_infinite_contrast_is_u0_over_k0(
        request, shape, kernels_name, spectrum_name, k0, f_cos):
    # c + mu = -lambda at every infinite k, so each mode's weight
    # 1 + lambda / (c + mu) is 0 to rounding, a complex k included
    spectrum = request.getfixturevalue(spectrum_name)
    u0 = solve_u0(shape, f_cos, grid=request.getfixturevalue(kernels_name).grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        U = np.column_stack([solve_forward_spectral(spectrum, f_cos, k, k0, u0)
                             for k in INFINITE])
    assert np.max(np.abs(U - u0.u0[:, None] / k0)) <= 1e-13


def test_large_contrast_approaches_perfect_conductor(bgrid64, f_cos,
                                                     conc_kernels):
    u0 = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    u = solve_forward_direct(circle(R0), f_cos, 1e6, kernels=conc_kernels)
    assert np.max(np.abs(u - u0.u0)) < 1e-5


def test_near_resonance_guard(f_cos, conc_kernels, conc_spectrum):
    with pytest.raises(NearResonance):
        solve_forward_batched(conc_kernels, f_cos, [-0.6 + 1e-13])
    u0 = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    with pytest.raises(NearResonance):
        solve_forward_spectral(conc_spectrum, f_cos,
                               conc_spectrum.resonances[0], 1.0, u0)


@pytest.mark.parametrize("offset, refused", [(2e-10j, True), (1e-9j, False),
                                             (None, False)],
                         ids=["2e-10", "1e-9", "background"])
def test_both_guards_measure_the_distance_in_c(f_cos, conc_kernels,
                                               conc_spectrum, offset, refused):
    # min|c + mu|: 2e-10 off the first resonance it is 7.8e-11, while
    # |k0 + lambda (k - k0)| = |k0 - k| |c + mu| reads 1.25e-10; at k = k0,
    # where c is infinite, both solve, with no warning
    k1 = complex(conc_spectrum.resonances[0])
    k = 1.0 if offset is None else k1 + offset
    u0 = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    for solve in (lambda: solve_forward_batched(conc_kernels, f_cos, [k]),
                  lambda: solve_forward_spectral(conc_spectrum, f_cos, k, 1.0,
                                                 u0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(NearResonance):
                    solve()
            else:
                assert np.all(np.isfinite(solve()))


def test_spectral_rejects_a_current_off_the_trace_grid(f_cos, conc_kernels,
                                                       conc_spectrum):
    u0 = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    f32 = current_from_fourier([1.0], [], unit_circle_grid(32))
    with pytest.raises(ValueError, match="different grid than the traces"):
        solve_forward_spectral(conc_spectrum, f32, 2.0, 1.0, u0)


@pytest.mark.parametrize("shape, kernels_name", [(TREFOIL, "tre_kernels"),
                                                 (circle(R0), "conc_kernels")])
def test_batched_matches_direct_oracle(request, shape, kernels_name, f_cos):
    # eigenbasis solve against one LU per contrast: affine and Debye sweeps,
    # a near perfect conductor, and k = k0 where the inclusion is invisible;
    # relative to the sweep's voltage scale (every column is O(1) here)
    kernels = request.getfixturevalue(kernels_name)
    omega = np.linspace(1.0, 50.0, 7)
    kvals = np.concatenate([
        FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05}).contrast(omega),
        FrequencyProfile("debye", {"k_inf": 0.3, "k_s": 4.0, "tau": 0.2}
                         ).contrast(omega),
        [1e6, 1.0]])
    U = solve_forward_batched(kernels, f_cos, kvals)
    Ud = np.column_stack([solve_forward_direct(shape, f_cos, k, kernels=kernels)
                          for k in kvals])
    assert np.max(np.abs(U - Ud)) <= 1e-12 * np.max(np.abs(Ud))


def _contour_u0(kernels, f, k0=1.0, n_nodes=128):
    """u0 = k0 U(k = inf) from batched voltages on a circle in c.

    In c = (k0 + k) / (2 (k0 - k)) the voltage is rational with poles at
    -mu, and k = inf is c = -1/2, k = k0 is c = inf. The circle |c| = rho
    encloses every pole that a zero-mean current excites and leaves -1/2
    outside, so U(-1/2) = U(inf) - (1/2 pi i) int U(z) / (z + 1/2) dz,
    which the trapezoid rule resolves geometrically (Trefethen & Weideman,
    SIAM Review 56, 2014). ``eig`` holds no equilibrium mode (mu = 1/2).
    """
    mu, _ = kernels.eig
    rho = (np.max(np.abs(mu)) + 0.5) / 2
    c = rho * np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    U = solve_forward_batched(kernels, f, k0 * (2 * c - 1) / (2 * c + 1), k0)
    U_inf = solve_forward_batched(kernels, f, [k0], k0)[:, 0]
    return k0 * (U_inf - np.mean(U * (c / (c + 0.5)), axis=1))


def _random_admissible_shapes(count, seed=0):
    """a0 in [0.4, 0.6] and 4 cos, 4 sin modes of size <= 0.05, admissible."""
    rng = np.random.default_rng(seed)
    shapes = []
    while len(shapes) < count:
        coef = rng.uniform(-0.05, 0.05, 8)
        try:
            shapes.append(build_star_shape((rng.uniform(0.4, 0.6), *coef[:4]),
                                           coef[4:], DomainConfig()))
        except ConstraintViolation:
            pass
    return shapes


@pytest.mark.parametrize(
    "shape", [circle(R0), TREFOIL, *_random_admissible_shapes(8)],
    ids=["circle", "trefoil", *(f"random{i}" for i in range(8))])
def test_contour_of_batched_voltages_recovers_perfect_conductor(shape, f_cos):
    # the second-kind K* solver swept around a contour against the
    # first-kind saddle solve of S: u0 = k0 U(k = inf)
    kernels = assemble(discretize(shape, 256))
    u0 = _contour_u0(kernels, f_cos)
    expect = solve_u0(shape, f_cos, n=256).u0
    assert np.max(np.abs(u0.imag)) <= 1e-13
    assert np.max(np.abs(u0 - expect)) <= 1e-13
    # and directly: k = 1e300 is c = -1/2 to rounding and k = inf exactly,
    # u0 = k0 U(k = inf)
    U_inf = solve_forward_batched(kernels, f_cos, [1e300, np.inf])
    assert np.max(np.abs(U_inf - expect[:, None])) <= 1e-13


#: ROADMAP's off-centre and many-mode truths, beside the trefoil
OFF_CENTRE = StarShape(cos=(0.45, 0.1, 0.04), sin=(0.05, 0.0, 0.03))
MANY_MODE = StarShape(cos=(0.5, 0.0, *(0.25 * (-1) ** m / m ** 3
                                       for m in range(2, 25))))


@pytest.mark.parametrize("shape, truth, k0", [
    pytest.param(shape, truth, k0,
                 id=name if k0 == 1.0 else f"{name}-k0={k0}")
    for k0 in (1.0, 2.5)
    for name, shape, truth in [
        ("trefoil", TREFOIL, True), ("off-centre", OFF_CENTRE, True),
        ("many-mode", MANY_MODE, True),
        *((f"random{i}", s, False)
          for i, s in enumerate(_random_admissible_shapes(8)))]])
def test_f_channel_weights_are_positive(shape, truth, k0, f_cos):
    # <f, U(c)> = <f, frak> / k0 + sum_n w_n / (c + mu_n),
    # w_n = <f, TV_n>_w q_n with the modes of solve_forward_batched: a
    # Stieltjes function of c, the structure behind the real-pole fit in c
    kernels = assemble(discretize(shape, 256))
    mu, TV, q = forward._modes(kernels, f_cos, k0)
    bgrid = unit_circle_grid(f_cos.size)
    fw = f_cos * bgrid.weights
    fTV = fw @ TV
    weights = fTV * q
    kvals = k0 * np.array([-0.5 + 0.5j, 2.0 + 1.0j, 0.3 - 4.0j])
    c = _contrast_c(kvals, k0)
    expect = fw @ harmonic_lift(f_cos, bgrid.points) / k0 + np.sum(
        weights[:, None] / (c[None, :] + mu[:, None]), axis=0)
    got = fw @ solve_forward_batched(kernels, f_cos, kvals, k0)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
    significant = weights[np.abs(weights) > 1e-12 * np.max(np.abs(weights))]
    assert significant.size > 1 and np.all(significant > 0)
    # <f, TV_n>_w = k0 q_n / (1/2 - mu_n), so w_n = k0 q_n^2 / (1/2 - mu_n);
    # on the random shapes that come near the circle the trace aliases
    # above this bound
    if truth:
        assert (np.max(np.abs(fTV - k0 * q / (0.5 - mu)))
                <= 1e-13 * np.max(np.abs(fTV)))


def _out_of_place_direct(kernels, f, k, k0=1.0):
    """Oracle: the LU solve with c I + K* built and cast out of place.

    It factors by scipy's LAPACK, as the solver does: numpy bundles
    another OpenBLAS build, whose threaded LU of a 64 x 64 matrix can
    differ in the last bit.
    """
    bgrid = unit_circle_grid(f.size)
    grid = kernels.grid
    dn_frak = harmonic_lift(f, grid.points, grid.normals)
    A = _contrast_c(k, k0) * np.eye(grid.n) + kernels.Kstar
    phi = sla.lu_solve(sla.lu_factor(A.astype(complex)),
                       -dn_frak.astype(complex) / k0)
    u = harmonic_lift(f, bgrid.points) / k0 + eval_S(grid, phi, bgrid.points)
    return _recenter(u, bgrid)


def _out_of_place_batched(kernels, f, kvals, k0=1.0):
    """Oracle: the eigenbasis solve with U tiled and then cast to complex."""
    kvals = np.asarray(kvals, dtype=complex)
    bgrid = unit_circle_grid(f.size)
    grid = kernels.grid
    mu, V = kernels.eig
    U = np.tile((harmonic_lift(f, bgrid.points) / k0)[:, None],
                (1, kvals.size)).astype(complex)
    live = kvals != k0
    denom = _contrast_c(kvals[live], k0)[None, :] + mu[:, None]
    dn_frak = harmonic_lift(f, grid.points, grid.normals)
    q = V.T @ (kernels.B @ (-dn_frak / k0))
    TV = eval_S(grid, V, bgrid.points)
    U[:, live] += TV @ (q[:, None] / denom)
    return _recenter(U, bgrid)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("shape", [circle(R0), TREFOIL],
                         ids=["circle", "trefoil"])
def test_forward_solves_equal_the_out_of_place_forms(shape, n, f_cos):
    kernels = assemble(discretize(shape, n))
    kvals = [1 + 1j, -0.5 + 0.5j, 1e6, 3]
    for k in kvals:
        assert np.array_equal(
            solve_forward_direct(shape, f_cos, k, kernels=kernels),
            _out_of_place_direct(kernels, f_cos, k))
    assert np.array_equal(solve_forward_batched(kernels, f_cos, kvals + [1.0]),
                          _out_of_place_batched(kernels, f_cos, kvals + [1.0]))


def test_frequency_profiles():
    affine = FrequencyProfile("affine", {"k_r": 2.0, "c": 0.5})
    assert np.allclose(affine.contrast([0.0, 2.0]), [2.0, 2 + 1j])
    debye = FrequencyProfile("debye", {"k_inf": 1.0, "k_s": 3.0, "tau": 0.1})
    assert np.isclose(debye.contrast(0.0), 3.0)
    assert np.isclose(debye.contrast(1e9).real, 1.0, atol=1e-6)
    with pytest.raises(ValueError):
        FrequencyProfile("weird", {}).contrast(1.0)
    # touching the closed negative real axis is rejected
    with pytest.raises(ValueError, match="closed negative real axis"):
        FrequencyProfile("affine", {"k_r": -1.0, "c": 1.0}).contrast([0.0, 1.0])
    rt = FrequencyProfile.from_dict({"model": affine.model, **affine.params})
    assert rt == affine


def test_synthesize_deterministic_and_calibrated(f_cos, conc_kernels):
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    omega = np.linspace(1.0, 10.0, 8)
    kvals = prof.contrast(omega)
    clean = synthesize(conc_kernels, f_cos, omega, kvals, 0.0, None, k0=1.0)
    a = synthesize(conc_kernels, f_cos, omega, kvals, 1e-3, 42, k0=1.0)
    b = synthesize(conc_kernels, f_cos, omega, kvals, 1e-3, 42, k0=1.0)
    c = synthesize(conc_kernels, f_cos, omega, kvals, 1e-3, 43, k0=1.0)
    assert np.array_equal(a.U, b.U)
    assert not np.array_equal(a.U, c.U)
    # sup of the injected noise equals eta exactly
    assert np.isclose(np.max(np.abs(a.U - clean.U)), 1e-3, rtol=1e-12)


def test_cauchy_data_csv_round_trip(bgrid64, f_cos, conc_kernels):
    data = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    text = data.to_csv()
    again = CauchyData.from_csv(text)
    assert np.array_equal(again.f, data.f)
    assert np.array_equal(again.u0, data.u0)
    assert again.to_csv() == text


def test_multifreq_csv_round_trip(f_cos, conc_kernels):
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    omega = np.linspace(1, 5, 4)
    data = synthesize(conc_kernels, f_cos, omega, prof.contrast(omega), 1e-4, 7,
                      k0=1.0)
    text = data.to_csv()
    again = MultiFreqData.from_csv(text)
    assert np.array_equal(again.omega, data.omega)
    assert np.array_equal(again.k, data.k)
    assert np.array_equal(again.U, data.U)
    assert again.to_csv() == text


def _loop_csv(header, rows):
    """Oracle writer: csv.writer over each value's repr(float(.))."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


#: values whose text must survive a write and read unchanged
_EDGE = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3]


def test_multifreq_csv_matches_loop_writer_and_round_trips():
    rng = np.random.default_rng(3)
    m, J = 5, 7
    U = rng.standard_normal((m, J)) + 1j * rng.standard_normal((m, J))
    U.real[0, :J] = _EDGE
    U.imag[1, :J] = _EDGE
    data = MultiFreqData(omega=np.array(_EDGE), k=np.array(_EDGE) - 1j, U=U)
    header = ["omega", "re_k", "im_k"]
    for i in range(m):
        header += [f"re_u{i}", f"im_u{i}"]
    rows = [[data.omega[j], data.k[j].real, data.k[j].imag]
            + [part for i in range(m) for part in (U[i, j].real, U[i, j].imag)]
            for j in range(J)]
    text = data.to_csv()
    assert text == _loop_csv(header, rows)
    again = MultiFreqData.from_csv(text)
    for a, b in [(again.omega, data.omega), (again.k, data.k),
                 (again.U, data.U)]:
        assert a.tobytes() == b.tobytes()  # keeps the sign of -0.0
    # real-typed k and U are written as complex ones with zero imaginary part
    assert MultiFreqData(omega=data.omega, k=data.k.real,
                         U=U.real).to_csv() == MultiFreqData(
        omega=data.omega, k=data.k.real.astype(complex),
        U=U.real.astype(complex)).to_csv()


@pytest.mark.parametrize("with_f", [True, False])
def test_cauchy_csv_matches_loop_writer_and_round_trips(with_f):
    m = len(_EDGE)
    theta = 2 * np.pi * np.arange(m) / m
    f = np.array(_EDGE[::-1]) if with_f else None
    data = CauchyData(f=f, u0=np.array(_EDGE))
    fvals = f if with_f else np.full(m, np.nan)
    text = data.to_csv()
    assert text == _loop_csv(["theta", "f", "u0"],
                             zip(theta, fvals, data.u0))
    again = CauchyData.from_csv(text)
    assert again.u0.tobytes() == data.u0.tobytes()
    if with_f:
        assert again.f.tobytes() == f.tobytes()
    else:
        assert again.f is None


def _csv_read_table(text, optional=None, need=()):
    """Oracle of ``_read_table``: the ``csv`` module and one ``np.array``
    call for every text, the bad cell named by the same walk."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or not rows[0]:
        raise ValueError("no header or no data rows")
    header = rows[0]
    if len(header) < len(need):
        raise ValueError(f"row 1, column {need[len(header)]}: missing")
    try:
        data = np.array(rows[1:], dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header):
        forward._raise_at_bad_cell(rows[1:], header)
    bad = ~np.isfinite(data)
    if optional is not None and np.all(np.isnan(data[:, optional])):
        bad[:, optional] = False
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"row {i + 2}, column {header[j]}: not finite")
    return header, data


def _outcome(read, text, **kwargs):
    """(header, shape, bytes) of a table read, or the message it raised."""
    try:
        header, data = read(text, **kwargs)
    except ValueError as exc:
        return str(exc)
    return header, data.shape, data.dtype, data.tobytes()


def _written_tables():
    """One text of each CSV kind the CLI writes, with its reader's keywords:
    dataset.csv, forward.csv, u0.csv with and without f, traces.csv."""
    rng = np.random.default_rng(11)
    m, J = 16, 6
    U = rng.standard_normal((m, J)) + 1j * rng.standard_normal((m, J))
    U.real[0, :len(_EDGE)] = _EDGE[:J]
    omega = np.linspace(10.0, 50.0, J)
    cauchy = dict(optional=1, need=("theta", "f", "u0"))
    theta = 2 * np.pi * np.arange(m) / m
    return {
        "dataset": (MultiFreqData(omega=omega, k=-0.5 + 0.05j * omega,
                                  U=U).to_csv(), {}),
        "forward": (MultiFreqData(omega=np.arange(2.0), k=np.array(
            [2.0, 0.5 + 1j]), U=U[:, :2]).to_csv(), {}),
        "u0-with-f": (CauchyData(f=np.cos(theta), u0=U[:, 0].real).to_csv(),
                      cauchy),
        "u0-without-f": (CauchyData(f=None, u0=U[:, 1].real).to_csv(), cauchy),
        "traces": (_write_table(["theta", "w0", "w1"], np.column_stack(
            [theta, U.real[:, :2]]).tolist()), {}),
    }


@pytest.mark.parametrize("kind", list(_written_tables()))
def test_written_tables_read_by_the_c_reader_as_by_csv(kind):
    text, kwargs = _written_tables()[kind]
    assert _read_plain(text, len(kwargs.get("need", ()))) is not None
    got = _outcome(_read_table, text, **kwargs)
    assert got == _outcome(_csv_read_table, text, **kwargs)
    assert not isinstance(got, str)


#: texts that reach each rule of the two readers, each under "a,b"
_EDGE_TABLES = {
    "quote": 'a,b\n"1",2\n',
    "quoted-header": '"a",b\n1,2\n',
    "quoted-comma": 'a,b\n"1,5",2\n',
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "blank-mid": "a,b\n1,2\n\n3,4\n",
    "blank-leading": "\na,b\n1,2\n",
    "blank-trailing": "a,b\n1,2\n\n",
    "header-only": "a,b\n",
    "header-only-one-column": "a\n",
    "blank-leading-one-column": "\n1\n2\n",
    "header-no-newline": "a,b",
    "empty": "",
    "underscore": "a,b\n1_0,2\n",
    "spaces": "a,b\n 1 , 2\n",
    "tab": "a,b\n1\t,\t2\n",
    "inner-space": "a,b\n1 0,2\n",
    "whitespace-row": "a,b\n1,2\n  \n",
    "hash": "a,b\n#1,2\n",
    "hash-after": "a,b\n1,2#\n",
    "empty-cell": "a,b\n1,\n",
    "ragged": "a,b\n1,2\n3\n",
    "short": "a,b\n1\n",
    "wide": "a,b\n1,2,3\n",
    "nan": "a,b\nnan,2\n",
    "nan-both": "a,b\nnan,-nan\n",
    "inf": "a,b\n1,-inf\n",
    "hex": "a,b\n0x10,2\n",
    "fortran-exponent": "a,b\n1d5,2\n",
    "nan-payload": "a,b\nnan(1),2\n",
    "empty-header-cell": "a,,b\n1,2,3\n",
    "no-final-newline": "a,b\n1,-0.0\n5e-324,1e-400",
    "overflow": "a,b\n1e999,2\n",
    "fullwidth-digit": "a,b\n\uff11,2\n",
    "nul": "a,b\n1,2\x00\n",
    "form-feed": "a,b\n1,2\x0c3,4\n",
}


@pytest.mark.parametrize("need", [(), ("a", "b", "c")], ids=["any", "need-c"])
@pytest.mark.parametrize("optional", [None, 0])
@pytest.mark.parametrize("name", list(_EDGE_TABLES))
def test_read_table_matches_the_csv_oracle(name, optional, need):
    text = _EDGE_TABLES[name]
    assert (_outcome(_read_table, text, optional=optional, need=need)
            == _outcome(_csv_read_table, text, optional=optional, need=need))
