import csv
import io

import numpy as np
import pytest
import scipy.linalg as sla

from mfeit.errors import ConstraintViolation, NearResonance, SingularSystem
from mfeit.forward import (CauchyData, FrequencyProfile, MultiFreqData,
                           _contrast_c, _recenter, current_from_fourier,
                           harmonic_lift_normal_derivative,
                           harmonic_lift_trace, solve_forward_batched,
                           solve_forward_direct, solve_forward_spectral,
                           solve_u0, synthesize)
from mfeit.geometry import (DomainConfig, StarShape, build_star_shape, circle,
                            discretize, unit_circle_grid)
from mfeit.potential import (KernelMatrices, _target_kernel, assemble,
                             eval_S, neumann_kernel, trace_matrix)

from conftest import R0, TREFOIL, g_two_phase


def test_current_has_zero_mean(bgrid64):
    f = current_from_fourier([1.0, 0.3], [0.2], bgrid64)
    assert abs(np.sum(f * bgrid64.weights)) < 1e-12


def test_harmonic_lift_neumann_to_dirichlet_multiplier(bgrid64):
    # lift of cos(m t) has trace cos(m t)/m on the unit circle
    for m in (1, 2, 5):
        f = np.cos(m * bgrid64.t)
        assert np.allclose(harmonic_lift_trace(f, bgrid64), f / m, atol=1e-12)


def test_harmonic_lift_rejects_nonzero_mean(bgrid64):
    with pytest.raises(ValueError):
        harmonic_lift_trace(np.cos(bgrid64.t) + 0.1, bgrid64)


def test_harmonic_lift_interior_is_linear_for_mode_one(bgrid64, f_cos):
    # lift of cos(theta) is u(x) = x1 in the whole disk; solve_u0 takes it
    # at the inclusion nodes through the transposed circle-to-node kernel
    grid = discretize(TREFOIL, 64)
    N = _target_kernel(grid, bgrid64.points)
    vals = -(N.T @ (f_cos * bgrid64.weights))
    assert np.allclose(vals, grid.points[:, 0], atol=1e-12)


def test_kernel_matrix_is_bitwise_symmetric(bgrid64):
    # the lift's kernel N(node, circle point) is the trace kernel transposed
    grid = discretize(TREFOIL, 128)
    N = _target_kernel(grid, bgrid64.points)
    lift = neumann_kernel(bgrid64.points[None, :, :], grid.points[:, None, :])
    assert np.array_equal(N.T, lift)


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
    SIAM Review 56, 2014). The constant-density mode (mu ~ 1/2) carries no
    weight and is left out of rho.
    """
    mu, _ = kernels.eig
    rho = (np.max(np.abs(mu[0.5 - mu > 1e-6])) + 0.5) / 2
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
    assert np.max(np.abs(u0.imag)) <= 1e-13
    assert np.max(np.abs(u0 - solve_u0(shape, f_cos, n=256).u0)) <= 1e-13


@pytest.mark.parametrize(
    "shape", [TREFOIL, *_random_admissible_shapes(8)],
    ids=["trefoil", *(f"random{i}" for i in range(8))])
def test_f_channel_weights_are_positive(shape, f_cos):
    # <f, U(c)> = <f, frak> + sum_n w_n / (c + mu_n), w_n = ((f w)^T T v_n) q_n
    # with the T, V and q of solve_forward_batched: a Stieltjes function of
    # c, the structure behind the real-pole fit in c
    kernels = assemble(discretize(shape, 256))
    mu, V = kernels.eig
    bgrid = unit_circle_grid(f_cos.size)
    fw = f_cos * bgrid.weights
    q = V.T @ (kernels.B @ -harmonic_lift_normal_derivative(
        f_cos, bgrid, kernels.grid.points, kernels.grid.normals))
    weights = (fw @ trace_matrix(kernels.grid, bgrid.points) @ V) * q
    kvals = np.array([-0.5 + 0.5j, 2.0 + 1.0j, 0.3 - 4.0j])
    c = _contrast_c(kvals, 1.0)
    expect = fw @ harmonic_lift_trace(f_cos, bgrid) + np.sum(
        weights[:, None] / (c[None, :] + mu[:, None]), axis=0)
    got = fw @ solve_forward_batched(kernels, f_cos, kvals)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
    significant = weights[np.abs(weights) > 1e-12 * np.max(np.abs(weights))]
    assert significant.size > 1 and np.all(significant > 0)


def _out_of_place_direct(kernels, f, k, k0=1.0):
    """Oracle: the LU solve with c I + K* built and cast out of place.

    It factors by scipy's LAPACK, as the solver does: numpy bundles
    another OpenBLAS build, whose threaded LU of a 64 x 64 matrix can
    differ in the last bit.
    """
    bgrid = unit_circle_grid(f.size)
    grid = kernels.grid
    dn_frak = harmonic_lift_normal_derivative(f, bgrid, grid.points,
                                              grid.normals)
    A = _contrast_c(k, k0) * np.eye(grid.n) + kernels.Kstar
    phi = sla.lu_solve(sla.lu_factor(A.astype(complex)),
                       -dn_frak.astype(complex) / k0)
    u = harmonic_lift_trace(f, bgrid) / k0 + eval_S(grid, phi, bgrid.points)
    return _recenter(u, bgrid)


def _out_of_place_batched(kernels, f, kvals, k0=1.0):
    """Oracle: the eigenbasis solve with U tiled and then cast to complex."""
    kvals = np.asarray(kvals, dtype=complex)
    bgrid = unit_circle_grid(f.size)
    grid = kernels.grid
    mu, V = kernels.eig
    U = np.tile((harmonic_lift_trace(f, bgrid) / k0)[:, None],
                (1, kvals.size)).astype(complex)
    live = kvals != k0
    denom = _contrast_c(kvals[live], k0)[None, :] + mu[:, None]
    dn_frak = harmonic_lift_normal_derivative(f, bgrid, grid.points,
                                              grid.normals)
    q = V.T @ (kernels.B @ (-dn_frak / k0))
    TV = trace_matrix(grid, bgrid.points) @ V
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
    assert data.sidecar() == {"rho": data.rho}


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
