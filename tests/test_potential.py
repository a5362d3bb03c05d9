import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from mfeit.errors import (DomainViolation, InvalidResolution,
                          SingularEvaluation, TargetTooClose)
from mfeit.geometry import StarShape, circle, discretize, unit_circle_grid
from mfeit.potential import (_assemble_single_layer, _kress_log_row,
                             _node_pairs, _single_layer_row, _target_kernel,
                             assemble, eval_S, kress_log_matrix,
                             neumann_kernel, neumann_normal_derivative)

from conftest import TREFOIL, calderon_residual

R0 = 0.5


def _kress_row(n):
    """First column of the product rule, from its symbol."""
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    d = np.zeros(n)
    nz = freqs != 0
    d[nz] = -1.0 / np.abs(freqs[nz])
    return np.fft.ifft(d).real


def _gathered_kress(n):
    """The product rule as an index gather (i - j) % n of its symbol's row."""
    row = _kress_row(n)
    return row[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def _textbook_kernels(grid, targets):
    """Oracle: S, K* and N(target, node) written out term by term.

    An n x n sin^2, one log per factor of the kernel, the smooth remainder
    ln(d2 / sin^2) with diagonal limit ln|x'|, and the gathered circulant.
    """
    pts, t, h, n = grid.points, grid.t, grid.h, grid.n
    xx = np.sum(pts ** 2, axis=-1)
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.sum(diff ** 2, axis=-1)
    img2 = xx[:, None] * xx[None, :] - 2 * pts @ pts.T + 1
    sin2 = 4 * np.sin(0.5 * (t[:, None] - t[None, :])) ** 2
    np.fill_diagonal(d2, 1.0)
    np.fill_diagonal(sin2, 1.0)
    M = 0.5 * np.log(d2 / sin2)
    np.fill_diagonal(M, np.log(grid.jacobian))
    S = (0.5 * _gathered_kress(n) + h / (2 * np.pi) * M
         + h / (4 * np.pi) * np.log(img2)) * grid.jacobian[None, :]
    nu = grid.normals
    free = np.sum(diff * nu[:, None, :], axis=-1) / (2 * np.pi * d2)
    np.fill_diagonal(free, grid.curvature / (4 * np.pi))
    x_nu = np.sum(pts * nu, axis=-1)
    image = (xx[None, :] * x_nu[:, None] - nu @ pts.T) / (2 * np.pi * img2)
    Kstar = (free + image) * grid.weights[None, :]
    tt = np.sum(targets ** 2, axis=-1)
    td2 = np.sum((targets[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    timg2 = tt[:, None] * xx[None, :] - 2 * targets @ pts.T + 1
    N = (np.log(td2) + np.log(timg2)) / (4 * np.pi)
    return S, Kstar, N


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n", [64, 128, 256, 512])
@pytest.mark.parametrize("shape", [circle(R0), TREFOIL],
                         ids=["circle", "trefoil"])
def test_kernels_match_textbook_assembly(shape, n):
    grid = discretize(shape, n)
    targets = unit_circle_grid(64).points
    S, Kstar, N = _textbook_kernels(grid, targets)
    kernels = assemble(grid)
    assert _rel(kernels.S, S) <= 1e-13
    assert _rel(kernels.Kstar, Kstar) <= 1e-13
    assert _rel(_target_kernel(grid, targets), N) <= 1e-13


def _out_of_place_kernels(grid):
    """Oracle: S, K*, B and (mu, V) with one temporary per operation.

    The same operations in the same order as the in-place assembly, written
    as plain expressions: every dot product as two products and one sum,
    the circulant as a matrix, sym(M) as 0.5 (M + M^T), and eigh on copies.
    """
    def dot(a, b):
        return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]

    x, z = grid.points[:, None, :], grid.points[None, :, :]
    nu = grid.normals[:, None, :]
    dx, dy = x[..., 0] - z[..., 0], x[..., 1] - z[..., 1]
    d2 = dx * dx + dy * dy
    img2 = (1.0 - dot(x, x)) * (1.0 - dot(z, z)) + d2
    np.fill_diagonal(d2, grid.jacobian ** 2)
    free = (dx * nu[..., 0] + dy * nu[..., 1]) / (2 * np.pi * d2)
    image = (dot(z, z) * dot(x, nu) - dot(z, nu)) / (2 * np.pi * img2)
    np.fill_diagonal(free, grid.curvature / (4 * np.pi))
    Kstar = (free + image) * grid.weights[None, :]
    S = (np.log(d2 * img2) * (grid.h / (4 * np.pi))
         + sla.circulant(_single_layer_row(grid.n))) * grid.jacobian[None, :]
    M = -(grid.weights[:, None] * S)
    B = 0.5 * (M + M.T)
    A = B @ Kstar
    return S, Kstar, B, sla.eigh(0.5 * (A + A.T), B)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("shape", [circle(R0), TREFOIL],
                         ids=["circle", "trefoil"])
def test_in_place_operators_equal_the_out_of_place_forms(shape, n):
    grid = discretize(shape, n)
    S, Kstar, B, (mu, V) = _out_of_place_kernels(grid)
    kernels = assemble(grid)
    assert np.array_equal(kernels.S, S)
    assert np.array_equal(kernels.Kstar, Kstar)
    assert np.array_equal(kernels.B, B)
    assert np.array_equal(kernels.B, kernels.B.T)
    assert np.array_equal(kernels.eig[0], mu)
    assert np.array_equal(kernels.eig[1], V)


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_single_layer_equals_the_uncached_formula(n):
    """Oracle: the parameter-only row built inline on every call."""
    grid = discretize(TREFOIL, n)
    h = grid.h
    c = 0.5 * _kress_row(n)
    c[1:] -= (h / (4 * np.pi)) * np.log(
        4.0 * np.sin(np.pi * np.arange(1, n) / n) ** 2)
    d2, img2 = _node_pairs(grid)
    S = d2 * img2
    np.log(S, out=S)
    S *= h / (4 * np.pi)
    S += sla.circulant(c)
    S *= grid.jacobian[None, :]
    for _ in range(2):  # the second call reads the size-only row back
        assert np.array_equal(_assemble_single_layer(grid), S)


def test_size_only_constants_are_read_only():
    for a in (kress_log_matrix(64), _kress_log_row(64), _single_layer_row(64)):
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert kress_log_matrix(64) is kress_log_matrix(64)


@pytest.mark.parametrize("n", [16, 64, 250, 512])
def test_kress_circulant_equals_index_gather(n):
    assert np.array_equal(kress_log_matrix(n), _gathered_kress(n))


def test_kress_rule_is_spectrally_exact():
    n = 64
    t = 2 * np.pi * np.arange(n) / n
    R = kress_log_matrix(n)
    for m in range(1, 6):
        # (1/2pi) int ln(4 sin^2((t-s)/2)) cos(ms) ds = -cos(mt)/m
        assert np.allclose(R @ np.cos(m * t), -np.cos(m * t) / m, atol=1e-13)
        assert np.allclose(R @ np.sin(m * t), -np.sin(m * t) / m, atol=1e-13)


@given(st.sampled_from([16, 32, 64, 128, 250]))
@settings(max_examples=5, deadline=None)
def test_kress_rule_annihilates_constants(n):
    R = kress_log_matrix(n)
    assert np.max(np.abs(R @ np.ones(n))) < 1e-12


def test_neumann_kernel_zero_boundary_mean():
    g = discretize(circle(1.0), 512)
    rng = np.random.default_rng(0)
    for _ in range(3):
        z = rng.uniform(-0.5, 0.5, size=2)
        vals = neumann_kernel(g.points, z[None, :])
        assert abs(np.sum(vals * g.weights)) < 1e-10


def test_neumann_kernel_constant_flux():
    # dN/dnu = 1/(2pi) on the unit circle, independent of x and z
    g = discretize(circle(1.0), 64)
    z = np.array([0.23, -0.11])
    eps = 1e-6
    for i in [0, 17, 40]:
        x, nu = g.points[i], g.normals[i]
        d = (neumann_kernel(x + eps * nu, z) - neumann_kernel(x - eps * nu, z)) \
            / (2 * eps)
        assert abs(d - 1 / (2 * np.pi)) < 1e-6


def test_neumann_kernel_harmonic_away_from_source():
    z = np.array([0.3, 0.1])
    x = np.array([-0.2, 0.4])
    h = 1e-4
    lap = (neumann_kernel(x + [h, 0], z) + neumann_kernel(x - [h, 0], z)
           + neumann_kernel(x + [0, h], z) + neumann_kernel(x - [0, h], z)
           - 4 * neumann_kernel(x, z)) / h**2
    assert abs(lap) < 1e-5


def test_neumann_kernel_symmetry():
    x = np.array([0.3, 0.1])
    z = np.array([-0.2, 0.4])
    assert np.isclose(neumann_kernel(x, z), neumann_kernel(z, x), rtol=1e-14)


def test_neumann_kernel_guards():
    with pytest.raises(DomainViolation):
        neumann_kernel(np.array([0.1, 0.1]), np.array([1.0, 0.0]))
    with pytest.raises(SingularEvaluation):
        neumann_kernel(np.array([0.1, 0.1]), np.array([0.1, 0.1]))


def test_assemble_rejects_low_resolution():
    with pytest.raises(InvalidResolution):
        assemble(discretize(circle(0.5), 16))


def test_single_layer_concentric_constant_density(conc_kernels):
    # S_D[1] = r0 ln r0 on the boundary of a concentric disk
    n = conc_kernels.grid.n
    trace = conc_kernels.S @ np.ones(n)
    assert np.allclose(trace, R0 * np.log(R0), atol=1e-12)


def test_eval_S_at_origin(conc_kernels):
    val = eval_S(conc_kernels.grid, np.ones(conc_kernels.grid.n),
                 np.zeros((1, 2)))
    assert np.isclose(val[0], R0 * np.log(R0), atol=1e-12)


def test_eval_S_target_too_close(conc_kernels):
    with pytest.raises(TargetTooClose):
        eval_S(conc_kernels.grid, np.ones(conc_kernels.grid.n),
               np.array([[R0 + 1e-5, 0.0]]))


def test_energy_inner_product_constant(conc_kernels):
    # <-S 1, 1> = -2 pi r0^2 ln r0
    one = np.ones(conc_kernels.grid.n)
    assert np.isclose(one @ conc_kernels.B @ one,
                      -2 * np.pi * R0**2 * np.log(R0), rtol=1e-12)


def test_energy_gram_symmetric_positive_definite(tre_kernels):
    B = tre_kernels.B
    assert np.allclose(B, B.T)
    assert np.min(np.linalg.eigvalsh(B)) > 0


def test_np_operator_fixes_constants_on_disks(conc_kernels):
    # S[1] is constant inside a concentric disk, so K*[1] = 1/2 there
    n = conc_kernels.grid.n
    out = conc_kernels.Kstar @ np.ones(n)
    assert np.allclose(out, 0.5, atol=1e-12)


def test_calderon_residual_small_at_high_resolution():
    K = assemble(discretize(StarShape(cos=(0.5, 0, 0, 0.08)), 512))
    assert calderon_residual(K) < 1e-6


def test_jump_relations_richardson():
    """dS[phi]/dnu from outside/inside -> (+/- 1/2 + K*) phi."""
    kernels = assemble(discretize(circle(R0), 512))
    grid = kernels.grid
    phi = np.cos(grid.t)
    idx = np.arange(0, grid.n, 32)
    pts, nus = grid.points[idx], grid.normals[idx]
    expect_base = (kernels.Kstar @ phi)[idx]
    # base offsets balance the O(eps^3) extrapolation error against the
    # near-boundary quadrature floor, which differs between the two sides
    for sign, jump, base in [(+1, +0.5, 0.04), (-1, -0.5, 0.08)]:
        v = [neumann_normal_derivative((pts + sign * e * nus)[:, None, :],
                                       grid.points[None, :, :],
                                       nus[:, None, :]) @ (phi * grid.weights)
             for e in (base, base / 2, base / 4)]
        rich = (8 * v[2] - 6 * v[1] + v[0]) / 3
        expect = jump * phi[idx] + expect_base
        rel = np.max(np.abs(rich - expect)) / np.max(np.abs(expect))
        assert rel < 1e-4


def test_eval_S_normal_derivative_singular_guard(conc_kernels):
    grid = conc_kernels.grid
    with pytest.raises(SingularEvaluation):
        neumann_normal_derivative(grid.points[:1, None, :],
                                  grid.points[None, :, :],
                                  grid.normals[:1, None, :])


@pytest.mark.parametrize("z", [[0.23, -0.11], [np.cos(0.4), np.sin(0.4)]])
def test_neumann_normal_derivative_matches_centred_differences(z):
    # z inside the disk and on the unit circle, where the harmonic lift
    # places its sources; the kernel value there comes by symmetry
    z = np.array(z)
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.6, 0.6, size=(5, 2))
    nu = rng.standard_normal((5, 2))
    eps = 1e-6
    fd = (neumann_kernel(z, x + eps * nu) - neumann_kernel(z, x - eps * nu)) \
        / (2 * eps)
    assert np.allclose(neumann_normal_derivative(x, z, nu), fd,
                       rtol=1e-7, atol=1e-9)
