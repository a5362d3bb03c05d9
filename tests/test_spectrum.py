import json

import numpy as np
import pytest

from mfeit.cli import _dump
from mfeit.errors import NotConverged
from mfeit.forward import _modes
from mfeit.geometry import StarShape, circle, discretize, unit_circle_grid
from mfeit.potential import assemble, eval_S
from mfeit.spectrum import DEFAULT_TAIL, compute_spectrum, resonance_bound

R0 = 0.5


def lam_exact(n):
    return 0.5 * (1 + R0 ** (2 * n))


def _selected_modes(kernels, n_modes, tail=DEFAULT_TAIL):
    """Oracle: the tail, order and count selections one by one.

    Returns the kept eigenvalues, their eigen-densities and their indices,
    the columns of ``kernels.eig`` that ``compute_spectrum`` keeps.
    """
    mu, V = kernels.eig
    lam = 0.5 - mu
    resolved = np.abs(lam - 0.5) > tail
    lam, V, cols = lam[resolved], V[:, resolved], np.flatnonzero(resolved)
    order = np.argsort(-np.abs(lam - 0.5), kind="stable")[:n_modes]
    return lam[order], V[:, order], cols[order]


def test_concentric_eigenvalues_closed_form(conc_spectrum):
    lam_plus = np.sort(conc_spectrum.lam[conc_spectrum.lam > 0.5])[::-1]
    expect = np.repeat([lam_exact(n) for n in range(1, 7)], 2)
    assert np.allclose(lam_plus[:12], expect, atol=1e-10)


def test_concentric_resonances_closed_form(conc_spectrum):
    # k_n = (1 - rho)/(1 + rho) with rho = (1/r0)^(2n)
    res = np.sort(conc_spectrum.resonances[conc_spectrum.lam > 0.5])[::-1]
    rho = (1 / R0) ** (2 * np.arange(1, 7))
    expect = np.repeat((1 - rho) / (1 + rho), 2)
    assert np.allclose(res[:12], np.sort(expect)[::-1], atol=1e-10)


def test_eigenvalues_in_unit_interval(conc_spectrum, tre_spectrum):
    for s in (conc_spectrum, tre_spectrum):
        assert np.all(s.lam > 0) and np.all(s.lam < 1)


def test_ordering_by_distance_from_half(tre_spectrum):
    d = np.abs(tre_spectrum.lam - 0.5)
    assert np.all(np.diff(d) <= 1e-14)


def test_densities_energy_orthonormal(conc_kernels):
    _, V, _ = _selected_modes(conc_kernels, 24)
    G = V.T @ conc_kernels.B @ V
    assert np.max(np.abs(G - np.eye(V.shape[1]))) < 1e-8


def test_energy_identity_mode_one(conc_kernels):
    # unnormalized density cos(t) on the concentric circle:
    # <-S cos, cos> = 0.15625 pi  (interior + exterior gradient energy)
    phi = np.cos(conc_kernels.grid.t)
    assert np.isclose(phi @ conc_kernels.B @ phi, 0.15625 * np.pi,
                      rtol=1e-12)


def test_traces_zero_mean_on_outer_boundary(tre_spectrum):
    from mfeit.geometry import unit_circle_grid
    bg = unit_circle_grid(tre_spectrum.traces_bd_omega.shape[0])
    means = tre_spectrum.traces_bd_omega.T @ bg.weights
    assert np.max(np.abs(means)) < 1e-10


def test_eigenvalue_grid_convergence():
    lam = {}
    for n in (128, 256):
        K = assemble(discretize(StarShape(cos=(0.5, 0, 0, 0.08)), n))
        lam[n] = compute_spectrum(K, 10, n_boundary=64).lam
    assert np.max(np.abs(lam[128] - lam[256])) < 1e-10


def test_minmax_monotonicity_under_inclusion_growth():
    # enlarging the inclusion increases every lambda_n^+ (min-max principle)
    lam_small = compute_spectrum(
        assemble(discretize(circle(0.4), 128)), 8, n_boundary=64).lam
    lam_big = compute_spectrum(
        assemble(discretize(circle(0.5), 128)), 8, n_boundary=64).lam
    assert np.all(lam_big[lam_big > 0.5][:8] >= lam_small[lam_small > 0.5][:8])


def test_too_many_modes_raises(conc_kernels):
    with pytest.raises(NotConverged):
        compute_spectrum(conc_kernels, 100)


def test_unresolved_tail_raises(tre_kernels):
    with pytest.raises(NotConverged):
        compute_spectrum(tre_kernels, 60, n_boundary=64)  # default tail 1e-8


def test_tail_discard_count(tre_kernels):
    s = compute_spectrum(tre_kernels, 20, n_boundary=64)
    assert s.n_discarded > 0


def test_resonance_bound_circle():
    # r_inf = r for a circle: bound = -(1 + ((r+2)/r)^2)
    assert np.isclose(resonance_bound(circle(0.5)), -26.0, rtol=1e-12)
    assert np.isclose(resonance_bound(circle(0.2), k0=2.0), -2 * 122.0,
                      rtol=1e-12)


def test_all_resonances_above_bound(tre_spectrum):
    bound = resonance_bound(StarShape(cos=(0.5, 0, 0, 0.08)))
    assert np.all(tre_spectrum.resonances >= bound)
    assert np.all(tre_spectrum.resonances < 0)


def test_report_json_round_trip(conc_spectrum):
    rep = json.loads(_dump(conc_spectrum.report(bound=-26.0)))
    assert rep["bound"] == -26.0
    assert rep["k0"] == 1.0
    assert len(rep["lambda"]) == len(rep["resonances"]) == conc_spectrum.lam.size


def test_neumann_series_partial_sum_oracle(conc_kernels):
    # first eigenpair (lambda_1, multiplicity 2) of the concentric disk:
    # -(w_1(x) w_1(z) + w_2(x) w_2(z)) = -r_x r_z cos(dtheta) / (0.4 pi)
    _, V, _ = _selected_modes(conc_kernels, 8)
    x = np.array([0.1, 0.0])
    z = np.array([0.1 * np.cos(0.7), 0.1 * np.sin(0.7)])
    # partial sum -sum_n w_n(x) w_n(z) over the first two modes
    w = np.column_stack([eval_S(conc_kernels.grid, V[:, j],
                                np.array([x, z])) for j in range(2)])
    val = -np.sum(w[0] * w[1])
    assert np.isclose(val, -(0.1 * 0.1 * np.cos(0.7)) / (0.4 * np.pi),
                      atol=1e-12)


def test_traces_match_per_mode_eval_S(tre_kernels, tre_spectrum):
    # one trace-matrix product for all modes against one eval_S per mode
    bg = unit_circle_grid(tre_spectrum.traces_bd_omega.shape[0])
    _, V, _ = _selected_modes(tre_kernels, 20, tail=1e-15)
    W = np.column_stack([eval_S(tre_kernels.grid, v, bg.points) for v in V.T])
    assert np.max(np.abs(tre_spectrum.traces_bd_omega - W)) <= 1e-14


@pytest.mark.parametrize("name, tail", [("tre", 1e-15), ("conc", DEFAULT_TAIL)],
                         ids=["trefoil", "concentric"])
def test_spectral_weights_are_the_batched_modal_weights(request, name, tail,
                                                        f_cos):
    # solve_forward_spectral weighs its traces by c_n = <f, W_n>_w, the
    # batched solve by q of forward._modes: on the kept modes
    # c_n = k0 q_n / lambda_n
    kernels = request.getfixturevalue(f"{name}_kernels")
    spectrum = request.getfixturevalue(f"{name}_spectrum")
    lam, _, cols = _selected_modes(kernels, spectrum.lam.size, tail)
    q = _modes(kernels, f_cos, spectrum.k0)[2][cols]
    c_n = ((f_cos * unit_circle_grid(f_cos.size).weights)
           @ spectrum.traces_bd_omega)
    assert (np.max(np.abs(c_n - spectrum.k0 * q / lam))
            <= 1e-14 * np.max(np.abs(c_n)))


def test_modes_are_gathered_once(tre_kernels, tre_spectrum):
    """The spectrum's one composed index keeps what the oracle keeps, in
    its order; ``test_traces_match_per_mode_eval_S`` checks the columns."""
    lam, _, _ = _selected_modes(tre_kernels, 20, tail=1e-15)
    assert np.array_equal(tre_spectrum.lam, lam)
