import json

import numpy as np
import pytest

from mfeit.disentangle import (RationalModel, admissible_pole_region,
                               cauchy_integral_check, extract_u0, fit_rational)
from mfeit.errors import (ContourCrossesPole, FitDiverged,
                          InsufficientFrequencies, NonRealLimit)
from mfeit.forward import (FrequencyProfile, MultiFreqData, solve_u0,
                           synthesize)
from mfeit.geometry import DomainConfig, circle

from conftest import R0

DOMAIN = DomainConfig()


def _synthetic_data(poles, residues, alpha_inf, kvals):
    """Exact shared-pole rational samples for m boundary points."""
    m = alpha_inf.size
    U = np.broadcast_to(alpha_inf[:, None], (m, kvals.size)).astype(complex).copy()
    for j, p in enumerate(poles):
        U += residues[:, j][:, None] / (kvals[None, :] - p)
    return MultiFreqData(omega=np.arange(kvals.size, dtype=float), k=kvals,
                         U=U)


def _evaluate(model, kvals):
    """alpha_i(k) = a_inf_i + sum_n R_in / (k - p_n), one column per k."""
    kvals = np.asarray(kvals, dtype=complex)
    return model.alpha_inf[:, None] + model.residues @ (
        1.0 / (kvals[None, :] - model.poles[:, None]))


POLES = np.array([-0.6, -0.9], dtype=complex)
KVALS = -0.3 + 1j * np.linspace(0.4, 3.0, 24)


def _model_data():
    rng = np.random.default_rng(11)
    alpha = rng.standard_normal(16) + 0j
    alpha -= alpha.mean()
    residues = rng.standard_normal((16, 2)) + 0j
    return _synthetic_data(POLES, residues, alpha, KVALS), alpha, residues


def test_exact_rational_recovery():
    data, alpha, residues = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    assert model.poles.size == 2
    assert np.max(np.abs(np.sort(model.poles.real) - np.sort(POLES.real))) < 1e-8
    assert np.max(np.abs(model.poles.imag)) < 1e-8
    assert np.max(np.abs(model.alpha_inf - alpha)) < 1e-9
    assert model.residual < 1e-10 * model.scale


def test_model_evaluation_matches_data():
    data, *_ = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    assert np.max(np.abs(_evaluate(model, data.k) - data.U)) \
        < 1e-10 * model.scale


def test_pole_free_data_yields_constant_model():
    theta = 2 * np.pi * np.arange(8) / 8
    U = np.broadcast_to(np.cos(theta)[:, None], (8, 24)).astype(complex)
    data = MultiFreqData(omega=np.arange(24, dtype=float), k=KVALS,
                         U=U.copy())
    model = fit_rational(data, max_poles=4, tol=1e-10, config=DOMAIN)
    assert model.poles.size == 0
    assert np.max(np.abs(model.alpha_inf - np.cos(theta))) < 1e-10


def test_zero_data_short_circuits():
    data = MultiFreqData(omega=np.arange(24, dtype=float), k=KVALS,
                         U=np.zeros((4, 24), complex))
    model = fit_rational(data, max_poles=4, config=DOMAIN)
    assert model.poles.size == 0 and model.scale == 0.0


def test_insufficient_frequencies():
    data, *_ = _model_data()
    with pytest.raises(InsufficientFrequencies):
        fit_rational(data, max_poles=12, config=DOMAIN)


def test_fit_diverged_on_non_rational_data():
    U = np.exp(KVALS)[None, :] * (1 + np.arange(4))[:, None]
    data = MultiFreqData(omega=np.arange(24, dtype=float), k=KVALS,
                         U=U.astype(complex))
    with pytest.raises(FitDiverged):
        fit_rational(data, max_poles=2, tol=1e-13, config=DOMAIN)


def test_admissible_region_covers_class_resonances():
    center, radius = admissible_pole_region(DomainConfig())
    # every resonance of an admissible shape lies in [-122, 0)
    assert center.real - radius <= -122.0
    assert center.real + radius >= 0.0


def test_admissible_region_is_computed_once_per_config():
    cfg = DomainConfig(b0=0.25)
    region = admissible_pole_region(cfg)
    assert admissible_pole_region(DomainConfig(b0=0.25)) is region
    assert admissible_pole_region.__wrapped__(cfg) == region


def test_extract_u0_recenters_and_strips_k0():
    data, alpha, _ = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    u0 = extract_u0(model, k0=2.0)
    expect = 2.0 * (alpha.real - alpha.real.mean())
    assert np.max(np.abs(u0.u0 - expect)) < 1e-8
    assert abs(np.mean(u0.u0)) < 1e-12
    assert u0.rho is None and u0.f is None


def test_extract_u0_rejects_complex_limit():
    model = RationalModel(poles=np.zeros(0, complex),
                          alpha_inf=np.array([1.0 + 0.5j, -1.0 - 0.5j]),
                          residues=np.zeros((2, 0), complex),
                          residual=0.0, scale=1.0)
    with pytest.raises(NonRealLimit):
        extract_u0(model, 1.0)


def test_end_to_end_concentric_extraction(f_cos, conc_kernels):
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    data = synthesize(conc_kernels, f_cos, prof, np.linspace(10, 50, 40), 0.0,
                      None, k0=1.0)
    model = fit_rational(data, max_poles=4, tol=1e-11, config=DOMAIN)
    assert np.max(np.abs(model.poles - (-0.6))) < 1e-8
    u0 = extract_u0(model, 1.0)
    truth = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    assert np.max(np.abs(u0.u0 - truth.u0)) < 1e-10


def test_noise_perturbs_poles_mildly(f_cos, conc_kernels):
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    data = synthesize(conc_kernels, f_cos, prof, np.linspace(10, 50, 60), 1e-4,
                      7, k0=1.0)
    tol = 1e-4 / float(np.max(np.abs(data.U)))
    model = fit_rational(data, max_poles=4, tol=tol, config=DOMAIN)
    assert np.min(np.abs(model.poles - (-0.6))) < 1e-3


def test_cauchy_integral_matches_direct_evaluation():
    data, *_ = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    k_eval = 2.0 + 0j
    for i in (0, 5):
        direct = _evaluate(model, [k_eval])[i, 0] - model.alpha_inf[i]
        ci = cauchy_integral_check(model, radius=1.0, k_eval=k_eval, index=i,
                                   center=-0.75 + 0j)
        assert abs(ci - direct) < 1e-12


def test_cauchy_integral_contour_guards():
    data, *_ = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    with pytest.raises(ContourCrossesPole):  # radius excludes the -0.9 pole
        cauchy_integral_check(model, radius=0.1, k_eval=2.0, center=-0.6 + 0j)
    with pytest.raises(ContourCrossesPole):  # evaluation point enclosed
        cauchy_integral_check(model, radius=5.0, k_eval=2.0, center=-0.75 + 0j)


def test_model_json_round_trip():
    data, *_ = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    pairs = lambda z: [[v.real, v.imag] for v in z]
    assert json.loads(model.to_json()) == {
        "poles": pairs(model.poles), "alpha_inf": pairs(model.alpha_inf),
        "residues": [pairs(row) for row in model.residues],
        "residual": model.residual, "scale": model.scale}
