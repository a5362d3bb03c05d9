import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfeit import disentangle
from mfeit.cli import _dump
from mfeit.disentangle import extract_u0, fit_rational
from mfeit.errors import FitDiverged, InsufficientFrequencies
from mfeit.forward import (FrequencyProfile, MultiFreqData,
                           solve_forward_batched, solve_u0, synthesize)
from mfeit.geometry import DomainConfig, circle

from conftest import R0, TREFOIL

DOMAIN = DomainConfig()


def _c(k, k0=1.0):
    """c = (k0 + k) / (2 (k0 - k))."""
    return (k0 + k) / (2 * (k0 - k))


def _k(c, k0=1.0):
    """k = k0 (2c - 1) / (2c + 1), the inverse of ``_c``."""
    return k0 * (2 * c - 1) / (2 * c + 1)


def _evaluate(poles, constants, residues, kvals):
    """U_i(c) = a_i + sum_n R_in / (c - s_n), one column per contrast."""
    c = _c(np.asarray(kvals, dtype=complex))
    return constants[:, None] + residues @ (1.0 / (c[None, :] - poles[:, None]))


#: the poles k = -0.6 and -0.9 in c
POLES = _c(np.array([-0.6, -0.9]))
KVALS = -0.3 + 1j * np.linspace(0.4, 3.0, 24)


def _model_data():
    rng = np.random.default_rng(11)
    constants = rng.standard_normal(16)
    residues = rng.standard_normal((16, 2))
    data = MultiFreqData(omega=np.arange(KVALS.size, dtype=float), k=KVALS,
                         U=_evaluate(POLES, constants, residues, KVALS))
    return data, constants, residues


def test_exact_rational_recovery():
    data, constants, residues = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    assert model.poles.size == 2
    order = np.argsort(model.poles)
    assert np.max(np.abs(model.poles[order] - np.sort(POLES))) < 1e-8
    assert np.max(np.abs(model.constants - constants)) < 1e-9
    assert np.max(np.abs(model.residues[:, order]
                         - residues[:, np.argsort(POLES)])) < 1e-8
    assert model.residual < 1e-10 * model.scale


def test_fit_gradient_is_that_of_its_value(monkeypatch):
    # the loop's stop compares the model's decrease with RTOL times f, so
    # the gradient value returns must be that of the f it returns
    calls, loop = [], disentangle.levenberg_marquardt

    def spy(z, start, value, E, h):
        calls.append((z.copy(), value))
        return loop(z, start, value, E, h)

    monkeypatch.setattr(disentangle, "levenberg_marquardt", spy)
    data, *_ = _model_data()
    fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    assert len(calls) == 2  # one loop per pole count
    for z, value in calls:
        g = value(z)[2]
        step = 1e-6
        fd = [(value(z + e)[0] - value(z - e)[0]) / (2 * step)
              for e in step * np.eye(z.size)]
        assert np.allclose(g, fd, rtol=1e-6, atol=0), (g, fd)


def _fit_in_a_subprocess(tmp_path, data) -> dict:
    """The report of ``fit_rational`` on ``data``, fitted as in
    ``test_exact_rational_recovery`` by a fresh interpreter that is killed
    after a minute, so a hang fails the test. The CSV codec keeps every
    bit of the data."""
    path = tmp_path / "data.csv"
    path.write_text(data.to_csv())
    code = ("import json, sys\n"
            "from mfeit.disentangle import fit_rational\n"
            "from mfeit.forward import MultiFreqData\n"
            "from mfeit.geometry import DomainConfig\n"
            "data = MultiFreqData.from_csv(open(sys.argv[1]).read())\n"
            "model = fit_rational(data, max_poles=4, tol=1e-12,\n"
            "                     config=DomainConfig())\n"
            "print(json.dumps(model.report(1.0)))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=60)
    return json.loads(out.stdout)


@pytest.mark.parametrize("factor", [2.0 ** 300, 1e160, 1e-300],
                         ids=["2^300", "1e160", "1e-300"])
def test_fit_of_scaled_data_scales_its_model(tmp_path, factor):
    # |R|^2 of voltages near 1e160 overflows unless the fit scales them,
    # and a nan step keeps the fit's loop from its stop; the scale is a
    # power of two, so a factor 2^300 leaves every other bit as it was
    data, *_ = _model_data()
    base = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    scaled = MultiFreqData(omega=data.omega, k=data.k, U=data.U * factor)
    got = _fit_in_a_subprocess(tmp_path, scaled)
    if factor == 2.0 ** 300:
        assert got["poles_c"] == base.poles.tolist()
        assert got["constants"] == (base.constants * factor).tolist()
        assert got["residues"] == (base.residues * factor).tolist()
        assert got["residual"] == base.residual * factor
    model = disentangle.RationalModel(
        poles=np.array(got["poles_c"]), constants=np.array(got["constants"]),
        residues=np.array(got["residues"]), residual=got["residual"],
        scale=got["scale"])
    u0, expect = extract_u0(model, 1.0).u0 / factor, extract_u0(base, 1.0).u0
    assert np.max(np.abs(u0 - expect)) <= 1e-11 * np.max(np.abs(expect))


def test_model_evaluation_matches_data():
    data, *_ = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    fitted = _evaluate(model.poles, model.constants, model.residues, data.k)
    assert np.max(np.abs(fitted - data.U)) < 1e-10 * model.scale


def test_pole_free_data_yields_constant_model():
    theta = 2 * np.pi * np.arange(8) / 8
    U = np.broadcast_to(np.cos(theta)[:, None], (8, 24)).astype(complex)
    data = MultiFreqData(omega=np.arange(24, dtype=float), k=KVALS,
                         U=U.copy())
    model = fit_rational(data, max_poles=4, tol=1e-10, config=DOMAIN)
    assert model.poles.size == 0
    assert np.max(np.abs(model.constants - np.cos(theta))) < 1e-10


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


def _one_pole_data(pole):
    rng = np.random.default_rng(1)
    return MultiFreqData(omega=np.arange(KVALS.size, dtype=float), k=KVALS,
                         U=_evaluate(np.array([pole]), rng.standard_normal(6),
                                     rng.standard_normal((6, 1)), KVALS))


#: the refusal of a fit that ends with a pole at or beyond an end of the
#: class segment |c| < L = 0.491870 (b0 = 0.2)
_OUTSIDE = (r"pole c = (\S+) outside the segment \|c\| < 0\.49187: "
            r"the data have a pole outside the admissible class")
_L = 0.5 - 1 / (2 + ((DOMAIN.b0 + 2) / DOMAIN.b0) ** 2)


@pytest.mark.parametrize("pole", [-0.49187, 0.4919])
@pytest.mark.parametrize("tol", [1e-3, 1e-12])
def test_pole_at_the_segment_end_is_refused(pole, tol):
    # poles at |c| = L to five digits come from no admissible shape: the
    # free poles end at or past the end, and every fit is refused
    with pytest.raises(FitDiverged, match=_OUTSIDE):
        fit_rational(_one_pole_data(pole), max_poles=4, tol=tol,
                     config=DOMAIN)


def test_fit_with_a_pole_past_the_segment_end_is_refused():
    with pytest.raises(FitDiverged, match=_OUTSIDE) as e:
        fit_rational(_one_pole_data(0.7), max_poles=4, tol=1e-3,
                     config=DOMAIN)
    assert float(re.search(_OUTSIDE, str(e.value))[1]) == pytest.approx(0.7)


def _survey():
    """64 datasets, each with one pole outside the class segment: four
    poles, seeds 0-3, 6 or 16 boundary points, the model evaluated as a
    product and as a quotient, which differ in the last bits."""
    c = _c(KVALS)
    for pole in (0.55, 0.7, -0.6, -0.8):
        for seed in range(4):
            for m in (6, 16):
                rng = np.random.default_rng(seed)
                a, R = rng.standard_normal(m), rng.standard_normal((m, 1))
                for U in (a[:, None] + R @ (1.0 / (c[None, :] - pole)),
                          a[:, None] + R / (c[None, :] - pole)):
                    yield MultiFreqData(omega=np.arange(KVALS.size, dtype=float),
                                        k=KVALS, U=U)


def test_every_dataset_with_a_pole_outside_the_class_is_refused():
    refused = []
    for data in _survey():
        with pytest.raises(FitDiverged, match=_OUTSIDE) as e:
            fit_rational(data, max_poles=6, tol=1e-3, config=DOMAIN)
        refused.append(abs(float(re.search(_OUTSIDE, str(e.value))[1])))
    assert len(refused) == 64 and min(refused) >= _L


@pytest.mark.parametrize("k", [-0.5, 0.0, -0.5 + 1e-15j])
def test_contrast_on_the_negative_real_axis_is_rejected(k):
    # its c lies on the pole segment, where the basis blows up
    data, *_ = _model_data()
    data.k = data.k.copy()
    data.k[3] = k
    with pytest.raises(ValueError, match="negative real axis"):
        fit_rational(data, max_poles=4, config=DOMAIN)


def test_extract_u0_recenters_and_strips_k0():
    data, constants, residues = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    u0 = extract_u0(model, k0=2.0)
    # k -> infinity is c = -1/2
    limit = constants + residues @ (1.0 / (-0.5 - POLES))
    expect = 2.0 * (limit - limit.mean())
    assert np.max(np.abs(u0.u0 - expect)) < 1e-8
    assert abs(np.mean(u0.u0)) < 1e-12
    assert u0.rho is None and u0.f is None


def test_end_to_end_concentric_extraction(f_cos, conc_kernels):
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    omega = np.linspace(10, 50, 40)
    data = synthesize(conc_kernels, f_cos, omega, prof.contrast(omega), 0.0,
                      None, k0=1.0)
    model = fit_rational(data, max_poles=4, tol=1e-11, config=DOMAIN)
    assert np.max(np.abs(_k(model.poles) - (-0.6))) < 1e-8
    u0 = extract_u0(model, 1.0)
    truth = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    assert np.max(np.abs(u0.u0 - truth.u0)) < 1e-10


def test_fit_with_an_infinite_contrast_extracts_u0(f_cos, tre_kernels):
    # the contrasts of the CLI's forward-then-extract chain, with k = inf
    # in place of 1e308 + 1e308j and k = k0 besides: the fit reads c from
    # forward._contrast_c, so their rows of a pole column 1/(c - s) are
    # 1/(-1/2 - s) and 1/(inf - s) = 0, each exact and neither warns
    kvals = np.array([2.0 + 0.3 * j + (0.5 + 0.1 * j) * 1j for j in range(14)]
                     + [np.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        U = solve_forward_batched(tre_kernels, f_cos, kvals)
        model = fit_rational(MultiFreqData(omega=np.arange(16.0), k=kvals,
                                           U=U),
                             max_poles=6, tol=1e-6, config=DOMAIN)
    expect = solve_u0(TREFOIL, f_cos, grid=tre_kernels.grid).u0
    assert np.max(np.abs(extract_u0(model, 1.0).u0 - expect)) <= 1e-8


def test_noise_perturbs_poles_mildly(f_cos, conc_kernels):
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    omega = np.linspace(10, 50, 60)
    data = synthesize(conc_kernels, f_cos, omega, prof.contrast(omega), 1e-4,
                      7, k0=1.0)
    tol = 1e-4 / float(np.max(np.abs(data.U)))
    model = fit_rational(data, max_poles=4, tol=tol, config=DOMAIN)
    assert np.min(np.abs(_k(model.poles) - (-0.6))) < 1e-3


@pytest.mark.parametrize("profile,omega", [
    (FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05}),
     np.linspace(10.0, 50.0, 40)),
    (FrequencyProfile("debye", {"k_inf": 0.3, "k_s": 8.0, "tau": 1.0}),
     np.logspace(-1.0, 1.5, 40))], ids=["affine", "debye"])
def test_noisy_extraction_does_not_depend_on_the_contrast_law(
        profile, omega, f_cos, tre_kernels):
    # the fit works in c, so any sweep of contrasts off the negative real
    # axis serves: both land near 2.6e-5 at noise 1e-4
    data = synthesize(tre_kernels, f_cos, omega, profile.contrast(omega), 1e-4,
                      1, k0=1.0)
    model = fit_rational(data, max_poles=6,
                         tol=1e-4 / float(np.max(np.abs(data.U))),
                         config=DOMAIN)
    truth = solve_u0(TREFOIL, f_cos, grid=tre_kernels.grid)
    assert np.max(np.abs(extract_u0(model, 1.0).u0 - truth.u0)) < 5e-5


def test_model_json_round_trip():
    data, *_ = _model_data()
    model = fit_rational(data, max_poles=4, tol=1e-12, config=DOMAIN)
    assert json.loads(_dump(model.report(2.0))) == {
        "poles_c": model.poles.tolist(),
        "poles_k": _k(model.poles, 2.0).tolist(),
        "constants": model.constants.tolist(),
        "residues": model.residues.tolist(),
        "residual": model.residual, "scale": model.scale}
