"""End-to-end acceptance gate: nine criteria, one printed verdict line each."""
import json
import time

import numpy as np
import scipy.linalg as sla

import conftest
from conftest import (R0, TREFOIL, calderon_residual, g_two_phase, misfit,
                      objective_value)
from mfeit.forward import (FrequencyProfile, current_from_fourier,
                           solve_forward_direct, solve_forward_spectral,
                           solve_u0, synthesize)
from mfeit.disentangle import extract_u0, fit_rational
from mfeit.geometry import (DomainConfig, StarShape, circle, discretize,
                           unit_circle_grid)
from mfeit.potential import assemble
from mfeit.reconstruct import (InversionSettings, invert, stability_sweep,
                               symmetric_difference, _Objective,
                               _shape_to_params)
from mfeit.spectrum import compute_spectrum, resonance_bound


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _dist_to_segment(k, lo):
    """Distance from complex k to the real segment [lo, 0]."""
    x = np.clip(k.real, lo, 0.0)
    return abs(k - x)


def test_criterion_1_np_spectrum_oracle(conc_kernels):
    t0 = time.time()
    spec = compute_spectrum(conc_kernels, 24, n_boundary=64)
    lam = np.sort(spec.lam[spec.lam > 0.5])[::-1][:12]
    expect_lam = np.repeat([0.5 * (1 + R0 ** (2 * n)) for n in range(1, 7)], 2)
    err_lam = np.max(np.abs(lam - expect_lam))
    rho = (1 / R0) ** (2 * np.arange(1, 7))
    expect_res = np.sort(np.repeat((1 - rho) / (1 + rho), 2))[::-1]
    res = np.sort(spec.resonances[spec.lam > 0.5])[::-1][:12]
    err_res = np.max(np.abs(res - expect_res))
    bound = resonance_bound(circle(R0))
    respect = bool(np.all(spec.resonances >= bound))
    dt = time.time() - t0
    ok = err_lam < 1e-8 and err_res < 1e-8 and respect and dt < 10
    _verdict(1, ok, f"lambda err {err_lam:.2e}, resonance err {err_res:.2e}, "
                    f"bound {bound:g} respected={respect}, {dt:.1f}s")


def test_criterion_2_forward_equivalence(conc_kernels, tre_kernels, f_cos):
    t0 = time.time()
    contrasts = [2.0, 5.0, 0.5 + 0.5j, -0.5 + 0.5j, -1.0 + 0.4j,
                 -2.0 - 0.5j, 0.4 - 0.6j, 3 + 2j, -0.5 - 0.35j, 1.5 - 0.8j]
    contrasts = [complex(k) for k in contrasts]
    worst = {}
    for name, kern, tol in [("concentric", conc_kernels, 1e-6),
                            ("trefoil", tre_kernels, 1e-4)]:
        spec = compute_spectrum(kern, 60, n_boundary=64, tail=1e-15)
        shape = circle(R0) if name == "concentric" else TREFOIL
        u0 = solve_u0(shape, f_cos, grid=kern.grid)
        lo = float(np.min(spec.resonances))
        assert all(_dist_to_segment(k, lo) >= 0.3 for k in contrasts)
        errs = []
        for k in contrasts:
            ud = solve_forward_direct(shape, f_cos, k, kernels=kern)
            us = solve_forward_spectral(spec, f_cos, k, 1.0, u0)
            errs.append(np.max(np.abs(ud - us)) / np.max(np.abs(ud)))
        worst[name] = (max(errs), tol)
    dt = time.time() - t0
    ok = all(e < tol for e, tol in worst.values()) and dt < 30
    _verdict(2, ok, f"rel sup err concentric {worst['concentric'][0]:.2e} "
                    f"(<1e-6), trefoil {worst['trefoil'][0]:.2e} (<1e-4), "
                    f"{dt:.1f}s")


def test_criterion_3_closed_form_forward(conc_kernels, f_cos, bgrid64):
    errs = []
    for k in (2.0, 0.5, 4.0 + 1.5j):
        mu = (1 - k) / (1 + k)
        u = solve_forward_direct(circle(R0), f_cos, k, kernels=conc_kernels)
        expect = (1 + mu * R0**2) / (1 - mu * R0**2) * np.cos(bgrid64.t)
        errs.append(np.max(np.abs(u - expect)))
    ok = max(errs) < 1e-8
    _verdict(3, ok, f"two-phase closed form sup err {max(errs):.2e} (<1e-8)")


def test_criterion_4_resonance_blowup_slope(conc_kernels, f_cos):
    u0 = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    ts = np.logspace(-3, -1, 8)
    norms = [np.max(np.abs(
        solve_forward_direct(circle(R0), f_cos, complex(-0.6, t),
                             kernels=conc_kernels) - u0.u0)) for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    ok = abs(slope + 1) < 0.1
    _verdict(4, ok, f"blow-up slope {slope:.4f} (target -1 +/- 0.1)")


def test_criterion_5_u0_extraction(conc_kernels, tre_kernels, f_cos):
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    omega = np.linspace(10.0, 50.0, 40)  # arc at distance >= 0.5 in Im k
    assert np.min(prof.contrast(omega).imag) >= 0.5
    results = {}
    for name, kern, shape, mp, tol, sup_tol in [
            ("concentric", conc_kernels, circle(R0), 6, 1e-11, 1e-5),
            ("trefoil", tre_kernels, TREFOIL, 6, 1e-7, 1e-4)]:
        data = synthesize(kern, f_cos, omega, prof.contrast(omega), 0.0, None,
                          k0=1.0)
        model = fit_rational(data, max_poles=mp, tol=tol,
                             config=DomainConfig())
        u0_hat = extract_u0(model, 1.0)
        truth = solve_u0(shape, f_cos, grid=kern.grid)
        sup = float(np.max(np.abs(u0_hat.u0 - truth.u0)))
        spec = compute_spectrum(kern, 8, n_boundary=64, tail=1e-15)
        k1 = float(np.max(spec.resonances))
        # the largest pole in c is the largest in k = (2c - 1) / (2c + 1)
        c1 = float(np.max(model.poles))
        lead = (2 * c1 - 1) / (2 * c1 + 1)
        results[name] = (sup, abs(lead - k1), sup_tol)
    ok = all(sup < tol and pole_err < 1e-4
             for sup, pole_err, tol in results.values())
    _verdict(5, ok, "sup err concentric {0:.2e} (<1e-5), trefoil {1:.2e} "
                    "(<1e-4); pole err {2:.2e}/{3:.2e} (<1e-4)".format(
                        results["concentric"][0], results["trefoil"][0],
                        results["concentric"][1], results["trefoil"][1]))


def test_criterion_6_noise_stability_of_extraction(conc_kernels, f_cos):
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    omega = np.linspace(10.0, 50.0, 40)
    truth = solve_u0(circle(R0), f_cos, grid=conc_kernels.grid)
    etas = [1e-5, 1e-4, 1e-3, 1e-2]
    medians = []
    for eta in etas:
        errs = []
        for seed in (1, 2, 3, 4, 5):
            data = synthesize(conc_kernels, f_cos, omega, prof.contrast(omega),
                              eta, seed, k0=1.0)
            tol = max(eta / float(np.max(np.abs(data.U))), 1e-11)
            model = fit_rational(data, max_poles=6, tol=tol,
                                 config=DomainConfig())
            u0_hat = extract_u0(model, 1.0)
            errs.append(np.max(np.abs(u0_hat.u0 - truth.u0)))
        medians.append(float(np.median(errs)))
    monotone = all(a < b for a, b in zip(medians, medians[1:]))
    kappa = float(np.polyfit(np.log(etas), np.log(medians), 1)[0])
    ok = monotone and 0.2 < kappa <= 1.2
    _verdict(6, ok, f"median errors {['%.2e' % m for m in medians]}, "
                    f"monotone={monotone}, kappa={kappa:.3f} in (0.2, 1.2]")


def test_criterion_7_reconstruction(f_cos):
    t0 = time.time()
    circle_data = solve_u0(circle(R0), f_cos, n=256)
    res_c = invert(circle_data, InversionSettings(n_fourier_modes=0, alpha=0.0))
    d_circle = symmetric_difference(res_c.shape, circle(R0))
    t_circle = time.time() - t0

    t0 = time.time()
    tre_data = solve_u0(TREFOIL, f_cos, n=256)
    res_t = invert(tre_data, InversionSettings(n_fourier_modes=8, alpha=1e-7))
    d_tre = symmetric_difference(res_t.shape, TREFOIL)
    t_tre = time.time() - t0
    ok = d_circle < 1e-6 and d_tre < 1e-2 and t_circle < 300 and t_tre < 300
    _verdict(7, ok, f"|D delta D~| circle {d_circle:.2e} (<1e-6, {t_circle:.0f}s), "
                    f"trefoil {d_tre:.2e} (<1e-2, {t_tre:.0f}s)")


def test_criterion_8_stability_sweep():
    t0 = time.time()
    prof = FrequencyProfile("affine", {"k_r": -0.5, "c": 0.05})
    settings = InversionSettings(n_fourier_modes=0, alpha=0.0)
    levels, seeds = [1e-4, 1e-3, 1e-2, 5e-2], [1, 2, 3]
    # the fitted laws rest on at least 4 noisy levels of 3 seeds each
    assert len(levels) >= 4 and len(seeds) >= 3
    res = stability_sweep(circle(R0), ([1.0], []), prof,
                          np.linspace(10.0, 50.0, 40), levels, settings,
                          seeds=seeds, max_poles=4, n_forward=128)
    med = res.summary["sym_diff_median"]
    monotone = all(a <= b for a, b in zip(med, med[1:]))
    tau = res.summary["log_model"]["tau"]
    taup = res.summary["holder_model"]["tau_prime"]
    statuses = {r["status"] for r in res.rows}
    dt = time.time() - t0
    ok = monotone and tau > 0 and taup > 0 and statuses == {"ok"} and dt < 3600
    _verdict(8, ok, f"medians {['%.2e' % m for m in med]} monotone={monotone}, "
                    f"tau={tau:.2f}, tau'={taup:.2f} (both >0), {dt:.0f}s")


def test_criterion_9_property_suites(tre_kernels, f_cos, bgrid64, tmp_path):
    # -S positive definite (energy Gram matrix)
    pd = float(np.min(np.linalg.eigvalsh(tre_kernels.B)))

    # discrete Calderon symmetry residual at n = 512
    cald = calderon_residual(assemble(discretize(TREFOIL, 512)))

    # zero-mean preservation through the forward map
    u = solve_forward_direct(TREFOIL, f_cos, 2 + 1j, kernels=tre_kernels)
    zm = abs(np.sum(u * bgrid64.weights))

    # misfit gradient vs forward differences at half the step
    data = solve_u0(TREFOIL, f_cos, n=256)
    settings = InversionSettings(n_fourier_modes=2, alpha=1e-6)
    shape = StarShape(cos=(0.52, 0.01, 0.03))
    _, grad = misfit(shape, data, settings)
    obj = _Objective(data, settings)
    x = _shape_to_params(shape, 2)
    h = 0.5e-6 * np.maximum(np.abs(x), 1.0)
    J0 = objective_value(obj, x)
    fd = np.array([(objective_value(obj, x + h[i] * np.eye(x.size)[i]) - J0)
                   / h[i] for i in range(x.size)])
    grad_rel = float(np.max(np.abs(fd - grad)) / np.max(np.abs(grad)))

    # CLI byte determinism
    from mfeit.cli import main
    cfg = {"domain": {"b0": 0.2, "delta": 0.1}, "shape": {"cos": [0.5]},
           "current": {"cos": [1.0]}, "n_measure": 64, "n_boundary": 128,
           "profile": {"model": "affine", "k_r": -0.5, "c": 0.05},
           "omega": {"start": 10.0, "stop": 50.0, "count": 10},
           "eta": 1e-3, "seed": 9}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
    deterministic = (tmp_path / "a/dataset.csv").read_bytes() \
        == (tmp_path / "b/dataset.csv").read_bytes()

    ok = pd > 0 and cald < 1e-6 and zm < 1e-10 and grad_rel < 1e-4 \
        and deterministic
    _verdict(9, ok, f"min eig(-WS) {pd:.2e} (>0), Calderon {cald:.2e} (<1e-6), "
                    f"zero-mean {zm:.2e} (<1e-10), grad FD {grad_rel:.2e} "
                    f"(<1e-4), CLI deterministic={deterministic}")
