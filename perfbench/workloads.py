"""The three benchmark workloads: seeded inputs, one op, output checks.

Every workload is a closed loop with one client. Its inputs are a fixed
list of ops drawn from the seed (one *pass*); the run repeats the pass.
``PASS_S`` is a pass's nominal wall time on a shared 2-core x86_64 box;
it sets how many passes fit in ``--seconds``. An op either returns its
outputs, which ``check`` then verifies, or raises ``OpFailed``. Checks
run outside the timed region. Functions of the package are called
through their modules (``forward.synthesize``), so the traced run sees
the calls the benchmark itself makes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mfeit import cli, forward, geometry, potential, reconstruct, spectrum
from mfeit.errors import MfeitError

DOMAIN = {"b0": 0.2, "delta": 0.1}
PROFILE = {"model": "affine", "k_r": -0.5, "c": 0.05}
OMEGA = {"start": 10.0, "stop": 50.0, "count": 40}
N_MEASURE = 64
#: worker threads ``pipeline-cli`` passes to the CLI
CLI_THREADS = 1
#: initial guess of the inverter: the band-centre circle (b0 + 1 - delta) / 2
INITIAL_RADIUS = 0.55


class OpFailed(Exception):
    """An op that produced no verified result; it counts in ``failed``.

    Numeric failures the program reports (exit code 3, an ``MfeitError``,
    a sweep row not ``ok``) and outputs that miss an accuracy check are
    failed ops. ``wrong`` marks a broken contract instead: output files
    that do not match their manifest, or an exit code other than 0 and 3.
    A wrong op makes the whole run incorrect.
    """

    def __init__(self, reason: str, wrong: bool = False,
                 accuracy: dict | None = None):
        super().__init__(reason)
        self.reason = reason
        self.wrong = wrong
        self.accuracy = accuracy  # accuracy of outputs that missed a check


@dataclass
class Context:
    workdir: Path      # directory for the CLI files, inside the checkout
    nproc: int         # worker threads for the thread-pool workload


def _domain() -> geometry.DomainConfig:
    return geometry.DomainConfig.from_dict(DOMAIN)


def _current() -> np.ndarray:
    return forward.current_from_fourier([1.0], [],
                                        geometry.unit_circle_grid(N_MEASURE))


def _profile() -> forward.FrequencyProfile:
    return forward.FrequencyProfile.from_dict(PROFILE)


def _omega() -> np.ndarray:
    return np.linspace(OMEGA["start"], OMEGA["stop"], OMEGA["count"])


def _draw_shape(rng, m: int) -> list[float]:
    """cos coefficients of a0 + a_m cos(m theta), validated for the class."""
    a0 = float(rng.uniform(0.45, 0.55))
    amp = float(rng.uniform(0.04, 0.08))
    cos = [a0] + [0.0] * (m - 1) + [amp]
    geometry.build_star_shape(cos, [], _domain())
    return cos


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class PipelineCli:
    """mfeit synth -> extract -> invert through ``mfeit.cli.main``."""

    name = "pipeline-cli"
    PASS_S = 15.0
    MODES = (2, 3, 4)
    ETAS = (1e-5, 1e-4, 1e-3)
    #: ops per (eta, m) stratum in one pass
    PER_STRATUM = 2

    def inputs(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 1])
        strata = [(eta, m) for eta in self.ETAS for m in self.MODES]
        return [{"index": i, "cos": _draw_shape(rng, m), "eta": eta,
                 "noise_seed": int(rng.integers(2 ** 31))}
                for i, (eta, m) in enumerate(strata * self.PER_STRATUM)]

    def references(self, ops) -> list:
        f = _current()
        return [forward.solve_u0(geometry.StarShape(cos=tuple(op["cos"])), f,
                                 n=256).u0 for op in ops]

    def warmup(self, ctx: Context) -> None:
        op = {"index": "warmup", "cos": [0.5], "eta": 0.0, "noise_seed": 0}
        self._pipeline(op, ctx, n_boundary=64, omega_count=16, max_poles=2,
                       inversion={"n_fourier_modes": 0, "alpha": 0.0,
                                  "n_boundary": 64})

    def run_op(self, op: dict, ctx: Context) -> Path:
        return self._pipeline(op, ctx, n_boundary=256,
                              omega_count=OMEGA["count"], max_poles=6,
                              inversion={"n_fourier_modes": 8, "alpha": 1e-7})

    def _pipeline(self, op, ctx, n_boundary, omega_count, max_poles,
                  inversion) -> Path:
        d = ctx.workdir / f"op{op['index']}"
        d.mkdir(parents=True, exist_ok=True)
        shape = {"cos": op["cos"]}
        current = {"cos": [1.0]}
        self._cli(d, "synth", {
            "domain": DOMAIN, "shape": shape, "current": current,
            "n_measure": N_MEASURE, "n_boundary": n_boundary,
            "profile": PROFILE, "omega": dict(OMEGA, count=omega_count),
            "eta": op["eta"], "seed": op["noise_seed"]})
        dataset = d / "synth" / "dataset.csv"
        data = forward.MultiFreqData.from_csv(dataset.read_text())
        # fit tolerance rule of scripts/run_pipeline.py
        tol = max(op["eta"] / float(np.max(np.abs(data.U))), 1e-7)
        self._cli(d, "extract", {
            "domain": DOMAIN, "inputs": {"dataset": str(dataset)},
            "max_poles": max_poles, "fit_tol": tol})
        self._cli(d, "invert", {
            "domain": DOMAIN, "shape": shape, "current": current,
            "inputs": {"cauchy": str(d / "extract" / "u0.csv")},
            "inversion": inversion})
        return d

    @staticmethod
    def _cli(d: Path, command: str, cfg: dict) -> None:
        cfg_path = d / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg, sort_keys=True))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg_path),
                             "--out", str(d / command),
                             "--threads", str(CLI_THREADS)])
        if code != 0:
            msg = err.getvalue().strip()
            # "mfeit: <ExceptionClass>: ..." names the numeric failure
            parts = msg.split(": ")
            cause = parts[1] if code == 3 and len(parts) > 2 else msg
            raise OpFailed(f"{command} exit {code} ({cause})",
                           wrong=code != 3)

    def check(self, op: dict, d: Path, ref_u0) -> dict:
        for command in ("synth", "extract", "invert"):
            out = d / command
            manifest = json.loads((out / "manifest.json").read_text())
            if manifest["config_sha256"] != _sha256(d / f"{command}.json"):
                raise OpFailed(f"{command} manifest: config hash", wrong=True)
            for path, digest in manifest["inputs"].items():
                if _sha256(Path(path)) != digest:
                    raise OpFailed(f"{command} manifest: input hash", wrong=True)
            for name, digest in manifest["outputs"].items():
                if _sha256(out / name) != digest:
                    raise OpFailed(f"{command} manifest: {name} hash",
                                   wrong=True)
        truth = geometry.StarShape(cos=tuple(op["cos"]))
        recovered = geometry.StarShape.from_json(
            (d / "invert" / "shape.json").read_text())
        u0 = forward.CauchyData.from_csv(
            (d / "extract" / "u0.csv").read_text()).u0
        acc = {"sym_diff": reconstruct.symmetric_difference(recovered, truth),
               "u0_err": float(np.max(np.abs(u0 - ref_u0)))}
        initial = reconstruct.symmetric_difference(
            geometry.circle(INITIAL_RADIUS), truth)
        if not acc["sym_diff"] < initial:
            raise OpFailed("recovered shape no better than initial guess",
                           accuracy=acc)
        return acc


class SweepCircle:
    """``stability_sweep`` with criterion 8's class and settings."""

    name = "sweep-circle"
    PASS_S = 5.0
    LEVELS = (1e-4, 1e-3, 1e-2, 5e-2)
    N_SWEEPS = 3

    def inputs(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 2])
        ops = []
        for i in range(self.N_SWEEPS):
            radius = float(rng.uniform(0.4, 0.6))
            geometry.build_star_shape([radius], [], _domain())
            seeds = [int(s) for s in rng.choice(10_000, size=3, replace=False)]
            ops.append({"index": i, "radius": radius, "seeds": seeds})
        return ops

    def references(self, ops) -> list:
        return [None] * len(ops)

    def warmup(self, ctx: Context) -> None:
        reconstruct.stability_sweep(
            geometry.circle(0.5), ([1.0], []), _profile(),
            np.linspace(10.0, 50.0, 12), [1e-3], self._settings(), seeds=[1],
            max_poles=2, threads=ctx.nproc, n_forward=64,
            allow_degenerate=True)

    @staticmethod
    def _settings():
        return reconstruct.InversionSettings(n_fourier_modes=0, alpha=0.0,
                                             config=_domain())

    def run_op(self, op: dict, ctx: Context):
        return reconstruct.stability_sweep(
            geometry.circle(op["radius"]), ([1.0], []), _profile(), _omega(),
            self.LEVELS, self._settings(), seeds=op["seeds"], max_poles=4,
            threads=ctx.nproc, n_forward=128, n_measure=N_MEASURE)

    def check(self, op: dict, res, _ref) -> dict:
        bad = sorted({r["status"] for r in res.rows} - {"ok"})
        if bad:
            raise OpFailed(f"sweep row status {','.join(bad)}")
        acc = {"sym_diff": [r["sym_diff"] for r in res.rows]}
        med = res.summary["sym_diff_median"]
        if any(a > b for a, b in zip(med, med[1:])):
            raise OpFailed("sweep medians not monotone", accuracy=acc)
        return acc


class SpectrumLadder:
    """Operators, spectrum and both forward solvers at n = 128, 256, 512."""

    name = "spectrum-ladder"
    PASS_S = 3.0
    SIZES = (128, 256, 512)
    MODES = (2, 3, 4)
    N_CONTRASTS = 4
    #: criterion 2's relative sup tolerance for the non-circular shape
    FWD_TOL = 1e-4

    def inputs(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 3])
        ops = []
        for i, m in enumerate(self.MODES):
            cos = _draw_shape(rng, m)
            # |Im k| >= 0.4 keeps every contrast at least 0.4 away from the
            # resonance segment on the negative real axis
            ks = [[float(rng.uniform(-2.0, 3.0)),
                   float(rng.choice([-1, 1]) * rng.uniform(0.4, 2.0))]
                  for _ in range(self.N_CONTRASTS)]
            ops.append({"index": i, "cos": cos, "contrasts": ks})
        return ops

    def references(self, ops) -> list:
        return [None] * len(ops)

    def warmup(self, ctx: Context) -> None:
        op = {"cos": [0.5, 0.0, 0.05], "contrasts": [[2.0, 1.0]]}
        self._ladder(op, sizes=(64,))

    def run_op(self, op: dict, ctx: Context) -> list:
        return self._ladder(op, self.SIZES)

    @staticmethod
    def _ladder(op, sizes) -> list:
        shape = geometry.StarShape(cos=tuple(op["cos"]))
        f = _current()
        errs = []
        for n in sizes:
            grid = geometry.discretize(shape, n)
            kernels = potential.assemble(grid)
            spec = spectrum.compute_spectrum(kernels, n // 4, k0=1.0,
                                             n_boundary=N_MEASURE, tail=1e-15)
            u0 = forward.solve_u0(shape, f, grid=grid, S=kernels.S)
            for re, im in op["contrasts"]:
                k = complex(re, im)
                ud = forward.solve_forward_direct(shape, f, k, kernels=kernels)
                us = forward.solve_forward_spectral(spec, f, k, 1.0, u0)
                errs.append(float(np.max(np.abs(ud - us)) / np.max(np.abs(ud))))
        return errs

    def check(self, op: dict, errs: list, _ref) -> dict:
        acc = {"fwd_rel_err": errs}
        if not max(errs) < self.FWD_TOL:
            raise OpFailed(f"spectral vs direct gap {max(errs):.2e} >= "
                           f"{self.FWD_TOL:g}", accuracy=acc)
        return acc


WORKLOADS = {w.name: w for w in (PipelineCli(), SweepCircle(), SpectrumLadder())}


def accuracy(checked: list[dict]) -> dict[str, float]:
    """Accuracy metrics over the outputs of one pass (0 where unused)."""
    def values(key):
        out = []
        for c in checked:
            v = c.get(key, [])
            out.extend(v if isinstance(v, list) else [v])
        return out

    sym, u0, fwd = values("sym_diff"), values("u0_err"), values("fwd_rel_err")
    return {
        "accuracy.sym_diff_p50": statistics.median(sym) if sym else 0.0,
        "accuracy.u0_err_p50": statistics.median(u0) if u0 else 0.0,
        "accuracy.fwd_rel_err_max": max(fwd) if fwd else 0.0,
    }


def attempt(workload, op: dict, ctx: Context):
    """Run one op; return (outputs, None) or (None, OpFailed)."""
    try:
        return workload.run_op(op, ctx), None
    except OpFailed as exc:
        return None, exc
    except MfeitError as exc:
        return None, OpFailed(type(exc).__name__)
