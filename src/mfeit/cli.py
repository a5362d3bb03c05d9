"""Command-line pipeline harness.

Every subcommand is a pure function of (config file, input files) to output
files in ``--out``: identical inputs yield byte-identical outputs. A
``manifest.json`` in the output directory records the command, the SHA-256
of the config and of every input file consumed, and the seeds in play.

Exit codes: 0 success, 2 configuration/validation error, 3 numeric failure,
4 missing input file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .disentangle import extract_u0, fit_rational
from .errors import ConstraintViolation, InvalidResolution, MfeitError
from .forward import (CauchyData, FrequencyProfile, MultiFreqData,
                      current_from_fourier, solve_forward_batched, synthesize)
from .geometry import (DomainConfig, StarShape, build_star_shape, discretize,
                       unit_circle_grid)
from .potential import assemble
from .reconstruct import (InversionSettings, invert, stability_sweep,
                          symmetric_difference)
from .spectrum import DEFAULT_TAIL, compute_spectrum, resonance_bound

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING_INPUT = 4


class MissingInput(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise MissingInput(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc


def _read_input(cfg: dict, key: str, cls, manifest: dict):
    """Load the CSV file named by inputs.<key> as ``cls`` and hash it."""
    rel = cfg.get("inputs", {}).get(key)
    if rel is None:
        raise ValueError(f"config is missing inputs.{key}")
    p = Path(rel)
    if not p.is_file():
        raise MissingInput(f"input file not found: {p}")
    manifest["inputs"][str(p)] = _sha256(p)
    try:
        return cls.from_csv(p.read_text())
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from exc


def _domain(cfg: dict) -> DomainConfig:
    return DomainConfig.from_dict(cfg.get("domain", {}))


def _shape(cfg: dict, domain: DomainConfig) -> StarShape:
    s = cfg["shape"]
    return build_star_shape(s["cos"], s.get("sin", ()), domain)


def _current(cfg: dict, n_measure: int) -> np.ndarray:
    c = cfg["current"]
    return current_from_fourier(c.get("cos", ()), c.get("sin", ()),
                                unit_circle_grid(n_measure))


def _omega(cfg: dict) -> np.ndarray:
    om = cfg["omega"]
    if isinstance(om, dict):
        return np.linspace(om["start"], om["stop"], om["count"])
    return np.asarray(om, dtype=float)


def _inversion_settings(cfg: dict, domain: DomainConfig) -> InversionSettings:
    return InversionSettings(**cfg.get("inversion", {}), config=domain)


def _write(out: Path, name: str, text: str, manifest: dict) -> None:
    path = out / name
    path.write_text(text)
    manifest["outputs"][name] = hashlib.sha256(text.encode()).hexdigest()


def cmd_spectrum(cfg: dict, out: Path, manifest: dict, threads: int) -> None:
    domain = _domain(cfg)
    shape = _shape(cfg, domain)
    n = cfg.get("n_boundary", 256)
    kernels = assemble(discretize(shape, n))
    spec = compute_spectrum(kernels, cfg.get("n_modes", 12), k0=domain.k0,
                            n_boundary=cfg.get("n_measure", 256),
                            tail=cfg.get("tail", DEFAULT_TAIL))
    bound = resonance_bound(shape, domain.k0)
    _write(out, "spectrum.json", spec.report_json(bound) + "\n", manifest)
    lines = ["theta," + ",".join(f"w{j}" for j in range(spec.lam.size))]
    for i, th in enumerate(spec.boundary_t):
        lines.append(",".join([repr(float(th))] +
                              [repr(float(v)) for v in spec.traces_bd_omega[i]]))
    _write(out, "traces.csv", "\n".join(lines) + "\n", manifest)


def cmd_forward(cfg: dict, out: Path, manifest: dict, threads: int) -> None:
    domain = _domain(cfg)
    shape = _shape(cfg, domain)
    n_measure = cfg.get("n_measure", 64)
    f = _current(cfg, n_measure)
    kvals = np.array([complex(re, im) for re, im in cfg["contrasts"]])
    kernels = assemble(discretize(shape, cfg.get("n_boundary", 256)))
    U = solve_forward_batched(kernels, f, kvals, domain.k0)
    data = MultiFreqData(theta=unit_circle_grid(n_measure).t,
                         omega=np.arange(kvals.size, dtype=float),
                         k=kvals, U=U, eta=0.0, seed=None)
    _write(out, "forward.csv", data.to_csv(), manifest)


def cmd_synth(cfg: dict, out: Path, manifest: dict, threads: int) -> None:
    domain = _domain(cfg)
    shape = _shape(cfg, domain)
    f = _current(cfg, cfg.get("n_measure", 64))
    profile = FrequencyProfile.from_dict(cfg["profile"])
    seed = cfg.get("seed")
    manifest["seeds"] = [seed] if seed is not None else []
    data = synthesize(shape, f, profile, _omega(cfg), eta=cfg.get("eta", 0.0),
                      seed=seed, n=cfg.get("n_boundary", 256), k0=domain.k0)
    _write(out, "dataset.csv", data.to_csv(), manifest)


def cmd_extract(cfg: dict, out: Path, manifest: dict, threads: int) -> None:
    domain = _domain(cfg)
    data = _read_input(cfg, "dataset", MultiFreqData, manifest)
    model = fit_rational(data, max_poles=cfg.get("max_poles", 6),
                         tol=cfg.get("fit_tol", 1e-9), config=domain)
    u0 = extract_u0(model, domain.k0)
    _write(out, "model.json", model.to_json() + "\n", manifest)
    _write(out, "u0.csv", u0.to_csv(), manifest)
    _write(out, "u0.json", json.dumps(u0.sidecar(), sort_keys=True) + "\n",
           manifest)


def cmd_invert(cfg: dict, out: Path, manifest: dict, threads: int) -> None:
    domain = _domain(cfg)
    data = _read_input(cfg, "cauchy", CauchyData, manifest)
    if data.f is None:
        data.f = _current(cfg, data.u0.size)
    settings = _inversion_settings(cfg, domain)
    result = invert(data, settings)
    _write(out, "shape.json", result.shape.to_json() + "\n", manifest)
    report = {"misfit": result.misfit, "history": result.history,
              "rho": result.rho, "converged": result.converged,
              "n_iter": result.n_iter,
              "hit_constraint": result.hit_constraint}
    if "shape" in cfg:  # truth available: report the shape error too
        truth = _shape(cfg, domain)
        report["sym_diff_vs_truth"] = symmetric_difference(result.shape, truth)
    _write(out, "inversion.json",
           json.dumps(report, sort_keys=True, indent=2) + "\n", manifest)


def cmd_sweep(cfg: dict, out: Path, manifest: dict, threads: int) -> None:
    domain = _domain(cfg)
    shape = _shape(cfg, domain)
    c = cfg["current"]
    profile = FrequencyProfile.from_dict(cfg["profile"])
    settings = _inversion_settings(cfg, domain)
    seeds = cfg.get("seeds", [0, 1, 2])
    manifest["seeds"] = list(seeds)
    res = stability_sweep(shape, (c.get("cos", ()), c.get("sin", ())), profile,
                          _omega(cfg), cfg["noise_levels"], settings, seeds,
                          max_poles=cfg.get("max_poles", 6), threads=threads,
                          n_forward=cfg.get("n_boundary", 256),
                          n_measure=cfg.get("n_measure", 64),
                          allow_degenerate=True)
    _write(out, "sweep.csv", res.to_csv(), manifest)
    _write(out, "summary.json", res.summary_json() + "\n", manifest)


_COMMANDS = {"spectrum": cmd_spectrum, "forward": cmd_forward,
             "synth": cmd_synth, "extract": cmd_extract,
             "invert": cmd_invert, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfeit",
        description="Multifrequency EIT pipeline: spectra, forward solves, "
                    "dataset synthesis, disentanglement, and inversion.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads of sweep (default: 1)")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        manifest = {"command": args.command,
                    "config_sha256": _sha256(Path(args.config)),
                    "inputs": {}, "outputs": {}, "seeds": []}
        _COMMANDS[args.command](cfg, out, manifest, args.threads)
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except MissingInput as exc:
        print(f"mfeit: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ValueError, KeyError, TypeError, ConstraintViolation,
            InvalidResolution) as exc:
        print(f"mfeit: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MfeitError as exc:
        print(f"mfeit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
