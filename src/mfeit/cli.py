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
import math
import sys
from pathlib import Path

import numpy as np

from .disentangle import extract_u0, fit_rational
from .errors import ConstraintViolation, InvalidResolution, MfeitError
from .forward import (CauchyData, FrequencyProfile, MultiFreqData,
                      _write_table, current_from_fourier,
                      solve_forward_batched, synthesize)
from .geometry import (DomainConfig, build_star_shape, discretize,
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
    """The parsed config; ``NaN``, ``Infinity`` and overflowing numbers such
    as ``1e999`` raise ``ValueError`` naming the literal."""
    p = Path(path)
    if not p.is_file():
        raise MissingInput(f"config file not found: {path}")

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {literal} in {path}")
        return value

    try:
        return json.loads(p.read_text(), parse_float=finite,
                          parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc


def _read_input(rel: str, cls, manifest: dict):
    """Load the CSV file ``rel`` as ``cls`` and hash it."""
    p = Path(rel)
    if not p.is_file():
        raise MissingInput(f"input file not found: {p}")
    manifest["inputs"][str(p)] = _sha256(p)
    try:
        return cls.from_csv(p.read_text())
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from exc


def _fourier(cos=(), sin=()):
    """(cos, sin) coefficients of a ``shape`` or ``current`` section."""
    return cos, sin


def _linspace(start, stop, count):
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"omega.count must be an integer >= 1, got {count!r}")
    return np.linspace(start, stop, count)


def _omega(omega) -> np.ndarray:
    """A list of frequencies, or ``{"start", "stop", "count"}``."""
    if isinstance(omega, dict):
        return _linspace(**omega)
    if np.ndim(omega) != 1 or not len(omega):
        raise ValueError("omega must be a non-empty list of frequencies")
    return np.asarray(omega, dtype=float)


def _write(out: Path, name: str, text: str, manifest: dict) -> None:
    path = out / name
    path.write_text(text)
    manifest["outputs"][name] = hashlib.sha256(text.encode()).hexdigest()


# Each command's keyword-only parameters are its config keys: a key without
# a default is required, and an unknown or missing key is a TypeError naming
# it. Each section is unpacked into the callable that consumes it, so its
# keys are checked the same way; ``inputs`` into a one-argument lambda.

def cmd_spectrum(out: Path, manifest: dict, threads: int, *, shape,
                 domain=None, n_boundary=256, n_modes=12, n_measure=256,
                 tail=DEFAULT_TAIL) -> None:
    domain = DomainConfig(**(domain or {}))
    shape = build_star_shape(*_fourier(**shape), domain)
    kernels = assemble(discretize(shape, n_boundary))
    spec = compute_spectrum(kernels, n_modes, k0=domain.k0,
                            n_boundary=n_measure, tail=tail)
    bound = resonance_bound(shape, domain.k0)
    _write(out, "spectrum.json", spec.report_json(bound) + "\n", manifest)
    header = ["theta"] + [f"w{j}" for j in range(spec.lam.size)]
    table = np.column_stack([unit_circle_grid(n_measure).t,
                             spec.traces_bd_omega])
    _write(out, "traces.csv", _write_table(header, table), manifest)


def cmd_forward(out: Path, manifest: dict, threads: int, *, shape, current,
                contrasts, domain=None, n_measure=64,
                n_boundary=256) -> None:
    domain = DomainConfig(**(domain or {}))
    shape = build_star_shape(*_fourier(**shape), domain)
    f = current_from_fourier(*_fourier(**current), unit_circle_grid(n_measure))
    kvals = np.array([complex(re, im) for re, im in contrasts])
    kernels = assemble(discretize(shape, n_boundary))
    U = solve_forward_batched(kernels, f, kvals, domain.k0)
    data = MultiFreqData(omega=np.arange(kvals.size, dtype=float), k=kvals,
                         U=U)
    _write(out, "forward.csv", data.to_csv(), manifest)


def cmd_synth(out: Path, manifest: dict, threads: int, *, shape, current,
              profile, omega, domain=None, n_measure=64, eta=0.0, seed=None,
              n_boundary=256) -> None:
    domain = DomainConfig(**(domain or {}))
    shape = build_star_shape(*_fourier(**shape), domain)
    f = current_from_fourier(*_fourier(**current), unit_circle_grid(n_measure))
    if seed is not None and (not isinstance(seed, int) or seed < 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    manifest["seeds"] = [seed] if seed is not None else []
    data = synthesize(assemble(discretize(shape, n_boundary)), f,
                      FrequencyProfile.from_dict(profile), _omega(omega),
                      eta=eta, seed=seed, k0=domain.k0)
    _write(out, "dataset.csv", data.to_csv(), manifest)


def cmd_extract(out: Path, manifest: dict, threads: int, *, inputs,
                domain=None, max_poles=6, fit_tol=1e-9) -> None:
    domain = DomainConfig(**(domain or {}))
    data = _read_input((lambda dataset: dataset)(**inputs), MultiFreqData,
                       manifest)
    model = fit_rational(data, max_poles=max_poles, tol=fit_tol, config=domain)
    u0 = extract_u0(model, domain.k0)
    _write(out, "model.json", model.to_json() + "\n", manifest)
    _write(out, "u0.csv", u0.to_csv(), manifest)
    _write(out, "u0.json", json.dumps(u0.sidecar(), sort_keys=True) + "\n",
           manifest)


def cmd_invert(out: Path, manifest: dict, threads: int, *, inputs,
               domain=None, shape=None, current=None,
               inversion=None) -> None:
    """``shape`` is the truth to score against; ``current`` fills in a
    Cauchy file without an ``f`` column and must match one that has it."""
    domain = DomainConfig(**(domain or {}))
    path = (lambda cauchy: cauchy)(**inputs)
    data = _read_input(path, CauchyData, manifest)
    # unpacked even when the file has f, so a misspelt key still exits 2
    f = None if current is None else current_from_fourier(
        *_fourier(**current), unit_circle_grid(data.u0.size))
    if data.f is None:
        if f is None:
            raise ValueError(f"config needs current: {path} has no f column")
        data.f = f
    elif f is not None:
        gap = float(np.max(np.abs(f - data.f)))
        if gap > 1e-12 * float(np.max(np.abs(f))):
            raise ValueError(f"config current disagrees with the f column of "
                             f"{path}: max difference {gap:.3g}")
    result = invert(data, InversionSettings(**(inversion or {}), config=domain))
    _write(out, "shape.json", result.shape.to_json() + "\n", manifest)
    report = {"misfit": result.history[-1], "history": result.history,
              "rho": result.rho, "converged": result.converged,
              "n_iter": result.n_iter,
              "hit_constraint": result.hit_constraint}
    if shape is not None:
        truth = build_star_shape(*_fourier(**shape), domain)
        report["sym_diff_vs_truth"] = symmetric_difference(result.shape, truth)
    _write(out, "inversion.json",
           json.dumps(report, sort_keys=True, indent=2) + "\n", manifest)


def cmd_sweep(out: Path, manifest: dict, threads: int, *, shape, current,
              profile, omega, noise_levels, domain=None, inversion=None,
              seeds=(0, 1, 2), max_poles=6, n_boundary=256,
              n_measure=64) -> None:
    domain = DomainConfig(**(domain or {}))
    manifest["seeds"] = list(seeds)
    res = stability_sweep(build_star_shape(*_fourier(**shape), domain),
                          _fourier(**current),
                          FrequencyProfile.from_dict(profile), _omega(omega),
                          noise_levels,
                          InversionSettings(**(inversion or {}), config=domain),
                          seeds, max_poles=max_poles, threads=threads,
                          n_forward=n_boundary, n_measure=n_measure,
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
        _COMMANDS[args.command](out, manifest, args.threads, **cfg)
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
