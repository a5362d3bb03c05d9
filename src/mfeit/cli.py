"""Command-line pipeline harness.

Every subcommand is a pure function of (config, input files) to its
output files by name: CSV text, or a dict for a JSON report. Only ``main``
turns them into bytes, every JSON file in one form (sorted keys, indent 2),
and writes them to ``--out`` after the command returns, with a
``manifest.json`` of the command, the seeds in play, and the SHA-256 of the
config, of every input file and of every output. Each file is read once, and
a hash is of the very bytes parsed or written: identical inputs yield
byte-identical outputs.

Exit codes: 0 success, 2 configuration/validation error, 3 numeric failure,
4 missing input file. A command that exits non-zero writes no output file
(``--out`` may exist, empty).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .disentangle import _check_max_poles, extract_u0, fit_rational
from .errors import ConstraintViolation, InvalidResolution, MfeitError
from .forward import (CauchyData, FrequencyProfile, MultiFreqData,
                      _check_noise_level, _is_count, _is_number, _write_table,
                      current_from_fourier, solve_forward_batched, synthesize)
from .geometry import (DomainConfig, build_star_shape, discretize,
                       unit_circle_grid)
from .potential import assemble
from .reconstruct import (InversionSettings, _check_list, invert,
                          stability_sweep, symmetric_difference)
from .spectrum import DEFAULT_TAIL, compute_spectrum, resonance_bound

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING_INPUT = 4


def _read(path: str, what: str) -> bytes:
    """The bytes of the file ``path``, read once for both parse and hash."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return p.read_bytes()


def _dump(obj) -> str:
    """The one JSON form of every report and of the manifest."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_config(raw: bytes, path: str) -> dict:
    """The config parsed from ``raw``; ``NaN``, ``Infinity`` and overflowing
    numbers such as ``1e999`` raise ``ValueError`` naming the literal, and
    ``true`` or ``false`` anywhere, which no key takes, naming its key path."""

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {literal} in {path}")
        return value

    def no_booleans(node, key: str) -> None:
        if isinstance(node, bool):
            raise ValueError(f"no config key takes true or false: {key} is "
                             f"{json.dumps(node)} in {path}")
        if isinstance(node, dict):
            for k, v in node.items():
                no_booleans(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                no_booleans(v, f"{key}[{i}]")

    try:
        cfg = json.loads(raw.decode(), parse_float=finite,
                         parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    no_booleans(cfg, "")
    return cfg


def _read_input(rel: str, cls, manifest: dict):
    """Load the CSV file ``rel`` as ``cls`` and hash the same bytes."""
    p = str(Path(rel))
    raw = _read(p, "input file")
    manifest["inputs"][p] = hashlib.sha256(raw).hexdigest()
    try:
        return cls.from_csv(raw.decode())
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from exc


def _fourier(cos=(), sin=()):
    """(cos, sin) coefficients of a ``shape`` or ``current`` section."""
    return cos, sin


def _linspace(start, stop, count):
    if not _is_count(count) or count < 1:
        raise ValueError(f"omega.count must be an integer >= 1, got {count!r}")
    return np.linspace(start, stop, count)


def _omega(omega) -> np.ndarray:
    """A list of frequencies, or ``{"start", "stop", "count"}``."""
    if isinstance(omega, dict):
        return _linspace(**omega)
    if np.ndim(omega) != 1 or not len(omega):
        raise ValueError("omega must be a non-empty list of frequencies")
    return np.asarray(omega, dtype=float)


# Each command's keyword-only parameters are its config keys: a key without
# a default is required, and an unknown or missing key is a TypeError naming
# it. Each section is unpacked into the callable that consumes it, so its
# keys are checked the same way; ``inputs`` into a one-argument lambda.

def cmd_spectrum(manifest: dict, *, shape, domain=None, n_boundary=256,
                 n_modes=12, n_measure=256, tail=DEFAULT_TAIL) -> dict:
    if not _is_count(n_modes):
        raise ValueError(f"n_modes must be an integer >= 0, got {n_modes!r}")
    if not (_is_number(tail) and tail >= 0):
        raise ValueError(f"tail must be a number >= 0, got {tail!r}")
    domain = DomainConfig(**(domain or {}))
    shape = build_star_shape(*_fourier(**shape), domain)
    theta = unit_circle_grid(n_measure).t  # checked before the assembly
    kernels = assemble(discretize(shape, n_boundary))
    spec = compute_spectrum(kernels, n_modes, k0=domain.k0,
                            n_boundary=n_measure, tail=tail)
    bound = resonance_bound(shape, domain.k0)
    header = ["theta"] + [f"w{j}" for j in range(spec.lam.size)]
    table = np.column_stack([theta, spec.traces_bd_omega])
    return {"spectrum.json": spec.report(bound),
            "traces.csv": _write_table(header, table.tolist())}


def cmd_forward(manifest: dict, *, shape, current, contrasts, domain=None,
                n_measure=64, n_boundary=256) -> dict:
    domain = DomainConfig(**(domain or {}))
    shape = build_star_shape(*_fourier(**shape), domain)
    f = current_from_fourier(*_fourier(**current), unit_circle_grid(n_measure))
    _check_list(contrasts, "contrasts", "[re, im] number pairs",
                lambda k: isinstance(k, list) and len(k) == 2
                and all(map(_is_number, k)))
    kvals = np.array([complex(re, im) for re, im in contrasts])
    kernels = assemble(discretize(shape, n_boundary))
    U = solve_forward_batched(kernels, f, kvals, domain.k0)
    return {"forward.csv": MultiFreqData(
        omega=np.arange(kvals.size, dtype=float), k=kvals, U=U).to_csv()}


def cmd_synth(manifest: dict, *, shape, current, profile, omega, domain=None,
              n_measure=64, eta=0.0, seed=None, n_boundary=256) -> dict:
    domain = DomainConfig(**(domain or {}))
    shape = build_star_shape(*_fourier(**shape), domain)
    f = current_from_fourier(*_fourier(**current), unit_circle_grid(n_measure))
    if seed is not None and not _is_count(seed):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    omega = _omega(omega)
    kvals = FrequencyProfile.from_dict(profile).contrast(omega)
    _check_noise_level(eta)  # all checked before the assembly
    manifest["seeds"] = [seed] if seed is not None else []
    data = synthesize(assemble(discretize(shape, n_boundary)), f, omega, kvals,
                      eta=eta, seed=seed, k0=domain.k0)
    return {"dataset.csv": data.to_csv()}


def cmd_extract(manifest: dict, *, inputs, domain=None, max_poles=6,
                fit_tol=1e-9) -> dict:
    domain = DomainConfig(**(domain or {}))
    if not (_is_number(fit_tol) and fit_tol > 0):
        raise ValueError(f"fit_tol must be a number > 0, got {fit_tol!r}")
    _check_max_poles(max_poles)
    data = _read_input((lambda dataset: dataset)(**inputs), MultiFreqData,
                       manifest)
    model = fit_rational(data, max_poles=max_poles, tol=fit_tol, config=domain)
    u0 = extract_u0(model, domain.k0)
    return {"model.json": model.report(domain.k0), "u0.csv": u0.to_csv(),
            "u0.json": u0.sidecar()}


def cmd_invert(manifest: dict, *, inputs, domain=None, shape=None,
               current=None, inversion=None) -> dict:
    """``shape`` is the truth to score against; ``current`` fills in a
    Cauchy file without an ``f`` column and must match one that has it."""
    domain = DomainConfig(**(domain or {}))
    truth = None if shape is None else build_star_shape(*_fourier(**shape),
                                                        domain)
    settings = InversionSettings(**(inversion or {}), config=domain)
    # unpacked even when the file has f, so a misspelt key still exits 2
    coeffs = None if current is None else _fourier(**current)
    path = (lambda cauchy: cauchy)(**inputs)
    data = _read_input(path, CauchyData, manifest)
    f = None if coeffs is None else current_from_fourier(
        *coeffs, unit_circle_grid(data.u0.size))
    if data.f is None:
        if f is None:
            raise ValueError(f"config needs current: {path} has no f column")
        data.f = f
    elif f is not None:
        gap = float(np.max(np.abs(f - data.f)))
        if gap > 1e-12 * float(np.max(np.abs(f))):
            raise ValueError(f"config current disagrees with the f column of "
                             f"{path}: max difference {gap:.3g}")
    result = invert(data, settings)
    report = {"misfit": result.history[-1], "history": result.history,
              "rho": result.rho, "converged": result.converged,
              "n_iter": result.n_iter,
              "hit_constraint": result.hit_constraint}
    if truth is not None:
        report["sym_diff_vs_truth"] = symmetric_difference(result.shape, truth)
    return {"shape.json": dataclasses.asdict(result.shape),
            "inversion.json": report}


def cmd_sweep(manifest: dict, *, shape, current, profile, omega, noise_levels,
              domain=None, inversion=None, seeds=(0, 1, 2), max_poles=6,
              n_boundary=256, n_measure=64) -> dict:
    domain = DomainConfig(**(domain or {}))
    res = stability_sweep(build_star_shape(*_fourier(**shape), domain),
                          _fourier(**current),
                          FrequencyProfile.from_dict(profile), _omega(omega),
                          noise_levels,
                          InversionSettings(**(inversion or {}), config=domain),
                          seeds, max_poles=max_poles, n_forward=n_boundary,
                          n_measure=n_measure, allow_degenerate=True)
    manifest["seeds"] = list(seeds)
    return {"sweep.csv": res.to_csv(), "summary.json": res.summary}


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
                        help="accepted and ignored; sweep rows run in order")
    args = parser.parse_args(argv)

    try:
        raw = _read(args.config, "config file")
        cfg = _load_config(raw, args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        manifest = {"command": args.command,
                    "config_sha256": hashlib.sha256(raw).hexdigest(),
                    "inputs": {}, "seeds": []}
        made = _COMMANDS[args.command](manifest, **cfg)
        files = {name: (v if isinstance(v, str) else _dump(v)).encode()
                 for name, v in made.items()}
        manifest["outputs"] = {name: hashlib.sha256(b).hexdigest()
                               for name, b in files.items()}
        files["manifest.json"] = _dump(manifest).encode()
        for name, b in files.items():
            (out / name).write_bytes(b)
    except FileNotFoundError as exc:
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
