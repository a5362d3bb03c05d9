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

from .disentangle import (DEFAULT_FIT_TOL, DEFAULT_MAX_POLES, extract_u0,
                          fit_rational)
from .errors import ConstraintViolation, InvalidResolution, MfeitError
from .forward import (CauchyData, FrequencyProfile, MultiFreqData,
                      _check_zero_mean, _write_table, current_from_fourier,
                      solve_forward_batched, synthesize)
from .geometry import (DomainConfig, _is_count, _is_number, build_star_shape,
                       check, check_gap, check_grid_size, check_list,
                       discretize, unit_circle_grid)
from .potential import assemble
from .reconstruct import (InversionSettings, invert, stability_sweep,
                          symmetric_difference)
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
    numbers such as ``1e999`` raise ``ValueError`` naming the literal."""

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {literal} in {path}")
        return value

    try:
        return json.loads(raw.decode(), parse_float=finite,
                          parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc


def _read_input(rel: str, cls, manifest: dict):
    """Load the CSV file ``rel`` as ``cls`` and hash the same bytes."""
    p = str(Path(rel))
    raw = _read(p, "input file")
    manifest["inputs"][p] = hashlib.sha256(raw).hexdigest()
    try:
        return cls.from_csv(raw.decode())
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from exc


def _section(value, key: str, optional: bool = False) -> dict:
    """The config section ``value``, an object; an optional one left out
    (None) is empty."""
    check(value, key, "an object",
          lambda v: isinstance(v, dict) or (optional and v is None))
    return value or {}


def _fourier(key: str, section) -> tuple:
    """(cos, sin) coefficients of the ``shape`` or ``current`` section: a
    shape has its mean radius ``cos[0]``, a current a nonzero coefficient."""
    cos, sin = (lambda cos=[], sin=[]: (cos, sin))(**_section(section, key))
    for name, values in (("cos", cos), ("sin", sin)):
        check(values, f"{key}.{name}", "a list of numbers",
              lambda v: isinstance(v, (list, tuple))
              and all(map(_is_number, v)))
    if key == "shape":
        check(cos, "shape.cos", "a non-empty list of numbers", len)
    else:
        check(section, key, "nonzero", lambda v: any(cos) or any(sin))
    return cos, sin


def _inclusion(shape, domain, n_measure, n_boundary) -> tuple:
    """(domain, shape, grid) of a command that solves on the config shape:
    the grid sizes checked first, the measurement circle's rule for
    ``n_measure`` and an inclusion grid's for ``n_boundary``, then the
    domain, the class and the gap of the shape's ``n_boundary`` grid."""
    check_grid_size(n_measure, 16, "n_measure")
    check_grid_size(n_boundary, 32, "n_boundary")
    domain = DomainConfig(**_section(domain, "domain", optional=True))
    shape = build_star_shape(*_fourier("shape", shape), domain)
    return domain, shape, check_gap(discretize(shape, n_boundary))


def _linspace(start, stop, count):
    check(start, "omega.start", "a number", _is_number)
    check(stop, "omega.stop", "a number", _is_number)
    check(count, "omega.count", "an integer >= 1",
          lambda v: _is_count(v) and v >= 1)
    return np.linspace(start, stop, count)


def _omega(omega) -> np.ndarray:
    """A list of frequencies, or ``{"start", "stop", "count"}``."""
    if isinstance(omega, dict):
        return _linspace(**omega)
    check_list(omega, "omega", "frequencies", _is_number)
    return np.asarray(omega, dtype=float)


# Each command's keyword-only parameters are its config keys: a key without
# a default is required, and an unknown or missing key is a TypeError naming
# it. Each section is unpacked into the callable that consumes it, so its
# keys are checked the same way; ``inputs`` into a one-argument lambda.

def cmd_spectrum(manifest: dict, *, shape, domain=None, n_boundary=256,
                 n_modes=12, n_measure=256, tail=DEFAULT_TAIL) -> dict:
    check(n_modes, "n_modes", "an integer >= 0", _is_count)
    check(tail, "tail", "a number >= 0", lambda v: _is_number(v) and v >= 0)
    domain, shape, grid = _inclusion(shape, domain, n_measure, n_boundary)
    theta = unit_circle_grid(n_measure).t
    spec = compute_spectrum(assemble(grid), n_modes, k0=domain.k0,
                            n_boundary=n_measure, tail=tail)
    bound = resonance_bound(shape, domain.k0)
    header = ["theta"] + [f"w{j}" for j in range(spec.lam.size)]
    table = np.column_stack([theta, spec.traces_bd_omega])
    return {"spectrum.json": spec.report(bound),
            "traces.csv": _write_table(header, table.tolist())}


def cmd_forward(manifest: dict, *, shape, current, contrasts, domain=None,
                n_measure=64, n_boundary=256) -> dict:
    domain, _, grid = _inclusion(shape, domain, n_measure, n_boundary)
    f = current_from_fourier(*_fourier("current", current),
                             unit_circle_grid(n_measure))
    check_list(contrasts, "contrasts", "[re, im] number pairs",
               lambda k: isinstance(k, list) and len(k) == 2
               and all(map(_is_number, k)))
    kvals = np.array([complex(re, im) for re, im in contrasts])
    U = solve_forward_batched(assemble(grid), f, kvals, domain.k0)
    return {"forward.csv": MultiFreqData(
        omega=np.arange(kvals.size, dtype=float), k=kvals, U=U).to_csv()}


def cmd_synth(manifest: dict, *, shape, current, profile, omega, domain=None,
              n_measure=64, eta=0.0, seed=None, n_boundary=256) -> dict:
    domain, _, grid = _inclusion(shape, domain, n_measure, n_boundary)
    f = current_from_fourier(*_fourier("current", current),
                             unit_circle_grid(n_measure))
    check(seed, "seed", "an integer >= 0", lambda v: v is None or _is_count(v))
    check(eta, "eta", "a number >= 0", lambda v: _is_number(v) and v >= 0)
    omega = _omega(omega)
    profile = FrequencyProfile.from_dict(_section(profile, "profile"))
    kvals = profile.contrast(omega)
    manifest["seeds"] = [seed] if seed is not None else []
    data = synthesize(assemble(grid), f, omega, kvals, eta=eta, seed=seed,
                      k0=domain.k0)
    return {"dataset.csv": data.to_csv()}


def cmd_extract(manifest: dict, *, inputs, domain=None,
                max_poles=DEFAULT_MAX_POLES, fit_tol=DEFAULT_FIT_TOL) -> dict:
    domain = DomainConfig(**_section(domain, "domain", optional=True))
    check(fit_tol, "fit_tol", "a number > 0", lambda v: _is_number(v) and v > 0)
    check(max_poles, "max_poles", "an integer >= 0", _is_count)
    path = (lambda dataset: dataset)(**_section(inputs, "inputs"))
    check(path, "inputs.dataset", "a string", lambda v: isinstance(v, str))
    data = _read_input(path, MultiFreqData, manifest)
    # the codec reads any point count, the measurement grid does not
    check_grid_size(data.U.shape[0], 16, f"points of {path}")
    model = fit_rational(data, max_poles=max_poles, tol=fit_tol, config=domain)
    u0 = extract_u0(model, domain.k0)
    return {"model.json": model.report(domain.k0), "u0.csv": u0.to_csv(),
            "u0.json": {"rho": None}}


def cmd_invert(manifest: dict, *, inputs, domain=None, shape=None,
               current=None, inversion=None) -> dict:
    """``shape`` is the truth to score against; ``current`` fills in a
    Cauchy file without an ``f`` column and must match one that has it."""
    domain = DomainConfig(**_section(domain, "domain", optional=True))
    truth = None if shape is None else build_star_shape(
        *_fourier("shape", shape), domain)
    settings = InversionSettings(
        **_section(inversion, "inversion", optional=True), config=domain)
    # unpacked even when the file has f, so a misspelt key still exits 2
    coeffs = None if current is None else _fourier("current", current)
    path = (lambda cauchy: cauchy)(**_section(inputs, "inputs"))
    check(path, "inputs.cauchy", "a string", lambda v: isinstance(v, str))
    data = _read_input(path, CauchyData, manifest)
    # the codec reads any row count, the measurement grid does not
    check_grid_size(data.u0.size, 16, f"rows of {path}")
    bgrid = unit_circle_grid(data.u0.size)
    if data.f is not None:
        # a zero current leaves u0 flat, which any circle fits
        if not np.any(data.f):
            raise ValueError(f"{path}: column f: injected current must be "
                             f"nonzero")
        _check_zero_mean(data.f, f"{path}: column f: injected current")
    f = None if coeffs is None else current_from_fourier(*coeffs, bgrid)
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
              domain=None, inversion=None, seeds=(0, 1, 2),
              max_poles=DEFAULT_MAX_POLES, n_boundary=256,
              n_measure=64) -> dict:
    domain, shape, _ = _inclusion(shape, domain, n_measure, n_boundary)
    settings = InversionSettings(
        **_section(inversion, "inversion", optional=True), config=domain)
    profile = FrequencyProfile.from_dict(_section(profile, "profile"))
    res = stability_sweep(shape, _fourier("current", current), profile,
                          _omega(omega), noise_levels, settings, seeds,
                          max_poles=max_poles, n_forward=n_boundary,
                          n_measure=n_measure)
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
    except (ValueError, TypeError, ConstraintViolation,
            InvalidResolution) as exc:
        print(f"mfeit: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MfeitError as exc:
        print(f"mfeit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
