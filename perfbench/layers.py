"""Which mfeit functions the traced run wraps, and the per-layer metrics.

Each layer of the package is traced at its public functions; the dense
linear-algebra entry points that mfeit calls are traced as one more layer,
``linalg``, with flop and byte counts computed from the operand shapes
(standard dense-algorithm counts, not measured by hardware counters).
"""
from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

from spans import Target, aggregate

#: (module, function) pairs traced as spans named "<layer>.<function>"
LAYER_FUNCTIONS = [
    ("mfeit.geometry", "discretize"),
    ("mfeit.potential", "assemble"),
    ("mfeit.potential", "eval_S"),
    ("mfeit.spectrum", "compute_spectrum"),
    ("mfeit.forward", "solve_forward_direct"),
    ("mfeit.forward", "solve_forward_spectral"),
    ("mfeit.forward", "solve_u0"),
    ("mfeit.forward", "synthesize"),
    ("mfeit.disentangle", "fit_rational"),
    ("mfeit.reconstruct", "invert"),
    ("mfeit.reconstruct", "stability_sweep"),
    ("mfeit.cli", "main"),
]

#: (module, function) linear-algebra entry points mfeit calls
LINALG_FUNCTIONS = [
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "lstsq"),
    ("numpy.linalg", "svd"),
    ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigvals"),
]

#: deterministic output accuracy, computed by the workloads' output checks
ACCURACY = {
    "accuracy.sym_diff_p50": "area",
    "accuracy.u0_err_p50": "1",
    "accuracy.fwd_rel_err_max": "1",
}


def _span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr}"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for module, attr in LAYER_FUNCTIONS:
        name = _span_name(module, attr)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "disentangle.fit_ok_frac": "1",
        "disentangle.poles_kept_mean": "count",
        "disentangle.fit_rel_residual_max": "1",
        "reconstruct.gn_iters": "count",
        "reconstruct.solves_per_iter": "count",
        "reconstruct.converged_frac": "1",
        "cli.bytes_written": "B",
        "linalg.factorizations": "count",
        "linalg.flops_computed": "flop",
        "linalg.bytes_computed": "B",
        "linalg.self_s": "s",
        "trace.overhead_s": "s",
    })
    units.update(ACCURACY)
    return units


def exact_metrics() -> list[str]:
    """Metrics that repeat exactly across traced passes of one input set."""
    return [n for n, u in per_layer_units().items()
            if u in ("count", "B", "flop") or n.endswith("_frac")
            or n == "disentangle.fit_rel_residual_max"]


# -- hooks ------------------------------------------------------------------

def _fit_ok(rec, model, args, kwargs):
    rec.add("fit_ok")
    rec.sample("poles_kept", int(model.poles.size))
    rec.sample("fit_rel_residual",
               model.residual / model.scale if model.scale > 0 else 0.0)


def _fit_failed(rec, exc, args, kwargs):
    rec.add("fit_failed")


def _invert_done(rec, result, args, kwargs):
    rec.add("invert_done")
    rec.add("gn_iters", result.n_iter)
    rec.add("invert_converged", int(result.converged))


def _invert_failed(rec, exc, args, kwargs):
    rec.add("invert_done")
    best = getattr(exc, "result", None)
    if best is not None:
        rec.add("gn_iters", best.n_iter)


def _solve_u0(rec, _result, args, kwargs):
    if "reconstruct.invert" in rec.open_names():
        rec.add("solves_in_invert")


def _cli_done(rec, code, args, kwargs):
    argv = list(args[0] if args else kwargs["argv"])
    out = Path(argv[argv.index("--out") + 1])
    if out.is_dir():
        rec.add("cli_bytes", sum(p.stat().st_size for p in out.iterdir()
                                 if p.is_file()))


_HOOKS = {
    "disentangle.fit_rational": (_fit_ok, _fit_failed),
    "reconstruct.invert": (_invert_done, _invert_failed),
    "forward.solve_u0": (_solve_u0, _solve_u0),
    "cli.main": (_cli_done, None),
}


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for o in obj:
            yield from _arrays(o)


def linalg_cost(fn: str, args, kwargs, result) -> tuple[int, int]:
    """(flops, bytes) of one call, computed from operand and result shapes.

    Counts per Golub & Van Loan, Matrix Computations: LU solve
    2/3 n^3 + 2 n^2 k; Householder least squares 2 m n^2 - 2/3 n^3 + 4 m n k;
    SVD with full U and V 4 m^2 n + 8 m n^2 + 9 n^3 (m >= n); symmetric
    eigensolve with vectors 9 n^3, plus 10/3 n^3 for the reduction of a
    generalized problem; eigenvalues only 10 n^3, QZ 30 n^3. Complex
    operands count 4 real flops per complex one. Bytes are the sizes of the
    operands read and the results written. Integers, so that sums over
    threads do not depend on the order the calls finish in.
    """
    ops = [np.asarray(a) for a in list(args) + list(kwargs.values())
           if isinstance(a, np.ndarray)]
    a = ops[0]
    b = ops[1] if len(ops) > 1 else None
    if fn == "solve":
        n = a.shape[-1]
        k = b.size // n if b is not None else 1
        flops = 2 * n ** 3 // 3 + 2 * n ** 2 * k
    elif fn == "lstsq":
        m, n = a.shape
        k = 1 if b is None or b.ndim == 1 else b.shape[1]
        flops = 2 * m * n ** 2 - 2 * n ** 3 // 3 + 4 * m * n * k
    elif fn == "svd":
        m, n = max(a.shape), min(a.shape)
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    elif fn == "eigh":
        n = a.shape[0]
        flops = 9 * n ** 3 + (10 * n ** 3 // 3 if b is not None else 0)
    elif fn == "eigvals":
        n = a.shape[0]
        flops = (30 if b is not None else 10) * n ** 3
    else:
        raise ValueError(f"no cost model for {fn}")
    if any(np.iscomplexobj(o) for o in ops):
        flops *= 4
    nbytes = sum(o.nbytes for o in ops) + sum(r.nbytes for r in _arrays(result))
    return int(flops), int(nbytes)


def _linalg_hook(fn: str):
    def hook(rec, result, args, kwargs):
        flops, nbytes = linalg_cost(fn, args, kwargs, result)
        rec.add("linalg_flops", flops)
        rec.add("linalg_bytes", nbytes)
    return hook


def targets() -> list[Target]:
    out = []
    for module, attr in LAYER_FUNCTIONS:
        name = _span_name(module, attr)
        on_result, on_error = _HOOKS.get(name, (None, None))
        out.append(Target(module, attr, name, on_result, on_error))
    for module, attr in LINALG_FUNCTIONS:
        out.append(Target(module, attr, f"linalg.{attr}", _linalg_hook(attr)))
    return out


def layer_metrics(rec) -> dict[str, float]:
    """Per-layer metrics of one traced pass (accuracy and overhead excluded)."""
    agg = aggregate(rec.spans)
    c = rec.counters
    m: dict[str, float] = {}
    for module, attr in LAYER_FUNCTIONS:
        name = _span_name(module, attr)
        a = agg.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = a["calls"]
        m[f"{name}.self_s"] = a["self_s"]
    fits = c.get("fit_ok", 0) + c.get("fit_failed", 0)
    m["disentangle.fit_ok_frac"] = c.get("fit_ok", 0) / fits if fits else 0.0
    poles = rec.samples.get("poles_kept", [])
    m["disentangle.poles_kept_mean"] = statistics.fmean(poles) if poles else 0.0
    m["disentangle.fit_rel_residual_max"] = max(
        rec.samples.get("fit_rel_residual", [0.0]))
    gn = c.get("gn_iters", 0)
    inv = c.get("invert_done", 0)
    m["reconstruct.gn_iters"] = gn
    m["reconstruct.solves_per_iter"] = c.get("solves_in_invert", 0) / gn if gn else 0.0
    m["reconstruct.converged_frac"] = c.get("invert_converged", 0) / inv if inv else 0.0
    m["cli.bytes_written"] = c.get("cli_bytes", 0)
    lin = [v for k, v in agg.items() if k.startswith("linalg.")]
    m["linalg.factorizations"] = sum(v["calls"] for v in lin)
    m["linalg.flops_computed"] = c.get("linalg_flops", 0)
    m["linalg.bytes_computed"] = c.get("linalg_bytes", 0)
    m["linalg.self_s"] = math.fsum(v["self_s"] for v in lin)
    return m


def combine_passes(recorders) -> tuple[dict, list]:
    """Per-layer metrics over traced passes of the same inputs.

    Exact metrics come from the first pass; times are medians over passes.
    Also returns the names of exact metrics that differ between passes.
    """
    per_pass = [layer_metrics(r) for r in recorders]
    exact = set(exact_metrics())
    out, mismatch = {}, []
    for name in per_pass[0]:
        vals = [m[name] for m in per_pass]
        if name in exact:
            out[name] = vals[0]
            if any(v != vals[0] for v in vals):
                mismatch.append(name)
        else:
            out[name] = statistics.median(vals)
    return out, mismatch
