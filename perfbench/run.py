#!/usr/bin/env python3
"""mfeit benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload pipeline-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The run sets up five times (fresh-interpreter import, input generation,
reference values, warm-up) and reports the median as ``setup_s``. It then
repeats the workload's seeded op list (one *pass*) a fixed number of
times, ``--seconds`` divided by the workload's nominal pass time, so that
``attempted`` and ``failed`` repeat exactly for a seed. It checks every
op's outputs and prints a report followed by one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``. Each op's time is its best over
the untraced passes, because interference from other load on the machine
only ever slows an op: ``run_s`` is the sum of these and ``op_s_p50`` the
median over verified ops.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics. A copy of
the result, with the environment, goes to ``perfbench/out/``.

Exit codes: 0 result printed, 2 refused to start (package not found in
the checkout, or more worker threads than cores).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = {"run_s": "s", "op_s_p50": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class Refused(Exception):
    pass


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before the BLAS thread pin")
    for var in BLAS_PINS:
        os.environ[var] = "1"


def thread_counts(nproc: int, cli_threads: int) -> dict:
    """Every worker-thread count the run uses; refuse any above nproc."""
    counts = {"cli_threads": cli_threads, "sweep_threads": nproc,
              "blas_threads": 1}
    env = os.environ.get("MFEIT_THREADS")
    if env is not None:
        if not env.strip().isdigit():
            raise Refused(f"MFEIT_THREADS={env!r} is not a thread count")
        counts["MFEIT_THREADS"] = int(env)
    over = {k: v for k, v in counts.items() if v > nproc}
    if over:
        raise Refused(f"worker threads {over} exceed nproc = {nproc}")
    return counts


def import_package() -> None:
    """Import mfeit from the checkout's src, never from elsewhere."""
    if not (SRC / "mfeit" / "__init__.py").is_file():
        raise Refused(f"no package at {SRC / 'mfeit'}")
    sys.path.insert(0, str(SRC))
    import mfeit
    if Path(mfeit.__file__).resolve().parent != (SRC / "mfeit").resolve():
        raise Refused(f"mfeit imported from {mfeit.__file__}, not {SRC}")


def environment(seed: int, workload: str, nproc: int, threads: dict) -> dict:
    import numpy as np
    import scipy
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "mfeit").glob("*.py")):
        src_hash.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None

    def blas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]

    return {
        "workload": workload, "seed": seed, "git_commit": commit,
        "src_sha256": src_hash.hexdigest(), "nproc": nproc,
        "pins": {**{v: os.environ[v] for v in BLAS_PINS}, **threads},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas(np)['name']} {blas(np)['version']}",
        "scipy_blas": f"{blas(scipy)['name']} {blas(scipy)['version']}",
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mfeit.cli"], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


@dataclass
class Pass:
    traced: bool
    pass_s: float        # wall time of the pass, checks excluded
    op_s: list           # wall time of each op
    failed: list         # whether each op failed (error or failed check)


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """Passes in a run: fixed by the arguments, never by the clock.

    At least two, so that a traced run has an untraced pass too.
    """
    return max(2, round(seconds / nominal_pass_s))


def op_times(untraced: list) -> tuple[float, float]:
    """``run_s`` and ``op_s_p50`` from each op's best untraced time.

    An op failed if it failed in any pass. A failed op stops early (an
    extract that exits 3 skips the inversion), so in ``run_s`` it is
    charged at least ``op_s_p50``; failures never make a run look faster.
    """
    best = [min(ts) for ts in zip(*(p.op_s for p in untraced))]
    failed = [any(fs) for fs in zip(*(p.failed for p in untraced))]
    verified = [t for t, f in zip(best, failed) if not f]
    op_p50 = statistics.median(verified or best)
    run_s = sum(max(t, op_p50) if f else t for t, f in zip(best, failed))
    return run_s, op_p50


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pipeline-cli", "sweep-circle", "spectrum-ladder"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    pin_blas()
    nproc = len(os.sched_getaffinity(0))
    try:
        import_package()
        from workloads import CLI_THREADS, WORKLOADS, Context
        threads = thread_counts(nproc, CLI_THREADS)
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = environment(args.seed, wl.name, nproc, threads)
    OUT.mkdir(parents=True, exist_ok=True)
    ctx = Context(workdir=OUT / f"work-{os.getpid()}", nproc=nproc)
    try:
        return measure(args, wl, env, ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)


def measure(args, wl, env, ctx) -> int:
    # imported here: numpy must load after the BLAS pin
    import layers
    import spans
    from workloads import OpFailed, accuracy, attempt

    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        ops = wl.inputs(args.seed)
        refs = wl.references(ops)
        wl.warmup(ctx)
        setups.append(t_import + time.perf_counter() - t0)

    passes: list[Pass] = []
    recorders = []
    failures = Counter()
    wrong = 0
    checked = None  # accuracy of the first pass's outputs
    for i in range(pass_count(args.seconds, wl.PASS_S)):
        traced = bool(args.trace) and i % 2 == 0
        scope = nullcontext()
        if traced:
            recorders.append(spans.Recorder())
            scope = spans.instrument(recorders[-1], layers.targets(),
                                     ("mfeit",))
        results, op_s = [], []
        t0 = time.perf_counter()
        with scope:
            for op in ops:
                t = time.perf_counter()
                results.append(attempt(wl, op, ctx))
                op_s.append(time.perf_counter() - t)
        pass_s = time.perf_counter() - t0

        # output checks, outside the timed region
        pass_checked, op_failed = [], []
        for op, ref, (out, err) in zip(ops, refs, results):
            if err is None:
                try:
                    pass_checked.append(wl.check(op, out, ref))
                except OpFailed as exc:
                    err = exc
                    if exc.accuracy is not None:
                        pass_checked.append(exc.accuracy)
            if err is not None:
                failures[err.reason] += 1
                wrong += err.wrong
            op_failed.append(err is not None)
        passes.append(Pass(traced, pass_s, op_s, op_failed))
        if checked is None:
            checked = pass_checked

    attempted = len(ops) * len(passes)
    failed = sum(failures.values())
    acc = accuracy(checked)
    untraced = [p for p in passes if not p.traced]
    run_s, op_p50 = op_times(untraced)
    e2e = {
        "run_s": run_s,
        "op_s_p50": op_p50,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_layer = {}
    first_spans = []
    if args.trace:
        per_layer, mismatch = layers.combine_passes(recorders)
        per_layer["trace.overhead_s"] = (
            statistics.median(p.pass_s for p in passes if p.traced)
            - statistics.median(p.pass_s for p in untraced))
        per_layer.update(acc)
        units = layers.per_layer_units()
        metrics = {k: per_layer[k] for k in units}
        first_spans = [[s.id, s.parent, s.name, s.thread, s.start, s.end]
                       for s in recorders[0].spans]
        for name in mismatch:
            print(f"perfbench: warning: {name} differs between traced passes",
                  file=sys.stderr)
    else:
        units = dict(END_TO_END)
        metrics = e2e

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name}: {len(passes)} passes "
          f"({len(passes) - len(untraced)} traced), {attempted} ops, "
          f"{failed} failed (fail_frac {failed / attempted:.3f}); op times "
          f"are each op's best of {len(untraced)} untraced passes")
    for reason, n in sorted(failures.items()):
        print(f"  failed x{n}: {reason}")
    shown = {**{k: (v, END_TO_END[k]) for k, v in e2e.items()},
             **{k: (v, layers.ACCURACY[k]) for k, v in acc.items()},
             **{k: (v, units[k]) for k, v in per_layer.items()}}
    for k, (v, unit) in shown.items():
        print(f"  {k:<38} {v:>14.6g} {unit}")

    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"env": env, "result": result, "end_to_end": e2e,
              "accuracy": acc, "failures": dict(failures), "setup_s": setups,
              "passes": [vars(p) for p in passes], "per_layer": per_layer,
              "spans_first_traced_pass": first_spans}
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
