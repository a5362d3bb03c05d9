"""mfeit calls scipy's LAPACK wrappers without running ``scipy.linalg``.

``scipy.linalg`` is registered when mfeit is imported and never executed by
it: ``potential.lapack()`` is the compiled ``scipy.linalg._flapack``, loaded
from its file by the first solve. Each check runs in a fresh interpreter,
since this one loaded scipy.linalg long ago. Whether the package has run
shows in ``scipy.linalg._basic`` and in ``numpy.f2py``, which its import
loads.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
RAN = ("'scipy.linalg._basic' in sys.modules,"
       " 'numpy.f2py' in sys.modules")


def fresh(code: str, cwd=None) -> list[str]:
    """Words that ``code`` prints in a fresh interpreter on this source
    tree, run in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", "import sys\n" + code], cwd=cwd, env=env,
        check=True, capture_output=True, text=True).stdout.split()


def test_importing_the_cli_registers_scipy_linalg_without_running_it():
    # perfbench's instrument looks the module up before any op runs
    assert fresh(f"import mfeit.cli\n"
                 f"print('scipy.linalg' in sys.modules, {RAN},\n"
                 f"      'scipy.linalg._flapack' in sys.modules)"
                 ) == ["True", "False", "False", "False"]


def test_the_pipeline_spectrum_and_forward_never_run_scipy_linalg(tmp_path):
    configs = ROOT / "configs"
    runs = [(step, str(configs / f"pipeline/{step}.json"),
             f"pipeline_out/{step}") for step in ("synth", "extract", "invert")]
    runs += [(cmd, str(configs / f"{cmd}.json"), f"{cmd}_out")
             for cmd in ("spectrum", "forward")]
    assert fresh(f"from mfeit.cli import main\n"
                 f"print(*(main([c, '--config', p, '--out', o])"
                 f" for c, p, o in {runs!r}), {RAN})",
                 cwd=tmp_path) == ["0"] * 5 + ["False", "False"]
    assert (tmp_path / "pipeline_out/invert/inversion.json").exists()


def _solves(before: str = "", between: str = "") -> list[str]:
    """Two hashes of the bytes of every LAPACK route of the package on the
    trefoil at n = 64 (the eigensolve, the saddle solve with its derivative,
    the batched and the direct forward solves), computed on fresh operators
    before and after ``between``, in a fresh interpreter that first runs
    ``before``."""
    return fresh(
        f"{before}\n"
        "import hashlib\n"
        "import numpy as np\n"
        "from mfeit.forward import (solve_forward_batched,\n"
        "                           solve_forward_direct, solve_u0)\n"
        "from mfeit.geometry import StarShape, discretize, unit_circle_grid\n"
        "from mfeit.potential import assemble\n"
        "shape = StarShape(cos=(0.5, 0.0, 0.0, 0.08))\n"
        "f = np.cos(unit_circle_grid(64).t)\n"
        "def solves():\n"
        "    k = assemble(discretize(shape, 64))\n"
        "    mu, V = k.eig\n"
        "    sim = solve_u0(shape, f, grid=k.grid, S=k.S,\n"
        "                   velocity=np.ones((64, 2)))\n"
        "    U = solve_forward_batched(k, f, [2.0, 0.5 + 1j])\n"
        "    ud = solve_forward_direct(shape, f, 0.5 + 1j, kernels=k)\n"
        "    h = hashlib.sha256()\n"
        "    for a in (mu, V, sim.u0, sim.du0, U, ud):\n"
        "        h.update(a.tobytes())\n"
        "    return h.hexdigest()\n"
        "first = solves()\n"
        f"{between}\n"
        "print(first, solves())")


def test_a_scipy_linalg_loaded_before_or_after_mfeit_moves_no_bit():
    alone = _solves()
    assert alone[0] == alone[1]
    # imported first, its _flapack is the one mfeit calls
    first = _solves(before="import scipy.linalg",
                    between="from mfeit import potential\n"
                            "import scipy.linalg.lapack as lp\n"
                            "assert potential.lapack() is lp._flapack")
    # imported after the first solve, as a constrained step imports nnls
    after = _solves(between="from scipy.optimize import nnls\n"
                            "assert 'scipy.linalg._basic' in sys.modules")
    assert first == alone and after == alone
