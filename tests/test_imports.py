"""``scipy.linalg`` is registered when mfeit is imported and runs on first use.

Each check runs in a fresh interpreter, since this one loaded scipy.linalg
long ago. Whether the module has run shows in ``scipy.linalg._flapack``,
a submodule that its import loads.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mfeit import assemble, circle, discretize
from mfeit.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
RAN = "'scipy.linalg._flapack' in sys.modules"


def fresh(code: str, *args) -> list[str]:
    """Words that ``code``, given ``args`` as ``sys.argv[1:]``, prints in a
    fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", "import sys\n" + code, *map(str, args)],
        env=env, check=True, capture_output=True, text=True).stdout.split()


def test_importing_the_cli_registers_scipy_linalg_without_running_it():
    # perfbench's instrument looks the module up before any op runs
    assert fresh(f"import mfeit\n"
                 f"registered = 'scipy.linalg' in sys.modules\n"
                 f"import mfeit.cli\n"
                 f"print(registered, {RAN})") == ["True", "False"]


def test_extract_and_refused_configs_leave_scipy_linalg_unexecuted(tmp_path):
    synth = {"shape": {"cos": [0.5]}, "current": {"cos": [1.0]},
             "n_boundary": 128,
             "profile": {"model": "affine", "k_r": -0.5, "c": 0.05},
             "omega": {"start": 10.0, "stop": 50.0, "count": 40}}
    forward = {"shape": {"cos": [0.5]}, "current": {"cos": [1.0]},
               "contrasts": [[2.0, 0.0]]}
    runs = [  # (command, config): exits 0, 4, 2 and 2
        ("extract", {"max_poles": 4, "fit_tol": 1e-10,
                     "inputs": {"dataset": str(tmp_path / "s/dataset.csv")}}),
        ("extract", {"inputs": {"dataset": str(tmp_path / "no.csv")}}),
        ("synth", dict(synth, seed=True)),
        ("forward", dict(forward, domain={"delta": 0.005},
                         shape={"cos": [0.99]})),
    ]
    args = []
    for i, (command, cfg) in enumerate(runs):
        (tmp_path / f"{i}.json").write_text(json.dumps(cfg))
        args += [command, tmp_path / f"{i}.json", tmp_path / f"out{i}"]
    (tmp_path / "synth.json").write_text(json.dumps(synth))
    assert main(["synth", "--config", str(tmp_path / "synth.json"),
                 "--out", str(tmp_path / "s")]) == 0
    assert fresh(f"from mfeit.cli import main\n"
                 f"a = iter(sys.argv[1:])\n"
                 f"print(*(main([c, '--config', p, '--out', o])"
                 f" for c, p, o in zip(a, a, a)), {RAN})",
                 *args) == ["0", "4", "2", "2", "False"]
    assert (tmp_path / "out0/u0.csv").exists()


def test_the_first_eigensolve_runs_the_one_shared_scipy_linalg():
    words = fresh(f"from mfeit import assemble, circle, discretize\n"
                  f"from mfeit import forward, potential\n"
                  f"before = {RAN}\n"
                  f"lam = assemble(discretize(circle(0.5), 64)).eig[0]\n"
                  f"print(before, {RAN},\n"
                  f"      potential.sla is sys.modules['scipy.linalg'],\n"
                  f"      forward.sla is potential.sla, *lam.tolist())")
    assert words[:4] == ["False", "True", "True", "True"]
    lam = assemble(discretize(circle(0.5), 64)).eig[0]
    assert np.allclose(np.array(words[4:], dtype=float), lam,
                       rtol=0, atol=1e-14)


def test_a_scipy_linalg_loaded_first_is_the_one_mfeit_uses():
    assert fresh("import types, scipy.linalg as sla\n"
                 "from mfeit import forward, potential\n"
                 "print(potential.sla is sla, forward.sla is sla,\n"
                 "      type(sla) is types.ModuleType)") == ["True"] * 3
