import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mfeit.lsq import MAX_STEPS, RTOL, levenberg_marquardt


def test_rejected_trials_reach_the_stop_test():
    """Predicted decrease <= 2 n f / lambda: when every trial is rejected,
    the tenfold damping reaches the stop within 12 trials for n <= 33."""
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 34))
        # columns scaled over twelve decades, some of them zero but not all
        A = (rng.standard_normal((n + int(rng.integers(0, 40)), n))
             * 10.0 ** rng.uniform(-6, 6, n) * (rng.random(n) > 0.1))
        A[:, 0] += 1.0
        b = rng.standard_normal(A.shape[0])
        z0 = rng.standard_normal(n)
        r0 = A @ z0 - b
        f0 = 0.5 * float(r0 @ r0)
        trials = []

        def value(z):
            if z is z0:
                return f0, r0
            trials.append(z)
            return np.inf, None

        z, state, history, active, stopped = levenberg_marquardt(
            z0, value(z0), value, lambda z, r: (A.T @ A, A.T @ r),
            np.zeros((0, n)), np.zeros(0))
        assert stopped and z is z0 and state is r0
        assert history == [f0] and not active
        assert len(trials) <= 12


def test_linear_problem_reaches_the_least_squares_solution():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((20, 5))
    b = rng.standard_normal(20)

    def value(z):
        r = A @ z - b
        return 0.5 * float(r @ r), r

    z0 = np.zeros(5)
    z, r, history, active, stopped = levenberg_marquardt(
        z0, value(z0), value, lambda z, r: (A.T @ A, A.T @ r),
        np.zeros((0, 5)), np.zeros(0))
    z_ls = np.linalg.lstsq(A, b, rcond=None)[0]
    assert stopped and len(history) - 1 < MAX_STEPS and not active
    assert np.all(np.diff(history) < 0)
    # the stop leaves at most RTOL f of predicted decrease
    assert history[-1] - 0.5 * float((A @ z_ls - b) @ (A @ z_ls - b)) \
        <= 2 * RTOL * history[-1]
    assert np.array_equal(r, A @ z - b)


def test_a_row_active_at_the_stop_is_reported():
    # minimise 1/2 (z - 2)^2 over z <= 1: the solution is on the bound
    def value(z):
        r = z - 2.0
        return 0.5 * float(r @ r), r

    z0 = np.zeros(1)
    z, _, _, active, stopped = levenberg_marquardt(
        z0, value(z0), value, lambda z, r: (np.eye(1), r), np.eye(1),
        np.ones(1))
    assert stopped and active and z[0] == 1.0


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    """NNLS is imported only when a step meets a row: a module-level import
    of scipy.optimize costs every CLI start about 0.25 s and 20 MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, mfeit.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_a_non_finite_gauss_newton_pair_ends_the_loop():
    """A nan G or an infinite g makes the predicted decrease nan, which
    ends the loop at its last accepted point, not converged. Each case runs
    in a fresh interpreter that is killed after a minute, so a loop that
    keeps raising lambda fails the test instead of hanging it."""
    code = ("import json\n"
            "import numpy as np\n"
            "from mfeit.lsq import levenberg_marquardt\n"
            "z0, f0 = np.zeros(2), 1.0\n"
            "for G, g in [(np.full((2, 2), np.nan), np.ones(2)),\n"
            "             (np.eye(2), np.array([np.inf, 1.0]))]:\n"
            "    z, state, history, active, converged = levenberg_marquardt(\n"
            "        z0, (f0, 'start'),\n"
            "        lambda z: (f0 + 0.5 * float(z @ z), 'trial'),\n"
            "        lambda z, state: (G, g), np.zeros((0, 2)), np.zeros(0))\n"
            "    print(json.dumps([z is z0, state, history, active,\n"
            "                      converged]))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    nan_G, inf_g = map(json.loads, out.stdout.splitlines())
    assert nan_G == inf_g == [True, "start", [1.0], False, False]
