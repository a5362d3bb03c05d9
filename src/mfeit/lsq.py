"""The Levenberg-Marquardt loop of the pole fit and of the inversion.

Both least-squares steps of the pipeline, the real-pole fit in c
(``disentangle.fit_rational``, on Kaufman's reduced variable-projection
matrix) and the shape fit to the perfect-conductor data
(``reconstruct.invert``, on J^T J), damp and stop their steps here
(Marquardt, J. SIAM 11, 1963). The stop is always reached: for a sum of
squares g_k^2 <= 2 f G_kk, so a step's predicted decrease is at most
2 n f / lambda, and a run of rejected trials meets the stop once lambda is
about 2 n / RTOL.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

#: the loop stops when a step's predicted decrease is at most RTOL f, or
#: after MAX_STEPS accepted steps
RTOL = 1e-6
MAX_STEPS = 60


def levenberg_marquardt(z: np.ndarray, value: Callable, normal: Callable,
                        project: Callable) -> tuple:
    """Minimise f from z by damped Gauss-Newton steps.

    ``value(z) -> (f, state)``; ``normal(z, state) -> (G, g)``, the
    Gauss-Newton matrix and gradient at an accepted point; ``project(z)``
    maps each trial into the feasible set. The damping lambda = 1e-3 scales
    the diagonal of G, floored at 1e-12 of its largest entry; a trial is
    accepted when it lowers f, and lambda then falls tenfold (to 1e-12 at
    least), else it rises tenfold. Returns z, its state, the accepted
    values of f from the start's on, whether an accepted trial was moved by
    ``project``, and whether the stop test was met before ``MAX_STEPS``.
    """
    f, state = value(z)
    history = [f]
    projected = False
    lam = 1e-3
    for _ in range(MAX_STEPS):
        G, g = normal(z, state)
        diag = np.diag(np.maximum(np.diag(G), 1e-12 * np.max(np.diag(G))))
        while True:
            step = np.linalg.solve(G + lam * diag, -g)
            if -(g @ step) - 0.5 * (step @ G @ step) <= RTOL * f:
                return z, state, history, projected, True
            trial = z + step
            z_try = project(trial)
            f_try, state_try = value(z_try)
            if f_try < f:
                break
            lam *= 10.0
        projected = projected or not np.array_equal(z_try, trial)
        z, f, state, lam = z_try, f_try, state_try, max(lam / 10.0, 1e-12)
        history.append(f)
    return z, state, history, projected, False
