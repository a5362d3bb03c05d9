"""The Levenberg-Marquardt loop of the pole fit and of the inversion.

Both least-squares steps of the pipeline, the real-pole fit in c
(``disentangle.fit_rational``, on Kaufman's reduced variable-projection
matrix) and the shape fit to the perfect-conductor data
(``reconstruct.invert``, on J^T J), damp and stop their steps here
(Marquardt, J. SIAM 11, 1963). Each damped step is solved exactly under
linear inequalities E z <= h, so every iterate stays feasible: when the
unconstrained step breaks a row, the step is the least-distance solution
over the broken rows, found by NNLS (Lawson & Hanson, Solving Least
Squares Problems, 1974, ch. 23). This is the constrained
Levenberg-Marquardt method of Kanzow, Yamashita & Fukushima (J. Comput.
Appl. Math. 172, 2004); its stop is a first-order (KKT) point under the
rows. The loop owns its termination: it ends at the first step whose
predicted decrease is not above RTOL f. While f, G and g are finite that
is the stop test, which a run of rejected trials always meets: for a sum
of squares g_k^2 <= 2 f G_kk, so a step's predicted decrease is at most
2 n f / lambda, below RTOL f once lambda is about 2 n / RTOL. A nan
decrease, from a G or g that is not finite, ends the loop at its last
accepted point, not converged. The caller evaluates the start, the loop
only its trials; whatever ``value`` leaves in an accepted point's state
(the inversion's solve of that shape) is what ``normal`` builds the next
step from.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SingularSystem, TargetTooClose

#: the loop stops when a step's predicted decrease is at most RTOL f, or
#: after MAX_STEPS accepted steps
RTOL = 1e-6
MAX_STEPS = 60


def _step(A: np.ndarray, g: np.ndarray, E: np.ndarray,
          slack: np.ndarray) -> np.ndarray:
    """argmin g.s + 1/2 s^T A s subject to E s <= slack, A positive definite.

    The unconstrained step s_u, when it keeps every row. Otherwise, with
    A = C C^T and s = s_u + C^-T y, the least-distance problem
    min |y| subject to (C^-1 E_W^T)^T y <= slack_W - E_W s_u over working
    rows W. Each round W gains the broken rows that break at least as much
    as the rows next to them in E, so a stretch of rows that sample one
    bound along the angle (``geometry.class_rows``) enters by its worst
    rows. When no row is broken, the solution is optimal under all of them.
    """
    s_u = s = np.linalg.solve(A, -g)
    rows = np.zeros(slack.size, dtype=bool)
    while np.max(v := np.where(rows, 0.0, E @ s - slack), initial=0.0) > 0:
        if not rows.any():  # the first round; A is factored once per step
            # deferred: importing scipy.optimize costs about 0.25 s and 20 MB
            from scipy.optimize import nnls
            C = np.linalg.cholesky(A)
        rows |= (v > 0) & (v >= np.roll(v, 1)) & (v >= np.roll(v, -1))
        E_W = E[rows]
        M = -np.vstack([np.linalg.solve(C, E_W.T), slack[rows] - E_W @ s_u])
        u, _ = nnls(M, np.eye(M.shape[0])[-1], maxiter=10 * M.shape[1])
        r = M @ u
        s = s_u + np.linalg.solve(C.T, -r[:-1] / (r[-1] - 1.0))
    return s


def levenberg_marquardt(z: np.ndarray, start: tuple, value: Callable,
                        normal: Callable, E: np.ndarray,
                        h: np.ndarray) -> tuple:
    """Minimise f from z by damped Gauss-Newton steps under E z <= h.

    ``start = value(z)``, evaluated by the caller: ``value(z) -> (f, state)``
    is called at trial points only. ``normal(z, state) -> (G, g)``, the
    Gauss-Newton matrix and gradient at an accepted point; E, of shape
    (rows, z.size), may have no rows. The damping lambda = 1e-3 scales the
    diagonal of G, floored at 1e-12 of its largest entry; each step solves
    its damped model exactly under the rows, with the slack h - E z of the
    current point, negative slack read as zero. A trial is accepted when it
    lowers f, and lambda then falls tenfold (to 1e-12 at least), else it
    rises tenfold, as it does after a trial whose ``value`` raises
    ``TargetTooClose`` or ``SingularSystem`` (in ``normal`` these still
    raise). Returns z, its state, the accepted values of f from the start's
    on, whether a row is active at the stop (slack <= 1e-12 of max(|h|, 1)),
    and whether the stop test was met before ``MAX_STEPS``: false too when
    a predicted decrease that is nan ended the loop.
    """
    f, state = start
    history = [f]
    lam = 1e-3

    def active():
        return bool(np.any(h - E @ z <= 1e-12 * np.maximum(np.abs(h), 1.0)))

    for _ in range(MAX_STEPS):
        G, g = normal(z, state)
        diag = np.diag(np.maximum(np.diag(G), 1e-12 * np.max(np.diag(G))))
        slack = np.maximum(h - E @ z, 0.0)
        while True:
            step = _step(G + lam * diag, g, E, slack)
            # the predicted decrease; a nan one ends the loop too
            if not (pred := -(g @ step) - 0.5 * (step @ G @ step)) > RTOL * f:
                return z, state, history, active(), bool(pred <= RTOL * f)
            z_try = z + step
            try:
                f_try, state_try = value(z_try)
            except (TargetTooClose, SingularSystem):
                f_try = np.inf  # a trial that cannot be evaluated
            if f_try < f:
                break
            lam *= 10.0
        z, f, state, lam = z_try, f_try, state_try, max(lam / 10.0, 1e-12)
        history.append(f)
    return z, state, history, active(), False
