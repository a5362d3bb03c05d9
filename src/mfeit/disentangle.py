"""Recover the frequency-independent voltage from multifrequency data.

In the shift c = (k0 + k) / (2 (k0 - k)) of the forward equation
(c + K*) phi = g, the spectral decomposition of K* makes each boundary
voltage a real rational function U_i(c) = a_i + sum_n R_in / (c - s_n),
whose poles s_n = -mu_n lie on the segment |c| <= L of the admissible
class. ``fit_rational`` fits that form to all boundary points at once: the
constants and residues by one real least-squares solve, the poles s by
variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973) with
Kaufman's Jacobian (BIT 15, 1975) and the Levenberg-Marquardt iteration of
``lsq``, free on the real line. Poles are added one at a time, each seeded
at the best point of a scan of the segment, until the sup residual meets
the discrepancy TAU * tol * max|U|. A fit that ends with a pole at or
beyond an end of the segment is refused: no admissible shape has one
there, so the data have a pole outside the admissible class. The fit
reads c from ``forward._contrast_c``, as the solvers do: the contrast
k = infinity is c = -1/2, where the voltage is the frequency-free part
u0 / k0, and k = k0 is c = infinity, where it is the constant a_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitDiverged, InsufficientFrequencies
from .forward import (CauchyData, MultiFreqData, _check_contrasts,
                      _contrast_c, _pow2_unit)
from .geometry import DomainConfig, _is_count, check
from .lsq import levenberg_marquardt

#: discrepancy factor: poles are added until sup residual <= TAU tol max|U|
TAU = 1.5
#: most poles a fit may add, and its relative tolerance, unless a caller
#: names them
DEFAULT_MAX_POLES = 6
DEFAULT_FIT_TOL = 1e-9
#: the segment points s = L _SCAN that seed each new pole, denser at its ends
_SCAN = np.tanh(np.linspace(-3.0, 3.0, 41))


@dataclass(frozen=True)
class RationalModel:
    """Real shared-pole model U_i(c) = a_i + sum_n R_in / (c - s_n)."""

    poles: np.ndarray      # (P,) s_n in c, shared across boundary points
    constants: np.ndarray  # (m,) a_i, the voltage at c = infinity (k = k0)
    residues: np.ndarray   # (m, P) R_in
    residual: float        # sup fit residual over all data
    scale: float           # sup magnitude of the fitted data

    def report(self, k0: float) -> dict:
        """The poles in c and in k = k0 (2c - 1) / (2c + 1), and the rest."""
        s = self.poles
        return {"poles_c": s.tolist(),
                "poles_k": (k0 * (2 * s - 1) / (2 * s + 1)).tolist(),
                "constants": self.constants.tolist(),
                "residues": self.residues.tolist(),
                "residual": self.residual, "scale": self.scale}


def fit_rational(data: MultiFreqData, max_poles: int = DEFAULT_MAX_POLES,
                 tol: float = DEFAULT_FIT_TOL, *,
                 config: DomainConfig) -> RationalModel:
    """Shared real-pole rational model of the voltage in the variable c.

    Raises ``ValueError`` for a contrast on the closed negative real axis,
    whose c lies on the pole segment; ``InsufficientFrequencies`` below
    2 max_poles + 2 distinct contrasts; ``FitDiverged`` when no pole count
    up to ``max_poles`` brings the sup residual to TAU * tol * max|U|, or
    when a fitted pole lies at or beyond an end of the segment, |s| >= L,
    where only data with a pole outside the admissible class put one.

    The fit runs on c = ``forward._contrast_c(k, k0)``, as the solvers do,
    and on the data times ``forward._pow2_unit(max|U|)``, so no square, sum
    or quotient overflows for any finite dataset, the largest contrasts and
    any voltage scale included; at k = k0, c is infinite and its row of
    every pole column an exact zero. A power of two moves no bit: the poles
    are those of the unscaled data, and the constants, residues, residual
    and scale are returned in data units.
    """
    check(max_poles, "max_poles", "an integer >= 0", _is_count)
    kvals = np.asarray(data.k, dtype=complex)
    _check_contrasts(kvals)
    if np.unique(kvals).size < 2 * max_poles + 2:
        raise InsufficientFrequencies(
            f"need at least {2 * max_poles + 2} distinct contrasts, "
            f"got {np.unique(kvals).size}")
    U = data.U
    scale = float(np.max(np.abs(U)))
    unit = _pow2_unit(scale)
    # c of the class bound -k0 (1 + ((b0 + 2) / b0)^2) of
    # ``spectrum.resonance_bound``; r_inf of the circle b0 is b0
    L = 0.5 - 1.0 / (2.0 + ((config.b0 + 2.0) / config.b0) ** 2)
    J = kvals.size
    c = _contrast_c(kvals, config.k0)[:, None]
    # complex columns are split into real and imaginary rows
    Y = np.concatenate([U.real.T, U.imag.T]) * unit

    def split(B):
        return np.concatenate([B.real, B.imag])

    def columns(s):
        """1/(c_j - s), one row per contrast, one column per pole."""
        return 1.0 / (c - s)

    def value(s):
        """|R|^2 / 2 and (Q, X = Phi^+ Y, R = P_perp Y) at the poles s."""
        Q, T = np.linalg.qr(split(np.column_stack([np.ones(J), columns(s)])))
        QY = Q.T @ Y
        R = Y - Q @ QY
        return 0.5 * float(np.vdot(R, R)), (Q, np.linalg.solve(T, QY), R)

    def normal(s, state):
        """Kaufman's Gauss-Newton matrix G_kl = (P_perp d_k . P_perp d_l)
        (x_k . x_l) and gradient g_k = -(P_perp d_k)^T R x_k of |R|^2 / 2
        over the poles, with d_k = dPhi/ds_k, x_k the residues of pole k."""
        Q, X, R = state
        D = split(columns(s) ** 2)  # d/ds 1/(c - s) = 1/(c - s)^2
        PD = D - Q @ (Q.T @ D)
        G = (PD.T @ PD) * (X[1:] @ X[1:].T)
        g = -np.sum((D.T @ R) * X[1:], axis=1)
        return G, g

    def sup_residual(R):
        return float(np.sqrt(np.max(R[:J] ** 2 + R[J:] ** 2)))

    s = np.zeros(0)
    _, (Q, X, R) = value(s)
    target = TAU * tol * scale
    while (resid := sup_residual(R) / unit) > target:
        if s.size == max_poles:
            raise FitDiverged(
                f"residual {resid:.3g} above tolerance "
                f"{target:.3g} with {s.size} poles")
        # seed at the scan point whose column most reduces |P_perp Y|^2;
        # one already in the basis's span to rounding adds nothing
        D = split(columns(L * _SCAN))
        norm2 = np.sum((D - Q @ (Q.T @ D)) ** 2, axis=0)
        gain = np.sum((D.T @ R) ** 2, axis=1)
        score = np.divide(gain, norm2, out=np.zeros_like(gain),
                          where=norm2 > 1e-16 * np.sum(D * D, axis=0))
        # no rows: a pole the data put outside the segment is not held
        # back, it is the reason to refuse the data
        s = np.append(s, L * _SCAN[np.argmax(score)])
        s, (Q, X, R), *_ = levenberg_marquardt(
            s, value(s), value, normal, np.zeros((0, s.size)), np.zeros(0))
    if np.any(outside := np.abs(s) >= L):
        raise FitDiverged(
            f"pole c = {s[outside][0]:.6g} outside the segment |c| < "
            f"{L:.6g}: the data have a pole outside the admissible class")

    return RationalModel(poles=s, constants=X[0] / unit,
                         residues=X[1:].T.copy() / unit, residual=resid,
                         scale=scale)


def extract_u0(model: RationalModel, k0: float) -> CauchyData:
    """Frequency-free voltage u0 = k0 U(c = -1/2), the limit k -> infinity,
    recentered.

    The constant value rho on the inclusion is not observable here; the
    voltages sit on the equispaced angles 2 pi i / m.
    """
    u0 = k0 * (model.constants + model.residues @ (-1.0 / (0.5 + model.poles)))
    return CauchyData(f=None, u0=u0 - np.mean(u0))
