"""Star-shaped inclusions in the unit disk and boundary quadrature grids.

The ambient domain is always the unit disk, so the admissible radial band
(b0, 1 - delta) pins every inclusion strictly inside it. ``class_violation``
is the one check of the admissible class: the band and the C^2 bound m,
sampled on one grid of ``N_CHECK`` angles; ``class_rows`` writes the same
sampled class as linear rows in the Fourier coefficients, the constraints
the inversion keeps its iterates in. Radial functions are truncated
Fourier series

    r(theta) = a0 + sum_m a_m cos(m theta) + b_m sin(m theta),

which keeps shapes finitely parameterized and smooth.

The measurement grid ``unit_circle_grid(n)`` depends on n alone, so it is
built once per size and shared by every caller; its arrays are read-only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .errors import ConstraintViolation, InvalidResolution

#: number of sample angles used for constraint checks
N_CHECK = 1024
#: number of sample angles over which ``r_inf`` takes its minimum
_N_R_INF = 100_000


@dataclass(frozen=True)
class DomainConfig:
    """Admissibility constants of the inclusion class plus background conductivity."""

    b0: float = 0.2
    delta: float = 0.1
    m: float = 50.0
    k0: float = 1.0

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("background conductivity k0 must be positive")
        if not (0 < self.b0 < 1 - self.delta):
            raise ValueError("need 0 < b0 < 1 - delta")

    @classmethod
    def from_dict(cls, d: dict) -> "DomainConfig":
        """Keys are the field names; an unknown key raises ``TypeError``."""
        return cls(**d)


def fourier_series(cos, sin, theta):
    """Truncated Fourier series and its first two derivatives.

    Returns (r, r', r'') for r(theta) = cos[0] + sum_m cos[m] cos(m theta)
    + sin[m-1] sin(m theta); each nonzero mode costs one cos and one sin.
    """
    theta = np.asarray(theta, dtype=float)
    r = np.full_like(theta, cos[0])
    r1 = np.zeros_like(theta)
    r2 = np.zeros_like(theta)
    for m, (a, b) in enumerate(zip_longest(cos[1:], sin, fillvalue=0.0), 1):
        if a or b:
            c, s = np.cos(m * theta), np.sin(m * theta)
            r += a * c + b * s
            r1 += b * m * c - a * m * s
            r2 -= a * m * m * c + b * m * m * s
    return r, r1, r2


@dataclass(frozen=True)
class StarShape:
    """Radial Fourier description of a closed curve around the origin.

    ``cos[0]`` is the mean radius a0; ``sin`` starts at mode 1.
    Instances built through :func:`build_star_shape` satisfy the class
    constraints; direct construction performs no validation (used for
    trial shapes inside iterative inversion).
    """

    cos: tuple = field(default_factory=tuple)
    sin: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "cos", tuple(float(c) for c in self.cos))
        object.__setattr__(self, "sin", tuple(float(s) for s in self.sin))
        if not self.cos:
            raise ValueError("cos needs at least the constant coefficient a0")

    def radius(self, theta):
        return fourier_series(self.cos, self.sin, theta)[0]

    def to_json(self) -> str:
        return json.dumps({"cos": list(self.cos), "sin": list(self.sin)},
                          sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "StarShape":
        d = json.loads(s)
        return cls(cos=tuple(d["cos"]), sin=tuple(d.get("sin", ())))


def circle(radius: float) -> StarShape:
    return StarShape(cos=(float(radius),))


def class_violation(shape: StarShape,
                    config: DomainConfig) -> ConstraintViolation | None:
    """First bound of the admissible class that ``shape`` breaks, or None.

    Samples the radius and its derivatives at ``N_CHECK`` angles and checks,
    in order, r > b0, r < 1 - delta and the discrete C^2 norm proxy
    |r| + |r'| + |r''| <= m; a violation names the bound and the worst
    offending angle. A sample that is not finite breaks a bound too: NaN,
    which compares false with every bound, the C^2 one.
    """
    theta = np.linspace(0.0, 2 * np.pi, N_CHECK, endpoint=False)
    r, r1, r2 = fourier_series(shape.cos, shape.sin, theta)
    i = int(np.argmin(r))
    if r[i] <= config.b0:
        return ConstraintViolation("lower bound b0", theta[i], r[i], config.b0)
    j = int(np.argmax(r))
    upper = 1 - config.delta
    if r[j] >= upper:
        return ConstraintViolation("upper bound 1 - delta", theta[j], r[j],
                                   upper)
    c2 = np.abs(r) + np.abs(r1) + np.abs(r2)
    k = int(np.argmax(c2))  # the first NaN, if there is one
    if not c2[k] <= config.m:
        return ConstraintViolation("C2 norm bound m", theta[k], c2[k], config.m)
    return None


@lru_cache(maxsize=16)
def class_rows(M: int, config: DomainConfig,
               margin: float) -> tuple[np.ndarray, np.ndarray]:
    """The sampled class of ``class_violation`` as rows E x <= h.

    x = (a0, a1..aM, b1..bM). At each of the ``N_CHECK`` angles: the band
    b0 + margin <= r <= 1 - delta - margin, and +r +- r' +- r'' <= m - margin,
    which with r > 0 is the C^2 bound |r| + |r'| + |r''| <= m - margin.
    Built once per arguments; the arrays are shared, so they are read-only.
    """
    theta = np.linspace(0.0, 2 * np.pi, N_CHECK, endpoint=False)
    # r, r', r'' at each angle of each coefficient alone: (3, N_CHECK, 2M + 1)
    r, r1, r2 = np.stack([fourier_series(e[:M + 1], e[M + 1:], theta)
                          for e in np.eye(2 * M + 1)], -1)
    E = np.concatenate([-r, r] + [r + a * r1 + b * r2 for a in (1, -1)
                                  for b in (1, -1)])
    h = np.repeat([-(config.b0 + margin), 1 - config.delta - margin]
                  + [config.m - margin] * 4, N_CHECK)
    E.setflags(write=False)
    h.setflags(write=False)
    return E, h


def build_star_shape(cos_coeffs, sin_coeffs, config: DomainConfig) -> StarShape:
    """The shape, if it is in the admissible class of ``config``.

    Raises the :class:`ConstraintViolation` of :func:`class_violation`.
    """
    shape = StarShape(cos=tuple(cos_coeffs), sin=tuple(sin_coeffs))
    violation = class_violation(shape, config)
    if violation is not None:
        raise violation
    return shape


@dataclass(frozen=True)
class BoundaryGrid:
    """Trapezoidal quadrature grid on a closed parametrized curve.

    Nodes are equispaced in the parameter; normals and Jacobians come from
    the analytic Fourier derivatives, never finite differences.
    """

    t: np.ndarray          # (n,) parameters in [0, 2pi)
    points: np.ndarray     # (n, 2)
    normals: np.ndarray    # (n, 2) outward unit normals
    jacobian: np.ndarray   # (n,) |x'(t)|
    curvature: np.ndarray  # (n,) signed curvature (positive for ccw convex)

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def h(self) -> float:
        return 2 * np.pi / self.n

    @property
    def weights(self) -> np.ndarray:
        """Arc-length quadrature weights h * |x'(t_i)|."""
        return self.h * self.jacobian

    @property
    def perimeter(self) -> float:
        return float(np.sum(self.weights))


def discretize(shape: StarShape, n: int) -> BoundaryGrid:
    """Quadrature grid with n nodes on the boundary of a star shape.

    The cached ``unit_circle_grid`` builds its grid with ``_star_grid``
    directly, so the calls of this function count the grids a computation
    builds, whatever the cache already holds.
    """
    return _star_grid(shape, n)


def _star_grid(shape: StarShape, n: int) -> BoundaryGrid:
    """Body of ``discretize``."""
    if n % 2 != 0 or n < 16:
        raise InvalidResolution(f"need even n >= 16, got {n}")
    t = 2 * np.pi * np.arange(n) / n
    r, r1, r2 = fourier_series(shape.cos, shape.sin, t)
    ct, st = np.cos(t), np.sin(t)
    pts = np.stack([r * ct, r * st], axis=-1)
    # x'(t) = r'(cos,sin) + r(-sin,cos)
    xp = np.stack([r1 * ct - r * st, r1 * st + r * ct], axis=-1)
    jac = np.hypot(xp[:, 0], xp[:, 1])
    # outward normal for counterclockwise parametrization
    nrm = np.stack([xp[:, 1], -xp[:, 0]], axis=-1) / jac[:, None]
    # signed curvature of a polar curve r(t)
    kappa = (r * r + 2 * r1 * r1 - r * r2) / jac**3
    return BoundaryGrid(t=t, points=pts, normals=nrm, jacobian=jac,
                        curvature=kappa)


@lru_cache(maxsize=16)
def unit_circle_grid(n: int) -> BoundaryGrid:
    """Measurement grid on the boundary of the ambient unit disk.

    Built once per n; the returned grid is shared, so its arrays are
    read-only.
    """
    grid = _star_grid(circle(1.0), n)
    for a in (grid.t, grid.points, grid.normals, grid.jacobian,
              grid.curvature):
        a.setflags(write=False)
    return grid


def r_inf(shape: StarShape) -> float:
    """inf over the boundary of x . nu(x); strictly positive for star shapes.

    Equals r^2 / sqrt(r^2 + r'^2) pointwise for a radial parametrization.
    """
    theta = np.linspace(0.0, 2 * np.pi, _N_R_INF, endpoint=False)
    r, r1, _ = fourier_series(shape.cos, shape.sin, theta)
    return float(np.min(r * r / np.sqrt(r * r + r1 * r1)))
