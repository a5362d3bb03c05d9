import numpy as np
import pytest

#: one line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from mfeit.forward import current_from_fourier
from mfeit.geometry import StarShape, circle, discretize, unit_circle_grid
from mfeit.potential import assemble
from mfeit.reconstruct import _Objective, _shape_to_params
from mfeit.spectrum import compute_spectrum

R0 = 0.5
TREFOIL = StarShape(cos=(0.5, 0.0, 0.0, 0.08))


@pytest.fixture(scope="session")
def conc_kernels():
    return assemble(discretize(circle(R0), 256))


@pytest.fixture(scope="session")
def tre_kernels():
    return assemble(discretize(TREFOIL, 256))


@pytest.fixture(scope="session")
def conc_spectrum(conc_kernels):
    return compute_spectrum(conc_kernels, 24, n_boundary=64)


@pytest.fixture(scope="session")
def tre_spectrum(tre_kernels):
    return compute_spectrum(tre_kernels, 20, n_boundary=64, tail=1e-15)


@pytest.fixture(scope="session")
def bgrid64():
    return unit_circle_grid(64)


@pytest.fixture(scope="session")
def f_cos(bgrid64):
    return current_from_fourier([1.0], [], bgrid64)


def objective_value(obj: _Objective, x) -> float:
    """Gauss-Newton objective J = 1/2 |r(x)|^2 (data misfit plus penalty)."""
    return obj.value(x)[0]


def misfit(shape, data, settings) -> tuple:
    """J at ``shape`` and its gradient J^T r from the analytic Jacobian."""
    obj = _Objective(data, settings)
    J, _, g, _ = obj.value(_shape_to_params(shape, settings.n_fourier_modes))
    return J, g


def calderon_residual(kernels) -> float:
    """Relative asymmetry of K* in the -S inner product (-> 0 with n)."""
    M = -(kernels.grid.weights[:, None] * kernels.S)
    A = M @ kernels.Kstar
    return float(np.linalg.norm(A - A.T) / np.linalg.norm(M))


def g_two_phase(r0: float) -> float:
    """Perfect-conductor trace amplitude for a concentric disk: u0 = g(r0) cos."""
    return (1 - r0 * r0) / (1 + r0 * r0)
