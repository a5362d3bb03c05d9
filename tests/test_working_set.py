"""Working-set budgets of the dense stages at n = 256.

Each test bounds the peak of the memory that ``tracemalloc`` traces during
one call, in units of one n x n matrix of doubles (512 KiB here), above
what was allocated before the call. The budgets sit a margin above what the
in-place kernels reach (assembly 5.3, eigensolve 4.0, direct solve 2.1,
spectrum 1.3) and below what one temporary per operation costs (6.3, 6.0,
4.1, 1.6). Arrays that numpy and scipy create are traced, the LAPACK
arguments and work arrays of scipy's wrappers included; the buffers that
numpy's own ``np.linalg`` routines ``malloc`` for LAPACK are not, so the
copy that ``np.linalg.solve`` makes of its matrix is outside the budget.
"""
import tracemalloc

import pytest

from mfeit.forward import solve_forward_direct
from mfeit.geometry import discretize
from mfeit.potential import KernelMatrices, assemble
from mfeit.spectrum import compute_spectrum

from conftest import TREFOIL

N = 256


def _traced_peak(call) -> float:
    """Peak traced allocation of ``call()``, in n x n matrices of doubles."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (N * N * 8)


@pytest.fixture(scope="module")
def kernels():
    kernels = assemble(discretize(TREFOIL, N))
    kernels.eig  # computed once, before any budget is taken
    return kernels


def test_assembly_budget():
    grid = discretize(TREFOIL, N)
    assert _traced_peak(lambda: assemble(grid)) <= 5.6


def test_eigensolve_budget(kernels):
    fresh = KernelMatrices(S=kernels.S, Kstar=kernels.Kstar, grid=kernels.grid)
    fresh.B  # the Gram matrix stays cached: only the eigensolve is counted
    assert _traced_peak(lambda: fresh.eig) <= 4.5


def test_direct_solve_budget(kernels, f_cos):
    assert _traced_peak(lambda: solve_forward_direct(
        TREFOIL, f_cos, 1 + 1j, kernels=kernels)) <= 2.6


def test_spectrum_budget(kernels):
    assert _traced_peak(lambda: compute_spectrum(
        kernels, N // 4, n_boundary=64, tail=1e-15)) <= 1.4
