"""Working-set budgets of the dense stages at n = 256 and n = 512.

Each test bounds the peak of the memory that ``tracemalloc`` traces during
one call, in units of one n x n matrix of doubles, above what was allocated
before the call. The budgets sit between what the in-place kernels reach
and what one temporary per operation costs:

    stage       in place (256 / 512)   one temporary (256 / 512)
    assembly    5.3 / 5.1              6.3 / 6.1
    eigensolve  4.0 / 4.0              6.0 / 6.0
    direct      2.1 / 2.0              4.1 / 4.0 (2.5 at 512 without del A)
    spectrum    1.3 / 0.8              1.6 / 1.7

The direct solve's 2.0 is its one complex copy of K*, shifted on the
diagonal and factored by LAPACK, both in place.

The trace matrix is bounded at n = 256 with m = 64 targets, in m x n
matrices: 3.0 in place, 4.0 with the kernel's product, log and weights each
in a new matrix. About one of its three is the fixed buffer (some 128 kB)
that numpy's ufunc machinery takes to broadcast an m x 1 against a 1 x n
operand.

Arrays that numpy and scipy create are traced, the LAPACK arguments and
work arrays of scipy's wrappers included; the buffers that numpy's own
``np.linalg`` routines ``malloc`` for LAPACK are not, so these budgets
cannot see a stage that hands its matrix to ``np.linalg.solve``, which
copies it into such a buffer. No stage here does.
"""
import tracemalloc

import pytest

from mfeit.forward import solve_forward_direct
from mfeit.geometry import discretize, unit_circle_grid
from mfeit.potential import KernelMatrices, assemble, trace_matrix
from mfeit.spectrum import compute_spectrum

from conftest import TREFOIL

SIZES = (256, 512)


def _traced_peak(call, n, m=None) -> float:
    """Peak traced allocation of ``call()``, in m x n matrices of doubles
    (n x n without ``m``)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / ((n if m is None else m) * n * 8)


@pytest.fixture(scope="module")
def kernels():
    """Operators of each size, with the eigensolve done before any budget."""
    by_size = {n: assemble(discretize(TREFOIL, n)) for n in SIZES}
    for k in by_size.values():
        k.eig
    return by_size


def test_assembly_budget():
    for n, budget in zip(SIZES, (5.6, 5.6)):
        grid = discretize(TREFOIL, n)
        assert _traced_peak(lambda: assemble(grid), n) <= budget, n


def test_eigensolve_budget(kernels):
    for n, budget in zip(SIZES, (4.5, 4.5)):
        k = kernels[n]
        fresh = KernelMatrices(S=k.S, Kstar=k.Kstar, grid=k.grid)
        fresh.B  # the Gram matrix stays cached: only the eigensolve is counted
        assert _traced_peak(lambda: fresh.eig, n) <= budget, n


def test_direct_solve_budget(kernels, f_cos):
    for n, budget in zip(SIZES, (2.6, 2.3)):
        assert _traced_peak(lambda: solve_forward_direct(
            TREFOIL, f_cos, 1 + 1j, kernels=kernels[n]), n) <= budget, n


def test_spectrum_budget(kernels):
    for n, budget in zip(SIZES, (1.4, 1.2)):
        assert _traced_peak(lambda: compute_spectrum(
            kernels[n], n // 4, n_boundary=64, tail=1e-15), n) <= budget, n


def test_trace_matrix_budget():
    grid, targets = discretize(TREFOIL, 256), unit_circle_grid(64).points
    assert _traced_peak(lambda: trace_matrix(grid, targets), 256, 64) <= 3.5
