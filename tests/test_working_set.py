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
    class rows  2.4 / 2.3              5.9 / 5.7 (np.unique)
    inversion   5.0 (128 nodes)        7.8 (the accepted point's solve held)

The eigensolve's count includes the Gram matrix B it builds, in whose
buffer LAPACK writes the Cholesky factor; sym(B K*) and syevd's 2 n^2
workspace are the rest. The direct solve's 2.0 is its one complex copy of
K*, shifted on the diagonal and factored by LAPACK, both in place.

One step of the benchmark's spectrum ladder (assembly, spectrum, the
perfect-conductor solve, then four contrasts each solved directly and
spectrally, every result held as the benchmark holds it) peaks at
6.1 / 6.0; a Gram matrix kept on the operators, with a copy of it for
LAPACK to factor, would make that 7.1 / 7.0, and a perfect-conductor
result that held its saddle LU and trace matrix 6.4 / 6.2.

A perfect-conductor solve frees its saddle LU, its trace matrix and its
density on return: with its result held, 0.004 / 0.001 stays allocated,
0.021 / 0.005 with the 17 radial velocities of M = 8 and their
derivative. A result that kept them for a later derivative held
1.27 / 1.13.

The class rows are counted at M = 8 / 16, in units of the matrix E of the
rows E x <= h that ``class_rows`` returns. It writes the rows and h into
one buffer and drops repeats by a stable sort, whose sorted copy is its
second buffer; each block, the stacked [E, h] and ``np.unique``'s sorted
copy in an array of its own make 5.9 / 5.7.

One inversion is counted in 128 x 128 matrices: ``invert`` of the
trefoil's exact u0 at M = 8, alpha = 1e-7 and 128 nodes, after one
untraced run of the same call, which caches its class rows. Each point the
loop evaluates keeps u0, its derivative and rho, and its solve frees the
single layer, the saddle LU and the trace matrix on return. The point's
128 x 17 velocities are built before that solve and live through it,
which is 0.14 more than building them after it; a loop that held the
accepted point's solve while a trial solves would hold two at once, 7.8.

The trace matrix of ``eval_S`` is bounded at n = 256 with m = 64 targets
and one density column, in m x n matrices: 3.0 in place, 4.0 with the
kernel's product, log and weights each in a new matrix. About one of its
three is the fixed buffer (some 128 kB) that numpy's ufunc machinery takes
to broadcast an m x 1 against a 1 x n operand.

Arrays that numpy and scipy create are traced, the LAPACK arguments and
work arrays of scipy's wrappers included; the buffers that numpy's own
``np.linalg`` routines ``malloc`` for LAPACK are not, so these budgets
cannot see a stage that hands its matrix to ``np.linalg.solve``, which
copies it into such a buffer. No stage here does. ``scipy.linalg`` runs on
first use, and its import would count in the first traced stage that
reaches it, so one untraced assembly runs it before any budget.
"""
import tracemalloc

import numpy as np
import pytest

from mfeit.forward import (solve_forward_direct, solve_forward_spectral,
                           solve_u0)
from mfeit.geometry import (DomainConfig, class_rows, discretize,
                            unit_circle_grid)
from mfeit.potential import KernelMatrices, assemble, eval_S
from mfeit.reconstruct import InversionSettings, invert
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


def _traced_kept(call, n) -> float:
    """Traced allocation still held, with the result of ``call()`` bound,
    once the call returns, in n x n matrices of doubles."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()  # bound while the memory is read
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (kept - base) / (n * n * 8)


@pytest.fixture(scope="module", autouse=True)
def _scipy_linalg_loaded():
    """One untraced assembly, which runs the lazily loaded ``scipy.linalg``."""
    assemble(discretize(TREFOIL, 32))


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
        assert _traced_peak(lambda: fresh.eig, n) <= budget, n


def test_operators_keep_no_gram_matrix(kernels):
    # B is built for each use and factored in place by the eigensolve
    for n, k in kernels.items():
        kept = {name for name, value in vars(k).items()
                if isinstance(value, np.ndarray) and value.shape == (n, n)}
        assert kept == {"S", "Kstar"}, n


def test_ladder_step_budget(f_cos):
    def step(n):
        grid = discretize(TREFOIL, n)
        kernels = assemble(grid)
        spec = compute_spectrum(kernels, n // 4, n_boundary=64, tail=1e-15)
        u0 = solve_u0(TREFOIL, f_cos, grid=grid, S=kernels.S)
        for k in (2 + 1j, 0.5 - 0.4j, -1 + 1j, 3 + 2j):
            ud = solve_forward_direct(TREFOIL, f_cos, k, kernels=kernels)
            us = solve_forward_spectral(spec, f_cos, k, 1.0, u0)
        return ud, us

    for n, budget in zip(SIZES, (6.8, 6.8)):
        assert _traced_peak(lambda: step(n), n) <= budget, n


def test_a_solve_keeps_no_operator(f_cos):
    # the saddle LU, the trace matrix and the density are freed on return;
    # what stays is u0 and, given the 17 radial velocities of M = 8, du0
    for n in SIZES:
        grid = discretize(TREFOIL, n)
        mt = np.outer(grid.t, np.arange(1, 9))
        velocity = np.hstack([np.ones((n, 1)), np.cos(mt), np.sin(mt)])
        velocity *= (np.cos(grid.t) * grid.normals[:, 0]
                     + np.sin(grid.t) * grid.normals[:, 1])[:, None]
        for v in (None, velocity):
            assert _traced_kept(lambda: solve_u0(TREFOIL, f_cos, n=n,
                                                 velocity=v), n) <= 0.05, n


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
    density = np.ones((256, 1))
    assert _traced_peak(lambda: eval_S(grid, density, targets), 256, 64) <= 3.5


def test_class_rows_budget():
    config = DomainConfig()
    for M in (8, 16):
        E, _ = class_rows(M, config, 1e-3)
        assert _traced_peak(lambda: class_rows.__wrapped__(M, config, 1e-3),
                            *E.shape[::-1]) <= 3.0, M


def test_inversion_budget(f_cos):
    data = solve_u0(TREFOIL, f_cos, n=256)
    settings = InversionSettings(n_fourier_modes=8, alpha=1e-7, n_boundary=128)
    invert(data, settings)
    assert _traced_peak(lambda: invert(data, settings), 128) <= 6.0
