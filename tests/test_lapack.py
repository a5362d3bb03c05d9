"""The package's LAPACK calls equal ``scipy.linalg``'s public functions.

``potential.lapack()`` is scipy's private wrapper module, called with the
arguments that ``scipy.linalg.eigh``, ``lu_factor`` and ``lu_solve`` pass
it, so a scipy release that changes a private wrapper fails here first. A
LAPACK failure is a numeric one: ``SingularSystem``, exit 3 (a singular
direct solve is ``test_forward.py``'s).
"""
import json

import numpy as np
import pytest
import scipy.linalg as sla

from mfeit import cli, forward
from mfeit.errors import SingularSystem
from mfeit.geometry import discretize
from mfeit.potential import KernelMatrices, assemble

from conftest import TREFOIL


@pytest.mark.parametrize("n", [64, 128])
def test_eigensolve_equals_scipy_eigh(n):
    k = assemble(discretize(TREFOIL, n))
    B = k.B
    A = B @ k.Kstar
    mu, V = sla.eigh(0.5 * (A + A.T), B)
    assert np.array_equal(k.eig[0], mu[:-1])
    assert np.array_equal(k.eig[1], V[:, :-1])


@pytest.mark.parametrize("n", [64, 128])
def test_saddle_factor_and_solve_equal_lu_factor_and_lu_solve(n):
    grid = discretize(TREFOIL, n)
    S = assemble(grid).S
    A = np.block([[S, -np.ones((n, 1))], [grid.weights[None, :], 0.0]])
    lu, piv = forward._factor_saddle(grid, S)
    lu_ref, piv_ref = sla.lu_factor(A)
    assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref)
    rng = np.random.default_rng(n)
    for rhs in (rng.standard_normal(n + 1), rng.standard_normal((n + 1, 3))):
        assert np.array_equal(forward._solve_saddle((lu, piv), rhs),
                              sla.lu_solve((lu_ref, piv_ref), rhs))


def test_a_failed_eigensolve_raises_singular_system():
    # -S makes B negative definite: its Cholesky factor fails at order 1
    k = assemble(discretize(TREFOIL, 64))
    with pytest.raises(SingularSystem, match="order 1 of B"):
        KernelMatrices(S=-k.S, Kstar=k.Kstar, grid=k.grid).eig


def test_a_failed_eigensolve_exits_3(tmp_path, monkeypatch, capsys):
    B = KernelMatrices.B
    monkeypatch.setattr(KernelMatrices, "B",
                        property(lambda self: -B.fget(self)))
    cfg = {"shape": {"cos": [0.5]}, "n_boundary": 64, "n_modes": 4,
           "n_measure": 64}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli.main(["spectrum", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_NUMERIC
    assert "SingularSystem" in capsys.readouterr().err

