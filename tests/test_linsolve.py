"""Dense/Krylov solvers, fold/unfold, Stein path."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squarequad as sq
from squarequad import ConvergenceError, fold, gmres, lu_solve, stein_solve, unfold
from squarequad.testproblems import get_case


def test_unfold_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    # l = i1 + (i2-1) n1: column-major flattening
    assert unfold(a).tolist() == [1.0, 3.0, 2.0, 4.0]
    assert fold(unfold(a), 2, 2).tolist() == a.tolist()


def test_fold_unfold_roundtrip(rng):
    a = rng.standard_normal((7, 5))
    assert np.array_equal(fold(unfold(a), 7, 5), a)


def test_fold_dimension_mismatch():
    with pytest.raises(ValueError):
        fold(np.arange(6.0), 4, 2)


def test_lu_identity_and_diagonal():
    assert lu_solve(np.eye(3), np.arange(3.0)).tolist() == [0.0, 1.0, 2.0]
    got = lu_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
    assert got == pytest.approx([1.0, 1.0], rel=1e-15)


def test_lu_singular_rejected():
    with pytest.raises((ValueError, np.linalg.LinAlgError, ConvergenceError)):
        lu_solve(np.zeros((3, 3)), np.ones(3))


def test_gmres_identity_one_iteration():
    x, stats = gmres(np.eye(5), np.ones(5))
    assert stats.iterations == 1
    assert x == pytest.approx(np.ones(5))


def test_gmres_k_distinct_eigenvalues():
    d = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 1.0, 2.0, 3.0])
    x, stats = gmres(np.diag(d), np.ones(10), tol=1e-13)
    assert stats.iterations <= 3
    assert x == pytest.approx(1.0 / d, rel=1e-11)


def test_gmres_residual_history_monotone(rng):
    A = np.eye(30) + 0.3 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    x, stats = gmres(A, b, tol=1e-13)
    res = np.asarray(stats.residuals)
    assert np.all(np.diff(res) <= 1e-13 * res[0])
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("maxiter", [0, 3])
def test_gmres_maxiter_error_carries_stats(rng, maxiter):
    A = np.eye(20) + 0.5 * rng.standard_normal((20, 20))
    with pytest.raises(ConvergenceError) as exc:
        gmres(A, rng.standard_normal(20), tol=1e-15, maxiter=maxiter)
    assert exc.value.stats is not None
    assert exc.value.stats.iterations == maxiter


def test_gmres_keeps_the_basis_orthogonal():
    # eigenvalues over eight decades: one Gram-Schmidt pass per step loses
    # orthogonality and stalls at 9.7e-08 after 60 steps; two passes reach
    # the target, with a true residual of about 2e-10
    A = np.diag(np.logspace(0, 8, 60))
    b = np.ones(60)
    x, _ = gmres(A, b, tol=1e-12)
    assert np.linalg.norm(b - A @ x) <= 1e-8 * np.linalg.norm(b)


def test_gmres_basis_budget_raises_before_the_append(rng, monkeypatch):
    import squarequad.linsolve as ls

    A = np.eye(20) + 0.5 * rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    # room for the starting vector only: the first append is over budget
    monkeypatch.setattr(ls, "_GMRES_BASIS_BYTES", 8 * 20)
    with pytest.raises(sq.CapacityError, match=r"after 1 iterations with residual \d"):
        gmres(A, b)
    monkeypatch.setattr(ls, "_GMRES_BASIS_BYTES", 8 * 20 * 21)
    x, _ = gmres(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_stein_zero_factors():
    h = np.arange(6.0).reshape(2, 3)
    assert stein_solve(np.zeros((2, 2)), np.zeros((3, 3)), h) == pytest.approx(h)


def test_stein_scalar_closed_form():
    a = stein_solve(np.array([[0.5]]), np.array([[0.5]]), np.array([[0.75]]))
    assert a[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_stein_residual_random(rng):
    phi1 = 0.4 * rng.standard_normal((6, 6)) / 6**0.5
    phi2 = 0.4 * rng.standard_normal((5, 5)) / 5**0.5
    h = rng.standard_normal((6, 5))
    a = stein_solve(phi1, phi2, h)
    res = phi1 @ a @ phi2.T - a + h
    assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(h)


def test_stein_rejects_divergent_factors():
    phi = np.array([[2.0]])
    with pytest.raises(ConvergenceError):
        stein_solve(phi, phi, np.array([[1.0]]))


_JORDAN_99 = np.array([[0.99, 1.0], [0.0, 0.99]])
_JORDAN_90 = np.array([[0.9, 1.0], [0.0, 0.9]])


@pytest.mark.parametrize(
    "phi1,phi2",
    [
        # spectral radius product 0.98: the residual grows 500-fold over
        # seven doublings, then converges in four more
        (_JORDAN_99, _JORDAN_99),
        # the residual grows over the first three doublings
        (_JORDAN_90, _JORDAN_90),
        # radii 3.998 and 0.25, 16 doublings: a scale fixed from the 1-norms
        # leaves Phi2 / s a radius of 5.05, whose powers overflow
        (np.array([[3.998, 100.0], [0.0, 2.0]]), np.array([[0.25]])),
    ],
    ids=["jordan-0.99", "jordan-0.9", "radii-3.998-0.25"],
)
def test_stein_non_normal_factors(phi1, phi2):
    h = np.eye(phi1.shape[0], phi2.shape[0])
    want = np.linalg.solve(np.eye(h.size) - np.kron(phi2, phi1), unfold(h))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = unfold(stein_solve(phi1, phi2, h))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "h", [np.ones((2, 2)), np.arange(1.0, 5.0).reshape(2, 2)], ids=["ones", "arange"]
)
def test_stein_stops_once_the_iterate_is_final(h):
    # A stops changing after 12 doublings, while the rounding floor of its
    # residual stays above the default tol
    with pytest.raises(ConvergenceError, match="stalled") as exc:
        stein_solve(_JORDAN_99, _JORDAN_99, h)
    doublings = int(re.search(r"after (\d+) doublings", str(exc.value)).group(1))
    assert doublings <= 14


@given(n1=st.integers(2, 6), n2=st.integers(2, 9), seed=st.integers(0, 2**31))
@settings(max_examples=40)
def test_realizations_agree(n1, n2, seed):
    rng = np.random.default_rng(seed)
    case = get_case("eq3")
    prob = case.problem()
    rule = sq.gauss_cubature(case.w1, case.w2, n1, n2)
    ops = {
        real: sq.assemble_system(prob, rule, realization=real)[0]
        for real in ("dense", "factored", "separable")
    }
    v = rng.standard_normal(n1 * n2)
    outs = [op.matvec(v) for op in ops.values()]
    for out in outs[1:]:
        assert np.max(np.abs(out - outs[0])) < 1e-13 * max(1.0, np.max(np.abs(outs[0])))


def test_separable_matches_kronecker_expansion():
    case = get_case("eq3")
    prob = case.problem()
    rule = sq.gauss_cubature(case.w1, case.w2, 4, 4)
    op, _ = sq.assemble_system(prob, rule, realization="separable")
    dense_op, _ = sq.assemble_system(prob, rule, realization="dense")
    assert np.max(np.abs(op.to_dense() - dense_op.to_dense())) < 1e-13


def test_matvec_flop_accounting():
    case = get_case("eq3")
    prob = case.problem()
    rule = sq.gauss_cubature(case.w1, case.w2, 8, 8)
    n = 64
    for real, expect in (("dense", 2 * n * n), ("separable", 2 * n * 16 + n)):
        op, h = sq.assemble_system(prob, rule, realization=real)
        op.matvec(np.ones(n))
        assert op.flops == expect
    eq2 = get_case("eq2")
    rule = sq.gauss_cubature(eq2.w1, eq2.w2, 8, 8)
    op, _ = sq.assemble_system(eq2.problem(), rule, realization="factored")
    op.matvec(np.ones(n))
    assert op.realization == "factored"
    assert op.flops == 4 * n * op.rank + 3 * n


@pytest.mark.parametrize("kind", ["gauss", "antigauss"])
@pytest.mark.parametrize("n1,n2", [(16, 16), (64, 16)])
def test_factored_eq2_matches_dense(n1, n2, kind, rng):
    # sin(x1+x2)(1+x1+y2) has rank 2
    case = get_case("eq2")
    prob = case.problem()
    make = sq.gauss_cubature if kind == "gauss" else sq.antigauss_cubature
    rule = make(case.w1, case.w2, n1, n2)
    op, _ = sq.assemble_system(prob, rule, realization="factored")
    dense_op, _ = sq.assemble_system(prob, rule, realization="dense")
    assert op.realization == "factored"
    assert op.rank == 2
    assert dense_op.rank is None
    v = rng.standard_normal(op.N)
    want = dense_op.matvec(v)
    assert np.max(np.abs(op.matvec(v) - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))
    kappa = sq.condition_number_inf(op)
    assert kappa == pytest.approx(sq.condition_number_inf(dense_op), rel=1e-10)


@pytest.mark.parametrize("n1,n2,K,r", [(12, 5, 4, 3), (9, 10, 9, 2), (8, 5, 40, 4), (6, 5, 1, 0)])
def test_factored_kappa_from_repeated_rows_matches_dense(n1, n2, K, r, rng):
    # U draws its N rows from K distinct ones, one of them zero; u takes both
    # signs and one zero
    N = n1 * n2
    W = rng.standard_normal((K, r))
    W[-1] = 0.0
    k = np.concatenate([np.arange(K), rng.integers(0, K, N - K)])
    U = W[rng.permutation(k)]
    u = rng.standard_normal(N)
    u[N // 2] = 0.0
    V = rng.standard_normal((N, r)) / N
    d = rng.uniform(0.5, 2.0, N)
    op = sq.SystemOperator("factored", n1, n2, u=u, d=d, factors=(U, V))
    assert len(sq.linsolve._distinct_rows(U)[2]) == K
    want = sq.condition_number_inf(op.to_dense())
    assert sq.condition_number_inf(op) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "a", [np.array(2.0), np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)), np.array([[1.0, np.nan], [0.0, 1.0]])],
    ids=["0-d", "1-d", "2x3", "3-d", "nan"],
)
def test_condition_number_rejects_bad_arrays_naming_the_shape(a, monkeypatch):
    def no_work(*args):
        raise AssertionError("inverted a rejected array")

    monkeypatch.setattr(np.linalg, "inv", no_work)
    with pytest.raises(ValueError, match=re.escape(str(a.shape))):
        sq.condition_number_inf(a)


def test_factored_assembly_leaves_numpy_random_unloaded():
    # the declaration check draws its collocation rows from the standard
    # library's generator
    code = """
import sys
import squarequad as sq
from squarequad.testproblems import get_case
case = get_case("eq2")
rule = sq.gauss_cubature(case.w1, case.w2, 8, 8)
op, _ = sq.assemble_system(case.problem(), rule, realization="factored")
print(op.realization, op.rank, "numpy.random" in sys.modules)
"""
    src = Path(sq.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout
    assert out == "factored 2 False\n"


def test_stein_balances_unequal_factors():
    # eq1 kernel pair at mult 0.40735, n=3 companion rule: radii 1.479 and
    # 0.667, product 0.986; unbalanced squaring overflowed one factor
    base = get_case("eq1").problem()
    prob = sq.FredholmProblem(base.w1, base.w2, base.u, base.rhs,
                              kernel_pair=base.kernel_pair, mult=0.40735)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = sq.solve_nystrom(prob, 3, 3, rulekind="antigauss", solver="stein")
    assert sol.solver == "stein"
    op, h = sq.assemble_system(prob, sol.rule, realization="separable")
    assert np.linalg.norm(op.matvec(sol.coeffs) - h) <= 1e-13 * np.linalg.norm(h)
