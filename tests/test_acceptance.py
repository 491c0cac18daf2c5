"""Acceptance gate: one criterion per test (criterion 8 split into suites).

Each test re-derives its values through the public API and checks them at
the pinned tolerance.  Three assertions are expected to stay red; the
failure messages point at the regression reports and the independent
oracles in test_fredholm that justify keeping the computed side.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squarequad as sq
from squarequad import (
    JacobiWeight,
    antigauss_cubature,
    antigauss_rule,
    averaged_interpolant,
    bracketing_check,
    bracketing_diagnostic,
    eig_tridiag,
    fold,
    gauss_cubature,
    gauss_rule,
    gmres,
    interpolant_eval,
    solve_nystrom,
    unfold,
)
from squarequad.testproblems import get_case, run_case

from oracles import integral_poly, jacobi_b0, random_poly_pair

LEG = JacobiWeight(0.0, 0.0)


def _failures(report):
    return "\n".join(ln for ln in report.lines() if "FAIL" in ln or "case" in ln)


def test_criterion_1_table1_cubature_errors():
    t0 = time.perf_counter()
    report = run_case("cub1", sizes=[(4, 8), (8, 8), (16, 8), (32, 8)])
    elapsed = time.perf_counter() - t0
    assert report.ok, _failures(report)
    assert elapsed < 10.0


def test_criterion_2_table2_cubature_errors_and_sign_flip():
    t0 = time.perf_counter()
    report = run_case("cub2")
    elapsed = time.perf_counter() - t0
    assert report.ok, _failures(report)
    vals = {(r.size, r.metric): r.computed for r in report.rows}
    for size in get_case("cub2").sizes():
        assert vals[(size, "r_g")] * vals[(size, "r_a")] < 0, size
    assert elapsed < 60.0


@pytest.mark.known_conflict
def test_criterion_3_figure1_bracketing_diagnostics():
    cub1 = get_case("cub1")
    for n1 in range(2, 31):
        rep = bracketing_diagnostic(cub1.integrand, cub1.w1, cub1.w2, n1, 8)
        assert rep.holds, f"left panel: expected holds at n1={n1}"
    cub2 = get_case("cub2")
    ref = gauss_cubature(cub2.w1, cub2.w2, 512, 512).apply(cub2.integrand)
    rg = ref - gauss_cubature(cub2.w1, cub2.w2, 20, 20).apply(cub2.integrand)
    ra = ref - antigauss_cubature(
        cub2.w1, cub2.w2, 20, 20, allow_uncontained=cub2.allow_uncontained
    ).apply(cub2.integrand)
    assert rg < 0 < ra
    rep20 = bracketing_diagnostic(cub2.integrand, cub2.w1, cub2.w2, 20, 20)
    # the theorem-faithful terms reconstruct both rule errors above
    # (-S + E1 = rg, S + E2 = ra within truncation accuracy), which forces
    # |S| > max(|E1|, |E2|); the published claim of a failed condition at
    # (20, 20) is only reachable by dropping or sign-flipping the second
    # border sum, so this assertion documents the disagreement and stays red.
    assert rep20.holds is False, (
        f"holds={rep20.holds} with S={rep20.S:.4e} E1={rep20.E1:.4e} "
        f"E2={rep20.E2:.4e}; -S+E1={-rep20.S + rep20.E1:.4e} vs rg={rg:.4e}, "
        f"S+E2={rep20.S + rep20.E2:.4e} vs ra={ra:.4e}"
    )


def test_criterion_4_table3_small_sizes():
    t0 = time.perf_counter()
    report = run_case("eq1", sizes=[(2, 2), (4, 4), (6, 6)])
    elapsed = time.perf_counter() - t0
    assert report.ok, _failures(report)
    kappa = {
        (r.size, r.metric): r.computed
        for r in report.rows
        if r.metric.startswith("kappa")
    }
    assert kappa[((4, 4), "kappa_g")] == pytest.approx(19.016, rel=5e-3)
    assert kappa[((4, 4), "kappa_a")] == pytest.approx(30.849, rel=5e-3)
    assert elapsed < 5.0


@pytest.mark.known_conflict
def test_criterion_5_table4_iterations_errors_conditioning():
    t0 = time.perf_counter()
    report = run_case("eq2")
    elapsed = time.perf_counter() - t0
    iters = [r for r in report.rows if r.metric == "iters"]
    assert len(iters) == 6
    assert all(int(round(r.computed)) == 3 for r in iters)
    assert elapsed < 120.0
    # xi and kappa stay red: the computed values are pinned by the exact
    # rank-2 solution oracle (test_eq2_exact_solution_coefficients) and by
    # LU/GMRES agreement, while the stored table sits a near-constant
    # factor away; see the regression report below for every row.
    assert report.ok, _failures(report)


def test_criterion_6_example3_table_and_solver_structure():
    report = run_case(
        "eq3", sizes=[(16, 16), (32, 32), (64, 64), (128, 128)], metrics=["xi_avg"]
    )
    assert report.ok, _failures(report)
    case = get_case("eq3")
    prob = case.problem()
    stein = solve_nystrom(prob, 32, 32, solver="stein").coeffs
    krylov = solve_nystrom(prob, 32, 32, solver="gmres-sk").coeffs
    assert np.max(np.abs(stein - krylov)) < 1e-10 * np.max(np.abs(stein))
    # counted flops per matvec: dense is Theta(N^2), separable Theta(N(n1+n2))
    sizes = (8, 12, 16, 24, 32)
    logN, logd, logs = [], [], []
    for n in sizes:
        rule = gauss_cubature(case.w1, case.w2, n, n)
        N = n * n
        dense_op, _ = sq.assemble_system(prob, rule, realization="dense")
        sep_op, _ = sq.assemble_system(prob, rule, realization="separable")
        v = np.ones(N)
        dense_op.matvec(v)
        sep_op.matvec(v)
        logN.append(np.log(N))
        logd.append(np.log(dense_op.flops))
        logs.append(np.log(sep_op.flops))
    slope_dense = np.polyfit(logN, logd, 1)[0]
    slope_sep = np.polyfit(logN, logs, 1)[0]
    assert abs(slope_dense - 2.0) < 0.2
    assert abs(slope_sep - 1.5) < 0.2


@pytest.mark.known_conflict
def test_criterion_7_table6_errors():
    report = run_case("eq4")
    # red on purpose: the computed columns equal the independent exact
    # solution's true errors (test_eq4_exact_solution_coefficients), the
    # stored table sits ~5x below them on every row.
    assert report.ok, _failures(report)


# ---------------------------------------------------------------------------
# criterion 8: property suites, >= 200 randomized cases each


@given(
    n1=st.integers(1, 4), n2=st.integers(1, 4), seed=st.integers(0, 2**31)
)
@settings(max_examples=200)
def test_criterion_8_gauss_exactness(n1, n2, seed):
    rng = np.random.default_rng(seed)
    c, p = random_poly_pair(rng, 2 * n1 - 1, 2 * n2 - 1)
    got = gauss_cubature(LEG, LEG, n1, n2).apply(p)
    want = integral_poly(c, 0.0, 0.0, 0.0, 0.0)
    assert abs(got - want) < 1e-12 * max(1.0, float(np.sum(np.abs(c))))


@given(
    n1=st.integers(1, 4), n2=st.integers(1, 4), axis=st.integers(0, 1),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=200)
def test_criterion_8_antigauss_sign_flip(n1, n2, axis, seed):
    rng = np.random.default_rng(seed)
    degs = (2 * n1 + 1, 2 * n2 - 1) if axis == 0 else (2 * n1 - 1, 2 * n2 + 1)
    c, p = random_poly_pair(rng, *degs)
    exact = integral_poly(c, 0.0, 0.0, 0.0, 0.0)
    g = gauss_cubature(LEG, LEG, n1, n2).apply(p)
    a = antigauss_cubature(LEG, LEG, n1, n2).apply(p)
    scale = max(1.0, float(np.sum(np.abs(c))))
    assert abs((exact - a) + (exact - g)) < 1e-10 * scale


@given(
    alpha=st.floats(-0.45, 1.5), beta=st.floats(-0.45, 1.5),
    n=st.integers(1, 16),
)
@settings(max_examples=200)
def test_criterion_8_interlacing(alpha, beta, n):
    w = JacobiWeight(alpha, beta)
    x = gauss_rule(w, n).nodes
    eta = antigauss_rule(w, n).nodes
    assert np.all(eta[:-1] < x) and np.all(x < eta[1:])


@given(
    alpha=st.floats(-0.45, 2.0), beta=st.floats(-0.45, 2.0),
    n=st.integers(1, 20), anti=st.booleans(),
)
@settings(max_examples=200)
def test_criterion_8_weight_sums(alpha, beta, n, anti):
    w = JacobiWeight(alpha, beta)
    r = antigauss_rule(w, n) if anti else gauss_rule(w, n)
    assert np.all(r.weights > 0)
    assert np.sum(r.weights) == pytest.approx(jacobi_b0(alpha, beta), rel=1e-13)


@given(n=st.integers(1, 8), seed=st.integers(0, 2**31))
@settings(max_examples=200)
def test_criterion_8_antigauss_reflection_univariate(n, seed):
    # A_{n+1}(p) = 2 I(p) - G_n(p) for deg p <= 2n+1
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(2 * n + 2)
    w = JacobiWeight(0.5, 0.5)
    exact = integral_poly(coef[:, None], w.alpha, w.beta, 0.0, 0.0) / 2.0
    gr = gauss_rule(w, n)
    ar = antigauss_rule(w, n)
    g = gr.weights @ np.polynomial.polynomial.polyval(gr.nodes, coef)
    a = ar.weights @ np.polynomial.polynomial.polyval(ar.nodes, coef)
    assert a == pytest.approx(2 * exact - g, abs=1e-11 * max(1.0, np.sum(np.abs(coef))))


@given(n=st.integers(1, 12), seed=st.integers(0, 2**31))
@settings(max_examples=200)
def test_criterion_8_eigensolver_vs_dense(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-3, 3, n)
    e = rng.uniform(0.1, 2.0, max(n - 1, 0))
    out = eig_tridiag(d, e)
    T = np.diag(d)
    if n > 1:
        T += np.diag(e, 1) + np.diag(e, -1)
    want = np.linalg.eigvalsh(T)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(out.values - want)) < 1e-12 * scale


@given(
    n1=st.integers(1, 12), n2=st.integers(1, 12), seed=st.integers(0, 2**31)
)
@settings(max_examples=200)
def test_criterion_8_fold_roundtrip(n1, n2, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n1, n2))
    v = unfold(a)
    assert v.shape == (n1 * n2,)
    assert np.array_equal(fold(v, n1, n2), a)
    # the stated index map: l = i1 + (i2 - 1) n1, both indices 1-based
    i1 = rng.integers(1, n1 + 1)
    i2 = rng.integers(1, n2 + 1)
    assert v[(i1 - 1) + (i2 - 1) * n1] == a[i1 - 1, i2 - 1]


@given(n=st.integers(2, 20), seed=st.integers(0, 2**31))
@settings(max_examples=200)
def test_criterion_8_gmres_residual_monotone(n, seed):
    rng = np.random.default_rng(seed)
    A = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
    b = rng.standard_normal(n)
    x, stats = gmres(A, b, tol=1e-12)
    res = np.asarray(stats.residuals)
    assert np.all(np.diff(res) <= 1e-12 * max(res[0], 1.0))
    assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


@given(
    n1=st.integers(2, 5), n2=st.integers(2, 5),
    mult=st.floats(-0.4, 0.4), seed=st.integers(0, 2**31)
)
@settings(max_examples=200)
def test_criterion_8_averaged_interpolant_bound(n1, n2, mult, seed):
    case = get_case("eq3")
    base = case.problem()
    prob = sq.FredholmProblem(
        base.w1, base.w2, base.u, base.rhs,
        kernel_pair=base.kernel_pair, mult=mult,
    )
    sg = solve_nystrom(prob, n1, n2)
    sa = solve_nystrom(prob, n1, n2, rulekind="antigauss")
    ref = solve_nystrom(prob, 24, 24)
    br = bracketing_check(sg, sa, ref=ref)
    if br.fraction_between < 1.0:
        return
    pts = -1.0 + 2.0 * (np.arange(1, 51) - 0.5) / 50
    y1, y2 = np.meshgrid(pts, pts, indexing="ij")
    fg, _ = interpolant_eval(sg, y1, y2, unweighted=False)
    fa, _ = interpolant_eval(sa, y1, y2, unweighted=False)
    fr, _ = interpolant_eval(ref, y1, y2, unweighted=False)
    avg_err = np.max(np.abs(0.5 * (fg + fa) - fr))
    half_gap = 0.5 * np.max(np.abs(fg - fa))
    assert avg_err <= half_gap * (1.0 + 1e-10) + 1e-15
