"""Weighted Nystrom solver: model validation, interpolants, oracles.

The two rank-structure oracles at the bottom freeze independently derived
exact solutions (small moment systems solved by lifted quadrature) and pin
the solver's true error against them.  They never touch the stored tables
or the cached reference solves, so they separate "library broke" from
"stored value disagrees".
"""

import tracemalloc

import numpy as np
import pytest

import squarequad as sq
from squarequad import (
    AssemblyError,
    CapacityError,
    FredholmProblem,
    JacobiWeight,
    SpaceWeight,
    averaged_interpolant,
    bracketing_check,
    condition_number_inf,
    gauss_rule,
    interpolant_eval,
    relative_error,
    solve_nystrom,
)
from squarequad.cli import main as cli_main
from squarequad.testproblems import KERNELS_1D, RHS, get_case


def _grid(npts=50):
    pts = -1.0 + 2.0 * (np.arange(1, npts + 1) - 0.5) / npts
    return np.meshgrid(pts, pts, indexing="ij")


# ---------------------------------------------------------------------------
# model validation


def test_space_weight_eval():
    u = SpaceWeight(1.0, 0.5, 0.0, 2.0)
    assert u.eval(0.0, 0.0) == pytest.approx(1.0)
    assert u.eval(1.0, 0.0) == 0.0
    assert u.eval(0.5, -0.5) == pytest.approx(0.5 * np.sqrt(1.5) * 0.25)


def test_space_weight_rejects_negative_exponent():
    with pytest.raises(ValueError):
        SpaceWeight(-0.1, 0.0, 0.0, 0.0)


def test_problem_needs_exactly_one_kernel_form():
    w = JacobiWeight(0.0, 0.0)
    u = SpaceWeight(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        FredholmProblem(w, w, u, RHS["exp-sin"])
    with pytest.raises(ValueError):
        FredholmProblem(
            w, w, u, RHS["exp-sin"],
            kernel=lambda a, b, c, d: a,
            kernel_pair=(KERNELS_1D["zero"], KERNELS_1D["zero"]),
        )


def test_admissibility_enforced():
    w = JacobiWeight(0.0, 0.0)
    # gamma1 = 1.0 equals alpha1 + 1: inadmissible boundary case
    with pytest.raises(ValueError):
        FredholmProblem(
            w, w, SpaceWeight(1.0, 0.0, 0.0, 0.0), RHS["exp-sin"],
            kernel_pair=(KERNELS_1D["zero"], KERNELS_1D["zero"]),
        )


def test_assembly_rejects_vanishing_u_at_node():
    # Chebyshev-1 companion nodes reach +-1 where this u vanishes; the sizes
    # cover end nodes that the eigensolver rounds outward, onto, and inward
    prob = FredholmProblem(
        JacobiWeight(-0.5, -0.5), JacobiWeight(0.0, 0.0),
        SpaceWeight(0.4, 0.0, 0.0, 0.0), RHS["exp-sin"],
        kernel_pair=(KERNELS_1D["exp-sum"], KERNELS_1D["product"]), mult=0.1,
    )
    for n in (3, 4, 8, 16):
        solve_nystrom(prob, n, 4)  # interior Gauss nodes are fine
        with pytest.raises(AssemblyError):
            solve_nystrom(prob, n, 4, rulekind="antigauss")


# ---------------------------------------------------------------------------
# trivial solutions


def test_zero_kernel_identity():
    case = get_case("zerok")
    prob = case.problem()
    sol = solve_nystrom(prob, 5, 4)
    y1, y2 = _grid(20)
    _, f = interpolant_eval(sol, y1, y2)
    assert np.max(np.abs(f - prob.rhs(y1, y2))) < 1e-14


def test_zero_rhs_zero_solution():
    case = get_case("eq3")
    base = case.problem()
    prob = FredholmProblem(
        base.w1, base.w2, base.u, lambda a, b: np.zeros_like(np.asarray(a, float) + b),
        kernel_pair=base.kernel_pair, mult=base.mult,
    )
    sol = solve_nystrom(prob, 6, 6)
    assert np.max(np.abs(sol.coeffs)) < 1e-14


def test_interpolant_matches_coeffs_at_nodes():
    for case_id, kind in (("eq1", "gauss"), ("eq1", "antigauss"), ("eq3", "gauss")):
        case = get_case(case_id)
        sol = solve_nystrom(case.problem(), 6, 6, rulekind=kind)
        rule = sol.rule
        fu, _ = interpolant_eval(sol, rule.nodes1, rule.nodes2, unweighted=False)
        scale = np.max(np.abs(sol.coeffs))
        assert np.max(np.abs(fu - sol.coeffs)) < 1e-12 * scale


def test_eq1_interpolant_hits_exact_solution():
    case = get_case("eq1")
    sol = solve_nystrom(case.problem(), 8, 8)
    y1, y2 = _grid(30)
    _, f = interpolant_eval(sol, y1, y2)
    want = case.exact(y1, y2)
    assert np.max(np.abs(f - want)) < 5e-15 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# cross-solver and cross-weight structure


def test_solver_backends_agree():
    picks = {
        "eq1": ("lu", "gmres", "gmres-fm"),
        "eq2": ("lu", "gmres", "gmres-fm"),
        "eq3": ("lu", "gmres", "gmres-fm", "gmres-sk", "stein"),
        "eq4": ("lu", "gmres-sk", "stein"),
    }
    for case_id, solvers in picks.items():
        case = get_case(case_id)
        prob = case.problem()
        sols = [
            solve_nystrom(prob, 16, 16, solver=s,
                          allow_uncontained=case.allow_uncontained).coeffs
            for s in solvers
        ]
        scale = np.max(np.abs(sols[0]))
        for got in sols[1:]:
            assert np.max(np.abs(got - sols[0])) < 1e-10 * scale, case_id


def test_stein_falls_back_to_gmres_sk():
    # eq1's Stein iteration diverges, so stein hands over to gmres-sk
    prob = get_case("eq1").problem()
    sol = solve_nystrom(prob, 4, 4, solver="stein")
    direct = solve_nystrom(prob, 4, 4, solver="gmres-sk")
    assert sol.solver == "gmres-sk"
    assert np.array_equal(sol.coeffs, direct.coeffs)


def test_stein_receives_the_tolerance(monkeypatch):
    import squarequad.fredholm as fr

    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return fr.linsolve.stein_solve(*args, **kwargs)

    monkeypatch.setattr(fr, "stein_solve", spy)
    sol = solve_nystrom(get_case("eq3").problem(), 8, 8, solver="stein", tol=3e-9)
    assert sol.solver == "stein"
    assert seen == [3e-9]


def test_solution_is_space_weight_independent():
    # diagonal similarity: the Nystrom function f_n does not depend on u
    case = get_case("eq3")
    base = case.problem()
    other = FredholmProblem(
        base.w1, base.w2, SpaceWeight(0.3, 0.9, 0.0, 1.1), base.rhs,
        kernel_pair=base.kernel_pair, mult=base.mult,
    )
    y1, y2 = _grid(25)
    _, f_base = interpolant_eval(solve_nystrom(base, 8, 8), y1, y2)
    _, f_other = interpolant_eval(solve_nystrom(other, 8, 8), y1, y2)
    assert np.max(np.abs(f_base - f_other)) < 1e-12 * np.max(np.abs(f_base))


# ---------------------------------------------------------------------------
# error measures, conditioning, bracketing


def test_relative_error_identities():
    case = get_case("eq1")
    exact = case.exact
    u = SpaceWeight(0.5, 0.5, 0.0, 0.0)
    assert relative_error(exact, exact, u=u) == 0.0
    shifted = lambda a, b: exact(a, b) + 0.25 / u.eval(a, b)
    y1, y2 = _grid(50)
    den = np.max(np.abs(exact(y1, y2) * u.eval(y1, y2)))
    assert relative_error(shifted, exact, u=u) == pytest.approx(0.25 / den, rel=1e-12)


def test_condition_number_identity_and_cap():
    sol = solve_nystrom(get_case("zerok").problem(), 5, 5)
    assert condition_number_inf(sol) == pytest.approx(1.0, rel=1e-13)
    big = solve_nystrom(get_case("eq3").problem(), 70, 70, solver="gmres-sk")
    with pytest.raises(CapacityError):
        condition_number_inf(big)


def test_factored_assembly_finds_nonfinite_entry_off_the_pivots():
    case = get_case("eq2")
    base = case.problem()
    rule = sq.gauss_cubature(case.w1, case.w2, 16, 16)
    x1, x2 = rule.nodes1, rule.nodes2
    N = x1.size
    pivot_rows, pivot_cols = set(), set()

    def entries(rows, cols):
        if rows.stop is not None and rows.stop - rows.start == 1:
            pivot_rows.add(rows.start)
        if cols.stop is not None and cols.stop - cols.start == 1:
            pivot_cols.add(cols.start)
        return base.kernel_values(x1[None, cols], x2[None, cols], x1[rows, None], x2[rows, None])

    assert sq.linsolve.aca(entries, N, min(sq.fredholm._ACA_RANK_CAP, N // 2)) is not None
    # a (collocation, integration) pair in no pivot row and no pivot column
    p = next(i for i in range(N // 2, N) if i not in pivot_rows)
    q = next(j for j in range(N // 3, N) if j not in pivot_cols)

    def kernel(a1, a2, b1, b2):
        vals = base.kernel(a1, a2, b1, b2)
        hit = (a1 == x1[q]) & (a2 == x2[q]) & (b1 == x1[p]) & (b2 == x2[p])
        return np.where(hit, np.nan, vals)

    prob = FredholmProblem(base.w1, base.w2, base.u, base.rhs, kernel=kernel, mult=base.mult)
    with pytest.raises(AssemblyError) as exc:
        sq.assemble_system(prob, rule, realization="factored")
    assert exc.value.node == (x1[q], x2[q])
    assert f"({x1[p]:.17g}, {x2[p]:.17g})" in str(exc.value)


def _assert_factored_matches_dense(prob, rule, rank, rng):
    op, _ = sq.assemble_system(prob, rule, realization="factored")
    dense_op, _ = sq.assemble_system(prob, rule, realization="dense")
    assert op.realization == "factored"
    assert op.rank == rank
    v = rng.standard_normal(op.N)
    want = dense_op.matvec(v)
    assert np.max(np.abs(op.matvec(v) - want)) < 1e-13 * np.max(np.abs(want))


def test_rank_one_kernel_with_vanishing_first_row_stays_factored(rng):
    w = JacobiWeight(-0.5, -0.5)
    prob = FredholmProblem(
        w, w, SpaceWeight(0.0, 0.0, 0.0, 0.0), RHS["exp-sin"],
        kernel=lambda a1, a2, b1, b2: (1.0 + b1) * np.sin(a1 + a2),
    )
    rule = sq.antigauss_cubature(w, w, 8, 8)
    # collocation row 0 sits at y1 = -1, so the first pivot row is all zeros
    assert rule.nodes1[0] == -1.0
    _assert_factored_matches_dense(prob, rule, 1, rng)


def test_additive_kernel_stays_factored(rng):
    # |x1 - y1| + |x2 - y2| has rank n1 + n2 - 1; after the first crosses its
    # residual sits in rows that partial pivoting does not visit
    case = get_case("eq2")
    base = case.problem()
    prob = FredholmProblem(
        base.w1, base.w2, base.u, base.rhs, mult=base.mult,
        kernel=lambda a1, a2, b1, b2: np.abs(a1 - b1) + np.abs(a2 - b2),
    )
    rule = sq.gauss_cubature(case.w1, case.w2, 16, 16)
    _assert_factored_matches_dense(prob, rule, 31, rng)


def test_high_rank_kernel_falls_back_to_dense(monkeypatch):
    case = get_case("eq2")
    base = case.problem()
    prob = FredholmProblem(
        base.w1, base.w2, base.u, base.rhs, mult=base.mult,
        kernel=lambda a1, a2, b1, b2: np.hypot(a1 - b1, a2 - b2),
    )
    rule = sq.gauss_cubature(case.w1, case.w2, 16, 16)
    op, _ = sq.assemble_system(prob, rule, realization="factored")
    assert op.realization == "dense"
    assert op.rank is None
    dense_op, _ = sq.assemble_system(prob, rule, realization="dense")
    assert np.array_equal(op.to_dense(), dense_op.to_dense())

    monkeypatch.setattr(sq.fredholm, "_DENSE_LIMIT", 100)
    rule = sq.gauss_cubature(case.w1, case.w2, 32, 32)
    N = rule.npoints
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            sq.assemble_system(prob, rule, realization="factored")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N // 2


def test_dense_assembly_capped_for_every_solver(monkeypatch, capsys):
    monkeypatch.setattr(sq.fredholm, "_DENSE_LIMIT", 100)
    prob = get_case("eq3").problem()
    N = 16 * 16
    for solver in ("lu", "gmres"):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                solve_nystrom(prob, 16, 16, solver=solver)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * N * N // 2
    argv = ["solve", "--case", "eq3", "--n1", "16", "--n2", "16", "--solver", "lu"]
    assert cli_main(argv) == 3
    assert "numeric failure" in capsys.readouterr().err


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_row_sweeps_and_dense_assembly_stay_small():
    # a row sweep holds one block of about 2**16 entries (512 KB) plus its
    # kernel temporaries; dense assembly adds nothing to the kernel
    # evaluation's two N x N blocks
    case = get_case("eq2")
    prob = case.problem()
    rule = sq.antigauss_cubature(case.w1, case.w2, 256, 16, allow_uncontained=case.allow_uncontained)
    (op, _), peak = _traced_peak_mb(lambda: sq.assemble_system(prob, rule, realization="factored"))
    assert op.realization == "factored"
    assert peak <= 8.0
    assert _traced_peak_mb(lambda: sq.linsolve.condition_number_inf(op, cap=5000))[1] <= 4.0
    sol = solve_nystrom(prob, 256, 16, rulekind="antigauss", solver="gmres-fm",
                        allow_uncontained=case.allow_uncontained)
    assert _traced_peak_mb(lambda: sq.fredholm._lattice_values(sol))[1] <= 4.0
    # an 8 MB matrix (N = 1024)
    rule = sq.gauss_cubature(case.w1, case.w2, 64, 16)
    assert _traced_peak_mb(lambda: sq.assemble_system(prob, rule, realization="dense"))[1] <= 20.0


@pytest.mark.parametrize(
    "kernel",
    [get_case("eq2").problem().kernel, lambda a1, a2, b1, b2: np.sin(a1 + a2)],
    ids=["eq2", "ignores-the-point"],
)
def test_dense_assembly_matches_the_explicit_formula(kernel):
    case = get_case("eq2")
    base = case.problem()
    prob = FredholmProblem(base.w1, base.w2, base.u, base.rhs, kernel=kernel, mult=base.mult)
    rule = sq.gauss_cubature(case.w1, case.w2, 6, 5)
    op, _ = sq.assemble_system(prob, rule, realization="dense")
    x1, x2 = rule.nodes1, rule.nodes2
    u = prob.u.eval(x1, x2)
    K = prob.kernel_values(x1[None, :], x2[None, :], x1[:, None], x2[:, None])
    want = np.eye(u.size) - (u[:, None] * K) * (rule.weights / u)[None, :]
    assert np.array_equal(op.to_dense(), want)
    assert np.array_equal(np.signbit(op.to_dense()), np.signbit(want))


@pytest.mark.parametrize("n1", [64, 256])
def test_solve_output_independent_of_the_row_block_size(n1, capsys, monkeypatch):
    # the N-wide row sweeps (cross-factor probe, kappa, lattice) keep at
    # least 15 rows per block here; lattice values may move in their last
    # bits with the block size, but the printed xi and kappa digits must not
    argv = ["solve", "--case", "eq2", "--n1", str(n1), "--n2", "16"]
    outs = []
    for entries in (sq.linsolve._BLOCK_ENTRIES, 2**20):
        monkeypatch.setattr(sq.linsolve, "_BLOCK_ENTRIES", entries)
        assert cli_main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("rulekind", ["gauss", "antigauss"])
def test_lattice_values_independent_of_the_row_block_size(rulekind, monkeypatch):
    # the non-separable lattice sum adds each row in one order, whatever the
    # rows per block (1, 3, 7, 16 and the default, which holds more)
    sol = solve_nystrom(get_case("eq2").problem(), 16, 16, rulekind=rulekind)
    y1, y2 = _grid()
    default = sq.linsolve._BLOCK_ENTRIES
    want = interpolant_eval(sol, y1, y2, unweighted=False)[0]
    for rows in (1, 3, 7, 16):
        monkeypatch.setattr(sq.linsolve, "_BLOCK_ENTRIES", rows * sol.rule.npoints)
        got = interpolant_eval(sol, y1, y2, unweighted=False)[0]
        assert np.array_equal(got, want), rows
    assert default // sol.rule.npoints > 16


def test_separable_eval_matches_single_callable(rng):
    # the axis-factored contraction against the kernel as one callable, with
    # the same coefficients; the point count ends on a partial block
    base = get_case("eq4").problem()
    k1, k2 = base.kernel_pair
    single = FredholmProblem(
        base.w1, base.w2, base.u, base.rhs, mult=base.mult,
        kernel=lambda a1, a2, b1, b2: k1(a1, b1) * k2(a2, b2),
    )
    sol = solve_nystrom(base, 5, 7)
    twin = sq.fredholm.NystromSolution(
        single, sol.rule, sol.rulekind, sol.solver, sol.coeffs, None, None
    )
    npts = 2 * (sq.linsolve._BLOCK_ENTRIES // (2 * (5 + 7))) + 7
    y1, y2 = rng.uniform(-1.0, 1.0, (2, npts))
    fs, _ = interpolant_eval(sol, y1, y2, unweighted=False)
    fn, _ = interpolant_eval(twin, y1, y2, unweighted=False)
    assert np.max(np.abs(fs - fn)) <= 1e-13 * np.max(np.abs(fn))


@pytest.mark.parametrize("form", ["kernel", "kernel_pair"])
def test_interpolant_rejects_nonfinite_kernel_off_the_nodes(form):
    # finite at every node pair, so the system assembles and solves; the
    # interpolant must not turn the infinite value into a silent nan
    if form == "kernel":
        base = get_case("eq2").problem()
        prob = FredholmProblem(
            base.w1, base.w2, base.u, base.rhs, mult=base.mult,
            kernel=lambda x1, x2, y1, y2: np.where(y1 == 0.01, np.inf, base.kernel(x1, x2, y1, y2)),
        )
    else:
        base = get_case("eq3").problem()
        k1, k2 = base.kernel_pair
        prob = FredholmProblem(
            base.w1, base.w2, base.u, base.rhs, mult=base.mult,
            kernel_pair=(lambda x, y: np.where(y == 0.01, np.inf, k1(x, y)), k2),
        )
    sol = solve_nystrom(prob, 6, 6, solver="lu")
    fu, _ = interpolant_eval(sol, 0.3, 0.3)
    assert np.isfinite(fu)
    with pytest.raises(AssemblyError, match="point") as exc:
        interpolant_eval(sol, 0.01, 0.3)
    node = exc.value.node
    if form == "kernel":
        assert node[0] in sol.rule.nodes1 and node[1] in sol.rule.nodes2
    else:
        assert node[0] == 1 and node[1] in sol.rule.rule1.nodes


def test_separable_assembly_names_the_nonfinite_factor_entry():
    base = get_case("eq3").problem()
    k1, k2 = base.kernel_pair
    rule = sq.gauss_cubature(base.w1, base.w2, 4, 5)
    y = rule.rule2.nodes[2]
    prob = FredholmProblem(
        base.w1, base.w2, base.u, base.rhs, mult=base.mult,
        kernel_pair=(k1, lambda x, t: np.where(t == y, np.inf, k2(x, t))),
    )
    with pytest.raises(AssemblyError, match=f"point {y:.17g}") as exc:
        sq.assemble_system(prob, rule, realization="separable")
    assert exc.value.node[0] == 2


def test_assembly_needs_a_known_realization():
    prob = get_case("eq3").problem()
    rule = sq.gauss_cubature(prob.w1, prob.w2, 3, 3)
    with pytest.raises(ValueError, match="unknown realization"):
        sq.assemble_system(prob, rule, realization="auto")


def test_averaged_lattice_values_match_eval():
    prob = get_case("eq3").problem()
    avg = averaged_interpolant(
        solve_nystrom(prob, 6, 6), solve_nystrom(prob, 6, 6, rulekind="antigauss")
    )
    want, _ = avg.eval(*sq.fredholm._LATTICE, unweighted=False)
    assert np.array_equal(sq.fredholm._lattice_values(avg), want)


def test_averaged_interpolant_validation_and_degenerate_case():
    prob = get_case("zerok").problem()
    sg = solve_nystrom(prob, 4, 4)
    sa = solve_nystrom(prob, 4, 4, rulekind="antigauss")
    with pytest.raises(ValueError):
        averaged_interpolant(sg, solve_nystrom(prob, 6, 6, rulekind="antigauss"))
    avg = averaged_interpolant(sg, sa)
    y1, y2 = _grid(15)
    _, f = avg.eval(y1, y2)
    assert np.max(np.abs(f - prob.rhs(y1, y2))) < 1e-14
    br = bracketing_check(sg, sa)
    assert br.fraction_between is None
    assert set(np.unique(br.sign)) <= {-1, 0, 1}


def test_bracketing_check_on_eq1():
    case = get_case("eq1")
    prob = case.problem()
    sg = solve_nystrom(prob, 4, 4)
    sa = solve_nystrom(prob, 4, 4, rulekind="antigauss")
    br = bracketing_check(sg, sa, ref=case.exact)
    assert br.fraction_between > 0.99


# ---------------------------------------------------------------------------
# rank-structure truth oracles


def _sinc_sqrt(v):
    # sin(sqrt(v))/sqrt(v), entire in v; series guard near zero
    s = np.sqrt(np.maximum(v, 0.0))
    out = np.empty_like(s)
    nz = s > 1e-8
    out[nz] = np.sin(s[nz]) / s[nz]
    out[~nz] = 1.0 - v[~nz] / 6.0
    return out


def test_eq2_exact_solution_coefficients():
    # kernel sin(x1+x2)(1+x1+y2) has y-rank 2; the exact solution is
    # f = g + 0.3 (c1 + c2 y2) with (c1, c2) from a 2x2 moment system
    # I_a(F) = int w sin(x1+x2) (1+x1) F, I_b(F) = int w sin(x1+x2) F
    w1rule = gauss_rule(JacobiWeight(0.5, 0.5), 120)
    w2rule = gauss_rule(JacobiWeight(0.0, 0.0), 60)
    x1, lam1 = w1rule.nodes, w1rule.weights
    x2, lam2 = w2rule.nodes, w2rule.weights
    K = np.sin(x1[:, None] + x2[None, :])
    W = np.outer(lam1, lam2)
    one_plus = (1.0 + x1)[:, None]
    Ia_1 = float(np.sum(W * K * one_plus))
    Ia_x2 = float(np.sum(W * K * one_plus * x2[None, :]))
    Ib_1 = float(np.sum(W * K))
    Ib_x2 = float(np.sum(W * K * x2[None, :]))
    # the g moments need a lifted axis-1 rule: w1 sin(sqrt(1-x1)) phi(x1)
    # equals weight (1, 1/2) against the entire function sinc(sqrt(1-x1))
    lift = gauss_rule(JacobiWeight(1.0, 0.5), 60)
    t = lift.nodes
    g = lambda y1, y2: np.log(2.0 + y2) * np.sin(np.sqrt(1.0 - y1))
    g_onx2 = np.log(2.0 + x2)
    sin_lift = np.sin(t[:, None] + x2[None, :])
    WL = np.outer(lift.weights * _sinc_sqrt(1.0 - t), lam2)
    Ia_g = float(np.sum(WL * sin_lift * (1.0 + t)[:, None] * g_onx2[None, :]))
    Ib_g = float(np.sum(WL * sin_lift * g_onx2[None, :]))
    M = np.array([[1.0 - 0.3 * Ia_1, -0.3 * Ia_x2], [-0.3 * Ib_1, 1.0 - 0.3 * Ib_x2]])
    c = np.linalg.solve(M, [Ia_g, Ib_g])
    assert c[0] == pytest.approx(0.6796810167475095, rel=1e-12)
    assert c[1] == pytest.approx(0.2945843447329143, rel=1e-12)

    case = get_case("eq2")
    prob = case.problem()
    sol = solve_nystrom(prob, 64, 16, solver="gmres-fm")
    y1, y2 = _grid(50)
    uvals = prob.u.eval(y1, y2)
    fu, _ = interpolant_eval(sol, y1, y2, unweighted=False)
    fe = g(y1, y2) + 0.3 * (c[0] + c[1] * y2)
    xi_true = np.max(np.abs(fu - fe * uvals)) / np.max(np.abs(fe * uvals))
    assert xi_true == pytest.approx(3.7584e-08, rel=2e-3)


def test_eq4_exact_solution_coefficients():
    # kernel (x2+y2)|cos(1+x1)|^{9/2} has y-rank 2; exact solution
    # f = g + (1/7)(C1 + C2 y2); the x1 moments split at the kink
    kink = np.pi / 2 - 1.0
    gl = gauss_rule(JacobiWeight(0.0, 0.0), 400)
    ch2 = gauss_rule(JacobiWeight(0.5, 0.5), 80)

    def J(phi):
        S = lambda x: np.abs(np.cos(1.0 + x)) ** 4.5
        a, b = -1.0, kink
        x = 0.5 * (b - a) * gl.nodes + 0.5 * (a + b)
        v1 = 0.5 * (b - a) * np.sum(gl.weights * (1 - x) ** -0.5 * S(x) * phi(x))
        tmax = np.sqrt(1.0 - kink)
        t = 0.5 * tmax * (gl.nodes + 1.0)
        xs = 1.0 - t * t
        v2 = 0.5 * tmax * np.sum(gl.weights * 2.0 * S(xs) * phi(xs))
        return v1 + v2

    def M(psi):
        return float(np.sum(ch2.weights * psi(ch2.nodes)))

    J1 = J(np.ones_like)
    Je = J(np.exp)
    A = np.array([
        [1.0, -(1 / 7) * J1 * M(lambda x: x * x)],
        [-(1 / 7) * J1 * M(lambda x: np.ones_like(x)), 1.0],
    ])
    C = np.linalg.solve(A, [Je * M(lambda x: x * np.sin(x)), 0.0])
    assert C[0] == pytest.approx(0.0966716940, rel=1e-8)
    assert C[1] == pytest.approx(0.0097354177, rel=1e-8)

    case = get_case("eq4")
    prob = case.problem()
    sol = solve_nystrom(prob, 16, 16, solver="gmres-sk", allow_uncontained=True)
    y1, y2 = _grid(50)
    uvals = prob.u.eval(y1, y2)
    fu, _ = interpolant_eval(sol, y1, y2, unweighted=False)
    fe = np.exp(y1) * np.sin(y2) + (1 / 7) * (C[0] + C[1] * y2)
    xi_true = np.max(np.abs(fu - fe * uvals)) / np.max(np.abs(fe * uvals))
    assert xi_true == pytest.approx(2.4114e-08, rel=2e-3)
