"""Weighted Nystrom solver: model validation, interpolants, oracles.

The two rank-structure oracles at the bottom freeze independently derived
exact solutions (small moment systems solved by lifted quadrature) and pin
the solver's true error against them.  They never touch the stored tables
or the cached reference solves, so they separate "library broke" from
"stored value disagrees".
"""

import functools
import math
import re
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

from oracles import manufactured_problem


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


def test_relative_error_takes_u_from_the_solution():
    # a plain callable is weighted with the u of the solution beside it
    case = get_case("eq3")
    sol = solve_nystrom(case.problem(), 8, 8, solver=case.solver)
    assert relative_error(sol, case.exact) == relative_error(sol, case.exact, u=case.u)
    assert relative_error(case.exact, sol) == relative_error(case.exact, sol, u=case.u)


def test_relative_error_rejects_an_identically_zero_reference():
    sol = solve_nystrom(get_case("eq1").problem(), 4, 4)
    with pytest.raises(ValueError, match="reference is identically zero on the comparison grid"):
        relative_error(sol, np.zeros(sq.fredholm._LATTICE[0].shape))


def test_plain_value_where_the_space_weight_vanishes_raises():
    # eq2's u has the factor 1 - y1: the weighted value extends to y1 = 1,
    # the plain value is not defined there
    case = get_case("eq2")
    sol = solve_nystrom(case.problem(), 4, 4, solver=case.solver)
    fu, _ = interpolant_eval(sol, 1.0, 0.25, unweighted=False)
    assert fu == 0.0
    with pytest.raises(ValueError, match=re.escape(
        "plain value requested at (1, 0.25) where the space weight vanishes"
    )):
        interpolant_eval(sol, np.array([0.5, 1.0]), 0.25)


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
    assert condition_number_inf(op) == pytest.approx(condition_number_inf(dense_op), rel=1e-12)
    return op


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
    op = _assert_factored_matches_dense(prob, rule, 31, rng)
    # no two collocation points share a row of U: kappa sweeps all N rows
    assert len(sq.linsolve._distinct_rows(op._U)[2]) == op.N


# ---------------------------------------------------------------------------
# kernels that declare their y-interpolation nodes


def _with_nodes(kernel, t1, t2):
    """The kernel as a new callable that declares the y nodes (t1, t2)."""

    def declared(x1, x2, y1, y2):
        return kernel(x1, x2, y1, y2)

    declared.y_nodes = (np.array(t1, dtype=float), np.array(t2, dtype=float))
    return declared


def _undeclared(kernel):
    """The kernel as a plain callable, which declares nothing."""
    return lambda x1, x2, y1, y2: kernel(x1, x2, y1, y2)


def _eq2_with_kernel(kernel):
    base = get_case("eq2").problem()
    return FredholmProblem(base.w1, base.w2, base.u, base.rhs, kernel=kernel, mult=base.mult)


def _eq2_rule(n1, n2, rulekind):
    case = get_case("eq2")
    if rulekind == "gauss":
        return sq.gauss_cubature(case.w1, case.w2, n1, n2)
    return sq.antigauss_cubature(case.w1, case.w2, n1, n2, allow_uncontained=case.allow_uncontained)


@pytest.mark.parametrize("solver", ["gmres-fm", "lu"])
def test_misdeclared_kernel_raises_before_any_solve(solver, monkeypatch):
    # sin(x1 + x2)(1 + x1 + y2) is affine in y2, so one node in y2 is too few
    prob = _eq2_with_kernel(_with_nodes(get_case("eq2").problem().kernel, [0.0], [0.0]))

    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran on a wrongly declared kernel")

    monkeypatch.setattr(sq.fredholm, "gmres", no_solve)
    monkeypatch.setattr(sq.fredholm, "lu_solve", no_solve)
    with pytest.raises(AssemblyError, match="declared y nodes") as exc:
        solve_nystrom(prob, 16, 16, solver=solver)
    assert exc.value.node is not None


def test_malformed_declaration_rejected():
    kernel = get_case("eq2").problem().kernel
    for t1, t2 in (([0.0], [0.0, 0.0]), ([0.0], []), ([np.nan], [0.0, 1.0])):
        with pytest.raises(ValueError, match="y_nodes"):
            _eq2_with_kernel(_with_nodes(kernel, t1, t2))


def test_declared_kernel_never_calls_aca(monkeypatch):
    def no_aca(*args, **kwargs):
        raise AssertionError("cross approximation ran on a declared kernel")

    monkeypatch.setattr(sq.linsolve, "aca", no_aca)
    prob = get_case("eq2").problem()
    for rulekind in ("gauss", "antigauss"):
        sol = solve_nystrom(prob, 64, 16, rulekind=rulekind, solver="gmres-fm")
        assert sol.op.realization == "factored"
        assert sol.op.rank == 2
        assert sol.iterations == 3


def test_declared_lattice_sum_evaluates_the_kernel_at_the_node_pairs_only():
    base = get_case("eq2").problem()
    count = [0]

    @functools.wraps(base.kernel)
    def counting(*args):
        out = base.kernel(*args)
        count[0] += np.size(out)
        return out

    prob = _eq2_with_kernel(counting)
    assert prob.kernel_nodes is not None
    sol = solve_nystrom(prob, 64, 16, solver="gmres-fm")
    N = sol.rule.npoints
    count[0] = 0
    sq.fredholm._lattice_values(sol)
    # P N values for P = 2 node pairs, where an undeclared kernel takes 2500 N
    assert count[0] == 2 * N


@pytest.mark.parametrize("rulekind", ["gauss", "antigauss"])
@pytest.mark.parametrize("size", [(16, 16), (64, 16)], ids=["16x16", "64x16"])
@pytest.mark.parametrize("declared", [True, False], ids=["declared", "aca"])
def test_eq2_factors_match_the_dense_matvec(declared, size, rulekind, rng):
    # cross factors take kernel columns, constant in y1 here as well, so
    # their U repeats rows like the declared one: kappa sweeps n2 (+1) rows
    base = get_case("eq2").problem()
    prob = _eq2_with_kernel(base.kernel if declared else _undeclared(base.kernel))
    assert (prob.kernel_nodes is not None) == declared
    op = _assert_factored_matches_dense(prob, _eq2_rule(*size, rulekind), 2, rng)
    assert len(sq.linsolve._distinct_rows(op._U)[2]) == size[1] + (rulekind == "antigauss")


def test_declared_eq2_kappa_sweeps_the_distinct_rows_only(monkeypatch):
    # sin(x1+x2)(1+x1+y2) is constant in y1, so U has one row per y2 node:
    # 17 rows of the companion system's 4369 columns, not 4369
    op, _ = sq.assemble_system(get_case("eq2").problem(), _eq2_rule(256, 16, "antigauss"),
                               realization="factored")
    swept = []
    row_blocks = sq.linsolve.row_blocks

    def spy(nrows, ncols):
        swept.append((nrows, ncols))
        return row_blocks(nrows, ncols)

    monkeypatch.setattr(sq.linsolve, "row_blocks", spy)
    condition_number_inf(op, cap=op.N)
    assert swept == [(17, 4369), (17, 4369)]


def test_factored_condition_number_cap_counts_its_work(monkeypatch):
    # a factored system's cap bounds K N r, checked before the inverse of
    # its r x r core and before either row sweep
    case = get_case("eq2")
    rule = sq.gauss_cubature(case.w1, case.w2, 16, 16)
    op, _ = sq.assemble_system(case.problem(), rule, realization="factored")
    work = 16 * op.N * op.rank  # eq2's U has one distinct row per y2 node
    cap = math.isqrt(work)
    assert condition_number_inf(op, cap=cap + 1) > 1.0

    def refuse(*args):
        raise AssertionError("kappa started above its cap")

    monkeypatch.setattr(sq.linsolve.np.linalg, "inv", refuse)
    monkeypatch.setattr(sq.linsolve, "row_blocks", refuse)
    msg = f"16 distinct rows of rank {op.rank} ({work} entries) exceeds cap {cap}**2"
    with pytest.raises(CapacityError, match=re.escape(msg)):
        condition_number_inf(op, cap=cap)


@pytest.mark.parametrize("rulekind", ["gauss", "antigauss"])
def test_declared_lattice_sum_matches_the_pointwise_sum(rulekind):
    # the same coefficients summed over every (point, node) pair, as for an
    # undeclared kernel
    base = get_case("eq2").problem()
    sol = solve_nystrom(base, 64, 16, rulekind=rulekind)
    plain = _eq2_with_kernel(_undeclared(base.kernel))
    twin = sq.fredholm.NystromSolution(
        plain, sol.rule, sol.rulekind, sol.solver, sol.coeffs, None, None
    )
    want = sq.fredholm._lattice_values(twin)
    got = sq.fredholm._lattice_values(sol)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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


def test_undeclared_lattice_values_independent_of_the_row_block_size(monkeypatch):
    # the pointwise sum of an undeclared kernel adds each row in one order,
    # whatever the rows per block
    base = get_case("eq2").problem()
    prob = _eq2_with_kernel(_undeclared(base.kernel))
    sol = solve_nystrom(prob, 16, 16, solver="gmres-fm")
    y1, y2 = _grid()
    want = interpolant_eval(sol, y1, y2, unweighted=False)[0]
    for rows in (1, 3, 7, 16):
        monkeypatch.setattr(sq.linsolve, "_BLOCK_ENTRIES", rows * sol.rule.npoints)
        got = interpolant_eval(sol, y1, y2, unweighted=False)[0]
        assert np.array_equal(got, want), rows


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


def _separable_solution(case, solver, rulekind, kernel_pair=None):
    c = get_case(case)
    prob = c.problem()
    if kernel_pair is not None:
        prob = FredholmProblem(
            prob.w1, prob.w2, prob.u, prob.rhs, kernel_pair=kernel_pair, mult=prob.mult
        )
    return solve_nystrom(
        prob, 8, 6, rulekind=rulekind, solver=solver, allow_uncontained=c.allow_uncontained
    )


_GRID_CASES = [
    ("eq1", "lu", "gauss"), ("eq3", "gmres-sk", "antigauss"),
    ("eq4", "gmres-sk", "gauss"), ("eq4", "gmres-sk", "antigauss"),
]


@pytest.mark.parametrize("case,solver,rulekind", _GRID_CASES)
def test_grid_lattice_sum_matches_the_row_blocks(case, solver, rulekind):
    # the tensor sum on the grid against the row blocks at the same points,
    # passed flat; the two add in different orders
    sol = _separable_solution(case, solver, rulekind)
    y1, y2 = sq.fredholm._LATTICE
    grid, _ = interpolant_eval(sol, y1, y2, unweighted=False)
    flat, _ = interpolant_eval(sol, y1.ravel(), y2.ravel(), unweighted=False)
    flat = flat.reshape(grid.shape)
    eps = np.finfo(float).eps
    assert np.all(np.abs(grid - flat) <= 8 * eps * np.max(np.abs(flat), axis=0))


@pytest.mark.parametrize("case,solver,rulekind", _GRID_CASES)
def test_lattice_values_take_the_axis_kernels_on_the_axis_lines_only(case, solver, rulekind):
    # 50 (n1 + n2) axis-kernel values per solution, not 2500 (n1 + n2)
    seen = []

    def counted(k):
        def f(x, y):
            seen.append(np.broadcast(x, y).size)
            return k(x, y)
        return f

    sol = _separable_solution(
        case, solver, rulekind, tuple(map(counted, get_case(case).problem().kernel_pair))
    )
    seen.clear()
    sq.fredholm._lattice_values(sol)
    assert sum(seen) == 50 * (sol.rule.rule1.npoints + sol.rule.rule2.npoints)


def test_outer_product_points_match_the_full_lattice_bit_for_bit():
    sol = _separable_solution("eq3", "gmres-sk", "gauss")
    pts = sq.fredholm._LATTICE[0][:, 0]
    fu, f = sol.eval(*sq.fredholm._LATTICE)
    fu_outer, f_outer = sol.eval(pts[:, None], pts[None, :])
    assert np.array_equal(fu, fu_outer) and np.array_equal(f, f_outer)


@pytest.mark.parametrize("rulekind", ["gauss", "antigauss"])
@pytest.mark.parametrize("case", ["eq1", "eq2", "eq3", "eq4"])
def test_grid_space_weight_takes_its_axis_values_bit_for_bit(case, rulekind, monkeypatch):
    c = get_case(case)
    sol = solve_nystrom(c.problem(), 8, 6, rulekind=rulekind, solver=c.solver,
                        allow_uncontained=c.allow_uncontained)
    # m + n axis values of u on an m x n grid; the rule's own nodes take theirs too
    y1, y2 = np.linspace(-0.9, 0.8, 7), np.linspace(-0.7, 0.6, 5)
    seen = []
    eval_axis = SpaceWeight.eval_axis

    def spy(self, axis, x):
        seen.append((axis, np.array(x, dtype=float)))
        return eval_axis(self, axis, x)

    monkeypatch.setattr(SpaceWeight, "eval_axis", spy)
    interpolant_eval(sol, y1[:, None], y2[None, :])
    on_grid = [(axis, x.size) for axis, x in seen if np.all(np.isin(x, (y1, y2)[axis - 1]))]
    assert on_grid == [(1, 7), (2, 5)]
    monkeypatch.undo()

    # the same bits, signs of zero included, as u evaluated point by point
    fu, _ = interpolant_eval(sol, *sq.fredholm._LATTICE, unweighted=False)
    monkeypatch.setattr(sq.fredholm, "_weight_values",
                        lambda u, y1b, y2b, grid: u.eval(y1b.ravel(), y2b.ravel()))
    want, _ = interpolant_eval(sol, *sq.fredholm._LATTICE, unweighted=False)
    assert np.array_equal(fu, want) and np.array_equal(np.signbit(fu), np.signbit(want))


@pytest.mark.parametrize("rulekind", ["gauss", "antigauss"])
@pytest.mark.parametrize("declared", [True, False], ids=["declared", "undeclared"])
def test_nonseparable_sum_takes_u_at_the_rule_nodes_from_its_axis_values(
    declared, rulekind, monkeypatch
):
    # (lambda / u) a needs u at the N rule nodes: from its n1 + n2 axis
    # values, as assembly forms d, never from N point values
    kernel = get_case("eq2").problem().kernel
    prob = _eq2_with_kernel(kernel if declared else lambda *x: kernel(*x))
    assert (prob.kernel_nodes is not None) == declared
    sol = solve_nystrom(prob, 6, 5, rulekind=rulekind, solver="lu")
    n1, n2 = sol.rule.rule1.npoints, sol.rule.rule2.npoints
    seen = []
    eval_axis = SpaceWeight.eval_axis

    def spy(self, axis, x):
        seen.append((axis, np.size(x)))
        return eval_axis(self, axis, x)

    monkeypatch.setattr(SpaceWeight, "eval_axis", spy)
    interpolant_eval(sol, np.linspace(-0.9, 0.8, 7)[:, None], np.linspace(-0.7, 0.6, 4)[None, :])
    assert sorted(seen) == sorted([(1, 7), (2, 4), (1, n1), (2, n2)])


@pytest.mark.parametrize("axis", [1, 2])
def test_grid_lattice_sum_rejects_a_nonfinite_axis_kernel(axis):
    # finite at every node pair, so the system assembles and solves
    pts = sq.fredholm._LATTICE[0][:, 0]
    pair = list(get_case("eq3").problem().kernel_pair)
    k = pair[axis - 1]
    pair[axis - 1] = lambda x, y: np.where(y == pts[7], np.inf, k(x, y))
    sol = _separable_solution("eq3", "lu", "gauss", tuple(pair))
    with pytest.raises(AssemblyError, match=f"axis-{axis} .* point {pts[7]:.17g}") as exc:
        sq.fredholm._lattice_values(sol)
    nodes = (sol.rule.rule1, sol.rule.rule2)[axis - 1].nodes
    assert exc.value.node[0] == axis and exc.value.node[1] in nodes


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


@pytest.mark.parametrize("realization", ["separable", "dense"])
def test_assembly_names_the_first_nonfinite_rhs_node(realization):
    # two bad nodes whose order with axis 1 fastest, (3, 1) before (1, 2),
    # differs from their row-major order on the n1 x n2 grid
    base = get_case("eq3").problem()
    rule = sq.gauss_cubature(base.w1, base.w2, 5, 4)
    x1, x2 = rule.rule1.nodes, rule.rule2.nodes

    def rhs(y1, y2):
        bad = ((y1 == x1[3]) & (y2 == x2[1])) | ((y1 == x1[1]) & (y2 == x2[2]))
        return np.where(bad, np.nan, base.rhs(y1, y2))

    prob = FredholmProblem(
        base.w1, base.w2, base.u, rhs, kernel_pair=base.kernel_pair, mult=base.mult
    )
    with pytest.raises(sq.EvaluationError, match="right-hand side") as exc:
        sq.assemble_system(prob, rule, realization=realization)
    assert exc.value.node == (x1[3], x2[1])


@pytest.mark.parametrize("solver", ["gmres-sk", "stein"])
def test_separable_solve_builds_no_flat_rule_arrays(solver):
    sol = solve_nystrom(get_case("eq3").problem(), 16, 16, solver=solver)
    sol.eval(0.1, 0.2)
    assert sol.solver == solver
    assert "_flat" not in sol.rule.__dict__


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
# manufactured polynomial problems


# Every solve below integrates w k f exactly, so xi is rounding only: the
# systems have kappa_inf below 100 and GMRES stops at a relative residual
# of 1e-14.  The ROADMAP prototype read at most 4.3e-14 over 12 draws.
_EXACT_XI = 1e-13


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("declared, solvers", [
    (False, ("lu", "gmres", "gmres-sk", "stein")),
    (True, ("lu", "gmres", "gmres-fm")),
], ids=["pair", "declared"])
def test_manufactured_polynomial_solution_is_reproduced(seed, declared, solvers):
    # n = 6 integrates the degree-5 integrand exactly; n = 2 (exact to
    # degree 3) must fail the same bound, or the check could not fail
    prob, f = manufactured_problem(np.random.default_rng(seed), declared)
    for solver in solvers:
        for rulekind in ("gauss", "antigauss"):
            xi = {
                n: relative_error(solve_nystrom(prob, n, n, rulekind=rulekind, solver=solver), f)
                for n in (6, 2)
            }
            assert xi[6] < _EXACT_XI, (solver, rulekind, xi[6])
            assert not xi[2] < _EXACT_XI, (solver, rulekind, xi[2])


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
