"""Stored tables: reproduction runs and the tolerance policy."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from squarequad import testproblems as tp
from squarequad.cubature import CubatureRule2D, antigauss_cubature, gauss_cubature
from squarequad.errors import CapacityError
from squarequad.fredholm import _lattice_values, solve_nystrom
from squarequad.testproblems import Expected, check_value, get_case, run_case

from oracles import integral_1d


def _report_message(report):
    return "\n".join(report.lines())


def test_tolerance_policy_errors():
    e = Expected(1.0e-6, "error", "table1")
    assert check_value(1.9e-6, e)
    assert check_value(0.51e-6, e)
    assert not check_value(2.1e-6, e)
    assert not check_value(-1.0e-6, e)  # sign mismatch
    tiny = Expected(3.0e-15, "error", "table1")
    assert check_value(-4.9e-15, tiny)  # below floor: magnitude only
    assert not check_value(6.0e-15, tiny)


def test_tolerance_policy_cond_and_iters():
    c = Expected(19.016, "cond", "table3")
    assert check_value(19.016 * (1 + 4e-3), c)
    assert not check_value(19.016 * (1 + 6e-3), c)
    it = Expected(3, "iters", "table4")
    assert check_value(3.0, it)
    assert not check_value(4.0, it)


def test_case_registry_lookup():
    assert set(tp.list_cases()) >= {"cub1", "cub2", "eq1", "eq2", "eq3", "eq4"}
    with pytest.raises(ValueError):
        get_case("nope")
    with pytest.raises(ValueError):
        run_case("eq1", sizes=[(3, 3)])


def test_cubature_table_cub1():
    report = run_case("cub1")
    assert report.ok, _report_message(report)


def test_cubature_table_cub2():
    report = run_case("cub2")
    assert report.ok, _report_message(report)
    # the two rule errors disagree in sign on every stored row
    rows = {(r.size, r.metric): r.computed for r in report.rows}
    for size in get_case("cub2").sizes():
        rg, ra = rows[(size, "r_g")], rows[(size, "r_a")]
        if abs(rg) > 5e-15 or abs(ra) > 5e-15:
            assert rg * ra < 0, size


def test_equation_table_eq1():
    report = run_case("eq1")
    assert report.ok, _report_message(report)


def test_equation_table_eq3():
    report = run_case("eq3")
    assert report.ok, _report_message(report)


@pytest.mark.known_conflict
def test_equation_table_eq2():
    # stored values reproduce the published table; the solver is verified
    # against an independent exact-solution oracle (see test_fredholm), so
    # the xi/kappa rows here document a real disagreement and stay red.
    report = run_case("eq2")
    iters_rows = [r for r in report.rows if r.metric == "iters"]
    assert iters_rows and all(r.ok for r in iters_rows), _report_message(report)
    assert report.ok, _report_message(report)


@pytest.mark.known_conflict
def test_equation_table_eq4():
    # same situation as eq2: independently verified solver, stored table
    # unmatched; kept red on purpose.
    report = run_case("eq4")
    assert report.ok, _report_message(report)


def test_eq2_iteration_counts_exact():
    report = run_case("eq2", metrics=["iters"])
    assert report.ok, _report_message(report)
    assert all(int(round(r.computed)) == 3 for r in report.rows)


def _disk_hits(monkeypatch):
    """Whether each disk read of the cache hit, one entry per read."""
    hits = []
    disk_get = tp._disk_get

    def spy(case_id, key):
        hit = disk_get(case_id, key)
        hits.append(hit is not None)
        return hit

    monkeypatch.setattr(tp, "_disk_get", spy)
    return hits


def _cub1_values():
    tp.clear_memo()
    return [r.computed for r in run_case("cub1", sizes=[(4, 8)]).rows]


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("SQUAREQUAD_CACHE", str(tmp_path))
    path = tmp_path / "case-cub1.npz"
    hits = _disk_hits(monkeypatch)
    first = _cub1_values()
    assert list(tmp_path.iterdir()) == [path]
    assert _cub1_values() == first
    assert hits == [False, True]

    # a file written by other code is never read: another key misses, and
    # the store replaces the file in place
    other = np.frombuffer(b"other code", dtype=np.uint8)
    monkeypatch.setattr(tp, "_code_key", lambda: other)
    assert _cub1_values() == first
    assert hits[2:] == [False]
    assert list(tmp_path.iterdir()) == [path]
    with np.load(path) as z:
        assert np.array_equal(z["code"], other)
    tp.clear_memo()


def test_case_file_holds_the_code_key_and_one_value(tmp_path, monkeypatch):
    monkeypatch.setenv("SQUAREQUAD_CACHE", str(tmp_path))
    path = tp._cache_file("cub1")
    assert tp._disk_get("cub1", "a") is None  # no file yet
    tp._disk_store("cub1", "a", 1.5)
    tp._disk_store("cub1", "b", 2.5)  # replaces the file: one value per case
    with np.load(path) as z:
        assert z.files == ["code", "b"]
    assert list(tmp_path.iterdir()) == [path]
    assert (tp._disk_get("cub1", "a"), tp._disk_get("cub1", "b")) == (None, 2.5)


def test_truncated_disk_cache_regenerates(tmp_path, monkeypatch):
    monkeypatch.setenv("SQUAREQUAD_CACHE", str(tmp_path))
    path = tmp_path / "case-cub1.npz"
    hits = _disk_hits(monkeypatch)
    first = _cub1_values()
    path.write_bytes(path.read_bytes()[:100])
    assert _cub1_values() == first
    assert _cub1_values() == first
    assert hits == [False, False, True]
    assert list(tmp_path.iterdir()) == [path]
    tp.clear_memo()


def test_no_openssl_in_any_pass(tmp_path):
    # the cache compares its key byte for byte; hashlib would map OpenSSL
    # (about 3.5 MB of RSS) into every process that imports the package
    script = """
import sys
import squarequad.cli
from squarequad import testproblems as tp
tp.run_case("eq2", sizes=[(16, 16)])
for _ in "cold", "warm":
    tp.clear_memo()
    tp.run_case("cub1", sizes=[(4, 8)])
assert tp._cache_file("cub1").exists()
assert "_hashlib" not in sys.modules, "OpenSSL is loaded"
"""
    import squarequad

    src = Path(squarequad.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), SQUAREQUAD_CACHE=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_table_row_evaluates_each_solution_once(interpolant_evals):
    # xi_g, xi_a and xi_avg all read the two solutions' lattice values
    tp.clear_memo()
    tp._ref_grid(get_case("eq3"))
    interpolant_evals.clear()
    run_case("eq3", sizes=[(16, 16)])
    assert sorted(interpolant_evals) == ["antigauss", "gauss"]


def _bracketing(case):
    return tp._row_values(
        case, (8, 8), {"lattice", "gap_half_rel", "fraction_between", "sign_changes"}, "gmres-sk"
    )


def test_row_path_reports_the_bracketing_values():
    # with a known solution: the share of lattice points between the two
    # interpolants and the sign changes of their gap along y2, but no half-gap
    case = get_case("eq3")
    vals = _bracketing(case)
    vg, va = vals["lattice"]
    ref = tp._ref_grid(case)
    assert "gap_half_rel" not in vals
    between = (np.minimum(vg, va) <= ref) & (ref <= np.maximum(vg, va))
    assert vals["fraction_between"] == float(np.mean(between)) == 1.0
    changes = sum(int(a != b) for row in np.sign(vg - va) for a, b in zip(row, row[1:]))
    assert vals["sign_changes"] == changes

    # without one: the half-gap relative to the mean, and no share
    blind = _bracketing(replace(case, exact=None))
    assert blind["fraction_between"] == "n/a"
    assert blind["sign_changes"] == changes
    gap = 0.5 * np.max(np.abs(vg - va)) / np.max(np.abs(0.5 * (vg + va)))
    assert blind["gap_half_rel"] == gap


def _half_gap_row(case_id, size):
    """fraction_between, and xi_g and xi_a over the half-gap, of a stored row."""
    case = get_case(case_id)
    vals = tp._row_values(case, size, {"lattice", "xi_g", "xi_a", "fraction_between"}, case.solver)
    vg, va = vals["lattice"]
    half_gap = 0.5 * np.max(np.abs(vg - va)) / np.max(np.abs(0.5 * (vg + va)))
    return vals["fraction_between"], vals["xi_g"] / half_gap, vals["xi_a"] / half_gap


# rounding noise: its interpolants bracket the solution at 24 % of the lattice
_HALF_GAP_NOISE_ROW = ("eq1", (8, 8))
_HALF_GAP_ROWS = [
    (case_id, size)
    for case_id in ("eq1", "eq2", "eq3", "eq4")
    for size, _ in get_case(case_id).rows
    if max(size) <= 128 and (case_id, size) != _HALF_GAP_NOISE_ROW
]


@pytest.mark.parametrize(
    "case_id, size", _HALF_GAP_ROWS, ids=[f"{c}-{n1}x{n2}" for c, (n1, n2) in _HALF_GAP_ROWS]
)
def test_half_gap_bounds_the_error_where_the_interpolants_bracket(case_id, size):
    # where f lies between f_G and f_A, |f - f_G| and |f - f_A| are at most
    # |f_A - f_G|: twice the half-gap, up to the two normalizations
    between, xi_g, xi_a = _half_gap_row(case_id, size)
    assert between == 1.0
    assert xi_g <= 2.0 and xi_a <= 2.0, (xi_g, xi_a)


def test_half_gap_bound_fails_on_the_noise_row():
    between, _, xi_a = _half_gap_row(*_HALF_GAP_NOISE_ROW)
    assert between < 0.5
    assert xi_a > 2.0


def test_run_case_names_a_kappa_above_the_cap():
    # solve prints "skipped" for it; a table row has no value to compare
    with pytest.raises(CapacityError, match=re.escape(
        "case 'eq2' at n=(256, 16): kappa_a is above the condition-number cap"
    )):
        run_case("eq2", sizes=[(256, 16)], metrics=["kappa_a"], solver="gmres")


def _count_solves(monkeypatch):
    kinds = []
    solve = tp.solve_nystrom

    def spy(problem, n1, n2, rulekind="gauss", **kwargs):
        kinds.append(rulekind)
        return solve(problem, n1, n2, rulekind=rulekind, **kwargs)

    monkeypatch.setattr(tp, "solve_nystrom", spy)
    return kinds


def test_table_row_solves_each_rule_once(monkeypatch):
    # xi, kappa and iters of one row share one gauss and one antigauss solve
    tp.clear_memo()
    tp._ref_grid(get_case("eq2"))
    kinds = _count_solves(monkeypatch)
    run_case("eq2", sizes=[(16, 16)])
    assert sorted(kinds) == ["antigauss", "gauss"]


def test_row_solutions_do_not_outlive_the_row(monkeypatch):
    refs = []
    solve = tp.solve_nystrom

    def spy(*args, **kwargs):
        sol = solve(*args, **kwargs)
        refs.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(tp, "solve_nystrom", spy)
    run_case("eq1", sizes=[(2, 2)])
    assert len(refs) == 2
    assert all(ref() is None for ref in refs)


def test_row_drops_each_solution_before_the_next_solve(monkeypatch):
    alive_at_solve = []
    refs = []
    solve = tp.solve_nystrom

    def spy(*args, **kwargs):
        alive_at_solve.append(sum(ref() is not None for ref in refs))
        sol = solve(*args, **kwargs)
        refs.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(tp, "solve_nystrom", spy)
    run_case("eq1", sizes=[(2, 2)])
    assert alive_at_solve == [0, 0]


@pytest.mark.parametrize("key, kind", [("kappa_a", "antigauss"), ("kappa_g", "gauss")])
def test_kappa_row_solves_only_the_kind_it_reads(monkeypatch, key, kind):
    kinds = _count_solves(monkeypatch)
    report = run_case("eq1", sizes=[(2, 2)], metrics=[key])
    assert kinds == [kind]
    assert [r.metric for r in report.rows] == [key]


def test_each_wanted_kappa_costs_one_condition_number(monkeypatch):
    # no kappa is cached: a row that runs again computes its kappa again
    calls = []
    kappa = tp.condition_number_inf

    def spy(sol):
        calls.append(sol.rulekind)
        return kappa(sol)

    monkeypatch.setattr(tp, "condition_number_inf", spy)
    for _ in range(2):
        run_case("eq1", sizes=[(2, 2)], metrics=["kappa_g", "kappa_a"])
    assert calls == ["antigauss", "gauss"] * 2


def test_clear_memo_empties_every_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SQUAREQUAD_CACHE", str(tmp_path))
    caches = (tp._ref_integral, tp._ref_grid, tp._degenerate_coeffs)
    run_case("cub1", sizes=[(4, 8)])
    tp._ref_grid(get_case("eq2"))
    assert all(c.cache_info().currsize > 0 for c in caches)
    tp.clear_memo()
    assert [c.cache_info().currsize for c in caches] == [0, 0, 0]
    hits = _disk_hits(monkeypatch)
    run_case("cub1", sizes=[(4, 8)])
    assert hits == [True]
    tp.clear_memo()


@pytest.mark.parametrize("solver", ["gmres-sk", "stein"])
def test_separable_row_peak_memory(solver):
    # one solution of N = 129**2 unknowns alive at a time, and neither the
    # rule's flat arrays nor flat weight temporaries: 21.0 and 17.5 x 8N
    # bytes when both solutions and the flat arrays were alive
    case = get_case("eq3")
    n = 128
    # QL under tracemalloc is slow: the rules and the reference lattice
    # are built outside the traced region
    gauss_cubature(case.w1, case.w2, n, n)
    antigauss_cubature(case.w1, case.w2, n, n)
    tp._ref_grid(case)
    tracemalloc.start()
    try:
        run_case("eq3", sizes=[(n, n)], solver=solver)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * (n + 1) ** 2


def test_iteration_row_skips_the_antigauss_solve(monkeypatch):
    tp.clear_memo()
    tp._ref_grid(get_case("eq2"))
    kinds = _count_solves(monkeypatch)
    run_case("eq2", sizes=[(16, 16)], metrics=["iters"])
    assert kinds == ["gauss"]


def test_cubature_row_applies_each_rule_once(monkeypatch):
    case = get_case("cub1")
    tp._ref_integral(case)
    kinds = []
    apply = CubatureRule2D.apply

    def spy(rule, f):
        kinds.append(rule.kind)
        return apply(rule, f)

    monkeypatch.setattr(CubatureRule2D, "apply", spy)
    report = run_case("cub1", sizes=[(8, 8)])
    assert [r.metric for r in report.rows] == ["r_g", "r_a", "r_avg", "r_est"]
    assert sorted(kinds) == ["antigauss", "gauss"]


def test_rank2_coefficients_match_the_oracle_literals():
    # the test_fredholm oracles state f = g + mult (c1 + c2 y2); the library
    # stores the values c00 = mult c1 and c01 = mult (c1 + c2) of that
    # correction at the interpolation nodes y2 = 0 and 1
    for case_id, want, rel in (
        ("eq2", (0.6796810167475095, 0.2945843447329143), 1e-13),
        ("eq4", (0.0966716940, 0.0097354177), 1e-8),
    ):
        mult = get_case(case_id).mult
        t1, t2, coeffs = tp._degenerate_coeffs(case_id)
        assert list(t1) == [0.0] and list(t2) == [0.0, 1.0], case_id
        (c00, c01), = coeffs
        got = np.array([c00, c01 - c00]) / mult
        assert got == pytest.approx(want, rel=rel), case_id


def test_semi_analytic_references_solve_nothing_and_cache_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("SQUAREQUAD_CACHE", str(tmp_path))
    tp.clear_memo()
    kinds = _count_solves(monkeypatch)
    for case_id in ("eq2", "eq4", "eq3"):
        ref = tp._ref_grid(get_case(case_id))
        assert ref.shape == (50, 50) and np.all(np.isfinite(ref))
    assert kinds == []
    assert list(tmp_path.iterdir()) == []


def _rel_max(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_eq3_reference_against_a_nystrom_solve(monkeypatch):
    # the (512,512) Gauss Nystrom solve that used to be eq3's reference is
    # kept here as the oracle for the degenerate-kernel solution
    case = get_case("eq3")
    ref = tp._ref_grid(case)
    sol = solve_nystrom(case.problem(), 512, 512, solver=case.solver)
    assert _rel_max(ref, _lattice_values(sol)) <= 1e-15
    # more interpolation nodes and twice the moment points leave it in place
    finer = partial(tp._eq3_moment_points, r=tp._EQ3_NODES + 8, n=2 * tp._EQ3_POINTS)
    monkeypatch.setitem(tp._MOMENT_POINTS, "eq3", finer)
    tp._degenerate_coeffs.cache_clear()
    try:
        moved = _lattice_values(case.exact, case.u)
    finally:
        tp._degenerate_coeffs.cache_clear()
    assert _rel_max(moved, ref) <= 5e-16


def test_eq3_reference_independent_of_blas_threads(tmp_path):
    # each run gets its own cache, so neither can read the other's lattice
    src = Path(tp.__file__).resolve().parent.parent
    code = (
        "import sys; from squarequad import testproblems as tp; "
        "sys.stdout.buffer.write(tp._ref_grid(tp.get_case('eq3')).tobytes())"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env=dict(
                os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                SQUAREQUAD_CACHE=str(tmp_path / f"threads{threads}"),
            ),
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outs[0]) == 2500 * 8
    assert outs[0] == outs[1]


def test_cubature_reference_integrals_against_mpmath():
    # both integrands are sums of products of 1D functions: f = sum a_i(x1) b_i(x2)
    terms = {
        "cub1": [
            (lambda x: abs(math.sin(1.0 - x)) ** 4.5 * (1.0 + x), lambda x: 1.0),
            (lambda x: abs(math.sin(1.0 - x)) ** 4.5, lambda x: x),
        ],
        "cub2": [
            (lambda x: x * abs(math.cos(0.5 - x)) ** 1.5, lambda x: 1.0),
            (lambda x: 1.0, lambda x: x * abs(math.sin(1.0 + x)) ** 1.5),
        ],
    }
    # the (512,512) references miss by -2.3e-15 (cub1) and +4.3e-15 (cub2)
    for case_id, pairs in terms.items():
        case = get_case(case_id)
        w1, w2 = case.w1, case.w2
        want = sum(
            integral_1d(a, w1.alpha, w1.beta) * integral_1d(b, w2.alpha, w2.beta) for a, b in pairs
        )
        assert abs(tp._ref_integral(case) - want) <= 1e-14 * abs(want), case_id


def test_eq2_xi_against_the_semi_analytic_reference():
    # test_eq2_exact_solution_coefficients measures this xi_true itself
    report = run_case("eq2", sizes=[(64, 16)], metrics=["xi_g"])
    assert report.rows[0].computed == pytest.approx(3.7584e-08, rel=2e-3)
