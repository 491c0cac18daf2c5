"""Command line behavior: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from squarequad.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rule_legendre_2x2(capsys):
    code, out, _ = _run(capsys, "rule", "--n1", "2", "--n2", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# kind=gauss")
    assert lines[1] == "x1,x2,weight"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 4
    assert all(float(r[2]) == pytest.approx(1.0, rel=1e-13) for r in rows)


def test_rule_antigauss_chebyshev1_endpoints(capsys):
    code, out, _ = _run(
        capsys, "rule", "--alpha1", "-0.5", "--beta1", "-0.5", "--n1", "3",
        "--n2", "3", "--kind", "antigauss",
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[2:]]
    assert len(rows) == 16
    x1 = sorted(float(r[0]) for r in rows)
    assert x1[0] == pytest.approx(-1.0, abs=1e-13)
    assert x1[-1] == pytest.approx(1.0, abs=1e-13)


def test_rule_invalid_exponent_exits_2(capsys):
    code, _, err = _run(capsys, "rule", "--alpha1", "-1.5", "--n1", "2", "--n2", "2")
    assert code == 2
    assert "alpha" in err


def test_rule_json_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = _run(
            capsys, "rule", "--n1", "3", "--n2", "2", "--format", "json",
            "--out", str(p),
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["kind"] == "gauss"
    assert len(doc["nodes"]) == 6


@pytest.mark.parametrize("kind", ["gauss", "antigauss", "averaged"])
def test_rule_dump_text_is_per_value_formatting(capsys, kind):
    from squarequad import JacobiWeight
    from squarequad.cli import _FLOAT, _build_rule

    rule = _build_rule(JacobiWeight(0.5, -0.25), JacobiWeight(1.0, 0.0), 5, 4, kind, False)
    rows = [
        [_FLOAT % float(x1), _FLOAT % float(x2), _FLOAT % float(w)]
        for x1, x2, w in zip(rule.nodes1, rule.nodes2, rule.weights)
    ]
    args = ("rule", "--alpha1", "0.5", "--beta1", "-0.25", "--alpha2", "1", "--beta2", "0",
            "--n1", "5", "--n2", "4", "--kind", kind)
    code, out, _ = _run(capsys, *args)
    assert code == 0
    head = f"# kind={kind} w1=(0.5,-0.25) w2=(1,0) n1=5 n2=4"
    assert out == "\n".join([head, "x1,x2,weight"] + [",".join(r) for r in rows]) + "\n"
    code, out, _ = _run(capsys, *args, "--format", "json")
    assert code == 0
    doc = {"kind": kind, "w1": [0.5, -0.25], "w2": [1.0, 0.0], "n1": 5, "n2": 4, "nodes": rows}
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_integrate_case_row(capsys):
    code, out, _ = _run(capsys, "integrate", "--case", "cub1", "--n1", "8", "--n2", "8")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "value_g,value_a,value_avg,r_est"
    est = float(row.split(",")[3])
    assert est == pytest.approx(-1.27e-07, rel=0.05)


def test_integrate_constant(capsys):
    code, out, _ = _run(
        capsys, "integrate", "--integrand", "one", "--n1", "4", "--n2", "4",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[0]) == pytest.approx(4.0, rel=1e-13)
    assert abs(float(row[3])) < 1e-14


def test_integrate_case_uses_its_containment_override(capsys):
    from squarequad import antigauss_cubature
    from squarequad.testproblems import get_case

    case = get_case("cub2")
    code, out, _ = _run(capsys, "integrate", "--case", "cub2", "--n1", "8", "--n2", "8")
    assert code == 0
    want = antigauss_cubature(case.w1, case.w2, 8, 8, allow_uncontained=True).apply(case.integrand)
    assert out.splitlines()[1].split(",")[1] == "%.16e" % want
    # for a built-in integrand the flag still decides
    argv = ("integrate", "--integrand", "one", "--alpha2", "-0.5", "--n1", "8", "--n2", "8")
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert "allow_uncontained" in err
    assert _run(capsys, *argv, "--allow-uncontained")[0] == 0


def test_integrate_json_format(capsys):
    argv = ("integrate", "--integrand", "one", "--n1", "4", "--n2", "3")
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc.pop("n1"), doc.pop("n2")) == (4, 3)
    header, row = _run(capsys, *argv)[1].splitlines()
    assert doc == dict(zip(header.split(","), row.split(",")))
    assert float(doc["value_g"]) == pytest.approx(4.0, rel=1e-13)


def test_integrate_case_validation(capsys):
    code, _, err = _run(capsys, "integrate", "--case", "eq1", "--n1", "4", "--n2", "4")
    assert code == 2
    assert "cubature" in err or "invalid choice" in err


def test_solve_zero_kernel(capsys, tmp_path):
    out_file = tmp_path / "sol.csv"
    code, out, _ = _run(
        capsys, "solve", "--case", "zerok", "--n1", "4", "--n2", "4",
        "--out", str(out_file),
    )
    assert code == 0
    report = dict(ln.split("=", 1) for ln in out.strip().splitlines())
    assert float(report["xi_g"]) == 0.0
    assert float(report["kappa_g"]) == pytest.approx(1.0, rel=1e-12)
    header, *rows = out_file.read_text().strip().splitlines()
    assert header == "y1,y2,fG,fA,fAvg"
    assert len(rows) == 2500
    # interpolant equals the rhs everywhere for a zero kernel
    a = np.array([[float(v) for v in r.split(",")] for r in rows[:100]])
    want = np.exp(a[:, 0]) * np.sin(a[:, 1])
    assert np.max(np.abs(a[:, 2] - want)) < 1e-13


def test_solve_eq1_report(capsys):
    code, out, _ = _run(capsys, "solve", "--case", "eq1", "--n1", "2", "--n2", "2")
    assert code == 0
    report = dict(ln.split("=", 1) for ln in out.strip().splitlines())
    assert float(report["xi_avg"]) == pytest.approx(2.43e-3, rel=0.2)
    assert float(report["fraction_between"]) > 0.99


def test_solve_evaluates_each_solution_once(capsys, tmp_path, interpolant_evals):
    # xi, bracketing and the --out grid all read the same lattice values
    from squarequad import testproblems as tp

    tp._ref_grid(tp.get_case("eq3"))
    interpolant_evals.clear()
    code, _, _ = _run(
        capsys, "solve", "--case", "eq3", "--n1", "8", "--n2", "8",
        "--out", str(tmp_path / "grid.csv"),
    )
    assert code == 0
    assert sorted(interpolant_evals) == ["antigauss", "gauss"]


def _solve_report(capsys, *argv):
    code, out, _ = _run(capsys, "solve", *argv)
    assert code == 0
    return dict(ln.split("=", 1) for ln in out.strip().splitlines())


def test_solve_xi_matches_table_row(capsys):
    # solve and the tables read one row path: every metric a table row has
    # (xi, kappa and iters) prints the same
    from squarequad import testproblems as tp

    for case, n, metrics in (
        ("eq1", 4, {"xi_g", "xi_a", "xi_avg", "kappa_g", "kappa_a"}),
        ("eq2", 16, {"xi_g", "xi_a", "xi_avg", "kappa_g", "kappa_a", "iters"}),
        ("eq3", 16, {"xi_g", "xi_a", "xi_avg"}),
    ):
        report = _solve_report(capsys, "--case", case, "--n1", str(n), "--n2", str(n))
        row = tp.run_case(case, sizes=[(n, n)])
        assert {r.metric for r in row.rows} == metrics, case
        assert {r.metric: "%.16e" % r.computed for r in row.rows} == {
            k: "%.16e" % float(report[k]) for k in metrics
        }, case


def test_solve_prints_kappa_of_large_factored_rows(capsys):
    # the factored kappa is capped by its K N r work, not by N: eq2's
    # (256,16) rows have N = 4096 and 4369 unknowns, and solve prints the
    # kappa that table 4 prints
    from squarequad import testproblems as tp

    report = _solve_report(capsys, "--case", "eq2", "--n1", "256", "--n2", "16")
    row = tp.run_case("eq2", sizes=[(256, 16)], metrics=["kappa_g", "kappa_a"])
    assert {r.metric: "%.16e" % r.computed for r in row.rows} == {
        k: report[k] for k in ("kappa_g", "kappa_a")
    }


def test_solve_skips_kappa_of_large_separable_rows(capsys, monkeypatch):
    # a separable (65,65) system has 4225 unknowns, above the 4096 of an
    # explicit inverse: refused before it is densified or inverted
    import squarequad.linsolve as ls

    def refuse(*args):
        raise AssertionError("kappa allocated above its cap")

    monkeypatch.setattr(ls.np.linalg, "inv", refuse)
    monkeypatch.setattr(ls.SystemOperator, "to_dense", refuse)
    report = _solve_report(capsys, "--case", "eq3", "--n1", "65", "--n2", "65")
    assert (report["kappa_g"], report["kappa_a"]) == ("skipped", "skipped")


def test_solve_leaves_the_disk_cache_alone(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SQUAREQUAD_CACHE", str(cache))
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(
        {"kernel_pair": ["exp-sum", "product"], "rhs": "exp-sin", "n1": 4, "n2": 4}
    ))
    _solve_report(capsys, "--case", "eq1", "--n1", "4", "--n2", "4")
    _solve_report(capsys, "--problem", str(path))
    assert not cache.exists() or list(cache.iterdir()) == []


def test_gmres_over_its_basis_budget_exits_3(capsys, monkeypatch):
    import squarequad.linsolve as ls

    monkeypatch.setattr(ls, "_GMRES_BASIS_BYTES", 8 * 81)
    code, out, err = _run(capsys, "solve", "--case", "eq3", "--n1", "8", "--n2", "8")
    assert code == 3
    assert out == ""
    assert "gmres basis of 2 vectors of 81 entries exceeds 648 bytes after 1 iterations" in err


@pytest.mark.parametrize("case,n", [("eq2", 16), ("eq3", 8), ("eq4", 16)])
def test_solve_brackets_against_the_xi_reference(capsys, case, n):
    # fraction_between uses the same reference as xi, numerical or exact
    report = _solve_report(capsys, "--case", case, "--n1", str(n), "--n2", str(n))
    assert float(report["fraction_between"]) == 1.0


# every command the thread test compares, by test id
_THREAD_COMMANDS = {
    "reproduce-1": ["reproduce", "1"],
    "reproduce-2": ["reproduce", "2"],
    "reproduce-3": ["reproduce", "3"],
    "reproduce-4": ["reproduce", "4"],
    "reproduce-6": ["reproduce", "6"],
    "integrate-cub2": ["integrate", "--case", "cub2", "--n1", "8", "--n2", "8"],
    "solve-eq2-out": ["solve", "--case", "eq2", "--n1", "16", "--n2", "16", "--out", "grid.csv"],
    "solve-eq2-json-out": [
        "solve", "--case", "eq2", "--n1", "16", "--n2", "16", "--out", "grid.json", "--format", "json",
    ],
    "solve-eq3-256-out": ["solve", "--case", "eq3", "--n1", "256", "--n2", "256", "--out", "grid.csv"],
    "solve-eq4-out": ["solve", "--case", "eq4", "--n1", "64", "--n2", "16", "--out", "grid.csv"],
    "solve-eq1-out": ["solve", "--case", "eq1", "--n1", "8", "--n2", "8", "--out", "grid.csv"],
}

# the command run a second time, on the caches its first run filled
_WARM_COMMAND = "reproduce-2"

# Runs every command through cli.main in one interpreter: each in its own
# directory with its own disk cache, after emptying the in-process caches,
# so that nothing one command computed serves another.  Writes each
# command's stdout next to its directory.
_THREAD_RUNNER = """
import contextlib, io, json, os, sys
from pathlib import Path
from squarequad import rules, testproblems as tp
from squarequad.cli import main

root = Path(sys.argv[1])
commands, warm = json.loads(sys.argv[2]), sys.argv[3]

def run(name, argv):
    (root / name).mkdir()
    os.chdir(root / name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, name
    (root / f"{name}.stdout").write_bytes(out.getvalue().encode())

for name, argv in commands.items():
    os.environ["SQUAREQUAD_CACHE"] = str(root / f"{name}.cache")
    tp.clear_memo()
    rules._rule_cached.cache_clear()
    run(name, argv)
os.environ["SQUAREQUAD_CACHE"] = str(root / f"{warm}.cache")
run("warm", commands[warm])
"""


@pytest.fixture(scope="module")
def thread_runs(tmp_path_factory):
    """Each command's output under 1 and 2 BLAS threads, one interpreter each."""
    import squarequad

    src = Path(squarequad.__file__).resolve().parent.parent
    roots, procs = [], []
    for threads in ("1", "2"):
        root = tmp_path_factory.mktemp(f"threads{threads}")
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _THREAD_RUNNER, str(root),
             json.dumps(_THREAD_COMMANDS), _WARM_COMMAND],
            env=env, stderr=subprocess.PIPE,
        ))
        roots.append(root)
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
    return roots


def _thread_output(root, name):
    written = {p.name: p.read_bytes() for p in (root / name).iterdir() if p.is_file()}
    return (root / f"{name}.stdout").read_bytes(), written


@pytest.mark.parametrize("name", list(_THREAD_COMMANDS))
def test_output_independent_of_blas_threads(thread_runs, name):
    # each command's stdout and written files, byte for byte
    one, two = (_thread_output(root, name) for root in thread_runs)
    assert one == two


def test_warm_in_process_caches_keep_output(thread_runs):
    for root in thread_runs:
        assert _thread_output(root, "warm") == _thread_output(root, _WARM_COMMAND)


def test_solve_keeps_one_solution_alive(tmp_path):
    # each solution is dropped once its lattice values and kappa are read:
    # the traced peak was 15.4 x 8N bytes with both solutions alive to the
    # end of the report, N = 257**2
    from squarequad import antigauss_cubature, gauss_cubature
    from squarequad import testproblems as tp

    case = tp.get_case("eq3")
    n = 256
    # QL under tracemalloc is slow: the rules and the reference lattice
    # are built outside the traced region
    gauss_cubature(case.w1, case.w2, n, n)
    antigauss_cubature(case.w1, case.w2, n, n)
    tp._ref_grid(case)
    argv = ["solve", "--case", "eq3", "--n1", str(n), "--n2", str(n),
            "--out", str(tmp_path / "grid.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 8 * (n + 1) ** 2


def test_rule_above_the_size_cap_exits_3(capsys, monkeypatch):
    import squarequad.rules as rules

    def no_ql(*args):
        raise AssertionError("QL started above the size cap")

    monkeypatch.setattr(rules, "eig_tridiag", no_ql)
    cap = rules._RULE_CAP
    code, out, err = _run(capsys, "rule", "--n1", str(cap + 1), "--n2", "2")
    assert code == 3
    assert out == ""
    assert f"{cap + 1} points exceeds the cap of {cap}" in err


@pytest.mark.parametrize(
    "kind,n1,n2,points",
    # each count is over the cap of 2**21 points only for its own kind
    [("gauss", 2049, 1024, 2049 * 1024), ("antigauss", 2048, 1023, 2049 * 1024),
     ("averaged", 1024, 1024, 1024 * 1024 + 1025 * 1025)],
)
def test_rule_dump_above_its_point_cap_exits_3(capsys, monkeypatch, kind, n1, n2, points):
    import squarequad.cli as cli
    import squarequad.rules as rules

    def no_ql(*args):
        raise AssertionError("a rule was built above the dump cap")

    monkeypatch.setattr(rules, "eig_tridiag", no_ql)
    cap = cli._DUMP_CAP
    assert cap == 2**21
    code, out, err = _run(capsys, "rule", "--n1", str(n1), "--n2", str(n2), "--kind", kind)
    assert code == 3
    assert out == ""
    assert f"for n1={n1} n2={n2} has {points} points, over the cap of {cap} points" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_solve_rejects_bad_tolerance(capsys, monkeypatch, tol):
    import squarequad.fredholm as fr
    from squarequad import solve_nystrom
    from squarequad.testproblems import get_case

    code, out, err = _run(capsys, "solve", "--case", "eq3", "--n1", "8", "--n2", "8",
                          "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol must be a finite number > 0" in err

    # the library refuses the tolerance before it builds any rule
    def no_rule(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(fr, "gauss_cubature", no_rule)
    monkeypatch.setattr(fr, "antigauss_cubature", no_rule)
    for kind in ("gauss", "antigauss"):
        with pytest.raises(ValueError, match="tol must be"):
            solve_nystrom(get_case("eq3").problem(), 8, 8, rulekind=kind, tol=float(tol))


def test_solve_reports_auto_choice(capsys):
    report = _solve_report(capsys, "--case", "eq4", "--n1", "4", "--n2", "4")
    assert report["solver"] == "gmres-sk"


def test_solve_reports_stein_fallback(capsys, tmp_path):
    report = _solve_report(
        capsys, "--case", "eq1", "--n1", "4", "--n2", "4", "--solver", "stein"
    )
    assert report["solver"] == "gmres-sk"
    # spectral radius products 0.96 (Gauss) and 1.04 (companion): only the
    # companion iteration diverges and falls back
    prob = {
        "kernel_pair": ["exp-sum", "product"], "rhs": "exp-sin",
        "mult": 0.414, "n1": 2, "n2": 2,
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    report = _solve_report(capsys, "--problem", str(path), "--solver", "stein")
    assert report["solver"] == "stein/gmres-sk"


@pytest.mark.parametrize("solver", ["lu", "gmres-sk"])
def test_solve_singular_system_exits_3(capsys, tmp_path, solver):
    # one Gauss node at 0 with weight 2 per axis: I - Phi is exactly 0
    prob = {
        "kernel_pair": ["exp-sum", "exp-sum"], "rhs": "exp-sin",
        "mult": 0.25, "n1": 1, "n2": 1,
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    code, out, err = _run(capsys, "solve", "--problem", str(path), "--solver", solver)
    assert code == 3
    assert out == ""
    assert err.startswith("squarequad: numeric failure:")


def test_solve_problem_file(capsys, tmp_path):
    prob = {
        "alpha1": 0.5, "beta1": 0.5, "alpha2": 0.5, "beta2": 0.5,
        "gamma1": 1.25, "delta1": 1.25, "gamma2": 1.25, "delta2": 1.25,
        "kernel_pair": ["exp-negprod", "exp-negprod"],
        "rhs": "cos-pow-sinroot", "mult": 0.3, "n1": 8, "n2": 8,
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    code, out, _ = _run(capsys, "solve", "--problem", str(path))
    assert code == 0
    report = dict(ln.split("=", 1) for ln in out.strip().splitlines())
    assert float(report["gap_half_rel"]) < 1e-5
    assert int(report["n1"]) == 8


def test_solve_problem_file_auto_solver_for_a_kernel(capsys, tmp_path):
    # auto picks lu up to 1024 unknowns (Gauss 32 x 32) and gmres-fm above
    # (anti-Gauss 33 x 33)
    prob = {"kernel": "sin-affine", "rhs": "log-sin-root", "mult": 0.3, "n1": 32, "n2": 32}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    report = _solve_report(capsys, "--problem", str(path))
    assert report["solver"] == "lu/gmres-fm"
    assert "iters" not in report


_PROBLEM = {"kernel_pair": ["exp-sum", "product"], "rhs": "exp-sin", "n1": 2, "n2": 2}


@pytest.mark.parametrize(
    "doc, named",
    [
        (["rhs"], "JSON object"),
        ({**_PROBLEM, "alpha1": [1]}, "'alpha1'"),
        ({**_PROBLEM, "beta2": float("nan")}, "'beta2'"),
        ({**_PROBLEM, "gamma1": True}, "'gamma1'"),
        ({**_PROBLEM, "mult": "0.5"}, "'mult'"),
        ({**_PROBLEM, "rhs": 3}, "'rhs'"),
        ({**_PROBLEM, "rhs": "nope"}, "'rhs'"),
        ({**_PROBLEM, "kernel_pair": "ab"}, "'kernel_pair'"),
        ({**_PROBLEM, "kernel_pair": ["exp-sum", 7]}, "'kernel_pair'"),
        ({"kernel": ["sin-affine"], "rhs": "exp-sin", "n1": 2, "n2": 2}, "'kernel'"),
    ],
)
def test_solve_problem_file_checks_types(capsys, tmp_path, doc, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "solve", "--problem", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("squarequad: ") and err.count("\n") == 1
    assert named in err


def test_solve_problem_file_validation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rhs": "exp-sin"}))
    code, _, err = _run(capsys, "solve", "--problem", str(path))
    assert code == 2
    assert "kernel" in err


def test_solve_problem_file_rejects_non_integral_sizes(capsys, tmp_path):
    prob = {"kernel_pair": ["exp-negprod", "exp-negprod"], "rhs": "cos-pow-sinroot",
            "n1": 6.7, "n2": 4.2}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    code, out, err = _run(capsys, "solve", "--problem", str(path))
    assert code == 2
    assert out == ""
    assert "n1 must be an integer, got 6.7" in err
    prob.update(n1=6.0, n2=4)
    path.write_text(json.dumps(prob))
    code, out, _ = _run(capsys, "solve", "--problem", str(path))
    assert code == 0
    assert "n1=6\n" in out


def test_solve_requires_one_source(capsys):
    code, _, _ = _run(capsys, "solve", "--case", "eq1", "--problem", "x.json")
    assert code == 2


def test_reproduce_table3(capsys):
    code, out, _ = _run(capsys, "reproduce", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n1,n2,xi_g,xi_a,xi_avg,kappa_g,kappa_a,ok"
    body = [ln.split(",") for ln in lines[2:]]
    assert len(body) == 4
    assert all(row[-1] == "ok" for row in body)


def test_reproduce_prints_iterations_as_integers(capsys, monkeypatch):
    from squarequad import testproblems as tp

    run_case = tp.run_case
    monkeypatch.setattr(tp, "run_case", lambda case_id: run_case(case_id, sizes=[(16, 16)]))
    code, out, _ = _run(capsys, "reproduce", "4")
    assert code == 0
    header, row = out.splitlines()[1:]
    assert header == "n1,n2,xi_g,xi_a,xi_avg,kappa_g,kappa_a,iters,ok"
    assert row.split(",")[:2] == ["16", "16"]
    assert row.split(",")[7] == "3"


def test_reproduce_fig1_panels(capsys):
    panels = {}
    for ident in ("fig1-left", "fig1-right", "fig1"):
        code, panels[ident], _ = _run(capsys, "reproduce", ident)
        assert code == 0
    left, right = panels["fig1-left"].splitlines(), panels["fig1-right"].splitlines()
    assert left[:2] == ["# fig1-left: sweep n1=1..30, n2=8", "n1,S_abs,E_max"]
    assert [int(r.split(",")[0]) for r in left[2:]] == list(range(1, 31))
    assert right[:2] == ["# fig1-right: sweep n1=n2=2..30", "n,S_abs,E_max,holds"]
    assert [int(r.split(",")[0]) for r in right[2:]] == list(range(2, 31))
    assert {r.split(",")[3] for r in right[2:]} <= {"0", "1"}
    assert panels["fig1"] == panels["fig1-left"] + panels["fig1-right"]


def test_reproduce_unknown_id(capsys):
    code, _, err = _run(capsys, "reproduce", "5")
    assert code == 2
    assert "unknown" in err


def test_reproduce_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for f in (f1, f2):
        code, _, _ = _run(capsys, "reproduce", "1", "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_reproduce_json_format(capsys):
    code, out, _ = _run(capsys, "reproduce", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "eq1"
    assert len(doc["rows"]) == 4
    assert all(row["ok"] for row in doc["rows"])


@pytest.mark.parametrize("ident", ["fig1", "fig1-left", "fig1-right"])
def test_reproduce_fig1_has_no_json_format(capsys, ident):
    code, out, err = _run(capsys, "reproduce", ident, "--format", "json")
    assert code == 2
    assert out == ""
    assert "CSV only" in err
