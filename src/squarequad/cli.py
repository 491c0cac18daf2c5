"""Command line front end.

Four subcommands:

``rule``
    Dump the node/weight table of a Gauss, anti-Gauss, or averaged
    cubature rule for a pair of Jacobi weights.
``integrate``
    Apply the three rules to a built-in integrand and report the values
    together with the half-difference error estimate.
``solve``
    Solve an integral equation (built-in case or JSON problem file) with
    both rules and report errors, conditioning, and the bracketing state.
``reproduce``
    Recompute a stored results table or figure dataset and print it with
    per-value verdicts.

Output is deterministic: fixed float format, fixed row order, ``\\n``
newlines, no timestamps.  Exit codes: 0 success, 2 bad usage or
validation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cubature import antigauss_cubature, averaged_cubature, gauss_cubature
from .errors import AssemblyError, CapacityError, ConvergenceError, EvaluationError
from .fredholm import (
    _LATTICE,
    SpaceWeight,
    _lattice_values,
    bracketing_check,
    condition_number_inf,
    solve_nystrom,
)
from .orthopoly import JacobiWeight, _size
from . import testproblems as tp

__all__ = ["main", "build_parser"]

_FLOAT = "%.16e"

# LinAlgError subclasses ValueError, so main tests these first
_NUMERIC_ERRORS = (
    AssemblyError, CapacityError, ConvergenceError, EvaluationError, np.linalg.LinAlgError
)

# reproduce ids; anything else exits 2
_TABLES = {"1": "cub1", "2": "cub2", "3": "eq1", "4": "eq2", "6": "eq4"}


def _fmt(x) -> str:
    return _FLOAT % float(x)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _weights_from_args(args) -> tuple:
    return (
        JacobiWeight(args.alpha1, args.beta1),
        JacobiWeight(args.alpha2, args.beta2),
    )


# ---------------------------------------------------------------------------
# rule


def _build_rule(w1, w2, n1, n2, kind, allow_uncontained):
    if kind == "gauss":
        return gauss_cubature(w1, w2, n1, n2)
    if kind == "antigauss":
        return antigauss_cubature(w1, w2, n1, n2, allow_uncontained=allow_uncontained)
    return averaged_cubature(w1, w2, n1, n2, allow_uncontained=allow_uncontained)


def cmd_rule(args) -> int:
    w1, w2 = _weights_from_args(args)
    rule = _build_rule(w1, w2, args.n1, args.n2, args.kind, args.allow_uncontained)
    head = (
        f"kind={rule.kind} w1=({w1.alpha:g},{w1.beta:g}) "
        f"w2=({w2.alpha:g},{w2.beta:g}) n1={args.n1} n2={args.n2}"
    )
    if args.format == "json":
        doc = {
            "kind": rule.kind,
            "w1": [w1.alpha, w1.beta],
            "w2": [w2.alpha, w2.beta],
            "n1": args.n1,
            "n2": args.n2,
            "nodes": [
                [_fmt(x1), _fmt(x2), _fmt(w)]
                for x1, x2, w in zip(rule.nodes1, rule.nodes2, rule.weights)
            ],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    lines = [f"# {head}", "x1,x2,weight"]
    for x1, x2, w in zip(rule.nodes1, rule.nodes2, rule.weights):
        lines.append(f"{_fmt(x1)},{_fmt(x2)},{_fmt(w)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# integrate


def cmd_integrate(args) -> int:
    if args.case is not None:
        case = tp.get_case(args.case)
        if case.kind != "cubature":
            raise ValueError(f"case {args.case!r} is not a cubature case")
        f, w1, w2, allow = case.integrand, case.w1, case.w2, case.allow_uncontained
    else:
        f, allow = tp.INTEGRANDS[args.integrand], args.allow_uncontained
        w1, w2 = _weights_from_args(args)
    g = gauss_cubature(w1, w2, args.n1, args.n2).apply(f)
    a = antigauss_cubature(w1, w2, args.n1, args.n2, allow_uncontained=allow).apply(f)
    vals = {"value_g": g, "value_a": a, "value_avg": 0.5 * (g + a), "r_est": 0.5 * (a - g)}
    if args.format == "json":
        doc = {k: _fmt(v) for k, v in vals.items()}
        doc.update(n1=args.n1, n2=args.n2)
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    lines = [
        "value_g,value_a,value_avg,r_est",
        ",".join(_fmt(vals[k]) for k in ("value_g", "value_a", "value_avg", "r_est")),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# solve


def _case_from_json(path: str, allow_uncontained: bool) -> tuple:
    """Read a JSON problem file as an equation case; returns (case, sizes)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("problem file must hold a JSON object")
    known = {
        "alpha1", "beta1", "alpha2", "beta2",
        "gamma1", "delta1", "gamma2", "delta2",
        "kernel", "kernel_pair", "rhs", "mult", "n1", "n2",
    }
    bad = sorted(set(doc) - known)
    if bad:
        raise ValueError(f"unknown problem keys {bad}")

    def num(key, default=0.0):
        v = doc.get(key, default)
        # type() refuses bools; the bound refuses nan, inf and ints beyond a double
        if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
            raise ValueError(f"{key!r} must be a finite number, got {v!r}")
        return float(v)

    def ident(key, v, known_ids):
        if not isinstance(v, str) or v not in known_ids:
            raise ValueError(f"{key!r} must name one of {', '.join(known_ids)}; got {v!r}")
        return v

    w1 = JacobiWeight(num("alpha1"), num("beta1"))
    w2 = JacobiWeight(num("alpha2"), num("beta2"))
    u = SpaceWeight(num("gamma1"), num("delta1"), num("gamma2"), num("delta2"))
    if "rhs" not in doc:
        raise ValueError("problem file missing 'rhs'")
    if ("kernel" in doc) == ("kernel_pair" in doc):
        raise ValueError("problem file needs exactly one of 'kernel', 'kernel_pair'")
    pair = doc.get("kernel_pair", [])
    if "kernel_pair" in doc and not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError("'kernel_pair' must list two kernel ids")
    case = tp.TestCase(
        id=path, kind="equation", w1=w1, w2=w2, rows=(), u=u,
        kernel_id=ident("kernel", doc["kernel"], tp.KERNELS_2D) if "kernel" in doc else "",
        kernel_pair_ids=tuple(ident("kernel_pair", k, tp.KERNELS_1D) for k in pair),
        rhs_id=ident("rhs", doc["rhs"], tp.RHS), mult=num("mult", 1.0),
        allow_uncontained=allow_uncontained,
    )
    return case, (doc.get("n1"), doc.get("n2"))


def _kappa_or_skipped(sol):
    try:
        return condition_number_inf(sol)
    except CapacityError:
        return "skipped"


def cmd_solve(args) -> int:
    if args.case is not None:
        case, file_sizes = tp.get_case(args.case), (None, None)
    else:
        case, file_sizes = _case_from_json(args.problem, args.allow_uncontained)
    prob = case.problem()
    n1 = file_sizes[0] if args.n1 is None else args.n1
    n2 = file_sizes[1] if args.n2 is None else args.n2
    if n1 is None or n2 is None:
        raise ValueError("sizes required: pass --n1/--n2 or put n1/n2 in the file")
    n1, n2 = _size(n1, "n1"), _size(n2, "n2")
    solver = args.solver or case.solver
    allow = case.allow_uncontained

    sg = solve_nystrom(prob, n1, n2, rulekind="gauss", solver=solver,
                       tol=args.tol, allow_uncontained=allow)
    sa = solve_nystrom(prob, n1, n2, rulekind="antigauss", solver=solver,
                       tol=args.tol, allow_uncontained=allow)

    # the solvers that ran, which differ from the request after auto or a fallback
    ran = sg.solver if sg.solver == sa.solver else f"{sg.solver}/{sa.solver}"
    report = {"n1": n1, "n2": n2, "solver": ran}
    if sg.iterations is not None:
        report["iters"] = sg.iterations

    ref = tp._ref_grid(case)
    if ref is not None:
        report.update(tp._xi_values(sg, sa, ref))
    else:
        # no reference: the half-gap bounds the averaged error when the
        # interpolants bracket the solution
        vg, va = _lattice_values(sg), _lattice_values(sa)
        report["gap_half_rel"] = float(
            0.5 * np.max(np.abs(vg - va)) / np.max(np.abs(0.5 * (vg + va)))
        )
    report["kappa_g"] = _kappa_or_skipped(sg)
    report["kappa_a"] = _kappa_or_skipped(sa)
    br = bracketing_check(sg, sa, ref=ref)
    report["fraction_between"] = "n/a" if br.fraction_between is None else br.fraction_between
    report["sign_changes"] = int(np.count_nonzero(np.diff(np.sign(br.sign))))

    if args.out is not None:
        uvals = prob.u.eval(*_LATTICE)
        fG, fA = _lattice_values(sg) / uvals, _lattice_values(sa) / uvals
        cols = (*_LATTICE, fG, fA, 0.5 * (fG + fA))
        grid = [[_fmt(v) for v in row] for row in zip(*(c.ravel() for c in cols))]
        if args.format == "json":
            doc = {"n1": n1, "n2": n2, "grid": grid}
            _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
        else:
            lines = ["y1,y2,fG,fA,fAvg"] + [",".join(row) for row in grid]
            _emit("\n".join(lines) + "\n", args.out)

    for key, val in report.items():
        shown = _fmt(val) if isinstance(val, float) else str(val)
        sys.stdout.write(f"{key}={shown}\n")
    return 0


# ---------------------------------------------------------------------------
# reproduce


def cmd_reproduce(args) -> int:
    ident = args.id
    if ident in ("fig1", "fig1-left", "fig1-right"):
        if args.format == "json":
            raise ValueError(f"{ident} data is CSV only; drop --format json")
        from .cubature import bracketing_diagnostic

        parts = []
        if ident in ("fig1", "fig1-left"):
            case = tp.get_case("cub1")
            lines = ["# fig1-left: sweep n1=1..30, n2=8", "n1,S_abs,E_max"]
            for n1 in range(1, 31):
                rep = bracketing_diagnostic(case.integrand, case.w1, case.w2, n1, 8)
                lines.append(
                    f"{n1},{_fmt(abs(rep.S))},{_fmt(max(abs(rep.E1), abs(rep.E2)))}"
                )
            parts.append("\n".join(lines))
        if ident in ("fig1", "fig1-right"):
            case = tp.get_case("cub2")
            lines = ["# fig1-right: sweep n1=n2=2..30", "n,S_abs,E_max,holds"]
            for n in range(2, 31):
                rep = bracketing_diagnostic(case.integrand, case.w1, case.w2, n, n)
                lines.append(
                    f"{n},{_fmt(abs(rep.S))},"
                    f"{_fmt(max(abs(rep.E1), abs(rep.E2)))},{int(rep.holds)}"
                )
            parts.append("\n".join(lines))
        _emit("\n".join(parts) + "\n", args.out)
        return 0

    if ident not in _TABLES:
        raise ValueError(f"unknown reproduce id {ident!r}")
    case_id = _TABLES[ident]
    report = tp.run_case(case_id)
    metrics = [m for m in tp._METRIC_ORDER if any(r.metric == m for r in report.rows)]
    by_size: dict = {}
    for r in report.rows:
        by_size.setdefault(r.size, {})[r.metric] = r
    if args.format == "json":
        doc = {
            "table": ident,
            "case": case_id,
            "metrics": metrics,
            "rows": [
                {
                    "n1": size[0],
                    "n2": size[1],
                    "values": {
                        m: _fmt(cells[m].computed) for m in metrics if m in cells
                    },
                    "ok": all(c.ok for c in cells.values()),
                }
                for size, cells in by_size.items()
            ],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    lines = [f"# table {ident} (case {case_id})", "n1,n2," + ",".join(metrics) + ",ok"]
    for size, cells in by_size.items():
        vals = []
        for m in metrics:
            if m not in cells:
                vals.append("")
            elif m == "iters":
                vals.append(str(int(round(cells[m].computed))))
            else:
                vals.append(_fmt(cells[m].computed))
        verdict = "ok" if all(c.ok for c in cells.values()) else "FAIL"
        lines.append(f"{size[0]},{size[1]}," + ",".join(vals) + f",{verdict}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_weight_flags(p) -> None:
    p.add_argument("--alpha1", type=float, default=0.0)
    p.add_argument("--beta1", type=float, default=0.0)
    p.add_argument("--alpha2", type=float, default=0.0)
    p.add_argument("--beta2", type=float, default=0.0)


def _add_common(p) -> None:
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="squarequad",
        description="Cubature rules and integral equation solves on the square.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("rule", help="dump a cubature rule")
    _add_weight_flags(p)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--kind", choices=("gauss", "antigauss", "averaged"),
                   default="gauss")
    p.add_argument("--allow-uncontained", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_rule)

    p = sub.add_parser("integrate", help="apply the rules to an integrand")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--case", choices=("cub1", "cub2"))
    src.add_argument("--integrand", choices=tuple(tp.INTEGRANDS))
    _add_weight_flags(p)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--allow-uncontained", action="store_true", help="--integrand only")
    _add_common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("solve", help="solve an integral equation")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--case", choices=("eq1", "eq2", "eq3", "eq4", "zerok"))
    src.add_argument("--problem", help="JSON problem file")
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--solver", choices=("lu", "gmres", "gmres-fm", "gmres-sk", "stein"),
                   default=None)
    p.add_argument("--tol", type=float, default=1e-14,
                   help="relative residual target of GMRES and Stein; must be > 0")
    p.add_argument("--allow-uncontained", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reproduce", help="recompute a stored table or figure")
    p.add_argument("id", help="one of 1, 2, 3, 4, 6, fig1, fig1-left, fig1-right")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"squarequad: numeric failure: {exc}\n")
        return 3
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"squarequad: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
