"""Built-in worked problems with stored regression tables.

Two cubature cases and five integral-equation cases, each carrying the
reference values the implementation is expected to reproduce and the
tolerance each value is held to.  Every equation case is scored against a
known solution: eq1 and the zero-kernel demo have closed forms, and eq2's,
eq3's and eq4's come from small moment systems of their kernels interpolated
in y (exact for eq2's and eq4's rank-2 kernels, converged to rounding for
eq3's).  cub1 and cub2 are scored against a high-order Gauss cubature.
Those two reference integrals are kept in process and cached on disk
under SQUAREQUAD_CACHE, default ``~/.cache/squarequad``, one file per case.
Each file holds that value, the numpy version and the package sources byte
for byte, and is read only when they equal the running code's; a file from
other code is replaced in place.  Two checkouts sharing one directory
therefore overwrite each other's file, and each still reads only its own
results.  Files may be deleted at any time; a cold cache regenerates
deterministically.  ``_row_values`` computes every value of a table row or
a ``squarequad solve`` report; condition numbers afresh on every call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from .cubature import antigauss_cubature, gauss_cubature
from .errors import CapacityError
from .fredholm import (
    FredholmProblem,
    SpaceWeight,
    _lagrange_basis,
    _lattice_values,
    bracketing_check,
    condition_number_inf,
    relative_error,
    solve_nystrom,
)
from .linsolve import stein_solve
from .orthopoly import JacobiWeight
from .rules import gauss_rule

__all__ = [
    "Expected",
    "TestCase",
    "RowResult",
    "CaseReport",
    "KERNELS_1D",
    "KERNELS_2D",
    "RHS",
    "INTEGRANDS",
    "check_value",
    "get_case",
    "list_cases",
    "run_case",
    "cache_dir",
    "clear_memo",
]


def _abspow(v, p):
    # exp(p log |v|) with an exact-zero guard; plain ** loses accuracy for
    # large fractional powers of tiny bases
    v = np.abs(np.asarray(v, dtype=float))
    out = np.zeros_like(v)
    nz = v > 0.0
    out[nz] = np.exp(p * np.log(v[nz]))
    return out


# ---------------------------------------------------------------- registries

def _k_exp_sum(x, y):
    return np.exp(np.asarray(x, dtype=float) + y)


def _k_product(x, y):
    return np.asarray(x, dtype=float) * y


def _k_exp_negprod(x, y):
    return np.exp(-(1.0 + np.asarray(x, dtype=float)) * (1.0 + np.asarray(y)))


def _k_abs_cos_pow(x, y):
    """9/2 power of |cos(1+x)|; depends on the integration variable only."""
    vals = _abspow(np.cos(1.0 + np.asarray(x, dtype=float)), 4.5)
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.broadcast_to(vals, shape)


def _k_affine_sum(x, y):
    return np.asarray(x, dtype=float) + y


def _k_zero(x, y):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _k_sin_affine(x1, x2, y1, y2):
    """Non-separable kernel sin(x1 + x2) (1 + x1 + y2)."""
    return np.sin(np.asarray(x2, dtype=float) + x1) * (1.0 + np.asarray(x1) + y2)


# constant in y1 and affine in y2, so these nodes interpolate it exactly
_k_sin_affine.y_nodes = (np.array([0.0]), np.array([0.0, 1.0]))


# rhs g so that the solution of the first equation case is cos(x1 + x2)
_COS_SUM_DRIFT = (math.cos(2.0) + math.e**2 * (math.sin(2.0) - 1.0)) / math.e


def _g_cos_drift(y1, y2):
    return np.cos(np.asarray(y1, dtype=float) + y2) - _COS_SUM_DRIFT * np.asarray(y2) * np.exp(np.asarray(y1, dtype=float))


def _g_log_sinroot(y1, y2):
    return np.log(2.0 + np.asarray(y2, dtype=float)) * np.sin(np.sqrt(1.0 - np.asarray(y1, dtype=float)))


def _g_cos_pow_sinroot(y1, y2):
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    return np.cos(3.0 + y2) * (1.0 + y2) ** 1.5 * np.sin((1.0 - y1) ** 1.5)


def _g_exp_sin(y1, y2):
    return np.exp(np.asarray(y1, dtype=float)) * np.sin(np.asarray(y2, dtype=float))


def _exact_cos_sum(x1, x2):
    return np.cos(np.asarray(x1, dtype=float) + x2)


def _f_edge_sine_power(x1, x2):
    """|sin(1-x1)|^{9/2} (1 + x1 + x2); 9/2-power zero at the x1 = 1 edge."""
    return _abspow(np.sin(1.0 - np.asarray(x1, dtype=float)), 4.5) * (1.0 + np.asarray(x1) + x2)


def _f_split_abs_power(x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return x1 * _abspow(np.cos(0.5 - x1), 1.5) + x2 * _abspow(np.sin(1.0 + x2), 1.5)


def _f_one(x1, x2):
    return np.ones(np.broadcast_shapes(np.shape(x1), np.shape(x2)))


# ------------------------------------- degenerate-kernel eq2, eq3 and eq4

def _eq2_moment_points(case):
    # the nodes are the ones eq2's kernel declares for the solver
    r1, r2 = gauss_rule(case.w1, 32), gauss_rule(case.w2, 32)
    # w1 times the rhs factor sin(sqrt(1 - y1)) is the weight (1, 1/2) times
    # an entire function, so the rhs moments run on that lifted rule
    lift = gauss_rule(JacobiWeight(1.0, 0.5), 32)
    lifted = lift.weights / np.sqrt(1.0 - lift.nodes)
    on_a = (r1.nodes, r1.weights, r2.nodes, r2.weights)
    return KERNELS_2D[case.kernel_id].y_nodes, on_a, (lift.nodes, lifted, r2.nodes, r2.weights)


# Chebyshev nodes per axis and Gauss points per moment rule for eq3; the
# reference moves by at most 5e-16 relative at (32, 64)
_EQ3_NODES, _EQ3_POINTS = 24, 32


def _eq3_moment_points(case, r=_EQ3_NODES, n=_EQ3_POINTS):
    # exp(-(1 + x)(1 + y)) is entire in y, so its Chebyshev interpolant
    # converges geometrically (Trefethen, Approximation Theory and
    # Approximation Practice, 2013, ch. 8)
    t = np.cos(np.pi * np.arange(r) / (r - 1))  # Chebyshev points
    r1, r2 = gauss_rule(case.w1, n), gauss_rule(case.w2, n)
    # sin((1 - y1)^1.5) is (1 - y1)^1.5 times an entire function of
    # (1 - y1)^3, so w times the rhs is the weight (2, 1/2) x (1/2, 2) times
    # an entire function: the rhs moments run on those lifted rules
    lift1 = gauss_rule(JacobiWeight(2.0, 0.5), n)
    lift2 = gauss_rule(JacobiWeight(0.5, 2.0), n)
    on_b = (
        lift1.nodes, lift1.weights / (1.0 - lift1.nodes) ** 1.5,
        lift2.nodes, lift2.weights / (1.0 + lift2.nodes) ** 1.5,
    )
    return (t, t), (r1.nodes, r1.weights, r2.nodes, r2.weights), on_b


# eq4's kernel pair is constant in y1 and affine in y2, so these nodes
# interpolate it exactly
_EQ4_NODES = (np.array([0.0]), np.array([0.0, 1.0]))


def _eq4_moment_points(case):
    # |cos(1 + x1)|^{9/2} has a kink at x1 = pi/2 - 1: Legendre on each side,
    # with x1 = 1 - t^2 on the right absorbing w1's (1 - x1)^{-1/2}
    leg = gauss_rule(_LEGENDRE, 64)
    kink = math.pi / 2 - 1.0
    half = 0.5 * (kink + 1.0)
    left = half * (leg.nodes + 1.0) - 1.0
    tmax = math.sqrt(1.0 - kink)
    t = 0.5 * tmax * (leg.nodes + 1.0)
    x1 = np.concatenate([left, 1.0 - t * t])
    lam1 = np.concatenate([half * leg.weights / np.sqrt(1.0 - left), tmax * leg.weights])
    r2 = gauss_rule(case.w2, 32)
    points = (x1, lam1, r2.nodes, r2.weights)
    return _EQ4_NODES, points, points


_MOMENT_POINTS = {"eq2": _eq2_moment_points, "eq3": _eq3_moment_points, "eq4": _eq4_moment_points}


@cache
def _degenerate_coeffs(case_id: str) -> tuple:
    """(t1, t2, C) of the exact solution g + sum_jk C_jk l_j(y1) l_k(y2).

    The case names interpolation nodes t1, t2 in y, with l_j the Lagrange
    basis on them.  Interpolating the kernel, multiplier included, in y
    makes it degenerate, so the solution is g plus a combination of the
    l_j(y1) l_k(y2) whose coefficients C_jk = int w k(x, (t1_j, t2_k)) f
    solve the moment system C = G + M C, with
    M_jk,pq = int w k(x, (t1_j, t2_k)) l_p(x1) l_q(x2) and
    G_jk = int w k(x, (t1_j, t2_k)) g (the degenerate-kernel method;
    Atkinson 1997, The Numerical Solution of Integral Equations of the
    Second Kind, sec. 2.3).  The case supplies tensor point sets for the M
    and the G moments.  For a kernel pair M is M2 (x) M1, with
    M_l[j, p] = int w_l k_l(x, t_j) l_p(x), and C solves the Stein equation
    C = mult G + mult M1 C M2^T; a non-separable kernel gets a dense solve.
    """
    case = get_case(case_id)
    prob = case.problem()
    (t1, t2), (x1, lam1, x2, lam2), (z1, nu1, z2, nu2) = _MOMENT_POINTS[case_id](case)
    l1, l2 = _lagrange_basis(t1, x1), _lagrange_basis(t2, x2)
    g = prob.rhs(z1[:, None], z2[None, :])
    if prob.kernel_pair:
        k1, k2 = prob.kernel_pair
        m1 = (lam1[:, None] * k1(x1[:, None], t1)).T @ l1
        m2 = (lam2[:, None] * k2(x2[:, None], t2)).T @ l2
        G = (nu1[:, None] * k1(z1[:, None], t1)).T @ g @ (nu2[:, None] * k2(z2[:, None], t2))
        coeffs = stein_solve(prob.mult * m1, m2, prob.mult * G)
    else:
        def weighted_kernels(x1, lam1, x2, lam2):
            # lam1_i lam2_i' k(x_ii', (t1_j, t2_k)), one array per node pair jk
            w, x1, x2 = np.outer(lam1, lam2), x1[:, None], x2[None, :]
            return [w * prob.kernel_values(x1, x2, s1, s2) for s1 in t1 for s2 in t2]

        basis = [np.outer(p1, p2) for p1 in l1.T for p2 in l2.T]
        on_a = weighted_kernels(x1, lam1, x2, lam2)
        A = np.array([[np.sum(k * phi) for phi in basis] for k in on_a])
        b = [np.sum(k * g) for k in weighted_kernels(z1, nu1, z2, nu2)]
        coeffs = np.linalg.solve(np.eye(len(basis)) - A, b).reshape(len(t1), len(t2))
    for a in (t1, t2, coeffs):
        a.setflags(write=False)  # the cached result is shared by every caller
    return t1, t2, coeffs


def _degenerate_solution(case_id, y1, y2):
    t1, t2, coeffs = _degenerate_coeffs(case_id)
    y1, y2 = np.broadcast_arrays(np.asarray(y1, dtype=float), np.asarray(y2, dtype=float))
    l1, l2 = _lagrange_basis(t1, y1), _lagrange_basis(t2, y2)
    # a fixed-order sum, so the values do not depend on the BLAS thread count
    corr = np.einsum("ij,ij->i", np.einsum("ij,jk->ik", l1, coeffs), l2).reshape(y1.shape)
    return RHS[get_case(case_id).rhs_id](y1, y2) + corr


KERNELS_1D = {
    "exp-sum": _k_exp_sum,
    "product": _k_product,
    "exp-negprod": _k_exp_negprod,
    "abs-cos-pow": _k_abs_cos_pow,
    "affine-sum": _k_affine_sum,
    "zero": _k_zero,
}

KERNELS_2D = {
    "sin-affine": _k_sin_affine,
}

RHS = {
    "cos-sum-drift": _g_cos_drift,
    "log-sin-root": _g_log_sinroot,
    "cos-pow-sinroot": _g_cos_pow_sinroot,
    "exp-sin": _g_exp_sin,
}

INTEGRANDS = {
    "cub1": _f_edge_sine_power,
    "cub2": _f_split_abs_power,
    "one": _f_one,
}


# ------------------------------------------------------- expected-value table

_SMALL = 5e-15


@dataclass(frozen=True)
class Expected:
    """A stored reference value plus the rule it is matched under.

    kind "error": sign must agree and the magnitude ratio lie in [1/2, 2],
    except that values at or below 5e-15 only require the computed value to
    stay at or below 5e-15.  kind "cond": relative difference within rtol
    (default 5e-3, three significant digits).  kind "iters": exact.
    """

    value: float
    kind: str
    source: str
    rtol: float | None = None


def check_value(computed: float, expected: Expected) -> bool:
    if expected.kind == "iters":
        return int(round(computed)) == int(expected.value)
    if expected.kind == "cond":
        tol = 5e-3 if expected.rtol is None else expected.rtol
        return abs(computed - expected.value) <= tol * abs(expected.value)
    if expected.kind != "error":
        raise ValueError(f"unknown expected-value kind {expected.kind!r}")
    if abs(expected.value) <= _SMALL:
        return abs(computed) <= _SMALL
    ratio = computed / expected.value
    return 0.5 <= ratio <= 2.0


def _err(v, source):
    return Expected(v, "error", source)


def _cond(v, source, rtol=None):
    return Expected(v, "cond", source, rtol)


def _errrow(source, r_g, r_a, r_avg, r_est):
    return {
        "r_g": _err(r_g, source),
        "r_a": _err(r_a, source),
        "r_avg": _err(r_avg, source),
        "r_est": _err(r_est, source),
    }


def _eqrow(source, xi_g, xi_a, xi_avg, kappa_g=None, kappa_a=None, iters=None, ka_rtol=None):
    row = {
        "xi_g": _err(xi_g, source),
        "xi_a": _err(xi_a, source),
        "xi_avg": _err(xi_avg, source),
    }
    if kappa_g is not None:
        row["kappa_g"] = _cond(kappa_g, source)
    if kappa_a is not None:
        row["kappa_a"] = _cond(kappa_a, source, rtol=ka_rtol)
    if iters is not None:
        row["iters"] = Expected(iters, "iters", source)
    return row


@dataclass(frozen=True, eq=False)
class TestCase:
    """One worked problem: inputs, reference recipe, expected-value rows.

    ``exact`` is the known solution that an equation case is scored
    against.  A cubature case (cub1, cub2) is scored against the Gauss
    cubature of sizes ``_REFERENCE_SIZES``.
    """

    id: str
    kind: str  # cubature | equation
    w1: JacobiWeight
    w2: JacobiWeight
    rows: tuple
    integrand: object = None
    u: SpaceWeight | None = None
    kernel_id: str = ""
    kernel_pair_ids: tuple = ()
    rhs_id: str = ""
    mult: float = 1.0
    exact: object = None
    solver: str = "auto"
    allow_uncontained: bool = False

    def sizes(self) -> tuple:
        return tuple(size for size, _ in self.rows)

    def problem(self) -> FredholmProblem:
        if self.kind != "equation":
            raise ValueError(f"case {self.id!r} is not an integral equation")
        kernel = KERNELS_2D[self.kernel_id] if self.kernel_id else None
        pair = tuple(KERNELS_1D[k] for k in self.kernel_pair_ids)
        return FredholmProblem(
            self.w1, self.w2, self.u, RHS[self.rhs_id],
            kernel=kernel, kernel_pair=pair, mult=self.mult,
        )


_LEGENDRE = JacobiWeight(0.0, 0.0)

CASES = {
    "cub1": TestCase(
        id="cub1",
        kind="cubature",
        w1=JacobiWeight(-0.5, -0.5),
        w2=_LEGENDRE,
        integrand=_f_edge_sine_power,
        rows=(
            ((4, 8), _errrow("table1", 1.63e-03, -1.63e-03, 1.27e-07, 1.63e-03)),
            ((8, 8), _errrow("table1", -1.27e-07, 1.27e-07, 1.22e-10, -1.27e-07)),
            ((16, 8), _errrow("table1", -1.21e-10, 1.22e-10, 1.11e-13, -1.22e-10)),
            ((32, 8), _errrow("table1", -1.15e-13, 1.10e-13, -2.66e-15, -1.12e-13)),
            ((64, 8), _errrow("table1", -2.22e-15, -3.11e-15, -2.66e-15, 4.44e-16)),
        ),
    ),
    "cub2": TestCase(
        id="cub2",
        kind="cubature",
        w1=JacobiWeight(0.5, 0.5),
        w2=JacobiWeight(-0.5, 0.0),
        integrand=_f_split_abs_power,
        allow_uncontained=True,  # second axis fails the node-containment test
        rows=(
            ((8, 8), _errrow("table2", -1.53e-05, 1.55e-05, 9.05e-08, -1.54e-05)),
            ((16, 16), _errrow("table2", -4.66e-07, 4.72e-07, 2.98e-09, -4.69e-07)),
            ((32, 32), _errrow("table2", -1.49e-08, 1.51e-08, 9.62e-11, -1.50e-08)),
            ((64, 64), _errrow("table2", -4.73e-10, 4.79e-10, 3.07e-12, -4.76e-10)),
            ((128, 128), _errrow("table2", -1.49e-11, 1.51e-11, 1.13e-13, -1.50e-11)),
            ((256, 256), _errrow("table2", -4.51e-13, 4.84e-13, 1.60e-14, -4.67e-13)),
        ),
    ),
    "eq1": TestCase(
        id="eq1",
        kind="equation",
        w1=_LEGENDRE,
        w2=_LEGENDRE,
        u=SpaceWeight(0.0, 0.0, 0.0, 0.0),
        kernel_pair_ids=("exp-sum", "product"),
        rhs_id="cos-sum-drift",
        mult=1.0,
        exact=_exact_cos_sum,
        solver="lu",
        rows=(
            ((2, 2), _eqrow("table3", 3.79e-02, 3.30e-02, 2.43e-03, 2.678, 8.504)),
            ((4, 4), _eqrow("table3", 2.38e-06, 2.38e-06, 3.00e-10, 19.016, 30.849)),
            ((6, 6), _eqrow("table3", 2.50e-11, 2.50e-11, 1.33e-15, 30.308, 36.235)),
            # reference source for the (8,8) anti condition number is
            # self-inconsistent (breaks the column trend and duplicates the
            # gauss value); the trend value is stored with a loose band
            ((8, 8), _eqrow("table3", 5.55e-16, 9.99e-16, 7.22e-16, 34.967, 38.159, ka_rtol=0.15)),
        ),
    ),
    "eq2": TestCase(
        id="eq2",
        kind="equation",
        w1=JacobiWeight(0.5, 0.5),
        w2=_LEGENDRE,
        u=SpaceWeight(1.0, 1.25, 2.0 / 3.0, 2.0 / 3.0),
        kernel_id="sin-affine",
        rhs_id="log-sin-root",
        mult=0.3,
        exact=partial(_degenerate_solution, "eq2"),
        solver="gmres-fm",
        rows=(
            ((16, 16), _eqrow("table4", 3.28e-06, 2.88e-06, 2.04e-07, 32.148, 51.621, iters=3)),
            ((32, 16), _eqrow("table4", 2.30e-07, 2.01e-07, 1.44e-08, 36.045, 54.606, iters=3)),
            ((64, 16), _eqrow("table4", 1.53e-08, 1.34e-08, 9.52e-10, 38.933, 56.108, iters=3)),
            ((128, 16), _eqrow("table4", 9.82e-10, 8.62e-10, 6.03e-11, 40.998, 57.277, iters=3)),
            ((256, 16), _eqrow("table4", 6.13e-11, 5.57e-11, 2.78e-12, 42.433, 58.044, iters=3)),
            ((512, 16), _eqrow("table4", 2.80e-12, 4.57e-12, 8.80e-13, 43.442, 58.591, iters=3)),
        ),
    ),
    "eq3": TestCase(
        id="eq3",
        kind="equation",
        w1=JacobiWeight(0.5, 0.5),
        w2=JacobiWeight(0.5, 0.5),
        u=SpaceWeight(1.25, 1.25, 1.25, 1.25),
        kernel_pair_ids=("exp-negprod", "exp-negprod"),
        rhs_id="cos-pow-sinroot",
        mult=0.3,
        exact=partial(_degenerate_solution, "eq3"),
        solver="gmres-sk",
        rows=(
            ((16, 16), _eqrow("ex3", 5.60e-09, 5.42e-09, 8.77e-11)),
            ((32, 32), _eqrow("ex3", 1.05e-10, 1.02e-10, 1.64e-12)),
            ((64, 64), _eqrow("ex3", 1.80e-12, 1.74e-12, 2.81e-14)),
            ((128, 128), _eqrow("ex3", 2.94e-14, 2.87e-14, 5.29e-16)),
            ((256, 256), _eqrow("ex3", 8.82e-16, 9.71e-16, 2.65e-16)),
        ),
    ),
    "eq4": TestCase(
        id="eq4",
        kind="equation",
        w1=JacobiWeight(-0.5, 0.0),
        w2=JacobiWeight(0.5, 0.5),
        u=SpaceWeight(0.0, 0.25, 0.5, 1.25),
        kernel_pair_ids=("abs-cos-pow", "affine-sum"),
        rhs_id="exp-sin",
        mult=1.0 / 7.0,
        exact=partial(_degenerate_solution, "eq4"),
        solver="auto",
        allow_uncontained=True,  # first axis fails the node-containment test
        rows=(
            ((16, 16), _eqrow("table6", 4.71e-09, 4.92e-09, 1.05e-10)),
            ((32, 16), _eqrow("table6", 8.90e-11, 8.99e-11, 4.97e-13)),
            ((64, 16), _eqrow("table6", 5.44e-13, 6.32e-13, 4.39e-14)),
            ((128, 16), _eqrow("table6", 2.49e-14, 2.65e-14, 8.34e-16)),
        ),
    ),
    # demo problem with a vanishing kernel: the interpolant equals the rhs
    "zerok": TestCase(
        id="zerok",
        kind="equation",
        w1=_LEGENDRE,
        w2=_LEGENDRE,
        u=SpaceWeight(0.0, 0.0, 0.0, 0.0),
        kernel_pair_ids=("zero", "zero"),
        rhs_id="exp-sin",
        exact=_g_exp_sin,
        rows=(),
    ),
}


def list_cases() -> tuple:
    return tuple(CASES)


def get_case(case_id: str) -> TestCase:
    try:
        return CASES[case_id]
    except KeyError:
        raise ValueError(f"unknown case id {case_id!r}; known: {', '.join(CASES)}") from None


# ---------------------------------------------------------------- caches

def clear_memo() -> None:
    """Empty every in-process cache of this module; the disk files stay."""
    for cached in (_ref_integral, _ref_grid, _degenerate_coeffs):
        cached.cache_clear()


def cache_dir() -> Path:
    env = os.environ.get("SQUAREQUAD_CACHE")
    return Path(env) if env else Path.home() / ".cache" / "squarequad"


@cache
def _code_key() -> np.ndarray:
    """The numpy version and every package source, byte for byte.

    Names and sources are joined by NUL bytes, which neither can contain,
    so two different code versions never give equal keys.
    """
    parts = [np.__version__.encode()]
    for path in sorted(Path(__file__).parent.glob("*.py")):
        parts += [path.name.encode(), path.read_bytes()]
    return np.frombuffer(b"\0".join(parts), dtype=np.uint8)  # read-only


def _cache_file(case_id: str) -> Path:
    return cache_dir() / f"case-{case_id}.npz"


def _disk_get(case_id: str, key: str):
    """The case file's value; None when it is missing, corrupt, from other code or another key's."""
    try:
        with np.load(_cache_file(case_id)) as z:
            if key in z.files and np.array_equal(z["code"], _code_key()):
                return z[key]
    except Exception:
        pass  # a missing or corrupt cache regenerates
    return None


def _disk_store(case_id: str, key: str, value) -> None:
    path = _cache_file(case_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    # one temporary per process: checkouts sharing the directory share the name
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(tmp, code=_code_key(), **{key: value})
    os.replace(tmp, path)


# ---------------------------------------------------------------- table rows

# (n1, n2) of the Gauss cubature that scores both cubature cases
_REFERENCE_SIZES = (512, 512)


@cache
def _ref_integral(case) -> float:
    """A cubature case's reference integral: the disk cache, else built and stored."""
    value = _disk_get(case.id, "ref_integral")
    if value is None:
        value = gauss_cubature(case.w1, case.w2, *_REFERENCE_SIZES).apply(case.integrand)
        _disk_store(case.id, "ref_integral", value)
    return float(value)


@cache
def _ref_grid(case) -> np.ndarray:
    """Weighted exact-solution values on the comparison lattice; None without one."""
    if case.exact is None:
        return None
    grid = _lattice_values(case.exact, case.u)
    grid.setflags(write=False)  # the cached result is shared by every caller
    return grid


_METRIC_ORDER = (
    "r_g", "r_a", "r_avg", "r_est",
    "xi_g", "xi_a", "xi_avg", "kappa_g", "kappa_a", "iters",
)


def _row_values(case, size, wanted, solver, tol=1e-14) -> dict:
    """A row's ``wanted`` values from one rule pair or one solution pair.

    The only code that solves an equation row, for the tables and for
    ``squarequad solve``.  Besides the table metrics, ``wanted`` may name
    "lattice", the Gauss and companion values on the comparison lattice;
    "solver", the solvers that ran ("gauss/companion" where they differ);
    and, on that lattice, "fraction_between", "sign_changes" (along y2)
    and "gap_half_rel" of the two interpolants.  Without a known solution
    there are no xi and fraction_between is "n/a"; with one there is no
    gap_half_rel.  ``iters`` is None after a direct solve.  A condition
    number above the library's cap is "skipped".

    The rule kinds are solved one at a time, each at most once and the
    companion first: a solution lives only until what is wanted of it is
    read.  No rule kind is solved unless a wanted value reads it.
    """
    n1, n2 = size
    if case.kind == "cubature":
        g = gauss_cubature(case.w1, case.w2, n1, n2).apply(case.integrand)
        a = antigauss_cubature(
            case.w1, case.w2, n1, n2, allow_uncontained=case.allow_uncontained
        ).apply(case.integrand)
        ref = _ref_integral(case)
        return {"r_g": ref - g, "r_a": ref - a, "r_avg": ref - 0.5 * (g + a), "r_est": 0.5 * (a - g)}

    bracketing = not wanted.isdisjoint(("fraction_between", "sign_changes"))
    on_lattice = bracketing or not wanted.isdisjoint(
        ("lattice", "xi_g", "xi_a", "xi_avg", "gap_half_rel")
    )
    values, lattice = {}, {}

    def read(kind, kappa_key):
        # the solution dies when this returns
        iters = kind == "gauss" and "iters" in wanted
        if not (on_lattice or iters or kappa_key in wanted or "solver" in wanted):
            return
        sol = solve_nystrom(
            case.problem(), n1, n2, rulekind=kind, solver=solver, tol=tol,
            allow_uncontained=case.allow_uncontained,
        )
        if on_lattice:
            lattice[kind] = _lattice_values(sol)
        if kappa_key in wanted:
            try:
                values[kappa_key] = condition_number_inf(sol)
            except CapacityError:
                values[kappa_key] = "skipped"
        if "solver" in wanted:
            # the companion's is read first: "gauss/companion" where they differ
            ran = sol.solver
            first = values.get("solver", ran)
            values["solver"] = ran if ran == first else f"{ran}/{first}"
        if iters:
            values["iters"] = sol.iterations

    # the companion system, one point larger per axis, first: a lattice
    # evaluation leaves its row blocks in the heap, under the next assembly
    read("antigauss", "kappa_a")
    read("gauss", "kappa_g")
    if on_lattice:
        vg, va = values["lattice"] = lattice["gauss"], lattice["antigauss"]
        ref = _ref_grid(case)
        if ref is not None:
            for key, v in (("xi_g", vg), ("xi_a", va), ("xi_avg", 0.5 * (vg + va))):
                values[key] = relative_error(v, ref)
        elif "gap_half_rel" in wanted:
            # no xi without a reference: the half-gap bounds the averaged
            # error when the interpolants bracket the solution
            values["gap_half_rel"] = float(
                0.5 * np.max(np.abs(vg - va)) / np.max(np.abs(0.5 * (vg + va)))
            )
        if bracketing:
            br = bracketing_check(vg, va, ref=ref)
            values["fraction_between"] = "n/a" if ref is None else br.fraction_between
            values["sign_changes"] = int(np.count_nonzero(np.diff(br.sign)))
    return values


@dataclass(frozen=True, eq=False)
class RowResult:
    size: tuple
    metric: str
    computed: float
    expected: Expected
    ok: bool


@dataclass(frozen=True, eq=False)
class CaseReport:
    case_id: str
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def lines(self) -> list:
        good = sum(r.ok for r in self.rows)
        out = [f"case {self.case_id}: {good}/{len(self.rows)} values within tolerance"]
        for r in self.rows:
            if r.expected.kind == "iters":
                shown = f"computed={int(round(r.computed)):d}         expected={int(r.expected.value):d}"
            else:
                shown = f"computed={r.computed: .6e} expected={r.expected.value: .6e}"
            out.append(
                f"  n=({r.size[0]},{r.size[1]}) {r.metric:<8} {shown}"
                f"  [{r.expected.source}]  {'ok' if r.ok else 'FAIL'}"
            )
        return out


def run_case(case_id: str, sizes=None, metrics=None, solver=None) -> CaseReport:
    """Recompute a case's stored rows and compare against the table.

    ``sizes`` and ``metrics`` restrict the work; ``solver`` overrides the
    case's solver for the row solves.  Unknown ids raise ValueError.
    """
    case = get_case(case_id)
    solver = solver or case.solver
    wanted = None if sizes is None else {tuple(s) for s in sizes}
    results = []
    for size, table in case.rows:
        if wanted is not None and size not in wanted:
            continue
        names = [m for m in _METRIC_ORDER if m in table and (metrics is None or m in metrics)]
        if not names:
            continue
        values = _row_values(case, size, set(names), solver)
        for metric in names:
            expected = table[metric]
            computed = float(-1 if values[metric] is None else values[metric])
            results.append(RowResult(size, metric, computed, expected, check_value(computed, expected)))
    if not results:
        raise ValueError(f"no stored rows selected for case {case_id!r}")
    return CaseReport(case_id, tuple(results))
