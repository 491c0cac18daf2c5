"""Nystrom discretization of second-kind integral equations on the square.

The unknown lives in a weighted sup-norm space: all function values are
carried around multiplied by a boundary weight u, which keeps endpoint
singularities of the data out of the linear algebra.  Discretizing with
the tensor Gauss rule and with its companion rule gives two interpolants
that straddle the solution wherever the underlying rules straddle the
integral, and their average then halves the attainable error bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import linsolve
from .cubature import CubatureRule2D, antigauss_cubature, gauss_cubature
from .errors import AssemblyError, CapacityError, ConvergenceError, EvaluationError
from .linsolve import SystemOperator, fold, gmres, lu_solve, row_blocks, stein_solve, unfold
from .orthopoly import JacobiWeight

__all__ = [
    "SpaceWeight",
    "FredholmProblem",
    "NystromSolution",
    "AveragedInterpolant",
    "GridBracketing",
    "assemble_system",
    "solve_nystrom",
    "interpolant_eval",
    "averaged_interpolant",
    "relative_error",
    "condition_number_inf",
    "bracketing_check",
]

# the cross approximation's rank cap, and the largest system assembled as a
# dense matrix, whether requested or as the fallback when no factors verify
_ACA_RANK_CAP = 64
_DENSE_LIMIT = 5000

# a declared degenerate kernel is checked on this many fixed-seed collocation
# rows of K, each against U V^T within _CHECK_RTOL of the larger of max |K|
# and max |U| |V|^T on those rows
_CHECK_ROWS = 4
_CHECK_SEED = 20001
_CHECK_RTOL = 64 * np.finfo(float).eps


def _lagrange_basis(t, x):
    """l_p(x) of the Lagrange basis on the nodes t, shape (len(x), len(t))."""
    d = np.asarray(x, dtype=float).reshape(1, -1) - t[:, None]
    # prod_{q != p} (x - t_q) from prefix and suffix products of the rows of d
    ones = np.ones_like(d[:1])
    left = np.cumprod(np.vstack([ones, d[:-1]]), axis=0)
    right = np.cumprod(np.vstack([ones, d[:0:-1]]), axis=0)[::-1]
    diff = t[:, None] - t
    np.fill_diagonal(diff, 1.0)
    return (left * right / np.prod(diff, axis=1)[:, None]).T


def _powfac(base, expo):
    # exponent 0 short-circuits so nodes slightly beyond the interval stay finite
    if expo == 0.0:
        return np.ones_like(np.asarray(base, dtype=float))
    return np.asarray(base, dtype=float) ** expo


@dataclass(frozen=True)
class SpaceWeight:
    """Boundary weight u(x) = prod_l (1 - x_l)^gamma_l (1 + x_l)^delta_l."""

    gamma1: float
    delta1: float
    gamma2: float
    delta2: float

    def __post_init__(self):
        for name in ("gamma1", "delta1", "gamma2", "delta2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    def eval_axis(self, axis: int, x) -> np.ndarray:
        if axis == 1:
            g, d = self.gamma1, self.delta1
        elif axis == 2:
            g, d = self.gamma2, self.delta2
        else:
            raise ValueError(f"axis must be 1 or 2, got {axis}")
        x = np.asarray(x, dtype=float)
        return _powfac(1.0 - x, g) * _powfac(1.0 + x, d)

    def eval(self, x1, x2) -> np.ndarray:
        return self.eval_axis(1, x1) * self.eval_axis(2, x2)


@dataclass(frozen=True)
class FredholmProblem:
    """Data of (I - K) f = g with a product Jacobi weight in the integral.

    The kernel enters either as a single callable k(x1, x2, y1, y2) with
    the integration point first, or as a separable pair (k1, k2) of axis
    factors k_l(x, y); exactly one of the two.  Like the kernel, ``rhs``
    must broadcast its arguments: a separable system evaluates it on the
    outer grid of the axis nodes.  ``mult`` scales the integral operator.
    The boundary weight must be admissible for the quadrature weight:
    gamma_l < alpha_l + 1 and delta_l < beta_l + 1.

    A single kernel may declare itself degenerate in y through an attribute
    ``y_nodes = (t1, t2)``, two 1-d arrays of distinct nodes: it then equals
    its Lagrange interpolant on t1 x t2 in the point y, and assembly and
    interpolation use those exact factors instead of cross approximation.
    """

    w1: JacobiWeight
    w2: JacobiWeight
    u: SpaceWeight
    rhs: object
    kernel: object = None
    kernel_pair: tuple = ()
    mult: float = 1.0

    def __post_init__(self):
        if (self.kernel is None) == (not self.kernel_pair):
            raise ValueError("provide exactly one of kernel or kernel_pair")
        if self.kernel_pair and len(self.kernel_pair) != 2:
            raise ValueError("kernel_pair must hold the two axis factors")
        pairs = [
            ("gamma1", self.u.gamma1, "alpha1", self.w1.alpha),
            ("delta1", self.u.delta1, "beta1", self.w1.beta),
            ("gamma2", self.u.gamma2, "alpha2", self.w2.alpha),
            ("delta2", self.u.delta2, "beta2", self.w2.beta),
        ]
        for uname, uval, wname, wval in pairs:
            if not (uval < wval + 1.0):
                raise ValueError(
                    f"space weight not admissible: need {uname} < {wname} + 1, "
                    f"got {uname}={uval} against {wname}={wval}"
                )
        nodes = self.kernel_nodes
        if nodes is not None and not (len(nodes) == 2 and all(
            t.ndim == 1 and t.size and np.all(np.isfinite(t)) and len(set(t.tolist())) == t.size
            for t in nodes
        )):
            raise ValueError("kernel y_nodes must be two 1-d arrays of distinct finite nodes")

    @property
    def separable(self) -> bool:
        return bool(self.kernel_pair)

    @property
    def kernel_nodes(self):
        """The y-interpolation nodes (t1, t2) the kernel declares, or None."""
        nodes = getattr(self.kernel, "y_nodes", None)
        return None if nodes is None else tuple(np.asarray(t, dtype=float) for t in nodes)

    def kernel_values(self, x1, x2, y1, y2) -> np.ndarray:
        """Kernel including the multiplier; integration point first."""
        if self.kernel_pair:
            k1, k2 = self.kernel_pair
            vals = np.asarray(k1(x1, y1), dtype=float) * np.asarray(k2(x2, y2), dtype=float)
        else:
            vals = np.asarray(self.kernel(x1, x2, y1, y2), dtype=float)
        return self.mult * vals


def _axis_weight_values(problem, rule):
    """Space weight at the axis nodes, validated positive and finite."""
    out = []
    for axis, r in ((1, rule.rule1), (2, rule.rule2)):
        vals = problem.u.eval_axis(axis, r.nodes)
        bad = ~(np.isfinite(vals) & (vals > 0.0))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise AssemblyError(
                f"space weight is {vals[i]!r} at axis-{axis} node {r.nodes[i]:.17g}; "
                "every node must carry a positive weight",
                node=(axis, r.nodes[i]),
            )
        out.append(vals)
    return out


def _rhs_values(problem, y1, y2) -> np.ndarray:
    """g at the points (y1, y2), broadcast together.

    EvaluationError names the first non-finite value in C order, which is
    the flat order of the rule grid for flat points and for the transposed
    grid y1[None, :], y2[:, None].
    """
    shape = np.broadcast_shapes(y1.shape, y2.shape)
    vals = np.broadcast_to(np.asarray(problem.rhs(y1, y2), dtype=float), shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        y1, y2 = np.broadcast_arrays(y1, y2)
        i = np.unravel_index(int(np.argmax(bad)), shape)
        raise EvaluationError(
            f"right-hand side not finite at ({y1[i]:.17g}, {y2[i]:.17g})",
            node=(y1[i], y2[i]),
        )
    return vals


def _kernel_block(problem, x1, x2, y1, y2) -> np.ndarray:
    """Checked kernel block K[i, j] = k(x_j; y_i), integration nodes x, points y."""
    vals = problem.kernel_values(x1[None, :], x2[None, :], y1[:, None], y2[:, None])
    if not np.all(np.isfinite(vals)):
        r, c = np.unravel_index(int(np.argmax(~np.isfinite(vals))), vals.shape)
        raise AssemblyError(
            f"kernel not finite at integration node ({x1[c]:.17g}, {x2[c]:.17g}), "
            f"point ({y1[r]:.17g}, {y2[r]:.17g})",
            node=(x1[c], x2[c]),
        )
    return vals


def _axis_block(problem, axis: int, x, y) -> np.ndarray:
    """Checked axis factor block k_l(x_j, y_i), integration nodes x, points y."""
    vals = np.asarray(problem.kernel_pair[axis - 1](x[None, :], y[:, None]), dtype=float)
    if not np.all(np.isfinite(vals)):
        r, c = np.unravel_index(int(np.argmax(~np.isfinite(vals))), vals.shape)
        raise AssemblyError(
            f"axis-{axis} kernel factor not finite at integration node {x[c]:.17g}, "
            f"point {y[r]:.17g}",
            node=(axis, x[c]),
        )
    return vals


def _declared_basis(problem, y1, y2) -> np.ndarray:
    """l_p(y1) l_q(y2) on the kernel's declared nodes, column pq = p len(t2) + q."""
    t1, t2 = problem.kernel_nodes
    l1, l2 = _lagrange_basis(t1, y1), _lagrange_basis(t2, y2)
    return (l1[:, :, None] * l2[:, None, :]).reshape(l1.shape[0], -1)


def _declared_values(problem, x1, x2) -> np.ndarray:
    """Checked kernel block mult k(x_j; (t1_p, t2_q)), row pq, at the declared nodes."""
    t1, t2 = problem.kernel_nodes
    return _kernel_block(problem, x1, x2, np.repeat(t1, t2.size), np.tile(t2, t1.size))


def _declared_factors(problem, x1, x2):
    """Exact factors K = U V^T on the flat grid (x1, x2) of a declared kernel.

    U[i, pq] = l_p(x1_i) l_q(x2_i) and V[j, pq] = mult k(x_j; (t1_p, t2_q)).
    The declaration is trusted only after a check: _CHECK_ROWS fixed-seed
    collocation rows of K, N kernel values each, must match U V^T to the
    rounding level, or AssemblyError names the worst entry.
    """
    U = _declared_basis(problem, x1, x2)
    V = _declared_values(problem, x1, x2).T
    N = x1.size
    # the standard library's generator: numpy.random costs 11 ms to import
    rows = np.array(sorted(random.Random(_CHECK_SEED).sample(range(N), min(_CHECK_ROWS, N))))
    K = _kernel_block(problem, x1, x2, x1[rows], x2[rows])
    Ur = U[rows]
    err = np.abs(K - Ur @ V.T)
    scale = max(float(np.max(np.abs(K))), float(np.max(np.abs(Ur) @ np.abs(V).T)))
    r, c = np.unravel_index(int(np.argmax(err)), err.shape)
    # a NaN error fails this test too
    if not err[r, c] <= _CHECK_RTOL * scale:
        raise AssemblyError(
            f"kernel differs from its interpolant on the declared y nodes by {err[r, c]:.3e} "
            f"at integration node ({x1[c]:.17g}, {x2[c]:.17g}), point "
            f"({x1[rows[r]]:.17g}, {x2[rows[r]]:.17g}); bound {_CHECK_RTOL * scale:.3e}",
            node=(x1[c], x2[c]),
        )
    return U, V


def assemble_system(problem: FredholmProblem, rule: CubatureRule2D, realization: str):
    """Collocation system (I - Phi) a = (g u)(nodes) on the rule's grid.

    Returns (operator, rhs).  ``realization`` picks the operator storage:
    ``separable`` (needs a kernel pair), ``factored`` or ``dense``.

    A kernel that declares its y nodes (``FredholmProblem``) has exact
    factors K = U V^T of rank P = len(t1) len(t2): U holds the Lagrange
    basis at the collocation points and V the kernel at the P node pairs.
    Every non-separable realization checks that declaration first, on a
    few fixed-seed rows of K, and raises AssemblyError where it fails;
    between those rows it is trusted.  ``factored`` stores these factors
    from (P + 4) N kernel values.  An undeclared kernel gets cross factors
    K ~= U V^T from ``linsolve.aca``, verified in one blocked sweep over
    every row of K; when no factors of rank <= min(64, N / 2) pass, the
    system falls back to ``dense``.  A dense system above 5000 unknowns,
    requested or as the fallback, raises CapacityError before the matrix
    is allocated.  A non-finite kernel value raises AssemblyError naming
    its integration node.
    """
    if rule.kind not in ("gauss", "antigauss"):
        raise ValueError(f"assembly needs a tensor rule, got kind {rule.kind!r}")
    if realization not in ("separable", "factored", "dense"):
        raise ValueError(f"unknown realization {realization!r}")
    if realization == "separable" and not problem.separable:
        raise ValueError("separable realization needs a kernel pair")

    u1, u2 = _axis_weight_values(problem, rule)
    n1 = rule.rule1.npoints
    n2 = rule.rule2.npoints

    if realization == "separable":
        # the rule's factors only: g u on the transposed grid, whose C order
        # is the flat order (axis 1 fastest), so h is a view of it
        x1, x2 = rule.rule1.nodes, rule.rule2.nodes
        h = (_rhs_values(problem, x1[None, :], x2[:, None]) * np.multiply.outer(u2, u1)).ravel()
        K1 = _axis_block(problem, 1, x1, x1)
        K2 = _axis_block(problem, 2, x2, x2)
        phi1 = problem.mult * rule.rule1.weights[None, :] * (u1[:, None] / u1[None, :]) * K1
        phi2 = rule.rule2.weights[None, :] * (u2[:, None] / u2[None, :]) * K2
        op = SystemOperator("separable", n1, n2, phi1=phi1, phi2=phi2)
        return op, h

    uflat = np.tile(u1, n2) * np.repeat(u2, n1)
    dflat = rule.weights / uflat
    x1f, x2f = rule.nodes1, rule.nodes2
    h = _rhs_values(problem, x1f, x2f) * uflat
    N = n1 * n2

    def entries(rows, cols):
        return _kernel_block(problem, x1f[cols], x2f[cols], x1f[rows], x2f[rows])

    def dense():
        if N > _DENSE_LIMIT:
            raise CapacityError(
                f"a dense system of {N} unknowns exceeds {_DENSE_LIMIT}; only a kernel "
                "pair or verified cross factors avoid the N x N matrix"
            )
        # I - Phi built in place: the roundings of np.eye(N) - (u K) d
        # without its N x N temporaries
        F = uflat[:, None] * entries(slice(None), slice(None))
        F *= dflat[None, :]
        diag = 1.0 - F.diagonal()
        np.subtract(0.0, F, out=F)
        np.fill_diagonal(F, diag)
        return SystemOperator("dense", n1, n2, dense=F)

    factors = None if problem.kernel_nodes is None else _declared_factors(problem, x1f, x2f)
    if realization == "dense":
        return dense(), h
    if factors is None:
        factors = linsolve.aca(entries, N, min(_ACA_RANK_CAP, N // 2))
        if factors is None:
            return dense(), h
    return SystemOperator("factored", n1, n2, u=uflat, d=dflat, factors=factors), h


class NystromSolution:
    """Solved collocation system plus everything interpolation needs."""

    def __init__(self, problem, rule, rulekind, solver, coeffs, stats, op):
        self.problem = problem
        self.rule = rule
        self.rulekind = rulekind
        self.solver = solver
        self.coeffs = coeffs
        self.stats = stats
        self.op = op
        self._on_lattice = None  # weighted values on the comparison lattice

    @property
    def iterations(self):
        return None if self.stats is None else self.stats.iterations

    def eval(self, y1, y2, unweighted: bool = True):
        return interpolant_eval(self, y1, y2, unweighted=unweighted)


def solve_nystrom(
    problem: FredholmProblem,
    n1: int,
    n2: int,
    rulekind: str = "gauss",
    solver: str = "auto",
    tol: float = 1e-14,
    allow_uncontained: bool = False,
) -> NystromSolution:
    """Discretize with the requested rule kind and solve.

    ``rulekind`` is ``gauss`` (n1 x n2 points) or ``antigauss`` (one more
    per axis).  Solvers: ``lu``, ``gmres`` (dense matvec), ``gmres-fm``
    (low-rank matvec), ``gmres-sk`` and ``stein`` (separable kernels
    only), or ``auto``.  ``stein`` falls back to ``gmres-sk`` whenever its
    iteration diverges or stalls; ``NystromSolution.solver`` names the
    solver that ran.
    ``tol`` is the relative residual target of GMRES and Stein alike and
    must be a finite number > 0.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if rulekind == "gauss":
        rule = gauss_cubature(problem.w1, problem.w2, n1, n2)
    elif rulekind == "antigauss":
        rule = antigauss_cubature(
            problem.w1, problem.w2, n1, n2, allow_uncontained=allow_uncontained
        )
    else:
        raise ValueError(f"rulekind must be gauss or antigauss, got {rulekind!r}")

    if solver == "auto":
        if problem.separable:
            solver = "gmres-sk"
        elif rule.npoints <= 1024:
            solver = "lu"
        else:
            solver = "gmres-fm"
    if solver in ("gmres-sk", "stein") and not problem.separable:
        raise ValueError(f"solver {solver!r} needs a separable kernel")

    realization = {
        "lu": "dense",
        "gmres": "dense",
        "gmres-fm": "factored",
        "gmres-sk": "separable",
        "stein": "separable",
    }.get(solver)
    if realization is None:
        raise ValueError(f"unknown solver {solver!r}")

    op, h = assemble_system(problem, rule, realization=realization)

    stats = None
    used = solver
    if solver == "lu":
        coeffs = lu_solve(op, h)
    elif solver == "stein":
        try:
            coeffs = unfold(stein_solve(op.phi1, op.phi2, fold(h, op.n1, op.n2), tol=tol))
        except ConvergenceError:
            used = "gmres-sk"
            coeffs, stats = gmres(op, h, tol=tol)
    else:
        coeffs, stats = gmres(op, h, tol=tol)
    return NystromSolution(problem, rule, rulekind, used, coeffs, stats, op)


def _weight_values(u: SpaceWeight, y1b, y2b, grid: bool) -> np.ndarray:
    """u at the broadcast points, flat; on a grid from its m + n axis values,
    the same products SpaceWeight.eval forms point by point."""
    if grid:
        return np.multiply.outer(u.eval_axis(1, y1b[:, 0]), u.eval_axis(2, y2b[0, :])).ravel()
    return u.eval(y1b.ravel(), y2b.ravel())


def interpolant_eval(sol: NystromSolution, y1, y2, unweighted: bool = True):
    """Weighted and plain interpolant values at the points (y1, y2).

    Returns (fu, f); ``f`` is None when ``unweighted`` is False.  Asking
    for the plain value where u vanishes is a domain error, while the
    weighted value extends continuously to the whole closed square.  A
    kernel value that is not finite raises AssemblyError, as in assembly.
    A separable solution is summed from the rule's 1D factors and its
    coefficients D on the n1 x n2 grid, without the rule's flat arrays.
    Points that form an m x n grid (y1 constant along axis 1 and y2 along
    axis 0, as the comparison lattice and the outer form y1[:, None],
    y2[None, :] are) are summed in tensor form, mult B1 D B2^T, from the
    m n1 + n n2 axis-kernel values B_l = k_l(z_l, grid line) in one fixed
    einsum order; scattered points are summed in row blocks.  On such a
    grid the space weight comes from its m + n axis values, whatever the
    kernel; the right-hand side g is evaluated point by point.  A
    kernel that declares its y nodes, whatever the realization, is summed
    in its degenerate form: c_pq = sum_j k(x_j; t_pq) (lambda / u)_j a_j
    from P N kernel values, then sum_pq l_p(y1) l_q(y2) c_pq at the points.
    Only an undeclared kernel is evaluated at every (point, node) pair, in
    row blocks.  Every non-separable sum runs in one fixed order.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    y1b, y2b = np.broadcast_arrays(y1, y2)
    shape = y1b.shape
    y1f = y1b.ravel()
    y2f = y2b.ravel()
    prob = sol.problem
    rule = sol.rule
    # a grid (y1 constant along axis 1, y2 along axis 0) is told from the
    # values, not the shapes: the lattice arrives as two full 2-d arrays
    grid = (
        y1b.ndim == 2 and y1b.size > 0
        and np.array_equal(y1b, np.broadcast_to(y1b[:, :1], shape))
        and np.array_equal(y2b, np.broadcast_to(y2b[:1, :], shape))
    )

    uy = _weight_values(prob.u, y1b, y2b, grid)
    gy = _rhs_values(prob, y1f, y2f)

    acc = np.empty(y1f.size)
    u1, u2 = _axis_weight_values(prob, rule)
    if prob.separable:
        # axis-factored sum keeps memory linear in the rule size
        z1, z2 = rule.rule1.nodes, rule.rule2.nodes
        # D = (lambda / u) a on the grid, Fortran-ordered like fold(a): both
        # sums below round by the layout of D
        lam = np.multiply.outer(rule.rule2.weights, rule.rule1.weights).T
        D = lam / np.multiply.outer(u2, u1).T * fold(sol.coeffs, z1.size, z2.size)
        if grid:
            # mult B1 D B2^T from the axis kernels at the grid's own lines;
            # einsum adds in one fixed order, a gemm would round by the
            # BLAS thread count
            B1 = _axis_block(prob, 1, z1, y1b[:, 0])
            B2 = _axis_block(prob, 2, z2, y2b[0, :])
            acc = prob.mult * np.einsum("pk,qk->pq", np.einsum("pj,jk->pk", B1, D), B2).ravel()
        else:
            # scattered points: a block holds rows of A1 and A2 plus kernel
            # temporaries of equal width
            for lo, hi in row_blocks(y1f.size, 2 * (z1.size + z2.size)):
                A1 = _axis_block(prob, 1, z1, y1f[lo:hi])
                A2 = _axis_block(prob, 2, z2, y2f[lo:hi])
                acc[lo:hi] = prob.mult * np.sum((A1 @ D) * A2, axis=1)
    else:
        # (lambda / u) a from u's n1 + n2 axis values, as assembly forms d
        da = (rule.weights / (np.tile(u1, u2.size) * np.repeat(u2, u1.size))) * sol.coeffs
        if prob.kernel_nodes is not None:
            # einsum adds in one fixed order; BLAS would round by the thread count
            c = np.einsum("ij,j->i", _declared_values(prob, rule.nodes1, rule.nodes2), da)
            acc = np.einsum("ij,j->i", _declared_basis(prob, y1f, y2f), c)
        else:
            for lo, hi in row_blocks(y1f.size, rule.npoints):
                kb = prob.kernel_values(
                    rule.nodes1[None, :], rule.nodes2[None, :], y1f[lo:hi, None], y2f[lo:hi, None]
                )
                # einsum adds each row in one fixed order; a BLAS gemv would round
                # by the block's row count and the thread count
                acc[lo:hi] = np.einsum("ij,j->i", kb, da)
            bad = ~np.isfinite(acc)
            if np.any(bad):
                # a non-finite kernel value spoils the sum at its point, so only the
                # first such point is evaluated again through the checked block
                i = int(np.argmax(bad))
                _kernel_block(prob, rule.nodes1, rule.nodes2, y1f[i : i + 1], y2f[i : i + 1])
    fu = (gy * uy + uy * acc).reshape(shape)

    if not unweighted:
        return fu, None
    if np.any(uy == 0.0):
        i = int(np.argmax(uy == 0.0))
        raise ValueError(
            f"plain value requested at ({y1f[i]:.17g}, {y2f[i]:.17g}) where the "
            "space weight vanishes; request the weighted value instead"
        )
    f = (fu.ravel() / uy).reshape(shape)
    return fu, f


class AveragedInterpolant:
    """Pointwise mean of a Gauss and a companion-rule interpolant."""

    def __init__(self, gauss_sol: NystromSolution, anti_sol: NystromSolution):
        if gauss_sol.rulekind != "gauss" or anti_sol.rulekind != "antigauss":
            raise ValueError("need one gauss solution and one antigauss solution")
        if gauss_sol.problem is not anti_sol.problem and gauss_sol.problem != anti_sol.problem:
            raise ValueError("the two solutions discretize different problems")
        if (gauss_sol.rule.n1, gauss_sol.rule.n2) != (anti_sol.rule.n1, anti_sol.rule.n2):
            raise ValueError(
                "rule sizes differ: "
                f"({gauss_sol.rule.n1}, {gauss_sol.rule.n2}) vs "
                f"({anti_sol.rule.n1}, {anti_sol.rule.n2})"
            )
        self.gauss_sol = gauss_sol
        self.anti_sol = anti_sol
        self.problem = gauss_sol.problem

    def eval(self, y1, y2, unweighted: bool = True):
        fug, fg = self.gauss_sol.eval(y1, y2, unweighted=unweighted)
        fua, fa = self.anti_sol.eval(y1, y2, unweighted=unweighted)
        fu = 0.5 * (fug + fua)
        if not unweighted:
            return fu, None
        return fu, 0.5 * (fg + fa)


def averaged_interpolant(gauss_sol, anti_sol) -> AveragedInterpolant:
    """Pair the two solutions into the averaged interpolant."""
    return AveragedInterpolant(gauss_sol, anti_sol)


def _comparison_lattice():
    pts = -1.0 + 2.0 * (np.arange(1, 51) - 0.5) / 50
    y1, y2 = np.meshgrid(pts, pts, indexing="ij")
    y1.setflags(write=False)
    y2.setflags(write=False)
    return y1, y2


# every error and bracketing measure compares weighted values on this 50 x 50
# midpoint lattice, which keeps clear of the boundary where u may vanish
_LATTICE = _comparison_lattice()


def _lattice_values(obj, u: SpaceWeight | None = None) -> np.ndarray:
    """Weighted values of ``obj`` on the comparison lattice.

    A NystromSolution is evaluated at most once and keeps the array; an
    AveragedInterpolant averages its two solutions' arrays; an array is
    taken as values already on the lattice; any other object with ``eval``
    is evaluated, and a plain callable is weighted with u.
    """
    if isinstance(obj, NystromSolution):
        if obj._on_lattice is None:
            fu = interpolant_eval(obj, *_LATTICE, unweighted=False)[0]
            fu.setflags(write=False)
            obj._on_lattice = fu
        return obj._on_lattice
    if isinstance(obj, AveragedInterpolant):
        return 0.5 * (_lattice_values(obj.gauss_sol) + _lattice_values(obj.anti_sol))
    if isinstance(obj, np.ndarray):
        if obj.shape != _LATTICE[0].shape:
            raise ValueError(f"lattice values need shape {_LATTICE[0].shape}, got {obj.shape}")
        return obj
    if hasattr(obj, "eval"):
        return np.asarray(obj.eval(*_LATTICE, unweighted=False)[0], dtype=float)
    if u is None:
        raise ValueError("a plain callable reference needs the space weight u")
    return np.asarray(obj(*_LATTICE), dtype=float) * u.eval(*_LATTICE)


def relative_error(approx, ref, u: SpaceWeight | None = None) -> float:
    """Weighted sup-norm distance on the comparison lattice, relative to ref.

    Both arguments may be interpolants (anything with ``eval``), plain
    callables for a known solution, which are weighted with u, or arrays
    of weighted values already on the lattice.  The lattice is the 50 x 50
    midpoint grid, which keeps clear of the boundary where u may vanish.
    """
    if u is None:
        for obj in (approx, ref):
            if hasattr(obj, "problem"):
                u = obj.problem.u
                break
    fa = _lattice_values(approx, u)
    fr = _lattice_values(ref, u)
    denom = float(np.max(np.abs(fr)))
    if denom == 0.0:
        raise ValueError("reference is identically zero on the comparison grid")
    return float(np.max(np.abs(fa - fr)) / denom)


@dataclass(frozen=True)
class GridBracketing:
    """Pointwise comparison of the two interpolants on the comparison lattice."""

    sign: np.ndarray
    between: np.ndarray | None
    fraction_between: float | None


def bracketing_check(gauss_sol, anti_sol, ref=None) -> GridBracketing:
    """Record where the reference sits between the two interpolants.

    Without a reference only the sign pattern of (gauss - companion) on
    the comparison lattice is recorded.  All comparisons use weighted
    values, so the check is meaningful up to the boundary.
    """
    fug = _lattice_values(gauss_sol)
    fua = _lattice_values(anti_sol)
    sign = np.sign(fug - fua).astype(np.int8)
    if ref is None:
        return GridBracketing(sign, None, None)
    u = gauss_sol.problem.u if hasattr(gauss_sol, "problem") else None
    fur = _lattice_values(ref, u)
    lower = np.minimum(fug, fua)
    upper = np.maximum(fug, fua)
    between = (fur >= lower) & (fur <= upper)
    return GridBracketing(sign, between, float(np.mean(between)))


def condition_number_inf(obj, cap: int = 4096) -> float:
    """Max-norm condition number of the assembled system."""
    if isinstance(obj, NystromSolution):
        obj = obj.op
    return linsolve.condition_number_inf(obj, cap=cap)
