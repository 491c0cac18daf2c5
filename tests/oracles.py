"""Independent reference computations used by the tests.

Everything here is deliberately written against different algorithms than
the library (bisection instead of QL, mpmath instead of float recurrences)
so agreement is evidence, not circularity.  The one exception is
``ql_numpy_scalars``: a frozen copy of the library's QL sweep as it ran on
numpy scalars, kept so the tests can demand bit-for-bit agreement with it.
"""

import math

import mpmath as mp
import numpy as np


def sturm_count(d, e, x) -> int:
    """Number of eigenvalues of the symmetric tridiagonal (d, e) below x.

    Plain Sturm sequence with the standard underflow guard.
    """
    count = 0
    q = 1.0
    tiny = 1e-300
    for i in range(len(d)):
        off = e[i - 1] ** 2 if i > 0 else 0.0
        q = (d[i] - x) - (off / q if q != 0.0 else off / tiny)
        if q < 0.0:
            count += 1
    return count


def tridiag_eigvals_bisect(d, e, tol=1e-14) -> np.ndarray:
    """All eigenvalues of the symmetric tridiagonal (d, e) by bisection."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = len(d)
    radius = np.max(np.abs(d)) + 2.0 * (np.max(np.abs(e)) if n > 1 else 0.0) + 1.0
    out = np.empty(n)
    for k in range(n):
        lo, hi = -radius, radius
        # invariant: count(lo) <= k < count(hi)
        while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if sturm_count(d, e, mid) <= k:
                lo = mid
            else:
                hi = mid
        out[k] = 0.5 * (lo + hi)
    return out


def ql_numpy_scalars(diag, offdiag):
    """Eigenvalues (ascending) and first eigenvector components by QL.

    The implicit-shift QL sweep with every read, operation and store on
    ndarray elements (numpy scalars).  ``eig_tridiag`` must reproduce its
    output bit for bit; do not edit the arithmetic.
    """
    d = np.array(diag, dtype=float)
    n = d.size
    e = np.zeros(n)
    e[: n - 1] = np.asarray(offdiag, dtype=float)
    z = np.zeros(n)
    z[0] = 1.0

    eps = np.finfo(float).eps
    for l in range(n):
        sweeps = 0
        while True:
            for m in range(l, n - 1):
                if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                    break
            else:
                m = n - 1
            if m == l:
                break
            if sweeps == 30:
                raise RuntimeError(f"eigenvalue {l} not converged after 30 sweeps")
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    order = np.argsort(d, kind="stable")
    return d[order], z[order]


def jacobi_b0(alpha: float, beta: float) -> float:
    """Total mass of the Jacobi weight, via the beta function."""
    val = mp.power(2, alpha + beta + 1) * mp.beta(alpha + 1, beta + 1)
    return float(val)


def integral_1d(f, alpha, beta, digits=30) -> float:
    """High-precision weighted integral of a smooth f on (-1, 1)."""
    with mp.workdps(digits):
        val = mp.quad(
            lambda t: f(float(t)) * mp.power(1 - t, alpha) * mp.power(1 + t, beta),
            [-1, 0, 1],
        )
    return float(val)


def random_poly_pair(rng, deg1, deg2):
    """Random bivariate polynomial sum c_{ij} x1^i x2^j and its evaluator."""
    c = rng.standard_normal((deg1 + 1, deg2 + 1))

    def p(x1, x2):
        return np.polynomial.polynomial.polyval2d(x1, x2, c)

    return c, p


def integral_poly(c, alpha1, beta1, alpha2, beta2) -> float:
    """Exact weighted integral of the polynomial with coefficients c.

    Uses the monomial moments m_k = int (1-t)^a (1+t)^b t^k dt computed
    by expanding t^k = ((1+t) - 1)^k into beta-function terms.
    """
    def moments(a, b, kmax):
        out = np.empty(kmax + 1)
        with mp.workdps(40):
            for k in range(kmax + 1):
                s = mp.mpf(0)
                for j in range(k + 1):
                    s += mp.binomial(k, j) * (-1) ** (k - j) * mp.power(2, a + b + 1 + j) \
                        * mp.beta(a + 1, b + 1 + j)
                out[k] = float(s)
        return out

    m1 = moments(alpha1, beta1, c.shape[0] - 1)
    m2 = moments(alpha2, beta2, c.shape[1] - 1)
    return float(m1 @ c @ m2)


def jacobi_recurrence_mp(alpha, beta, m):
    """Monic recurrence coefficients a_0..a_{m-1}, b_0..b_{m-1} of a Jacobi weight.

    Closed forms in mpmath at the working precision, for the weight
    (1-x)^alpha (1+x)^beta; b_0 is its total mass.  The k = 0 and k = 1
    terms are written out so that alpha + beta in {0, -1} needs no limit.
    """
    al, be = mp.mpf(alpha), mp.mpf(beta)
    s = al + be
    a = [(be - al) / (s + 2)]
    b = [mp.power(2, s + 1) * mp.gamma(al + 1) * mp.gamma(be + 1) / mp.gamma(s + 2)]
    for k in range(1, m):
        a.append((be * be - al * al) / ((2 * k + s) * (2 * k + s + 2)))
        if k == 1:
            b.append(4 * (1 + al) * (1 + be) / ((2 + s) ** 2 * (3 + s)))
        else:
            b.append(
                4 * k * (k + al) * (k + be) * (k + s)
                / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
            )
    return a, b


def jacobi_matrix_rule_mp(alpha, beta, n, bordered=False, digits=40):
    """Golub-Welsch rule from mpmath.eigsy, as float arrays sorted by node.

    The n-point Gauss rule, or with ``bordered`` the (n+1)-point anti-Gauss
    rule, whose order-(n+1) Jacobi matrix has sqrt(2 b_n) as its last
    off-diagonal entry.
    """
    m = n + 1 if bordered else n
    with mp.workdps(digits):
        a, b = jacobi_recurrence_mp(alpha, beta, m)
        jac = mp.matrix(m, m)
        for i in range(m):
            jac[i, i] = a[i]
        for i in range(1, m):
            off = mp.sqrt(2 * b[i] if bordered and i == n else b[i])
            jac[i, i - 1] = jac[i - 1, i] = off
        values, vectors = mp.eigsy(jac)
        nodes = np.array([float(values[i]) for i in range(m)])
        weights = np.array([float(b[0] * vectors[0, i] ** 2) for i in range(m)])
    order = np.argsort(nodes)
    return nodes[order], weights[order]


# ROADMAP's manufactured kernel pair k1 = 1 + 0.5 x y + 0.25 x^2 and
# k2 = 0.5 - 0.3 x + 0.2 x y, each axis factor a sum of terms P(x) Q(y)
# given as the monomial coefficients of P and Q
MANUFACTURED_PAIR = (
    (((1.0, 0.0, 0.25), (1.0,)), ((0.0, 0.5), (0.0, 1.0))),
    (((0.5, -0.3), (1.0,)), ((0.0, 0.2), (0.0, 1.0))),
)

# the declared kernel k1(x1, y1) k2(x2, y2) + 0.1 x1 x2 (1 + y2): affine in
# y1 and in y2, so its Lagrange interpolant on these y nodes is exact
MANUFACTURED_Y_NODES = (np.array([-0.5, 0.5]), np.array([0.0, 1.0]))
_MANUFACTURED_EXTRA = ((0.0, 0.1), (1.0,), (0.0, 1.0), (1.0, 1.0))


def _polyval(c, x):
    return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)


def _axis_kernel(terms):
    return lambda x, y: sum(_polyval(px, x) * _polyval(qy, y) for px, qy in terms)


def manufactured_problem(rng, declared, mult=0.3):
    """A Fredholm problem whose solution is a known polynomial.

    Draws contained Jacobi weights with exponents in (-0.5, 1.5), an
    admissible space weight and a solution f(x1, x2) = p(x1) q(x2) of two
    random cubics.  The kernel is ``MANUFACTURED_PAIR``, or with
    ``declared`` the 2D kernel with ``MANUFACTURED_Y_NODES``.  The rhs
    g = f - mult K f takes the integrals of K f from the closed-form Jacobi
    moments of ``integral_poly``, never from a quadrature rule.  Returns
    (problem, f): a Nystrom rule that integrates w k f exactly in x, degree
    5 per axis here, reproduces f up to rounding.
    """
    from squarequad import FredholmProblem, JacobiWeight, SpaceWeight
    from squarequad.rules import nodes_contained

    axes = []
    for _ in range(2):
        w = JacobiWeight(*rng.uniform(-0.5, 1.5, 2))
        while not nodes_contained(w):
            w = JacobiWeight(*rng.uniform(-0.5, 1.5, 2))
        axes.append((w, rng.uniform(0.0, 1.0, 2) * (np.array([w.alpha, w.beta]) + 1.0)))
    (w1, (g1, d1)), (w2, (g2, d2)) = axes
    p, q = rng.standard_normal((2, 4))
    # terms P1(x1) Q1(y1) P2(x2) Q2(y2) of the kernel
    terms = [(p1, q1, p2, q2) for p1, q1 in MANUFACTURED_PAIR[0]
             for p2, q2 in MANUFACTURED_PAIR[1]]
    if declared:
        terms.append(_MANUFACTURED_EXTRA)
    pm = np.polynomial.polynomial.polymul
    moments = [
        integral_poly(np.outer(pm(p1, p), pm(p2, q)), w1.alpha, w1.beta, w2.alpha, w2.beta)
        for p1, _, p2, _ in terms
    ]

    def f(y1, y2):
        return _polyval(p, y1) * _polyval(q, y2)

    def rhs(y1, y2):
        kf = sum(m * _polyval(q1, y1) * _polyval(q2, y2)
                 for m, (_, q1, _, q2) in zip(moments, terms))
        return f(y1, y2) - mult * kf

    u = SpaceWeight(g1, d1, g2, d2)
    if declared:
        def kernel(x1, x2, y1, y2):
            return sum(
                _polyval(p1, x1) * _polyval(q1, y1) * _polyval(p2, x2) * _polyval(q2, y2)
                for p1, q1, p2, q2 in terms
            )

        kernel.y_nodes = MANUFACTURED_Y_NODES
        return FredholmProblem(w1, w2, u, rhs, kernel=kernel, mult=mult), f
    pair = tuple(_axis_kernel(t) for t in MANUFACTURED_PAIR)
    return FredholmProblem(w1, w2, u, rhs, kernel_pair=pair, mult=mult), f
