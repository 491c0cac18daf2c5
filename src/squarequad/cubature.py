"""Tensor cubature on the square, with averaged rules and bracketing tests.

Three rule kinds share an interface: the tensor Gauss rule, its tensor
companion rule erring with the opposite sign on a wide class, and the
average of the two.  The diagnostics estimate, from coefficients of the
integrand in the product orthonormal basis, whether the two rule values
really straddle the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvaluationError
from .linsolve import row_blocks
from .orthopoly import JacobiWeight, _size, eval_orthonormal, recurrence_coeffs
from .rules import QuadRule1D, antigauss_rule, gauss_rule

__all__ = [
    "CubatureRule2D",
    "BracketingReport",
    "gauss_cubature",
    "antigauss_cubature",
    "averaged_cubature",
    "error_estimate",
    "bracketing_diagnostic",
    "chebyshev_bracketing_terms",
]


def _term_rows(r1: QuadRule1D, r2: QuadRule1D, lo: int, hi: int):
    """Nodes and weights of the tensor term r1 x r2 at axis-2 rows lo:hi, axis 1 fastest."""
    x1 = np.tile(r1.nodes, hi - lo)
    x2 = np.repeat(r2.nodes[lo:hi], r1.npoints)
    lam = np.outer(r2.weights[lo:hi], r1.weights).ravel()
    return x1, x2, lam


@dataclass(frozen=True)
class CubatureRule2D:
    """A cubature rule stored as its univariate factors.

    The rule is a sum of tensor terms (scale, rule1, rule2): one term of
    scale 1 for the Gauss and companion kinds, and a half-weighted Gauss
    term followed by a half-weighted companion term for the averaged rule.
    ``rule1``/``rule2`` are the factors of a tensor kind and None for the
    averaged rule.  ``nodes1``, ``nodes2`` and ``weights`` are the flat
    arrays, axis 1 fastest and the terms in order; they are built on first
    read and never by ``apply``.
    """

    kind: str
    w1: JacobiWeight
    w2: JacobiWeight
    n1: int
    n2: int
    _terms: tuple

    @property
    def rule1(self) -> QuadRule1D | None:
        return self._terms[0][1] if len(self._terms) == 1 else None

    @property
    def rule2(self) -> QuadRule1D | None:
        return self._terms[0][2] if len(self._terms) == 1 else None

    @property
    def npoints(self) -> int:
        return sum(r1.npoints * r2.npoints for _, r1, r2 in self._terms)

    @cached_property
    def _flat(self):
        parts = [(s, *_term_rows(r1, r2, 0, r2.npoints)) for s, r1, r2 in self._terms]
        x1 = np.concatenate([p[1] for p in parts])
        x2 = np.concatenate([p[2] for p in parts])
        lam = np.concatenate([s * w for s, _, _, w in parts])
        for arr in (x1, x2, lam):
            arr.flags.writeable = False
        return x1, x2, lam

    @property
    def nodes1(self) -> np.ndarray:
        return self._flat[0]

    @property
    def nodes2(self) -> np.ndarray:
        return self._flat[1]

    @property
    def weights(self) -> np.ndarray:
        return self._flat[2]

    def apply(self, f) -> float:
        """Apply the rule to f(x1, x2); f must evaluate elementwise on arrays.

        f is called on blocks of about 2**16 points, whole rows of one
        term, generated from the factors, so memory stays O(block) at any
        rule size.  Each block is summed by numpy's pairwise reduction and
        the block sums by ``math.fsum``: the value does not depend on the
        BLAS library or its thread count.
        """
        sums = []
        for scale, r1, r2 in self._terms:
            for lo, hi in row_blocks(r2.npoints, r1.npoints):
                x1, x2, lam = _term_rows(r1, r2, lo, hi)
                vals = np.asarray(f(x1, x2), dtype=float)
                vals = np.broadcast_to(vals, x1.shape)
                bad = ~np.isfinite(vals)
                if np.any(bad):
                    i = int(np.argmax(bad))
                    raise EvaluationError(
                        f"integrand returned {vals[i]!r} at node ({x1[i]:.17g}, {x2[i]:.17g})",
                        node=(x1[i], x2[i]),
                    )
                sums.append(scale * float(np.add.reduce(lam * vals)))
        return math.fsum(sums)


def _sizes(n1, n2):
    n1, n2 = _size(n1, "n1"), _size(n2, "n2")
    if n1 < 1 or n2 < 1:
        raise ValueError(f"rule sizes must be positive, got ({n1}, {n2})")
    return n1, n2


def _tensorize(kind, w1, w2, n1, n2, allow_uncontained) -> CubatureRule2D:
    n1, n2 = _sizes(n1, n2)
    make = gauss_rule if kind == "gauss" else antigauss_rule
    r1, r2 = make(w1, n1), make(w2, n2)
    if not (r1.contained and r2.contained) and not allow_uncontained:
        which = [
            f"axis {axis} ({w.alpha}, {w.beta})"
            for axis, w, r in ((1, w1, r1), (2, w2, r2))
            if not r.contained
        ]
        raise ValueError(
            "companion nodes may fall outside [-1, 1] for "
            + " and ".join(which)
            + "; pass allow_uncontained=True if the integrand extends beyond the square"
        )
    return CubatureRule2D(kind, w1, w2, n1, n2, ((1.0, r1, r2),))


def gauss_cubature(w1: JacobiWeight, w2: JacobiWeight, n1: int, n2: int) -> CubatureRule2D:
    """Tensor Gauss rule with n1 x n2 points."""
    return _tensorize("gauss", w1, w2, n1, n2, allow_uncontained=False)


def antigauss_cubature(
    w1: JacobiWeight,
    w2: JacobiWeight,
    n1: int,
    n2: int,
    allow_uncontained: bool = False,
) -> CubatureRule2D:
    """Tensor companion rule with (n1+1) x (n2+1) points.

    Rejects weights whose companion nodes can leave the square unless
    ``allow_uncontained`` is set; integrands defined beyond the boundary
    make the override safe.
    """
    return _tensorize("antigauss", w1, w2, n1, n2, allow_uncontained)


def averaged_cubature(
    w1: JacobiWeight,
    w2: JacobiWeight,
    n1: int,
    n2: int,
    allow_uncontained: bool = False,
) -> CubatureRule2D:
    """Mean of the tensor Gauss rule and its companion, on the union grid."""
    g = gauss_cubature(w1, w2, n1, n2)
    a = antigauss_cubature(w1, w2, n1, n2, allow_uncontained=allow_uncontained)
    terms = ((0.5, g.rule1, g.rule2), (0.5, a.rule1, a.rule2))
    return CubatureRule2D("averaged", w1, w2, g.n1, g.n2, terms)


def error_estimate(f, w1, w2, n1, n2, allow_uncontained: bool = False) -> float:
    """Half the spread between the companion and Gauss values of f.

    Equals the error of the tensor Gauss rule whenever the two rules
    bracket the integral.
    """
    g = gauss_cubature(w1, w2, n1, n2).apply(f)
    a = antigauss_cubature(w1, w2, n1, n2, allow_uncontained=allow_uncontained).apply(f)
    return 0.5 * (a - g)


# ---------------------------------------------------------------------------
# bracketing diagnostics

# margin added to the oracle grade so products of basis polynomials are
# integrated exactly with room to spare
_ORACLE_MARGIN = 9


@dataclass(frozen=True)
class BracketingReport:
    """Leading term S and competing remainders of the two rule errors.

    ``holds`` means the straddling condition max(|E1|, |E2|) < |S| was
    met with the series truncated at ``cutoff1``/``cutoff2``.  ``theta``
    is the sign-free majorant max(theta_1, theta_2), each theta_k being
    E_k's terms with |coefficients| and |moments|; ``holds_theta`` means
    theta < |S|, which certifies straddling without cancellation.
    """

    S: float
    E1: float
    E2: float
    holds: bool
    cutoff1: int
    cutoff2: int
    theta: float
    holds_theta: bool


def _coefficient_matrix(f, w1, w2, m1, m2):
    """Coefficients of f against the product orthonormal basis up to (m1, m2).

    A Gauss rule of grade m + _ORACLE_MARGIN per axis integrates the
    products f * basis exactly for polynomial f within the cutoff, which
    is the accuracy class the diagnostics live on.
    """
    c1 = recurrence_coeffs(w1, m1)
    c2 = recurrence_coeffs(w2, m2)
    q1 = gauss_rule(w1, m1 + _ORACLE_MARGIN)
    q2 = gauss_rule(w2, m2 + _ORACLE_MARGIN)
    p1 = eval_orthonormal(c1, q1.nodes, m1)
    p2 = eval_orthonormal(c2, q2.nodes, m2)
    xx1, xx2 = np.meshgrid(q1.nodes, q2.nodes, indexing="ij")
    fvals = np.asarray(f(xx1, xx2), dtype=float)
    fvals = np.broadcast_to(fvals, xx1.shape)
    if not np.all(np.isfinite(fvals)):
        bad = ~np.isfinite(fvals)
        r, s = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise EvaluationError(
            f"integrand not finite at ({q1.nodes[r]:.17g}, {q2.nodes[s]:.17g})",
            node=(q1.nodes[r], q2.nodes[s]),
        )
    weighted = q1.weights[:, None] * fvals * q2.weights[None, :]
    return p1 @ weighted @ p2.T, c1, c2


def _rule_moments(c, rule, m):
    """Apply a univariate rule to each orthonormal polynomial up to degree m."""
    p = eval_orthonormal(c, rule.nodes, m)
    return p @ rule.weights


def bracketing_diagnostic(f, w1, w2, n1, n2, cutoffs=None) -> BracketingReport:
    """Test whether the two tensor rules straddle the integral of f.

    The rule errors decompose as I - G = -S + E1 and I - A = S + E2 with
    a shared leading term S; straddling is guaranteed when both
    remainders stay below |S| in magnitude.  All three are assembled
    from basis coefficients of f truncated at ``cutoffs`` (default
    6 * max(n1, n2) per axis, at least 2 n + 1), and so is theta, the
    same sums with every sign dropped (Gauss moments for theta_1,
    companion moments on the high blocks for theta_2).
    """
    n1, n2 = _sizes(n1, n2)
    m1, m2 = (6 * max(n1, n2),) * 2 if cutoffs is None else cutoffs
    m1, m2 = _size(m1, "cutoff1"), _size(m2, "cutoff2")
    if m1 < 2 * n1 + 1 or m2 < 2 * n2 + 1:
        raise ValueError(
            f"cutoffs ({m1}, {m2}) too small, need at least ({2 * n1 + 1}, {2 * n2 + 1})"
        )
    alpha, c1, c2 = _coefficient_matrix(f, w1, w2, m1, m2)
    sqb1 = math.sqrt(c1.b[0])
    sqb2 = math.sqrt(c2.b[0])

    g1 = _rule_moments(c1, gauss_rule(w1, n1), m1)
    g2 = _rule_moments(c2, gauss_rule(w2, n2), m2)
    a1 = _rule_moments(c1, antigauss_rule(w1, n1), m1)
    a2 = _rule_moments(c2, antigauss_rule(w2, n2), m2)

    mid1 = slice(2 * n1, 2 * n1 + 2)
    mid2 = slice(2 * n2, 2 * n2 + 2)
    hi1 = slice(2 * n1 + 2, m1 + 1)
    hi2 = slice(2 * n2 + 2, m2 + 1)

    S = sqb2 * float(np.dot(alpha[mid1, 0], g1[mid1])) + sqb1 * float(
        np.dot(alpha[0, mid2], g2[mid2])
    )

    # shared head: both errors see the Gauss moments on the mid block
    head = float(g1[mid1] @ alpha[mid1, mid2] @ g2[mid2])

    row_mid = alpha[hi1, mid2] @ g2[mid2]
    col_mid = g1[mid1] @ alpha[mid1, hi2]

    e1 = -(
        head
        + float(np.dot(alpha[hi1, 0] * sqb2 + row_mid, g1[hi1]))
        + float(g1[hi1] @ alpha[hi1, hi2] @ g2[hi2])
        + float(np.dot(alpha[0, hi2] * sqb1 + col_mid, g2[hi2]))
    )
    e2 = -(
        head
        + float(np.dot(alpha[hi1, 0] * sqb2 - row_mid, a1[hi1]))
        + float(a1[hi1] @ alpha[hi1, hi2] @ a2[hi2])
        + float(np.dot(alpha[0, hi2] * sqb1 - col_mid, a2[hi2]))
    )
    holds = max(abs(e1), abs(e2)) < abs(S)

    # theta_k: the four blocks of E_k with |alpha| and |moments|
    aa, ag1, ag2 = np.abs(alpha), np.abs(g1[mid1]), np.abs(g2[mid2])
    row_abs = aa[hi1, 0] * sqb2 + aa[hi1, mid2] @ ag2
    col_abs = aa[0, hi2] * sqb1 + ag1 @ aa[mid1, hi2]
    theta = float(ag1 @ aa[mid1, mid2] @ ag2) + max(
        float(row_abs @ u1 + u1 @ aa[hi1, hi2] @ u2 + col_abs @ u2)
        for u1, u2 in ((np.abs(g1[hi1]), np.abs(g2[hi2])), (np.abs(a1[hi1]), np.abs(a2[hi2])))
    )
    return BracketingReport(S, e1, e2, holds, m1, m2, theta, theta < abs(S))


def chebyshev_bracketing_terms(f, n1: int, n2: int, cutoffs=None) -> BracketingReport:
    """``bracketing_diagnostic`` for the first-kind Chebyshev weight on both axes."""
    cheb = JacobiWeight(-0.5, -0.5)
    return bracketing_diagnostic(f, cheb, cheb, n1, n2, cutoffs)
