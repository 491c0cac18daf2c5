"""Univariate Gauss and anti-Gauss rules for Jacobi weights.

The n-point Gauss rule comes from the spectral factorization of the
order-n recurrence matrix.  The (n+1)-point companion rule is built from
the same matrix bordered with a doubled last off-diagonal coefficient;
its error on polynomials up to degree 2n + 1 is the exact negative of
the Gauss error, which is what makes averaging and bracketing work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .orthopoly import JacobiWeight, _size, recurrence_coeffs
from .tridiag import eig_tridiag

__all__ = ["QuadRule1D", "gauss_rule", "antigauss_rule", "nodes_contained"]

# the largest rule size, from a budget of about 15 s per rule: QL takes
# O(n^2) Python steps, measured at 0.084, 0.34, 1.33 and 5.0 s for n = 512,
# 1024, 2048 and 4096 on a 2-vCPU VM.  The largest size in use is 700
_RULE_CAP = 4096


@dataclass(frozen=True)
class QuadRule1D:
    """One-dimensional interpolatory rule with positive weights."""

    kind: str
    weightspec: JacobiWeight
    nodes: np.ndarray
    weights: np.ndarray
    # for the companion rule: whether all nodes are guaranteed inside [-1, 1]
    contained: bool = True

    @property
    def npoints(self) -> int:
        return self.nodes.size


def nodes_contained(w: JacobiWeight) -> bool:
    """Whether the companion rule of weight w keeps its nodes in [-1, 1].

    Four polynomial inequalities in (alpha, beta); all must hold.  The
    borderline Chebyshev cases hold with equality and are accepted.
    """
    al, be = w.alpha, w.beta
    s = al + be
    if al < -0.5 or be < -0.5:
        return False
    c3 = (2.0 * al + 1.0) * (s + 2.0) + 0.5 * (al + 1.0) * s * (s + 1.0)
    c4 = (2.0 * be + 1.0) * (s + 2.0) + 0.5 * (be + 1.0) * s * (s + 1.0)
    return c3 >= 0.0 and c4 >= 0.0


@lru_cache(maxsize=None)
def _rule_cached(alpha: float, beta: float, n: int, kind: str) -> QuadRule1D:
    # Golub-Welsch on the order-n Jacobi matrix (gauss) or on the order-(n+1)
    # matrix whose last off-diagonal entry is bordered to sqrt(2 b_n) (antigauss)
    w = JacobiWeight(alpha, beta)
    c = recurrence_coeffs(w, n)
    companion = kind == "antigauss"
    m = n + 1 if companion else n
    off = np.sqrt(c.b[1:m])
    if companion:
        off[-1] = np.sqrt(2.0 * c.b[n])
    values, first = eig_tridiag(c.a[:m], off)
    lam = c.b[0] * first**2
    contained = not companion or nodes_contained(w)
    if companion and contained:
        # borderline weights put end nodes exactly on +-1; QL misses by up to 4 ulps
        near = np.abs(np.abs(values) - 1.0) <= 8.0 * np.finfo(float).eps
        values[near] = np.sign(values[near])
    values.flags.writeable = False
    lam.flags.writeable = False
    return QuadRule1D(kind, w, values, lam, contained=contained)


def _rule_size(n) -> int:
    n = _size(n, "rule size")
    if n < 1:
        raise ValueError(f"rule size must be positive, got {n}")
    if n > _RULE_CAP:
        raise CapacityError(f"a rule of {n} points exceeds the cap of {_RULE_CAP} points")
    return n


def gauss_rule(w: JacobiWeight, n: int) -> QuadRule1D:
    """The n-point Gauss rule for weight w.  Exact to degree 2n - 1."""
    return _rule_cached(float(w.alpha), float(w.beta), _rule_size(n), "gauss")


def antigauss_rule(w: JacobiWeight, n: int) -> QuadRule1D:
    """The (n+1)-point companion rule paired with the n-point Gauss rule.

    Its nodes strictly interlace the Gauss nodes.  The outermost pair may
    leave [-1, 1] when ``nodes_contained(w)`` is False; the rule is still
    returned, flagged through the ``contained`` field, and the square
    constructors decide whether to accept it.
    """
    return _rule_cached(float(w.alpha), float(w.beta), _rule_size(n), "antigauss")
