"""Jacobi weights on [-1, 1] and their orthonormal polynomials.

The weight is w(x) = (1 - x)^alpha (1 + x)^beta with alpha, beta > -1.
Everything downstream (quadrature, cubature, the integral-equation
solver) is driven by the three-term recurrence built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["JacobiWeight", "RecurrenceCoeffs", "recurrence_coeffs", "eval_orthonormal"]


@dataclass(frozen=True)
class JacobiWeight:
    """Exponent pair (alpha, beta) of a Jacobi weight."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0):
            raise ValueError(f"alpha must exceed -1, got {self.alpha}")
        if not (self.beta > -1.0):
            raise ValueError(f"beta must exceed -1, got {self.beta}")


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Monic three-term recurrence coefficients a_0..a_n, b_0..b_n.

    b_0 holds the total mass of the weight.  The monic recurrence is
    p_{k+1}(x) = (x - a_k) p_k(x) - b_k p_{k-1}(x).
    """

    weight: JacobiWeight
    a: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return self.a.size


def _size(n, name: str = "n") -> int:
    """n as an int: a Python or numpy integer, or a float equal to one.

    Raises ValueError for anything else, so that a size of 2.5 is refused
    rather than truncated.
    """
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool):
        return int(n)
    if isinstance(n, (float, np.floating)) and float(n).is_integer():
        return int(n)
    raise ValueError(f"{name} must be an integer, got {n!r}")


def recurrence_coeffs(w: JacobiWeight, n: int) -> RecurrenceCoeffs:
    """Recurrence coefficients a_0..a_n and b_0..b_n for the weight w.

    Parameters
    ----------
    w : JacobiWeight
    n : int
        Highest index wanted; n >= 0.

    Returns
    -------
    RecurrenceCoeffs
        Read-only arrays of length n + 1.
    """
    n = _size(n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    alpha, beta = float(w.alpha), float(w.beta)
    s = alpha + beta
    j = np.arange(n + 1, dtype=float)
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)

    # a_0 = (beta - alpha)/(s + 2) is the s -> 0 safe form of the general ratio
    a[0] = (beta - alpha) / (s + 2.0)
    if n >= 1:
        den = (2.0 * j[1:] + s) * (2.0 * j[1:] + s + 2.0)
        a[1:] = (beta * beta - alpha * alpha) / den

    # total mass 2^(s+1) B(alpha+1, beta+1), via log-gamma to dodge overflow
    b[0] = math.exp(
        (s + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(s + 2.0)
    )
    if n >= 1:
        # the shared factor (1+s) is cancelled analytically: safe at s = -1
        b[1] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((s + 2.0) ** 2 * (s + 3.0))
    if n >= 2:
        jj = j[2:]
        t = 2.0 * jj + s
        b[2:] = (
            4.0 * jj * (jj + alpha) * (jj + beta) * (jj + s) / (t * t * (t * t - 1.0))
        )

    a.flags.writeable = False
    b.flags.writeable = False
    return RecurrenceCoeffs(JacobiWeight(alpha, beta), a, b)


def eval_orthonormal(c: RecurrenceCoeffs, x, n: int) -> np.ndarray:
    """Evaluate the orthonormal polynomials hat p_0 .. hat p_n at x.

    Uses the normalized recurrence
        sqrt(b_{k+1}) hat p_{k+1} = (x - a_k) hat p_k - sqrt(b_k) hat p_{k-1}
    with hat p_0 = 1/sqrt(b_0).  Needs coefficients up to index n.

    Returns an array of shape (n + 1,) + shape(x).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n + 1 > len(c):
        raise ValueError(f"need coefficients up to index {n}, have {len(c) - 1}")
    x = np.asarray(x, dtype=float)
    sqb = np.sqrt(c.b[: n + 1])
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0 / sqb[0]
    if n >= 1:
        out[1] = (x - c.a[0]) * out[0] / sqb[1]
    for k in range(1, n):
        out[k + 1] = ((x - c.a[k]) * out[k] - sqb[k] * out[k - 1]) / sqb[k + 1]
    return out
