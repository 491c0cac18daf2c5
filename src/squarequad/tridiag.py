"""Symmetric tridiagonal eigensolver tailored to quadrature generation.

Implicit-shift QL sweeps; only the first row of the eigenvector matrix is
accumulated, which is the part node-weight extraction needs.

The sweep runs on Python lists of Python floats rather than on ndarrays.
Indexing an ndarray creates an ``np.float64`` for every element read and
sends each arithmetic operation through numpy's scalar path, which costs
several times the arithmetic itself.  Python floats and ``np.float64``
perform the same IEEE-754 double operations, and the operations run in
the same order, so the values and first components are bit-for-bit those
of the same sweep on numpy scalars.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

__all__ = ["EigFirstComponents", "eig_tridiag"]

_MAX_SWEEPS = 30


class EigFirstComponents(NamedTuple):
    values: np.ndarray
    firstcomp: np.ndarray


def eig_tridiag(diag, offdiag) -> EigFirstComponents:
    """Eigenvalues (ascending) and first eigenvector components.

    Parameters
    ----------
    diag : (n,) array_like
        Diagonal of the symmetric tridiagonal matrix.
    offdiag : (n-1,) array_like
        Off-diagonal.

    Returns
    -------
    EigFirstComponents
        ``values`` ascending; ``firstcomp[j]`` is the first entry of the
        unit eigenvector for ``values[j]``.

    Raises
    ------
    ValueError
        If the matrix is empty, the lengths do not match, an entry is not
        finite, or the Gershgorin bound B = max_i (|d_i| + |e_{i-1}| + |e_i|)
        is not below 2**-8 of the largest double.  Every matrix the sweep
        forms is orthogonally similar to the input, and each quantity it
        computes adds a few of their entries and the shift, times rotation
        factors of magnitude at most 1, so all stay below 16 B and finite.
    ConvergenceError
        If some eigenvalue needs more than 30 QL sweeps; ``index``
        identifies the stuck position.
    """
    d = np.asarray(diag, dtype=float).ravel()
    n = d.size
    if n == 0:
        raise ValueError("matrix must be at least 1 x 1")
    off = np.asarray(offdiag, dtype=float).ravel()
    if off.size != n - 1:
        raise ValueError(f"offdiag must have length {n - 1}, got {off.size}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(off))):
        raise ValueError("diag and offdiag must be finite")
    # quartered terms keep the row sums from overflowing
    rows = 0.25 * np.abs(d)
    rows[:-1] += 0.25 * np.abs(off)
    rows[1:] += 0.25 * np.abs(off)
    if not rows.max() < 2.0**-10 * np.finfo(float).max:
        raise ValueError("Gershgorin bound of the matrix is not below 2**-8 of the largest double")
    d = d.tolist()
    e = off.tolist() + [0.0]
    z = [0.0] * n
    z[0] = 1.0

    eps = float(np.finfo(float).eps)
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
            if sweeps == _MAX_SWEEPS:
                raise ConvergenceError(
                    f"eigenvalue {l} not converged after {_MAX_SWEEPS} sweeps",
                    index=l,
                )
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
                # Givens rotation in the (i, i+1) plane, first row only
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    d = np.array(d)
    z = np.array(z)
    order = np.argsort(d, kind="stable")
    return EigFirstComponents(d[order], z[order])
