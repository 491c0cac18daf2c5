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

The textbook sweep scans for the first negligible off-diagonal, m, before
each sweep.  Here the rotation loop tests each entry as soon as the sweep
has finished with it, and the full scan runs only for l = 0, after an
exact-zero rotation, and when l converged without a sweep.  The fused test
picks the same m.  The step that rotates the (i, i+1) plane writes e[i+1]
and d[i+1], after the step before it wrote d[i+2], and no later step
touches the three again, so step i applies the scan's exact test to
j = i+1 with its final values.  The test of j = l follows the loop.  Past
m nothing changes, and e[m] is set to 0, which always passes.  So the
smallest j that passes is the scan's next m.  When l converges, the
smallest passing j > l from the same sweep is the next m for l + 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

__all__ = ["EigFirstComponents", "eig_tridiag"]

_MAX_SWEEPS = 30


def _first_negligible(d, e, l, eps):
    """Smallest j >= l with |e[j]| <= eps (|d[j]| + |d[j+1]|), else n - 1."""
    for m in range(l, len(d) - 1):
        if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
            return m
    return len(d) - 1


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
    quarter_bound = float(rows.max())
    if not quarter_bound < 2.0**-10 * np.finfo(float).max:
        raise ValueError("Gershgorin bound of the matrix is not below 2**-8 of the largest double")
    d = d.tolist()
    e = off.tolist() + [0.0]
    z = [0.0] * n
    z[0] = 1.0

    eps = float(np.finfo(float).eps)
    # Prefilter for the deflation test.  Every |d_j| stays below 16 B, so
    # eps * (|d_j| + |d_{j+1}|) is below 32 eps B = 2**-45 * (B / 4).
    # quarter_bound is B / 4 up to a relative rounding error far below 1
    # whenever that threshold does not underflow to 0.  Rounding is
    # monotone, so with a further factor 2 for the rounding, every
    # off-diagonal that passes the exact test also has |e_j| <= tiny.
    tiny = 2.0**-44 * quarter_bound
    hypot = math.hypot
    m = _first_negligible(d, e, 0, eps)
    for l in range(n - 1):
        # m is the smallest j >= l whose e[j] is negligible (e[n-1] = 0 is);
        # `above` is the smallest such j > l, when the last sweep found it
        above = None
        sweeps = 0
        while m != l:
            if sweeps == _MAX_SWEEPS:
                raise ConvergenceError(
                    f"eigenvalue {l} not converged after {_MAX_SWEEPS} sweeps",
                    index=l,
                )
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            # k = i + 1; dk is d[k] before the rotation, zk is z[k] after it
            above = k = m
            dk = d[m]
            zk = z[m]
            try:
                for i in range(m - 1, l - 1, -1):
                    ei = e[i]
                    f = s * ei
                    b = c * ei
                    h = hypot(f, g)
                    e[k] = h
                    # h == 0 exactly raises here and ends the sweep
                    s = f / h
                    c = g / h
                    g = dk - p
                    dk = d[i]
                    r = (dk - g) * s + 2.0 * c * b
                    p = s * r
                    d[k] = g + p
                    g = c * r - b
                    # Givens rotation in the (i, i+1) plane, first row only
                    zi = z[i]
                    z[k] = s * zi + c * zk
                    zk = c * zi - s * zk
                    # e[k], d[k] and d[k+1] are final for this sweep; k == m
                    # needs no test, since e[m] is zeroed below
                    if h <= tiny and k < m and h <= eps * (abs(d[k]) + abs(d[k + 1])):
                        above = k
                    k = i
            except ZeroDivisionError:
                d[k] = dk - p
                z[k] = zk
                e[m] = 0.0
                m = _first_negligible(d, e, l, eps)
                above = None
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
            z[l] = zk
            if abs(g) <= eps * (abs(d[l]) + abs(d[l + 1])):
                m = l
            else:
                m = above
        m = _first_negligible(d, e, l + 1, eps) if above is None else above

    d = np.array(d)
    z = np.array(z)
    order = np.argsort(d, kind="stable")
    return EigFirstComponents(d[order], z[order])
