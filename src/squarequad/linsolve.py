"""Linear-algebra core for the discretized integral equation.

The discrete operator is I - Phi acting on vectors indexed by the tensor
grid, with axis 1 running fastest.  Three realizations trade memory for
structure: a dense matrix, a factored form diag(u) U V^T diag(d) whose
rank-r kernel factors come from adaptive cross approximation (``aca``),
and a separable form holding one small matrix per axis.  A matvec-only
GMRES and a squared-iteration Stein solver consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError

__all__ = [
    "unfold",
    "fold",
    "SystemOperator",
    "KrylovStats",
    "aca",
    "lu_solve",
    "gmres",
    "stein_solve",
    "condition_number_inf",
]

# entries per block of a row sweep, 512 KB of doubles.  Blocks of 2**20
# entries were 8 MB temporaries, mapped and page-faulted in afresh for every
# block.  The widest factored sweep a table reaches (N = 8721) still gets 7
# rows per block; a one-row block rounds kappa differently
_BLOCK_ENTRIES = 2**16

# cross approximation: relative rounding level of its stopping test, and the
# Gaussian probe that verifies the factors against every row of K
_ACA_TOL = 1e-15
_PROBE_COLUMNS = 4
_PROBE_SEED = 20000
_PROBE_RTOL = 1e-12


def row_blocks(nrows: int, ncols: int):
    """(lo, hi) ranges of a row sweep holding about _BLOCK_ENTRIES entries each."""
    step = max(1, _BLOCK_ENTRIES // ncols)
    for lo in range(0, nrows, step):
        yield lo, min(lo + step, nrows)


def unfold(a: np.ndarray) -> np.ndarray:
    """Flatten a grid array (n1, n2) to a vector with axis 1 fastest."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    return a.ravel(order="F")


def fold(v: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Inverse of unfold: vector of length n1*n2 back to an (n1, n2) grid."""
    v = np.asarray(v)
    if v.size != n1 * n2:
        raise ValueError(f"length {v.size} does not match grid ({n1}, {n2})")
    return v.reshape((n1, n2), order="F")


@dataclass
class KrylovStats:
    iterations: int
    residuals: np.ndarray


class SystemOperator:
    """Matrix-free view of I - Phi with an operation counter.

    Exactly one realization is active:

    - ``dense``: full matrix F, matvec costs 2 N^2 flops;
    - ``factored``: diag(u) U V^T diag(d) with rank-r kernel factors
      K ~= U V^T (see ``aca``), 4 N r + 3 N flops;
    - ``separable``: Phi = kron(Phi2, Phi1), 2 N (n1 + n2) + N flops.

    ``flops`` accumulates the cost of every matvec issued; ``rank`` is r
    for the factored realization and None otherwise.
    """

    def __init__(
        self,
        realization: str,
        n1: int,
        n2: int,
        *,
        dense=None,
        u=None,
        d=None,
        factors=None,
        phi1=None,
        phi2=None,
    ):
        if realization not in ("dense", "factored", "separable"):
            raise ValueError(f"unknown realization {realization!r}")
        self.realization = realization
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.N = self.n1 * self.n2
        self.flops = 0
        self.nmatvec = 0
        self.rank = None
        self._dense = dense
        self._u = u
        self._d = d
        self.phi1 = phi1
        self.phi2 = phi2
        if realization == "dense" and dense is None:
            raise ValueError("dense realization needs the matrix")
        if realization == "factored":
            if u is None or d is None or factors is None:
                raise ValueError("factored realization needs u, d and the kernel factors (U, V)")
            self._U, self._V = factors
            self.rank = self._U.shape[1]
        if realization == "separable" and (phi1 is None or phi2 is None):
            raise ValueError("separable realization needs both axis matrices")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.N,):
            raise ValueError(f"expected shape ({self.N},), got {v.shape}")
        self.nmatvec += 1
        if self.realization == "dense":
            self.flops += 2 * self.N * self.N
            return self._dense @ v
        if self.realization == "factored":
            self.flops += 4 * self.N * self.rank + 3 * self.N
            return v - self._u * (self._U @ (self._V.T @ (self._d * v)))
        q = fold(v, self.n1, self.n2)
        self.flops += 2 * self.N * (self.n1 + self.n2) + self.N
        return v - unfold(self.phi1 @ q @ self.phi2.T)

    def to_dense(self) -> np.ndarray:
        """Materialize I - Phi as a full matrix."""
        if self.realization == "dense":
            return self._dense
        if self.realization == "separable":
            return np.eye(self.N) - np.kron(self.phi2, self.phi1)
        return np.eye(self.N) - (self._u[:, None] * (self._U @ self._V.T)) * self._d[None, :]


def aca(entries, N: int, rmax: int):
    """Verified low-rank cross factors K ~= U V^T of an N x N matrix.

    ``entries(rows, cols)`` returns the block of K at two slices.  Adaptive
    cross approximation with partial pivoting (Bebendorf 2000) evaluates
    one row and one column of the residual R = K - U V^T per step and adds
    their cross; the next row pivot is the largest |u| among rows not yet
    used.  It stops when a residual row is at the rounding level of its
    own subtraction.  That test sees O(r N) entries only, so one blocked
    sweep over every row of K then forms K Z for a fixed-seed Gaussian
    probe Z (Halko, Martinsson & Tropp 2011, sec. 4.3) and E = R Z.  While
    max |E| > _PROBE_RTOL max |K Z|, a further cross is taken at the row
    where |E| is largest and E is updated without evaluating K again, so
    residual rows that the pivots never visited are still found.  Returns
    (U, V), or None when rmax crosses do not pass the probe.
    """
    rmax = min(rmax, N)
    U = np.empty((N, rmax))
    V = np.empty((N, rmax))
    k = 0

    def cross(i):
        # residual row i and the column through its largest entry, or None
        # when the row is zero up to the rounding of its k-term subtraction
        krow = entries(slice(i, i + 1), slice(None))[0]
        row = krow - V[:, :k] @ U[i, :k]
        j = int(np.argmax(np.abs(row)))
        noise = (k + 1) * _ACA_TOL * (np.max(np.abs(krow)) + np.sum(np.abs(U[i, :k])))
        if abs(row[j]) <= noise:
            return None
        u = entries(slice(None), slice(j, j + 1))[:, 0] - U[:, :k] @ V[j, :k]
        return u, row / row[j]

    unused = np.ones(N, dtype=bool)
    i = 0
    while k < rmax:
        unused[i] = False
        uv = cross(i)
        if uv is None:
            break
        U[:, k], V[:, k] = uv
        i = int(np.argmax(np.where(unused, np.abs(U[:, k]), -1.0)))
        k += 1
    else:
        return None

    # copy the k used columns and free the rmax-wide buffers: views would pin
    # 2 N rmax doubles for the operator's life, and releasing a mapped chunk
    # this large raises glibc's mmap threshold above one block, so the
    # sweep's block temporaries come from the heap instead of being mapped
    # and page-faulted in afresh (a cold pass over eq2's rows (16,16),
    # (64,16) and (256,16) took 23 k minor faults with the copy, 183 k
    # without)
    U, V = U[:, :k].copy(), V[:, :k].copy()
    Z = np.random.default_rng(_PROBE_SEED).standard_normal((N, _PROBE_COLUMNS))
    KZ = np.empty((N, _PROBE_COLUMNS))
    for lo, hi in row_blocks(N, N):
        KZ[lo:hi] = entries(slice(lo, hi), slice(None)) @ Z
    E = KZ - U @ (V.T @ Z)
    bound = _PROBE_RTOL * np.max(np.abs(KZ))
    while True:
        err = np.max(np.abs(E), axis=1)
        i = int(np.argmax(err))
        if err[i] <= bound:
            return U, V
        uv = cross(i) if k < rmax else None
        if uv is None:
            return None
        u, v = uv
        U = np.column_stack([U, u])
        V = np.column_stack([V, v])
        E -= np.outer(u, v @ Z)
        k += 1


def lu_solve(op, b: np.ndarray) -> np.ndarray:
    """Direct dense solve; accepts an operator or a plain matrix."""
    F = op.to_dense() if isinstance(op, SystemOperator) else np.asarray(op, dtype=float)
    return np.linalg.solve(F, np.asarray(b, dtype=float))


def _as_matvec(op):
    if isinstance(op, SystemOperator):
        return op.matvec
    if callable(op):
        return op
    mat = np.asarray(op, dtype=float)
    return lambda v: mat @ v


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed in one fixed order; BLAS ddot's order follows its threads."""
    return float(np.einsum("i,i->", a, b))


def gmres(op, b, tol: float = 1e-14, maxiter: int | None = None):
    """Unrestarted GMRES from the zero vector, classical Gram-Schmidt twice.

    Every Arnoldi step orthogonalizes twice, which keeps the basis orthogonal
    to working precision ("twice is enough": Giraud, Langou & Rozloznik 2005,
    Comput. Math. Appl. 50).  Every sum runs in one fixed order, whatever the
    BLAS thread count.  The residual history is the rotation-recurrence
    estimate, which never increases.  Returns (x, KrylovStats); raises
    ConvergenceError, stats attached, if maxiter steps miss the target.
    """
    matvec = _as_matvec(op)
    b = np.asarray(b, dtype=float)
    N = b.size
    maxiter = N if maxiter is None else maxiter
    beta = _dot(b, b) ** 0.5
    if beta == 0.0:
        return np.zeros(N), KrylovStats(0, np.zeros(1))

    V = [b / beta]
    R = []  # triangularized columns
    rot = []  # Givens (cos, sin) pairs
    g = [beta]
    residuals = [beta]
    target = tol * beta

    for k in range(maxiter):
        w = matvec(V[k]).astype(float, copy=True)
        h = np.zeros(k + 2)
        for _ in range(2):
            p = [_dot(v, w) for v in V]
            for pi, v in zip(p, V):
                w -= pi * v
            h[: k + 1] += p
        nw = h[k + 1] = _dot(w, w) ** 0.5

        # apply the accumulated rotations, then a new one to kill h[k+1]
        for i, (c, s) in enumerate(rot):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], -s * h[i] + c * h[i + 1]
        denom = float(np.hypot(h[k], h[k + 1]))
        c, s = (h[k] / denom, h[k + 1] / denom) if denom != 0.0 else (1.0, 0.0)
        rot.append((c, s))
        h[k] = denom
        g[k:] = c * g[k], -s * g[k]
        R.append(h[: k + 1])
        residuals.append(abs(g[k + 1]))
        if residuals[-1] <= target or nw <= np.finfo(float).eps * beta:
            break
        V.append(w / nw)
    else:
        if residuals[-1] > target:
            raise ConvergenceError(
                f"gmres stopped at iteration {maxiter} with residual {residuals[-1]:.3e} "
                f"(target {target:.3e})",
                stats=KrylovStats(maxiter, np.asarray(residuals)),
            )

    m = len(R)
    T = np.zeros((m, m))
    for j, col in enumerate(R):
        T[: j + 1, j] = col
    x = np.zeros(N)
    for yi, v in zip(np.linalg.solve(T, g[:m]), V):
        x += yi * v
    return x, KrylovStats(m, np.asarray(residuals))


def stein_solve(phi1, phi2, h, tol: float = 1e-13, maxiter: int = 200):
    """Solve A - Phi1 A Phi2^T = H by the squared (Smith) iteration.

    Each pass doubles the number of series terms captured:
    A <- A + M A P^T, then M <- M^2 2^e and P <- P^2 2^-e, where the
    power of two e = round(log2(||P^2||_F / ||M^2||_F) / 2) gives both
    factors about the same norm.  Scaling by 2^e is exact, so M A P^T
    does not change, and neither factor overflows while the other
    underflows.  The iteration's own Frobenius residual decides the rest:
    it returns A once the residual drops below tol * ||H||_F, and raises
    ConvergenceError once the residual exceeds ||H||_F / eps, where no
    digit of A is left, or after ``maxiter`` doublings.
    """
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.shape != (phi1.shape[0], phi2.shape[0]):
        raise ValueError(
            f"right-hand side {h.shape} does not match ({phi1.shape[0]}, {phi2.shape[0]})"
        )
    hnorm = float(np.linalg.norm(h))
    if hnorm == 0.0:
        return np.zeros_like(h)
    a = h.copy()
    m = phi1
    p = phi2
    for k in range(maxiter + 1):
        resid = float(np.linalg.norm(phi1 @ a @ phi2.T - a + h))
        if resid <= tol * hnorm:
            return a
        # a NaN residual fails this test too
        if k == maxiter or not resid <= hnorm / np.finfo(float).eps:
            break
        a = a + m @ a @ p.T
        m = m @ m
        p = p @ p
        mnorm = float(np.linalg.norm(m))
        pnorm = float(np.linalg.norm(p))
        if 0.0 < mnorm < np.inf and 0.0 < pnorm < np.inf:
            e = round(0.5 * (math.log2(pnorm) - math.log2(mnorm)))
            m = np.ldexp(m, e)
            p = np.ldexp(p, -e)
    raise ConvergenceError(
        f"stein iteration stalled at relative residual {resid / hnorm:.3e} "
        f"after {k} doublings"
    )


def _norm_inf_identity_plus(P, Q) -> float:
    """||I + P Q^T||_inf, one row block of the N x N matrix at a time."""
    N = P.shape[0]
    best = 0.0
    for lo, hi in row_blocks(N, N):
        blk = P[lo:hi] @ Q.T
        blk[np.arange(hi - lo), np.arange(lo, hi)] += 1.0
        np.abs(blk, out=blk)
        best = max(best, float(np.max(np.sum(blk, axis=1))))
    return best


def condition_number_inf(op, cap: int = 4096) -> float:
    """Max-norm condition number ||F||_inf ||F^-1||_inf.

    A factored operator F = I - A B^T, with A = diag(u) U and
    B = diag(d) V, gets both norms exactly from row blocks, the inverse
    through F^-1 = I + A (I_r - B^T A)^-1 B^T: O(N^2 r) time in row
    blocks of about 2**16 entries, so memory stays O(N r) plus one block.
    Other operators go through an explicit inverse.  Refuses systems
    larger than ``cap`` unknowns; raise the cap explicitly when the cost
    is intended.
    """
    n = op.N if isinstance(op, SystemOperator) else np.asarray(op).shape[0]
    if n > cap:
        raise CapacityError(f"condition number of a {n} x {n} system exceeds cap {cap}")
    if isinstance(op, SystemOperator) and op.realization == "factored":
        A = op._u[:, None] * op._U
        B = op._d[:, None] * op._V
        C = A @ np.linalg.inv(np.eye(op.rank) - B.T @ A)
        return _norm_inf_identity_plus(-A, B) * _norm_inf_identity_plus(C, B)
    F = op.to_dense() if isinstance(op, SystemOperator) else np.asarray(op, dtype=float)
    Finv = np.linalg.inv(F)
    norm = np.linalg.norm
    return float(norm(F, np.inf) * norm(Finv, np.inf))
