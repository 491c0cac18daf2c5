"""Linear-algebra core for the discretized integral equation.

The discrete operator is I - Phi acting on vectors indexed by the tensor
grid, with axis 1 running fastest.  Three realizations trade memory for
structure: a dense matrix, a factored form diag(u) U V^T diag(d) with
rank-r kernel factors, and a separable form holding one small matrix per
axis.  The kernel factors are the exact ones of a kernel that declares its
y-interpolation nodes (``fredholm`` builds them from the declaration).
A matvec-only GMRES and a squared-iteration Stein solver consume them.
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

# bytes the GMRES basis may hold: unrestarted, it keeps one N-vector per
# iteration, so maxiter = N would let it grow to 8 N**2 bytes
_GMRES_BASIS_BYTES = 2**30


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
      K = U V^T from the kernel's declared y nodes, 4 N r + 3 N flops;
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


def lu_solve(op, b: np.ndarray) -> np.ndarray:
    """Direct dense solve; accepts an operator or a plain matrix."""
    F = op.to_dense() if isinstance(op, SystemOperator) else np.asarray(op, dtype=float)
    return np.linalg.solve(F, np.asarray(b, dtype=float))


def _as_matvec(op):
    if isinstance(op, SystemOperator):
        return op.matvec
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
    ConvergenceError, stats attached, if maxiter steps miss the target, and
    CapacityError before the basis would outgrow _GMRES_BASIS_BYTES.
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
        if 8 * N * (len(V) + 1) > _GMRES_BASIS_BYTES:
            raise CapacityError(
                f"gmres basis of {len(V) + 1} vectors of {N} entries exceeds {_GMRES_BASIS_BYTES} "
                f"bytes after {k + 1} iterations with residual {residuals[-1]:.3e} (target {target:.3e})"
            )
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
    digit of A is left, or after ``maxiter`` doublings.  It also raises
    as soon as A is final above the target: a doubling left A bit for bit
    unchanged while ||M||_F ||P||_F < 1, so no later increment is larger.
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
    final = False
    for k in range(maxiter + 1):
        resid = float(np.linalg.norm(phi1 @ a @ phi2.T - a + h))
        if resid <= tol * hnorm:
            return a
        # a NaN residual fails this test too
        if final or k == maxiter or not resid <= hnorm / np.finfo(float).eps:
            break
        step = a + m @ a @ p.T
        # A is final when a doubling leaves it unchanged and no later
        # increment can be larger than this one
        final = np.array_equal(step, a) and (
            float(np.linalg.norm(m)) * float(np.linalg.norm(p)) < 1.0
        )
        a = step
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


def _distinct_rows(U):
    """(order, start, W): U[order] groups its equal rows, group k holds
    order[start[k]:start[k + 1]], and W holds one copy of each group's row.

    Rows compare by exact equality after a lexsort; np.unique would pay a
    lazy import of 9-14 ms on its first call.
    """
    N, r = U.shape
    # column 0 is the primary key; lexsort refuses an empty key list
    order = np.lexsort(U.T[::-1]) if r else np.arange(N)
    Us = U[order]
    new = np.ones(N, dtype=bool)
    new[1:] = np.any(Us[1:] != Us[:-1], axis=1)
    start = np.append(np.flatnonzero(new), N)
    return order, start, Us[new]


def _norm_inf_rank_one_rows(s, W, order, start, B) -> float:
    """||I + diag(s) W[k(i)] B^T||_inf with row i drawn from group k(i) of W.

    Row i is e_i + s_i c_k with c_k = W_k B^T, so its absolute sum is
    |s_i| (S_k - |c_k[i]|) + |1 + s_i c_k[i]| with S_k = sum_j |c_k[j]|.
    One row sweep over the K distinct rows forms every S_k and reads each
    c_k[i] from the same block: O(K N r) time, one block in memory.
    """
    N = B.shape[0]
    total = np.empty(N)  # S_k of row i's group
    diag = np.empty(N)  # c_k[i]
    for lo, hi in row_blocks(W.shape[0], N):
        blk = W[lo:hi] @ B.T
        rows = order[start[lo]:start[hi]]
        group = np.repeat(np.arange(hi - lo), np.diff(start[lo:hi + 1]))
        diag[rows] = blk[group, rows]
        np.abs(blk, out=blk)
        total[rows] = np.sum(blk, axis=1)[group]
    # a rounded sum of nonnegative terms is no smaller than any of them
    return float(np.max(np.abs(s) * (total - np.abs(diag)) + np.abs(1.0 + s * diag)))


def condition_number_inf(op, cap: int = 4096) -> float:
    """Max-norm condition number ||F||_inf ||F^-1||_inf.

    A factored operator F = I - diag(u) U B^T, with B = diag(d) V, gets
    both norms exactly from the K distinct rows W of U: where U_i = W_k,
    row i of F is e_i - u_i W_k B^T, and row i of F^-1 = I + diag(u) U M B^T,
    M = (I_r - B^T diag(u) U)^-1, is e_i + u_i (W_k M) B^T.  That costs
    O(K N r) time in row blocks of about 2**16 entries, so memory stays
    O(N r) plus one block.  K = N for a kernel that varies along both y
    axes; eq2's kernel is constant in y1, and its declared U has one row
    per y2 node.  Other operators go through an explicit inverse.  A plain
    array must be a finite square matrix, or ValueError names its shape.

    ``cap`` bounds the work of the branch that runs, checked before any
    inverse or row sweep: an explicit inverse is refused above ``cap``
    unknowns, a factored system when K N r exceeds ``cap**2`` (at the
    default, the 2**24 entries of a 4096 x 4096 inverse).  Raise the cap
    explicitly when the cost is intended.
    """
    if isinstance(op, SystemOperator):
        n = op.N
    else:
        op = np.asarray(op, dtype=float)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"condition number needs a square matrix, got shape {op.shape}")
        n = op.shape[0]
    if isinstance(op, SystemOperator) and op.realization == "factored":
        u, U = op._u, op._U
        order, start, W = _distinct_rows(U)
        work = W.shape[0] * n * op.rank
        if work > cap * cap:
            raise CapacityError(
                f"condition number of a {n} x {n} factored system with {W.shape[0]} distinct "
                f"rows of rank {op.rank} ({work} entries) exceeds cap {cap}**2"
            )
        B = op._d[:, None] * op._V
        M = np.linalg.inv(np.eye(op.rank) - B.T @ (u[:, None] * U))
        return (_norm_inf_rank_one_rows(-u, W, order, start, B)
                * _norm_inf_rank_one_rows(u, W @ M, order, start, B))
    if n > cap:
        raise CapacityError(f"condition number of a {n} x {n} system exceeds cap {cap}")
    if not isinstance(op, SystemOperator):
        if not np.all(np.isfinite(op)):
            raise ValueError(f"condition number needs finite entries, got a non-finite {op.shape} matrix")
        F = op
    else:
        F = op.to_dense()
    Finv = np.linalg.inv(F)
    norm = np.linalg.norm
    return float(norm(F, np.inf) * norm(Finv, np.inf))
