"""Dense symmetric linear algebra: eigendecomposition and eigenvalue
clipping.

Everything works on plain float64 numpy arrays.  Eigendecompositions are
numpy's LAPACK symmetric eigensolver (``np.linalg.eigh``) behind a symmetry
check.

``cg_solve`` (with ``LinearOperator``) and ``kron_apply`` have no caller in
the package: both solvers invert each layer's damped Kronecker block in its
factors' eigenbases (see solvers.py).  They stay, tested, only because the
benchmark in ``perfbench/`` traces these two names and warns when one is
missing; they go together with its ``cg_solve``/``kron_apply`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, NumericalBreakdownError

_SYMMETRY_RTOL = 1e-12


class EigenDecomposition(NamedTuple):
    """Eigenvalues ascending; eigenvectors as orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free symmetric operator v -> A v."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "LinearOperator":
        a = np.asarray(a, dtype=float)
        return cls(dim=a.shape[0], apply=lambda v: a @ v)


def check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """a as a float array, checked square and symmetric within tolerance.
    The blocks the package builds are exactly symmetric, which one
    comparison with a.T accepts before the tolerance test."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if np.array_equal(a, a.T):
        return a
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.max(np.abs(a - a.T)) > _SYMMETRY_RTOL * scale * 10:
        raise DimensionError(f"{name} is not symmetric within tolerance")
    return a


def sym_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix.

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvector columns, so that a == Q @ diag(w) @ Q.T.  eigh reads only
    a's lower triangle, after check_symmetric.  Non-finite input raises
    NumericalBreakdownError instead of reaching LAPACK.
    """
    if not np.all(np.isfinite(a)):
        raise NumericalBreakdownError("sym_eig input is not finite")
    a = check_symmetric(a, "sym_eig input")
    w, q = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues=w, eigenvectors=q)


def pos_eig(a: np.ndarray, gamma: float) -> np.ndarray:
    """Replace negative eigenvalues lam of a symmetric matrix by gamma*lam.

    Eigenvalues in [-tol, 0), tol = 1e-12 * max(1, max |lam|), are clamped
    to zero instead of scaled so round-off negatives are not amplified.
    gamma must be <= 0, which maps gamma=-1 to absolute values and gamma=0
    to a projection onto PSD.
    """
    if gamma > 0:
        raise ConfigError(f"pos_eig gamma must be <= 0, got {gamma}")
    w, q = sym_eig(a)
    tol = _SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(w))))
    clipped = np.where(w < -tol, gamma * w, np.where(w < 0, 0.0, w))
    out = (q * clipped) @ q.T
    return 0.5 * (out + out.T)


def abs_eig(a: np.ndarray) -> np.ndarray:
    """Flip negative eigenvalues to positive: Q |diag(w)| Q^T."""
    return pos_eig(a, gamma=-1.0)


def kron_apply(a: np.ndarray, c: np.ndarray, vec_b: np.ndarray) -> np.ndarray:
    """Apply (C^T kron A) to vec(B) as vec(A @ B @ C), column-major vec.

    a is m x m, c is n x n, vec_b stacks the columns of the m x n matrix B.
    The Kronecker product itself is never formed.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    vec_b = np.asarray(vec_b, dtype=float)
    m, n = a.shape[0], c.shape[0]
    if a.shape != (m, m) or c.shape != (n, n):
        raise DimensionError("kron_apply factors must be square")
    if vec_b.shape != (m * n,):
        raise DimensionError(
            f"kron_apply vector has length {vec_b.shape}, expected {m * n}"
        )
    b = vec_b.reshape((m, n), order="F")
    return (a @ b @ c).reshape(-1, order="F")


def cg_solve(
    op: LinearOperator,
    b: np.ndarray,
    max_iter: int,
    eps_cg: float,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, int, float]:
    """Conjugate gradient for an SPD operator, zero initial guess.

    Stops when ||op(x) - b|| / max(1, ||b||) <= eps_cg or after max_iter
    iterations, returning the best iterate seen.  The residual is
    recomputed from scratch every 50 iterations to limit recurrence drift.
    Raises NumericalBreakdownError when NaNs appear (indefinite operator).

    precond, an SPD approximation of op's inverse applied to the residual,
    defaults to the identity (plain CG); with op's exact inverse the first
    iterate is the solution, which the residual test then confirms.  It
    returns a new array or the residual itself, never a view of it: the
    iterates are updated in place, through one scratch vector.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (op.dim,):
        raise DimensionError(f"rhs has shape {b.shape}, operator dim {op.dim}")
    if not np.all(np.isfinite(b)):
        raise NumericalBreakdownError("cg_solve rhs is not finite")
    if precond is None:
        precond = _identity

    scale = max(1.0, float(np.linalg.norm(b)))
    x = np.zeros_like(b)
    tmp = np.empty_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy() if z is r else z
    rz = float(r @ z)
    best_x, best_res = None, np.sqrt(float(r @ r)) / scale
    iters = 0
    for k in range(1, max_iter + 1):
        ap = op.apply(p)
        denom = float(p @ ap)
        if not np.isfinite(denom):
            raise NumericalBreakdownError(f"cg_solve broke down at iteration {k}")
        if denom <= 0.0:
            # operator not positive definite along p; keep best iterate
            break
        alpha = rz / denom
        np.multiply(alpha, p, out=tmp)
        x += tmp
        if k % 50 == 0:
            np.subtract(b, op.apply(x), out=r)
        else:
            np.multiply(alpha, ap, out=tmp)
            r -= tmp
        if not np.all(np.isfinite(r)):
            raise NumericalBreakdownError(f"cg_solve produced NaN at iteration {k}")
        iters = k
        res = np.sqrt(float(r @ r)) / scale
        if res <= eps_cg:
            return x, iters, res
        if res < best_res:
            best_res, best_x = res, x.copy()
        z = precond(r)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return (np.zeros_like(b) if best_x is None else best_x), iters, best_res


def _identity(v: np.ndarray) -> np.ndarray:
    return v
