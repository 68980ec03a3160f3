"""Newton-direction solvers on block curvature.

Both solvers invert each layer's damped Kronecker block in the eigenbases
of its two factors, Hb = Q diag(lam) Q^T and the Gram matrix of the
layer's input factor F, through one helper, _kron_inverse.  EA-CG inverts
(1-alpha)(Hb kron F^T F / r) + alpha I exactly.  It solves the bias
system directly in the eigenbasis of Hb, and the weight system by
conjugate gradient on the matrix-free Kronecker Hessian-vector product,
preconditioned by that system's exact inverse, so each solve takes one CG
iteration that CG's residual test checks.  KFI, the Kronecker-factored
inverse, inverts the two damped factors G = Hb + (sqrt(alpha)/pi) I and
H = F^T F / r + pi sqrt(alpha) I separately.  A damped block with an
eigenvalue <= 0 raises NumericalBreakdownError naming its layer (exit 3).
Directions are returned already negated, i.e. they are descent
directions to be added with a positive step size, as C-ordered arrays;
EA-CG's CG works on the row-major vec X.reshape(-1) of a weight matrix X.

The curvature is block-diagonal, so the layers' factorizations do not
depend on each other.  Both solvers compute all of them before their
first solve, in _factor_layers, and on a net whose widest Hb is at least
_OVERLAP_MIN_WIDTH wide, with two CPUs usable, on two threads: a helper
thread takes every Gram and every other Hb eigendecomposition while the
calling thread factors the widest Hb.  numpy releases the interpreter
lock inside LAPACK, so the two overlap.  The solves stay on the calling
thread in layer order and each factorization is the same LAPACK call on
the same matrix, so the directions are bit-identical to factoring inline.
BLAS threads (OPENBLAS_NUM_THREADS) come on top of the one helper thread.
"""

from __future__ import annotations

import enum
import os
import threading
from dataclasses import dataclass

import numpy as np

from .curvature import LayerCurvature
from .errors import DimensionError, NumericalBreakdownError, check_range
from .fcnn import LayerGradients
from .linalg import EigenDecomposition, LinearOperator, cg_solve, sym_eig

# Narrowest widest-Hb for which the solvers factor on a helper thread:
# starting and joining a thread costs 0.07-0.2 ms, one eigh 1.5-2.7 ms at
# n = 128 and 0.35-0.5 ms at n = 64 (numpy, one BLAS thread, 2-vCPU Xeon).
# Nets as narrow as the README's (blocks <= 32 wide) factor inline.
_OVERLAP_MIN_WIDTH = 128


class HvpMode(enum.Enum):
    EXACT_KRON = "exact_kron"
    EA_ONE_RANK = "ea_one_rank"


class PiPolicy(enum.Enum):
    UNIT = "unit"
    TRACE_NORM = "trace_norm"


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 0.02
    max_cg: int = 20
    eps_cg: float = 1e-5
    hvp_mode: HvpMode = HvpMode.EXACT_KRON
    pi_policy: PiPolicy = PiPolicy.UNIT

    def __post_init__(self):
        check_range("alpha", self.alpha, 0.0 < self.alpha < 1.0, "a value in (0, 1)")
        check_range("max_cg", self.max_cg, self.max_cg >= 1, ">= 1")
        check_range("eps_cg", self.eps_cg, self.eps_cg > 0, "> 0")


@dataclass
class NewtonDirection:
    """Per-layer update directions, same shapes as the model parameters."""

    d_weight: list[np.ndarray]
    d_bias: list[np.ndarray]

    def flat(self) -> np.ndarray:
        parts = []
        for dw, db in zip(self.d_weight, self.d_bias):
            parts.append(dw.reshape(-1, order="F"))
            parts.append(db)
        return np.concatenate(parts)


def _weight_hvp(f: np.ndarray, hb: np.ndarray, alpha: float):
    """v -> (1-alpha) (hb kron F^T F / r) v + alpha v on the row-major vec
    v = X.reshape(-1) of an n_out x n_in matrix X, for the r x n_in factor F:
    the input batch h (exact_kron, F^T F / b = E[h h^T]) or the row E[h]
    (ea_one_rank).

    Both modes apply (hb @ (X @ F^T)) @ F / r, in O(m r (2n + m)) for
    m = n_out, n = n_in, never forming the n x n Gram matrix.  The Gram
    product costs O(m n (m + n)), less only when b (2n + m) > n (m + n): on
    layers about as narrow as the batch, both cheap.
    """
    n_out, (r, n_in) = hb.shape[0], f.shape
    scale = (1 - alpha) / r

    def apply(v: np.ndarray) -> np.ndarray:
        out = ((hb @ (v.reshape((n_out, n_in)) @ f.T)) @ f).reshape(-1)
        out *= scale
        out += alpha * v
        return out

    return apply


def _gram_eig(f: np.ndarray) -> EigenDecomposition:
    """sym_eig of the Gram matrix on the r x n_in factor F's smaller side:
    F^T F / r when n_in <= r, otherwise F F^T / r.  numpy forms both
    products exactly symmetric, so the triangle eigh reads is the whole."""
    if not np.all(np.isfinite(f)):
        raise NumericalBreakdownError("input factor is not finite")
    r, n_in = f.shape
    return sym_eig(f.T @ f / r if n_in <= r else f @ f.T / r)


def _kron_inverse(f: np.ndarray, gram: EigenDecomposition, q: np.ndarray, b, d):
    """X -> Z solving Q diag(b) Q^T Z (F^T F / r) + Q diag(d) Q^T Z = X for
    n_out x n_in matrices: X's (lam_i, mu_j) eigencomponent divided by
    b_i mu_j + d_i, and its components off range(F^T) by d_i.  q holds Hb's
    eigenvectors, gram is _gram_eig(F), and d is a scalar or one value per
    column of q.

    When n_in <= r, gram is F^T F / r = V diag(mu) V^T with V spanning
    R^n_in, and Z = Q ((Q^T X V) / (b mu + d)) V^T.  Otherwise it is
    F F^T / r = U diag(mu) U^T, whose W = F^T U / sqrt(r) has W W^T =
    F^T F / r and W^T W = diag(mu), and Woodbury gives
    Z = Q (Y / d - ((Y W) o coeff) W^T) for Y = Q^T X and
    coeff_ij = b_i / (d_i (b_i mu_j + d_i)), dividing by no singular value
    of F and forming no n_in x n_in array.  A scalar d commutes with Q, so
    then only X W is rotated: Z = X / d - Q ((Q^T X W) o coeff) W^T.  The
    damped eigenvalues b_i mu_j + d_i must be positive.
    """
    r, n_in = f.shape
    mu, basis = gram
    d = np.reshape(d, (-1, 1))
    damped = np.multiply.outer(b, mu) + d
    _check_positive(damped)
    if n_in <= r:
        scale = 1.0 / damped
        return lambda x: q @ (((q.T @ x) @ basis) * scale) @ basis.T
    w_fac = f.T @ (basis / np.sqrt(r))
    coeff = b[:, None] / (d * damped)
    if d.size == 1:
        return lambda x: x / d - (q @ ((q.T @ (x @ w_fac)) * coeff)) @ w_fac.T

    def apply(x: np.ndarray) -> np.ndarray:
        y = q.T @ x
        return q @ (y / d - ((y @ w_fac) * coeff) @ w_fac.T)

    return apply


def _check_positive(damped: np.ndarray) -> None:
    if damped.min() <= 0:
        raise NumericalBreakdownError(
            f"damped block is not positive definite (min eigenvalue {damped.min():.3e})"
        )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _factor_layers(curv: list[LayerCurvature], factors: list[np.ndarray]) -> tuple[list, list]:
    """sym_eig of each layer's hb and _gram_eig of its input factor, as two
    per-layer lists whose entries are the EigenDecomposition or the
    exception computing it raised, for the caller to raise at that layer.

    When the widest hb is at least _OVERLAP_MIN_WIDTH wide and two CPUs are
    usable, one helper thread, started and joined here, computes every
    factorization but that hb's, which this thread computes meanwhile.
    """
    jobs = [(sym_eig, layer.hb) for layer in curv] + [(_gram_eig, f) for f in factors]
    results: list = [None] * len(jobs)

    def run(indices):
        for i in indices:
            fn, arg = jobs[i]
            try:
                results[i] = fn(arg)
            except Exception as exc:  # handed back to the caller's thread
                results[i] = exc

    k = len(curv)
    widest = max(range(k), key=lambda t: curv[t].hb.shape[0], default=0)
    if k and curv[widest].hb.shape[0] >= _OVERLAP_MIN_WIDTH and _usable_cpus() >= 2:
        helper = threading.Thread(target=run, args=([i for i in range(2 * k) if i != widest],))
        helper.start()
        try:
            run([widest])
        finally:
            helper.join()
    else:
        run(range(2 * k))
    return results[:k], results[k:]


def _unwrap(result):
    if isinstance(result, Exception):
        raise result
    return result


def ea_cg_direction(
    curv: list[LayerCurvature], grads: LayerGradients, cfg: SolverConfig
) -> NewtonDirection:
    """Per-layer damped Newton directions via eigenbasis-preconditioned CG.

    Each layer is factored once, by two sym_eig calls.  eigh(hb) =
    Q diag(lam) Q^T solves the bias system directly,
    d_b = -Q ((Q^T g_b) / ((1-alpha) lam + alpha)).  Together with the
    eigendecomposition of the Gram matrix of the input factor F
    (cfg.hvp_mode's batch h, or the row E[h]) it gives the exact inverse of
    the weight system, _kron_inverse with b = (1-alpha) lam and d = alpha.
    CG applies that inverse as its preconditioner against the true
    Kronecker Hessian-vector product, so a solve takes one iteration and
    still stops on cfg.eps_cg / cfg.max_cg.  A damped block with an
    eigenvalue <= 0 raises NumericalBreakdownError naming its layer.

    All factorizations run before the first solve, overlapped on a helper
    thread on wide nets (see the module docstring and _factor_layers), and
    the solves then run here in layer order.  A failed factorization is
    raised at its layer's turn with its inline message, so an error always
    names the lowest failing layer.
    """
    if len(curv) != len(grads.grad_bias):
        raise DimensionError("curvature/gradient layer counts differ")
    alpha = cfg.alpha
    factors = [
        layer.h if cfg.hvp_mode is HvpMode.EXACT_KRON else layer.eh[None, :] for layer in curv
    ]
    hb_eigs, gram_eigs = _factor_layers(curv, factors)
    d_weight, d_bias = [], []
    for t, (layer, f, hb_eig, gram_eig, gb, gw) in enumerate(
        zip(curv, factors, hb_eigs, gram_eigs, grads.grad_bias, grads.grad_weight), start=1
    ):
        try:
            lam, q = _unwrap(hb_eig)
            b = (1 - alpha) * lam
            damped_b = b + alpha
            _check_positive(damped_b)
            op_w = LinearOperator(dim=gw.size, apply=_weight_hvp(f, layer.hb, alpha))
            inverse = _kron_inverse(f, _unwrap(gram_eig), q, b, alpha)
            dw_vec, _, _ = cg_solve(
                op_w,
                -gw.reshape(-1),
                cfg.max_cg,
                cfg.eps_cg,
                lambda v: inverse(v.reshape(gw.shape)).reshape(-1),
            )
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"layer {t}: {exc}") from exc
        d_bias.append(-(q @ ((q.T @ gb) / damped_b)))
        d_weight.append(dw_vec.reshape(gw.shape))
    return NewtonDirection(d_weight=d_weight, d_bias=d_bias)


def sherman_morrison_apply(
    eh: np.ndarray, damp: float, v: np.ndarray
) -> np.ndarray:
    """(eh eh^T + damp I)^{-1} v in O(n) via the rank-one update formula."""
    check_range("damp", damp, damp > 0, "> 0")
    eh = np.asarray(eh, dtype=float)
    v = np.asarray(v, dtype=float)
    coeff = (eh @ v) / (damp * (damp + eh @ eh))
    return v / damp - coeff * eh


def kfi_direction(
    curv: list[LayerCurvature],
    grads: LayerGradients,
    alpha: float,
    pi_policy: PiPolicy = PiPolicy.UNIT,
) -> NewtonDirection:
    """Kronecker-factored inverse directions.

    Per layer, d_W = -G^{-1} E[grad_W] H^{-1} with damped factors
    H = F^T F / r + c I, c = pi sqrt(alpha), and G = Hb + (sqrt(alpha)/pi) I;
    biases use d_b = -(Hb + sqrt(alpha) I)^{-1} E[grad_b].  F is the r x n
    input batch h, so F^T F / r = E[h h^T].

    The layers are factored as in ea_cg_direction, by _factor_layers:
    eigh(Hb) = Q diag(lam) Q^T makes the G and bias solves scalings by
    1/(lam + shift), and with the Gram matrix's eigenvalues mu, G^{-1} X H^{-1}
    divides X's (lam_i, mu_j) eigencomponent by (lam_i + sqrt(alpha)/pi)
    (mu_j + c): _kron_inverse with b = lam + sqrt(alpha)/pi and d = b c, which
    forms no n x n matrix.  A G with an eigenvalue <= 0 raises
    NumericalBreakdownError naming its layer.
    """
    check_range("alpha", alpha, 0.0 < alpha < 1.0, "a value in (0, 1)")
    if len(curv) != len(grads.grad_bias):
        raise DimensionError("curvature/gradient layer counts differ")
    sqrt_a = np.sqrt(alpha)
    hb_eigs, gram_eigs = _factor_layers(curv, [layer.h for layer in curv])
    d_weight, d_bias = [], []
    for t, (layer, hb_eig, gram_eig, gb, gw) in enumerate(
        zip(curv, hb_eigs, gram_eigs, grads.grad_bias, grads.grad_weight), start=1
    ):
        n_out, n_in = gw.shape
        if pi_policy is PiPolicy.TRACE_NORM:
            tr_h = np.vdot(layer.h, layer.h) / layer.h.shape[0] / n_in
            tr_g = np.trace(layer.hb) / n_out
            pi = np.sqrt(tr_h / tr_g) if tr_h > 0 and tr_g > 0 else 1.0
        else:
            pi = 1.0
        try:
            lam, q = _unwrap(hb_eig)
            damped_g = lam + sqrt_a / pi
            if damped_g.min() <= 0:
                raise NumericalBreakdownError(
                    f"damped factor is singular (min eigenvalue {damped_g.min():.3e})"
                )
            inverse = _kron_inverse(layer.h, _unwrap(gram_eig), q, damped_g, pi * sqrt_a * damped_g)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"layer {t}: {exc}") from exc
        d_weight.append(-inverse(gw))
        d_bias.append(-(q @ ((q.T @ gb) / (lam + sqrt_a))))
    return NewtonDirection(d_weight=d_weight, d_bias=d_bias)
