"""Newton-direction solvers on block curvature.

The damped per-layer systems ((1-alpha) H + alpha I) d = -g are solved
in the eigenbases of their Kronecker factors, either exactly (EA-CG) or
through Kronecker-factored inverses (KFI).  EA-CG solves the bias system
directly in the eigenbasis of Hb, and the weight system by conjugate
gradient on the matrix-free Kronecker Hessian-vector product,
preconditioned by that system's exact inverse, so each solve takes one
CG iteration that CG's residual test checks.  A damped block with an
eigenvalue <= 0 raises NumericalBreakdownError naming its layer (exit 3).
Directions are returned already negated, i.e. they are descent
directions to be added with a positive step size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .curvature import LayerCurvature
from .errors import DimensionError, NumericalBreakdownError, check_range
from .fcnn import LayerGradients
from .linalg import LinearOperator, cg_solve, sym_eig


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
    """v -> (1-alpha) (F^T F / r kron hb) v + alpha v on v = vec(P), P being
    n_out x n_in column-major, for the r x n_in factor F: the input batch h
    (exact_kron, F^T F / b = E[h h^T]) or the row E[h] (ea_one_rank).

    Both modes apply (hb @ (P @ F^T)) @ F / r, transposed on P^T (v's C-order
    view), in O(m r (2n + m)) for m = n_out, n = n_in, never forming the n x n
    Gram matrix.  The Gram product costs O(m n (m + n)), less only when
    b (2n + m) > n (m + n): on layers about as narrow as the batch, both cheap.
    """
    n_out, (r, n_in) = hb.shape[0], f.shape
    scale = (1 - alpha) / r

    def apply(v: np.ndarray) -> np.ndarray:
        out = (f.T @ ((f @ v.reshape((n_in, n_out))) @ hb.T)).reshape(-1)
        out *= scale
        out += alpha * v
        return out

    return apply


def _weight_inverse(f: np.ndarray, c: np.ndarray, q: np.ndarray, alpha: float):
    """Exact inverse of the damped weight operator (1-alpha)(F^T F / r kron hb)
    + alpha I on v = vec(P), for hb = Q diag(lam) Q^T and c = (1-alpha) lam.

    One eigh of the Gram matrix on F's smaller side: F^T F / r = V diag(mu) V^T
    when n_in <= r, scaling by 1/(mu_j c_i + alpha) in the product basis;
    otherwise F F^T / r = U diag(mu) U^T, whose W = F^T U / sqrt(r) has
    W W^T = F^T F / r, and Woodbury gives x / alpha - W ((W^T X Q) o w) Q^T
    with w_ji = c_i / (alpha (alpha + mu_j c_i)), dividing by no singular
    value of F and forming no n_in x n_in array.  The damped eigenvalues
    mu_j c_i + alpha (alpha itself off range(F^T)) must be positive.
    """
    r, n_in = f.shape
    n_out = q.shape[0]
    if not np.all(np.isfinite(f)):
        raise NumericalBreakdownError("input factor is not finite")
    narrow = n_in <= r
    mu, basis = np.linalg.eigh(f.T @ f / r if narrow else f @ f.T / r)
    damped = np.multiply.outer(mu, c) + alpha
    _check_positive(damped)
    if narrow:
        scale = 1.0 / damped

        def apply(v: np.ndarray) -> np.ndarray:
            x = v.reshape((n_in, n_out))
            return (basis @ (((basis.T @ x) @ q) * scale) @ q.T).reshape(-1)

    else:
        w_fac = f.T @ (basis / np.sqrt(r))
        coeff = c / (alpha * damped)

        def apply(v: np.ndarray) -> np.ndarray:
            x = v.reshape((n_in, n_out))
            return (x / alpha - w_fac @ ((((w_fac.T @ x) @ q) * coeff) @ q.T)).reshape(-1)

    return apply


def _check_positive(damped: np.ndarray) -> None:
    if damped.min() <= 0:
        raise NumericalBreakdownError(
            f"damped block is not positive definite (min eigenvalue {damped.min():.3e})"
        )


def ea_cg_direction(
    curv: list[LayerCurvature], grads: LayerGradients, cfg: SolverConfig
) -> NewtonDirection:
    """Per-layer damped Newton directions via eigenbasis-preconditioned CG.

    Each layer is factored once.  eigh(hb) = Q diag(lam) Q^T solves the
    bias system directly, d_b = -Q ((Q^T g_b) / ((1-alpha) lam + alpha)).
    Together with one eigh of the Gram matrix of the input factor F
    (cfg.hvp_mode's batch h, or the row E[h]) it gives the exact inverse of
    the weight system (see _weight_inverse).  CG applies that inverse as
    its preconditioner against the true Kronecker Hessian-vector product,
    so a solve takes one iteration and still stops on cfg.eps_cg /
    cfg.max_cg.  A damped block with an eigenvalue <= 0 raises
    NumericalBreakdownError naming its layer.
    """
    if len(curv) != len(grads.grad_bias):
        raise DimensionError("curvature/gradient layer counts differ")
    alpha = cfg.alpha
    d_weight, d_bias = [], []
    for t, (layer, gb, gw) in enumerate(
        zip(curv, grads.grad_bias, grads.grad_weight), start=1
    ):
        n_out, n_in = gw.shape
        f = layer.h if cfg.hvp_mode is HvpMode.EXACT_KRON else layer.eh[None, :]
        try:
            lam, q = sym_eig(layer.hb)
            c = (1 - alpha) * lam
            damped_b = c + alpha
            _check_positive(damped_b)
            op_w = LinearOperator(dim=n_out * n_in, apply=_weight_hvp(f, layer.hb, alpha))
            rhs = -gw.reshape(-1, order="F")
            dw_vec, _, _ = cg_solve(
                op_w, rhs, cfg.max_cg, cfg.eps_cg, _weight_inverse(f, c, q, alpha)
            )
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"layer {t}: {exc}") from exc
        d_bias.append(-(q @ ((q.T @ gb) / damped_b)))
        d_weight.append(dw_vec.reshape((n_out, n_in), order="F"))
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
    first_layer_sherman_morrison: bool = False,
) -> NewtonDirection:
    """Kronecker-factored inverse directions.

    Per layer, d_W = -G^{-1} E[grad_W] H^{-1} with damped factors
    H = F^T F / r + c I, c = pi sqrt(alpha), and G = Hb + (sqrt(alpha)/pi) I;
    biases use d_b = -(Hb + sqrt(alpha) I)^{-1} E[grad_b].  F is the r x n
    input batch h (F^T F / r = E[h h^T]), or with the first-layer flag set
    the row E[h^0], the rank-one factor Sherman-Morrison would invert.

    Each layer is factored once: eigh(Hb) = Q diag(lam) Q^T makes the G and
    bias solves scalings by 1/(lam + shift), and the thin SVD F = U S V^T
    gives H^{-1} x = V ((V^T x) / (s^2/r + c)) when n <= r (V then spans
    R^n) and x / c + V ((V^T x) (1/(s^2/r + c) - 1/c)) otherwise, so no
    n x n matrix is formed.  The second form at n <= r would cancel x / c
    against its own projection and leave about eps |x| / c where the
    exact value is 0.
    """
    check_range("alpha", alpha, 0.0 < alpha < 1.0, "a value in (0, 1)")
    sqrt_a = np.sqrt(alpha)
    d_weight, d_bias = [], []
    for t, (layer, gb, gw) in enumerate(
        zip(curv, grads.grad_bias, grads.grad_weight), start=1
    ):
        n_out, n_in = gw.shape
        if pi_policy is PiPolicy.TRACE_NORM:
            tr_h = np.vdot(layer.h, layer.h) / layer.h.shape[0] / n_in
            tr_g = np.trace(layer.hb) / n_out
            pi = np.sqrt(tr_h / tr_g) if tr_h > 0 and tr_g > 0 else 1.0
        else:
            pi = 1.0
        f = layer.eh[None, :] if t == 1 and first_layer_sherman_morrison else layer.h
        try:
            lam, q = sym_eig(layer.hb)
            _, s, vt = np.linalg.svd(f, full_matrices=False)
        except (NumericalBreakdownError, np.linalg.LinAlgError) as exc:
            raise NumericalBreakdownError(f"layer {t}: {exc}") from exc
        # ascending damped eigenvalues of G (column 0) and the bias block (column 1)
        damped = lam[:, None] + np.array([sqrt_a / pi, sqrt_a])
        if damped[0].min() <= 0:
            raise NumericalBreakdownError(
                f"layer {t}: damped factor is singular (min eigenvalue {damped[0].min():.3e})"
            )
        left = q @ ((q.T @ gw) / damped[:, :1])
        db = -(q @ ((q.T @ gb) / damped[:, 1]))
        c = pi * sqrt_a
        inv = 1.0 / (s * s / f.shape[0] + c)
        if n_in <= f.shape[0]:
            dw = -(((left @ vt.T) * inv) @ vt)
        else:
            dw = -(left / c + ((left @ vt.T) * (inv - 1.0 / c)) @ vt)
        d_weight.append(dw)
        d_bias.append(db)
    return NewtonDirection(d_weight=d_weight, d_bias=d_bias)
