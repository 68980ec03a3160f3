"""Newton-direction solvers on block curvature.

The damped per-layer systems ((1-alpha) H + alpha I) d = -g are solved
either by conjugate gradient with matrix-free Kronecker Hessian-vector
products (EA-CG) or by Kronecker-factored inverses (KFI).  Directions are
returned already negated, i.e. they are descent directions to be added
with a positive step size.
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


def _weight_hvp(layer: LayerCurvature, mode: HvpMode, alpha: float, n_out: int, n_in: int):
    """v -> (1-alpha) (F^T F / r kron hb) v + alpha v on v = vec(P), P being
    n_out x n_in column-major, for the r x n_in factor F: the input batch h
    (exact_kron, F^T F / b = E[h h^T]) or the row E[h] (ea_one_rank).

    Both modes apply (hb @ (P @ F^T)) @ F / r, transposed on P^T (v's C-order
    view), in O(m r (2n + m)) for m = n_out, n = n_in, never forming the n x n
    Gram matrix.  The Gram product costs O(m n (m + n)), less only when
    b (2n + m) > n (m + n): on layers about as narrow as the batch, both cheap.
    """
    hb = layer.hb
    f = layer.h if mode is HvpMode.EXACT_KRON else layer.eh[None, :]
    scale = (1 - alpha) / f.shape[0]

    def apply(v: np.ndarray) -> np.ndarray:
        out = (f.T @ ((f @ v.reshape((n_in, n_out))) @ hb.T)).reshape(-1)
        out *= scale
        out += alpha * v
        return out

    return apply


def ea_cg_direction(
    curv: list[LayerCurvature], grads: LayerGradients, cfg: SolverConfig
) -> NewtonDirection:
    """Per-layer damped Newton directions via conjugate gradient.

    Bias systems are solved directly on the dense block; weight systems
    matrix-free through the Kronecker Hessian-vector product selected by
    cfg.hvp_mode, with the damping (1-alpha) HVP + alpha v folded into the
    operator.
    """
    if len(curv) != len(grads.grad_bias):
        raise DimensionError("curvature/gradient layer counts differ")
    alpha = cfg.alpha
    d_weight, d_bias = [], []
    for t, (layer, gb, gw) in enumerate(
        zip(curv, grads.grad_bias, grads.grad_weight), start=1
    ):
        n_out, n_in = gw.shape
        try:
            hb = layer.hb
            op_b = LinearOperator(
                dim=n_out, apply=lambda v, hb=hb: (1 - alpha) * (hb @ v) + alpha * v
            )
            db, _, _ = cg_solve(op_b, -gb, cfg.max_cg, cfg.eps_cg)

            op_w = LinearOperator(
                dim=n_out * n_in,
                apply=_weight_hvp(layer, cfg.hvp_mode, alpha, n_out, n_in),
            )
            rhs = -gw.reshape(-1, order="F")
            dw_vec, _, _ = cg_solve(op_w, rhs, cfg.max_cg, cfg.eps_cg)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"layer {t}: {exc}") from exc
        d_bias.append(db)
        d_weight.append(dw_vec.reshape((n_out, n_in), order="F"))
    return NewtonDirection(d_weight=d_weight, d_bias=d_bias)


def _sym_inverse_apply(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for symmetric positive definite a via eigenvalues."""
    w, q = sym_eig(a)
    if np.min(w) <= 0:
        raise NumericalBreakdownError(
            f"damped factor is singular (min eigenvalue {np.min(w):.3e})"
        )
    return q @ ((q.T @ rhs) / w[..., None] if rhs.ndim == 2 else (q.T @ rhs) / w)


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
    H = E[h h^T] + pi sqrt(alpha) I and G = Hb + (sqrt(alpha)/pi) I;
    biases use d_b = -(Hb + sqrt(alpha) I)^{-1} E[grad_b].  With the
    first-layer flag set, H^1 is replaced by the rank-one approximation
    E[h^0] E[h^0]^T + pi sqrt(alpha) I and applied via Sherman-Morrison.
    """
    check_range("alpha", alpha, 0.0 < alpha < 1.0, "a value in (0, 1)")
    sqrt_a = np.sqrt(alpha)
    d_weight, d_bias = [], []
    for t, (layer, gb, gw) in enumerate(
        zip(curv, grads.grad_bias, grads.grad_weight), start=1
    ):
        n_out, n_in = gw.shape
        ehhT = layer.ehhT  # the one place the n_in x n_in Gram matrix is formed
        if pi_policy is PiPolicy.TRACE_NORM:
            tr_h = np.trace(ehhT) / n_in
            tr_g = np.trace(layer.hb) / n_out
            pi = np.sqrt(tr_h / tr_g) if tr_h > 0 and tr_g > 0 else 1.0
        else:
            pi = 1.0
        g_fac = layer.hb + (sqrt_a / pi) * np.eye(n_out)
        try:
            left = _sym_inverse_apply(g_fac, gw)
            if t == 1 and first_layer_sherman_morrison:
                # row i of d_W needs H^{-1} applied to row i of `left`
                dw = -np.stack(
                    [
                        sherman_morrison_apply(layer.eh, pi * sqrt_a, row)
                        for row in left
                    ]
                )
            else:
                h_fac = ehhT + pi * sqrt_a * np.eye(n_in)
                dw = -_sym_inverse_apply(h_fac, left.T).T
            db = -_sym_inverse_apply(layer.hb + sqrt_a * np.eye(n_out), gb)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"layer {t}: {exc}") from exc
        d_weight.append(dw)
        d_bias.append(db)
    return NewtonDirection(d_weight=d_weight, d_bias=d_bias)
