"""Layer-wise curvature blocks for fully-connected networks.

Two routes are implemented:

* the exact per-instance bias-Hessian recursion, averaged over the batch
  (the reference "true block-diagonal" curvature), and
* the expectation-approximated recursion that propagates batch-averaged
  blocks directly, with the positive-curvature (PCH), Gauss-Newton and
  Fisher variants.

Weight-block curvature is never materialized: a layer's curvature is its
bias block alone.  The weight block is E[h h^T] kron Hb, whose other
factor comes from the layer-input batch h that the mean weight gradient
G^T h / b is factored on (LayerGradients.inputs), so the solvers read h
there.  They factor E[h h^T] = h^T h / b through the Gram matrix on h's
smaller side: h^T h / b when the layer is at most as wide as the batch,
otherwise the b x b matrix h h^T / b.  For a layer
wider than the batch the solvers form neither E[h h^T] nor the
n_out x n_in weight gradient: the direction is B h for an n_out x b
matrix B.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalBreakdownError, check_range
from .fcnn import BatchPass, FcnnModel, ForwardTrace
from .linalg import abs_eig, pos_eig


class CurvatureKind(enum.Enum):
    PCH = "pch"
    GAUSS_NEWTON = "gauss_newton"
    FISHER = "fisher"


def _check_trace(model: FcnnModel, trace: ForwardTrace) -> None:
    widths = model.widths
    if len(trace.h) != model.num_layers + 1 or any(
        trace.h[t].shape[1] != widths[t] for t in range(len(widths))
    ):
        raise DimensionError("trace does not match model architecture")


def exact_bias_hessian_instances(model: FcnnModel, bp: BatchPass) -> list[np.ndarray]:
    """Per-instance bias Hessians for every layer of the batch in bp.

    hessians[t-1] has shape (batch, n_t, n_t).  The recursion starts from
    the criterion Hessian at the output and sandwiches through each hidden
    layer, adding the diagonal second-derivative term h''^{t-1} o
    (W^t)^T g^t, whose product backprop kept in bp.grad_h.
    """
    trace = bp.trace
    _check_trace(model, trace)
    k = model.num_layers
    grad_h = bp.grad_h

    hbs: list[np.ndarray] = [None] * k
    hbs[k - 1] = bp.hess_out
    for t in range(k, 1, -1):
        w = model.weights[t - 1]
        hp = trace.hprime[t - 1]
        hpp = trace.hdprime[t - 1]
        sand = w.T @ hbs[t - 1] @ w
        sand *= hp[:, :, None]
        sand *= hp[:, None, :]
        diag_vec = hpp * grad_h[t - 1]
        idx = np.arange(w.shape[1])
        sand[:, idx, idx] += diag_vec
        hbs[t - 2] = sand
    return hbs


def true_bias_hessian(model: FcnnModel, bp: BatchPass) -> list[np.ndarray]:
    """Batch means of the exact per-instance bias Hessians, layer by layer."""
    hbs = exact_bias_hessian_instances(model, bp)
    return [0.5 * (m + m.T) for m in (h.mean(axis=0) for h in hbs)]


def ea_curvature(
    model: FcnnModel, bp: BatchPass, kind: CurvatureKind, gamma: float = -1.0
) -> list[np.ndarray]:
    """Expectation-approximated bias blocks E_i[d2 xi / d b^t d b^t] for
    every layer t, hbs[t-1] of shape (n_t, n_t).

    Fisher takes every bias block as the gradient outer-product mean
    G^tT G^t / b and reads nothing else.  Gauss-Newton and PCH start from
    the symmetrised mean output Hessian bp.hess_out and take layer t-1's
    block as (W^tT Hb^t W^t) o E[h'^{t-1} h'^{(t-1)T}].  PCH alone adds the
    recursion's diagonal term E[h''^{t-1} o (W^tT g^t)], from the sigma''
    of bp.trace and backprop's products bp.grad_h, and clips it and
    the top block through the negative-eigenvalue replacement with the
    given gamma (-1 flips signs, 0 zeroes); the sandwich term is PSD by
    induction and left alone.
    """
    check_range("gamma", gamma, kind is not CurvatureKind.PCH or gamma in (-1.0, 0.0), "-1 or 0")
    trace = bp.trace
    _check_trace(model, trace)
    k = model.num_layers
    n = trace.batch_size
    if kind is CurvatureKind.FISHER:
        return [(g.T @ g) / n for g in bp.grads.bias_per_instance]

    mean_out = bp.hess_out.mean(axis=0)
    hb = 0.5 * (mean_out + mean_out.T)
    if kind is CurvatureKind.PCH:
        try:
            hb = pos_eig(hb, gamma)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"layer {k}: top block: {exc}") from exc
    hbs: list[np.ndarray] = [None] * k
    hbs[k - 1] = hb
    for t in range(k, 1, -1):
        w = model.weights[t - 1]
        hp = trace.hprime[t - 1]
        hb = (w.T @ hb @ w) * ((hp.T @ hp) / n)
        if kind is CurvatureKind.PCH:
            # the term is diagonal, so clipping reduces to |x| or max(x, 0)
            diag_vec = (trace.hdprime[t - 1] * bp.grad_h[t - 1]).mean(axis=0)
            clipped = np.abs(diag_vec) if gamma == -1.0 else np.maximum(diag_vec, 0.0)
            hb = hb + np.diag(clipped)
        hb = 0.5 * (hb + hb.T)
        hbs[t - 2] = hb
    return hbs


@dataclass
class ErrorReport:
    """Frobenius distances per layer plus the joint block-diagonal norm."""

    per_layer: list[float]
    total: float


def frobenius_errors(
    approx: list[np.ndarray], target: list[np.ndarray]
) -> ErrorReport:
    """Frobenius distance between matching blocks; total is the norm over
    all blocks jointly."""
    if len(approx) != len(target):
        raise DimensionError("layer counts differ")
    per_layer = []
    for a, e in zip(approx, target):
        if a.shape != e.shape:
            raise DimensionError(f"block shapes differ: {a.shape} vs {e.shape}")
        per_layer.append(float(np.linalg.norm(a - e)))
    total = float(np.sqrt(sum(err * err for err in per_layer)))
    return ErrorReport(per_layer=per_layer, total=total)


def layerwise_error(
    approx: list[np.ndarray], exact: list[np.ndarray]
) -> ErrorReport:
    """Frobenius error between approximate blocks and the absolute-eigenvalue
    version of the exact blocks; total is the norm over all blocks jointly."""
    return frobenius_errors(approx, [abs_eig(e) for e in exact])


def covariance_bound_check(
    model: FcnnModel, bp: BatchPass, layer_t: int, lipschitz: float
) -> tuple[float, float]:
    """Evaluate both sides of the expectation-approximation error bound at
    layer t (2 <= t <= k).

    lhs is the squared Frobenius norm of the elementwise covariance between
    W^T Hb_i W and h'^{t-1} h'^{(t-1)T} over the batch; rhs is L^4 times the
    summed elementwise variance of W^T Hb_i W.  The bound asserts lhs <= rhs
    for any activation with Lipschitz constant L.
    """
    check_range("layer_t", layer_t, 2 <= layer_t <= model.num_layers, f"[2, {model.num_layers}]")
    check_range("batch size", bp.trace.batch_size, bp.trace.batch_size >= 2, ">= 2")
    hbs = exact_bias_hessian_instances(model, bp)
    w = model.weights[layer_t - 1]
    x = w.T @ hbs[layer_t - 1] @ w
    hp = bp.trace.hprime[layer_t - 1]
    yv = hp[:, :, None] * hp[:, None, :]
    cov = (x * yv).mean(axis=0) - x.mean(axis=0) * yv.mean(axis=0)
    lhs = float(np.sum(cov * cov))
    var_x = (x * x).mean(axis=0) - x.mean(axis=0) ** 2
    rhs = float(lipschitz**4 * np.sum(var_x))
    return lhs, rhs
