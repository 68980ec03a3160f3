"""Newton-direction solvers on block curvature.

Both solvers take the curvature as the layers' bias blocks Hb (the
curvature module's lists) and the gradients as LayerGradients, and invert
each layer's damped Kronecker block in the eigenbases of its two factors,
Hb = Q diag(lam) Q^T and the Gram matrix of the layer's input factor F,
through one helper, _kron_inverse.  F is built from the layer's input
batch h = grads.inputs[t-1], the array the weight gradient is factored
on, so the solve always matches the gradient it is given.  EA-CG inverts
(1-alpha)(Hb kron F^T F / r) + alpha I exactly, and the bias system
(1-alpha) Hb + alpha I in the eigenbasis of Hb.  KFI, the
Kronecker-factored inverse, inverts the two damped factors
G = Hb + (sqrt(alpha)/pi) I and H = F^T F / r + pi sqrt(alpha) I
separately, and the bias system Hb + sqrt(alpha) I.  The weight gradient
is read in factored form, g^T h / r, from the r x n_out per-instance bias
gradients g and the same h: a layer at most as wide as the batch
multiplies it out, and a wider one is solved as B h for an n_out x r
matrix B, forming no n_out x n_in array but the direction.  A damped
block with an eigenvalue <= 0, a non-finite gradient or a non-finite
direction raises NumericalBreakdownError naming its layer (exit 3).
Directions are returned already negated, i.e. they are descent directions
to be added with a positive step size, as C-ordered arrays.

The curvature is block-diagonal, so each layer's direction is one
independent job, _solve_layer, and on wide nets the jobs share the calling
thread with a Lane: one helper thread that runs the jobs submitted to it in
order, each under the numpy error state of the thread that submitted it,
and hands back a Future.  A run's Optimizer owns one Lane and submits each
Newton step's input-Gram factorizations to it while the step's batch pass
runs; a standalone solver call opens a Lane for that call alone.  numpy
releases the interpreter lock inside LAPACK and BLAS, so the threads
overlap, and a job makes the same calls on the same arrays on either
thread, so the directions are bit-identical to solving inline.  At paper
width (784-256-128-64-10, batch 128, one BLAS thread, 2-vCPU host) a
direction takes 12-13 ms on a lane against 20-21 ms inline.  BLAS threads
(OPENBLAS_NUM_THREADS) come on top of the one helper thread.  The Lane is
the package's one thread primitive; the trainer scores on it too.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, NumericalBreakdownError, check_range
from .fcnn import LayerGradients, weight_gradient
from .linalg import EigenDecomposition, sym_eig

# Narrowest widest-Hb for which a run, or a standalone solve, opens a Lane:
# handing a job to the lane and taking its result costs 0.02-0.07 ms, one
# eigh 1.5 ms at n = 128, 0.38 ms at n = 64 and 0.09 ms at n = 32 (numpy
# 2.4.6, one BLAS thread, 2-vCPU Xeon).  At paper width the lane factors
# the four input Grams while the batch pass (2.3-2.8 ms) and the curvature
# (1.8-2.0 ms) run on the calling thread, then solves layers 2-4 while the
# calling thread factors and solves layer 1; the direction takes 12-13 ms
# so against 20-21 ms inline.  Nets as narrow as the README's (blocks <= 32
# wide) factor inline.
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
    hvp_mode: HvpMode = HvpMode.EXACT_KRON
    pi_policy: PiPolicy = PiPolicy.UNIT

    def __post_init__(self):
        check_range("alpha", self.alpha, 0.0 < self.alpha < 1.0, "a value in (0, 1)")


@dataclass
class NewtonDirection:
    """Per-layer update directions, same shapes as the model parameters."""

    d_weight: list[np.ndarray]
    d_bias: list[np.ndarray]


def _gram_eig(
    h: np.ndarray, one_rank: bool = False
) -> tuple[np.ndarray | None, EigenDecomposition]:
    """The input factor's row eh = E[h] = h.mean(axis=0) under one_rank
    (None otherwise) and sym_eig of the Gram matrix of the input factor F --
    the r x n_in batch h, or the row eh (m = 1) -- on its smaller side:
    F^T F / m when n_in <= m, otherwise F F^T / m.  numpy forms both
    products exactly symmetric, so the triangle eigh reads is the whole."""
    eh = h.mean(axis=0) if one_rank else None
    f = h if eh is None else eh[None, :]
    if not np.all(np.isfinite(f)):
        raise NumericalBreakdownError("input factor is not finite")
    m, n_in = f.shape
    return eh, sym_eig(f.T @ f / m if n_in <= m else f @ f.T / m)


def _kron_inverse(
    g: np.ndarray, h: np.ndarray, gram: EigenDecomposition, q: np.ndarray, b, d, eh=None
) -> np.ndarray:
    """-Z, for the Z solving Q diag(b) Q^T Z (F^T F / m) + Q diag(d) Q^T Z = X
    for the mean weight gradient X = g^T h / r of the r x n_out per-instance
    bias gradients g on the r x n_in input batch h: X's (lam_i, mu_j)
    eigencomponent divided by b_i mu_j + d_i, and its components off
    range(F^T) by d_i.  F is h (m = r), or under ea_one_rank the row
    eh = E[h] (m = 1), which comes with a scalar d.  q holds Hb's
    eigenvectors, gram is _gram_eig(h, eh), and d is a scalar or one value
    per column of q.  The damped eigenvalues b_i mu_j + d_i must be positive.

    For F = h and n_in <= r, gram is h^T h / r = V diag(mu) V^T with V
    spanning R^n_in, and Z = Q ((Q^T X V) / (b mu + d)) V^T.  For n_in > r
    it is h h^T / r = U diag(mu) U^T with U spanning R^r, which gives the
    same form one side over: X = A h for A = g^T / r, and Z = B h solves
    the system when B solves it with h h^T / r in place of h^T h / r, so
    Z = Q ((Q^T A U) / (b mu + d)) U^T h.  This forms neither X nor any
    other n_out x n_in array but Z.  For the row eh, range(F^T) is spanned
    by e = eh / |eh| (mu = |eh|^2; e = 0 when eh is), and
    Z = Q ((Q^T X e) / (b mu + d)) e^T + X_perp / d with
    X_perp = X - (X e) e^T.  X_perp is projected twice: one pass leaves
    about eps |X| along e, which the weight system multiplies by b mu + d,
    against eps |X_perp| after two.

    The sign rides on the divisors, -1 / (b mu + d) and -d: IEEE rounding
    commutes with negation, so the result is bit for bit -Z without the
    n_out x n_in copy that negating Z would take.
    """
    r, n_in = h.shape
    mu, basis = gram
    d = np.reshape(d, (-1, 1))
    damped = np.multiply.outer(b, mu) + d
    _check_positive(damped)
    scale = -1.0 / damped

    def solve(y: np.ndarray) -> np.ndarray:
        return q @ (((q.T @ y) @ basis) * scale) @ basis.T

    if eh is None:
        if n_in <= r:
            return solve(weight_gradient(g, h))
        return solve(g.T / r) @ h
    e = eh / np.sqrt(mu) if mu[0] > 0 else eh
    x = weight_gradient(g, h)
    along = x @ e
    x -= np.outer(along, e)
    again = x @ e
    x -= np.outer(again, e)
    x /= -d
    x += np.outer(solve((along + again)[:, None]), e)
    return x


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


class Lane(ThreadPoolExecutor):
    """A helper lane: one worker thread, started by the first submit, that
    runs the submitted jobs one at a time in submission order.  Each job
    runs under the numpy error handling of the thread that submitted it
    (np.errstate is per thread), so it fails there as it would inline, and
    its Future gives its result, or raises its error, in whichever thread
    asks.  Leaving the with-block joins the thread, dropping queued jobs
    when an error leaves it."""

    def __init__(self):
        super().__init__(max_workers=1)

    def submit(self, fn, /, *args) -> Future:
        return super().submit(_under_errstate, np.geterr(), fn, *args)

    def __exit__(self, exc_type, exc, tb):
        self.shutdown(cancel_futures=exc_type is not None)
        return False


def _under_errstate(errstate, fn, *args):
    with np.errstate(**errstate):
        return fn(*args)


def open_lane(wide: bool) -> Lane | None:
    """A Lane where a helper thread pays -- wide is true and two or more
    CPUs are usable -- else None."""
    return Lane() if wide and _usable_cpus() >= 2 else None


class _Done:
    """fn(*args), run in this thread, read like a Lane job's Future:
    result() returns its value or raises its error.  A Future would build
    a lock per job, which the inline solves of a narrow net pay per layer
    and step (about 5 % of desk-compare's compare_curvatures)."""

    __slots__ = ("value", "error")

    def __init__(self, fn, *args):
        try:
            self.value, self.error = fn(*args), None
        except Exception as exc:
            self.value, self.error = None, exc

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value


def _solve_layer(hb, h, g, gb, gram, damping):
    """One layer's job: d_W = _kron_inverse(g, h, ...), already negated, and
    d_b = -Q ((Q^T g_b) / damped), from sym_eig(hb) = Q diag(lam) Q^T, the
    layer's damping(hb, h, lam) -- its damped bias eigenvalues and
    _kron_inverse's b and d -- and gram(), which gives _gram_eig of h (or
    raises its error), read after the damping.  Only the two directions
    outlive the call; a finite but huge gradient can still overflow in the
    solve, so they are checked too."""
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(gb))):
        raise NumericalBreakdownError("gradient is not finite")
    lam, q = sym_eig(hb)
    damped_bias, b, d = damping(hb, h, lam)
    _check_positive(damped_bias)
    eh, factors = gram()
    d_w = _kron_inverse(g, h, factors, q, b, d, eh)
    d_b = -(q @ ((q.T @ gb) / damped_bias))
    if not (np.all(np.isfinite(d_w)) and np.all(np.isfinite(d_b))):
        raise NumericalBreakdownError("direction is not finite")
    return d_w, d_b


def _solve_layers(
    hbs: list[np.ndarray],
    grads: LayerGradients,
    damping,
    one_rank: bool = False,
    lane: Lane | None = None,
    grams: list[Future] | None = None,
) -> NewtonDirection:
    """_solve_layer for every layer, each layer one independent job, on the
    bias blocks hbs and the per-instance bias gradients
    grads.bias_per_instance, whose weight gradient's other factor is the
    layer's input batch h = grads.inputs; one_rank takes the input factor to
    be the row E[h] = h.mean(axis=0) instead of h.

    lane is the run's Lane, and grams the Futures of _gram_eig(h, one_rank)
    it was given for each layer's h.  Without a lane the call opens one for
    itself when the widest hb is at least _OVERLAP_MIN_WIDTH wide (see
    open_lane), and without grams it submits them, the widest layer's
    first.  On a lane, every other layer's job is queued behind the Grams,
    in layer order, while this thread factors the widest hb, waits for that
    layer's Gram alone and solves the widest layer.  With no lane every job
    runs inline, factoring its Gram where it reads it.  Results and errors
    are taken in layer order, so an error always names the lowest failing
    layer, with its inline message (a FloatingPointError under
    np.errstate(all="raise") too).
    """
    if len(hbs) != len(grads.grad_bias):
        raise DimensionError("curvature/gradient layer counts differ")
    widest = max(range(len(hbs)), key=lambda t: hbs[t].shape[0], default=0)
    if lane is None:
        wide = bool(hbs) and hbs[widest].shape[0] >= _OVERLAP_MIN_WIDTH
        own = open_lane(wide)
        if own is not None:
            with own:
                return _solve_layers(hbs, grads, damping, one_rank, own)
    layers = list(zip(hbs, grads.inputs, grads.bias_per_instance, grads.grad_bias))
    if lane is None:
        results = [
            _Done(_solve_layer, hb, h, g, gb, partial(_gram_eig, h, one_rank), damping)
            for hb, h, g, gb in layers
        ]
    else:
        if grams is None:
            grams = [None] * len(layers)
            for t in sorted(range(len(layers)), key=lambda t: t != widest):
                grams[t] = lane.submit(_gram_eig, grads.inputs[t], one_rank)
        results = [
            None if t == widest else lane.submit(_solve_layer, *layer, grams[t].result, damping)
            for t, layer in enumerate(layers)
        ]
        results[widest] = _Done(_solve_layer, *layers[widest], grams[widest].result, damping)
    directions = []
    for t, result in enumerate(results, start=1):
        try:
            directions.append(result.result())
        except (NumericalBreakdownError, FloatingPointError) as exc:
            raise type(exc)(f"layer {t}: {exc}") from exc
    return NewtonDirection([d_w for d_w, _ in directions], [d_b for _, d_b in directions])


def ea_cg_direction(
    hbs: list[np.ndarray],
    grads: LayerGradients,
    cfg: SolverConfig,
    lane: Lane | None = None,
    grams: list[Future] | None = None,
) -> NewtonDirection:
    """Per-layer damped Newton directions, each layer's system solved exactly.

    hbs are the layers' bias blocks, and the weight blocks' other factor
    is read from grads.inputs.  Each layer is factored once, by two sym_eig
    calls.  eigh(hb) = Q diag(lam) Q^T solves the bias system directly,
    d_b = -Q ((Q^T g_b) / ((1-alpha) lam + alpha)).  Together with the
    eigendecomposition of the Gram matrix of the input factor F
    (cfg.hvp_mode's batch h, or the row E[h]) it gives the exact inverse of
    the weight system (1-alpha)(hb kron F^T F / r) + alpha I, _kron_inverse
    with b = (1-alpha) lam and d = alpha, which gives d_W for the mean
    weight gradient g^T h / r.  This is the solve that conjugate gradient,
    preconditioned by this exact inverse, returns after one iteration.  A damped block with an
    eigenvalue <= 0 raises NumericalBreakdownError naming its layer.

    Wide nets solve their layers on two threads, on the run's lane and its
    Grams when given (see _solve_layers).
    """
    alpha = cfg.alpha

    def damping(hb, h, lam):
        b = (1 - alpha) * lam
        return b + alpha, b, alpha

    return _solve_layers(hbs, grads, damping, cfg.hvp_mode is HvpMode.EA_ONE_RANK, lane, grams)


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
    hbs: list[np.ndarray],
    grads: LayerGradients,
    cfg: SolverConfig,
    lane: Lane | None = None,
    grams: list[Future] | None = None,
) -> NewtonDirection:
    """Kronecker-factored inverse directions for cfg's alpha and pi_policy.

    Per layer, d_W = -G^{-1} E[grad_W] H^{-1} with damped factors
    H = F^T F / r + c I, c = pi sqrt(alpha), and G = Hb + (sqrt(alpha)/pi) I;
    biases use d_b = -(Hb + sqrt(alpha) I)^{-1} E[grad_b].  Hb is the
    layer's block in hbs, and F is its r x n input batch h = grads.inputs,
    so F^T F / r = E[h h^T].

    Each layer is factored as in ea_cg_direction, by _solve_layer:
    eigh(Hb) = Q diag(lam) Q^T makes the G and bias solves scalings by
    1/(lam + shift), and with the Gram matrix's eigenvalues mu, G^{-1} X H^{-1}
    divides X's (lam_i, mu_j) eigencomponent by (lam_i + sqrt(alpha)/pi)
    (mu_j + c): _kron_inverse with b = lam + sqrt(alpha)/pi and d = b c, which
    forms no n x n matrix.  A G or bias block with an eigenvalue <= 0
    raises NumericalBreakdownError naming its layer.  lane and grams are
    ea_cg_direction's.
    """
    sqrt_a = np.sqrt(cfg.alpha)

    def damping(hb, h, lam):
        pi = 1.0
        if cfg.pi_policy is PiPolicy.TRACE_NORM:
            tr_h = np.vdot(h, h) / h.shape[0] / h.shape[1]
            tr_g = np.trace(hb) / lam.size
            pi = np.sqrt(tr_h / tr_g) if tr_h > 0 and tr_g > 0 else 1.0
        damped_g = lam + sqrt_a / pi
        if damped_g.min() <= 0:
            raise NumericalBreakdownError(
                f"damped factor is singular (min eigenvalue {damped_g.min():.3e})"
            )
        return lam + sqrt_a, damped_g, pi * sqrt_a * damped_g

    return _solve_layers(hbs, grads, damping, False, lane, grams)
