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
independent job, _solve_layer.  Given a Lane -- one helper thread that runs
the jobs submitted to it in order, each a Job run under the numpy error
state of the thread that submitted it -- a solver queues every layer's job
but the widest on it and solves the widest on the calling thread; given
none, it runs every job inline.  A thread that asks a Job for its result
runs the job itself if the lane has not started it, as a work-stealing
scheduler's idle worker does (Blumofe & Leiserson, J. ACM 1999), so no
thread waits on a job queued behind another.  numpy releases the
interpreter lock inside LAPACK and BLAS, so the threads overlap, and a job
makes the same calls on the same arrays on either thread, so the
directions are bit-identical to solving inline.  The Lane is the package's
one thread primitive; trainer.Optimizer decides where one opens and what
runs on it.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, NumericalBreakdownError, check_range
from .fcnn import LayerGradients, weight_gradient
from .linalg import EigenDecomposition, sym_eig

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


class Job:
    """One job, fn(*args), whose result() returns its value or raises its
    error in the thread that asks.  Job(fn, *args) runs it at once, in this
    thread, and builds no lock: the inline solves of a narrow net make one
    per layer and step.  Lane.submit makes one with lane set, queued on the
    lane under the numpy error state of the submitting thread (np.errstate
    is per thread); whichever thread runs it runs it under that state, so
    it fails there as it would inline.  Its result() runs it in the asking
    thread if the lane has not started it, or waits while the lane runs it."""

    __slots__ = ("_lane", "_call", "_value", "_error")

    def __init__(self, fn, *args, lane: Lane | None = None):
        self._lane = lane  # None once the job has run
        self._value = self._error = None
        if lane is None:
            self._call = None
            try:
                self._value = fn(*args)
            except Exception as exc:
                self._error = exc
        else:
            self._call = fn, args, np.geterr()  # None once a thread takes it

    def _take(self):
        """The job's call, for the thread that takes it: the first to ask,
        under the lane's lock; None for every later one."""
        call, self._call = self._call, None
        return call

    def _finish(self, lane: Lane, call) -> None:
        """Run the call this thread took and tell the threads that wait."""
        fn, args, errstate = call
        try:
            with np.errstate(**errstate):
                self._value = fn(*args)
        except BaseException as exc:  # raised by result(); a waiter must not hang
            self._error = exc
        with lane._changed:
            self._lane = None
            lane._changed.notify_all()

    def result(self):
        lane = self._lane
        if lane is not None:
            with lane._changed:
                call = self._take()
                while call is None and self._lane is not None:
                    lane._changed.wait()
            if call is not None:
                self._finish(lane, call)
        if self._error is not None:
            raise self._error
        return self._value


class Lane:
    """A helper lane: one worker thread, started by the first submit, that
    runs the submitted jobs in submission order, each a Job that the
    thread asking for its result runs itself if the lane has not started
    it.  Leaving the with-block joins the thread once the queue is empty,
    and empties the queue first when an error leaves it."""

    def __init__(self):
        self._changed = threading.Condition(threading.Lock())
        self._queue: deque[Job] = deque()
        self._closed = False
        self._thread = None

    def __enter__(self) -> Lane:
        return self

    def __exit__(self, exc_type, exc, tb):
        with self._changed:
            if exc_type is not None:
                self._queue.clear()
            self._closed = True
            self._changed.notify_all()
        if self._thread is not None:
            self._thread.join()
        return False

    def submit(self, fn, /, *args) -> Job:
        job = Job(fn, *args, lane=self)
        with self._changed:
            self._queue.append(job)
            self._changed.notify_all()
        if self._thread is None:
            self._thread = threading.Thread(target=self._work, daemon=True)
            self._thread.start()
        return job

    def _work(self) -> None:
        changed, queue = self._changed, self._queue
        while True:
            with changed:
                while not queue and not self._closed:
                    changed.wait()
                if not queue:
                    return
                job = queue.popleft()
                call = job._take()
            if call is not None:
                job._finish(self, call)


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
    grams: list,
    lane: Lane | None = None,
) -> NewtonDirection:
    """_solve_layer for every layer, each layer one independent job, on the
    bias blocks hbs and the per-instance bias gradients
    grads.bias_per_instance, whose weight gradient's other factor is the
    layer's input batch h = grads.inputs; grams holds one zero-argument
    callable per layer that gives _gram_eig of its input factor.

    With no lane every job runs inline.  Given a lane, every layer's job but
    the widest is queued on it, in layer order, while this thread factors
    the widest hb and solves that layer; a job that the lane has not started
    when it is asked for (it may still be busy with other work) runs here.
    Results and errors are taken in layer order, so an error always names
    the lowest failing layer, with its inline message (a FloatingPointError
    under np.errstate(all="raise") too).
    """
    if not len(hbs) == len(grads.grad_bias) == len(grams):
        raise DimensionError("curvature/gradient/Gram layer counts differ")
    layers = list(zip(hbs, grads.inputs, grads.bias_per_instance, grads.grad_bias, grams))
    if lane is None:
        results = [Job(_solve_layer, *layer, damping) for layer in layers]
    else:
        widest = max(range(len(hbs)), key=lambda t: hbs[t].shape[0])
        results = [
            None if t == widest else lane.submit(_solve_layer, *layer, damping)
            for t, layer in enumerate(layers)
        ]
        results[widest] = Job(_solve_layer, *layers[widest], damping)
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
    grams: list | None = None,
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

    Given a lane, the layers are solved on it and on this thread (see
    _solve_layers).  grams holds one zero-argument callable per layer that
    gives _gram_eig of its input factor (trainer.Optimizer hands in its
    lane's Jobs' results); without it each layer's job factors its own.
    """
    alpha = cfg.alpha

    def damping(hb, h, lam):
        b = (1 - alpha) * lam
        return b + alpha, b, alpha

    if grams is None:
        one_rank = cfg.hvp_mode is HvpMode.EA_ONE_RANK
        grams = [partial(_gram_eig, h, one_rank) for h in grads.inputs]
    return _solve_layers(hbs, grads, damping, grams, lane)


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
    grams: list | None = None,
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

    if grams is None:
        grams = [partial(_gram_eig, h) for h in grads.inputs]
    return _solve_layers(hbs, grads, damping, grams, lane)
