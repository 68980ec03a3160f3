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
independent job, _solve_layer.  A narrow net's step is bound by per-call
overhead, not arithmetic, so a solve handed no lane (and no Grams) first
runs every layer at once in _solve_stacked: one finiteness check of all
its inputs, one linalg.sym_eigs call that factors every bias block and
every input Gram by one eigh per distinct size, and one finiteness check
of all its directions, with each layer's arithmetic unchanged, so the
directions are bitwise the jobs'.  (A list holding a matrix that is not
exactly symmetric, sym_eigs factors one matrix at a time, through
check_symmetric's tolerance path.)  On any anomaly -- a non-finite input
or direction, a matrix sym_eig rejects, a damped eigenvalue <= 0, a
singular KFI factor, a FloatingPointError or a LinAlgError -- the step
reruns as the per-layer jobs below, so every error keeps its text and
layer.  Given a Lane -- one helper thread that runs
the jobs submitted to it in order, each a Job run under the numpy error
state of the thread that submitted it -- a solver queues every layer's job
but the widest on it and solves the widest on the calling thread; given
none, it runs every job inline.  Each queued Job is claimed once, by the
first thread to reach it: the lane's thread, or a thread that asks for its
result before the lane gets to it and so runs it itself, as a
work-stealing scheduler's idle worker does (Blumofe & Leiserson, J. ACM
1999).  So no thread waits on a job queued behind another.  numpy releases
the interpreter lock inside LAPACK and BLAS, so the threads overlap, on
disjoint halves of the CPUs while the lane is open (see Lane), and a
job makes the same calls on the same arrays on either thread, so the
directions are bit-identical to solving inline.  The Lane is the package's
one thread primitive; trainer.Optimizer decides where one opens and what
runs on it.
"""

from __future__ import annotations

import enum
import os
import queue
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, NumericalBreakdownError, check_range
from .fcnn import LayerGradients, weight_gradient
from .linalg import EigenDecomposition, sym_eig, sym_eigs

# Entries from which _all_finite checks an array alone rather than copying it
# into one concatenation with the rest.
_FINITE_ALONE = 4096


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


def _input_factor(h: np.ndarray, one_rank: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """(eh, F): the row eh = E[h] = h.mean(axis=0) and F = eh as a 1 x n_in
    matrix under one_rank, otherwise (None, h)."""
    eh = h.mean(axis=0) if one_rank else None
    return eh, (h if eh is None else eh[None, :])


def _gram(f: np.ndarray) -> np.ndarray:
    """The m x n_in input factor f's Gram matrix on its smaller side: F^T F / m
    when n_in <= m, otherwise F F^T / m.  numpy forms both products exactly
    symmetric, so the triangle eigh reads is the whole."""
    m, n_in = f.shape
    return f.T @ f / m if n_in <= m else f @ f.T / m


def _gram_eig(
    h: np.ndarray, one_rank: bool = False
) -> tuple[np.ndarray | None, EigenDecomposition]:
    """The input factor's row eh = E[h] under one_rank (None otherwise) and
    sym_eig of the _gram of the input factor F -- the r x n_in batch h, or
    the row eh (m = 1)."""
    eh, f = _input_factor(h, one_rank)
    if not np.all(np.isfinite(f)):
        raise NumericalBreakdownError("input factor is not finite")
    return eh, sym_eig(_gram(f))


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
    per layer and step.  Lane.submit makes one with queued set: it runs
    once, in the first thread to claim it -- the lane's thread on reaching
    it, or a thread that asks for its result first -- under the numpy error
    state of the submitting thread (np.errstate is per thread), so it fails
    there as it would inline."""

    __slots__ = ("_call", "_claim", "_done", "_value", "_error")

    def __init__(self, fn, *args, queued: bool = False):
        self._value = self._error = self._claim = None
        if queued:
            self._call = fn, args, np.geterr()
            self._claim, self._done = threading.Lock(), threading.Event()
        else:
            try:
                self._value = fn(*args)
            except Exception as exc:
                self._error = exc

    def _run(self) -> None:
        """Run the queued call if this thread claims it, and mark it done;
        the call is dropped, so its arguments are freed once it has run."""
        if not self._claim.acquire(blocking=False):
            return
        (fn, args, errstate), self._call = self._call, None
        try:
            with np.errstate(**errstate):
                self._value = fn(*args)
        except BaseException as exc:  # raised by result(); a waiter must not hang
            self._error = exc
        self._done.set()

    def result(self):
        if self._claim is not None:
            self._run()
            self._done.wait()
        if self._error is not None:
            raise self._error
        return self._value


def _affinity_halves() -> tuple[int, set[int], list[int], list[int]] | None:
    """The calling thread's native id, its CPU affinity mask and the mask's
    two halves, the first the larger for an odd count; None where the mask
    holds fewer than 2 CPUs or cannot be read (no os.sched_getaffinity on
    this platform, or an OSError).  The id is what _set_affinity is given:
    on Linux sched_setaffinity acts on one thread, not the process."""
    try:
        tid = threading.get_native_id()
        cpus = sorted(os.sched_getaffinity(tid))
    except (AttributeError, OSError):
        return None
    cut = (len(cpus) + 1) // 2
    return (tid, set(cpus), cpus[:cut], cpus[cut:]) if len(cpus) >= 2 else None


def _set_affinity(tid: int, cpus) -> bool:
    """os.sched_setaffinity(tid, cpus); False where it is missing or raises
    OSError (EPERM under a seccomp filter, say), which changes nothing."""
    try:
        os.sched_setaffinity(tid, cpus)
    except (AttributeError, OSError):
        return False
    return True


class Lane:
    """A helper lane: one worker thread, started by the first submit, that
    runs the submitted jobs in submission order, each a Job that the
    thread asking for its result runs itself if the lane has not claimed
    it.  Leaving the with-block joins the thread once the queue is empty,
    and empties the queue first when an error leaves it; a job dropped so
    still runs in the thread that asks for its result.

    The two threads run on disjoint CPUs while the lane is open, so the
    scheduler cannot queue one behind the other on one CPU while another
    idles: the submit that starts the worker splits its own thread's
    affinity mask in two (_affinity_halves), the worker pins itself to the
    second half and the submitting thread keeps the first.  Threads the
    submitting thread starts meanwhile inherit its half.  Leaving the
    with-block restores that thread's mask once the worker is joined, on
    errors too.  A mask of fewer than 2 CPUs, or one that cannot be read
    or set, pins nothing."""

    def __init__(self):
        self._queue: queue.SimpleQueue[Job | None] = queue.SimpleQueue()
        self._thread = None
        self._restore = None  # (native id, mask) of the thread pinned to a half

    def __enter__(self) -> Lane:
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._thread is not None:
            try:
                if exc_type is not None:
                    try:
                        while True:
                            self._queue.get_nowait()
                    except queue.Empty:
                        pass
                self._queue.put(None)
                self._thread.join()
            finally:
                if self._restore is not None:
                    _set_affinity(*self._restore)
                    self._restore = None
        return False

    def submit(self, fn, /, *args) -> Job:
        job = Job(fn, *args, queued=True)
        self._queue.put(job)
        if self._thread is None:
            # the worker starts on the whole mask, so it keeps it if its own pin fails
            halves = _affinity_halves()
            self._thread = threading.Thread(
                target=self._work, args=(halves and halves[3],), daemon=True
            )
            self._thread.start()
            if halves is not None:
                tid, mask, kept, _ = halves
                if _set_affinity(tid, kept):
                    self._restore = tid, mask
        return job

    def _work(self, cpus: list[int] | None) -> None:
        if cpus:
            _set_affinity(threading.get_native_id(), cpus)
        while (job := self._queue.get()) is not None:
            job._run()


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


def _all_finite(arrays: list[np.ndarray]) -> bool:
    """Whether every entry of every array is finite: the arrays of fewer than
    _FINITE_ALONE entries by one check over their concatenation, each
    larger one alone, which copies nothing."""
    small = [a.ravel() for a in arrays if a.size < _FINITE_ALONE]
    return all(np.isfinite(a).all() for a in arrays if a.size >= _FINITE_ALONE) and (
        not small or bool(np.isfinite(np.concatenate(small)).all())
    )


def _solve_stacked(hbs, grads: LayerGradients, damping, one_rank: bool) -> NewtonDirection | None:
    """Every layer's _solve_layer directions, inline, with the per-call work
    batched: one finiteness check of every gradient and input factor, one
    sym_eigs call over every hb and every input Gram (one eigh per distinct
    size), and one finiteness check of every direction.  Each layer's
    arithmetic is _solve_layer's on the same values, so the directions are
    bitwise its.  None where an input or a direction is not finite; a
    failing matrix check, damping or solve raises its error, unprefixed."""
    inputs = grads.inputs
    factors = [_input_factor(h, one_rank) for h in inputs]
    if not _all_finite([*grads.bias_per_instance, *grads.grad_bias, *(f for _, f in factors)]):
        return None
    k = len(hbs)
    eigs = sym_eigs([*hbs, *(_gram(f) for _, f in factors)])
    d_ws, d_bs = [], []
    for t in range(k):
        lam, q = eigs[t]
        damped_bias, b, d = damping(hbs[t], inputs[t], lam)
        _check_positive(damped_bias)
        g, eh = grads.bias_per_instance[t], factors[t][0]
        d_ws.append(_kron_inverse(g, inputs[t], eigs[k + t], q, b, d, eh))
        d_bs.append(-(q @ ((q.T @ grads.grad_bias[t]) / damped_bias)))
    if not _all_finite([*d_ws, *d_bs]):
        return None
    return NewtonDirection(d_ws, d_bs)


def _solve_layers(
    hbs: list[np.ndarray],
    grads: LayerGradients,
    damping,
    grams: list | None,
    lane: Lane | None = None,
    one_rank: bool = False,
) -> NewtonDirection:
    """_solve_layer for every layer, each layer one independent job, on the
    bias blocks hbs and the per-instance bias gradients
    grads.bias_per_instance, whose weight gradient's other factor is the
    layer's input batch h = grads.inputs; grams holds one zero-argument
    callable per layer that gives _gram_eig of its input factor, or is
    None, when each layer factors its own (the row E[h] under one_rank).

    With no lane and no grams, _solve_stacked solves every layer first.
    Where it finds a non-finite input or direction, or raises (a matrix
    sym_eig rejects, a damped eigenvalue <= 0, a singular factor, a
    FloatingPointError or a LinAlgError), the jobs below rerun the step
    layer by layer, so every error keeps its text and names its layer.
    With no lane every job runs inline.  Given a lane, every layer's job but
    the widest is queued on it, in layer order, while this thread factors
    the widest hb and solves that layer; a job that the lane has not started
    when it is asked for (it may still be busy with other work) runs here.
    Results and errors are taken in layer order, so an error always names
    the lowest failing layer, with its inline message (a FloatingPointError
    under np.errstate(all="raise") too).
    """
    if not len(hbs) == len(grads.grad_bias) == len(grams if grams is not None else hbs):
        raise DimensionError("curvature/gradient/Gram layer counts differ")
    if grams is None:
        if lane is None:
            try:
                direction = _solve_stacked(hbs, grads, damping, one_rank)
            except (ArithmeticError, ValueError):  # LinAlgError is a ValueError
                direction = None
            if direction is not None:
                return direction
        grams = [partial(_gram_eig, h, one_rank) for h in grads.inputs]
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
    is read from grads.inputs.  Each layer is factored once: its hb and its
    input Gram, by sym_eig or, with no lane, by the one sym_eigs call of
    the step.  eigh(hb) = Q diag(lam) Q^T solves the bias system directly,
    d_b = -Q ((Q^T g_b) / ((1-alpha) lam + alpha)).  Together with the
    eigendecomposition of the Gram matrix of the input factor F
    (cfg.hvp_mode's batch h, or the row E[h]) it gives the exact inverse of
    the weight system (1-alpha)(hb kron F^T F / r) + alpha I, _kron_inverse
    with b = (1-alpha) lam and d = alpha, which gives d_W for the mean
    weight gradient g^T h / r.  This is the solve that conjugate gradient,
    preconditioned by this exact inverse, returns after one iteration.  A damped block with an
    eigenvalue <= 0 raises NumericalBreakdownError naming its layer.

    Given a lane, the layers are solved on it and on this thread; given
    neither a lane nor grams, all at once by _solve_stacked (see
    _solve_layers).  grams holds one zero-argument callable per layer that
    gives _gram_eig of its input factor (trainer.Optimizer hands in its
    lane's Jobs' results); without it each layer's job factors its own.
    """
    alpha = cfg.alpha

    def damping(hb, h, lam):
        b = (1 - alpha) * lam
        return b + alpha, b, alpha

    one_rank = cfg.hvp_mode is HvpMode.EA_ONE_RANK
    return _solve_layers(hbs, grads, damping, grams, lane, one_rank)


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

    return _solve_layers(hbs, grads, damping, grams, lane)
