"""Mini-batch training loop for first- and second-order optimizers.

Determinism contract: given the same seed, shuffling, batch order and all
reductions are fixed, so two runs produce bit-identical reports.  The
epoch shuffles come from a splitmix64 counter-based generator keyed on
(seed, epoch) rather than a stateful global RNG.

Evaluation: mean_loss and accuracy score their rows in blocks of
EVAL_ROWS, one forward pass each, which bounds the activations an
evaluation keeps alive.

Threads: each run's Optimizer is the only code that opens a helper lane
(solvers.Lane, one worker thread) and decides what runs on it.  It opens
one, on entering its with-block, where the usable CPUs hold both threads'
BLAS threads and the Newton step gate or the evaluation gate passes, and
each of three gates puts only its own kind of work on the lane.  The
Newton step gate passes where the widest matrix a Newton step factors --
a bias block, n_out wide, or an input Gram on its smaller side,
min(n_in, batch_size) wide (1 under ea_one_rank) -- is at least
_OVERLAP_MIN_WIDTH wide.  Then a step factors its input Grams on the
lane while the calling thread runs the batch pass and the curvature; the
solver, handed the lane and the Grams' results, then queues every
layer's solve but the widest's on it while the calling thread solves the
widest layer.  The SGD step gate opens no lane of its own: on the lane
the evaluation opened, and where numpy's own OpenBLAS runs the products,
it passes, per step and layer, where the layer's weight-gradient product
costs at least _SGD_SPLIT_MIN_MACS multiply-adds (see _splits).  Then
the step hands the first half of that layer's rows -- their weight
gradient, momentum and weights -- to the lane, and the calling thread
updates the other rows, the other layers and the biases before it takes
the lane's result.  A step in train has at most n rows, so wherever its
product passes, the evaluation, at least n times the weights' size,
passes its own gate.  The evaluation gate passes where one evaluation
costs at least EVAL_OVERLAP_MIN_MACS multiply-adds.  Then train scores
epoch e on the lane, from a copy of the parameters, while the calling
thread runs epoch e+1's steps, and the last epoch's row blocks alternate
between the two threads.  Each lane job is claimed once, by the first thread to reach it:
a thread that asks for a job the lane has not reached runs it itself, so
a step never waits on work queued behind the previous epoch's score, nor
the last epoch's calling thread on row blocks the lane has not reached.
Every lane job runs under the caller's numpy error state and makes the
same calls on the same values, whichever thread runs it, so the records
and the parameters are bit-identical to running inline; numpy releases
the interpreter lock inside BLAS and LAPACK, so the two threads overlap.
Narrow nets with cheap evaluations open no lane and start no thread, and
a narrow run with a costly evaluation steps inline.  A step taken
outside the Optimizer's with-block runs inline.
Five epochs of the paper-width EA-CG PCH-1 run (784-256-128-64-10, 1024
rows, batch 128, one BLAS thread, 2-vCPU host, seeds 3-8) wait on the
lane a median 0.2-0.8 ms per epoch's steps, where waiting for queued jobs
would cost each epoch from epoch 1 on 19-23 ms for the previous epoch's
score.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .curvature import CurvatureKind, ea_curvature
from .errors import ConfigError, TrainingDivergedError, check_range
from .fcnn import (
    BatchPass,
    Criterion,
    FcnnModel,
    LayerGradients,
    batch_pass,
    criterion_losses,
    forward,
    softmax,
    weight_gradient,
)
from .solvers import HvpMode, Job, Lane, SolverConfig, _gram_eig, ea_cg_direction, kfi_direction

# Rows per forward pass in mean_loss and accuracy.  At paper width a whole
# 1024-row training set keeps about 8 MB of activations alive, and on the
# helper thread, which glibc gives its own heap arena, that memory adds to
# the peak instead of being reused by the steps.
EVAL_ROWS = 128

# Multiply-adds in one evaluation (rows scored times weights) from which train
# scores on the run's lane.  The overlap pays only when evaluation runs
# mostly inside BLAS, which releases the interpreter lock; below this the
# helper's interpreter work stalls the steps.  SGD train() time, threaded
# against inline (one BLAS thread, 2-vCPU host, medians of 8 alternations):
# 64-32-10 on 400 rows (0.9M) +80 %, 64-128-10 on 1280 rows (12M) +15 %,
# 64-512-10 on 400 rows (15M) +1 %, 784-16-10 on 1280 rows (16M) -7 %,
# 64-1024-10 on 400 rows (30M) -16 %, 784-256-128-64-10 on 1280 rows
# (310M) -17 %.
EVAL_OVERLAP_MIN_MACS = 2**24

# Narrowest widest factored matrix -- a bias block, or an input Gram on its
# smaller side -- for which a Newton run's steps use a lane: handing a job to
# the lane and taking its result costs 0.01-0.07 ms, one eigh 1.5 ms at
# n = 128, 0.38 ms at n = 64 and 0.09 ms at n = 32 (numpy 2.4.6, one BLAS
# thread, 2-vCPU Xeon).  At paper width the lane factors the four input
# Grams while the batch pass (2.3-2.8 ms) and the curvature (1.8-2.0 ms)
# run on the calling thread, then solves layers 2-4 while the calling
# thread factors and solves layer 1; the direction takes 12-13 ms so
# against 20-21 ms inline.  Nets as narrow as the README's (blocks <= 32,
# Grams <= 64 wide) step inline, also where their evaluation opens a lane:
# two EA-CG PCH-1 epochs of that net on 8000 rows at batch 32 take
# 820-1184 ms so, against 1137-1639 ms with the steps on the lane.
_OVERLAP_MIN_WIDTH = 128

# Multiply-adds in one layer's weight-gradient product (a step's rows x n_out
# x n_in) from which an SGD step updates the first half of the layer's rows
# on the run's lane (see _splits).  The split pays once the lane is idle,
# but while it scores an epoch each step's half is queued behind the score
# and run on the calling thread, at the cost of handing it over.  SGD
# train() time, split against inline (10 epochs of 1024 blob rows at batch
# 128, one BLAS thread, 2-vCPU host, medians of 16 alternations): 64-512-10
# (4.2M) -1 %, 784-128-10 (12.8M) -6 %, 784-192-10 (19.3M) +10 %,
# 784-256-128-64-10 (25.7M) +6 %.
_SGD_SPLIT_MIN_MACS = 2**24


def _splits(rows: int, w: np.ndarray) -> bool:
    """Whether an SGD step on rows rows hands half of weight matrix w's rows
    to the lane: its product passes _SGD_SPLIT_MIN_MACS and each half has
    at least two rows.  Both halves' products then run OpenBLAS's blocked
    GEMM kernel, which sums each entry over the batch in the same order as
    the whole product; a one-row product goes to GEMV, which may not."""
    return rows * w.size >= _SGD_SPLIT_MIN_MACS and w.shape[0] >= 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@cache
def _openblas_get_num_threads():
    """OpenBLAS's get_num_threads from the library numpy's wheel ships, or
    None where there is no such library or symbol."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn
    return None


def _blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs each call on, or None
    where it cannot be read."""
    fn = _openblas_get_num_threads()
    return None if fn is None else fn()


# Largest run seed: the shuffle keys on the seed's low 64 bits, so seeds s
# and s + 2**64 would share a batch order but not a model.
MAX_SEED = 2**64 - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; deterministic 64-bit mixing."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def shuffled_indices(n: int, seed: int, epoch: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n), keyed on (seed, epoch): swap i
    takes j = state % (i + 1) for state = splitmix64(previous state).  The
    swaps run on a Python list, which is turned into an int64 array once."""
    state = splitmix64((seed & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(epoch))
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        state = splitmix64(state)
        j = state % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=np.int64)


def epoch_batches(n: int, batch_size: int, seed: int, epoch: int) -> Iterator[np.ndarray]:
    """The mini-batches of one epoch over range(n), in the order train steps
    on them: shuffled_indices(n, seed, epoch) cut into runs of batch_size,
    the last one shorter when batch_size does not divide n."""
    order = shuffled_indices(n, seed, epoch)
    for lo in range(0, n, batch_size):
        yield order[lo : lo + batch_size]


class SolverChoice(enum.Enum):
    EA_CG = "ea_cg"
    KFI = "kfi"


@dataclass(frozen=True)
class SecondOrderSpec:
    kind: CurvatureKind = CurvatureKind.PCH
    gamma: float = -1.0
    solver: SolverChoice = SolverChoice.EA_CG
    solver_cfg: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        pch_ok = self.kind is not CurvatureKind.PCH or self.gamma in (-1.0, 0.0)
        check_range("gamma", self.gamma, pch_ok, "-1 or 0 for pch curvature")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    second_order: SecondOrderSpec | None = None  # None selects SGD-momentum

    def __post_init__(self):
        check_range("learning_rate", self.learning_rate, self.learning_rate >= 0, ">= 0")
        check_range("batch_size", self.batch_size, self.batch_size >= 1, ">= 1")
        check_range(
            "epochs", self.epochs, 1 <= self.epochs <= sys.maxsize, f"an integer in [1, {sys.maxsize}]"
        )
        check_range("seed", self.seed, 0 <= self.seed <= MAX_SEED, "an integer in [0, 2**64 - 1]")
        check_range("momentum", self.momentum, 0.0 <= self.momentum < 1.0, "a value in [0, 1)")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    test_accuracy: float
    wall_seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord]
    model: FcnnModel

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss

    @property
    def final_accuracy(self) -> float:
        return self.epochs[-1].test_accuracy


def _row_blocks(n: int) -> list[slice]:
    """Slices of EVAL_ROWS rows covering range(n); one empty slice when n is
    0, so there is always a block to score and to join."""
    return [slice(lo, lo + EVAL_ROWS) for lo in range(0, max(n, 1), EVAL_ROWS)]


def _score_rows(score, n: int, lane: Lane | None) -> list:
    """[score(rows) for rows in _row_blocks(n)]; with a lane, the lane
    is given every other block (the second, the fourth, ...) while this
    thread scores the rest, and this thread scores any of the lane's that
    the lane has not started when it asks for them.  Results and errors
    are taken in block order."""
    blocks = _row_blocks(n)
    theirs = {i: lane.submit(score, blocks[i]) for i in range(1, len(blocks), 2)} if lane else {}
    parts = [theirs[i] if i in theirs else Job(score, rows) for i, rows in enumerate(blocks)]
    return [part.result() for part in parts]


def mean_loss(
    model: FcnnModel, criterion: Criterion, x: np.ndarray, y: np.ndarray, lane: Lane | None = None
) -> float:
    """The mean criterion loss over the rows of x and y (one-hot), scored
    in row blocks, shared with lane when one is given (see _score_rows)."""

    def losses(rows: slice) -> np.ndarray:
        return criterion_losses(criterion, forward(model, x[rows]).h[-1], y[rows])

    return float(np.concatenate(_score_rows(losses, x.shape[0], lane)).mean())


def accuracy(
    model: FcnnModel, x: np.ndarray, y_index: np.ndarray, lane: Lane | None = None
) -> float:
    """The share of rows of x whose predicted class is y_index's, scored as
    in mean_loss."""
    if x.shape[0] == 0:
        return 0.0

    def predict(rows: slice) -> np.ndarray:
        return np.argmax(softmax(forward(model, x[rows]).h[-1]), axis=1)

    return float(np.mean(np.concatenate(_score_rows(predict, x.shape[0], lane)) == y_index))


class Optimizer:
    """One run's optimizer: cfg's update rule, applied to the model's own
    weight and bias arrays, and the state it carries between steps: SGD's
    momentum buffers, zero at first, and none (empty lists) for Newton.

    It also owns the run's helper lane, lane: a solvers.Lane between
    __enter__ and __exit__ where one pays -- a Newton run whose steps
    factor a matrix at least _OVERLAP_MIN_WIDTH wide (see the module
    docstring), or a run that scores on it (train's evaluation gate
    passed), on at least 2 x _blas_threads() usable CPUs (2 where the
    BLAS thread count cannot be read) -- and None elsewhere and outside
    the with-block, where every step runs inline and starts no thread.
    The steps use the lane only where their own gate passed: SGD steps
    split on a lane the scoring opened, where numpy's own OpenBLAS was
    found.  Leaving the with-block joins the lane's thread."""

    def __init__(self, model: FcnnModel, cfg: TrainConfig, scores: bool = False):
        self.model, self.cfg = model, cfg
        spec = cfg.second_order
        sgd = spec is None
        self.velocity_w = [np.zeros_like(w) for w in model.weights] if sgd else []
        self.velocity_b = [np.zeros_like(b) for b in model.biases] if sgd else []
        # the Newton solver, and the input factor it factors: E[h] under EA-CG ea_one_rank
        self._solve, self._one_rank = None, False
        if sgd:
            # steps split on a lane the scoring opens (per step, see _splits),
            # only where numpy's own OpenBLAS, whose kernels were checked, runs them
            self._steps_gate = _blas_threads() is not None
            opens = scores
        else:
            ea_cg = spec.solver is SolverChoice.EA_CG
            self._solve = ea_cg_direction if ea_cg else kfi_direction
            self._one_rank = ea_cg and spec.solver_cfg.hvp_mode is HvpMode.EA_ONE_RANK
            # the widest matrix a step factors: a bias block, or an input Gram
            # on its smaller side (1 x 1 for the row E[h])
            gram = 1 if self._one_rank else min(max(model.widths[:-1]), cfg.batch_size)
            self._steps_gate = max(*model.widths[1:], gram) >= _OVERLAP_MIN_WIDTH
            opens = self._steps_gate or scores
        # each thread's BLAS calls run on _blas_threads() threads of their own
        self._opens = opens and _usable_cpus() >= 2 * (_blas_threads() or 1)
        self.lane = None  # opened by __enter__

    def __enter__(self) -> "Optimizer":
        if self._opens:
            self.lane = Lane()
        return self

    def __exit__(self, *exc) -> None:
        lane, self.lane = self.lane, None
        if lane is not None:
            lane.__exit__(*exc)

    def step(
        self, grads: LayerGradients, hbs: list[np.ndarray] | None, grams: list | None = None
    ) -> None:
        """One step on a batch's gradients grads and, for a second-order
        optimizer, its bias blocks hbs of cfg's kind (SGD takes None).  The
        second-order step passes both with spec.solver_cfg, the lane if the
        step gate passed, and grams -- the results of the lane's Jobs of
        the input Grams of grads.inputs, as run submits them, or None -- to
        spec.solver's solver and steps theta += lr * d, scaling each weight
        direction d by lr in place (the solvers return it negated).  SGD
        updates the momentum buffers v <- momentum v - lr g and steps
        theta += v one layer at a time (_sgd_rows): it forms the layer's
        weight gradient g by weight_gradient, scales it by lr in place and
        drops it before the next layer, so it holds at most one n_out x
        n_in array beyond the model and the buffers.  Where the SGD step
        gate passed, the first half of the rows of each layer that _splits
        admits at this batch's size is handed to the lane first, and this
        thread updates the rest; the two halves of such a gradient are at
        most one array between them.  The step does not return or raise
        while the lane's share is unfinished; it raises this thread's error
        if its own share failed, and otherwise the lane's."""
        model, cfg = self.model, self.cfg
        lr = cfg.learning_rate
        spec = cfg.second_order
        lane = self.lane if self._steps_gate else None
        if spec is None:
            # the first half of the rows of each layer whose product passes the
            # gate, handed to the lane before this thread starts on the rest
            rows = grads.inputs[0].shape[0]
            halves = {
                t: w.shape[0] // 2
                for t, w in enumerate(model.weights)
                if lane is not None and _splits(rows, w)
            }
            lower = None
            if halves:
                firsts = [(t, slice(half)) for t, half in halves.items()]
                lower = lane.submit(self._sgd_rows, grads, firsts)
            try:
                for t in range(model.num_layers):
                    self._sgd_rows(grads, [(t, slice(halves.get(t, 0), None))])
                    self.velocity_b[t] *= cfg.momentum
                    self.velocity_b[t] -= lr * grads.grad_bias[t]
                    model.biases[t] += self.velocity_b[t]
            except BaseException:
                if lower is not None:
                    with contextlib.suppress(BaseException):
                        lower.result()  # this thread's error wins, once the lane's share is done
                raise
            if lower is not None:
                lower.result()
            return
        direction = self._solve(hbs, grads, spec.solver_cfg, lane, grams)
        for t in range(model.num_layers):
            direction.d_weight[t] *= lr
            model.weights[t] += direction.d_weight[t]
            model.biases[t] += lr * direction.d_bias[t]

    def _sgd_rows(self, grads: LayerGradients, layers: list[tuple[int, slice]]) -> None:
        """SGD's weight update on the rows of each (t, rows) in layers, in
        order: layer t's weight gradient on those rows, g =
        weight_gradient(G[:, rows], h), scaled by lr in place, then v <-
        momentum v - lr g and W += v on the same rows.  Where _splits admits
        the layer, its two halves come out bit-identical to the whole."""
        cfg = self.cfg
        for t, rows in layers:
            step = weight_gradient(grads.bias_per_instance[t][:, rows], grads.inputs[t])
            step *= cfg.learning_rate
            velocity = self.velocity_w[t][rows]
            velocity *= cfg.momentum
            velocity -= step
            del step
            weights = self.model.weights[t][rows]
            weights += velocity

    def run(
        self,
        criterion: Criterion,
        x: np.ndarray,
        y: np.ndarray,
        batches: Iterable[np.ndarray],
        blocks: Callable[[BatchPass], list[np.ndarray] | None] | None = None,
    ) -> None:
        """One batch_pass and one step per batch of row indices into x and
        y (one-hot), in order.  blocks(pass), called on every pass, returns
        the step's bias blocks: by default ea_curvature of cfg's kind and
        gamma, or None under SGD.  Each pass is dropped before its step, so
        what only the curvature reads is freed before the Newton solve, and
        each step's gradients and blocks before the next pass is built.  On
        a lane, a Newton step submits layer 1's input Gram as soon as the
        batch is gathered and the other layers' when the pass is built;
        each job reads the layer inputs alone, never the pass."""
        if blocks is None:
            blocks = self._blocks
        for batch in batches:
            xb = np.asarray(x[batch], dtype=float)  # forward's input as is
            grams = self._submit_grams([xb])
            bp = batch_pass(self.model, criterion, xb, y[batch])
            grams += self._submit_grams(bp.grads.inputs[1:])
            hbs = blocks(bp)
            grads = bp.grads
            del bp
            self.step(grads, hbs, grams or None)
            del grads, hbs, grams

    def _submit_grams(self, inputs: list[np.ndarray]) -> list:
        """The results of the lane's Jobs of the Newton solve's _gram_eig of
        each input batch, or none where steps run inline (always under SGD)."""
        if self._solve is None or not self._steps_gate or self.lane is None:
            return []
        return [self.lane.submit(_gram_eig, h, self._one_rank).result for h in inputs]

    def _blocks(self, bp: BatchPass) -> list[np.ndarray] | None:
        spec = self.cfg.second_order
        return None if spec is None else ea_curvature(self.model, bp, spec.kind, spec.gamma)


def train(
    model: FcnnModel,
    criterion: Criterion,
    x_train: np.ndarray,
    y_train: np.ndarray,
    cfg: TrainConfig,
    x_test: np.ndarray | None = None,
    y_test: np.ndarray | None = None,
    record_time: bool = True,
) -> TrainReport:
    """Train in place and return per-epoch metrics.

    y arrays are one-hot.  One Optimizer steps the model in place, one
    Optimizer.run per epoch over epoch_batches; report.model is model.

    Each epoch is scored by mean_loss on the training set and accuracy on
    the test set.  Large evaluations of epoch e run on the run's lane
    while epoch e+1's steps run, and the last epoch's is shared between
    the lane and this thread (see the module docstring); a step job or a
    row block queued on the lane behind a job it is still running runs in
    this thread instead.  The records are the same either way.  An epoch's
    wall_seconds runs from its first step until its loss is known, so
    there it overlaps the next epoch's steps.  A
    non-finite loss raises TrainingDivergedError naming its epoch, ahead
    of any error that the next epoch's steps on the diverged parameters
    raise, and an error raised on the lane is raised here.  The lane's
    thread is joined before train returns or raises.
    """
    n = x_train.shape[0]
    if y_train.shape[0] != n:
        raise ConfigError("feature/label counts differ")
    if n == 0:
        raise ConfigError("training set has no rows")
    if x_test is None:
        x_test = x_train[:0]
        y_test = y_train[:0]
    y_test_idx = np.argmax(y_test, axis=1)
    spec = cfg.second_order
    optimizer = "sgd" if spec is None else f"{spec.solver.value}, curvature {spec.kind.value}"

    def score(params: FcnnModel, epoch: int, start: float, lane: Lane | None = None) -> EpochRecord:
        loss = mean_loss(params, criterion, x_train, y_train, lane)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch} (optimizer {optimizer})"
            )
        wall = time.perf_counter() - start if record_time else 0.0
        return EpochRecord(epoch, loss, accuracy(params, x_test, y_test_idx, lane), wall)

    records: list[EpochRecord] = []
    eval_macs = (n + x_test.shape[0]) * sum(w.size for w in model.weights)
    overlap = eval_macs >= EVAL_OVERLAP_MIN_MACS
    with Optimizer(model, cfg, overlap) as opt:
        lane = opt.lane if overlap else None
        pending = None  # the lane's Job of the previous epoch's record
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            try:
                batches = epoch_batches(n, cfg.batch_size, cfg.seed, epoch)
                opt.run(criterion, x_train, y_train, batches)
            finally:
                # the previous epoch's record, or its error, which replaces any
                # error these steps raised from its diverged parameters
                if pending is not None:
                    records.append(pending.result())
            if lane is not None and epoch + 1 < cfg.epochs:
                pending = lane.submit(score, model.copy(), epoch, start)
            else:
                records.append(score(model, epoch, start, lane))
    return TrainReport(epochs=records, model=model)
