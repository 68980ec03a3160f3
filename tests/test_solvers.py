import ctypes
import re
import sys
import threading
import time
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocknewton import solvers, trainer
from blocknewton.curvature import CurvatureKind, ea_curvature
from blocknewton.errors import ConfigError, DimensionError, NumericalBreakdownError
from blocknewton.fcnn import (
    Activation,
    CrossEntropySoftmax,
    FcnnModel,
    LayerGradients,
    batch_pass,
)
from blocknewton.solvers import (
    HvpMode,
    PiPolicy,
    SolverConfig,
    ea_cg_direction,
    kfi_direction,
)
from blocknewton.trainer import Optimizer, SecondOrderSpec, TrainConfig
from helpers import (
    count_calls,
    flat_direction,
    flat_gradient,
    forbid_shape,
    gram,
    hold_lane,
    random_batch,
    random_model,
    sherman_morrison_apply,
    weight_gradients,
    weight_hvp,
)
from test_golden import _openblas_call


def make_layer(rng, n_out, n_in, psd_shift=1.0):
    """A positive definite bias block Hb and an 8-row input batch h."""
    m = rng.standard_normal((n_out, n_out))
    hb = m @ m.T / n_out + psd_shift * np.eye(n_out)
    return hb, rng.standard_normal((8, n_in))


def make_problem(rng, layers):
    """(hbs, grads) for (Hb, h) layers, as the solvers read them: the bias
    blocks, and per-instance bias gradients G on each layer's inputs h, so
    g_W = G^T h / r (as weight_gradients multiplies it out), with a mean
    bias gradient drawn on its own."""
    g = [rng.standard_normal((h.shape[0], hb.shape[0])) for hb, h in layers]
    gb = [rng.standard_normal(hb.shape[0]) for hb, _ in layers]
    grads = LayerGradients(grad_bias=gb, bias_per_instance=g, inputs=[h for _, h in layers])
    return [hb for hb, _ in layers], grads


def kfi_pi(hb, h, policy):
    """KFI's pi: sqrt of the ratio of the two factors' mean eigenvalues
    under trace_norm when both are positive, otherwise 1."""
    n_out, n_in = hb.shape[0], h.shape[1]
    tr_h, tr_g = np.trace(gram(h)) / n_in, np.trace(hb) / n_out
    ok = policy is PiPolicy.TRACE_NORM and tr_h > 0 and tr_g > 0
    return np.sqrt(tr_h / tr_g) if ok else 1.0


def gram_guarded_problem():
    """One 3 x 12 layer on an 8-row batch whose input data raise on any
    12 x 12 result, the shape of E[h h^T]."""
    rng = np.random.default_rng(11)
    hb, h = make_layer(rng, 3, 12)
    guard = forbid_shape((12, 12))
    with pytest.raises(AssertionError):  # the guard trips on the Gram matrix itself
        gram(h.view(guard))
    return make_problem(rng, [(hb, h.view(guard))])


def quadratic_guarded_problem(rng=None):
    """One 3 x 4 layer on an 8-row batch whose input data raise on any 4 x 4
    or 8 x 8 result, the shapes of h's two Gram matrices."""
    rng = np.random.default_rng(3) if rng is None else rng
    hb, h = make_layer(rng, 3, 4)
    guard = forbid_shape((4, 4), (8, 8))
    return make_problem(rng, [(hb, h.view(guard))])


def model_problem(seed, batch=5, kind=CurvatureKind.PCH):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    x, y = random_batch(rng, model, batch=batch)
    criterion = CrossEntropySoftmax()
    bp = batch_pass(model, criterion, x, y)
    curv = ea_curvature(model, bp, kind)
    return curv, bp.grads


def assert_factored_once(monkeypatch, curv, solve):
    """solve() factors each block in curv and one Gram matrix per layer
    once: by one sym_eigs call whose list is curv's blocks, then the Grams,
    which makes one np.linalg.eigh call per distinct size, and by no
    sym_eig call."""
    with monkeypatch.context() as mp:
        sym_eig = count_calls(mp, solvers, "sym_eig")
        sym_eigs = count_calls(mp, solvers, "sym_eigs")
        eigh = count_calls(mp, np.linalg, "eigh")
        solve()
    assert sym_eig == [] and len(sym_eigs) == 1
    (factored,), _, _ = sym_eigs[0]
    k = len(curv)
    assert len(factored) == 2 * k and all(a is hb for a, hb in zip(factored, curv))
    stacks = [args[0] for args, _, _ in eigh]
    assert sum(len(stack) for stack in stacks) == 2 * k
    assert len(stacks) == len({a.shape for a in factored})


# faults that make layer 2 of both solvers' breakdown problem unsolvable
BREAKDOWN_FAULTS = [
    "indefinite_hb", "non_finite_hb", "non_finite_h", "non_finite_grad", "non_finite_grad_weight"
]


def poison(hbs, grads, fault):
    """Put a non-finite value into layer 2's block, input or gradient."""
    if fault == "non_finite_hb":
        hbs[1][0, 0] = np.inf
    elif fault == "non_finite_h":
        grads.inputs[1][0, 0] = np.nan
    elif fault == "non_finite_grad":
        grads.grad_bias[1][0] = np.nan
    else:  # g_W's factor G
        grads.bias_per_instance[1][0, 1] = np.inf


def breakdown_message(fault):
    return "^layer 2: " + ("gradient is not finite$" if "grad" in fault else "")


class TestEaCg:
    def test_zero_curvature_scales_gradient(self):
        # with H = 0 the damped system is alpha * d = -g; Hb = 0 makes H = 0
        # whatever h is, and a nonzero h keeps g_W = G^T h / r nonzero
        rng = np.random.default_rng(0)
        hbs, grads = make_problem(rng, [(np.zeros((3, 3)), rng.standard_normal((1, 4)))])
        cfg = SolverConfig(alpha=0.5)
        d = ea_cg_direction(hbs, grads, cfg)
        assert np.allclose(d.d_weight[0], -2.0 * weight_gradients(grads)[0], atol=1e-12)
        assert np.allclose(d.d_bias[0], -2.0 * grads.grad_bias[0], atol=1e-12)

    def test_dense_kronecker_oracle(self):
        rng = np.random.default_rng(1)
        alpha = 0.02
        cfg = SolverConfig(alpha=alpha)
        for n_out, n_in in [(4, 3), (3, 2)]:
            hbs, grads = make_problem(rng, [make_layer(rng, n_out, n_in)])
            d = ea_cg_direction(hbs, grads, cfg)

            big = (1 - alpha) * np.kron(gram(grads.inputs[0]), hbs[0]) + alpha * np.eye(
                n_out * n_in
            )
            expect = np.linalg.solve(big, -weight_gradients(grads)[0].reshape(-1, order="F"))
            assert np.max(np.abs(d.d_weight[0].reshape(-1, order="F") - expect)) <= 1e-8

            small = (1 - alpha) * hbs[0] + alpha * np.eye(n_out)
            expect_b = np.linalg.solve(small, -grads.grad_bias[0])
            assert np.max(np.abs(d.d_bias[0] - expect_b)) <= 1e-8

    @pytest.mark.parametrize("mode", list(HvpMode))
    def test_dense_kronecker_oracle_batch_narrower_than_layer(self, mode):
        # 8 batch rows against 12 inputs: E[h h^T] has rank 8, the shape where
        # the factored product is cheaper than the Gram matrix
        rng = np.random.default_rng(9)
        alpha = 0.02
        cfg = SolverConfig(alpha=alpha, hvp_mode=mode)
        hbs, grads = make_problem(rng, [make_layer(rng, 3, 12)])
        d = ea_cg_direction(hbs, grads, cfg)

        eh = grads.inputs[0].mean(axis=0)
        right = gram(grads.inputs[0]) if mode is HvpMode.EXACT_KRON else np.outer(eh, eh)
        big = (1 - alpha) * np.kron(right, hbs[0]) + alpha * np.eye(36)
        expect = np.linalg.solve(big, -weight_gradients(grads)[0].reshape(-1, order="F"))
        assert np.max(np.abs(d.d_weight[0].reshape(-1, order="F") - expect)) <= 1e-8

    @pytest.mark.parametrize("mode", list(HvpMode))
    def test_exact_preconditioner_solves_in_one_iteration(self, mode):
        # the direct eigenbasis solve, which CG with this exact preconditioner
        # returns after one iteration, is the dense solution on a layer
        # narrower than the 8-row batch, one wider, and a one-input layer
        # (narrow in both modes); no iteration runs any more, the name stays
        # so the test keeps its id
        rng = np.random.default_rng(12)
        alpha = 0.02
        cfg = SolverConfig(alpha=alpha, hvp_mode=mode)
        for n_out, n_in in [(4, 3), (3, 12), (2, 1)]:
            hbs, grads = make_problem(rng, [make_layer(rng, n_out, n_in)])
            d = ea_cg_direction(hbs, grads, cfg)

            eh = grads.inputs[0].mean(axis=0)
            right = gram(grads.inputs[0]) if mode is HvpMode.EXACT_KRON else np.outer(eh, eh)
            big = (1 - alpha) * np.kron(right, hbs[0]) + alpha * np.eye(n_out * n_in)
            expect = np.linalg.solve(big, -weight_gradients(grads)[0].reshape(-1, order="F"))
            assert np.max(np.abs(d.d_weight[0].reshape(-1, order="F") - expect)) <= 1e-8

            small = (1 - alpha) * hbs[0] + alpha * np.eye(n_out)
            expect_b = np.linalg.solve(small, -grads.grad_bias[0])
            assert np.max(np.abs(d.d_bias[0] - expect_b)) <= 1e-8

    @pytest.mark.parametrize("mode", list(HvpMode))
    def test_factors_each_layer_once(self, monkeypatch, mode):
        # every hb and every Gram matrix factored once, by one eigh per size
        for seed in range(5):
            curv, grads = model_problem(seed=seed)
            assert_factored_once(
                monkeypatch, curv, lambda: ea_cg_direction(curv, grads, SolverConfig(hvp_mode=mode))
            )

    @pytest.mark.parametrize("fault", BREAKDOWN_FAULTS)
    def test_breakdown_names_layer(self, fault):
        rng = np.random.default_rng(10)
        alpha = 0.02
        hbs, grads = make_problem(rng, [make_layer(rng, 3, 4), make_layer(rng, 2, 3)])
        if fault == "indefinite_hb":
            # (1 - alpha) lam + alpha < 0 for the bias, as for the weights
            hbs[1] = np.diag([-1.0, 1.0])
        else:
            poison(hbs, grads, fault)
        with pytest.raises(NumericalBreakdownError, match=breakdown_message(fault)):
            ea_cg_direction(hbs, grads, SolverConfig(alpha=alpha))

    @pytest.mark.parametrize("mode", list(HvpMode))
    def test_ea_cg_never_forms_gram_matrix(self, mode):
        curv, grads = gram_guarded_problem()
        d = ea_cg_direction(curv, grads, SolverConfig(hvp_mode=mode))
        assert np.all(np.isfinite(flat_direction(d)))

    def test_batch_one_hvp_modes_agree(self):
        # a single instance makes E[h h^T] = E[h] E[h]^T exactly, so both
        # Hessian-vector-product routes solve the same system
        curv, grads = model_problem(seed=2, batch=1)
        cfg_exact = SolverConfig(alpha=0.02)
        cfg_rank1 = SolverConfig(alpha=0.02, hvp_mode=HvpMode.EA_ONE_RANK)
        d1 = ea_cg_direction(curv, grads, cfg_exact)
        d2 = ea_cg_direction(curv, grads, cfg_rank1)
        assert np.max(np.abs(flat_direction(d1) - flat_direction(d2))) <= 1e-10

    def test_one_rank_mode_never_reads_gram_matrix(self):
        # h is read as g_W's factor, but neither of its Gram matrices, 4 x 4
        # or 8 x 8, is formed; only E[h]'s 1 x 1 one
        curv, grads = quadratic_guarded_problem()
        cfg = SolverConfig(alpha=0.1, hvp_mode=HvpMode.EA_ONE_RANK)
        d = ea_cg_direction(curv, grads, cfg)
        assert np.all(np.isfinite(flat_direction(d)))

    def test_one_rank_solve_on_inputs_near_their_mean(self):
        # h = 10 + 1e-3 noise puts g_W almost along E[h], where the damped
        # weight system's eigenvalue, about 1e3 |Hb|, dwarfs alpha = 0.001: a
        # solve that leaves eps |g_W| of its alpha-divided part along E[h]
        # misses by a relative residual near 1e-9
        for seed in range(5):
            rng = np.random.default_rng(seed)
            hb, _ = make_layer(rng, 3, 12)
            h = 10.0 + 1e-3 * rng.standard_normal((8, 12))
            hbs, grads = make_problem(rng, [(hb, h)])
            cfg = SolverConfig(alpha=0.001, hvp_mode=HvpMode.EA_ONE_RANK)
            dw, gw = ea_cg_direction(hbs, grads, cfg).d_weight[0], weight_gradients(grads)[0]
            residual = weight_hvp(h.mean(axis=0)[None, :], hb, 0.001, dw) + gw
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(gw)

    def test_directions_are_descent(self):
        for seed in range(5):
            curv, grads = model_problem(seed=seed)
            d = ea_cg_direction(curv, grads, SolverConfig())
            inner = float(flat_direction(d) @ flat_gradient(grads))
            assert inner < 0

    def test_layer_count_mismatch(self):
        # KFI too: zip would otherwise truncate to the shorter list
        rng = np.random.default_rng(4)
        hbs, grads = make_problem(rng, [make_layer(rng, 3, 4), make_layer(rng, 2, 3)])
        with pytest.raises(DimensionError):
            ea_cg_direction(hbs[:1], grads, SolverConfig())
        with pytest.raises(DimensionError):
            kfi_direction(hbs[:1], grads, SolverConfig())


PAPER_SHAPES = [(256, 784), (128, 256), (64, 128), (10, 64)]
# 96-64-160-32-10: the widest hb, and so the calling thread's job, is layer 2's
INNER_WIDEST_SHAPES = [(64, 96), (160, 64), (32, 160), (10, 32)]


def paper_width_problem(seed=16, shapes=PAPER_SHAPES):
    """A layer stack on a 128-row batch, by default 784-256-128-64-10: its
    widest hb is wide enough for the solvers to use a helper thread."""
    rng = np.random.default_rng(seed)
    layers = []
    for n_out, n_in in shapes:
        m = rng.standard_normal((n_out, n_out))
        layers.append((m @ m.T / n_out + np.eye(n_out), rng.uniform(0.0, 1.0, size=(128, n_in))))
    return make_problem(rng, layers)


# (hbs, grads) -> NewtonDirection under each solver configuration, the
# EA-CG ones named by their hvp_mode
EA_CG = partial(ea_cg_direction, cfg=SolverConfig())
KFI = partial(kfi_direction, cfg=SolverConfig())
EVERY_SOLVE = [
    pytest.param(partial(ea_cg_direction, cfg=SolverConfig(hvp_mode=mode)), id=str(mode))
    for mode in HvpMode
] + [
    pytest.param(partial(kfi_direction, cfg=SolverConfig(pi_policy=policy)), id=f"kfi-{policy.value}")
    for policy in PiPolicy
]


@pytest.mark.parametrize("solve", [EA_CG, KFI], ids=["ea_cg", "kfi"])
def test_weight_directions_are_c_contiguous(solve):
    # the in-place step W += lr * d then reads d in W's own order
    curv, grads = paper_width_problem()
    d = solve(curv, grads)
    for dw, gw in zip(d.d_weight, weight_gradients(grads)):
        assert dw.shape == gw.shape
        assert dw.flags.c_contiguous


@pytest.mark.parametrize("solve", [EA_CG, KFI], ids=["ea_cg", "kfi"])
def test_layer_count_mismatch_is_a_dimension_error(solve):
    # grams is zipped with the layers: one too few must not drop a layer
    curv, grads = paper_width_problem()
    grams = [partial(solvers._gram_eig, h) for h in grads.inputs]
    for hbs, given in ((curv[:-1], None), (curv, grams[:-1])):
        with pytest.raises(DimensionError, match="^curvature/gradient/Gram layer counts differ$"):
            solve(hbs, grads, grams=given)


def solve_on_lane(solve, hbs, grads, grams_on_lane=False):
    """solve(hbs, grads) handed a lane of its own, which is joined before
    this returns or raises; grams_on_lane first queues every layer's input
    Gram on the lane, as a run's Optimizer does, and hands solve their
    results."""
    with solvers.Lane() as lane:
        grams = None
        if grams_on_lane:
            grams = [lane.submit(solvers._gram_eig, h).result for h in grads.inputs]
        return solve(hbs, grads, lane=lane, grams=grams)


class TestEaCgOverlap:
    """The two-thread split of the per-layer jobs, which both solvers share,
    given a lane: the lane is handed every other layer's job in layer
    order, while the calling thread factors the widest layer's hb and
    solves that layer.  A job the lane has not started when its result is
    asked for runs on the calling thread, so the cases below name the
    thread each job is handed to."""

    @pytest.fixture
    def threads(self, monkeypatch):
        # every thread started, recorded
        return count_calls(monkeypatch, threading, "Thread")

    @pytest.mark.parametrize("solve", EVERY_SOLVE)
    def test_bit_identical_to_inline(self, threads, solve):
        for shapes in (PAPER_SHAPES, INNER_WIDEST_SHAPES):
            curv, grads = paper_width_problem(shapes=shapes)
            inline = flat_direction(solve(curv, grads)).view(np.uint64)
            assert threads == []
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
            try:
                for _ in range(20):
                    d = solve_on_lane(solve, curv, grads)
                    assert np.array_equal(flat_direction(d).view(np.uint64), inline)
            finally:
                sys.setswitchinterval(interval)
            assert len(threads) == 20
            threads.clear()

    @pytest.mark.parametrize("solve", [EA_CG, KFI], ids=["ea_cg", "kfi"])
    def test_paper_width_without_a_lane_starts_no_thread(self, threads, solve):
        curv, grads = paper_width_problem()
        assert np.all(np.isfinite(flat_direction(solve(curv, grads))))
        assert threads == []

    def test_readme_net_starts_no_thread(self, threads):
        rng = np.random.default_rng(17)
        model = FcnnModel.xavier([64, 32, 16, 16, 8, 8, 8, 10], Activation.SIGMOID, rng=rng)
        x, y = random_batch(rng, model, batch=32)
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        curv = ea_curvature(model, bp, CurvatureKind.PCH)
        for solve in (EA_CG, KFI):
            assert np.all(np.isfinite(flat_direction(solve(curv, bp.grads))))
        assert threads == []

    @pytest.mark.parametrize("solve", [EA_CG, KFI], ids=["ea_cg", "kfi"])
    @pytest.mark.parametrize("faults", [{}, {1: "indefinite"}], ids=["solved", "indefinite-widest"])
    def test_no_thread_outlives_a_solve(self, threads, solve, faults):
        curv, grads = self.faulty_problem(PAPER_SHAPES, faults)
        before = set(threading.enumerate())
        try:
            solve_on_lane(solve, curv, grads)
        except NumericalBreakdownError as exc:
            assert faults and str(exc).startswith("layer 1: damped")
        else:
            assert not faults
        assert len(threads) == 1 and set(threading.enumerate()) <= before

    # {layer: fault} on the paper net, where layer 1's job runs on the calling
    # thread and layers 2-4's on the lane; each case runs twice, each job
    # factoring its own Gram matrix, then with every Gram matrix on the lane
    ERROR_CASES = {
        "main-and-helper-side": (
            {1: "hb", 3: "h"},
            NumericalBreakdownError,
            "layer 1: sym_eig input is not finite",
        ),
        "helper-side-gram": (
            {3: "h"},
            NumericalBreakdownError,
            "layer 3: input factor is not finite",
        ),
        "helper-side-hb": (
            {3: "hb"},
            NumericalBreakdownError,
            "layer 3: sym_eig input is not finite",
        ),
        "helper-side-other": (
            {3: "asymmetric"},
            DimensionError,
            "sym_eig input is not symmetric within tolerance",
        ),
        "helper-side-widest-gram": (
            {1: "h"},
            NumericalBreakdownError,
            "layer 1: input factor is not finite",
        ),
        "main-side-solve-and-helper-side": (
            {1: "g_W", 3: "h"},
            NumericalBreakdownError,
            "layer 1: gradient is not finite",
        ),
    }
    # the same on 96-64-160-32-10, where layer 2's job runs on the calling thread
    INNER_WIDEST_CASES = {
        "inner-widest-helper-side-gram-and-main-side": (
            {1: "h", 2: "hb"},
            NumericalBreakdownError,
            "layer 1: input factor is not finite",
        ),
        "inner-widest-helper-side-hb-and-main-side-solve": (
            {1: "hb", 2: "g_W"},
            NumericalBreakdownError,
            "layer 1: sym_eig input is not finite",
        ),
        "inner-widest-helper-side-widest-gram": (
            {2: "h", 3: "hb"},
            NumericalBreakdownError,
            "layer 2: input factor is not finite",
        ),
    }

    @staticmethod
    def faulty_problem(shapes, faults):
        hbs, grads = paper_width_problem(shapes=shapes)
        for t, fault in faults.items():
            if fault == "hb":
                hbs[t - 1][0, 0] = np.inf
            elif fault == "h":
                grads.inputs[t - 1][0, 0] = np.nan
            elif fault == "g_W":  # in its factor G
                grads.bias_per_instance[t - 1][0, 0] = np.nan
            elif fault == "indefinite":
                hbs[t - 1] = -hbs[t - 1]
            else:
                hbs[t - 1][0, 1] += 1.0
        return hbs, grads

    @pytest.mark.parametrize(
        "solve,shapes,faults,error,message",
        [
            pytest.param(solve, shapes, *case, id=f"{prefix}{name}")
            for shapes, cases in ((PAPER_SHAPES, ERROR_CASES), (INNER_WIDEST_SHAPES, INNER_WIDEST_CASES))
            for name, case in cases.items()
            for prefix, solve in (("", EA_CG), ("kfi-", KFI))
        ],
    )
    def test_error_names_lowest_failing_layer(
        self, threads, solve, shapes, faults, error, message
    ):
        curv, grads = self.faulty_problem(shapes, faults)
        for grams_on_lane in (False, True):
            with pytest.raises(error) as excinfo:
                solve_on_lane(solve, curv, grads, grams_on_lane)
            assert str(excinfo.value) == message
        assert len(threads) == 2

    @pytest.mark.parametrize(
        "solve,message",
        [
            (EA_CG, "layer 1: damped block is not positive definite (min eigenvalue -"),
            (KFI, "layer 1: damped factor is singular (min eigenvalue -"),
        ],
        ids=["ea_cg", "kfi"],
    )
    def test_indefinite_widest_block_named_before_helper_error(self, threads, solve, message):
        curv, grads = self.faulty_problem(PAPER_SHAPES, {1: "indefinite", 3: "h"})
        for grams_on_lane in (False, True):
            with pytest.raises(NumericalBreakdownError) as excinfo:
                solve_on_lane(solve, curv, grads, grams_on_lane)
            assert str(excinfo.value).startswith(message)
        assert len(threads) == 2

    # under numpy's default error state the overflow leaves a non-finite
    # direction, which the solver rejects; under errstate(all="raise") the
    # overflow itself raises, on the helper as on the calling thread.  The
    # fault is in layer 4, whose products are small enough for OpenBLAS to run
    # on the calling thread: numpy reads the floating-point flags of that
    # thread only, so an overflow inside a threaded BLAS call (layer 3's) can
    # surface as "invalid value" or not at all, by BLAS thread count
    HUGE_GRADIENT = {
        "default": ({}, NumericalBreakdownError, "layer 4: direction is not finite"),
        "raise": ({"all": "raise"}, FloatingPointError, "layer 4: overflow encountered in matmul"),
    }

    @pytest.mark.parametrize("solve", [EA_CG, KFI], ids=["ea_cg", "kfi"])
    @pytest.mark.parametrize("state", list(HUGE_GRADIENT))
    @pytest.mark.parametrize("grad,value", [("g_W", 1e308), ("g_b", 1e308)])
    def test_huge_gradient_fails_alike_on_both_paths(self, threads, solve, state, grad, value):
        # layer 4's job runs on the helper; its gradient is finite, its solve is not
        errstate, error, message = self.HUGE_GRADIENT[state]
        failures = []
        for run in (solve, partial(solve_on_lane, solve)):  # inline, then threaded
            curv, grads = paper_width_problem()
            # g_W's fault is in its factor G, layer 4's per-instance bias gradients
            (grads.bias_per_instance if grad == "g_W" else grads.grad_bias)[3][...] = value
            with np.errstate(**errstate), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(error) as excinfo:
                    run(curv, grads)
            failures.append((type(excinfo.value), str(excinfo.value)))
        assert failures == [(error, message)] * 2
        assert len(threads) == 1


class TestLane:
    """The helper lane: a job that the lane has not started runs in the
    thread that asks for its result."""

    def test_caller_runs_a_job_queued_behind_a_blocked_one(self):
        ran_on = []

        def job(value):
            ran_on.append(threading.current_thread())
            if isinstance(value, Exception):
                raise value
            return value

        with solvers.Lane() as lane:
            release = hold_lane(lane)
            value, error = lane.submit(job, 7), lane.submit(job, ValueError("job failed"))
            assert value.result() == 7
            with pytest.raises(ValueError, match="job failed"):
                error.result()
            assert ran_on == [threading.current_thread()] * 2
            release.set()
        # the lane, reaching the two jobs, found them taken
        assert ran_on == [threading.current_thread()] * 2
        assert value.result() == 7

    def test_an_error_leaving_the_block_drops_queued_jobs(self):
        ran = []
        with pytest.raises(RuntimeError, match="left"):
            with solvers.Lane() as lane:
                release = hold_lane(lane)
                submit_released_on_drop(lane, release, ran)
                raise RuntimeError("left")
        assert ran == [] and not lane._thread.is_alive()

    @pytest.fixture
    def switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        yield
        sys.setswitchinterval(interval)

    def test_each_job_runs_once_whichever_thread_claims_it(self, switching):
        rng = np.random.default_rng(0)
        for _ in range(5):
            ran = []

            def job(i):
                ran.append(i)
                time.sleep(0)  # let the other thread reach the job meanwhile
                return i

            with solvers.Lane() as lane:
                # both threads start on the queue at once: the lane in order,
                # this thread in a random one
                release = hold_lane(lane)
                jobs = [lane.submit(job, i) for i in range(500)]
                order = rng.permutation(len(jobs))
                release.set()
                assert [jobs[i].result() for i in order] == order.tolist()
            assert sorted(ran) == list(range(len(jobs)))

    def test_a_dropped_job_runs_in_the_thread_that_asks(self, switching):
        ran_on, ran = [], []

        def job():
            ran_on.append(threading.current_thread())
            return 7

        with pytest.raises(RuntimeError, match="left"):
            with solvers.Lane() as lane:
                release = hold_lane(lane)
                dropped = lane.submit(job)
                submit_released_on_drop(lane, release, ran)
                raise RuntimeError("left")
        assert ran == ran_on == [] and not lane._thread.is_alive()
        assert dropped.result() == 7 and ran_on == [threading.current_thread()]
        assert dropped.result() == 7 and len(ran_on) == 1

    # (cpus, BLAS threads read, lane opened): a paper-width Newton run's
    # Optimizer opens a lane where the usable CPUs hold both threads' BLAS
    # threads, and on two CPUs where the count cannot be read
    GATE = [
        (2, 2, False), (4, 2, True), (2, 1, True), (1, 1, False), (2, None, True), (1, None, False)
    ]

    @pytest.mark.parametrize("cpus,blas,opens", GATE)
    def test_gate_reads_the_blas_thread_count(self, monkeypatch, cpus, blas, opens):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(trainer, "_blas_threads", lambda: blas)
        started = count_calls(monkeypatch, threading, "Thread")
        newton = TrainConfig(batch_size=8, second_order=SecondOrderSpec())
        with Optimizer(FcnnModel.xavier([64, 32, 10], seed=0), newton) as opt:
            assert opt.lane is None
        rng = np.random.default_rng(0)
        x, y = rng.uniform(size=(8, 784)), np.eye(10)[rng.integers(10, size=8)]
        with Optimizer(FcnnModel.xavier([784, 256, 128, 64, 10], seed=0), newton) as opt:
            assert (opt.lane is not None) == opens
            opt.run(CrossEntropySoftmax(), x, y, [np.arange(8)])
        assert len(started) == opens

    # (widths, batch size, hvp mode, lane opened): the step gate reads the
    # widest matrix a step factors, a bias block or an input Gram on its
    # smaller side, which is 1 x 1 under ea_one_rank
    STEP_GATE = [
        ([784, 32, 10], 128, HvpMode.EXACT_KRON, True),
        ([784, 32, 10], 64, HvpMode.EXACT_KRON, False),
        ([784, 32, 10], 128, HvpMode.EA_ONE_RANK, False),
        ([64, 128, 10], 8, HvpMode.EA_ONE_RANK, True),
    ]

    @pytest.mark.parametrize("widths,batch_size,mode,opens", STEP_GATE)
    def test_step_gate_reads_the_widest_factored_matrix(
        self, monkeypatch, widths, batch_size, mode, opens
    ):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(trainer, "_blas_threads", lambda: 1)
        spec = SecondOrderSpec(solver_cfg=SolverConfig(hvp_mode=mode))
        cfg = TrainConfig(batch_size=batch_size, second_order=spec)
        with Optimizer(FcnnModel.xavier(widths, seed=0), cfg) as opt:
            assert (opt.lane is not None) == opens

    def test_blas_thread_count_is_numpys_openblas(self):
        assert trainer._blas_threads() == _openblas_call("get_num_threads", ctypes.c_int)


def submit_released_on_drop(lane, release, ran):
    """Queue ran.append(token) on lane, with release.set as the token's
    finalizer.  The lane holds the job's only reference, so the token is
    freed, and release set, once the lane drops the job unrun."""

    class Token:
        pass

    token = Token()
    weakref.finalize(token, release.set)
    lane.submit(ran.append, token)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": 0.0}, {"alpha": 1.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)


class TestShermanMorrison:
    def test_zero_mean_reduces_to_scaling(self):
        v = np.array([1.0, -2.0, 3.0])
        out = sherman_morrison_apply(np.zeros(3), 0.5, v)
        assert np.allclose(out, v / 0.5, atol=1e-15)

    def test_orthogonal_vector_reduces_to_scaling(self):
        eh = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 2.0, -1.0])
        out = sherman_morrison_apply(eh, 0.25, v)
        assert np.allclose(out, v / 0.25, atol=1e-15)

    def test_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = rng.integers(2, 8)
            eh = rng.standard_normal(n)
            v = rng.standard_normal(n)
            damp = float(rng.uniform(0.05, 2.0))
            dense = np.linalg.solve(np.outer(eh, eh) + damp * np.eye(n), v)
            assert np.max(np.abs(sherman_morrison_apply(eh, damp, v) - dense)) <= 1e-10

    def test_rejects_nonpositive_damping(self):
        with pytest.raises(ConfigError):
            sherman_morrison_apply(np.ones(2), 0.0, np.ones(2))


class TestKfi:
    @pytest.mark.parametrize("policy", [PiPolicy.UNIT, PiPolicy.TRACE_NORM])
    def test_dense_factor_oracle(self, policy):
        rng = np.random.default_rng(6)
        alpha = 0.02
        sqrt_a = np.sqrt(alpha)
        # (3, 12) is wider than the 8-row batch, so its E[h h^T] is rank-deficient
        shapes = [(4, 3), (3, 4), (3, 12)]
        hbs, grads = make_problem(rng, [make_layer(rng, *s) for s in shapes])
        d = kfi_direction(hbs, grads, SolverConfig(alpha=alpha, pi_policy=policy))
        for hb, h, gw, gb, dw, db in zip(
            hbs, grads.inputs, weight_gradients(grads), grads.grad_bias, d.d_weight, d.d_bias
        ):
            n_out, n_in = gw.shape
            pi = kfi_pi(hb, h, policy)
            g_fac = hb + (sqrt_a / pi) * np.eye(n_out)
            h_fac = gram(h) + pi * sqrt_a * np.eye(n_in)
            expect_w = -np.linalg.solve(g_fac, gw) @ np.linalg.inv(h_fac)
            expect_b = -np.linalg.solve(hb + sqrt_a * np.eye(n_out), gb)
            assert np.max(np.abs(dw - expect_w)) <= 1e-8
            assert np.max(np.abs(db - expect_b)) <= 1e-8

    def test_full_column_rank_factor_does_not_cancel(self):
        # a 16 x 6 factor of scale 1e5 makes H's eigenvalues span 1e10 / 0.14:
        # x / c minus its own projection over c left ~eps |x| / c behind
        rng = np.random.default_rng(15)
        alpha = 0.02
        sqrt_a = np.sqrt(alpha)
        hb, _ = make_layer(rng, 3, 6)
        h = rng.standard_normal((16, 6)) * 1e5
        hbs, grads = make_problem(rng, [(hb, h)])
        d = kfi_direction(hbs, grads, SolverConfig(alpha=alpha))
        g_fac = hb + sqrt_a * np.eye(3)
        h_fac = gram(h) + sqrt_a * np.eye(6)
        expect = -np.linalg.solve(g_fac, weight_gradients(grads)[0]) @ np.linalg.inv(h_fac)
        rel = np.linalg.norm(d.d_weight[0] - expect) / np.linalg.norm(expect)
        assert rel <= 1e-12

    def test_kfi_never_forms_gram_matrix(self):
        curv, grads = gram_guarded_problem()
        for policy in PiPolicy:
            d = kfi_direction(curv, grads, SolverConfig(pi_policy=policy))
            assert np.all(np.isfinite(flat_direction(d)))

    def test_factors_each_layer_once(self, monkeypatch):
        curv, grads = model_problem(seed=3)
        svd = count_calls(monkeypatch, np.linalg, "svd")
        # one factorization of each hb and one of each input factor's Gram matrix
        assert_factored_once(
            monkeypatch, curv, lambda: kfi_direction(curv, grads, SolverConfig(pi_policy=PiPolicy.TRACE_NORM))
        )
        assert svd == []

    @pytest.mark.parametrize("fault", BREAKDOWN_FAULTS + ["indefinite_bias_block"])
    def test_breakdown_names_layer(self, fault):
        rng = np.random.default_rng(10)
        alpha = 0.02
        layers = [make_layer(rng, 3, 4), make_layer(rng, 2, 3)]
        hbs, grads = make_problem(rng, layers)
        policy = PiPolicy.UNIT
        if fault == "indefinite_hb":
            hbs[1] = np.diag([-2.0 * np.sqrt(alpha), 1.0])  # below -sqrt(alpha)
        elif fault == "indefinite_bias_block":
            # trace_norm's pi = 0.158 makes G = Hb + (sqrt(alpha)/pi) I positive
            # definite, but Hb + sqrt(alpha) I has the eigenvalue -0.059
            layers[1] = (np.diag([-0.2, 1.0]), np.full((8, 4), 0.1))
            hbs, grads = make_problem(rng, layers)
            grads.grad_bias[1] = np.array([1.0, 0.0])
            policy = PiPolicy.TRACE_NORM
        else:
            poison(hbs, grads, fault)
        with pytest.raises(NumericalBreakdownError, match=breakdown_message(fault)):
            kfi_direction(hbs, grads, SolverConfig(alpha=alpha, pi_policy=policy))

    def test_descent_on_model_problems(self):
        for seed in range(5):
            curv, grads = model_problem(seed=seed)
            d = kfi_direction(curv, grads, SolverConfig())
            assert float(flat_direction(d) @ flat_gradient(grads)) < 0

    def test_rejects_bad_alpha(self):
        rng = np.random.default_rng(8)
        hbs, grads = make_problem(rng, [make_layer(rng, 3, 4)])
        with pytest.raises(ConfigError):
            kfi_direction(hbs, grads, SolverConfig(alpha=1.5))


def random_layer(rng, n_out, n_in, batch, hb_kind, h_kind):
    """A layer (Hb, h) whose Hb has eigenvalues of the given kind in a random
    basis and whose batch x n_in input h is of full rank, rank-deficient or 0."""
    q, _ = np.linalg.qr(rng.standard_normal((n_out, n_out)))
    lam = rng.uniform(-0.5 if hb_kind == "indefinite" else 0.0, 2.0, n_out)
    if hb_kind == "singular":
        lam[rng.random(n_out) < 0.5] = 0.0
        lam[0] = 0.0
    elif hb_kind == "zero":
        lam[:] = 0.0
    hb = (q * lam) @ q.T
    scale = rng.choice([0.1, 1.0])
    if h_kind == "full":
        h = rng.uniform(0.0, scale, (batch, n_in))
    elif h_kind == "rank_deficient":
        rank = int(rng.integers(0, min(batch, n_in)))
        h = rng.uniform(0.0, scale, (batch, rank)) @ rng.uniform(0.0, 1.0, (rank, n_in))
    else:
        h = np.zeros((batch, n_in))
    return 0.5 * (hb + hb.T), h


@st.composite
def layer_stacks(draw):
    """(bias blocks, gradients, alpha) for 1-3 random layers 1-24 wide on a
    batch of 1-32, so n_in falls on both sides of the batch size."""
    batch = draw(st.integers(1, 32))
    widths = draw(st.lists(st.integers(1, 24), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = [
        random_layer(
            rng, n_out, n_in, batch,
            draw(st.sampled_from(["psd", "indefinite", "singular", "zero"])),
            draw(st.sampled_from(["full", "rank_deficient", "zero"])),
        )
        for n_in, n_out in zip(widths, widths[1:])
    ]
    hbs, grads = make_problem(rng, layers)
    return hbs, grads, draw(st.sampled_from([0.001, 0.02, 0.3]))


def indefinite_bias_block_stack():
    """The KFI trace_norm layer whose G is positive definite but whose bias
    block Hb + sqrt(alpha) I is not (see TestKfi.test_breakdown_names_layer)."""
    layers = [(np.diag([-0.2, 1.0]), np.full((8, 4), 0.1))]
    hbs, grads = make_problem(np.random.default_rng(0), layers)
    grads.grad_bias[0] = np.array([1.0, 0.0])
    return hbs, grads, 0.02


def input_factor(h, setting):
    """F: the row E[h] under ea_one_rank, otherwise the input batch h."""
    return h.mean(axis=0)[None, :] if setting is HvpMode.EA_ONE_RANK else h


def dense_systems(hb, h, alpha, setting):
    """The damped weight system on column-major vec(W) and the damped bias
    system, as dense matrices."""
    f = input_factor(h, setting)
    n_out, n_in = hb.shape[0], f.shape[1]
    if isinstance(setting, HvpMode):
        weight = (1 - alpha) * np.kron(gram(f), hb) + alpha * np.eye(n_out * n_in)
        return weight, (1 - alpha) * hb + alpha * np.eye(n_out)
    pi, sqrt_a = kfi_pi(hb, h, setting), np.sqrt(alpha)
    g_fac = hb + (sqrt_a / pi) * np.eye(n_out)
    h_fac = gram(f) + pi * sqrt_a * np.eye(n_in)
    return np.kron(h_fac, g_fac), hb + sqrt_a * np.eye(n_out)


def min_damped_eigenvalue(hb, h, alpha, setting):
    """The smallest eigenvalue of any damped block the solve divides by,
    from the factors' spectra (the weight system's are their products)."""
    lam = np.linalg.eigvalsh(hb)
    mu = np.linalg.eigvalsh(gram(input_factor(h, setting)))
    if isinstance(setting, HvpMode):
        b = (1 - alpha) * lam
        return min((np.multiply.outer(b, mu) + alpha).min(), (b + alpha).min())
    sqrt_a = np.sqrt(alpha)
    return min((lam + sqrt_a / kfi_pi(hb, h, setting)).min(), (lam + sqrt_a).min())


def solver_for(setting, alpha):
    """(hbs, grads) -> NewtonDirection: EA-CG under an HvpMode, KFI under a
    PiPolicy."""
    if isinstance(setting, HvpMode):
        return partial(ea_cg_direction, cfg=SolverConfig(alpha=alpha, hvp_mode=setting))
    return partial(kfi_direction, cfg=SolverConfig(alpha=alpha, pi_policy=setting))


@pytest.mark.parametrize("setting", [*HvpMode, *PiPolicy], ids=lambda s: s.value)
@pytest.mark.parametrize("n_in", [12, 8, 5], ids=["wider-than-batch", "batch-wide", "narrower"])
@pytest.mark.parametrize("rows", ["distinct", "repeated"])
def test_dense_oracle_around_the_batch_width(setting, n_in, rows):
    # a 3-output layer on an 8-row batch, on either side of n_in = r and at
    # it; repeated rows make h rank-deficient (rank 4), so h h^T / r is
    # singular when the solve works on the batch side
    rng = np.random.default_rng(30 + n_in)
    hb, h = make_layer(rng, 3, n_in)
    if rows == "repeated":
        h = np.repeat(h[:4], 2, axis=0)
    hbs, grads = make_problem(rng, [(hb, h)])
    d = solver_for(setting, 0.02)(hbs, grads)
    weight, bias = dense_systems(hb, h, 0.02, setting)
    expect_w = np.linalg.solve(weight, -weight_gradients(grads)[0].reshape(-1, order="F"))
    assert np.max(np.abs(d.d_weight[0].reshape(-1, order="F") - expect_w)) <= 1e-8
    assert np.max(np.abs(d.d_bias[0] - np.linalg.solve(bias, -grads.grad_bias[0]))) <= 1e-8


def assert_solves(system, rhs, x):
    """x is system^{-1} rhs to within 1e-12 times system's condition number."""
    w = np.abs(np.linalg.eigvalsh(system))
    expect = np.linalg.solve(system, rhs)
    assert np.linalg.norm(x - expect) <= 1e-12 * w.max() / w.min() * np.linalg.norm(expect)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stack=layer_stacks())
@example(stack=indefinite_bias_block_stack())
def test_every_direction_descends_or_names_its_layer(stack):
    # both solvers, both hvp modes and both pi policies: a direction whose
    # damped blocks are all positive definite descends on every layer,
    # matches the dense solve, and (EA-CG) leaves a relative residual of at
    # most 1e-10; otherwise the solve raises at the lowest such layer
    hbs, grads, alpha = stack
    for setting in [*HvpMode, *PiPolicy]:
        solve = solver_for(setting, alpha)
        lowest = [min_damped_eigenvalue(hb, h, alpha, setting) for hb, h in zip(hbs, grads.inputs)]
        tol = 1e-12 * max(1.0, max(np.abs(hb).max() for hb in hbs))
        try:
            d = solve(hbs, grads)
        except NumericalBreakdownError as exc:
            found = re.match(r"layer (\d+): damped (block|factor) is", str(exc))
            assert found, str(exc)
            t = int(found.group(1))
            assert lowest[t - 1] <= tol and all(m > -tol for m in lowest[: t - 1]), (setting, t)
            continue
        assert all(m > -tol for m in lowest), setting
        for hb, h, gw, gb, dw, db in zip(
            hbs, grads.inputs, weight_gradients(grads), grads.grad_bias, d.d_weight, d.d_bias
        ):
            assert np.vdot(dw, gw) <= 0 and db @ gb <= 0, setting
            if gw.size <= 64:
                weight, bias = dense_systems(hb, h, alpha, setting)
                assert_solves(weight, -gw.reshape(-1, order="F"), dw.reshape(-1, order="F"))
                assert_solves(bias, -gb, db)
            if isinstance(setting, HvpMode):
                f = input_factor(h, setting)
                residual = weight_hvp(f, hb, alpha, dw) + gw
                assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(gw), setting


README_NET = [64, 32, 16, 16, 8, 8, 8, 10]

# each Newton setting: (solver, its config, whether it factors the row E[h])
STACKED_SETTINGS = {
    "ea_cg-exact_kron": (ea_cg_direction, SolverConfig(hvp_mode=HvpMode.EXACT_KRON), False),
    "ea_cg-ea_one_rank": (ea_cg_direction, SolverConfig(hvp_mode=HvpMode.EA_ONE_RANK), True),
    "kfi-unit": (kfi_direction, SolverConfig(pi_policy=PiPolicy.UNIT), False),
    "kfi-trace_norm": (kfi_direction, SolverConfig(pi_policy=PiPolicy.TRACE_NORM), False),
}


def readme_problem(seed=0, batch=32):
    """The README net's PCH-1 blocks and gradients on one random batch."""
    rng = np.random.default_rng(seed)
    model = FcnnModel.xavier(README_NET, seed=seed)
    x, y = random_batch(rng, model, batch=batch)
    bp = batch_pass(model, CrossEntropySoftmax(), x, y)
    return ea_curvature(model, bp, CurvatureKind.PCH), bp.grads


def outcome(solve, *args, **kwargs):
    """("ok", the direction's bits) of solve(*args, **kwargs), or (its
    error's type, its message)."""
    try:
        return "ok", flat_direction(solve(*args, **kwargs)).view(np.uint64).tolist()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestStackedSolve:
    """A solve handed no lane and no grams runs _solve_stacked: its
    directions are bitwise the per-layer jobs', which a solver handed grams
    runs, and where it meets an anomaly the per-layer jobs rerun the step,
    so the error is theirs."""

    @staticmethod
    def both_paths(setting, curv, grads):
        solve, cfg, one_rank = STACKED_SETTINGS[setting]
        grams = [partial(solvers._gram_eig, h, one_rank) for h in grads.inputs]
        return outcome(solve, curv, grads, cfg), outcome(solve, curv, grads, cfg, grams=grams)

    @pytest.mark.parametrize("setting", list(STACKED_SETTINGS))
    @pytest.mark.parametrize("seed,batch", [(0, 32), (1, 5), (2, 100)])
    def test_bitwise_equal_to_the_per_layer_path(self, monkeypatch, setting, seed, batch):
        # batch 5 factors the wide layers' Grams on the batch side, 100 none
        curv, grads = readme_problem(seed, batch)
        stacked = count_calls(monkeypatch, solvers, "_solve_stacked")
        fast, per_layer = self.both_paths(setting, curv, grads)
        assert fast[0] == "ok" and fast == per_layer
        assert len(stacked) == 1 and stacked[0][2] is not None  # no fallback

    @pytest.mark.parametrize("setting", list(STACKED_SETTINGS))
    def test_indefinite_block_named_before_a_later_non_finite_gradient(self, setting):
        curv, grads = readme_problem()
        curv[1] = -np.eye(curv[1].shape[0])
        grads.bias_per_instance[3][0, 0] = np.nan
        fast, per_layer = self.both_paths(setting, curv, grads)
        assert fast == per_layer
        assert fast[0] is NumericalBreakdownError and fast[1].startswith("layer 2: damped ")

    @pytest.mark.parametrize("setting", list(STACKED_SETTINGS))
    @pytest.mark.parametrize(
        "errstate,error,message",
        [
            ({"all": "raise"}, FloatingPointError, "layer 4: overflow encountered in divide"),
            ({}, NumericalBreakdownError, "layer 4: direction is not finite"),
        ],
        ids=["raise", "default"],
    )
    def test_overflow_names_its_layer(self, setting, errstate, error, message):
        # a finite gradient whose solve overflows: the stacked path raises
        # (or finds a non-finite direction) and the per-layer jobs name layer 4
        curv, grads = readme_problem()
        grads.grad_bias[3][...] = 1e308
        with np.errstate(**errstate), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fast, per_layer = self.both_paths(setting, curv, grads)
        assert fast == per_layer == (error, message)

    @pytest.mark.parametrize("setting", list(STACKED_SETTINGS))
    def test_block_symmetric_within_tolerance_gives_todays_direction(self, setting):
        curv, grads = readme_problem()
        curv[2][0, 1] = np.nextafter(curv[2][0, 1], np.inf)  # one ulp off its mirror
        assert not np.array_equal(curv[2], curv[2].T)
        fast, per_layer = self.both_paths(setting, curv, grads)
        assert fast[0] == "ok" and fast == per_layer

    @pytest.mark.parametrize("setting", list(STACKED_SETTINGS))
    def test_linalg_error_in_a_stacked_eigh_falls_back(self, monkeypatch, setting):
        curv, grads = readme_problem()
        eigh = np.linalg.eigh

        def fails_on_stacks(a):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", fails_on_stacks)
        fast, per_layer = self.both_paths(setting, curv, grads)
        assert fast[0] == "ok" and fast == per_layer
