import sys
import threading
from functools import partial

import numpy as np
import pytest

from blocknewton import solvers
from blocknewton.curvature import CurvatureKind, LayerCurvature, ea_curvature
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
    sherman_morrison_apply,
)
from helpers import count_calls, forbid_shape, gram, random_batch, random_model


def make_curvature(rng, n_out, n_in, psd_shift=1.0):
    m = rng.standard_normal((n_out, n_out))
    hb = m @ m.T / n_out + psd_shift * np.eye(n_out)
    h = rng.standard_normal((8, n_in))
    return LayerCurvature(hb=hb, h=h, eh=h.mean(axis=0))


def make_grads(rng, shapes):
    gw = [rng.standard_normal(s) for s in shapes]
    gb = [rng.standard_normal(s[0]) for s in shapes]
    return LayerGradients(grad_bias=gb, grad_weight=gw, bias_per_instance=None)


def trace_norm_pi(layer, n_out, n_in):
    return np.sqrt((np.trace(gram(layer.h)) / n_in) / (np.trace(layer.hb) / n_out))


def gram_guarded_problem():
    """One 3 x 12 layer on an 8-row batch whose input data raise on any
    12 x 12 result, the shape of E[h h^T]."""
    rng = np.random.default_rng(11)
    base = make_curvature(rng, 3, 12)
    guard = forbid_shape((12, 12))
    with pytest.raises(AssertionError):  # the guard trips on the Gram matrix itself
        gram(base.h.view(guard))
    layer = LayerCurvature(hb=base.hb, h=base.h.view(guard), eh=base.eh.view(guard))
    return [layer], make_grads(rng, [(3, 12)])


def model_problem(seed, batch=5, kind=CurvatureKind.PCH):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    x, y = random_batch(rng, model, batch=batch)
    criterion = CrossEntropySoftmax()
    bp = batch_pass(model, criterion, x, y)
    curv = ea_curvature(model, bp, kind)
    return curv, bp.grads


class TestEaCg:
    def test_zero_curvature_scales_gradient(self):
        # with H = 0 the damped system is alpha * d = -g
        rng = np.random.default_rng(0)
        shapes = [(3, 4)]
        curv = [
            LayerCurvature(
                hb=np.zeros((3, 3)), h=np.zeros((1, 4)), eh=np.zeros(4)
            )
        ]
        grads = make_grads(rng, shapes)
        cfg = SolverConfig(alpha=0.5, max_cg=30)
        d = ea_cg_direction(curv, grads, cfg)
        assert np.allclose(d.d_weight[0], -2.0 * grads.grad_weight[0], atol=1e-12)
        assert np.allclose(d.d_bias[0], -2.0 * grads.grad_bias[0], atol=1e-12)

    def test_dense_kronecker_oracle(self):
        rng = np.random.default_rng(1)
        alpha = 0.02
        cfg = SolverConfig(alpha=alpha, max_cg=200, eps_cg=1e-14)
        for n_out, n_in in [(4, 3), (3, 2)]:
            curv = [make_curvature(rng, n_out, n_in)]
            grads = make_grads(rng, [(n_out, n_in)])
            d = ea_cg_direction(curv, grads, cfg)

            big = (1 - alpha) * np.kron(gram(curv[0].h), curv[0].hb) + alpha * np.eye(
                n_out * n_in
            )
            expect = np.linalg.solve(big, -grads.grad_weight[0].reshape(-1, order="F"))
            assert np.max(np.abs(d.d_weight[0].reshape(-1, order="F") - expect)) <= 1e-8

            small = (1 - alpha) * curv[0].hb + alpha * np.eye(n_out)
            expect_b = np.linalg.solve(small, -grads.grad_bias[0])
            assert np.max(np.abs(d.d_bias[0] - expect_b)) <= 1e-8

    @pytest.mark.parametrize("mode", list(HvpMode))
    def test_dense_kronecker_oracle_batch_narrower_than_layer(self, mode):
        # 8 batch rows against 12 inputs: E[h h^T] has rank 8, the shape where
        # the factored product is cheaper than the Gram matrix
        rng = np.random.default_rng(9)
        alpha = 0.02
        cfg = SolverConfig(alpha=alpha, max_cg=200, eps_cg=1e-14, hvp_mode=mode)
        curv = [make_curvature(rng, 3, 12)]
        grads = make_grads(rng, [(3, 12)])
        d = ea_cg_direction(curv, grads, cfg)

        eh = curv[0].eh
        right = gram(curv[0].h) if mode is HvpMode.EXACT_KRON else np.outer(eh, eh)
        big = (1 - alpha) * np.kron(right, curv[0].hb) + alpha * np.eye(36)
        expect = np.linalg.solve(big, -grads.grad_weight[0].reshape(-1, order="F"))
        assert np.max(np.abs(d.d_weight[0].reshape(-1, order="F") - expect)) <= 1e-8

    @pytest.mark.parametrize("mode", list(HvpMode))
    def test_exact_preconditioner_solves_in_one_iteration(self, mode):
        # one CG iteration is the dense solution on a layer narrower than the
        # 8-row batch, one wider, and a one-input layer (narrow in both modes)
        rng = np.random.default_rng(12)
        alpha = 0.02
        cfg = SolverConfig(alpha=alpha, max_cg=1, eps_cg=1e-14, hvp_mode=mode)
        for n_out, n_in in [(4, 3), (3, 12), (2, 1)]:
            curv = [make_curvature(rng, n_out, n_in)]
            grads = make_grads(rng, [(n_out, n_in)])
            d = ea_cg_direction(curv, grads, cfg)

            eh = curv[0].eh
            right = gram(curv[0].h) if mode is HvpMode.EXACT_KRON else np.outer(eh, eh)
            big = (1 - alpha) * np.kron(right, curv[0].hb) + alpha * np.eye(n_out * n_in)
            expect = np.linalg.solve(big, -grads.grad_weight[0].reshape(-1, order="F"))
            assert np.max(np.abs(d.d_weight[0].reshape(-1, order="F") - expect)) <= 1e-8

            small = (1 - alpha) * curv[0].hb + alpha * np.eye(n_out)
            expect_b = np.linalg.solve(small, -grads.grad_bias[0])
            assert np.max(np.abs(d.d_bias[0] - expect_b)) <= 1e-8

    @pytest.mark.parametrize("mode", list(HvpMode))
    def test_factors_each_layer_once(self, monkeypatch, mode):
        # two sym_eig per layer, one of hb and one of the Gram matrix, each
        # one eigh, and one weight solve of one CG iteration per layer; the
        # bias needs no CG
        sym_eig = count_calls(monkeypatch, solvers, "sym_eig")
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        cg = count_calls(monkeypatch, solvers, "cg_solve")
        layers = 0
        for seed in range(5):
            curv, grads = model_problem(seed=seed)
            sym_eig.clear()  # model_problem's pos_eig calls sym_eig too
            eigh.clear()
            ea_cg_direction(curv, grads, SolverConfig(hvp_mode=mode))
            layers += len(curv)
            assert len(sym_eig) == 2 * len(curv)
            assert len(eigh) == 2 * len(curv)
            factored = [args[0] for args, _, _ in sym_eig]
            assert all(any(a is layer.hb for a in factored) for layer in curv)
        assert [result[1] for _, _, result in cg] == [1] * layers

    @pytest.mark.parametrize("fault", ["indefinite_hb", "non_finite_hb", "non_finite_h"])
    def test_breakdown_names_layer(self, fault):
        rng = np.random.default_rng(10)
        alpha = 0.02
        curv = [make_curvature(rng, 3, 4), make_curvature(rng, 2, 3)]
        if fault == "indefinite_hb":
            # (1 - alpha) lam + alpha < 0 for the bias, as for the weights
            curv[1].hb = np.diag([-1.0, 1.0])
        elif fault == "non_finite_hb":
            curv[1].hb[0, 0] = np.inf
        else:
            curv[1].h[0, 0] = np.nan
        grads = make_grads(rng, [(3, 4), (2, 3)])
        with pytest.raises(NumericalBreakdownError, match="layer 2: "):
            ea_cg_direction(curv, grads, SolverConfig(alpha=alpha))

    @pytest.mark.parametrize("mode", list(HvpMode))
    def test_ea_cg_never_forms_gram_matrix(self, mode):
        curv, grads = gram_guarded_problem()
        d = ea_cg_direction(curv, grads, SolverConfig(hvp_mode=mode))
        assert np.all(np.isfinite(d.flat()))

    def test_batch_one_hvp_modes_agree(self):
        # a single instance makes E[h h^T] = E[h] E[h]^T exactly, so both
        # Hessian-vector-product routes solve the same system
        curv, grads = model_problem(seed=2, batch=1)
        cfg_exact = SolverConfig(alpha=0.02, max_cg=100, eps_cg=1e-13)
        cfg_rank1 = SolverConfig(
            alpha=0.02, max_cg=100, eps_cg=1e-13, hvp_mode=HvpMode.EA_ONE_RANK
        )
        d1 = ea_cg_direction(curv, grads, cfg_exact)
        d2 = ea_cg_direction(curv, grads, cfg_rank1)
        assert np.max(np.abs(d1.flat() - d2.flat())) <= 1e-10

    def test_one_rank_mode_never_reads_gram_matrix(self):
        class Poison:
            def __getattr__(self, name):
                raise AssertionError("Gram matrix must not be touched")

            def __matmul__(self, other):
                raise AssertionError("Gram matrix must not be touched")

        rng = np.random.default_rng(3)
        base = make_curvature(rng, 3, 4)
        curv = [LayerCurvature(hb=base.hb, h=Poison(), eh=base.eh)]
        grads = make_grads(rng, [(3, 4)])
        cfg = SolverConfig(alpha=0.1, max_cg=50, hvp_mode=HvpMode.EA_ONE_RANK)
        d = ea_cg_direction(curv, grads, cfg)
        assert np.all(np.isfinite(d.flat()))

    def test_directions_are_descent(self):
        for seed in range(5):
            curv, grads = model_problem(seed=seed)
            d = ea_cg_direction(curv, grads, SolverConfig())
            inner = float(d.flat() @ grads.flat())
            assert inner < 0

    def test_layer_count_mismatch(self):
        # KFI too: zip would otherwise truncate to the shorter list
        rng = np.random.default_rng(4)
        curv = [make_curvature(rng, 3, 4)]
        grads = make_grads(rng, [(3, 4), (2, 3)])
        with pytest.raises(DimensionError):
            ea_cg_direction(curv, grads, SolverConfig())
        with pytest.raises(DimensionError):
            kfi_direction(curv, grads, 0.02)


def paper_width_problem(seed=16):
    """The 784-256-128-64-10 layer stack on a 128-row batch: the widest hb,
    256 x 256, is wide enough for EA-CG to factor on a helper thread."""
    rng = np.random.default_rng(seed)
    shapes = [(256, 784), (128, 256), (64, 128), (10, 64)]
    curv = []
    for n_out, n_in in shapes:
        m = rng.standard_normal((n_out, n_out))
        h = rng.uniform(0.0, 1.0, size=(128, n_in))
        curv.append(LayerCurvature(hb=m @ m.T / n_out + np.eye(n_out), h=h, eh=h.mean(axis=0)))
    return curv, make_grads(rng, shapes)


# (curv, grads) -> NewtonDirection under each solver configuration, the
# EA-CG ones named by their hvp_mode
EA_CG = partial(ea_cg_direction, cfg=SolverConfig())
KFI = partial(kfi_direction, alpha=0.02)
EVERY_SOLVE = [
    pytest.param(partial(ea_cg_direction, cfg=SolverConfig(hvp_mode=mode)), id=str(mode))
    for mode in HvpMode
] + [
    pytest.param(partial(kfi_direction, alpha=0.02, pi_policy=policy), id=f"kfi-{policy.value}")
    for policy in PiPolicy
]


@pytest.mark.parametrize("solve", [EA_CG, KFI], ids=["ea_cg", "kfi"])
def test_weight_directions_are_c_contiguous(solve):
    # the in-place step W += lr * d then reads d in W's own order
    curv, grads = paper_width_problem()
    d = solve(curv, grads)
    for dw, gw in zip(d.d_weight, grads.grad_weight):
        assert dw.shape == gw.shape
        assert dw.flags.c_contiguous


class TestEaCgOverlap:
    """The helper-thread factorization, which both solvers share."""

    @pytest.fixture
    def threads(self, monkeypatch):
        # two usable CPUs on any host, and every thread started recorded
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        return count_calls(monkeypatch, threading, "Thread")

    @pytest.mark.parametrize("solve", EVERY_SOLVE)
    def test_bit_identical_to_inline(self, monkeypatch, threads, solve):
        curv, grads = paper_width_problem()
        floor = solvers._OVERLAP_MIN_WIDTH
        monkeypatch.setattr(solvers, "_OVERLAP_MIN_WIDTH", 10**9)
        inline = solve(curv, grads).flat().view(np.uint64)
        assert threads == []
        monkeypatch.setattr(solvers, "_OVERLAP_MIN_WIDTH", floor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            for _ in range(20):
                d = solve(curv, grads)
                assert np.array_equal(d.flat().view(np.uint64), inline)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == 20

    def test_readme_net_starts_no_thread(self, threads):
        rng = np.random.default_rng(17)
        model = FcnnModel.xavier([64, 32, 16, 16, 8, 8, 8, 10], Activation.SIGMOID, rng=rng)
        x, y = random_batch(rng, model, batch=32)
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        curv = ea_curvature(model, bp, CurvatureKind.PCH)
        for solve in (EA_CG, KFI):
            assert np.all(np.isfinite(solve(curv, bp.grads).flat()))
        assert threads == []

    # layer 1's hb is factored on the calling thread, layer 3's on the helper
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
    }

    @pytest.mark.parametrize(
        "solve,faults,error,message",
        [pytest.param(EA_CG, *case, id=name) for name, case in ERROR_CASES.items()]
        + [pytest.param(KFI, *case, id=f"kfi-{name}") for name, case in ERROR_CASES.items()],
    )
    def test_error_names_lowest_failing_layer(self, threads, solve, faults, error, message):
        curv, grads = paper_width_problem()
        for t, fault in faults.items():
            layer = curv[t - 1]
            if fault == "hb":
                layer.hb[0, 0] = np.inf
            elif fault == "h":
                layer.h[0, 0] = np.nan
            else:
                layer.hb[0, 1] += 1.0
        with pytest.raises(error) as excinfo:
            solve(curv, grads)
        assert str(excinfo.value) == message
        assert len(threads) == 1


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": 0.0}, {"alpha": 1.0}, {"max_cg": 0}, {"eps_cg": 0.0}],
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
        curv = [make_curvature(rng, *s) for s in shapes]
        grads = make_grads(rng, shapes)
        d = kfi_direction(curv, grads, alpha, pi_policy=policy)
        for layer, gw, gb, dw, db in zip(
            curv, grads.grad_weight, grads.grad_bias, d.d_weight, d.d_bias
        ):
            n_out, n_in = gw.shape
            pi = trace_norm_pi(layer, n_out, n_in) if policy is PiPolicy.TRACE_NORM else 1.0
            g_fac = layer.hb + (sqrt_a / pi) * np.eye(n_out)
            h_fac = gram(layer.h) + pi * sqrt_a * np.eye(n_in)
            expect_w = -np.linalg.solve(g_fac, gw) @ np.linalg.inv(h_fac)
            expect_b = -np.linalg.solve(layer.hb + sqrt_a * np.eye(n_out), gb)
            assert np.max(np.abs(dw - expect_w)) <= 1e-8
            assert np.max(np.abs(db - expect_b)) <= 1e-8

    def test_full_column_rank_factor_does_not_cancel(self):
        # a 16 x 6 factor of scale 1e5 makes H's eigenvalues span 1e10 / 0.14:
        # x / c minus its own projection over c left ~eps |x| / c behind
        rng = np.random.default_rng(15)
        alpha = 0.02
        sqrt_a = np.sqrt(alpha)
        layer = make_curvature(rng, 3, 6)
        layer.h = rng.standard_normal((16, 6)) * 1e5
        layer.eh = layer.h.mean(axis=0)
        grads = make_grads(rng, [(3, 6)])
        d = kfi_direction([layer], grads, alpha)
        g_fac = layer.hb + sqrt_a * np.eye(3)
        h_fac = gram(layer.h) + sqrt_a * np.eye(6)
        expect = -np.linalg.solve(g_fac, grads.grad_weight[0]) @ np.linalg.inv(h_fac)
        rel = np.linalg.norm(d.d_weight[0] - expect) / np.linalg.norm(expect)
        assert rel <= 1e-12

    def test_kfi_never_forms_gram_matrix(self):
        curv, grads = gram_guarded_problem()
        for policy in PiPolicy:
            d = kfi_direction(curv, grads, 0.02, policy)
            assert np.all(np.isfinite(d.flat()))

    def test_factors_each_layer_once(self, monkeypatch):
        curv, grads = model_problem(seed=3)
        sym_eig = count_calls(monkeypatch, solvers, "sym_eig")
        svd = count_calls(monkeypatch, np.linalg, "svd")
        kfi_direction(curv, grads, 0.02, PiPolicy.TRACE_NORM)
        # one sym_eig of each hb and one of each input factor's Gram matrix
        calls = {"sym_eig": len(sym_eig), "svd": len(svd)}
        assert calls == {"sym_eig": 2 * len(curv), "svd": 0}

    @pytest.mark.parametrize("fault", ["indefinite_hb", "non_finite_hb", "non_finite_h"])
    def test_breakdown_names_layer(self, fault):
        rng = np.random.default_rng(10)
        alpha = 0.02
        curv = [make_curvature(rng, 3, 4), make_curvature(rng, 2, 3)]
        if fault == "indefinite_hb":
            curv[1].hb = np.diag([-2.0 * np.sqrt(alpha), 1.0])  # below -sqrt(alpha)
        elif fault == "non_finite_hb":
            curv[1].hb[0, 0] = np.inf
        else:
            curv[1].h[0, 0] = np.nan
        grads = make_grads(rng, [(3, 4), (2, 3)])
        with pytest.raises(NumericalBreakdownError, match="layer 2"):
            kfi_direction(curv, grads, alpha)

    def test_descent_on_model_problems(self):
        for seed in range(5):
            curv, grads = model_problem(seed=seed)
            d = kfi_direction(curv, grads, alpha=0.02)
            assert float(d.flat() @ grads.flat()) < 0

    def test_rejects_bad_alpha(self):
        rng = np.random.default_rng(8)
        curv = [make_curvature(rng, 3, 4)]
        grads = make_grads(rng, [(3, 4)])
        with pytest.raises(ConfigError):
            kfi_direction(curv, grads, alpha=1.5)
