import numpy as np
import pytest

from blocknewton.curvature import (
    CurvatureKind,
    covariance_bound_check,
    ea_curvature,
    exact_bias_hessian_instances,
    layerwise_error,
    true_bias_hessian,
)
from blocknewton.errors import ConfigError, DimensionError, NumericalBreakdownError
from blocknewton.fcnn import (
    Activation,
    CrossEntropySoftmax,
    FcnnModel,
    SigmoidGate,
    backprop,
    batch_pass,
    criterion_batch,
    forward,
)
from blocknewton.linalg import abs_eig, pos_eig
from helpers import both_criteria, gram, random_batch, random_model


def fd_bias_hessian(model, criterion, x, y, layer_t, step=1e-6):
    """Finite differences of the batch-mean bias gradient w.r.t. b^t."""
    n_t = model.biases[layer_t - 1].size
    hess = np.zeros((n_t, n_t))

    def grad_b(m):
        trace = forward(m, x)
        grads_out, _ = criterion_batch(criterion, trace.h[-1], y)
        return backprop(m, trace, grads_out).grad_bias[layer_t - 1]

    for j in range(n_t):
        mp, mm = model.copy(), model.copy()
        mp.biases[layer_t - 1] = mp.biases[layer_t - 1].copy()
        mm.biases[layer_t - 1] = mm.biases[layer_t - 1].copy()
        mp.biases[layer_t - 1][j] += step
        mm.biases[layer_t - 1][j] -= step
        hess[:, j] = (grad_b(mp) - grad_b(mm)) / (2 * step)
    return 0.5 * (hess + hess.T)


class TestTrueBiasHessian:
    def test_single_affine_layer_is_criterion_hessian(self):
        rng = np.random.default_rng(0)
        model = FcnnModel(weights=[rng.standard_normal((3, 4))], biases=[rng.standard_normal(3)])
        x = rng.uniform(size=(6, 4))
        y = np.eye(3)[rng.integers(0, 3, size=6)]
        trace = forward(model, x)
        criterion = CrossEntropySoftmax()
        _, hesses = criterion_batch(criterion, trace.h[-1], y)
        blocks = true_bias_hessian(model, batch_pass(model, criterion, x, y))
        assert len(blocks) == 1
        assert np.allclose(blocks[0], hesses().mean(axis=0), atol=1e-14)

    def test_relu_reduces_to_sandwich(self):
        # with h'' = 0 the recursion keeps only the sandwich term, so the
        # Gauss-Newton EA recursion on batch size 1 agrees with the exact one
        rng = np.random.default_rng(1)
        model = random_model(rng, activation=Activation.RELU)
        x, y = random_batch(rng, model, batch=1)
        criterion = CrossEntropySoftmax()
        bp = batch_pass(model, criterion, x, y)
        exact = true_bias_hessian(model, bp)
        gn = ea_curvature(model, bp, CurvatureKind.GAUSS_NEWTON)
        for e, c in zip(exact, gn):
            assert np.allclose(e, c, atol=1e-10)

    @pytest.mark.parametrize("criterion", both_criteria(), ids=["xent", "gate"])
    def test_matches_finite_differences(self, criterion):
        rng = np.random.default_rng(2)
        model = random_model(rng, max_width=6, max_layers=3)
        x, y = random_batch(rng, model, batch=4)
        blocks = true_bias_hessian(model, batch_pass(model, criterion, x, y))
        for t in range(1, model.num_layers + 1):
            fd = fd_bias_hessian(model, criterion, x, y, t)
            scale = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(blocks[t - 1] - fd)) <= 1e-5 * scale

    def test_rejects_mismatched_trace(self):
        model = FcnnModel.xavier([3, 2], seed=0)
        other = FcnnModel.xavier([4, 3, 2], seed=0)
        bp = batch_pass(other, CrossEntropySoftmax(), np.ones((2, 4)), np.eye(2)[[0, 1]])
        with pytest.raises(DimensionError):
            true_bias_hessian(model, bp)


@pytest.mark.parametrize("criterion", both_criteria(), ids=["xent", "gate"])
def test_diagonal_terms_bitwise_equal_recomputed_products(criterion):
    # backprop's products g^{t+1} W^{t+1} (grads.grad_h) feed the PCH
    # recursion and the exact recursion; both equal, bit for bit, the
    # expressions that recomputed the product
    rng = np.random.default_rng(21)
    for _ in range(3):
        model = random_model(rng)
        x, y = random_batch(rng, model, batch=6)
        bp = batch_pass(model, criterion, x, y)
        trace, gb, k = bp.trace, bp.grads.bias_per_instance, model.num_layers
        n = trace.batch_size
        mean_out = bp.hess_out.mean(axis=0)
        for gamma in (-1.0, 0.0):
            hb = pos_eig(0.5 * (mean_out + mean_out.T), gamma)
            expect_ea = [None] * k
            expect_ea[k - 1] = hb
            for t in range(k, 1, -1):
                w, hp = model.weights[t - 1], trace.hprime[t - 1]
                hb = (w.T @ hb @ w) * ((hp.T @ hp) / n)
                diag_term = (trace.hdprime[t - 1] * (gb[t - 1] @ w)).mean(axis=0)
                clipped = np.abs(diag_term) if gamma == -1.0 else np.maximum(diag_term, 0.0)
                hb = hb + np.diag(clipped)
                hb = 0.5 * (hb + hb.T)
                expect_ea[t - 2] = hb
            got_ea = ea_curvature(model, bp, CurvatureKind.PCH, gamma)
            for got, expect in zip(got_ea, expect_ea):
                assert np.array_equal(got, expect)
        expect_hbs = [None] * k
        expect_hbs[k - 1] = bp.hess_out
        for t in range(k, 1, -1):
            w, hp = model.weights[t - 1], trace.hprime[t - 1]
            sand = w.T @ expect_hbs[t - 1] @ w
            sand *= hp[:, :, None]
            sand *= hp[:, None, :]
            idx = np.arange(w.shape[1])
            sand[:, idx, idx] += trace.hdprime[t - 1] * (gb[t - 1] @ w)
            expect_hbs[t - 2] = sand
        for got, expect in zip(exact_bias_hessian_instances(model, bp), expect_hbs):
            assert np.array_equal(got, expect)


class TestEaCurvature:
    def test_convex_top_block_untouched_by_pch(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        x, y = random_batch(rng, model)
        criterion = CrossEntropySoftmax()
        trace = forward(model, x)
        _, hesses = criterion_batch(criterion, trace.h[-1], y)
        top = hesses().mean(axis=0)
        pch = ea_curvature(model, batch_pass(model, criterion, x, y), CurvatureKind.PCH, gamma=-1.0)
        assert np.allclose(pch[-1], 0.5 * (top + top.T), atol=1e-10)

    def test_batch_one_gram_is_rank_one(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        x, y = random_batch(rng, model, batch=1)
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        for h in bp.grads.inputs:
            eh = h.mean(axis=0)
            assert np.allclose(gram(h), np.outer(eh, eh), atol=1e-14)

    def test_batch_one_ea_recursion_collapses_to_exact(self):
        # expectations of a single instance are the instance itself, so the
        # EA recursion must reproduce the exact recursion (PCH without any
        # clipping triggered is compared against Gauss-Newton + diag handling)
        rng = np.random.default_rng(5)
        model = random_model(rng)
        x, y = random_batch(rng, model, batch=1)
        criterion = CrossEntropySoftmax()
        bp = batch_pass(model, criterion, x, y)
        exact = true_bias_hessian(model, bp)
        gn = ea_curvature(model, bp, CurvatureKind.GAUSS_NEWTON)
        # add back the (unclipped) diagonal term to the GN blocks
        for t in range(model.num_layers - 1, 0, -1):
            diag_term = (bp.trace.hdprime[t] * bp.grads.grad_h[t]).mean(axis=0)
            approx = gn[t - 1] + np.diag(diag_term)
            # GN drops the diag term entirely; exact = sandwich + diag only
            # when the propagated top block is identical, which holds for the
            # last hidden layer
            if t == model.num_layers - 1:
                assert np.allclose(approx, exact[t - 1], atol=1e-12)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    @pytest.mark.parametrize("criterion", both_criteria(), ids=["xent", "gate"])
    def test_pch_blocks_are_psd(self, gamma, criterion):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = random_model(rng)
            x, y = random_batch(rng, model)
            bp = batch_pass(model, criterion, x, y)
            curv = ea_curvature(model, bp, CurvatureKind.PCH, gamma)
            for hb in curv:
                assert np.min(np.linalg.eigvalsh(hb)) >= -1e-8

    def test_fisher_blocks_are_psd(self):
        rng = np.random.default_rng(7)
        for criterion in both_criteria():
            model = random_model(rng)
            x, y = random_batch(rng, model)
            bp = batch_pass(model, criterion, x, y)
            curv = ea_curvature(model, bp, CurvatureKind.FISHER)
            for hb in curv:
                assert np.min(np.linalg.eigvalsh(hb)) >= -1e-10

    @pytest.mark.parametrize("criterion", both_criteria(), ids=["xent", "gate"])
    def test_fisher_reads_no_output_hessian_or_second_derivative(self, criterion):
        rng = np.random.default_rng(22)
        model = random_model(rng)
        x, y = random_batch(rng, model)
        bp = batch_pass(model, criterion, x, y)
        ea_curvature(model, bp, CurvatureKind.FISHER)
        assert "hess_out" not in vars(bp)
        assert "hdprime" not in vars(bp.trace)

    def test_gauss_newton_goes_indefinite_under_nonconvex_criterion(self):
        rng = np.random.default_rng(8)
        criterion = SigmoidGate(delta=5.0, epsilon=0.2)
        saw_negative = False
        for _ in range(50):
            model = random_model(rng)
            x, y = random_batch(rng, model)
            bp = batch_pass(model, criterion, x, y)
            gn = ea_curvature(model, bp, CurvatureKind.GAUSS_NEWTON)
            if any(np.min(np.linalg.eigvalsh(l)) < -1e-10 for l in gn):
                saw_negative = True
                break
        assert saw_negative

    def test_non_finite_top_block_names_layer(self):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        x, y = random_batch(rng, model)
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        bp.hess_out[0, 0, 0] = np.inf
        k = model.num_layers
        with pytest.raises(NumericalBreakdownError, match=f"^layer {k}: top block: "):
            ea_curvature(model, bp, CurvatureKind.PCH)

    def test_rejects_bad_gamma(self):
        rng = np.random.default_rng(10)
        model = random_model(rng)
        x, y = random_batch(rng, model)
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        with pytest.raises(ConfigError):
            ea_curvature(model, bp, CurvatureKind.PCH, gamma=-0.5)


class TestLayerwiseError:
    def test_zero_when_approx_equals_abs_exact(self):
        rng = np.random.default_rng(11)
        exact = [np.diag([-1.0, 2.0]), rng.standard_normal((3, 3))]
        exact[1] = 0.5 * (exact[1] + exact[1].T)
        approx = [abs_eig(e) for e in exact]
        report = layerwise_error(approx, exact)
        assert all(err <= 1e-10 for err in report.per_layer)
        assert report.total <= 1e-10

    def test_hand_computed_case(self):
        # |diag(-1, 2)| = diag(1, 2); error vs zero matrix is sqrt(1 + 4)
        report = layerwise_error([np.zeros((2, 2))], [np.diag([-1.0, 2.0])])
        assert abs(report.per_layer[0] - np.sqrt(5.0)) < 1e-12

    def test_total_is_joint_frobenius_norm(self):
        rng = np.random.default_rng(12)
        exact = [0.5 * (m + m.T) for m in (rng.standard_normal((n, n)) for n in (2, 3, 4))]
        approx = [rng.standard_normal(e.shape) for e in exact]
        approx = [0.5 * (m + m.T) for m in approx]
        report = layerwise_error(approx, exact)
        assert abs(report.total**2 - sum(e**2 for e in report.per_layer)) <= 1e-9 * max(
            1.0, report.total**2
        )

    def test_convex_top_layer_error_is_zero_for_recursive_kinds(self):
        rng = np.random.default_rng(13)
        model = random_model(rng)
        x, y = random_batch(rng, model)
        criterion = CrossEntropySoftmax()
        bp = batch_pass(model, criterion, x, y)
        exact = true_bias_hessian(model, bp)
        for kind, gamma in [
            (CurvatureKind.GAUSS_NEWTON, -1.0),
            (CurvatureKind.PCH, -1.0),
            (CurvatureKind.PCH, 0.0),
        ]:
            curv = ea_curvature(model, bp, kind, gamma)
            report = layerwise_error(curv, exact)
            assert report.per_layer[-1] <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            layerwise_error([np.eye(2)], [np.eye(3)])


class TestCovarianceBound:
    def test_zero_variance_batch(self):
        rng = np.random.default_rng(14)
        model = random_model(rng)
        x, y = random_batch(rng, model, batch=1)
        x = np.repeat(x, 4, axis=0)
        y = np.repeat(y, 4, axis=0)
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        lhs, rhs = covariance_bound_check(model, bp, 2, model.activation.lipschitz)
        assert abs(lhs) < 1e-20 and abs(rhs) < 1e-20

    @pytest.mark.parametrize(
        "activation,lips",
        [(Activation.SIGMOID, 0.25), (Activation.RELU, 1.0)],
        ids=["sigmoid", "relu"],
    )
    def test_bound_holds_on_random_configs(self, activation, lips):
        rng = np.random.default_rng(15)
        for criterion in both_criteria():
            for _ in range(20):
                model = random_model(rng, activation=activation)
                x, y = random_batch(rng, model, batch=8)
                bp = batch_pass(model, criterion, x, y)
                for t in range(2, model.num_layers + 1):
                    lhs, rhs = covariance_bound_check(model, bp, t, lips)
                    assert lhs <= rhs + 1e-15

    def test_rejects_batch_of_one(self):
        rng = np.random.default_rng(16)
        model = random_model(rng)
        x, y = random_batch(rng, model, batch=1)
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        with pytest.raises(ConfigError):
            covariance_bound_check(model, bp, 2, 0.25)
