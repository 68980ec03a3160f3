import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocknewton.errors import ConfigError, DimensionError, NumericalBreakdownError
from blocknewton.linalg import (
    LinearOperator,
    cg_solve,
    check_symmetric,
    kron_apply,
    pos_eig,
    sym_eig,
)


def plain_cg(op, b, max_iter, eps_cg):
    """Unpreconditioned CG as cg_solve ran it before it took a preconditioner."""
    scale = max(1.0, float(np.linalg.norm(b)))
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    best_x, best_res = x.copy(), np.sqrt(rs) / scale
    iters = 0
    for k in range(1, max_iter + 1):
        ap = op.apply(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = b - op.apply(x) if k % 50 == 0 else r - alpha * ap
        rs_new = float(r @ r)
        iters = k
        res = np.sqrt(rs_new) / scale
        if res < best_res:
            best_res, best_x = res, x.copy()
        if res <= eps_cg:
            return x, iters, res
        p = r + (rs_new / rs) * p
        rs = rs_new
    return best_x, iters, best_res


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestSymEig:
    def test_identity(self):
        w, q = sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w, q = sym_eig(np.diag([-1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0])
        assert np.allclose(np.abs(q), np.eye(2), atol=1e-12)

    def test_exchange_matrix(self):
        w, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 24, 128, 784])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(n)
        a = random_symmetric(rng, n)
        w, q = sym_eig(a)
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-10 * n
        recon = (q * w) @ q.T
        assert np.linalg.norm(a - recon) <= 1e-9 * max(1.0, np.linalg.norm(a))

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_against_lapack_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_symmetric(rng, n)
        w, _ = sym_eig(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, rtol=1e-9, atol=1e-10)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_trace_det_invariants(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, n)
        w, _ = sym_eig(a)
        tr = np.trace(a)
        assert abs(np.sum(w) - tr) <= 1e-9 * max(1.0, abs(tr))
        det = np.linalg.det(a)
        assert abs(np.prod(w) - det) <= 1e-6 * max(1.0, abs(det))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # LAPACK would raise LinAlgError, which is no package error
        with pytest.raises(NumericalBreakdownError, match="not finite"):
            sym_eig(np.array([[1.0, bad], [bad, 1.0]]))


class TestCheckSymmetric:
    @staticmethod
    def perturbed(scale):
        # a 6 x 6 block of norm ~30, one off-diagonal entry moved by scale
        # times the tolerance 1e-11 max(1, |a|_F)
        a = 10.0 * random_symmetric(np.random.default_rng(7), 6)
        a[0, 1] += scale * 1e-11 * np.linalg.norm(a)
        return a

    def test_exactly_symmetric_returned_as_is(self):
        a = random_symmetric(np.random.default_rng(7), 6)
        assert check_symmetric(a) is a

    @pytest.mark.parametrize("scale", [0.5, 0.99])
    def test_asymmetry_inside_tolerance_accepted(self, scale):
        a = self.perturbed(scale)
        assert not np.array_equal(a, a.T)
        assert check_symmetric(a) is a

    @pytest.mark.parametrize("scale", [1.01, 2.0])
    def test_asymmetry_outside_tolerance_rejected(self, scale):
        with pytest.raises(DimensionError, match="block is not symmetric within tolerance"):
            check_symmetric(self.perturbed(scale), "block")

    def test_nan_left_to_the_finiteness_check(self):
        # a NaN compares unequal to itself, and the tolerance test cannot
        # reject it; sym_eig's finiteness check does
        a = np.array([[1.0, np.nan], [0.0, 1.0]])
        assert check_symmetric(a) is a
        with pytest.raises(NumericalBreakdownError):
            sym_eig(a)


class TestPosEig:
    def test_flip_negatives(self):
        out = pos_eig(np.diag([-1.0, 2.0]), gamma=-1.0)
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_zero_negatives(self):
        out = pos_eig(np.diag([-1.0, 2.0]), gamma=0.0)
        assert np.allclose(out, np.diag([0.0, 2.0]), atol=1e-12)

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 5)
        for gamma in (0.0, -1.0, -0.5):
            assert np.linalg.norm(pos_eig(a, gamma) - a) <= 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("gamma", [-1.0, -0.3, 0.0])
    def test_result_is_psd(self, gamma):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = random_symmetric(rng, int(rng.integers(2, 7)))
            w = np.linalg.eigvalsh(pos_eig(a, gamma))
            assert np.min(w) >= -1e-10

    def test_rejects_positive_gamma(self):
        with pytest.raises(ConfigError):
            pos_eig(np.eye(2), gamma=0.5)


class TestKronApply:
    def test_identity(self):
        v = np.arange(6.0)
        assert np.allclose(kron_apply(np.eye(2), np.eye(3), v), v)

    def test_diagonal_case(self):
        # (I^T kron diag(2,3)) vec(B) scales rows of B
        out = kron_apply(np.diag([2.0, 3.0]), np.eye(2), np.ones(4))
        assert np.allclose(out, [2.0, 3.0, 2.0, 3.0])

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (2, 5), (6, 6)])
    def test_matches_materialized_kronecker(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        for _ in range(5):
            a = rng.standard_normal((m, m))
            c = rng.standard_normal((n, n))
            v = rng.standard_normal(m * n)
            dense = np.kron(c.T, a) @ v
            assert np.allclose(kron_apply(a, c, v), dense, atol=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(DimensionError):
            kron_apply(np.eye(2), np.eye(2), np.ones(5))


class TestCgSolve:
    def test_identity_one_iteration(self):
        op = LinearOperator.from_matrix(np.eye(3))
        x, iters, res = cg_solve(op, np.array([1.0, 2.0, 3.0]), 10, 1e-12)
        assert iters == 1
        assert np.allclose(x, [1.0, 2.0, 3.0])
        assert res <= 1e-12

    def test_diagonal_exact_in_n_steps(self):
        rng = np.random.default_rng(3)
        d = np.arange(1.0, 11.0)
        op = LinearOperator.from_matrix(np.diag(d))
        b = rng.standard_normal(10)
        x, _, res = cg_solve(op, b, 10, 1e-12)
        assert res <= 1e-10
        assert np.allclose(x, b / d, atol=1e-9)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 20))
        a = a @ a.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        x, _, _ = cg_solve(LinearOperator.from_matrix(a), b, 200, 1e-13)
        expected = np.linalg.solve(a, b)
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [2, 5, 12, 30])
    def test_finite_termination_property(self, n):
        rng = np.random.default_rng(40 + n)
        a = rng.standard_normal((n, n))
        a = a @ a.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x, _, _ = cg_solve(LinearOperator.from_matrix(a), b, n, 1e-12)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_exact_preconditioner_one_iteration(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 12))
        a = a @ a.T + 0.1 * np.eye(12)
        b = rng.standard_normal(12)
        inv = np.linalg.inv(a)
        x, iters, res = cg_solve(LinearOperator.from_matrix(a), b, 12, 1e-10, lambda r: inv @ r)
        assert iters == 1
        assert res <= 1e-10
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("case", ["spd", "recompute_residual", "indefinite", "max_iter"])
    def test_default_is_plain_cg(self, case):
        # the identity default reproduces plain CG bit for bit, including the
        # residual recomputed every 50 iterations and the non-positive stop
        rng = np.random.default_rng(7)
        n = 80 if case == "recompute_residual" else 10
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = np.geomspace(1e-3, 1e3, n)
        if case == "indefinite":
            spectrum[:3] *= -1
        a = (q * spectrum) @ q.T
        b = rng.standard_normal(n)
        max_iter = 3 if case == "max_iter" else 200
        op = LinearOperator.from_matrix(a)
        got = cg_solve(op, b, max_iter, 1e-12)
        expect = plain_cg(op, b, max_iter, 1e-12)
        assert np.array_equal(got[0], expect[0])
        assert got[1:] == expect[1:]

    def test_nan_raises_with_iteration(self):
        op = LinearOperator(dim=2, apply=lambda v: np.array([np.nan, np.nan]))
        with pytest.raises(NumericalBreakdownError, match="iteration"):
            cg_solve(op, np.ones(2), 5, 1e-10)

    def test_rejects_bad_rhs_shape(self):
        with pytest.raises(DimensionError):
            cg_solve(LinearOperator.from_matrix(np.eye(2)), np.ones(3), 5, 1e-10)
