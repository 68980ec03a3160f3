"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import json
import time

import numpy as np
import pytest

from blocknewton.cli import EXIT_OK, cli
from blocknewton.curvature import (
    CurvatureKind,
    covariance_bound_check,
    ea_curvature,
    layerwise_error,
    true_bias_hessian,
)
from blocknewton.data import synth_blobs
from blocknewton.experiments import ExperimentSpec, median_total_errors
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
from blocknewton.solvers import (
    HvpMode,
    SolverConfig,
    ea_cg_direction,
    kfi_direction,
    sherman_morrison_apply,
)
from blocknewton.trainer import SecondOrderSpec, SolverChoice, TrainConfig, train
from helpers import (
    assert_close_rel,
    both_criteria,
    fd_loss_gradient,
    flat_direction,
    flat_gradient,
    gram,
    random_batch,
    random_model,
    weight_gradients,
)
from test_curvature import fd_bias_hessian
from test_solvers import make_layer, make_problem, quadratic_guarded_problem


def report(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    ok = True
    for i in range(50):
        criterion = both_criteria()[i % 2]
        model = random_model(rng, max_width=8, max_layers=4)
        x, y = random_batch(rng, model, batch=3)
        trace = forward(model, x)
        go, _ = criterion_batch(criterion, trace.h[-1], y)
        grads = backprop(model, trace, go)
        fd = fd_loss_gradient(model, criterion, x, y)
        analytic = flat_gradient(grads)
        denom = np.maximum(np.abs(fd), 1e-9 / 1e-6)
        ok &= bool(np.max(np.abs(analytic - fd) / denom) <= 1e-6)
    elapsed = time.perf_counter() - start
    report(
        f"criterion 1: backprop gradients vs finite differences, 50 nets "
        f"({elapsed:.1f}s)",
        ok and elapsed < 30,
    )


def test_criterion_2_exact_hessian_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    ok = True
    for i in range(20):
        criterion = both_criteria()[i % 2]
        model = random_model(rng, max_width=6, max_layers=4)
        x, y = random_batch(rng, model, batch=3)
        blocks = true_bias_hessian(model, batch_pass(model, criterion, x, y))
        for t in range(1, model.num_layers + 1):
            fd = fd_bias_hessian(model, criterion, x, y, t)
            scale = max(1.0, float(np.max(np.abs(fd))))
            ok &= bool(np.max(np.abs(blocks[t - 1] - fd)) <= 1e-5 * scale)
    elapsed = time.perf_counter() - start
    report(
        f"criterion 2: exact bias-Hessian recursion vs finite differences, "
        f"20 nets ({elapsed:.1f}s)",
        ok and elapsed < 60,
    )


def test_criterion_3_psd_suite():
    rng = np.random.default_rng(300)
    ok = True
    saw_indefinite_gn = False
    gate = SigmoidGate()
    for i in range(100):
        criterion = both_criteria()[i % 2]
        model = random_model(rng)
        x, y = random_batch(rng, model)
        bp = batch_pass(model, criterion, x, y)
        for kind, gamma in [
            (CurvatureKind.PCH, -1.0),
            (CurvatureKind.PCH, 0.0),
            (CurvatureKind.FISHER, -1.0),
        ]:
            curv = ea_curvature(model, bp, kind, gamma)
            ok &= all(
                float(np.min(np.linalg.eigvalsh(l))) >= -1e-8 for l in curv
            )
        if isinstance(criterion, SigmoidGate) and not saw_indefinite_gn:
            gn = ea_curvature(model, batch_pass(model, gate, x, y), CurvatureKind.GAUSS_NEWTON)
            saw_indefinite_gn = any(
                float(np.min(np.linalg.eigvalsh(l))) < -1e-10 for l in gn
            )
    report(
        "criterion 3: PCH/Fisher blocks PSD on 100 nets; Gauss-Newton "
        "indefinite under the non-convex criterion",
        ok and saw_indefinite_gn,
    )


def test_criterion_4_output_layer_exactness():
    rng = np.random.default_rng(400)
    ok = True
    criterion = CrossEntropySoftmax()
    for _ in range(10):
        model = random_model(rng)
        x, y = random_batch(rng, model)
        bp = batch_pass(model, criterion, x, y)
        exact = true_bias_hessian(model, bp)
        for kind, gamma in [
            (CurvatureKind.GAUSS_NEWTON, -1.0),
            (CurvatureKind.PCH, -1.0),
            (CurvatureKind.PCH, 0.0),
        ]:
            curv = ea_curvature(model, bp, kind, gamma)
            err = layerwise_error(curv, exact)
            ok &= err.per_layer[-1] <= 1e-10
    report(
        "criterion 4: output-layer curvature error 0 for GN/PCH-1/PCH-2 "
        "under cross-entropy",
        ok,
    )


def test_criterion_5_error_ordering_small_deep_net():
    spec = ExperimentSpec(
        architecture=[16, 12, 10, 10, 8, 8, 8, 6],
        activation=Activation.SIGMOID,
        criterion=CrossEntropySoftmax(),
        train_cfg=TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=0),
        dataset={"kind": "blobs", "classes": 6, "dim": 16, "per_class": 20, "spread": 0.08},
        compare_steps=10,
    )
    medians = median_total_errors(spec, seeds=[0, 1, 2, 3, 4])
    ok = medians["pch1"] < medians["fisher"]
    report(
        f"criterion 5: median total error over 5 seeds, 8-layer sigmoid net: "
        f"PCH-1 {medians['pch1']:.4f} < Fisher {medians['fisher']:.4f}",
        ok,
    )


def test_criterion_6_ea_cg_correctness():
    rng = np.random.default_rng(600)
    ok = True
    # dense materialized-Kronecker oracle
    alpha = 0.02
    cfg = SolverConfig(alpha=alpha)
    for n_out, n_in in [(4, 3), (3, 2)]:
        curv, grads = make_problem(rng, [make_layer(rng, n_out, n_in)])
        d = ea_cg_direction(curv, grads, cfg)
        big = (1 - alpha) * np.kron(gram(grads.inputs[0]), curv[0]) + alpha * np.eye(
            n_out * n_in
        )
        expect = np.linalg.solve(big, -weight_gradients(grads)[0].reshape(-1, order="F"))
        ok &= bool(
            np.max(np.abs(d.d_weight[0].reshape(-1, order="F") - expect)) <= 1e-8
        )

    # batch-size-1 agreement between HVP modes
    model = random_model(rng)
    x, y = random_batch(rng, model, batch=1)
    criterion = CrossEntropySoftmax()
    bp = batch_pass(model, criterion, x, y)
    grads = bp.grads
    curv = ea_curvature(model, bp, CurvatureKind.PCH)
    d1 = ea_cg_direction(curv, grads, SolverConfig(alpha=0.02))
    d2 = ea_cg_direction(
        curv,
        grads,
        SolverConfig(alpha=0.02, hvp_mode=HvpMode.EA_ONE_RANK),
    )
    ok &= bool(np.max(np.abs(flat_direction(d1) - flat_direction(d2))) <= 1e-10)

    # structural guarantee: no Gram matrix of h is formed in one-rank mode
    # (h itself is read, as the weight gradient's factor)
    poisoned, pgrads = quadratic_guarded_problem(rng)
    dp = ea_cg_direction(
        poisoned, pgrads, SolverConfig(alpha=0.1, hvp_mode=HvpMode.EA_ONE_RANK)
    )
    ok &= bool(np.all(np.isfinite(flat_direction(dp))))
    report(
        "criterion 6: EA-CG matches dense Kronecker solve (1e-8), HVP modes "
        "agree at batch 1 (1e-10), one-rank mode avoids quadratic factors",
        ok,
    )


def test_criterion_7_kfi_correctness():
    rng = np.random.default_rng(700)
    ok = True
    alpha = 0.02
    sqrt_a = np.sqrt(alpha)
    shapes = [(4, 3), (3, 4)]
    curv, grads = make_problem(rng, [make_layer(rng, *s) for s in shapes])
    d = kfi_direction(curv, grads, SolverConfig(alpha=alpha))
    for hb, h, gw, gb, dw, db in zip(
        curv, grads.inputs, weight_gradients(grads), grads.grad_bias, d.d_weight, d.d_bias
    ):
        n_out, n_in = gw.shape
        g_fac = hb + sqrt_a * np.eye(n_out)
        h_fac = gram(h) + sqrt_a * np.eye(n_in)
        expect_w = -np.linalg.solve(g_fac, gw) @ np.linalg.inv(h_fac)
        expect_b = -np.linalg.solve(hb + sqrt_a * np.eye(n_out), gb)
        ok &= bool(np.max(np.abs(dw - expect_w)) <= 1e-8)
        ok &= bool(np.max(np.abs(db - expect_b)) <= 1e-8)

    for _ in range(10):
        n = int(rng.integers(2, 8))
        eh = rng.standard_normal(n)
        v = rng.standard_normal(n)
        damp = float(rng.uniform(0.05, 2.0))
        dense = np.linalg.solve(np.outer(eh, eh) + damp * np.eye(n), v)
        ok &= bool(np.max(np.abs(sherman_morrison_apply(eh, damp, v) - dense)) <= 1e-10)
    report(
        "criterion 7: KFI matches per-factor dense inverses (1e-8); "
        "Sherman-Morrison matches dense inverse (1e-10)",
        ok,
    )


def test_criterion_8_covariance_bound():
    rng = np.random.default_rng(800)
    ok = True
    for activation, lips in [(Activation.SIGMOID, 0.25), (Activation.RELU, 1.0)]:
        for i in range(100):
            criterion = both_criteria()[i % 2]
            model = random_model(rng, activation=activation)
            x, y = random_batch(rng, model, batch=8)
            bp = batch_pass(model, criterion, x, y)
            for t in range(2, model.num_layers + 1):
                lhs, rhs = covariance_bound_check(model, bp, t, lips)
                ok &= lhs <= rhs + 1e-15
    report(
        "criterion 8: covariance error bound holds on 100 sigmoid and "
        "100 ReLU configurations at batch 8",
        ok,
    )


def test_criterion_9_training_smoke():
    start = time.perf_counter()
    ds = synth_blobs(classes=2, dim=8, per_class=60, spread=0.08, seed=42)
    x_train, y_train, x_test, y_test = ds.split()
    criterion = CrossEntropySoftmax()
    arch = [8, 10, 2]

    def run(second_order, lr):
        model = FcnnModel.xavier(arch, seed=42)
        cfg = TrainConfig(
            learning_rate=lr, epochs=10, batch_size=16, seed=42, second_order=second_order
        )
        return train(model, criterion, x_train, y_train, cfg, x_test, y_test)

    def monotone(report_):
        losses = [e.loss for e in report_.epochs[:10]]
        return all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    optimizers = {
        "sgd": (None, [0.05, 0.1, 0.2]),
        "pch1+ea_cg": (
            SecondOrderSpec(kind=CurvatureKind.PCH, gamma=-1.0, solver=SolverChoice.EA_CG),
            [0.2, 0.5, 1.0],
        ),
        "fisher+ea_cg": (
            SecondOrderSpec(kind=CurvatureKind.FISHER, solver=SolverChoice.EA_CG),
            [0.2, 0.5, 1.0],
        ),
        "fisher+kfi": (
            SecondOrderSpec(kind=CurvatureKind.FISHER, solver=SolverChoice.KFI),
            [0.2, 0.5, 1.0],
        ),
    }
    ok = True
    best = {}
    for name, (spec, lrs) in optimizers.items():
        found = False
        for lr in lrs:
            r = run(spec, lr)
            if monotone(r):
                found = True
                prev = best.get(name)
                if prev is None or r.final_loss < prev:
                    best[name] = r.final_loss
        ok &= found

    ok &= "pch1+ea_cg" in best and "sgd" in best and best["pch1+ea_cg"] <= best["sgd"]
    elapsed = time.perf_counter() - start
    report(
        f"criterion 9: all four optimizers reduce loss monotonically over 10 "
        f"epochs; PCH-1+EA-CG final {best.get('pch1+ea_cg', float('nan')):.4f} <= "
        f"SGD final {best.get('sgd', float('nan')):.4f} ({elapsed:.0f}s)",
        ok and elapsed < 300,
    )


def test_criterion_10_determinism(tmp_path):
    doc = {
        "architecture": [4, 6, 3],
        "activation": "sigmoid",
        "train": {"learning_rate": 0.1, "epochs": 3, "batch_size": 8, "seed": 7},
        "dataset": {
            "kind": "blobs", "classes": 3, "dim": 4, "per_class": 15, "spread": 0.05,
        },
        "compare_steps": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    ok = True
    pairs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        ok &= cli(["train", "--config", str(cfg_path), "--out", str(out), "--no-timing"]) == EXIT_OK
        ok &= cli(["compare-curvature", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        pairs.append(out)
    for name in ("metrics.jsonl", "summary.csv", "curvature_errors.csv"):
        ok &= (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()
    report(
        "criterion 10: train and compare-curvature outputs bit-identical "
        "across repeated seeded runs",
        ok,
    )
