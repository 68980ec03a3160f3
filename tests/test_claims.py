"""The source paper's training-level claims, each as one seeded run that
asserts an ordering rather than a tolerance fitted to today's numbers."""

import json

from blocknewton.cli import EXIT_NUMERICAL, EXIT_OK, cli
from blocknewton.experiments import load_spec
from blocknewton.trainer import mean_loss

# the README example config under the non-convex sigmoid-gate criterion
README_SIGMOID_GATE = {
    "architecture": [64, 32, 16, 16, 8, 8, 8, 10],
    "activation": "sigmoid",
    "criterion": {"kind": "sigmoid_gate"},
    "train": {"learning_rate": 0.2, "epochs": 5, "batch_size": 32, "seed": 0},
    "optimizer": {
        "kind": "ea_cg",
        "curvature": "pch",
        "gamma": -1.0,
        "solver_cfg": {"alpha": 0.02, "max_cg": 20, "eps_cg": 1e-5},
    },
    "dataset": {"kind": "blobs", "classes": 10, "dim": 64, "per_class": 40, "spread": 0.08},
}


def test_sigmoid_gate_pch1_descends_where_gauss_newton_exits_3(tmp_path, capsys):
    # PCH-1 keeps every block PSD under a non-convex criterion, so EA-CG
    # lowers the training loss; Gauss-Newton's blocks are indefinite there,
    # and EA-CG stops on the first damped block that is not positive definite
    pch = tmp_path / "pch.json"
    pch.write_text(json.dumps(README_SIGMOID_GATE))
    out = tmp_path / "pch"
    assert cli(["train", "--config", str(pch), "--out", str(out), "--no-timing"]) == EXIT_OK
    spec = load_spec(pch)
    x, y, _, _ = spec.load_dataset(0).split()
    initial = mean_loss(spec.build_model(0), spec.criterion, x, y)
    records = (out / "metrics.jsonl").read_text().splitlines()
    assert json.loads(records[-1])["loss"] < initial

    gauss_newton = dict(README_SIGMOID_GATE["optimizer"], curvature="gauss_newton")
    gn = tmp_path / "gn.json"
    gn.write_text(json.dumps(dict(README_SIGMOID_GATE, optimizer=gauss_newton)))
    capsys.readouterr()
    assert cli(["train", "--config", str(gn), "--out", str(tmp_path / "gn")]) == EXIT_NUMERICAL
    assert "damped block is not positive definite" in capsys.readouterr().err
