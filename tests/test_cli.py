import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocknewton.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, cli
from blocknewton.data import load_idx
from blocknewton.errors import ConfigError
from blocknewton.experiments import load_spec


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL = {
    "architecture": [4, 6, 3],
    "activation": "sigmoid",
    "train": {"learning_rate": 0.1, "epochs": 2, "batch_size": 8, "seed": 0},
    "dataset": {"kind": "blobs", "classes": 3, "dim": 4, "per_class": 15, "spread": 0.05},
}


# (dotted key the error must name, spec document)
MALFORMED = [
    ("activation", dict(SMALL, activation="tanh")),
    ("optimizer.kind", dict(SMALL, optimizer={"kind": "adam"})),
    ("optimizer.curvature", dict(SMALL, optimizer={"kind": "ea_cg", "curvature": "foo"})),
    (
        "optimizer.solver_cfg.hvp_mode",
        dict(SMALL, optimizer={"kind": "ea_cg", "solver_cfg": {"hvp_mode": "x"}}),
    ),
    (
        "optimizer.solver_cfg.pi_policy",
        dict(SMALL, optimizer={"kind": "kfi", "solver_cfg": {"pi_policy": "x"}}),
    ),
    ("criterion.kind", dict(SMALL, criterion={"delta": 5.0})),
    ("spec", [SMALL]),
    ("train.epochs", dict(SMALL, train=dict(SMALL["train"], epochs="2"))),
    ("architecture", dict(SMALL, architecture="8,6,3")),
    (
        "optimizer.solver_cfg.alpha",
        dict(SMALL, optimizer={"kind": "ea_cg", "solver_cfg": {"alpha": "0.1"}}),
    ),
    ("optimizer.gamma", dict(SMALL, optimizer={"kind": "ea_cg", "gamma": "x"})),
    ("dataset.images", dict(SMALL, dataset={"kind": "idx", "labels": "labels.idx"})),
    ("dataset.foo", dict(SMALL, dataset=dict(SMALL["dataset"], foo=1))),
]

# keys their section does not read, and dataset values of the wrong type or range
REJECTED_AT_LOAD = [
    pytest.param("train.learning_rat", dict(SMALL, train=dict(SMALL["train"], learning_rat=0.1)),
                 id="typo-in-train"),
    pytest.param("optimiser", dict(SMALL, optimiser={"kind": "sgd"}), id="typo-at-top"),
    pytest.param("criterion.delta", dict(SMALL, criterion={"kind": "cross_entropy", "delta": 5.0}),
                 id="delta-under-cross-entropy"),
    pytest.param("optimizer.solver_cfg", dict(SMALL, optimizer={"kind": "sgd", "solver_cfg": {}}),
                 id="solver-cfg-under-sgd"),
    pytest.param(
        "optimizer.solver_cfg.max_cg",
        dict(SMALL, optimizer={"kind": "kfi", "solver_cfg": {"max_cg": 5}}),
        id="max-cg-under-kfi",
    ),
    pytest.param(
        "optimizer.solver_cfg.pi_policy",
        dict(SMALL, optimizer={"kind": "ea_cg", "solver_cfg": {"pi_policy": "unit"}}),
        id="pi-policy-under-ea-cg",
    ),
    pytest.param("dataset.classes", dict(SMALL, dataset=dict(SMALL["dataset"], classes="3")),
                 id="string-classes"),
    pytest.param("dataset.images", dict(SMALL, dataset={"kind": "idx", "images": 5, "labels": "l"}),
                 id="numeric-images-path"),
    pytest.param("dataset.train_fraction", dict(SMALL, dataset=dict(SMALL["dataset"], train_fraction=0)),
                 id="zero-train-fraction"),
    pytest.param("dataset.train_fraction",
                 dict(SMALL, dataset=dict(SMALL["dataset"], train_fraction=1.5)),
                 id="train-fraction-above-one"),
    pytest.param("dataset.train_fraction",
                 dict(SMALL, dataset=dict(SMALL["dataset"], train_fraction=0.01)),
                 id="empty-training-split"),
    pytest.param("seed", dict(SMALL, train=dict(SMALL["train"], seed=-1)), id="negative-seed"),
    # only SGD keeps momentum buffers
    pytest.param("train.momentum",
                 dict(SMALL, train=dict(SMALL["train"], momentum=0.3), optimizer={"kind": "ea_cg"}),
                 id="momentum-under-ea-cg"),
    pytest.param("train.momentum",
                 dict(SMALL, train=dict(SMALL["train"], momentum=0.9), optimizer={"kind": "kfi"}),
                 id="momentum-under-kfi"),
    # only PCH clips eigenvalues by gamma; a value valid for PCH is no exception
    pytest.param("optimizer.gamma",
                 dict(SMALL, optimizer={"kind": "ea_cg", "curvature": "gauss_newton", "gamma": 0.5}),
                 id="gamma-under-gauss-newton"),
    pytest.param("optimizer.gamma",
                 dict(SMALL, optimizer={"kind": "kfi", "curvature": "fisher", "gamma": 7}),
                 id="gamma-under-fisher"),
    pytest.param("optimizer.gamma",
                 dict(SMALL, optimizer={"kind": "ea_cg", "curvature": "gauss_newton", "gamma": -1}),
                 id="pch-gamma-under-gauss-newton"),
]


FISHER_KFI = {"kind": "kfi", "curvature": "fisher"}
GN_EA_CG = {"kind": "ea_cg", "curvature": "gauss_newton"}

# (dotted key, spec document) with a value of the right type out of its range
OUT_OF_RANGE = [
    ("train.epochs", dict(SMALL, train=dict(SMALL["train"], epochs=0))),
    pytest.param("train.epochs", dict(SMALL, train=dict(SMALL["train"], epochs=sys.maxsize + 1)),
                 id="train.epochs=maxsize+1"),
    pytest.param("train.epochs", dict(SMALL, train=dict(SMALL["train"], epochs=10**400)),
                 id="train.epochs=1e400"),
    # the shuffle keys on 64 bits of the seed
    pytest.param("train.seed", dict(SMALL, train=dict(SMALL["train"], seed=2**64)),
                 id="train.seed=2**64"),
    pytest.param("train.seed", dict(SMALL, train=dict(SMALL["train"], seed=10**40)),
                 id="train.seed=1e40"),
    ("train.batch_size", dict(SMALL, train=dict(SMALL["train"], batch_size=0))),
    ("train.learning_rate", dict(SMALL, train=dict(SMALL["train"], learning_rate=-0.1))),
    ("train.momentum", dict(SMALL, train=dict(SMALL["train"], momentum=1.0))),
    ("optimizer.gamma", dict(SMALL, optimizer={"kind": "ea_cg", "gamma": 0.5})),
    (
        "optimizer.solver_cfg.alpha",
        dict(SMALL, optimizer={"kind": "ea_cg", "solver_cfg": {"alpha": 1.5}}),
    ),
    (
        "optimizer.solver_cfg.alpha",
        dict(SMALL, optimizer={"kind": "kfi", "solver_cfg": {"alpha": 0}}),
    ),
    (
        "optimizer.solver_cfg.max_cg",
        dict(SMALL, optimizer={"kind": "ea_cg", "solver_cfg": {"max_cg": 0}}),
    ),
    (
        "optimizer.solver_cfg.eps_cg",
        dict(SMALL, optimizer={"kind": "ea_cg", "solver_cfg": {"eps_cg": 0}}),
    ),
    ("criterion.delta", dict(SMALL, criterion={"kind": "sigmoid_gate", "delta": -1})),
    ("criterion.epsilon", dict(SMALL, criterion={"kind": "sigmoid_gate", "epsilon": 1.5})),
    ("dataset.classes", dict(SMALL, dataset=dict(SMALL["dataset"], classes=0))),
    ("dataset.dim", dict(SMALL, dataset=dict(SMALL["dataset"], dim=0))),
    ("dataset.per_class", dict(SMALL, dataset=dict(SMALL["dataset"], per_class=0))),
    # a number a float cannot hold, or one that is not finite
    pytest.param("train.learning_rate", dict(SMALL, train=dict(SMALL["train"], learning_rate=10**400)),
                 id="train.learning_rate=1e400"),
    pytest.param("train.learning_rate", dict(SMALL, train=dict(SMALL["train"], learning_rate=math.inf)),
                 id="train.learning_rate=inf"),
    pytest.param("optimizer.gamma", dict(SMALL, optimizer={"kind": "ea_cg", "gamma": 10**400}),
                 id="optimizer.gamma=1e400"),
    pytest.param("optimizer.gamma", dict(SMALL, optimizer=FISHER_KFI | {"gamma": 10**400}),
                 id="optimizer.gamma=1e400-fisher"),
    pytest.param("optimizer.gamma", dict(SMALL, optimizer=FISHER_KFI | {"gamma": math.inf}),
                 id="optimizer.gamma=inf-fisher"),
    pytest.param("optimizer.gamma", dict(SMALL, optimizer=FISHER_KFI | {"gamma": math.nan}),
                 id="optimizer.gamma=nan-fisher"),
    pytest.param("optimizer.gamma", dict(SMALL, optimizer=GN_EA_CG | {"gamma": math.inf}),
                 id="optimizer.gamma=inf-gauss_newton"),
    pytest.param("optimizer.gamma", dict(SMALL, optimizer=GN_EA_CG | {"gamma": math.nan}),
                 id="optimizer.gamma=nan-gauss_newton"),
    pytest.param("dataset.spread", dict(SMALL, dataset=dict(SMALL["dataset"], spread=10**400)),
                 id="dataset.spread=1e400"),
    pytest.param("dataset.spread", dict(SMALL, dataset=dict(SMALL["dataset"], spread=math.inf)),
                 id="dataset.spread=inf"),
    pytest.param("dataset.spread", dict(SMALL, dataset=dict(SMALL["dataset"], spread=-1)),
                 id="dataset.spread=-1"),
    # dataset sizes numpy cannot shape, rejected before anything is allocated
    pytest.param("dataset.classes", dict(SMALL, dataset=dict(SMALL["dataset"], classes=10**400)),
                 id="dataset.classes=1e400"),
    pytest.param("dataset.dim", dict(SMALL, dataset=dict(SMALL["dataset"], dim=10**30)),
                 id="dataset.dim=1e30"),
    pytest.param("dataset.per_class", dict(SMALL, dataset=dict(SMALL["dataset"], per_class=10**30)),
                 id="dataset.per_class=1e30"),
]


class TestTrain:
    def test_writes_metrics_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        code = cli(["train", "--config", cfg, "--out", str(tmp_path), "--no-timing"])
        assert code == EXIT_OK
        metrics = (tmp_path / "metrics.jsonl").read_text().strip().split("\n")
        assert len(metrics) == 2
        assert json.loads(metrics[0])["epoch"] == 0
        assert (tmp_path / "summary.csv").read_text().startswith("epoch,loss")
        assert "final loss" in capsys.readouterr().out

    def test_no_timing_runs_are_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli(["train", "--config", cfg, "--out", str(out), "--no-timing"]) == EXIT_OK
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli(["train", "--config", cfg, "--out", str(out1), "--no-timing"])
        cli(["train", "--config", cfg, "--out", str(out2), "--no-timing", "--seed", "99"])
        assert (out1 / "metrics.jsonl").read_bytes() != (out2 / "metrics.jsonl").read_bytes()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        assert cli(["train", "--config", cfg, "--bogus"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli(["train", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli(["train", "--config", str(path)]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("head,tail", [("[", "]"), ('{"a": ', "}")], ids=["array", "object"])
    def test_config_nested_too_deeply_to_parse_exits_2(self, tmp_path, capsys, head, tail):
        # json.load gives up with a RecursionError long before 100000 levels
        path = tmp_path / "deep.json"
        path.write_text(head * 100_000 + "0" + tail * 100_000)
        out = tmp_path / "out"
        assert cli(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"{path}: JSON nested too deeply" in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"activation": "sigm\xff"}')
        assert cli(["train", "--config", str(path)]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_bad_spec_value(self, tmp_path, capsys):
        doc = dict(SMALL, architecture=[4])
        cfg = write_config(tmp_path, doc)
        assert cli(["train", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "compare-curvature"])
    def test_architecture_must_fit_dataset(self, tmp_path, capsys, command):
        dataset = dict(SMALL["dataset"], dim=8)
        cfg = write_config(tmp_path, dict(SMALL, architecture=[5, 4, 3], dataset=dataset))
        assert cli([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "architecture" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,change",
        [
            ("momentum", {"train": dict(SMALL["train"], momentum=-5)}),
            ("curvature", {"optimizer": {"kind": "ea_cg", "curvature": "true"}}),
            ("gamma", {"optimizer": {"kind": "ea_cg", "curvature": "pch", "gamma": -0.5}}),
        ],
        ids=["momentum", "curvature", "gamma"],
    )
    def test_bad_optimizer_value_rejected_at_load(self, tmp_path, capsys, key, change):
        cfg = write_config(tmp_path, dict(SMALL, **change))
        with pytest.raises(ConfigError, match=key):
            load_spec(cfg)
        assert cli(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "metrics.jsonl").exists()

    @pytest.mark.parametrize("key,doc", MALFORMED, ids=[key for key, _ in MALFORMED])
    def test_malformed_spec_exits_2_naming_key(self, tmp_path, capsys, key, doc):
        cfg = write_config(tmp_path, doc)
        assert cli(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"{key}:" in capsys.readouterr().err
        assert not (tmp_path / "metrics.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "compare-curvature"])
    @pytest.mark.parametrize("key,doc", REJECTED_AT_LOAD)
    def test_rejected_at_load_naming_key(self, tmp_path, capsys, command, key, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"{key}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,doc", OUT_OF_RANGE, ids=[getattr(row, "id", None) or row[0] for row in OUT_OF_RANGE]
    )
    def test_out_of_range_value_exits_2_naming_key(self, tmp_path, capsys, key, doc):
        cfg = write_config(tmp_path, doc)
        assert cli(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"{key}:" in capsys.readouterr().err
        assert not (tmp_path / "metrics.jsonl").exists()

    @pytest.mark.parametrize("delta", [2.0**512, 1e200, float("inf")])
    def test_delta_whose_square_overflows_exits_2(self, tmp_path, capsys, delta):
        cfg = write_config(tmp_path, dict(SMALL, criterion={"kind": "sigmoid_gate", "delta": delta}))
        assert cli(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "criterion.delta:" in capsys.readouterr().err
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_largest_delta_trains(self, tmp_path, capsys):
        criterion = {"kind": "sigmoid_gate", "delta": np.nextafter(2.0**512, 0)}
        cfg = write_config(tmp_path, dict(SMALL, criterion=criterion))
        assert cli(["train", "--config", cfg, "--out", str(tmp_path), "--no-timing"]) == EXIT_OK
        capsys.readouterr()

    def test_indefinite_kfi_factor_exits_3_naming_layer(self, tmp_path, capsys):
        # Gauss-Newton blocks under the non-convex criterion are indefinite;
        # at this damping the damped KFI factor has a negative eigenvalue
        doc = dict(
            SMALL,
            criterion={"kind": "sigmoid_gate"},
            optimizer={"kind": "kfi", "curvature": "gauss_newton", "solver_cfg": {"alpha": 1e-4}},
        )
        cfg = write_config(tmp_path, doc)
        assert cli(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert re.search(r"layer \d+: damped factor is singular", capsys.readouterr().err)

    def test_indefinite_ea_cg_block_exits_3_naming_layer(self, tmp_path, capsys):
        # Gauss-Newton blocks under the non-convex criterion are indefinite;
        # at the default damping the damped EA-CG block has a negative eigenvalue
        doc = dict(
            SMALL,
            criterion={"kind": "sigmoid_gate"},
            optimizer={"kind": "ea_cg", "curvature": "gauss_newton"},
        )
        cfg = write_config(tmp_path, doc)
        assert cli(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert re.search(r"layer \d+: damped block is not positive definite", capsys.readouterr().err)

    @pytest.mark.parametrize(
        "optimizer", [{"kind": "kfi", "curvature": "fisher"}, {"kind": "ea_cg"}], ids=["kfi", "ea_cg"]
    )
    def test_overflowing_step_exits_3(self, tmp_path, capsys, optimizer):
        # a 1e300 step overflows the ReLU net's curvature to inf and NaN
        train = dict(SMALL["train"], learning_rate=1e300, epochs=3)
        doc = dict(SMALL, activation="relu", train=train, optimizer=optimizer)
        cfg = write_config(tmp_path, doc)
        with np.errstate(all="ignore"):
            code = cli(["train", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "optimizer, named",
        [
            ({"kind": "ea_cg", "curvature": "pch"}, "optimizer ea_cg, curvature pch"),
            ({"kind": "sgd"}, "optimizer sgd"),
        ],
        ids=["ea_cg", "sgd"],
    )
    def test_divergence_names_optimizer_and_curvature(self, tmp_path, capsys, optimizer, named):
        # the README example net and data, at a step that overflows the loss
        doc = dict(
            SMALL,
            architecture=[64, 32, 10],
            train={"learning_rate": 1e305, "epochs": 3, "batch_size": 32, "seed": 0},
            optimizer=optimizer,
            dataset={"kind": "blobs", "classes": 10, "dim": 64, "per_class": 40, "spread": 0.08},
        )
        cfg = write_config(tmp_path, doc)
        with np.errstate(all="ignore"):
            code = cli(["train", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert f"loss became non-finite at epoch 0 ({named})" in capsys.readouterr().err

    def test_negative_csv_label_column(self, tmp_path, capsys):
        # the label is the last of three columns; -1 would silently index it from the end
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{i % 5 / 5},{i % 7 / 7},{i % 3}\n" for i in range(30)))
        doc = dict(SMALL, architecture=[2, 4, 3], dataset={"kind": "csv", "path": str(data)})
        for column, code in ((2, EXIT_OK), (-1, EXIT_CONFIG)):
            out = tmp_path / f"out{column}"
            cfg = write_config(tmp_path, dict(doc, dataset=dict(doc["dataset"], label_column=column)))
            assert cli(["train", "--config", cfg, "--out", str(out), "--no-timing"]) == code
        assert "dataset.label_column:" in capsys.readouterr().err
        assert not (tmp_path / "out-1").exists()

    @pytest.mark.parametrize(
        "row, named",
        [("nan,0.2", "label 'nan'"), ("inf,0.2", "label 'inf'"), ("2.7,0.2", "label '2.7'"),
         ("1,0.2,0.3", "3 cells, but the first row has 2"),
         ("0," + "1" * 131073, "field larger than field limit (131072)")],
        ids=["nan", "inf", "fraction", "ragged", "long-cell"],
    )
    def test_bad_csv_row_exits_2_naming_its_line(self, tmp_path, capsys, row, named):
        data = tmp_path / "data.csv"
        data.write_text(f"0,0.1\n{row}\n1,0.3\n")
        doc = dict(SMALL, architecture=[1, 4, 2],
                   dataset={"kind": "csv", "path": str(data), "label_column": 0})
        out = tmp_path / "out"
        assert cli(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_CONFIG
        assert f"data.csv:2: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_csv_label_prints_no_traceback(self, tmp_path):
        # the installed command, in its own interpreter
        data = tmp_path / "data.csv"
        data.write_text("0,0.1\nnan,0.2\n1,0.3\n")
        doc = dict(SMALL, architecture=[1, 4, 2],
                   dataset={"kind": "csv", "path": str(data), "label_column": 0})
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "blocknewton.cli", "train",
             "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == EXIT_CONFIG
        assert "data.csv:2: label 'nan'" in run.stderr and "Traceback" not in run.stderr

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli(["train", "--config", cfg, "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert "seed:" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_beyond_64_bits_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli(["train", "--config", cfg, "--out", str(out), "--seed", str(2**64)]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_trains(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL, train=dict(SMALL["train"], seed=2**64 - 1)))
        assert cli(["train", "--config", cfg, "--out", str(tmp_path), "--no-timing"]) == EXIT_OK
        capsys.readouterr()

    def test_directory_as_dataset_file(self, tmp_path, capsys):
        doc = dict(SMALL, dataset={"kind": "idx", "images": str(tmp_path), "labels": str(tmp_path)})
        cfg = write_config(tmp_path, doc)
        assert cli(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestGrid:
    def grid_exit_code(self, tmp_path, grid):
        cfg = write_config(tmp_path, dict(SMALL, grid=grid))
        return cli(["grid", "--config", cfg, "--out", str(tmp_path)])

    def test_writes_grid_json(self, tmp_path, capsys):
        doc = dict(SMALL, grid={"learning_rate": [0.05, 0.1]})
        cfg = write_config(tmp_path, doc)
        assert cli(["grid", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        result = json.loads((tmp_path / "grid.json").read_text())
        assert len(result["runs"]) == 2
        assert "best_by_loss" in result and "best_by_accuracy" in result
        capsys.readouterr()

    @pytest.mark.parametrize(
        "kind,key",
        [pytest.param("kfi", key, id=key) for key in ("max_cg", "eps_cg")]
        + [
            pytest.param(kind, key, id=f"{kind}-{key}")
            for kind in ("ea_cg", "sgd")
            for key in ("max_cg", "eps_cg")
        ],
    )
    def test_kfi_rejects_cg_grid_keys(self, tmp_path, capsys, kind, key):
        # no solver reads max_cg or eps_cg, so neither is a grid key under any
        # kind; the name and the bare [max_cg]/[eps_cg] ids date from when
        # only KFI rejected them, and stay so the original cases keep their ids
        values = {"max_cg": [1, 50], "eps_cg": [1e-3, 1e-6]}[key]
        doc = dict(SMALL, optimizer={"kind": kind}, grid={key: values})
        cfg = write_config(tmp_path, doc)
        assert cli(["grid", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "grid.json").exists()

    def test_grid_requires_grid_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        assert cli(["grid", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        capsys.readouterr()

    def test_singleton_grid_matches_train(self, tmp_path, capsys):
        grid = {"learning_rate": [SMALL["train"]["learning_rate"]]}
        assert self.grid_exit_code(tmp_path, grid) == EXIT_OK
        result = json.loads((tmp_path / "grid.json").read_text())
        cfg = write_config(tmp_path, SMALL, name="plain.json")
        assert cli(["train", "--config", cfg, "--out", str(tmp_path), "--no-timing"]) == EXIT_OK
        last = json.loads((tmp_path / "metrics.jsonl").read_text().strip().split("\n")[-1])
        assert len(result["runs"]) == 1
        assert result["runs"][0]["final_loss"] == last["loss"]
        assert result["best_by_loss"] == result["best_by_accuracy"] == result["runs"][0]
        capsys.readouterr()

    def test_two_by_two_enumeration(self, tmp_path, capsys):
        grid = {"learning_rate": [0.05, 0.1], "batch_size": [8, 16]}
        assert self.grid_exit_code(tmp_path, grid) == EXIT_OK
        runs = json.loads((tmp_path / "grid.json").read_text())["runs"]
        assert [r["params"] for r in runs] == [
            {"batch_size": 8, "learning_rate": 0.05},
            {"batch_size": 8, "learning_rate": 0.1},
            {"batch_size": 16, "learning_rate": 0.05},
            {"batch_size": 16, "learning_rate": 0.1},
        ]
        capsys.readouterr()

    @pytest.mark.parametrize(
        "grid,key",
        [
            ({"alpha": [0.02]}, "grid.alpha"),  # solver keys need a second-order optimizer
            ({"dropout": [0.5]}, "grid.dropout"),
            ({"learning_rate": 0.1}, "grid.learning_rate"),
            ({"learning_rate": []}, "grid.learning_rate"),
            ({"learning_rate": ["x"]}, "grid.learning_rate"),
            ({"batch_size": [True]}, "grid.batch_size"),
            ({"batch_size": [8, 0]}, "grid.batch_size"),
        ],
        ids=["alpha-under-sgd", "unknown-key", "scalar", "empty", "string", "bool", "zero"],
    )
    def test_bad_grid_exits_2_naming_key(self, tmp_path, capsys, grid, key):
        assert self.grid_exit_code(tmp_path, grid) == EXIT_CONFIG
        assert f"{key}:" in capsys.readouterr().err
        assert not (tmp_path / "grid.json").exists()

    def test_deeply_nested_value_beside_a_grid_exits_2(self, tmp_path, capsys):
        # 600 levels parse, and writing the grid values copies no level of
        # the dataset, which is read only when the runs start
        path = tmp_path / "cfg.json"
        doc = json.dumps(dict(SMALL, grid={"learning_rate": [0.1]}, dataset=None))
        path.write_text(doc.replace("null", '{"a": ' * 600 + "0" + "}" * 600))
        assert cli(["grid", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "dataset.a: unknown key" in capsys.readouterr().err

    def test_bad_grid_rejected_by_train_too(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL, grid={"learning_rate": ["x"]}))
        assert cli(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "grid.learning_rate:" in capsys.readouterr().err
        assert not (tmp_path / "metrics.jsonl").exists()


class TestCompareAndBound:
    def test_compare_writes_csv(self, tmp_path, capsys):
        doc = dict(SMALL, compare_steps=2)
        cfg = write_config(tmp_path, doc)
        code = cli(["compare-curvature", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        text = (tmp_path / "curvature_errors.csv").read_text()
        assert text.startswith("layer,fisher,gauss_newton,pch1,pch2")
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("steps", [0, 10**20], ids=["0", "1e20"])
    def test_compare_steps_out_of_range_exits_2(self, tmp_path, capsys, steps):
        cfg = write_config(tmp_path, dict(SMALL, compare_steps=steps))
        out = tmp_path / "out"
        assert cli(["compare-curvature", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "compare_steps: expected an integer in [1, " in capsys.readouterr().err
        assert not out.exists()

    def test_bound_check_prints_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        code = cli(["bound-check", "--config", cfg, "--out", str(tmp_path), "--batch", "8"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "layer 2:" in out and "PASS" in out and "FAIL" not in out
        lines = (tmp_path / "bound_check.jsonl").read_text().strip().split("\n")
        assert all(json.loads(l)["holds"] for l in lines)

    @pytest.mark.parametrize("batch", ["-3", "1", "37"])  # SMALL has 36 training instances
    def test_bound_check_batch_out_of_range(self, tmp_path, capsys, batch):
        cfg = write_config(tmp_path, SMALL)
        args = ["bound-check", "--config", cfg, "--out", str(tmp_path), "--batch", batch]
        assert cli(args) == EXIT_CONFIG
        assert "--batch:" in capsys.readouterr().err
        assert not (tmp_path / "bound_check.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "compare-curvature", "bound-check"])
    @pytest.mark.parametrize("width", [10**30, 10**400], ids=["1e30", "1e400"])
    def test_architecture_numpy_cannot_shape_exits_2(self, tmp_path, capsys, command, width):
        cfg = write_config(tmp_path, dict(SMALL, architecture=[4, width, 3]))
        out = tmp_path / "out"
        assert cli([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "architecture:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare-curvature", "bound-check"])
    def test_architecture_numpy_cannot_allocate_exits_2(self, tmp_path, capsys, command):
        # 4 * 10**16 weights pass the shape check; their 284 PiB exceed any
        # address space, so the allocation fails at once without touching memory
        cfg = write_config(tmp_path, dict(SMALL, architecture=[4, 10**16, 3]))
        out = tmp_path / "out"
        assert cli([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

    def test_bound_check_needs_a_hidden_layer(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL, architecture=[4, 3]))
        args = ["bound-check", "--config", cfg, "--out", str(tmp_path), "--batch", "8"]
        assert cli(args) == EXIT_CONFIG
        assert "architecture:" in capsys.readouterr().err
        assert not (tmp_path / "bound_check.jsonl").exists()


class TestGenData:
    def test_round_trip(self, tmp_path, capsys):
        code = cli(
            [
                "gen-data",
                "--classes", "3",
                "--dim", "4",
                "--per-class", "5",
                "--seed", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        ds = load_idx(tmp_path / "blobs-images.idx", tmp_path / "blobs-labels.idx")
        assert ds.features.shape == (15, 4)
        assert set(ds.labels) == {0, 1, 2}
        assert np.all(ds.features >= 0.0) and np.all(ds.features <= 1.0)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "option,value,named",
        [
            ("--spread", "inf", "spread"),
            ("--spread", "nan", "spread"),
            ("--spread", "-1", "spread"),
            ("--classes", str(10**400), "classes"),
            ("--dim", str(10**30), "dim"),
            ("--per-class", str(10**30), "per_class"),
        ],
        ids=["spread=inf", "spread=nan", "spread=-1", "classes=1e400", "dim=1e30", "per-class=1e30"],
    )
    def test_bad_value_exits_2_naming_option(self, tmp_path, capsys, option, value, named):
        out = tmp_path / "data"
        args = ["gen-data", "--classes", "2", "--dim", "2", "--per-class", "3", "--out", str(out)]
        assert cli([*args, option, value]) == EXIT_CONFIG
        assert f"{named}:" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_classes_for_idx_labels(self, tmp_path, capsys):
        out = tmp_path / "data"
        args = ["gen-data", "--classes", "300", "--dim", "2", "--per-class", "1", "--out", str(out)]
        assert cli(args) == EXIT_CONFIG
        assert "[0, 255]" in capsys.readouterr().err
        assert list(out.iterdir()) == []


# values around the schema: numbers that are valid somewhere, wrong types and
# bad ranges, among them an integer beyond sys.maxsize
FUZZ_VALUES = st.sampled_from([1, 2, 8, 0.05, 0.5]) | st.sampled_from(
    ["x", "", "3", 2.5, -1, 0, 2**64, None, True, [], {}, "kfi", "ea_cg"]
)
FUZZ_PATHS = st.sampled_from(
    [
        ("optimiser",),
        ("train", "learning_rat"),
        ("train", "learning_rate"),
        ("train", "batch_size"),
        ("train", "seed"),
        ("optimizer", "kind"),
        ("optimizer", "solver_cfg", "max_cg"),
        ("optimizer", "solver_cfg", "pi_policy"),
        ("criterion", "delta"),
        ("dataset", "kind"),
        ("dataset", "classes"),
        ("dataset", "dim"),
        ("dataset", "images"),
        ("dataset", "train_fraction"),
        ("compare_steps",),
        ("grid", "learning_rate"),
        ("grid", "batch_size"),
        ("grid", "alpha"),
        ("grid", "max_cg"),
        ("grid", "dropout"),
    ]
)
FUZZ_EDITS = st.lists(
    st.tuples(FUZZ_PATHS, FUZZ_VALUES | st.lists(FUZZ_VALUES, min_size=1, max_size=2)),
    max_size=2,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["train", "grid", "compare-curvature", "bound-check"]),
    edits=FUZZ_EDITS,
)
def test_fuzzed_spec_exits_0_2_or_3(command, edits):
    doc = json.loads(json.dumps(SMALL))
    doc["train"]["epochs"] = 1
    doc["grid"] = {"learning_rate": [0.1]}
    for path, value in edits:
        section = doc
        for name in path[:-1]:
            section = section.setdefault(name, {})
        section[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        assert cli([command, "--config", cfg, "--out", tmp]) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
