"""Benchmark workloads and the metric catalogue.

Each workload is an experiment spec in the JSON form that
`blocknewton.experiments.spec_from_json` reads, plus how it is driven:
`train` runs `blocknewton.trainer.train`, `compare` runs
`blocknewton.experiments.compare_curvatures`.  A run repeats the workload
as trials, each in a fresh interpreter; trial j of seed s uses the
sub-seed `trial_seed(s, j)`, which feeds blob generation, Xavier init and
the shuffle order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

DESK_ARCH = [64, 32, 16, 16, 8, 8, 8, 10]
PAPER_ARCH = [784, 256, 128, 64, 10]
DESK_DATA = {"kind": "blobs", "classes": 10, "dim": 64, "per_class": 40, "spread": 0.08}
PAPER_DATA = {"kind": "blobs", "classes": 10, "dim": 784, "per_class": 128, "spread": 0.08}
EA_CG_PCH1 = {
    "kind": "ea_cg",
    "curvature": "pch",
    "gamma": -1.0,
    "solver_cfg": {"alpha": 0.02, "max_cg": 20, "eps_cg": 1e-5, "hvp_mode": "exact_kron"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" or "compare"
    spec: dict  # spec_from_json document; "train.seed" is set per trial
    loss_trials: int  # distinct sub-seeds averaged into final_loss

    def spec_for(self, seed: int) -> dict:
        doc = copy.deepcopy(self.spec)
        doc.setdefault("train", {})["seed"] = seed
        return doc


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="paper-eacg-pch",
            why="784-256-128-64-10 net under EA-CG with PCH-1: CG and Kronecker HVPs dominate, sym_eig sees only the 10x10 top block",
            kind="train",
            spec={
                "architecture": PAPER_ARCH,
                "activation": "sigmoid",
                "criterion": {"kind": "cross_entropy"},
                "train": {"learning_rate": 0.2, "epochs": 1, "batch_size": 128},
                "optimizer": EA_CG_PCH1,
                "dataset": PAPER_DATA,
            },
            loss_trials=14,
        ),
        Workload(
            name="desk-compare",
            why="README net through compare-curvature: exact per-instance Hessians, abs_eig on indefinite blocks and the error table",
            kind="compare",
            spec={
                "architecture": DESK_ARCH,
                "activation": "sigmoid",
                "criterion": {"kind": "cross_entropy"},
                "train": {"learning_rate": 0.2, "epochs": 1, "batch_size": 32},
                "optimizer": EA_CG_PCH1,
                "dataset": DESK_DATA,
                "compare_steps": 10,
            },
            loss_trials=6,
        ),
        Workload(
            name="paper-sgd",
            why="784-256-128-64-10 net under momentum SGD: fcnn forward/backprop and the trainer loop do the work, no curvature or solver",
            kind="train",
            spec={
                "architecture": PAPER_ARCH,
                "activation": "sigmoid",
                "criterion": {"kind": "cross_entropy"},
                "train": {"learning_rate": 0.1, "momentum": 0.9, "epochs": 10, "batch_size": 128},
                "optimizer": {"kind": "sgd"},
                "dataset": PAPER_DATA,
            },
            loss_trials=16,
        ),
    ]
}


def trial_seed(seed: int, trial: int) -> int:
    """Sub-seed of trial `trial` in a run with seed `seed`."""
    return seed * 1000 + trial


# name -> (unit, better); BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "final_loss": ("nats", "lower"),
}
