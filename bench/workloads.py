"""Benchmark workloads and their seeded inputs.

Each workload is a chain of real ``hydrochar`` commands. Inputs come from
the program's synthetic-data generator, driven only by the workload seed,
and reach the program as CSV files. The sizes
are chosen so that one layer dominates each workload while the others sit
idle; ``why`` records which.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEATURES = (
    "biomass_c", "biomass_h", "biomass_n", "biomass_s", "biomass_o", "biomass_vm",
    "biomass_fc", "biomass_ash", "temperature_c", "time_min", "water_wt",
)
TARGETS = (
    "hc_yield", "hc_hhv", "hc_vm", "hc_fc", "hc_ash", "hc_c", "hc_h", "hc_n", "hc_s", "hc_o",
)

# Noise of the generated tables in units of the program's per-target noise
# scales (``data.SYNTHETIC_NOISE_SCALE``), as ``hydrochar synth --noise 0.5``.
NOISE_SD = 0.5
HOLDOUT_ROWS = 2000

# One-candidate DTR grid, so set-up training is cheap and the chain that
# follows does no fitting. Batch tree prediction costs one pass over the
# batch per tree level; capped at depth 8 (a value of the default grid),
# every tree grown on 150 or 200 rows has 8 levels, where uncapped ones
# had a seed-dependent depth.
ONE_TREE_GRID = {"tree_grid": [{"max_depth": 8, "min_samples_leaf": 1}], "svr_grid": []}

# Keeps the default SVR grid's mix of converging and budget-bound fits:
# linear C=1000, epsilon=0.01 runs out of max_passes on every fold, while
# linear C=1 and rbf gamma=0.1 C=1 converge. Each choice keeps the SMO
# step count, and so train time, steady across seeds (seeds 201-212):
# linear C=1 won the search on all twelve, where linear C=100 (a corner of
# the default grid) won on two and its budget-bound final fit added a
# fifth to their time; linear C=1 solves to a KKT tolerance of 0.01, not
# 0.001, which took it 6k-11k steps instead of 12k-27k, beside the 51k of
# the budget-bound fits. Linear C=10 is left out: whether it converged,
# and whether it won, varied with the seed.
SVR_GRID = {
    "tree_grid": [],
    "svr_grid": [
        {"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "linear"}, "tolerance": 0.01},
        {"c": 1000.0, "epsilon": 0.01, "kernel": {"kind": "linear"}},
        {"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "rbf", "gamma": 0.1}},
    ],
}


@dataclass(frozen=True)
class Dataset:
    """One generated CSV: row count and which targets are reported."""

    file: str
    rows: int
    reported: tuple[str, ...] = TARGETS
    blank: float = 0.0  # share of reported target cells left empty


@dataclass(frozen=True)
class Command:
    """One CLI call; ``data`` names the Dataset it reads."""

    name: str
    data: str
    args: tuple[str, ...] = ()

    def label(self) -> str:
        """Unique within a chain: explain runs once per target, optimize once per application."""
        for flag in ("--target", "--application"):
            if flag in self.args:
                return f"{self.name}-{self.args[self.args.index(flag) + 1]}"
        return self.name


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: tuple[Dataset, ...]
    setup: tuple[Command, ...]
    chain: tuple[Command, ...]
    grids: dict = field(default_factory=dict)  # file name -> grid JSON object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dtr-train",
            why="CART fitting inside the default-grid DTR search (141 tree fits per target) is the "
                "largest user cost; Shapley, SVR and GA are idle.",
            datasets=(Dataset("data.csv", rows=100, reported=("hc_yield", "hc_hhv", "hc_c")),),
            setup=(),
            chain=(Command("train", "data.csv", ("--model", "dtr")),),
        ),
        Workload(
            name="dtr-explain-optimize",
            why="Exact Shapley enumeration and batch tree prediction dominate with no fitting; "
                "the GA then searches the same trees for the soil-amendment profile.",
            datasets=(Dataset("train.csv", rows=150), Dataset("explain.csv", rows=40)),
            grids={"grid.json": ONE_TREE_GRID},
            setup=(Command("train", "train.csv", ("--model", "dtr", "--grid", "grid.json")),),
            # Six trees at background 32, not one at 64: the cost of one
            # tree's shape varies with the seed, and so does the GA's, which
            # should stay a small share of the chain.
            chain=tuple(
                Command("explain", "explain.csv", ("--model", "dtr", "--target", t, "--background", "32"))
                for t in ("hc_yield", "hc_hhv", "hc_c", "hc_ash", "hc_vm", "hc_fc")
            ) + (Command("optimize", "train.csv", ("--application", "soil")),),
        ),
        Workload(
            name="svr-train-explain",
            why="SMO solving and dense kernel evaluation dominate on a sparse literature-like "
                "table; the tree layers are idle.",
            datasets=(Dataset("data.csv", rows=100, reported=("hc_yield",), blank=0.2),
                      Dataset("explain.csv", rows=20, reported=("hc_yield",))),
            grids={"grid.json": SVR_GRID},
            setup=(),
            chain=(
                Command("train", "data.csv", ("--model", "svr", "--grid", "grid.json")),
                Command("explain", "explain.csv", ("--model", "svr", "--target", "hc_yield", "--background", "16")),
            ),
        ),
        Workload(
            name="ingest-stats",
            why="The only workload where CSV loading and rank statistics do real work; trees "
                "predict large batches instead of fitting.",
            # 200 training rows: at 120, holdout R^2 spread 6.9 % over ten seeds, at 200 3.1 %.
            datasets=(Dataset("data.csv", rows=3000), Dataset("train.csv", rows=200)),
            grids={"grid.json": ONE_TREE_GRID},
            setup=(Command("train", "train.csv", ("--model", "dtr", "--grid", "grid.json")),),
            chain=(
                Command("validate", "data.csv"),
                Command("stats", "data.csv"),
                Command("evaluate", "data.csv", ("--model", "dtr")),
            ),
        ),
    )
}


def generate(rows: int, seed: int, reported=TARGETS, blank: float = 0.0):
    """Feature and target matrices for ``rows`` experiments (NaN = not reported).

    Rows come from the program's own generator, ``data.generate_synthetic``
    (the one behind ``hydrochar synth --noise``), at noise ``NOISE_SD``.
    Targets outside ``reported`` are emptied, and so is a ``blank`` share of
    each reported target's cells, picked by a second stream of ``seed``.
    """
    from hydrochar import data

    ds = data.generate_synthetic(rows, seed, noise_sd=NOISE_SD)
    if data.CSV_HEADER != FEATURES + TARGETS:
        raise ValueError("hydrochar's CSV schema differs from the benchmark's")
    x, y = np.array(ds.feature_matrix()), np.array(ds.target_matrix())
    rng = np.random.default_rng([seed, 1])
    for j, t in enumerate(TARGETS):
        if t not in reported:
            y[:, j] = np.nan
        else:
            y[rng.permutation(rows)[: round(blank * rows)], j] = np.nan
    return x, y


def csv_text(x: np.ndarray, y: np.ndarray) -> str:
    """The canonical 21-column CSV: 12 significant digits, empty = absent."""
    lines = [",".join(FEATURES + TARGETS)]
    for xr, yr in zip(x, y):
        cells = [format(float(v), ".12g") for v in xr]
        cells += ["" if np.isnan(v) else format(float(v), ".12g") for v in yr]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def holdout(dataset: Dataset, seed: int):
    """Fresh rows from the same generator, kept from the program, for scoring
    the saved models on far more rows than the program's 20 % test split."""
    return generate(HOLDOUT_ROWS, seed * 16 + 15, dataset.reported)


def write_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Write every dataset and grid file of ``workload`` for ``seed``."""
    directory.mkdir(parents=True, exist_ok=True)
    for k, ds in enumerate(workload.datasets):
        x, y = generate(ds.rows, seed * 16 + k, ds.reported, ds.blank)
        (directory / ds.file).write_text(csv_text(x, y), encoding="utf-8", newline="\n")
    for name, grid in workload.grids.items():
        (directory / name).write_text(json.dumps(grid, sort_keys=True) + "\n", encoding="utf-8")
