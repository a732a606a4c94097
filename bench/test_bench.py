"""Tests of the benchmark itself: count invariants, wrapper removal, and
output checks catching a corrupted artifact.

    python3 -m pytest bench -q

Workloads are shrunk to a few dozen rows so the suite runs in seconds; the
invariants do not depend on size.
"""

from __future__ import annotations

import dataclasses
import json

from tracing import Tracer
from worker import Runner, explain_plot, import_program, run_chain, run_setup
from workloads import WORKLOADS, Dataset

import_program()

TINY = {
    "dtr-train": (Dataset("data.csv", rows=30, reported=("hc_yield", "hc_hhv")),),
    "dtr-explain-optimize": (Dataset("train.csv", rows=40), Dataset("explain.csv", rows=12)),
    "svr-train-explain": (Dataset("data.csv", rows=30, reported=("hc_yield",), blank=0.2),
                          Dataset("explain.csv", rows=6, reported=("hc_yield",))),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], datasets=TINY[name])


def traced_chain(workload, seed: int, tmp_path):
    """Set up, then run the chain once under a fresh tracer."""
    inputs = tmp_path / "inputs"
    setup = run_setup(workload, seed, inputs)
    assert all(not op["problems"] for op in setup["ops"])
    tracer = Tracer()
    tracer.install()
    try:
        result = run_chain(workload, seed, inputs, tmp_path / "chain", seconds=0.0, tracer=tracer)
    finally:
        tracer.restore()
    return result


def counts(layers: dict) -> dict:
    """The layer metrics that are counts, not times."""
    return {k: v for k, v in layers.items() if not k.endswith((".s", "self_s", ".p50", ".tail"))}


def test_fit_tree_calls_are_one_per_candidate_fold_plus_finals(tmp_path):
    """Default grid: 28 candidates x 5 folds per trained target, plus one final fit each."""
    first = traced_chain(tiny("dtr-train"), 3, tmp_path / "a")
    trained = 2
    assert first["layers"]["cart.fit_tree.calls"] == 28 * 5 * trained + trained
    assert first["layers"]["pipeline.grid_search.candidates"] == 28 * trained
    again = traced_chain(tiny("dtr-train"), 3, tmp_path / "b")
    assert counts(again["layers"]) == counts(first["layers"])


def test_shapley_model_rows_are_rows_times_coalitions_times_background(tmp_path):
    workload = tiny("dtr-explain-optimize")
    first = traced_chain(workload, 5, tmp_path / "a")
    rows = workload.datasets[1].rows
    train_rows = rows - round(0.2 * rows)
    explains = [cmd for cmd in workload.chain if cmd.name == "explain"]
    backgrounds = [min(int(cmd.args[cmd.args.index("--background") + 1]), train_rows) for cmd in explains]
    assert first["layers"]["shapley.explain.calls"] == rows * len(explains)
    assert first["layers"]["shapley.model_rows"] == rows * 2**11 * sum(backgrounds)
    assert first["layers"]["genetic.generations"] > 0
    assert 0.0 < first["layers"]["genetic.feasible_ratio"] <= 1.0
    again = traced_chain(workload, 5, tmp_path / "b")
    assert counts(again["layers"]) == counts(first["layers"])


def test_svr_fit_calls_and_convergence_ratio(tmp_path):
    result = traced_chain(tiny("svr-train-explain"), 7, tmp_path)
    layers = result["layers"]
    candidates = len(WORKLOADS["svr-train-explain"].grids["grid.json"]["svr_grid"])
    assert layers["svr.fit_svr.calls"] == candidates * 5 + 1
    assert layers["svr.kernel_matrix.computed_bytes"] == 8 * layers["svr.kernel_matrix.entries"]
    assert 0.0 < layers["svr.fit_svr.converged_ratio"] < 1.0
    assert layers["pipeline.targets_skipped"] == 9


def _bindings():
    from hydrochar import cart, data, genetic, pipeline, shapley, stats, svr

    owners = (cart, data, genetic, pipeline, shapley, stats, svr,
              cart.RegressionTree, svr.SvrModel, pipeline.TrainedTarget)
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()
            if callable(value)}


def test_restore_puts_back_every_original_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        assert ("hydrochar.pipeline", "fit_tree") in changed
        assert ("hydrochar.pipeline", "fit_svr") in changed
        assert ("hydrochar.genetic", "mass_balance_ok") in changed
        assert ("RegressionTree", "predict_batch") in changed
        assert ("SvrModel", "predict_batch") in changed
        assert ("TrainedTarget", "predict") in changed
    finally:
        tracer.restore()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_corrupted_artifacts_are_caught(tmp_path):
    import checks

    workload = tiny("dtr-explain-optimize")
    inputs = tmp_path / "inputs"
    run_setup(workload, 11, inputs)
    out = inputs / "out"
    explain, optimize = workload.chain[0], workload.chain[-1]
    runner = Runner(workload, 11, inputs)
    plot = explain_plot(runner.argv(explain, out))
    model, table = out / "model_dtr_hc_yield.json", inputs / explain.data
    assert checks.check_explain(plot, model, table) == []
    assert runner.run(optimize, out)["problems"] == []

    heatmap = plot.heatmap.copy()
    heatmap[2, 5] += 1e-3
    problems = checks.check_explain(dataclasses.replace(plot, heatmap=heatmap), model, table)
    assert any("fx - sum(phi) varies" in p for p in problems)

    optimum = out / "optimum.json"
    rep = json.loads(optimum.read_text(encoding="utf-8"))
    rep["history"][1] = rep["history"][0] - 1.0
    optimum.write_text(json.dumps(rep), encoding="utf-8")
    assert "best-fitness history decreases" in checks.check_optimize(out)


def test_explain_step_matches_the_cli_command(tmp_path):
    """The in-process explain step gives the attributions ``hydrochar explain``
    writes to heatmap.csv, for the same arguments."""
    from hydrochar import cli

    workload = tiny("svr-train-explain")
    inputs = tmp_path / "inputs"
    run_setup(workload, 13, inputs)
    out = tmp_path / "out"
    runner = Runner(workload, 13, inputs)
    train, explain = workload.chain
    assert runner.run(train, out)["problems"] == []
    plot = explain_plot(runner.argv(explain, out))
    assert cli.main(runner.argv(explain, out)) == 0
    lines = (out / "shap_svr_hc_yield" / "heatmap.csv").read_text(encoding="utf-8").splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert [[float(c) for c in r[2:]] for r in rows] == plot.heatmap.tolist()
