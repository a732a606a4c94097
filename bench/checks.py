"""Output checks run after every benchmarked command.

Each check reads the artifacts a command wrote (for the explain step, the
plot data it returned) and returns a list of problems; an empty list means
the output is correct. Checks parse the files
themselves and call into ``hydrochar`` only to reload a saved model or to
apply the program's own mass-balance rule.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import FEATURES, TARGETS

# Files each command writes, whose bytes are fixed by the seed; their
# digests are compared across the runs of one invocation.
ARTIFACTS = {
    "validate": (),
    "stats": ("correlation_matrix.csv", "correlation_matrix.json", "factors.json", "factors.csv", "van_krevelen.csv"),
    "train": ("report.json",),  # plus one model file per trained target
    "evaluate": ("evaluation.json",),
    "explain": (),  # the explain step writes no files; its plot data is digested
    "optimize": ("optimum.json",),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(features, targets) of a canonical CSV, NaN where a target is absent."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != FEATURES + TARGETS:
        raise ValueError(f"{path.name}: unexpected header")
    cells = np.array([[float(c) if c else np.nan for c in r] for r in rows[1:]], dtype=float)
    return cells[:, : len(FEATURES)], cells[:, len(FEATURES):]


def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the provenance comment and the header."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_validate(stdout: str, table: Path) -> list[str]:
    n = len(read_table(table)[0])
    problems = []
    if f"n_rows: {n}" not in stdout.splitlines():
        problems.append(f"validate did not report n_rows: {n}")
    if "warnings: 0" not in stdout.splitlines():
        problems.append("validate reported warnings on generated data")
    return problems


def check_train(out: Path, table: Path, kind: str, expect_targets: tuple[str, ...]) -> list[str]:
    """report.json matches the input CSV and names a readable model per target."""
    problems: list[str] = []
    report = _load_json(out / "report.json", problems)
    if report is None:
        return problems
    if report.get("dataset_fingerprint") != sha256(table):
        problems.append("report.json dataset_fingerprint does not match the input CSV")
    trained = report.get("models", {}).get(kind, {})
    if sorted(trained) != sorted(expect_targets):
        problems.append(f"trained {sorted(trained)}, expected {sorted(expect_targets)}")
    for target, entry in trained.items():
        if not math.isfinite(entry["test"]["r2"]):
            problems.append(f"{target}: test r2 is not finite")
        model = _load_json(out / f"model_{kind}_{target}.json", problems)
        if model is not None and model.get("target") != target:
            problems.append(f"model_{kind}_{target}.json names target {model.get('target')}")
    return problems


def holdout_r2(out: Path, kind: str, x: np.ndarray, y: np.ndarray) -> float:
    """Mean R^2 of every saved ``kind`` model on the holdout rows (x, y)."""
    from hydrochar import pipeline

    scores = []
    for name in model_files(out, kind):
        model = pipeline.TrainedTarget.from_json_obj(json.loads((out / name).read_text(encoding="utf-8")))
        actual = y[:, TARGETS.index(model.target)]
        resid = actual - model.predict(x)
        scores.append(1.0 - float(resid @ resid) / float(((actual - actual.mean()) ** 2).sum()))
    return sum(scores) / len(scores)


def model_files(out: Path, kind: str) -> list[str]:
    return sorted(p.name for p in out.glob(f"model_{kind}_*.json"))


def check_evaluate(out: Path, table: Path, kind: str) -> list[str]:
    problems: list[str] = []
    ev = _load_json(out / "evaluation.json", problems)
    if ev is None:
        return problems
    _, y = read_table(table)
    section = ev.get("models", {}).get(kind, {})
    if not section:
        problems.append(f"evaluation.json has no {kind} models")
    for target, m in section.items():
        present = int((~np.isnan(y[:, TARGETS.index(target)])).sum())
        if m.get("n") != present or not math.isfinite(m.get("r2", math.nan)):
            problems.append(f"evaluation of {target}: n={m.get('n')} (expected {present}), r2={m.get('r2')}")
    return problems


def check_stats(out: Path, table: Path) -> list[str]:
    """Symmetric unit-diagonal correlations; eigenvalues sum to the column count."""
    problems: list[str] = []
    corr = _load_json(out / "correlation_matrix.json", problems)
    if corr is not None:
        v = np.array([[np.nan if c is None else c for c in row] for row in corr["values"]], dtype=float)
        if v.shape != (len(corr["labels"]),) * 2:
            problems.append(f"correlation matrix has shape {v.shape}")
        elif not np.array_equal(np.isnan(v), np.isnan(v.T)) or np.nanmax(np.abs(v - v.T)) > 0.0:
            problems.append("correlation matrix is not symmetric")
        elif not np.all(np.diag(v) == 1.0):
            problems.append("correlation matrix diagonal is not 1")
    factors = _load_json(out / "factors.json", problems)
    if factors is not None:
        total = math.fsum(factors["eigenvalues"])
        if abs(total - len(factors["labels"])) > 1e-9:
            problems.append(f"factor eigenvalues sum to {total!r}, not {len(factors['labels'])}")
    n = len(read_table(table)[0])
    for name in ("correlation_matrix.csv", "factors.csv"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    if (out / "van_krevelen.csv").is_file():
        if len(_data_rows(out / "van_krevelen.csv")) != n:
            problems.append("van_krevelen.csv does not have one row per input row")
    else:
        problems.append("van_krevelen.csv missing")
    return problems


def plot_digest(plot) -> str:
    """SHA-256 of an explain step's per-row predictions and attributions."""
    return hashlib.sha256(np.ascontiguousarray(plot.fx).tobytes()
                          + np.ascontiguousarray(plot.heatmap).tobytes()).hexdigest()


def check_explain(plot, model_path: Path, table: Path) -> list[str]:
    """Every explained row satisfies fx = base + sum(phi) with one shared
    base, and fx equals the saved model's prediction, both within 1e-9 x
    the target's training spread; the beeswarm and bar tables are complete."""
    from hydrochar import pipeline

    problems: list[str] = []
    obj = _load_json(model_path, problems)
    if obj is None:
        return problems
    model = pipeline.TrainedTarget.from_json_obj(obj)
    x, _ = read_table(table)
    fx, phi = np.asarray(plot.fx, dtype=float), np.asarray(plot.heatmap, dtype=float)
    if fx.shape != (len(x),) or phi.shape != x.shape:
        return problems + [f"plot data has {fx.shape} predictions and {phi.shape} attributions for {x.shape} rows"]
    tol = 1e-9 * max(model.target_std, 1e-12)
    base = fx - phi.sum(axis=1)
    if np.ptp(base) > tol:
        problems.append(f"fx - sum(phi) varies by {np.ptp(base):.3g} across rows")
    gap = float(np.max(np.abs(fx - model.predict(x))))
    if gap > tol:
        problems.append(f"fx differs from the saved model's prediction by {gap:.3g}")
    if len(plot.beeswarm) != len(x) * len(FEATURES):
        problems.append("beeswarm does not have one entry per (row, feature)")
    if sorted(name for name, _ in plot.bar) != sorted(FEATURES):
        problems.append("bar does not have one entry per feature")
    return problems


def check_optimize(out: Path) -> list[str]:
    """Optimum inside the bounds, mass-balance feasible, history non-decreasing."""
    from hydrochar import data

    problems: list[str] = []
    rep = _load_json(out / "optimum.json", problems)
    if rep is None:
        return problems
    x = np.array([rep["best_inputs"][f] for f in FEATURES], dtype=float)
    bounds = np.array(rep["config"]["bounds"], dtype=float)
    if np.any(x < bounds[:, 0]) or np.any(x > bounds[:, 1]):
        problems.append("optimum lies outside the search bounds")
    if not bool(data.mass_balance_ok(x)[0]):
        problems.append("optimum fails the mass-balance constraint")
    history = np.array(rep["history"], dtype=float)
    if np.any(np.diff(history) < 0.0):
        problems.append("best-fitness history decreases")
    if history[-1] != rep["best_fitness"]:
        problems.append("best_fitness is not the last history entry")
    return problems
