"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 9 needs the original literature dataset, which is not
redistributable; it runs only when HYDROCHAR_REFERENCE_DATA points at it and is
skipped otherwise.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from hydrochar import data, stats
from hydrochar.cart import TreeParams, fit_tree
from hydrochar.cli import main
from hydrochar.genetic import GaConfig, run_ga
from hydrochar.pipeline import HyperGrid, grid_search, train_all
from hydrochar.shapley import emit_plot_data, explain
from hydrochar.svr import Kernel, SvrParams, fit_svr

from conftest import make_dataset, shuffled_folds
from test_shapley import mc_shapley
from test_svr import check_kkt


def report(num: int, label: str, elapsed: float, budget: float):
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {num} PASS {label} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_metric_oracles():
    t0 = time.perf_counter()
    assert stats.r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert stats.r_squared([1, 2, 3], [2, 2, 2]) == pytest.approx(0.0, abs=1e-12)
    assert stats.r_squared([1, 2, 3, 4], [2, 2, 4, 4]) == pytest.approx(0.6, abs=1e-12)
    assert stats.rmse([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0, abs=1e-12)
    assert stats.rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert stats.rmse([2], [5]) == pytest.approx(3.0, abs=1e-12)
    assert stats.mae([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0, abs=1e-12)
    assert stats.mae([0, 0], [3, 4]) == pytest.approx(3.5, abs=1e-12)
    assert stats.mae([1, 2], [2, 1]) == pytest.approx(1.0, abs=1e-12)
    hand = stats.correlation_matrix(make_dataset(3, temperature_c=[1, 2, 3], hc_yield=[10, 20, 30],
                                                 hc_hhv=[30, 20, 10], hc_vm=[3, 1, 2]))
    row = dict(zip(hand.labels, hand.values[hand.labels.index("temperature_c")]))
    assert [row["hc_yield"], row["hc_hhv"], row["hc_vm"]] == pytest.approx([1.0, -1.0, -0.5], abs=1e-12)
    # Tie-free columns: each is exp of a permutation of 0..n-1, whose 0-based ranks are that permutation.
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        ranks = np.array([rng.permutation(n) for _ in range(21)], dtype=float).T
        table = np.exp(ranks)
        got = stats.correlation_matrix(data.Dataset(table[:, :11], table[:, 11:])).values
        d = ranks[:, :, None] - ranks[:, None, :]  # rank differences of every column pair
        closed = 1.0 - 6.0 * np.einsum("kij,kij->ij", d, d) / (n * (n * n - 1))
        assert np.abs(got - closed).max() <= 1e-12
    report(1, "metric oracles match hand values; Spearman matrix == closed form", time.perf_counter() - t0, 1.0)


def test_criterion_2_dtr_memorization():
    ds = data.generate_synthetic(536, seed=17)
    x = ds.feature_matrix()
    ymat = ds.target_matrix()
    t0 = time.perf_counter()
    tree = fit_tree(x, ymat[:, 0], TreeParams())
    pred = tree.predict_batch(x)
    elapsed = time.perf_counter() - t0
    assert stats.r_squared(ymat[:, 0], pred) == 1.0
    assert stats.rmse(ymat[:, 0], pred) == 0.0
    for j in range(1, 10):
        t = fit_tree(x, ymat[:, j], TreeParams())
        p = t.predict_batch(x)
        assert stats.r_squared(ymat[:, j], p) == 1.0
        assert stats.rmse(ymat[:, j], p) == 0.0
    report(2, "fully-grown DTR memorizes n=536 exactly", elapsed, 1.0)


def _svr_problem(seed: int):
    r = np.random.default_rng(1000 + seed)
    if seed % 2 == 0:
        kernel = Kernel("linear")
        n = int(r.integers(40, 161))
        c, passes = 10.0, 2000
    else:
        kernel = Kernel("rbf", gamma=float(r.uniform(0.2, 1.0)))
        n = int(r.integers(60, 201))
        c, passes = 10.0, 500
    d = int(r.integers(1, 5))
    x = r.standard_normal((n, d))
    w = r.standard_normal(d)
    y = np.tanh(x @ w) + 0.3 * np.sin(x[:, 0]) + r.normal(0, 0.1, n)
    y = (y - y.mean()) / max(y.std(), 1e-9)
    eps = [0.05, 0.1][seed // 2 % 2]
    return x, y, SvrParams(c=c, epsilon=eps, kernel=kernel, max_passes=passes)


def test_criterion_3_svr_kkt_audit():
    t0 = time.perf_counter()
    for seed in range(50):
        x, y, params = _svr_problem(seed)
        model = fit_svr(x, y, params)
        assert model.converged, f"problem {seed} did not converge"
        audit = check_kkt(model, x, y, tolerance=1e-3)
        assert audit.ok, f"problem {seed}: {audit.violations[:3]}"
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (25, 2))
    y = x[:, 0] ** 2 + 0.5 * x[:, 1]
    params = SvrParams(c=10.0, epsilon=0.05, kernel=Kernel("rbf", gamma=0.7), tolerance=1e-8, max_passes=3000)
    single = fit_svr(x, y, params)
    doubled = fit_svr(np.vstack([x, x]), np.concatenate([y, y]), params)
    q = rng.uniform(-1, 1, (50, 2))
    assert np.abs(single.predict_batch(q) - doubled.predict_batch(q)).max() <= 1e-6
    report(3, "50/50 SVR fits pass the KKT audit; duplicate invariance 1e-6", time.perf_counter() - t0, 60.0)


def test_criterion_4_shapley_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    # efficiency on 100 random (model, x) pairs
    for _ in range(100):
        d = int(rng.integers(3, 7))
        n = int(rng.integers(30, 60))
        x = rng.uniform(0, 1, (n, d))
        w = rng.normal(0, 2, d)
        y = x @ w + np.sin(3 * x[:, 0])
        tree = fit_tree(x, y, TreeParams(max_depth=int(rng.integers(2, 6))))
        row = rng.uniform(0, 1, d)
        bg = x[: int(rng.integers(4, 17))]
        e = explain(tree.predict_batch, row, bg)
        assert abs(e.base_value + e.phi.sum() - tree.predict_batch([row])[0]) <= 1e-9
    # dummy feature is exactly zero
    x = rng.uniform(0, 1, (60, 4))
    y = np.where(x[:, 0] <= 0.5, 0.0, 3.0) + np.where(x[:, 2] <= 0.5, 0.0, 1.0)
    tree = fit_tree(x, y, TreeParams())
    assert set(tree.feature[~tree.is_leaf].tolist()) <= {0, 2}
    e = explain(tree.predict_batch, x[0], x[:16])
    assert e.phi[1] == 0.0 and e.phi[3] == 0.0
    # linearity of explanations
    y2 = np.cos(2 * x[:, 1]) + x[:, 3]
    t1 = fit_tree(x, y, TreeParams(max_depth=4))
    t2 = fit_tree(x, y2, TreeParams(max_depth=4))
    both = lambda rows: t1.predict_batch(rows) + t2.predict_batch(rows)  # noqa: E731
    for row in x[:5]:
        ea = explain(t1.predict_batch, row, x[:12])
        eb = explain(t2.predict_batch, row, x[:12])
        es = explain(both, row, x[:12])
        assert np.abs(ea.phi + eb.phi - es.phi).max() <= 1e-9
    # Monte-Carlo permutation oracle on 20 cases
    for case in range(20):
        r = np.random.default_rng(3000 + case)
        d = int(r.integers(3, 5))
        x = r.uniform(0, 1, (40, d))
        y = x @ r.normal(0, 2, d) + np.sin(4 * x[:, 0]) * x[:, -1]
        tree = fit_tree(x, y, TreeParams(max_depth=4))
        bg = x[:8]
        row = x[int(r.integers(0, 40))]
        exact = explain(tree.predict_batch, row, bg)
        phi_mc, se = mc_shapley(tree.predict_batch, row, bg, n_perm=10_000, seed=4000 + case)
        for i in range(d):
            assert abs(exact.phi[i] - phi_mc[i]) <= 3.0 * max(se[i], 1e-12), f"case {case} feature {i}"
    report(4, "efficiency/dummy/linearity axioms and the permutation oracle", time.perf_counter() - t0, 120.0)


def test_criterion_5_ga_sphere_convergence():
    t0 = time.perf_counter()
    ds = data.generate_synthetic(300, seed=31)
    plan = data.split(ds, seed=31)
    train_x = ds.feature_matrix()[plan.train_indices]
    bounds = tuple((float(col.min()), float(col.max())) for col in train_x.T)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    span = hi - lo
    center = lo + 0.35 * span

    def sphere(pop):
        z = (pop - center) / span
        return -np.sum(z * z, axis=1)

    for seed in range(10):
        cfg = GaConfig(bounds=bounds, population=100, generations=200, stagnation_limit=200, seed=seed)
        best_x, best_f, history, gens = run_ga(sphere, cfg, feasible=lambda pop: np.ones(len(pop), dtype=bool))
        assert gens <= 200
        err = np.abs(best_x - center) / span
        assert err.max() <= 1e-2, f"seed {seed}: max normalized error {err.max():.4f}"
        assert all(b >= a for a, b in zip(history, history[1:])), f"seed {seed}: history not monotone"
    report(5, "sphere optimum within 1e-2 per gene for 10/10 seeds", time.perf_counter() - t0, 60.0)


def test_criterion_6_protocol_fidelity():
    t0 = time.perf_counter()
    ds = data.generate_synthetic(500, seed=42)
    grid = HyperGrid.default()
    result = train_all(ds, grid, seed=42, models=("dtr",))
    assert not result.skips["dtr"]
    for target in data.TARGET_COLUMNS:
        r2 = result.trained[("dtr", target)].test_metrics.r2
        assert r2 >= 0.95, f"{target}: test R^2 {r2:.4f} < 0.95"
    noisy = data.generate_synthetic(400, seed=7, noise_sd=1.0)
    x = noisy.feature_matrix()
    y = noisy.target_matrix()[:, 0]
    unlimited = TreeParams(max_depth=None, min_samples_leaf=1)
    limited = TreeParams(max_depth=5, min_samples_leaf=10)
    gs = grid_search(x, y, [unlimited, limited], shuffled_folds(400, 5, 3))
    assert gs.chosen_params is limited
    assert gs.candidates[1][1] < gs.candidates[0][1]
    report(6, "noiseless DTR test R^2 >= 0.95 on all targets; noise picks pruned tree", time.perf_counter() - t0, 300.0)


def test_criterion_7_factor_analysis():
    t0 = time.perf_counter()
    ds = data.generate_synthetic(200, seed=13)
    cols = list(data.FEATURE_COLUMNS) + list(data.TARGET_COLUMNS)
    res = stats.factor_analysis(ds, cols)
    assert res.eigenvalues.sum() == pytest.approx(len(cols), abs=1e-8)
    recon = res.loadings @ res.loadings.T
    assert np.abs(recon - res.correlation).max() <= 1e-8
    # exactly orthogonal cosine columns give an identity correlation matrix
    n = 64
    i = np.arange(n)
    waves = [np.cos(2 * np.pi * (k + 1) * i / n) for k in range(5)]
    ortho = make_dataset(
        n, biomass_n=1.5 + 0.5 * waves[3], biomass_s=0.5 + 0.2 * waves[4], temperature_c=220.0 + 30.0 * waves[0],
        time_min=100.0 + 40.0 * waves[1], water_wt=60.0 + 15.0 * waves[2],
    )
    res2 = stats.factor_analysis(
        ortho, ["temperature_c", "time_min", "water_wt", "biomass_n", "biomass_s"]
    )
    assert np.abs(res2.eigenvalues - 1.0).max() <= 1e-6
    report(7, "eigenvalue sum, identity case, and reconstruction", time.perf_counter() - t0, 5.0)


def test_criterion_8_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "tree_grid": [
            {"max_depth": 6, "min_samples_leaf": 2},
            {"max_depth": 10, "min_samples_leaf": 1},
        ],
        "svr_grid": [],
    }), encoding="utf-8")
    outputs = []
    for run_dir in ("run_a", "run_b"):
        out = tmp_path / run_dir
        assert main(["synth", "--out", str(out), "--n", "100", "--seed", "5"]) == 0
        csv = out / "synthetic.csv"
        assert main(["train", "--data", str(csv), "--out", str(out), "--seed", "5",
                     "--model", "dtr", "--grid", str(grid)]) == 0
        assert main(["explain", "--data", str(csv), "--out", str(out), "--seed", "5",
                     "--model", "dtr", "--target", "hc_hhv", "--background", "16"]) == 0
        assert main(["optimize", "--data", str(csv), "--out", str(out), "--seed", "5",
                     "--application", "energy"]) == 0
        outputs.append(out)
    a, b = outputs
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs between runs"
    report(8, f"all {len(files_a)} chain artifacts byte-identical across runs", time.perf_counter() - t0, 600.0)


# Reported test-phase DTR RMSE per target, used for the conditional check.
PUBLISHED_DTR_TEST_RMSE = {
    "hc_yield": 6.848,
    "hc_hhv": 1.410,
    "hc_vm": 3.833,
    "hc_fc": 3.806,
    "hc_ash": 1.847,
    "hc_c": 3.361,
    "hc_h": 0.248,
    "hc_n": 0.323,
    "hc_s": 0.057,
    "hc_o": 2.655,
}
PUBLISHED_LEADING_EIGENVALUES = (8.08, 3.55, 2.71)


@pytest.mark.skipif(
    not os.environ.get("HYDROCHAR_REFERENCE_DATA"),
    reason="original literature dataset not distributed; set HYDROCHAR_REFERENCE_DATA to run",
)
def test_criterion_9_conditional_published_dataset():
    t0 = time.perf_counter()
    ds = data.load_csv(os.environ["HYDROCHAR_REFERENCE_DATA"])
    result = train_all(ds, HyperGrid.default(), seed=42, models=("dtr",))
    for target, trained in ((t, result.trained.get(("dtr", t))) for t in data.TARGET_COLUMNS):
        assert trained is not None, f"{target} skipped: {result.skips['dtr'].get(target)}"
        assert 0.88 <= trained.test_metrics.r2 <= 1.0, f"{target}: R^2 {trained.test_metrics.r2:.3f}"
        assert trained.test_metrics.rmse <= 2.0 * PUBLISHED_DTR_TEST_RMSE[target]
    cols = list(data.FEATURE_COLUMNS) + list(data.TARGET_COLUMNS)
    factors = stats.factor_analysis(ds, cols)
    for got, want in zip(factors.eigenvalues[:3], PUBLISHED_LEADING_EIGENVALUES):
        assert abs(got - want) <= 0.10 * want
    yield_model = result.trained[("dtr", "hc_yield")]
    x = ds.feature_matrix()
    rng = np.random.default_rng(42)
    bg = x[rng.choice(len(x), size=64, replace=False)]
    bar = emit_plot_data([explain(yield_model.predict, row, bg) for row in x[:200]],
                         feature_names=data.FEATURE_COLUMNS).bar
    top2 = {name for name, _ in bar[:2]}
    assert top2 == {"biomass_ash", "temperature_c"}
    report(9, "published-dataset conditional checks", time.perf_counter() - t0, 3600.0)
