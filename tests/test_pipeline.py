import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrochar import cart, cli, data, pipeline
from hydrochar.cart import TreeParams, fit_tree
from hydrochar.data import Dataset, Scaler
from hydrochar.errors import ConvergenceWarning, HydrocharError, InvalidModelFile, TooFewRows
from hydrochar.pipeline import (
    GridSearchResult,
    HyperGrid,
    TrainedTarget,
    evaluate,
    grid_search,
    train_all,
)
from hydrochar.stats import MetricsReport, rmse
from hydrochar.svr import Kernel, SvrParams, fit_svr

from conftest import examples, shuffled_folds


def tiny_grid():
    return HyperGrid(
        tree_grid=[TreeParams(max_depth=6, min_samples_leaf=2)],
        svr_grid=[SvrParams(c=10.0, epsilon=0.1, kernel=Kernel("rbf", gamma=0.1))],
    )


def test_default_grid_shape():
    grid = HyperGrid.default()
    assert len(grid.tree_grid) == 28
    assert len(grid.svr_grid) == 48
    kinds = {p.kernel.kind for p in grid.svr_grid}
    assert kinds == {"linear", "rbf"}


_reals = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_positive = st.floats(min_value=1e-6, max_value=1e6)
_kernels = st.one_of(
    st.just(Kernel("linear")),
    st.builds(Kernel, st.just("rbf"), gamma=_positive),
)
_saved_objects = st.one_of(
    st.builds(TreeParams, max_depth=st.none() | st.integers(0, 40), min_samples_split=st.integers(2, 50),
              min_samples_leaf=st.integers(1, 50), min_impurity_decrease=_reals),
    st.builds(SvrParams, c=_positive, epsilon=_reals, kernel=_kernels, tolerance=_positive,
              max_passes=st.integers(1, 1000)),
    st.builds(MetricsReport, r2=st.floats(-1e6, 1.0), rmse=_reals, mae=_reals, n=st.integers(0, 10**6)),
)


@given(_saved_objects)
@settings(max_examples=examples(200))
def test_saved_objects_roundtrip_through_json(obj):
    """Hyperparameters and metrics read back from their JSON equal to what was written."""
    to_dict = obj.as_dict if isinstance(obj, MetricsReport) else obj.to_dict
    assert type(obj).from_dict(json.loads(json.dumps(to_dict()))) == obj


def test_grid_entry_without_optional_fields_takes_the_class_defaults():
    grid = HyperGrid.from_json_obj({"tree_grid": [{}], "svr_grid": [
        {"c": 2.0, "epsilon": 0.2, "kernel": {"kind": "linear"}},
        {"c": 2.0, "epsilon": 0.2, "kernel": {"kind": "rbf"}},
    ]})
    (tree,), (linear, rbf) = grid.tree_grid, grid.svr_grid
    assert (tree.max_depth, tree.min_samples_split, tree.min_samples_leaf, tree.min_impurity_decrease) == (None, 2, 1, 0.0)
    assert (linear.tolerance, linear.max_passes, rbf.tolerance, rbf.max_passes) == (1e-3, 200, 1e-3, 200)
    assert rbf.kernel.gamma == 0.1


def test_grid_roundtrips_through_json():
    grid = HyperGrid.default()
    obj = {"tree_grid": [p.to_dict() for p in grid.tree_grid], "svr_grid": [p.to_dict() for p in grid.svr_grid]}
    back = HyperGrid.from_json_obj(json.loads(json.dumps(obj)))
    assert back.tree_grid == grid.tree_grid
    assert back.svr_grid == grid.svr_grid


def test_grid_search_single_entry_honest_cv(rng):
    x = rng.uniform(0, 1, (40, 3))
    y = 3.0 * x[:, 0] + rng.normal(0, 0.1, 40)
    params = TreeParams(max_depth=3, min_samples_leaf=2)
    fold_ids = shuffled_folds(40, 4, 7)
    res = grid_search(x, y, [params], fold_ids)
    assert res.chosen_params is params
    # replicate the documented scoring independently
    scores = []
    for fold in range(4):
        val = np.flatnonzero(fold_ids == fold)
        trn = np.flatnonzero(fold_ids != fold)
        scaler = Scaler.fit(x[trn])
        tree = fit_tree(scaler.transform(x[trn]), y[trn], params)
        scores.append(rmse(y[val], tree.predict_batch(scaler.transform(x[val]))))
    assert res.cv_rmse == pytest.approx(float(np.mean(scores)), abs=1e-12)


def test_grid_search_duplicate_candidates_first_wins(rng):
    x = rng.uniform(0, 1, (30, 2))
    y = x[:, 0] + rng.normal(0, 0.05, 30)
    a = TreeParams(max_depth=4)
    b = TreeParams(max_depth=4)
    res = grid_search(x, y, [a, b], shuffled_folds(30, 3, 1))
    assert res.chosen_params is a
    assert res.candidates[0][1] == res.candidates[1][1]


def test_grid_search_recovers_generating_depth(rng):
    # depth-2 decision rule over a value lattice, so the rule boundaries sit
    # exactly on candidate midpoints and depth >= 2 fits it exactly
    lattice = np.arange(0.05, 1.0, 0.1)
    x = rng.choice(lattice, size=(200, 2))
    y = np.where(x[:, 0] <= 0.5, 5.0, np.where(x[:, 1] <= 0.3, 1.0, 9.0))
    cands = [TreeParams(max_depth=d) for d in (1, 2, 4)]
    res = grid_search(x, y, cands, shuffled_folds(200, 5, 3))
    assert res.chosen_params.max_depth == 2  # ties go to the earliest entry
    assert res.cv_rmse <= 1e-9
    assert res.candidates[0][1] > res.candidates[1][1]


def test_grid_search_chosen_is_minimal(rng):
    x = rng.uniform(0, 1, (60, 3))
    y = np.sin(4 * x[:, 0]) + rng.normal(0, 0.2, 60)
    cands = [TreeParams(max_depth=d, min_samples_leaf=leaf) for d in (2, 6, None) for leaf in (1, 5)]
    res = grid_search(x, y, cands, shuffled_folds(60, 5, 11))
    assert res.cv_rmse == min(s for _, s in res.candidates)


def test_grid_search_depth_limited_beats_overfit_on_noise():
    ds = data.generate_synthetic(400, 7, noise_sd=1.0)
    x = ds.feature_matrix()
    y = ds.target_matrix()[:, 0]
    unlimited = TreeParams(max_depth=None, min_samples_leaf=1)
    limited = TreeParams(max_depth=5, min_samples_leaf=10)
    res = grid_search(x, y, [unlimited, limited], shuffled_folds(400, 5, 3))
    assert res.chosen_params is limited
    assert res.candidates[1][1] < res.candidates[0][1]


def test_train_all_structure(medium_dataset):
    res = train_all(medium_dataset, tiny_grid(), seed=4, models=("dtr",))
    assert len(res.trained) == 10
    assert res.skips == {"dtr": {}}
    rep = res.report
    assert not {"schema_version", "tool_version", "seed"} & set(rep)  # the CLI stamps provenance
    assert rep["n_rows"] == 300
    assert set(rep["models"]["dtr"]) == set(data.TARGET_COLUMNS)
    for section in rep["models"]["dtr"].values():
        assert {"train", "test", "params", "cv_rmse"} <= set(section)


def test_train_all_shared_split_counts(medium_dataset):
    res = train_all(medium_dataset, tiny_grid(), seed=4, models=("dtr",))
    plan = res.plan
    n_test = len(plan.test_indices)
    for (_, target), t in res.trained.items():
        # full synthetic data: every target present on every test row
        assert t.test_metrics.n == n_test
        assert t.train_metrics.n == len(plan.train_indices)


def test_train_all_skips_absent_target():
    base = data.generate_synthetic(120, seed=9)
    y = base.target_matrix().copy()
    y[:, data.TARGET_COLUMNS.index("hc_hhv")] = np.nan  # hc_hhv missing everywhere
    ds = Dataset(base.feature_matrix(), y)
    res = train_all(ds, tiny_grid(), seed=2, models=("dtr",))
    assert "hc_hhv" in res.skips["dtr"]
    assert len(res.trained) == 9


def test_train_all_skips_a_target_constant_on_the_test_rows():
    base = data.generate_synthetic(80, seed=9)
    y = base.target_matrix().copy()
    y[data.split(base, seed=2).test_indices, data.TARGET_COLUMNS.index("hc_s")] = 0.5
    res = train_all(Dataset(base.feature_matrix(), y), tiny_grid(), seed=2)
    assert res.skips == {"dtr": {"hc_s": "test target is constant"}, "svr": {"hc_s": "test target is constant"}}
    assert len(res.trained) == 18


@pytest.mark.parametrize("svr_grid", [[], [SvrParams(c=10.0, epsilon=0.1, kernel=Kernel("linear"))]],
                         ids=["no-svr-candidates", "linear-svr"])
def test_report_entries_match_trained_targets(svr_grid):
    """Each report entry holds its model's metrics, params, cv_rmse and, for an
    SVR, whether the final fit converged; a family without grid candidates is
    skipped for that reason even on a target too sparse to train."""
    base = data.generate_synthetic(80, seed=9)
    y = base.target_matrix().copy()
    y[4:, data.TARGET_COLUMNS.index("hc_s")] = np.nan  # 4 reported cells
    res = train_all(Dataset(base.feature_matrix(), y), HyperGrid([TreeParams(max_depth=4)], svr_grid), seed=2)
    assert res.skips["dtr"]["hc_s"].startswith("only ")
    assert res.skips["svr"]["hc_s"] == ("no grid candidates for this model family" if not svr_grid
                                         else res.skips["dtr"]["hc_s"])
    assert res.report["skips"] == res.skips
    assert sorted(res.trained) == sorted((kind, t) for kind in res.report["models"] for t in res.report["models"][kind])
    assert len(res.trained) == (9 if not svr_grid else 18)
    for (kind, target), t in res.trained.items():
        tst = res.plan.test_indices  # every target but hc_s is reported on every row
        assert t.test_metrics == evaluate(t, base.feature_matrix()[tst], y[tst, data.TARGET_COLUMNS.index(target)])
        want = {"train": t.train_metrics.as_dict(), "test": t.test_metrics.as_dict(),
                "params": t.model.params.to_dict(), "cv_rmse": t.cv_rmse}
        if kind == "svr":
            want["converged"] = t.model.converged
        assert res.report["models"][kind][target] == want


def _constant_water(n, seed):
    base = data.generate_synthetic(n, seed=seed)
    x = base.feature_matrix().copy()
    x[:, data.FEATURE_COLUMNS.index("water_wt")] = 80.0
    return Dataset(x, base.target_matrix())


def test_skip_names_why_every_candidate_failed():
    # the SVR fold scaler rejects a constant column
    res = train_all(_constant_water(60, 9), tiny_grid(), seed=2, models=("svr",))
    reason = "every grid candidate failed cross-validation; first failure: water_wt has fewer than 2 distinct values"
    assert res.report["skips"]["svr"] == {t: reason for t in data.TARGET_COLUMNS}


def test_trees_train_with_a_constant_feature():
    ds = _constant_water(60, 9)
    res = train_all(ds, tiny_grid(), seed=2, models=("dtr",))
    assert res.skips["dtr"] == {}
    assert sorted(target for _, target in res.trained) == sorted(data.TARGET_COLUMNS)
    water = data.FEATURE_COLUMNS.index("water_wt")
    for t in res.trained.values():
        assert t.scaler_in is None and t.scaler_out is None
        assert water not in t.model.feature[~t.model.is_leaf]
    # the column never splits, so dropping it changes no CV score
    x = np.delete(ds.feature_matrix(), water, axis=1)[res.plan.train_indices]
    for (_, target), t in res.trained.items():
        y = ds.target_matrix()[res.plan.train_indices, data.TARGET_COLUMNS.index(target)]
        assert grid_search(x, y, tiny_grid().tree_grid, res.plan.fold_assignments).cv_rmse == t.cv_rmse


def test_trees_train_on_features_near_the_largest_double():
    """Two temperatures whose sum overflows: every split between them is at
    the lower one, so no target is skipped for an infinite threshold."""
    ds = data.generate_synthetic(60, seed=3)
    x = ds.feature_matrix().copy()
    temp = data.FEATURE_COLUMNS.index("temperature_c")
    x[:, temp] = np.where(x[:, temp] <= np.median(x[:, temp]), 1.6e308, 1.7e308)
    res = train_all(Dataset(x, ds.target_matrix()), tiny_grid(), seed=3, models=("dtr",))
    assert res.skips["dtr"] == {}
    splits = [t.model.threshold[(t.model.feature == temp) & ~t.model.is_leaf] for t in res.trained.values()]
    assert any(len(s) for s in splits)
    assert all(s.tolist() == [1.6e308] * len(s) for s in splits)


def test_no_leakage_scaler_fit_on_train_rows(medium_dataset):
    res = train_all(medium_dataset, tiny_grid(), seed=4, models=("svr",))
    plan = res.plan
    x = medium_dataset.feature_matrix()
    t = res.trained[("svr", "hc_yield")]
    train_means = x[plan.train_indices].mean(axis=0)
    full_means = x.mean(axis=0)
    assert np.allclose(t.scaler_in.means, train_means, atol=1e-12)
    assert not np.allclose(t.scaler_in.means, full_means, atol=1e-12)


def test_evaluate_hand_built_tree():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fit_tree(x, y, TreeParams(max_depth=1))
    trained = TrainedTarget(
        target="hc_yield",
        model=tree,
        scaler_in=None,
        scaler_out=None,
        cv_rmse=0.0,
        train_metrics=MetricsReport(1.0, 0.0, 0.0, 4),
        test_metrics=MetricsReport(1.0, 0.0, 0.0, 4),
        target_mean=float(y.mean()),
        target_std=float(y.std()),
    )
    perfect = evaluate(trained, x, y)
    assert perfect.r2 == 1.0 and perfect.rmse == 0.0 and perfect.mae == 0.0
    shifted = evaluate(trained, x, np.array([1.0, 1.0, 9.0, 9.0]))
    assert shifted.rmse == pytest.approx(1.0, abs=1e-12)
    assert shifted.mae == pytest.approx(1.0, abs=1e-12)
    assert shifted.r2 == pytest.approx(0.9375, abs=1e-12)


def test_report_bytes_reproducible(medium_dataset):
    a = train_all(medium_dataset, tiny_grid(), seed=6, models=("dtr",))
    b = train_all(medium_dataset, tiny_grid(), seed=6, models=("dtr",))
    assert json.dumps(a.report, sort_keys=True) == json.dumps(b.report, sort_keys=True)


def test_svr_metrics_reported_in_original_units(medium_dataset):
    res = train_all(medium_dataset, tiny_grid(), seed=4, models=("svr",))
    t = res.trained[("svr", "hc_hhv")]
    assert t.scaler_out is not None
    y = medium_dataset.target_matrix()[:, 1]
    # original-unit RMSE must sit at target scale, not standardized scale
    assert 0.0 < t.test_metrics.rmse < np.std(y) * 2
    assert t.test_metrics.r2 > 0.5
    plan = res.plan
    assert t.target_mean == pytest.approx(float(y[plan.train_indices].mean()), rel=1e-12)


def test_report_says_whether_each_svr_final_fit_converged(small_dataset):
    """A budget-bound SVR reads converged false in report.json, a converging
    one true; DTR entries carry no such field."""
    bound = HyperGrid(tree_grid=[TreeParams(max_depth=6)],
                      svr_grid=[SvrParams(c=1000.0, epsilon=0.01, kernel=Kernel("linear"), max_passes=1)])
    with pytest.warns(ConvergenceWarning):
        res = train_all(small_dataset, bound, seed=3)
    assert set(res.report["models"]["svr"]) == set(data.TARGET_COLUMNS)
    assert all(entry["converged"] is False for entry in res.report["models"]["svr"].values())
    assert all("converged" not in entry for entry in res.report["models"]["dtr"].values())
    res = train_all(small_dataset, tiny_grid(), seed=3, models=("svr",))
    assert all(entry["converged"] is True for entry in res.report["models"]["svr"].values())


def test_trained_target_serialization_roundtrip(medium_dataset):
    res = train_all(medium_dataset, tiny_grid(), seed=4, models=("dtr", "svr"))
    for key in (("dtr", "hc_yield"), ("svr", "hc_yield")):
        t = res.trained[key]
        back = TrainedTarget.from_json_obj(json.loads(json.dumps(t.to_json_obj())))
        q = medium_dataset.feature_matrix()[:25]
        assert np.abs(back.predict(q) - t.predict(q)).max() <= 1e-12
        assert back.cv_rmse == t.cv_rmse
        assert back.model.params == t.model.params


def test_grid_search_all_candidates_failing_raises(rng):
    x = rng.uniform(0, 1, (20, 2))
    y = np.full(20, 3.0)  # constant target breaks the SVR target scaler
    svr = [SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear"))]
    folds = shuffled_folds(20, 4, 0)
    with pytest.raises(HydrocharError):
        grid_search(x, y, svr, folds)
    x[:, 1] = 0.5  # a constant column breaks every fold's SVR input scaler
    with pytest.raises(HydrocharError, match="first failure: column 1 has fewer than 2 distinct values"):
        grid_search(x, y + x[:, 0], svr, folds)
    with pytest.raises(HydrocharError, match="first failure: time_min has fewer than 2 distinct values"):
        grid_search(x, y + x[:, 0], svr, folds, columns=("temperature_c", "time_min"))


def test_grid_search_trees_ignore_a_constant_column():
    x, y = _synthetic_xy(60, 36)
    x[:, 5] = 0.25
    trees = [p for p in _mixed_grid() if isinstance(p, TreeParams)]
    folds = shuffled_folds(60, 5, 3)
    got = _assert_same_search(x, y, trees, folds)
    assert got.candidates == grid_search(np.delete(x, 5, axis=1), y, trees, folds).candidates
    assert all(np.isfinite(score) for _, score in got.candidates)
    # in a mixed grid the trees still score and every SVR candidate fails
    got = _assert_same_search(x, y, _mixed_grid(), folds, columns=data.FEATURE_COLUMNS)
    assert [np.isinf(score) for _, score in got.candidates] == [isinstance(p, SvrParams) for p in _mixed_grid()]


def _reference_cv_fold_rmse(x, y, params, trn, val, columns) -> float:
    if isinstance(params, SvrParams):
        scaler = Scaler.fit(x[trn], columns=columns)
        y_scaler = Scaler.fit(y[trn][:, None])
        y_trn = y_scaler.transform(y[trn][:, None])[:, 0]
        model = fit_svr(scaler.transform(x[trn]), y_trn, params)
        pred = y_scaler.inverse_transform(model.predict_batch(scaler.transform(x[val]))[:, None])[:, 0]
    else:
        pred = fit_tree(x[trn], y[trn], params).predict_batch(x[val])
    return rmse(y[val], pred)


def _reference_grid_search(x, y, candidates, fold_ids, columns=None) -> GridSearchResult:
    """Per-candidate loop that selects every fold's rows again by index and
    scales SVR folds with its own code: the oracle for grid_search's shared
    raw fold slices and its one fit/predict path through ``_fit``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    candidates = list(candidates)
    n = len(y)
    fold_ids = np.asarray(fold_ids, dtype=int)
    folds = [np.flatnonzero(fold_ids == f) for f in range(int(fold_ids.max()) + 1)]
    nonempty = [f for f in folds if len(f)]
    scored = []
    first_failure = None
    for params in candidates:
        fold_scores = []
        try:
            for val in nonempty:
                trn = np.setdiff1d(np.arange(n), val)
                if len(trn) < 2:
                    raise TooFewRows("fold training part too small")
                fold_scores.append(_reference_cv_fold_rmse(x, y, params, trn, val, columns))
            score = float(np.mean(fold_scores))
        except HydrocharError as exc:
            score = np.inf
            first_failure = first_failure or str(exc)
        scored.append((params, score))
    best_idx = min(range(len(scored)), key=lambda i: (scored[i][1], i))
    chosen, cv = scored[best_idx]
    if not np.isfinite(cv):
        raise HydrocharError(f"every grid candidate failed cross-validation; first failure: {first_failure}")
    return GridSearchResult(chosen_params=chosen, cv_rmse=cv, candidates=scored)


def _mixed_grid():
    trees = [TreeParams(max_depth=d, min_samples_leaf=leaf) for d in (2, 6, None) for leaf in (1, 5)]
    svrs = [SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear")),
            SvrParams(c=10.0, epsilon=0.1, kernel=Kernel("rbf", gamma=0.1))]
    return trees[:3] + svrs[:1] + trees[3:] + svrs[1:]


def _assert_same_search(*args, **kwargs):
    want = _reference_grid_search(*args, **kwargs)
    got = grid_search(*args, **kwargs)
    assert got.candidates == want.candidates  # the same bits, inf included
    assert got.chosen_params == want.chosen_params
    assert got.cv_rmse == want.cv_rmse
    return got


def _synthetic_xy(n, seed, target=0):
    ds = data.generate_synthetic(n, seed=seed, noise_sd=0.5)
    return ds.feature_matrix().copy(), ds.target_matrix()[:, target].copy()


def test_grid_search_matches_per_candidate_reference():
    x, y = _synthetic_xy(60, 31)
    got = _assert_same_search(x, y, _mixed_grid(), shuffled_folds(60, 5, 4), columns=data.FEATURE_COLUMNS)
    assert all(np.isfinite(score) for _, score in got.candidates)


def test_grid_search_matches_reference_when_one_fold_fails():
    x, y = _synthetic_xy(40, 32)
    fold_ids = np.arange(40) % 4
    # constant on every row outside fold 2: only that fold's SVR input scaler fails
    x[:, 3] = np.where(fold_ids == 2, x[:, 3], 0.25)
    got = _assert_same_search(x, y, _mixed_grid(), fold_ids, columns=data.FEATURE_COLUMNS)
    assert [np.isinf(score) for _, score in got.candidates] == [isinstance(p, SvrParams) for p in _mixed_grid()]
    svrs = [p for p in _mixed_grid() if isinstance(p, SvrParams)]
    with pytest.raises(HydrocharError) as got:
        grid_search(x, y, svrs, fold_ids, columns=data.FEATURE_COLUMNS)
    with pytest.raises(HydrocharError) as want:
        _reference_grid_search(x, y, svrs, fold_ids, columns=data.FEATURE_COLUMNS)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("first failure: biomass_s has fewer than 2 distinct values")
    # a target constant outside fold 1 fails only the SVR target scaler there
    x, y = _synthetic_xy(40, 33)
    y = np.where(fold_ids == 1, y, 3.0)
    got = _assert_same_search(x, y, _mixed_grid(), fold_ids)
    assert [np.isinf(score) for _, score in got.candidates] == [isinstance(p, SvrParams) for p in _mixed_grid()]
    with pytest.raises(HydrocharError) as got:
        grid_search(x, y, svrs, fold_ids)
    with pytest.raises(HydrocharError) as want:
        _reference_grid_search(x, y, svrs, fold_ids)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("first failure: column 0 has fewer than 2 distinct values")


def test_grid_search_matches_reference_with_an_empty_fold():
    x, y = _synthetic_xy(36, 34)
    fold_ids = np.array([0, 1, 3, 4] * 9)  # fold 2 has no rows
    _assert_same_search(x, y, _mixed_grid(), fold_ids)


def test_grid_search_fits_each_candidate_on_each_fold(monkeypatch):
    x, y = _synthetic_xy(50, 35)
    calls = []

    def counting_fit_tree(*args):
        calls.append(args[2])
        return fit_tree(*args)

    monkeypatch.setattr(pipeline, "fit_tree", counting_fit_tree)
    grid = HyperGrid.default().tree_grid
    grid_search(x, y, grid, shuffled_folds(50, 5, 2))
    # one fold at a time, the uncapped candidates first and then the rest, each in grid order
    assert calls == ([p for p in grid if p.max_depth is None] + [p for p in grid if p.max_depth is not None]) * 5


def test_grid_search_refuses_zero_rows_with_a_reason():
    with pytest.raises(TooFewRows, match="^need at least 2 non-empty folds$"):
        grid_search(np.zeros((0, 11)), np.zeros(0), [TreeParams()], np.zeros(0, int))


def test_grid_search_matches_reference_on_the_default_tree_grid():
    """The 28 default tree candidates share each fold's split memo: 7 depth
    caps at each of 4 leaf sizes read the splits of one search per node."""
    x, y = _synthetic_xy(100, 37)
    got = _assert_same_search(x, y, HyperGrid.default().tree_grid, shuffled_folds(100, 5, 5))
    assert all(np.isfinite(score) for _, score in got.candidates)


def test_grid_search_searches_each_node_once_per_fold(monkeypatch):
    """On the default tree grid every node any candidate splits is a node of
    the unlimited-depth tree of its leaf size, and one search of a node
    serves every leaf size, so each fold makes exactly the searches of those
    four trees fitted through one fresh memo: one per distinct node, fewer
    than four memos of one leaf size each would make."""
    x, y = _synthetic_xy(100, 38)
    fold_ids = shuffled_folds(100, 5, 6)
    searches = []
    search = cart._search

    def counting_search(*args):
        searches.append(args[0])
        return search(*args)

    monkeypatch.setattr(cart, "_search", counting_search)
    grid_search(x, y, HyperGrid.default().tree_grid, fold_ids)
    in_search = len(searches)
    searches.clear()
    leaves = pipeline.DEFAULT_TREE_MIN_LEAF
    for f in range(5):
        trn = fold_ids != f
        memo = cart.SplitMemo(leaves)
        for leaf in leaves:
            fit_tree(x[trn], y[trn], TreeParams(min_samples_leaf=leaf), memo)
    assert in_search == len(searches) == len({id(node) for node in searches})
    searches.clear()
    for f in range(5):
        for leaf in leaves:
            fit_tree(x[fold_ids != f], y[fold_ids != f], TreeParams(min_samples_leaf=leaf))
    assert in_search < len(searches)


def test_grid_search_checks_the_fold_inputs_once_per_fold(monkeypatch):
    """fit_tree checks its inputs when it makes a memo's root record, and a
    fold's tree candidates share one memo, so a default-grid search checks x
    and y once per fold, not once per candidate or leaf size."""
    x, y = _synthetic_xy(50, 40)
    checked = []
    real = cart.require_finite
    monkeypatch.setattr(cart, "require_finite", lambda name, a: checked.append(name) or real(name, a))
    grid_search(x, y, HyperGrid.default().tree_grid, shuffled_folds(50, 5, 3))
    assert checked == ["x", "y"] * 5


def test_grid_search_walks_the_validation_rows_once_per_distinct_tree(monkeypatch):
    """A candidate whose cap the uncapped tree of its stops never reaches gets
    that tree's arrays from fit_tree, and the fold scores them once: on a grid
    of binding caps and caps of 40, 64 and None over three sets of stops, each
    fold walks its validation rows once per binding cap and once per set of
    stops. Every score and the choice are the reference's."""
    x, y = _synthetic_xy(60, 39)
    fold_ids = shuffled_folds(60, 5, 7)
    stops = [(1, 2, 0.0), (5, 2, 0.0), (1, 6, 0.05)]
    grid = [TreeParams(max_depth=d, min_samples_leaf=leaf, min_samples_split=split, min_impurity_decrease=decrease)
            for d in (1, None, 40, 2, 64) for leaf, split, decrease in stops]
    for f in range(5):
        for leaf, split, decrease in stops:
            depth = fit_tree(x[fold_ids != f], y[fold_ids != f], TreeParams(None, split, leaf, decrease)).depth
            assert 2 < depth < 40  # caps 1 and 2 bind; 40, 64 and None do not
    walks = []
    predict_batch = cart.RegressionTree.predict_batch

    def counting_predict_batch(tree, rows):
        walks.append(tree)
        return predict_batch(tree, rows)

    monkeypatch.setattr(cart.RegressionTree, "predict_batch", counting_predict_batch)
    got = grid_search(x, y, grid, fold_ids)
    assert len(walks) == 5 * len(stops) * 3
    monkeypatch.undo()
    want = _reference_grid_search(x, y, grid, fold_ids)
    assert got.candidates == want.candidates
    assert (got.chosen_params, got.cv_rmse) == (want.chosen_params, want.cv_rmse)


def test_grid_search_scores_a_cap_equal_to_the_uncapped_depth_with_the_uncapped_tree(monkeypatch):
    """The fold fits the uncapped candidates first, so a cap equal to the
    uncapped tree's depth gets that tree back: on caps (D, None), where D is
    the depth of every fold's uncapped tree, each fold walks its validation
    rows once per set of stops. Every score and the choice are the
    reference's."""
    x = np.stack([np.arange(40) % 4, np.arange(40) % 7], axis=1).astype(float)
    y = x[:, 0]
    fold_ids = shuffled_folds(40, 5, 8)
    leaves = (1, 3)
    depths = {fit_tree(x[fold_ids != f], y[fold_ids != f], TreeParams(min_samples_leaf=leaf)).depth
              for f in range(5) for leaf in leaves}
    assert depths == {2}
    grid = [TreeParams(max_depth=d, min_samples_leaf=leaf) for leaf in leaves for d in (2, None)]
    walks = []
    predict_batch = cart.RegressionTree.predict_batch

    def counting_predict_batch(tree, rows):
        walks.append(tree)
        return predict_batch(tree, rows)

    monkeypatch.setattr(cart.RegressionTree, "predict_batch", counting_predict_batch)
    got = grid_search(x, y, grid, fold_ids)
    assert len(walks) == 5 * len(leaves)
    monkeypatch.undo()
    want = _reference_grid_search(x, y, grid, fold_ids)
    assert got.candidates == want.candidates
    assert (got.chosen_params, got.cv_rmse) == (want.chosen_params, want.cv_rmse)


_DATA = Path(__file__).parent / "data"


def test_schema1_dtr_file_predicts_as_written():
    """A DTR file written before trees fit on raw inputs holds standardized
    thresholds and its scaler. It still loads, and at each split's raw
    threshold T and the doubles on either side of it, it predicts what the
    writing version predicted, bit for bit."""
    obj = json.loads((_DATA / "schema1_model_dtr_hc_yield.json").read_text(encoding="utf-8"))
    probes = json.loads((_DATA / "schema1_probes.json").read_text(encoding="utf-8"))
    trained = TrainedTarget.from_json_obj(obj)
    assert obj["schema_version"] == 1 and trained.scaler_in is not None
    rows = np.array(probes["rows"])
    assert trained.predict(rows).tobytes() == np.array(probes["predictions"]).tobytes()
    # each split's three probes: one below T, T itself, one above
    cuts = rows[np.arange(1, len(rows), 3), trained.model.feature[~trained.model.is_leaf]]
    assert cuts.tolist() == probes["raw_thresholds"]
    assert trained.to_json_obj()["scaler_in"] == obj["scaler_in"]


def test_schema1_dtr_file_without_its_scaler_key_is_refused(tmp_path):
    """With its scaler_in key renamed, the schema-1 file would load without its scaler and walk raw rows through
    standardized thresholds; it is refused, naming the missing field and the file."""
    obj = json.loads((_DATA / "schema1_model_dtr_hc_yield.json").read_text(encoding="utf-8"))
    obj["scaler"] = obj.pop("scaler_in")
    path = tmp_path / "model_dtr_hc_yield.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(InvalidModelFile, match=f"^model file {re.escape(str(path))} has no field 'scaler_in'$"):
        cli._read_model(path, "dtr", "hc_yield")


def test_grid_search_memory_is_one_folds_split_memos():
    """The search keeps the split memo of one fold at a time: on the default
    tree grid at 200 rows the traced peak is about 1,740-1,790 bytes a row:
    a record for every node the fold's fits reach and for the children of
    every leaf size's split, the tree of each leaf size that no depth cap
    bound, and the value array of each tree the fold scored. It was about
    1,770 with one memo per leaf size, about 1,850 while a searched record
    kept its rows, and about 3,880 when every fold's memos lived until the
    search returned and a memo held only split tuples."""
    x, y = _synthetic_xy(200, 42)
    fold_ids = shuffled_folds(200, 5, 0)
    tracemalloc.start()
    try:
        grid_search(x, y, HyperGrid.default().tree_grid, fold_ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000 * 200, peak
