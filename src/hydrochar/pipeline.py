"""Experiment protocol: per-target cross-validated grid search and reporting.

One 80/20 split plan is shared by every target; rows are filtered per target
after splitting so the train/test boundary stays comparable. Trees fit on raw
inputs and targets: a split compares one feature with a threshold, so scaling
changes nothing. For SVR, inputs and targets are standardized on training
statistics only, with predictions mapped back before any metric is computed,
so all reported metrics are in original target units.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .cart import RegressionTree, TreeParams, fit_tree
from .data import Dataset, Scaler, SplitPlan
from .errors import HydrocharError, InvalidGrid, InvalidModelFile, TooFewRows, refusing, require_real, require_type
from .stats import MetricsReport, metrics_report, rmse
from .svr import Kernel, SvrModel, SvrParams, fit_svr

SCHEMA_VERSION = 1  # of every file the CLI writes, model files included

DEFAULT_TREE_DEPTHS = (4, 6, 8, 10, 12, 16, None)
DEFAULT_TREE_MIN_LEAF = (1, 2, 5, 10)
DEFAULT_SVR_C = (0.1, 1.0, 10.0, 100.0)
DEFAULT_SVR_EPSILON = (0.01, 0.1, 0.5)
DEFAULT_SVR_GAMMAS = (0.05, 0.1, 0.5)


@dataclass
class HyperGrid:
    """Candidate hyperparameters per model family."""

    tree_grid: list[TreeParams]
    svr_grid: list[SvrParams]

    def __post_init__(self):
        if not self.tree_grid and not self.svr_grid:
            raise InvalidGrid("grid must contain at least one candidate")

    @classmethod
    def default(cls) -> "HyperGrid":
        trees = [
            TreeParams(max_depth=d, min_samples_leaf=leaf)
            for d, leaf in itertools.product(DEFAULT_TREE_DEPTHS, DEFAULT_TREE_MIN_LEAF)
        ]
        kernels = [Kernel("linear")] + [Kernel("rbf", gamma=g) for g in DEFAULT_SVR_GAMMAS]
        svrs = [
            SvrParams(c=c, epsilon=e, kernel=k)
            for c, e, k in itertools.product(DEFAULT_SVR_C, DEFAULT_SVR_EPSILON, kernels)
        ]
        return cls(tree_grid=trees, svr_grid=svrs)

    @classmethod
    def from_json_obj(cls, obj) -> "HyperGrid":
        """Read a grid file's JSON; a malformed one raises InvalidGrid naming the entry."""
        if not isinstance(obj, dict):
            raise InvalidGrid(
                f"a grid file must hold a JSON object of tree_grid and svr_grid lists, got {type(obj).__name__}"
            )
        unknown = [k for k in obj if k not in ("tree_grid", "svr_grid")]
        if unknown:
            raise InvalidGrid(f"unknown field {unknown[0]!r}; expected one of tree_grid, svr_grid")
        return cls(
            tree_grid=_grid_entries(obj, "tree_grid", TreeParams.from_dict),
            svr_grid=_grid_entries(obj, "svr_grid", SvrParams.from_dict),
        )


def _grid_entries(obj: dict, key: str, parse) -> list:
    entries = obj.get(key, [])
    if not isinstance(entries, list):
        raise InvalidGrid(f"{key} must be a list of entries, got {type(entries).__name__}")
    parsed = []
    for i, entry in enumerate(entries):
        with refusing(InvalidGrid, f"{key}[{i}]"):
            parsed.append(parse(entry))
    return parsed


@dataclass
class TrainedTarget:
    """One fitted surrogate with its scalers, selection trace, and metrics."""

    target: str
    model: RegressionTree | SvrModel
    scaler_in: Scaler | None  # None for a tree, unless an older file stored the scaler it was fit through
    scaler_out: Scaler | None
    cv_rmse: float
    train_metrics: MetricsReport
    test_metrics: MetricsReport
    target_mean: float
    target_std: float

    def __post_init__(self):
        if not np.isfinite(self.target_mean):
            raise InvalidModelFile(f"target_mean {self.target_mean} is not finite")
        if not (np.isfinite(self.target_std) and self.target_std > 0.0):
            raise InvalidModelFile(f"target_std {self.target_std} is not finite and > 0")
        if self.kind == "svr" and (self.scaler_in is None or self.scaler_out is None):
            raise InvalidModelFile("an svr model needs both scaler_in and scaler_out")
        if self.scaler_in is not None and self.scaler_in.means.size != self.model.n_features:
            raise InvalidModelFile(f"model has {self.model.n_features} features, scaler_in {self.scaler_in.means.size}")
        if self.scaler_out is not None and self.scaler_out.means.size != 1:
            raise InvalidModelFile(f"scaler_out has {self.scaler_out.means.size} columns, not 1")

    @property
    def kind(self) -> str:
        return "svr" if isinstance(self.model, SvrModel) else "dtr"

    def predict(self, x_raw) -> np.ndarray:
        """Predict on raw (unscaled) feature rows, in original target units."""
        return _predict(self.model, self.scaler_in, self.scaler_out, np.atleast_2d(np.asarray(x_raw, dtype=float)))

    def shapley_values(self, x_raw, background_raw) -> np.ndarray | None:
        """Exact Shapley values of ``predict`` at one raw row over raw
        background rows, in target units; None where the model has no closed
        form (trees, polynomial-kernel SVRs) and coalitions are enumerated.

        The input scaler maps each feature on its own, so a coalition row
        standardizes to the same coalition of standardized rows; the output
        scaler is affine, so every value scales by its std.
        """
        if self.kind != "svr":
            return None
        phi = self.model.shapley_values(self.scaler_in.transform(x_raw), self.scaler_in.transform(background_raw))
        return None if phi is None else phi * self.scaler_out.stds[0]

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "model_kind": self.kind,
            "params": self.model.params.to_dict(),
            "cv_rmse": self.cv_rmse,
            "scaler_in": self.scaler_in.to_dict() if self.scaler_in is not None else None,
            "scaler_out": self.scaler_out.to_dict() if self.scaler_out is not None else None,
            "target_mean": self.target_mean,
            "target_std": self.target_std,
            "train_metrics": self.train_metrics.as_dict(),
            "test_metrics": self.test_metrics.as_dict(),
            "model": self.model.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TrainedTarget":
        version = require_type("a model file", obj, dict).get("schema_version")
        if version != SCHEMA_VERSION:
            raise InvalidModelFile(f"model file schema_version {version!r} is not supported; expected {SCHEMA_VERSION}")
        kind = obj["model_kind"]
        if kind not in ("dtr", "svr"):
            raise InvalidModelFile(f"model_kind {kind!r} is neither 'dtr' nor 'svr'")
        model_cls, params_cls = (RegressionTree, TreeParams) if kind == "dtr" else (SvrModel, SvrParams)
        model = model_cls.from_json_obj(obj["model"])
        if params_cls.from_dict(obj["params"]) != model.params:
            raise InvalidModelFile(f"params {obj['params']} differ from the model's own {model.params.to_dict()}")
        return cls(
            target=obj["target"],
            model=model,
            scaler_in=Scaler.from_dict(obj["scaler_in"]) if obj["scaler_in"] is not None else None,
            scaler_out=Scaler.from_dict(obj["scaler_out"]) if obj["scaler_out"] is not None else None,
            cv_rmse=require_real("cv_rmse", obj["cv_rmse"]),
            train_metrics=MetricsReport.from_dict(obj["train_metrics"]),
            test_metrics=MetricsReport.from_dict(obj["test_metrics"]),
            target_mean=require_real("target_mean", obj["target_mean"]),
            target_std=require_real("target_std", obj["target_std"]),
        )


@dataclass
class GridSearchResult:
    chosen_params: TreeParams | SvrParams
    cv_rmse: float
    candidates: list[tuple[TreeParams | SvrParams, float]]


def _fit(x, y, params, columns, splits=None) -> tuple[RegressionTree | SvrModel, Scaler | None, Scaler | None]:
    """Fit one candidate on raw rows; returns (model, scaler_in, scaler_out).

    A tree fits the raw rows, through the split memo ``splits`` when given,
    and has no scalers. An SVR fits rows and target standardized by scalers
    fit on these rows; a scaler that cannot be fit raises, naming a column
    of ``x`` from ``columns`` when given.
    """
    if not isinstance(params, SvrParams):
        return fit_tree(x, y, params, splits), None, None
    scaler_in = Scaler.fit(x, columns=columns)
    scaler_out = Scaler.fit(y[:, None])
    return fit_svr(scaler_in.transform(x), scaler_out.transform(y[:, None])[:, 0], params), scaler_in, scaler_out


def _predict(model, scaler_in: Scaler | None, scaler_out: Scaler | None, x: np.ndarray) -> np.ndarray:
    """Predictions of ``_fit``'s result on raw rows, in original target units."""
    if scaler_in is not None:
        x = scaler_in.transform(x)
    pred = model.predict_batch(x)
    if scaler_out is not None:
        pred = scaler_out.inverse_transform(pred[:, None])[:, 0]
    return pred


def grid_search(x, y, candidates, fold_ids, columns=None) -> GridSearchResult:
    """Select the candidate with the lowest mean validation RMSE over the folds.

    ``fold_ids`` gives each row of ``x`` its fold, as ``data.split`` assigns
    them; the folds are the non-empty ids in ``range(max + 1)``. The search
    runs one fold at a time: it slices the fold's raw training and
    validation rows once, and every candidate fits through ``_fit`` on them,
    so an SVR candidate fits its scalers on that fold's training part only.
    The fold's tree candidates share one split memo per
    ``min_samples_leaf``, so each node's split is searched once per fold and
    leaf size, and the memos go when the fold ends. A candidate whose cap
    the uncapped tree of its stops never reaches gets that tree's arrays
    back from ``fit_tree``, and takes the score the fold gave them without
    walking the validation rows again. Ties, including exact
    duplicates, go to the earliest grid entry. A candidate that fails on a
    fold scores infinity and is not fitted again; when every candidate
    fails, the raised error carries the earliest candidate's failure, which
    names a column of ``x`` from ``columns`` when given.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list is empty")
    fold_ids = np.asarray(fold_ids, dtype=int)
    if len(fold_ids) != len(y):
        raise TooFewRows("fold assignment length does not match row count")
    folds = [in_fold for in_fold in (fold_ids == f for f in range(int(fold_ids.max()) + 1)) if in_fold.any()]
    if len(folds) < 2:
        raise TooFewRows("need at least 2 non-empty folds")
    fold_rmses: list[list[float]] = [[] for _ in candidates]
    failures: dict[int, str] = {}  # candidate index -> its first failure
    for in_fold in folds:
        x_trn, y_trn, x_val, y_val = x[~in_fold], y[~in_fold], x[in_fold], y[in_fold]
        memos: dict[int, dict] = {}  # min_samples_leaf -> this fold's split memo
        # id -> (value array, fold score) of each tree scored on this fold; holding the array keeps its id unique
        tree_scores: dict[int, tuple[np.ndarray, float]] = {}
        for i, params in enumerate(candidates):
            if i in failures:
                continue
            try:
                if len(y_trn) < 2:
                    raise TooFewRows("fold training part too small")
                splits = None if isinstance(params, SvrParams) else memos.setdefault(params.min_samples_leaf, {})
                model, scaler_in, scaler_out = _fit(x_trn, y_trn, params, columns, splits)
                seen = tree_scores.get(id(model.value)) if splits is not None else None  # fit_tree may share a tree
                score = seen[1] if seen else rmse(y_val, _predict(model, scaler_in, scaler_out, x_val))
                if splits is not None:
                    tree_scores[id(model.value)] = (model.value, score)
                fold_rmses[i].append(score)
            except HydrocharError as exc:
                failures[i] = str(exc)
    scored = [(p, np.inf if i in failures else float(np.mean(fold_rmses[i]))) for i, p in enumerate(candidates)]
    best_idx = min(range(len(scored)), key=lambda i: (scored[i][1], i))
    chosen, cv = scored[best_idx]
    if not np.isfinite(cv):
        first_failure = failures.get(min(failures, default=0))
        raise HydrocharError(f"every grid candidate failed cross-validation; first failure: {first_failure}")
    return GridSearchResult(chosen_params=chosen, cv_rmse=cv, candidates=scored)


@dataclass
class TrainResult:
    """Everything train_all produces: models, Table-style report, skips."""

    trained: dict[tuple[str, str], TrainedTarget]
    report: dict
    skips: dict[str, dict[str, str]]
    plan: SplitPlan


def _fit_final(x, y, trn, tst, params, target, cv) -> TrainedTarget:
    model, scaler_in, scaler_out = _fit(x[trn], y[trn], params, data_mod.FEATURE_COLUMNS)
    return TrainedTarget(
        target=target,
        model=model,
        scaler_in=scaler_in,
        scaler_out=scaler_out,
        cv_rmse=cv,
        train_metrics=metrics_report(y[trn], _predict(model, scaler_in, scaler_out, x[trn])),
        test_metrics=metrics_report(y[tst], _predict(model, scaler_in, scaler_out, x[tst])),
        target_mean=float(np.mean(y[trn])),
        target_std=float(np.std(y[trn])),
    )


def evaluate(model: TrainedTarget, x, y) -> MetricsReport:
    """Metrics of a trained target on raw rows, in original target units."""
    return metrics_report(y, model.predict(x))


def train_all(dataset: Dataset, grid: HyperGrid, seed: int, models=("dtr", "svr")) -> TrainResult:
    """Run the full protocol for every target and requested model family.

    Per-target failures (too few rows, constant targets, degenerate folds)
    are recorded as skips and never abort the batch.
    """
    plan = data_mod.split(dataset, seed=seed)
    x = dataset.feature_matrix()
    ymat = dataset.target_matrix()
    trained: dict[tuple[str, str], TrainedTarget] = {}
    skips: dict[str, dict[str, str]] = {m: {} for m in models}
    report = {
        "n_rows": dataset.n_rows,
        "dataset_fingerprint": dataset.fingerprint(),
        "models": {m: {} for m in models},
        "skips": skips,
    }
    for t_idx, target in enumerate(dataset.target_names):
        y = ymat[:, t_idx]
        present = ~np.isnan(y)
        keep_train = present[plan.train_indices]
        trn = plan.train_indices[keep_train]
        folds = plan.fold_assignments[keep_train]
        tst = plan.test_indices[present[plan.test_indices]]
        reason = None
        if len(trn) < data_mod.FOLDS + 1:
            reason = f"only {len(trn)} training rows with this target"
        elif len(tst) < 2:
            reason = f"only {len(tst)} test rows with this target"
        elif np.max(y[trn]) == np.min(y[trn]):
            reason = "training target is constant"
        elif np.max(y[tst]) == np.min(y[tst]):
            reason = "test target is constant"
        for kind in models:
            candidates = grid.tree_grid if kind == "dtr" else grid.svr_grid
            skip = reason if candidates else "no grid candidates for this model family"
            if skip:
                skips[kind][target] = skip
                continue
            try:
                gs = grid_search(x[trn], y[trn], candidates, folds, columns=data_mod.FEATURE_COLUMNS)
                t = trained[(kind, target)] = _fit_final(x, y, trn, tst, gs.chosen_params, target, gs.cv_rmse)
            except HydrocharError as exc:
                skips[kind][target] = str(exc)
                continue
            entry = {
                "train": t.train_metrics.as_dict(),
                "test": t.test_metrics.as_dict(),
                "params": t.model.params.to_dict(),
                "cv_rmse": t.cv_rmse,
            }
            if kind == "svr":
                entry["converged"] = t.model.converged  # False: the final fit hit max_passes
            report["models"][kind][target] = entry
    return TrainResult(trained=trained, report=report, skips=skips, plan=plan)
