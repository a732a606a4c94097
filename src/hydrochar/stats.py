"""Evaluation metrics, Spearman correlation, and eigenvalue factor analysis."""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .data import CSV_HEADER, Dataset
from .errors import ConstantColumn, DimensionMismatch, TooFewRows, read_fields, require_int, require_real


@dataclass(frozen=True)
class MetricsReport:
    """R^2 / RMSE / MAE for one (model, target, phase) combination."""

    r2: float
    rmse: float
    mae: float
    n: int

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        reals = {f: partial(require_real, f) for f in ("r2", "rmse", "mae")}
        return read_fields(cls, "metrics", d, {**reals, "n": partial(require_int, "n")})


def _paired(actual, predicted, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float).ravel()
    p = np.asarray(predicted, dtype=float).ravel()
    if len(a) != len(p):
        raise DimensionMismatch(f"actual has {len(a)} values, predicted has {len(p)}")
    if len(a) < min_len:
        raise TooFewRows(f"need at least {min_len} pairs, got {len(a)}")
    return a, p


def r_squared(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    a, p = _paired(actual, predicted, 2)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise ConstantColumn("actual values are all identical")
    ss_res = float(np.sum((p - a) ** 2))
    return 1.0 - ss_res / ss_tot


def rmse(actual, predicted) -> float:
    a, p = _paired(actual, predicted, 1)
    return math.sqrt(float(np.mean((p - a) ** 2)))


def mae(actual, predicted) -> float:
    """Mean absolute error."""
    a, p = _paired(actual, predicted, 1)
    return float(np.mean(np.abs(a - p)))


def metrics_report(actual, predicted) -> MetricsReport:
    a, p = _paired(actual, predicted, 2)
    return MetricsReport(r2=r_squared(a, p), rmse=rmse(a, p), mae=mae(a, p), n=len(a))


def _ranks_in_order(v: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Average ranks of ``v`` given its stable ascending ``order``.

    A tie group is a run of equal neighbours in sorted order, so each NaN
    is a group of its own; every member gets the group's mean 1-based
    position.
    """
    s = v[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], len(s)) - 1
    ranks = np.empty(len(s), dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(np.dot(xc, xc)))
    sy = math.sqrt(float(np.dot(yc, yc)))
    if sx == 0.0 or sy == 0.0:
        raise ConstantColumn("constant vector has no defined correlation")
    r = float(np.dot(xc, yc)) / (sx * sy)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of pairwise Spearman coefficients; NaN marks pairs
    with too few joint observations for a defined value."""

    labels: tuple[str, ...]
    values: np.ndarray

    def to_csv_text(self) -> str:
        lines = ["," + ",".join(self.labels)]
        for i, lab in enumerate(self.labels):
            cells = ["" if np.isnan(v) else format(v, ".12g") for v in self.values[i]]
            lines.append(lab + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "labels": list(self.labels),
            "values": [[None if np.isnan(v) else float(v) for v in row] for row in self.values],
        }


def _table(dataset: Dataset) -> np.ndarray:
    """The (n, 21) table of features beside targets, columns as CSV_HEADER; NaN marks an absent value."""
    return np.hstack([dataset.feature_matrix(), dataset.target_matrix()])


def correlation_matrix(dataset: Dataset) -> CorrelationMatrix:
    """Pairwise Spearman matrix over all 21 input and output variables.

    Each pair uses the rows where both variables are present; pairs with
    fewer than 3 joint observations, or with a constant joint subvector,
    are marked absent (NaN).
    """
    min_joint = 3
    if dataset.n_rows < min_joint:
        raise TooFewRows(f"need at least {min_joint} rows, got {dataset.n_rows}")
    cols = np.ascontiguousarray(_table(dataset).T)  # one row per variable
    present = ~np.isnan(cols)
    counts = present.sum(axis=1)
    # Each variable is sorted once. Dropping the rows outside a pair's joint
    # mask from a stable order leaves the stable order of the joint subvector.
    orders = np.argsort(cols, axis=1, kind="stable")

    def joint_ranks(i, joint):
        pos = np.cumsum(joint) - 1
        return _ranks_in_order(cols[i][joint], pos[orders[i][joint[orders[i]]]])

    # A pair whose joint rows are all of a variable's present rows reuses that
    # variable's own ranks: the same inputs give the same bits.
    own = [joint_ranks(i, present[i]) for i in range(len(cols))]
    p = len(CSV_HEADER)
    out = np.full((p, p), np.nan)
    np.fill_diagonal(out, 1.0)
    for i in range(p):
        for j in range(i + 1, p):
            joint = present[i] & present[j]
            n = int(joint.sum())
            if n < min_joint:
                continue
            ri = own[i] if n == counts[i] else joint_ranks(i, joint)
            rj = own[j] if n == counts[j] else joint_ranks(j, joint)
            try:
                r = _pearson(ri, rj)
            except ConstantColumn:
                continue
            out[i, j] = out[j, i] = r
    out.setflags(write=False)
    return CorrelationMatrix(labels=CSV_HEADER, values=out)


@dataclass(frozen=True)
class FactorResult:
    """Eigen-structure of a correlation matrix: eigenvalues in descending
    order, per-factor variance fractions, and loadings (eigenvectors scaled
    by the square root of their eigenvalue)."""

    labels: tuple[str, ...]
    eigenvalues: np.ndarray
    variance_fraction: np.ndarray
    cumulative_fraction: np.ndarray
    loadings: np.ndarray  # variables x factors
    correlation: np.ndarray

    def to_json_obj(self) -> dict:
        return {
            "labels": list(self.labels),
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "variance_fraction": [float(v) for v in self.variance_fraction],
            "cumulative_fraction": [float(v) for v in self.cumulative_fraction],
            "loadings": [[float(v) for v in row] for row in self.loadings],
        }

    def to_csv_text(self) -> str:
        """Loadings as a labeled table, one factor per column, plus the
        eigenvalue and variance rows at the bottom."""
        k = self.loadings.shape[1]
        lines = ["variable," + ",".join(f"factor_{j + 1}" for j in range(k))]
        for lab, row in zip(self.labels, self.loadings):
            lines.append(lab + "," + ",".join(format(v, ".12g") for v in row))
        lines.append("eigenvalue," + ",".join(format(v, ".12g") for v in self.eigenvalues))
        lines.append("variance_fraction," + ",".join(format(v, ".12g") for v in self.variance_fraction))
        lines.append("cumulative_fraction," + ",".join(format(v, ".12g") for v in self.cumulative_fraction))
        return "\n".join(lines) + "\n"


def factor_analysis(dataset: Dataset, columns) -> FactorResult:
    """Unrotated factor analysis of the selected columns.

    Rows incomplete on the selection are dropped; the Pearson correlation
    matrix of the standardized remainder is eigen-decomposed by
    ``numpy.linalg.eigh`` (LAPACK). Eigenvalues are sorted descending, and
    each eigenvector is signed so its largest-magnitude entry is positive.
    An eigenvalue no larger in magnitude than p * eps * (largest eigenvalue),
    numpy's ``matrix_rank`` cut for p columns, is rounding noise of a
    rank-deficient selection: it and its loadings are written as exactly 0.
    A repeated eigenvalue leaves its eigenvectors free to rotate within their
    subspace.
    """
    cols = tuple(columns)
    if len(cols) < 2:
        raise ValueError("need at least 2 columns")
    m = _table(dataset)[:, [CSV_HEADER.index(c) for c in cols]]
    m = m[~np.isnan(m).any(axis=1)]
    if len(m) < 3:
        raise TooFewRows(f"only {len(m)} rows complete on the selection")
    means = m.mean(axis=0)
    stds = m.std(axis=0)
    for j, c in enumerate(cols):
        if not stds[j] > 0.0:
            raise ConstantColumn(f"column {c} is constant on the complete rows")
    z = (m - means) / stds
    corr = (z.T @ z) / z.shape[0]
    corr = 0.5 * (corr + corr.T)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    eigvals[np.abs(eigvals) <= len(cols) * sys.float_info.epsilon * eigvals[0]] = 0.0
    for j in range(eigvecs.shape[1]):
        lead = np.argmax(np.abs(eigvecs[:, j]))
        if eigvecs[lead, j] < 0.0:
            eigvecs[:, j] = -eigvecs[:, j]
    total = float(eigvals.sum())
    frac = eigvals / total
    loadings = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
    return FactorResult(
        labels=cols,
        eigenvalues=eigvals,
        variance_fraction=frac,
        cumulative_fraction=np.cumsum(frac),
        loadings=loadings,
        correlation=corr,
    )
