"""HTC dataset handling: schema, CSV I/O, splitting, scaling, synthetic data.

The canonical table has 11 independent variables (biomass ultimate and
proximate analysis plus reaction conditions) and 10 hydrochar responses.
Any subset of the responses may be reported for a given experiment; absent
cells stay absent (no imputation).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConstantColumn,
    ConstraintViolation,
    DimensionMismatch,
    EmptyDataset,
    InvalidModelFile,
    MissingColumn,
    NonFiniteInput,
    TooFewRows,
    UnparseableCell,
    ZeroCarbon,
    require_reals,
    require_type,
)

FEATURE_COLUMNS = (
    "biomass_c",
    "biomass_h",
    "biomass_n",
    "biomass_s",
    "biomass_o",
    "biomass_vm",
    "biomass_fc",
    "biomass_ash",
    "temperature_c",
    "time_min",
    "water_wt",
)
TARGET_COLUMNS = (
    "hc_yield",
    "hc_hhv",
    "hc_vm",
    "hc_fc",
    "hc_ash",
    "hc_c",
    "hc_h",
    "hc_n",
    "hc_s",
    "hc_o",
)
CSV_HEADER = FEATURE_COLUMNS + TARGET_COLUMNS

# Measurement slack allowed on reported wt% sums.
SUM_TOLERANCE = 1.0

# Feedstock mass balance: each group's wt% features sum to at most _MASS_LIMIT.
_MASS_BALANCE = (("biomass C+H+N+S+O", slice(0, 5)), ("biomass VM+FC+ash", slice(5, 8)))
_MASS_LIMIT = 100.0 + SUM_TOLERANCE

# The held-out share of rows and the cross-validation fold count of every split.
TEST_FRACTION = 0.2
FOLDS = 5

# Operating envelope covered by published HTC studies. Values outside it
# load fine but are flagged, because queries there extrapolate.
TEMPERATURE_ENVELOPE = (100.0, 375.0)
TIME_ENVELOPE = (5.0, 600.0)

_MASS_C = 12.011
_MASS_H = 1.008
_MASS_O = 15.999

# Feature columns that are a weight percentage, checked against [0, 100].
_WT_FEATURES = (0, 1, 2, 3, 4, 5, 6, 7, 10)

# Responses whose range excludes 0: name -> (upper bound, range text). The
# other responses are wt% in [0, 100].
_POSITIVE_TARGETS = {"hc_yield": (100.0, "(0, 100]"), "hc_hhv": (50.0, "(0, 50] MJ/kg")}


class Dataset:
    """Immutable table: an (n, 11) feature matrix and an (n, 10) target
    matrix in which NaN marks an unreported response.

    Both matrices are read-only, so a Dataset can be shared freely across
    threads. Construction does not validate; ``load_csv`` and
    ``generate_synthetic`` check every row before building one.
    """

    feature_names = FEATURE_COLUMNS
    target_names = TARGET_COLUMNS

    def __init__(self, features, targets, warnings=None):
        x = np.array(features, dtype=float)
        y = np.array(targets, dtype=float)
        if len(x) == 0:
            raise EmptyDataset("dataset has no rows")
        if x.shape != (len(x), len(FEATURE_COLUMNS)) or y.shape != (len(x), len(TARGET_COLUMNS)):
            raise DimensionMismatch(f"expected (n, 11) features and (n, 10) targets, got {x.shape} and {y.shape}")
        x.setflags(write=False)
        y.setflags(write=False)
        self._x = x
        self._y = y
        self.warnings = list(warnings or [])

    @property
    def n_rows(self) -> int:
        return len(self._x)

    def feature_matrix(self) -> np.ndarray:
        """All feature rows as an (n, 11) read-only array."""
        return self._x

    def target_matrix(self) -> np.ndarray:
        """All target rows as an (n, 10) read-only array with NaN for absent."""
        return self._y

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_HEADER)]
        for i in range(self.n_rows):
            cells = [_format_cell(v) for v in self._x[i]]
            cells += ["" if np.isnan(v) else _format_cell(v) for v in self._y[i]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        """SHA-256 of the canonical CSV serialization."""
        return hashlib.sha256(self.to_csv_text().encode("utf-8")).hexdigest()


def _format_cell(v: float) -> str:
    return format(float(v), ".12g")


def check_rows(x: np.ndarray, y: np.ndarray, lines=None, reported=None) -> list[str]:
    """Check every row against the hard invariants; return envelope warnings.

    ``x`` and ``y`` are the (n, 11) and (n, 10) matrices. ``reported`` marks
    the target cells that hold a value (default: the non-NaN ones); every
    feature and reported target must be finite. ``lines`` gives each row's
    CSV line number for messages. The earliest failing row raises
    ConstraintViolation, naming the first rule it breaks in the order below.
    """
    if reported is None:
        reported = ~np.isnan(y)
    line = (lambda i: None) if lines is None else (lambda i: int(lines[i]))
    rules = []  # (bad-row mask, label, values, what is wrong), in reporting order
    for j, name in enumerate(FEATURE_COLUMNS):
        v = x[:, j]
        rules.append((~np.isfinite(v), name, v, "is not finite"))
        if j in _WT_FEATURES:
            rules.append((~((0.0 <= v) & (v <= 100.0)), name, v, "outside [0, 100] wt%"))
    for j in (8, 9):
        rules.append((~(x[:, j] > 0.0), FEATURE_COLUMNS[j], x[:, j], "must be > 0"))
    for label, cols in _MASS_BALANCE:
        total = x[:, cols].sum(axis=1)
        rules.append((total > _MASS_LIMIT, label, total, f"exceeds {_MASS_LIMIT:g} wt%"))
    for j, name in enumerate(TARGET_COLUMNS):
        v, present = y[:, j], reported[:, j]
        hi, text = _POSITIVE_TARGETS.get(name, (100.0, "[0, 100] wt%"))
        low_ok = v > 0.0 if name in _POSITIVE_TARGETS else v >= 0.0
        rules.append((present & ~np.isfinite(v), name, v, "is not finite"))
        rules.append((present & ~(low_ok & (v <= hi)), name, v, f"outside {text}"))
    first = [(int(np.argmax(bad)), k) for k, (bad, *_) in enumerate(rules) if bad.any()]
    if first:
        i, k = min(first)
        _, label, v, what = rules[k]
        raise ConstraintViolation(f"{label}={v[i]:.12g} {what}", row=line(i))
    envelopes = ((8, TEMPERATURE_ENVELOPE), (9, TIME_ENVELOPE))
    outside = {j: (x[:, j] < lo) | (x[:, j] > hi) for j, (lo, hi) in envelopes}
    warnings = []
    for i in np.flatnonzero(outside[8] | outside[9]):
        for j, (lo, hi) in envelopes:
            if outside[j][i]:
                warnings.append(f"row {line(i)}: {FEATURE_COLUMNS[j]}={x[i, j]:g} outside observed envelope [{lo:g}, {hi:g}]")
    return warnings


def load_csv(path) -> Dataset:
    """Load and validate a dataset from the canonical 21-column CSV schema.

    Empty target cells become absent values. Rows violating hard invariants
    are rejected; temperatures or times outside the published operating
    envelope load fine but are collected into ``Dataset.warnings``.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        records = _records(fh)
        _, header = next(records, (1, None))
        if header is None:
            raise EmptyDataset(f"{path}: file is empty")
        header = tuple(h.lstrip("\ufeff").strip() for h in header)  # Excel's "CSV UTF-8" starts with a BOM
        if header != CSV_HEADER:
            missing = [c for c in CSV_HEADER if c not in header]
            if missing:
                raise MissingColumn(f"{path}: missing column(s) {missing}")
            raise MissingColumn(f"{path}: header does not match the canonical column order")
        values, lines, blanks = _parse_records(records)
    if not values:
        raise EmptyDataset(f"{path}: header only, no data rows")
    m = np.array(values, dtype=float)
    reported = np.ones((len(m), len(TARGET_COLUMNS)), dtype=bool)
    rows, cols = np.array(blanks, dtype=int).reshape(-1, 2).T
    reported[rows, cols - len(FEATURE_COLUMNS)] = False
    x, y = m[:, : len(FEATURE_COLUMNS)], m[:, len(FEATURE_COLUMNS) :]
    warnings = check_rows(x, y, lines=lines, reported=reported)
    return Dataset(x, y, warnings)


def _records(fh):
    """Yield (line number, cells) for each CSV record of ``fh``, header first.

    A line without a quote character is split at its commas, which is how
    csv.reader splits it; from the first line with one on, csv.reader reads
    the rest of the file. A record's line number counts records, blank ones
    included. A cell longer than csv's field size limit, or any other record
    csv.reader cannot read, raises UnparseableCell.
    """
    limit = csv.field_size_limit()
    lineno = 0
    for line in fh:
        if '"' in line:
            break
        lineno += 1
        cells = line.rstrip("\r\n").split(",")
        if len(line) > limit and max(map(len, cells)) > limit:
            raise UnparseableCell(lineno, "(row)", f"field larger than field limit ({limit})")
        yield lineno, cells
    else:
        return
    try:
        for lineno, cells in enumerate(csv.reader(itertools.chain([line], fh)), start=lineno + 1):
            yield lineno, cells
    except csv.Error as exc:
        raise UnparseableCell(lineno + 1, "(row)", str(exc)) from None


def _parse_records(records):
    """Parse (line number, cells) data records into float rows.

    Returns (rows, CSV line numbers, (row, column) of every blank target
    cell, which parses as NaN). Blank lines are skipped; a wrong cell count,
    a blank feature cell or text that is not a float raises UnparseableCell.
    """
    values, lines, blanks = [], [], []
    for lineno, rec in records:
        if len(rec) == len(CSV_HEADER):
            try:
                values.append(list(map(float, rec)))
                lines.append(lineno)
                continue
            except ValueError:
                pass
        if all(cell.strip() == "" for cell in rec):
            continue
        if len(rec) != len(CSV_HEADER):
            raise UnparseableCell(lineno, "(row)", f"expected {len(CSV_HEADER)} cells, got {len(rec)}")
        row = []
        for j, cell in enumerate(rec):
            text = cell.strip()
            if text == "" and j >= len(FEATURE_COLUMNS):
                blanks.append((len(values), j))
                row.append(np.nan)
                continue
            try:
                row.append(float(text))
            except ValueError:
                raise UnparseableCell(lineno, CSV_HEADER[j], text) from None
        values.append(row)
        lines.append(lineno)
    return values, lines, blanks


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the canonical schema (12 significant digits)."""
    Path(path).write_text(dataset.to_csv_text(), encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class Scaler:
    """Column-wise standardizer using population (divide-by-n) deviations."""

    means: np.ndarray
    stds: np.ndarray
    columns: tuple[str, ...] | None = None

    @classmethod
    def fit(cls, matrix, columns=None) -> "Scaler":
        m = np.asarray(matrix, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, naming the column
            means = np.nanmean(m, axis=0)
            stds = np.nanstd(m, axis=0)
        for j in range(m.shape[1]):
            if stds[j] == 0.0:
                raise ConstantColumn(f"{_column_name(columns, j)} has fewer than 2 distinct values")
        return cls._checked(means, stds, columns, NonFiniteInput, "")

    def transform(self, x):
        return (np.asarray(x, dtype=float) - self.means) / self.stds

    def inverse_transform(self, x):
        return np.asarray(x, dtype=float) * self.stds + self.means

    def to_dict(self) -> dict:
        return {
            "means": [float(v) for v in self.means],
            "stds": [float(v) for v in self.stds],
            "columns": list(self.columns) if self.columns is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        means = require_reals("scaler means", require_type("scaler", d, dict)["means"])
        stds = require_reals("scaler stds", d["stds"])
        cols = d["columns"]
        if means.ndim != 1 or means.shape != stds.shape:
            raise InvalidModelFile(f"scaler has {means.size} means and {stds.size} stds")
        if cols is not None and len(require_type("scaler columns", cols, list)) != means.size:
            raise InvalidModelFile(f"scaler has {means.size} means and {len(cols)} columns")
        for j, c in enumerate(cols or []):
            require_type(f"scaler columns[{j}]", c, str)
        return cls._checked(means, stds, cols, InvalidModelFile, "scaler ")

    @classmethod
    def _checked(cls, means, stds, columns, error: type, source: str) -> "Scaler":
        """A read-only scaler; the first column whose mean is not finite, or whose std is not finite and > 0, is
        refused with ``error``, naming it after ``source``."""
        for j in range(len(means)):
            if not np.isfinite(means[j]):
                raise error(f"{source}{_column_name(columns, j)}: mean {means[j]} is not finite")
            if not (np.isfinite(stds[j]) and stds[j] > 0.0):
                raise error(f"{source}{_column_name(columns, j)}: std {stds[j]} is not finite and > 0")
        means.setflags(write=False)
        stds.setflags(write=False)
        return cls(means=means, stds=stds, columns=tuple(columns) if columns is not None else None)


def _column_name(columns, j: int) -> str:
    return columns[j] if columns is not None else f"column {j}"


@dataclass(frozen=True)
class SplitPlan:
    """Shared train/test partition plus fold ids for the training rows."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    fold_assignments: np.ndarray  # parallel to train_indices


def split(dataset: Dataset, seed: int = 0) -> SplitPlan:
    """Shuffle rows with a seeded generator, hold out TEST_FRACTION of them,
    and partition the remaining training rows into FOLDS folds of
    near-equal size."""
    n = dataset.n_rows
    n_test = int(round(n * TEST_FRACTION))
    if n < FOLDS + 1 or n - n_test < FOLDS:
        raise TooFewRows(f"n={n} cannot support k={FOLDS} folds plus a test split")
    perm = np.random.default_rng(seed).permutation(n)
    test = np.sort(perm[:n_test])
    train_shuffled = perm[n_test:]
    fold_of = np.empty(n, dtype=int)
    for fold_id, chunk in enumerate(np.array_split(train_shuffled, FOLDS)):
        fold_of[chunk] = fold_id
    train = np.sort(train_shuffled)
    folds = fold_of[train]
    for arr in (train, test, folds):
        arr.setflags(write=False)
    return SplitPlan(train_indices=train, test_indices=test, fold_assignments=folds)


def van_krevelen(c_wt, h_wt, o_wt):
    """Atomic H/C and O/C ratios from mass fractions (wt%), elementwise over
    equal-length columns or for one sample."""
    c = np.asarray(c_wt, dtype=float)
    bad = ~(c > 0.0)
    if bad.any():
        raise ZeroCarbon(f"carbon mass fraction must be positive, got {c[bad].flat[0]}")
    c_mol = c / _MASS_C
    h, o = np.asarray(h_wt, dtype=float), np.asarray(o_wt, dtype=float)
    return (h / _MASS_H) / c_mol, (o / _MASS_O) / c_mol


def mass_balance_ok(features) -> np.ndarray:
    """Vectorized wt%-sum feasibility check on raw feature rows."""
    f = np.atleast_2d(np.asarray(features, dtype=float))
    return np.logical_and.reduce([f[:, cols].sum(axis=1) <= _MASS_LIMIT for _, cols in _MASS_BALANCE])


# ---------------------------------------------------------------------------
# Synthetic data
#
# The generator samples features uniformly inside the operating envelope and
# produces targets from the smooth response surface below, optionally plus
# Gaussian noise. It exists so the pipeline can be exercised end to end
# without the (non-redistributable) literature dataset.
# ---------------------------------------------------------------------------

# Per-target noise scale: generate_synthetic adds noise with standard
# deviation noise_sd * scale, so noise_sd = 1 is "comparable to the signal".
SYNTHETIC_NOISE_SCALE = {
    "hc_yield": 12.0,
    "hc_hhv": 4.0,
    "hc_vm": 11.0,
    "hc_fc": 9.0,
    "hc_ash": 15.0,
    "hc_c": 13.0,
    "hc_h": 1.2,
    "hc_n": 1.0,
    "hc_s": 0.25,
    "hc_o": 11.0,
}

def ground_truth_targets(x) -> np.ndarray:
    """Noise-free synthetic response surface (columns follow TARGET_COLUMNS).

    Each response is a smooth function of one dominant feature plus a small
    secondary term: yield falls with reaction severity, heating value rises
    with biomass carbon, and hydrochar composition tracks the feedstock.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    c, h, n, s, o = (x[:, j] for j in range(5))
    vm, fc, ash = (x[:, j] for j in range(5, 8))
    temp, time_, water = (x[:, j] for j in range(8, 11))
    dt = temp - 100.0
    out = np.empty((x.shape[0], len(TARGET_COLUMNS)))
    out[:, 0] = 90.0 - 0.155 * dt - 0.006 * (time_ - 5.0)
    out[:, 1] = 7.0 + 0.33 * c - 0.012 * (water - 40.0)
    out[:, 2] = 5.0 + 0.82 * vm - 0.04 * dt
    out[:, 3] = 12.0 + 0.55 * fc + 0.05 * dt
    out[:, 4] = 1.03 * ash + 0.02 * dt
    out[:, 5] = 1.12 * c + 0.035 * dt
    out[:, 6] = 0.92 * h - 0.004 * dt
    out[:, 7] = 1.18 * n + 0.15
    out[:, 8] = 0.9 * s + 0.01
    out[:, 9] = 0.78 * o - 0.03 * dt + 4.0
    return out


def generate_synthetic(n: int, seed: int, noise_sd: float = 0.0) -> Dataset:
    """Deterministic synthetic dataset with all 10 targets present.

    Features are sampled uniformly inside the observed envelope, with the
    oxygen / volatile-matter / fixed-carbon draws capped so every row obeys
    the wt%-sum constraints. Targets outside their valid range after noise
    are clipped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (np.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")
    rng = np.random.default_rng(seed)
    c = rng.uniform(22.65, 63.82, n)
    h = rng.uniform(2.9, 8.1, n)
    n_mass = rng.uniform(0.1, 3.0, n)
    s = rng.uniform(0.01, 1.0, n)
    o = rng.uniform(10.5, np.minimum(60.5, 100.0 - (c + h + n_mass + s)))
    ash = rng.uniform(0.16, 49.85, n)
    vm = rng.uniform(47.38, np.minimum(93.42, 100.0 - ash))
    fc = rng.uniform(0.0, 100.0 - vm - ash)
    temp = rng.uniform(*TEMPERATURE_ENVELOPE, n)
    time_ = rng.uniform(*TIME_ENVELOPE, n)
    water = rng.uniform(40.0, 95.0, n)
    x = np.column_stack([c, h, n_mass, s, o, vm, fc, ash, temp, time_, water])
    y = ground_truth_targets(x)
    if noise_sd > 0.0:
        scales = np.array([SYNTHETIC_NOISE_SCALE[t] for t in TARGET_COLUMNS])
        y = y + rng.standard_normal(y.shape) * (noise_sd * scales)
    for j, t in enumerate(TARGET_COLUMNS):  # clipped into the ranges check_rows accepts
        lo, hi = (0.1, _POSITIVE_TARGETS[t][0]) if t in _POSITIVE_TARGETS else (0.0, 100.0)
        np.clip(y[:, j], lo, hi, out=y[:, j])
    check_rows(x, y)
    return Dataset(x, y)
