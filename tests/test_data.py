import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrochar import data
from hydrochar.cart import RegressionTree, TreeParams
from hydrochar.errors import (
    ConstantColumn,
    ConstraintViolation,
    DimensionMismatch,
    EmptyDataset,
    MissingColumn,
    NonFiniteInput,
    TooFewRows,
    UnparseableCell,
    ZeroCarbon,
)
from hydrochar.pipeline import TrainedTarget
from hydrochar.stats import MetricsReport

from conftest import examples, valid_row


# ---------------------------------------------------------------- load_csv

def test_header_only_is_empty(csv_factory):
    path = csv_factory([])
    with pytest.raises(EmptyDataset):
        data.load_csv(path)


def test_out_of_envelope_temperature_warns(csv_factory):
    path = csv_factory([valid_row(temperature_c=400.0)])
    ds = data.load_csv(path)
    assert ds.n_rows == 1
    assert len(ds.warnings) == 1
    assert "temperature_c" in ds.warnings[0]


def test_out_of_envelope_time_warns(csv_factory):
    ds = data.load_csv(csv_factory([valid_row(time_min=700.0)]))
    assert len(ds.warnings) == 1 and "time_min" in ds.warnings[0]


def test_wtpct_bound_rejected(csv_factory):
    path = csv_factory([valid_row(biomass_c=105.0)])
    with pytest.raises(ConstraintViolation):
        data.load_csv(path)


def test_sum_constraints_rejected(csv_factory):
    row = valid_row(biomass_c=60.0, biomass_o=45.0)  # CHNSO = 112.2
    with pytest.raises(ConstraintViolation):
        data.load_csv(csv_factory([row]))


def test_target_ranges_rejected(csv_factory):
    with pytest.raises(ConstraintViolation):
        data.load_csv(csv_factory([valid_row(hc_yield=0.0)]))
    with pytest.raises(ConstraintViolation):
        data.load_csv(csv_factory([valid_row(hc_hhv=60.0)]))


def test_missing_column(csv_factory):
    path = csv_factory([valid_row()[:-1]], header=data.CSV_HEADER[:-1])
    with pytest.raises(MissingColumn):
        data.load_csv(path)


def test_unparseable_cell(csv_factory):
    path = csv_factory([valid_row(hc_hhv="abc")])
    with pytest.raises(UnparseableCell) as err:
        data.load_csv(path)
    assert err.value.col == "hc_hhv"


def test_missing_feature_cell_rejected(csv_factory):
    path = csv_factory([valid_row(water_wt="")])
    with pytest.raises(UnparseableCell):
        data.load_csv(path)


def test_byte_order_mark_is_not_part_of_the_header(csv_factory):
    """Excel's "CSV UTF-8" starts the file with a byte-order mark."""
    path = csv_factory([valid_row(), valid_row(hc_yield="")])
    plain = data.load_csv(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    marked = data.load_csv(path)
    assert marked.fingerprint() == plain.fingerprint()


def test_empty_target_cells_become_absent(csv_factory):
    ds = data.load_csv(csv_factory([valid_row(hc_yield="", hc_s="")]))
    y = dict(zip(data.TARGET_COLUMNS, ds.target_matrix()[0]))
    assert np.isnan(y["hc_yield"]) and np.isnan(y["hc_s"]) and y["hc_hhv"] == 24.0
    assert np.isnan(ds.target_matrix()[0, data.TARGET_COLUMNS.index("hc_yield")])


# One bad row among good ones: (cell overrides, error type, named column).
BAD_ROWS = [
    ({"biomass_c": 105.0}, ConstraintViolation, "biomass_c"),
    ({"water_wt": -1.0}, ConstraintViolation, "water_wt"),
    ({"temperature_c": 0.0}, ConstraintViolation, "temperature_c"),
    ({"time_min": -5.0}, ConstraintViolation, "time_min"),
    ({"biomass_c": 60.0, "biomass_o": 45.0}, ConstraintViolation, "C+H+N+S+O"),
    ({"biomass_vm": 80.0, "biomass_fc": 20.0}, ConstraintViolation, "VM+FC+ash"),
    ({"hc_yield": 0.0}, ConstraintViolation, "hc_yield"),
    ({"hc_hhv": 60.0}, ConstraintViolation, "hc_hhv"),
    ({"hc_o": 100.5}, ConstraintViolation, "hc_o"),
    ({"hc_hhv": "abc"}, UnparseableCell, "hc_hhv"),
    ({"water_wt": ""}, UnparseableCell, "water_wt"),
]


@pytest.mark.parametrize("overrides,error,column", BAD_ROWS, ids=[c for _, _, c in BAD_ROWS])
def test_single_bad_row_names_column_and_line(csv_factory, overrides, error, column):
    path = csv_factory([valid_row(), valid_row(), valid_row(**overrides), valid_row()])
    with pytest.raises(error) as err:
        data.load_csv(path)
    assert err.value.row == 4  # header is line 1
    assert column in str(err.value)


@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", ["temperature_c", "time_min", "hc_hhv"])
def test_non_finite_cell_rejected(csv_factory, text, column):
    path = csv_factory([valid_row(), valid_row(**{column: text})])
    with pytest.raises(ConstraintViolation) as err:
        data.load_csv(path)
    assert err.value.row == 3
    assert f"{column}=" in str(err.value) and "not finite" in str(err.value)


def _row_ok(f, t):
    """Per-row reference for the hard invariants; a NaN target is unreported."""
    return (
        all(math.isfinite(v) for v in f)
        and all(0.0 <= f[j] <= 100.0 for j in (0, 1, 2, 3, 4, 5, 6, 7, 10))
        and f[8] > 0.0 and f[9] > 0.0
        and f[0] + f[1] + f[2] + f[3] + f[4] <= 101.0 and f[5] + f[6] + f[7] <= 101.0
        and (math.isnan(t[0]) or 0.0 < t[0] <= 100.0)
        and (math.isnan(t[1]) or 0.0 < t[1] <= 50.0)
        and all(math.isnan(v) or 0.0 <= v <= 100.0 for v in t[2:])
    )


@settings(max_examples=examples(60))
@given(
    st.lists(st.tuples(st.integers(0, 20), st.sampled_from([-1.0, 0.0, 50.0, 100.5, np.inf, -np.inf, np.nan])),
             max_size=4),
    st.integers(0, 1000),
)
def test_check_rows_matches_row_loop(cells, seed):
    ds = data.generate_synthetic(12, seed=seed)
    m = np.column_stack([ds.feature_matrix(), ds.target_matrix()])
    for k, (col, value) in enumerate(cells):
        m[(seed + 5 * k) % 12, col] = value
    x, y = m[:, :11], m[:, 11:]
    expect = next((i for i in range(12) if not _row_ok(x[i], y[i])), None)
    try:
        data.check_rows(x, y, lines=np.arange(12) + 2)
        got = None
    except ConstraintViolation as err:
        got = err.row - 2
    assert got == expect


def test_earliest_bad_row_is_reported(csv_factory):
    path = csv_factory([valid_row(), valid_row(hc_o=101.0), valid_row(biomass_c=105.0)])
    with pytest.raises(ConstraintViolation) as err:
        data.load_csv(path)
    assert err.value.row == 3 and "hc_o" in str(err.value)


def test_blank_lines_skipped_and_line_numbers_kept(tmp_path):
    path = tmp_path / "gaps.csv"
    rows = [valid_row(), valid_row(temperature_c=400.0)]
    lines = [",".join(data.CSV_HEADER), ",".join(map(str, rows[0])), "", ",,,", ",".join(map(str, rows[1]))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = data.load_csv(path)
    assert ds.n_rows == 2
    assert ds.warnings == ["row 5: temperature_c=400 outside observed envelope [100, 375]"]


def test_wrong_cell_count_rejected(csv_factory):
    path = csv_factory([valid_row(), valid_row()[:-1]])
    with pytest.raises(UnparseableCell) as err:
        data.load_csv(path)
    assert err.value.row == 3


def _reference_load_csv(path):
    """load_csv as it read every record through csv.reader; the oracle of its line splitter."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataset(f"{path}: file is empty")
        header = tuple(h.lstrip("\ufeff").strip() for h in header)
        if header != data.CSV_HEADER:
            missing = [c for c in data.CSV_HEADER if c not in header]
            if missing:
                raise MissingColumn(f"{path}: missing column(s) {missing}")
            raise MissingColumn(f"{path}: header does not match the canonical column order")
        values, lines, blanks = [], [], []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) == len(data.CSV_HEADER):
                try:
                    values.append([float(cell) for cell in rec])
                    lines.append(lineno)
                    continue
                except ValueError:
                    pass
            if all(cell.strip() == "" for cell in rec):
                continue
            if len(rec) != len(data.CSV_HEADER):
                raise UnparseableCell(lineno, "(row)", f"expected {len(data.CSV_HEADER)} cells, got {len(rec)}")
            row = []
            for j, cell in enumerate(rec):
                text = cell.strip()
                if text == "" and j >= len(data.FEATURE_COLUMNS):
                    blanks.append((len(values), j))
                    row.append(np.nan)
                    continue
                try:
                    row.append(float(text))
                except ValueError:
                    raise UnparseableCell(lineno, data.CSV_HEADER[j], text) from None
            values.append(row)
            lines.append(lineno)
    if not values:
        raise EmptyDataset(f"{path}: header only, no data rows")
    m = np.array(values, dtype=float)
    reported = np.ones((len(m), len(data.TARGET_COLUMNS)), dtype=bool)
    rows, cols = np.array(blanks, dtype=int).reshape(-1, 2).T
    reported[rows, cols - len(data.FEATURE_COLUMNS)] = False
    x, y = m[:, : len(data.FEATURE_COLUMNS)], m[:, len(data.FEATURE_COLUMNS) :]
    return data.Dataset(x, y, data.check_rows(x, y, lines=lines, reported=reported))


# Cell texts a record may hold instead of its valid value: blanks, quoted
# cells (a comma or a line break inside quotes, a stray quote), text float()
# refuses, and values outside a column's range or the envelope.
_CELL_TEXTS = ["", " ", " \t", '""', '" "', '"41.5"', '"4,5"', '"6\n"', '4"2', '"', "nan", "inf", "-inf", "abc",
               "1e400", "1_0", " 7 ", "+3", "0", "400", "700", "-1"]
_BREAKS = ["\n", "\r\n", "\r"]
# (column, text) edits of a valid row: most leave it loadable.
_CELL_EDITS = st.one_of(
    st.tuples(st.integers(11, 20), st.sampled_from(["", " ", " \t", '""', '" "'])),  # an unreported target
    st.tuples(st.sampled_from([8, 9]), st.sampled_from(["400", "700", '"99"'])),  # outside the envelope
    st.tuples(st.integers(0, 20), st.sampled_from(_CELL_TEXTS)),
)


@st.composite
def _csv_texts(draw):
    """A canonical-schema CSV text with edits drawn over valid rows."""
    header = list(data.CSV_HEADER)
    col, edit = draw(st.integers(0, 20)), draw(st.sampled_from(["quote"] * 2 + ["blank"] + ["none"] * 7))
    if edit != "none":
        header[col] = f'"{header[col]}"' if edit == "quote" else ""
    lines = ["\ufeff" * draw(st.booleans()) + ",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", ",,,", ",", '""'])))
            continue
        cells = [str(v) for v in valid_row()]
        for col, text in draw(st.lists(_CELL_EDITS, max_size=3)):
            cells[col] = text
        cells = cells[: draw(st.sampled_from([20] + [21] * 9))] + [""] * draw(st.sampled_from([1] + [0] * 9))
        lines.append(",".join(cells))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, breaks))[: None if draw(st.booleans()) else -1]


def _outcome(load, path):
    try:
        ds = load(path)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return ds.feature_matrix().tobytes(), ds.target_matrix().tobytes(), ds.warnings


@settings(max_examples=examples(300))
@given(_csv_texts())
@example("biomass_c\n")
@example(",".join(data.CSV_HEADER) + "\r\n" + ",".join(map(str, valid_row(hc_yield=""))) + "\r\n")
def test_load_csv_matches_csv_reader(tmp_path_factory, text):
    """Same matrices bit for bit (NaN cells included), warnings, or exception
    type and message as reading every record through csv.reader."""
    path = tmp_path_factory.mktemp("oracle") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(data.load_csv, path) == _outcome(_reference_load_csv, path)


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("column", ["biomass_c", "hc_o"])
def test_cell_over_the_csv_field_limit_is_refused_naming_its_line(tmp_path, quoted, column):
    """csv.reader refuses such a cell with csv.Error; either parse path makes it UnparseableCell."""
    limit = csv.field_size_limit()
    big = "1" * (limit + 1)
    path = tmp_path / "big.csv"
    lines = [",".join(data.CSV_HEADER), ",".join(map(str, valid_row())), "",
             ",".join(map(str, valid_row(**{column: f'"{big}"' if quoted else big})))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(UnparseableCell) as err:
        data.load_csv(path)
    assert err.value.row == 4
    assert str(err.value) == f"row 4, column '(row)': cannot parse 'field larger than field limit ({limit})'"


def test_dataset_is_two_read_only_matrices(small_dataset):
    x, y = small_dataset.feature_matrix(), small_dataset.target_matrix()
    assert x.shape == (80, 11) and y.shape == (80, 10)
    assert not x.flags.writeable and not y.flags.writeable
    with pytest.raises(DimensionMismatch):
        data.Dataset(x[:, :10], y)
    with pytest.raises(EmptyDataset):
        data.Dataset(np.empty((0, 11)), np.empty((0, 10)))


def test_roundtrip_preserves_12_significant_digits(tmp_path, csv_factory):
    gnarly = valid_row(
        biomass_c=45.123456789012345,
        hc_hhv=24.000000000123456,
        time_min=1.0 / 3.0 * 100.0,
    )
    src = csv_factory([gnarly, valid_row()])
    ds = data.load_csv(src)
    out = tmp_path / "rt.csv"
    data.write_csv(ds, out)
    before = [float(c) for c in src.read_text().splitlines()[1].split(",")]
    after = [float(c) for c in out.read_text().splitlines()[1].split(",")]
    for b, a in zip(before, after):
        assert a == pytest.approx(b, rel=1e-11)


def test_write_then_load_is_identity(tmp_path, small_dataset):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    data.write_csv(small_dataset, p1)
    data.write_csv(data.load_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------------ scaler

def test_scaler_hand_values():
    s = data.Scaler.fit(np.array([[1.0], [2.0], [3.0]]))
    assert s.means[0] == pytest.approx(2.0, abs=1e-15)
    assert s.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    got = s.transform(np.array([[1.0], [2.0], [3.0]])).ravel()
    assert got == pytest.approx([-1.22474487, 0.0, 1.22474487], abs=1e-8)


def test_scaler_rejects_constant_column():
    with pytest.raises(ConstantColumn):
        data.Scaler.fit(np.array([[5.0], [5.0], [5.0]]))


def test_scaler_refuses_a_column_whose_moments_overflow():
    """At 1e160 the squared deviations overflow: std would be inf and every standardized value 0."""
    x = np.column_stack([[1.0, 2.0, 3.0, 4.0], np.array([1.0, 2.0, 3.0, 4.0]) * 1e160])
    with pytest.raises(NonFiniteInput, match=r"^biomass_h: std inf is not finite and > 0$"):
        data.Scaler.fit(x, columns=data.FEATURE_COLUMNS[:2])
    with pytest.raises(NonFiniteInput, match=r"^column 0: mean inf is not finite$"):
        data.Scaler.fit(np.array([[1e308], [1e308], [-1e307]]))


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40).filter(
        lambda v: max(v) - min(v) > 1e-9
    )
)
def test_scaler_roundtrip_and_normalization(values):
    col = np.array(values)
    s = data.Scaler.fit(col[:, None])
    z = s.transform(col[:, None])
    assert np.allclose(s.inverse_transform(z).ravel(), col, atol=1e-10 * max(1.0, np.abs(col).max()))
    assert abs(z.mean()) < 1e-10
    assert abs(z.std() - 1.0) < 1e-10


def test_scaler_fit_on_train_rows_only(small_dataset):
    rows = np.arange(10)
    x = small_dataset.feature_matrix()
    s = data.Scaler.fit(x[rows], columns=data.FEATURE_COLUMNS)
    assert s.means[8] == pytest.approx(x[rows, 8].mean(), rel=1e-12)
    assert s.means[8] != pytest.approx(x[:, 8].mean(), rel=1e-12)


def _double_keys(v):
    """uint64 keys in the order of the doubles, adjacent doubles one apart."""
    b = np.asarray(v, dtype=float).view(np.uint64)
    sign = np.uint64(1 << 63)
    return np.where(b & sign, ~b, b | sign)


def _keys_to_doubles(k):
    sign = np.uint64(1 << 63)
    return np.where(k & sign, k ^ sign, ~k).view(float)


def _reference_raw_thresholds(scaler, features, thresholds):
    """Bisection over every double from -inf to +inf, 64 steps per split."""
    f = np.asarray(features, dtype=np.intp)
    t = np.asarray(thresholds, dtype=float)
    m, s = scaler.means[f], scaler.stds[f]
    lo = np.full(t.shape, _double_keys(-np.inf))
    hi = np.full(t.shape, _double_keys(np.inf))
    with np.errstate(over="ignore"):
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // np.uint64(2)
            passes = (_keys_to_doubles(mid) - m) / s <= t
            lo = np.where(passes, mid, lo)
            hi = np.where(passes, hi, mid)
    return _keys_to_doubles(lo)


@pytest.mark.parametrize("mean", [1e-6, -1.0, 1e6, -1e6])
@pytest.mark.parametrize("std", [1e-6, 1.0, 1e6])
def test_raw_thresholds_match_full_range_bisection(mean, std):
    """An older tree file holds standardized thresholds t and the scaler they
    were fit through. Predicting through that scaler sends a raw cell left
    exactly up to the largest double T whose transform is <= t."""
    r = np.random.default_rng(23)
    scaler = data.Scaler(means=np.array([mean, 0.5 * mean, 2.0 * mean]), stds=np.array([std, 3.0 * std, 0.25 * std]))
    big = np.finfo(float).max
    edges = [big, -big, np.nextafter(big, 0.0), -np.nextafter(big, 0.0), 0.0, -0.0, 5e-324, -5e-324, 1e-300]
    t = np.concatenate([
        r.normal(0.0, 3.0, 120),
        r.choice([-1.0, 1.0], 60) * 10.0 ** r.uniform(-300.0, 308.0, 60),
        np.repeat(edges, 3),
    ])
    f = np.resize(np.arange(3), len(t))
    raw_t = _reference_raw_thresholds(scaler, f, t)
    report = MetricsReport(0.0, 0.0, 0.0, 0)
    for feature, threshold, cut in zip(f, t, raw_t):
        tree = RegressionTree(3, TreeParams(), feature=[feature, 0, 0], threshold=[threshold, np.inf, np.inf],
                              left=[1, -1, -1], right=[2, -1, -1], value=[0.0, 1.0, 2.0], count=[0, 1, 1],
                              depth=1)
        trained = TrainedTarget(target="hc_yield", model=tree, scaler_in=scaler, scaler_out=None, cv_rmse=0.0,
                                train_metrics=report, test_metrics=report, target_mean=0.0, target_std=1.0)
        rows = np.zeros((3, 3))
        with np.errstate(over="ignore"):  # the edge cells transform to +-inf
            rows[:, feature] = [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)]
            assert trained.predict(rows).tolist() == [1.0, 1.0, 2.0], (feature, threshold, cut)


# ------------------------------------------------------------------- split

def test_split_sizes_example():
    ds = data.generate_synthetic(10, seed=0)
    plan = data.split(ds, seed=1)
    assert len(plan.test_indices) == 2
    assert len(plan.train_indices) == 8
    sizes = sorted(np.bincount(plan.fold_assignments, minlength=5), reverse=True)
    assert sizes == [2, 2, 2, 1, 1]


def test_split_deterministic():
    ds = data.generate_synthetic(40, seed=0)
    a = data.split(ds, seed=9)
    b = data.split(ds, seed=9)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert np.array_equal(a.test_indices, b.test_indices)
    assert np.array_equal(a.fold_assignments, b.fold_assignments)


def test_split_too_few_rows():
    ds = data.generate_synthetic(4, seed=0)
    with pytest.raises(TooFewRows):
        data.split(ds, seed=0)


@settings(max_examples=examples(30))
@given(n=st.integers(7, 60), seed=st.integers(0, 1000))
def test_split_coverage_invariants(n, seed):
    ds = data.generate_synthetic(n, seed=0)
    plan = data.split(ds, seed=seed)
    train = set(plan.train_indices.tolist())
    test = set(plan.test_indices.tolist())
    assert not (train & test)
    assert train | test == set(range(n))
    assert len(plan.test_indices) == int(round(0.2 * n))
    counts = np.bincount(plan.fold_assignments, minlength=data.FOLDS)
    assert len(counts) == data.FOLDS
    assert counts.max() - counts.min() <= 1


# ------------------------------------------------------------ van krevelen

def test_van_krevelen_unit_moles():
    assert data.van_krevelen(12.011, 1.008, 15.999) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_van_krevelen_ratio_arithmetic():
    assert data.van_krevelen(12.011, 2.016, 0.0) == pytest.approx((2.0, 0.0), abs=1e-12)


def test_van_krevelen_hand_case():
    hc, oc = data.van_krevelen(50.0, 6.0, 40.0)
    assert hc == pytest.approx(1.4299, abs=5e-5)
    assert oc == pytest.approx(0.6006, abs=5e-5)


def test_van_krevelen_columns_match_python_float_arithmetic(rng):
    c, h, o = rng.uniform(0.5, 80.0, (3, 50)).tolist()
    hc, oc = data.van_krevelen(c, h, o)
    assert hc.tolist() == [(hi / data._MASS_H) / (ci / data._MASS_C) for ci, hi in zip(c, h)]
    assert oc.tolist() == [(oi / data._MASS_O) / (ci / data._MASS_C) for ci, oi in zip(c, o)]
    with pytest.raises(ZeroCarbon, match="got -1.0$"):
        data.van_krevelen([5.0, -1.0, 0.0], h[:3], o[:3])


def test_van_krevelen_zero_carbon():
    with pytest.raises(ZeroCarbon):
        data.van_krevelen(0.0, 6.0, 40.0)


@given(scale=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
def test_van_krevelen_scale_invariance(scale):
    base = data.van_krevelen(50.0, 6.0, 40.0)
    scaled = data.van_krevelen(50.0 * scale, 6.0 * scale, 40.0 * scale)
    assert scaled[0] == pytest.approx(base[0], rel=1e-12)
    assert scaled[1] == pytest.approx(base[1], rel=1e-12)


# --------------------------------------------------------------- synthetic

def test_synthetic_rejects_bad_args():
    with pytest.raises(ValueError):
        data.generate_synthetic(0, seed=1)
    for noise_sd in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sd must be finite and >= 0"):
            data.generate_synthetic(5, seed=1, noise_sd=noise_sd)


def test_synthetic_deterministic(tmp_path):
    a = data.generate_synthetic(60, seed=5, noise_sd=0.3)
    b = data.generate_synthetic(60, seed=5, noise_sd=0.3)
    assert a.to_csv_text() == b.to_csv_text()
    c = data.generate_synthetic(60, seed=6, noise_sd=0.3)
    assert a.to_csv_text() != c.to_csv_text()


def test_synthetic_rows_valid_and_in_envelope(tmp_path):
    ds = data.generate_synthetic(200, seed=3, noise_sd=1.5)
    path = tmp_path / "synth.csv"
    data.write_csv(ds, path)
    loaded = data.load_csv(path)
    assert loaded.n_rows == 200
    assert loaded.warnings == []


def test_synthetic_noiseless_is_tree_learnable():
    from hydrochar.cart import TreeParams, fit_tree
    from hydrochar.stats import r_squared

    ds = data.generate_synthetic(500, seed=8)
    x = ds.feature_matrix()
    y = ds.target_matrix()[:, 4]  # ash content
    tree = fit_tree(x, y, TreeParams())
    assert r_squared(y, tree.predict_batch(x)) == 1.0


def test_mass_balance_ok():
    good = valid_row()
    arr = np.array([[float(v) for v in good[:11]]])
    assert data.mass_balance_ok(arr)[0]
    bad = arr.copy()
    bad[0, 0] = 70.0  # CHNSO > 101
    assert not data.mass_balance_ok(bad)[0]


@settings(max_examples=examples(100))
@given(st.lists(st.floats(0.0, 45.0), min_size=8, max_size=8))
@example([50.5, 50.5, 0.0, 0.0, 0.0, 40.0, 40.0, 21.0])  # both sums exactly 101
@example([50.5, math.nextafter(50.5, 100.0), 0.0, 0.0, 0.0, 40.0, 40.0, 21.0])
def test_check_rows_refuses_exactly_the_rows_mass_balance_ok_rejects(wt):
    """On a row that passes every other rule, check_rows reports an
    "exceeds 101 wt%" violation exactly when mass_balance_ok is False."""
    x = np.array([[float(v) for v in valid_row()[:11]]])
    x[0, :8] = wt
    y = np.array([[float(v) for v in valid_row()[11:]]])
    ok = bool(data.mass_balance_ok(x)[0])
    try:
        data.check_rows(x, y)
    except ConstraintViolation as exc:
        assert not ok and exc.rule.endswith("exceeds 101 wt%")
    else:
        assert ok


def test_fingerprint_tracks_content(small_dataset):
    other = data.generate_synthetic(80, seed=999)
    assert small_dataset.fingerprint() != other.fingerprint()
    assert small_dataset.fingerprint() == small_dataset.fingerprint()
