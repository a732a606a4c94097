import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrochar import data, stats
from hydrochar.errors import (
    ConstantColumn,
    DimensionMismatch,
    TooFewRows,
)

from conftest import examples, make_dataset


# ----------------------------------------------------------------- metrics

def test_r_squared_examples():
    assert stats.r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert stats.r_squared([1, 2, 3], [2, 2, 2]) == pytest.approx(0.0, abs=1e-12)
    assert stats.r_squared([1, 2, 3, 4], [2, 2, 4, 4]) == pytest.approx(0.6, abs=1e-12)


def test_r_squared_errors():
    with pytest.raises(DimensionMismatch):
        stats.r_squared([1, 2], [1, 2, 3])
    with pytest.raises(ConstantColumn):
        stats.r_squared([2, 2, 2], [1, 2, 3])


def test_rmse_examples():
    assert stats.rmse([1, 2, 3], [1, 2, 3]) == 0.0
    assert stats.rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert stats.rmse([2], [5]) == pytest.approx(3.0, abs=1e-12)


def test_mae_examples():
    assert stats.mae([1, 2, 3], [1, 2, 3]) == 0.0
    assert stats.mae([0, 0], [3, 4]) == pytest.approx(3.5, abs=1e-12)
    assert stats.mae([1, 2], [2, 1]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=examples(200))
@given(
    st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=50
    )
)
def test_mae_never_exceeds_rmse(pairs):
    a = [p[0] for p in pairs]
    p = [p[1] for p in pairs]
    assert stats.mae(a, p) <= stats.rmse(a, p) + 1e-12


def test_mae_never_exceeds_rmse_bulk():
    r = np.random.default_rng(88)
    for _ in range(1000):
        n = int(r.integers(1, 60))
        a = r.normal(0, r.uniform(0.1, 50), n)
        p = a + r.normal(0, r.uniform(0.01, 20), n)
        assert stats.mae(a, p) <= stats.rmse(a, p) + 1e-12


@given(st.permutations(list(range(6))))
def test_r_squared_permutation_invariance(perm):
    a = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0])
    p = np.array([1.1, 2.9, 2.5, 4.0, 4.5, 5.0])
    idx = np.array(perm)
    assert stats.r_squared(a[idx], p[idx]) == pytest.approx(stats.r_squared(a, p), abs=1e-12)


# ---------------------------------------------------------------- spearman

def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    v = np.asarray(values, dtype=float).ravel()
    return stats._ranks_in_order(v, np.argsort(v, kind="stable"))


def spearman(x, y) -> float:
    """Reference Spearman coefficient of one pair: the Pearson correlation
    of the two average-rank vectors, ties included."""
    a, b = stats._paired(x, y, 3)
    return stats._pearson(average_ranks(a), average_ranks(b))


def spearman_rank_difference(x, y) -> float:
    """Closed-form Spearman coefficient 1 - 6*sum(d^2) / (n(n^2-1)), exact
    only for tie-free inputs."""
    a, b = stats._paired(x, y, 3)
    if len(np.unique(a)) < 2 or len(np.unique(b)) < 2:
        raise ConstantColumn("constant vector has no defined correlation")
    d = average_ranks(a) - average_ranks(b)
    n = len(a)
    return 1.0 - 6.0 * float(np.dot(d, d)) / (n * (n * n - 1))


def test_spearman_examples():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0, abs=1e-12)
    assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-12)
    assert spearman_rank_difference([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-15)


def test_spearman_tie_handling():
    # ranks x = [1, 2.5, 2.5, 4], y = [1, 2, 3, 4] -> 4.5 / sqrt(4.5 * 5)
    expected = 4.5 / math.sqrt(4.5 * 5.0)
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(expected, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(TooFewRows):
        spearman([1, 2], [1, 2])
    with pytest.raises(ConstantColumn):
        spearman([1, 1, 1], [1, 2, 3])


@settings(max_examples=examples(100))
@given(st.permutations(list(range(8))), st.permutations(list(range(8))))
def test_closed_form_matches_rank_pearson_without_ties(x, y):
    assert spearman_rank_difference(x, y) == pytest.approx(spearman(x, y), abs=1e-12)


@given(st.permutations(list(range(7))), st.permutations(list(range(7))))
def test_spearman_symmetric(x, y):
    assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-12)


def test_spearman_monotone_invariance(rng):
    x = rng.uniform(-3, 3, 25)
    for g in (np.exp, lambda v: v**3, lambda v: 5 * v + 2):
        assert spearman(x, g(x)) == pytest.approx(1.0, abs=1e-12)


def test_average_ranks():
    assert np.array_equal(average_ranks([10, 30, 20]), [1.0, 3.0, 2.0])
    assert np.array_equal(average_ranks([5, 5, 1]), [2.5, 2.5, 1.0])


def _reference_average_ranks(values):
    """Per-element tie loop that the vectorized pass in stats replaces."""
    v = np.asarray(values, dtype=float).ravel()
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=float)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


_RANK_CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=examples(300))
@given(st.lists(_RANK_CELLS, max_size=60))
def test_average_ranks_matches_tie_loop(values):
    assert average_ranks(values).tobytes() == _reference_average_ranks(values).tobytes()


# ------------------------------------------------------ correlation matrix

def test_correlation_diag_and_symmetry(small_dataset):
    corr = stats.correlation_matrix(small_dataset)
    assert np.allclose(np.diag(corr.values), 1.0)
    assert np.allclose(corr.values, corr.values.T, atol=1e-12, equal_nan=True)
    assert len(corr.labels) == 21


def test_correlation_monotone_decreasing_pair():
    temp = np.linspace(150.0, 300.0, 12)
    hc_yield = 90.0 - 0.2 * temp  # strictly decreasing in temperature
    ds = make_dataset(12, temperature_c=temp, time_min=60.0 + np.arange(12), hc_yield=hc_yield)
    corr = stats.correlation_matrix(ds)
    i = corr.labels.index("temperature_c")
    j = corr.labels.index("hc_yield")
    assert corr.values[i, j] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_independent_columns_small(medium_dataset):
    # biomass_s and time_min are sampled independently by the generator
    big = data.generate_synthetic(1000, seed=77)
    corr = stats.correlation_matrix(big)
    i = corr.labels.index("biomass_s")
    j = corr.labels.index("time_min")
    assert abs(corr.values[i, j]) < 0.1


def test_correlation_pairs_with_too_few_joint_rows_absent():
    temp = np.linspace(150.0, 300.0, 10)
    ds = make_dataset(10, temperature_c=temp, hc_o=[20.0, 25.0] + [None] * 8)
    corr = stats.correlation_matrix(ds)
    i = corr.labels.index("temperature_c")
    j = corr.labels.index("hc_o")
    assert np.isnan(corr.values[i, j])
    assert corr.values[j, j] == 1.0


def _reference_correlation(dataset, min_joint=3):
    """Per-pair Spearman: reference ranks of each pair's joint subvectors."""
    labels = tuple(data.FEATURE_COLUMNS) + tuple(data.TARGET_COLUMNS)
    table = np.hstack([dataset.feature_matrix(), dataset.target_matrix()])
    cols = [(v, ~np.isnan(v)) for v in table.T]
    out = np.full((len(labels), len(labels)), np.nan)
    np.fill_diagonal(out, 1.0)
    for i, (vi, mi) in enumerate(cols):
        for j in range(i + 1, len(labels)):
            vj, mj = cols[j]
            joint = mi & mj
            if int(joint.sum()) < min_joint:
                continue
            try:
                r = stats._pearson(_reference_average_ranks(vi[joint]), _reference_average_ranks(vj[joint]))
            except ConstantColumn:
                continue
            out[i, j] = out[j, i] = r
    return out


def _awkward_table(n=60):
    """Blank target cells, tied columns, a target with 2 reported cells and
    targets constant on every row, or only on another target's rows."""
    r = np.random.default_rng(8)
    base = data.generate_synthetic(n, seed=31)
    x = base.feature_matrix().copy()
    y = base.target_matrix().copy()
    fcol, tcol = data.FEATURE_COLUMNS.index, data.TARGET_COLUMNS.index
    x[:, fcol("biomass_s")] = np.round(x[:, fcol("biomass_s")])
    x[:, fcol("time_min")] = r.choice([30.0, 60.0, 120.0], n)
    y[r.random(y.shape) < 0.3] = np.nan
    y[:, tcol("hc_n")] = np.where(r.random(n) < 0.5, np.nan, r.integers(0, 3, n))
    y[:, tcol("hc_o")] = np.nan
    y[:2, tcol("hc_o")] = [20.0, 25.0]
    y[:, tcol("hc_s")] = np.where(np.isnan(y[:, tcol("hc_s")]), np.nan, 0.1)
    hc_c_reported = ~np.isnan(y[:, tcol("hc_c")])
    y[hc_c_reported, tcol("hc_h")] = 5.0
    y[~hc_c_reported, tcol("hc_h")] = r.uniform(3.0, 7.0, int((~hc_c_reported).sum()))
    return data.Dataset(x, y)


def test_correlation_matches_per_pair_reference():
    ds = _awkward_table()
    got = stats.correlation_matrix(ds)
    assert got.values.tobytes() == _reference_correlation(ds).tobytes()
    at = got.labels.index
    assert np.isnan(got.values[at("temperature_c"), at("hc_o")])  # 2 joint rows
    assert np.isnan(got.values[at("temperature_c"), at("hc_s")])  # constant
    assert np.isnan(got.values[at("hc_c"), at("hc_h")])  # constant on the joint rows only
    assert np.isfinite(got.values[at("temperature_c"), at("hc_h")])


@pytest.mark.parametrize("blank", [0.0, 0.3, 0.9])
def test_correlation_matches_per_pair_reference_on_blank_targets(blank):
    base = data.generate_synthetic(200, seed=5)
    y = base.target_matrix().copy()
    y[np.random.default_rng(9).random(y.shape) < blank] = np.nan
    ds = data.Dataset(base.feature_matrix(), y)
    assert stats.correlation_matrix(ds).values.tobytes() == _reference_correlation(ds).tobytes()


def test_correlation_requires_rows():
    ds = data.generate_synthetic(2, seed=0)
    with pytest.raises(TooFewRows):
        stats.correlation_matrix(ds)


def test_correlation_serialization(small_dataset):
    corr = stats.correlation_matrix(small_dataset)
    obj = corr.to_json_obj()
    assert obj["labels"] == list(corr.labels)
    json.dumps(obj)  # NaN-free by construction
    text = corr.to_csv_text()
    assert text.splitlines()[0].startswith(",biomass_c")
    assert len(text.splitlines()) == 22


# ----------------------------------------------------------- factor analysis

def _orthogonal_dataset(n=64):
    """Five feature columns built from exactly orthogonal cosine waves."""
    i = np.arange(n)
    waves = [np.cos(2 * np.pi * (k + 1) * i / n) for k in range(5)]
    temp = 220.0 + 30.0 * waves[0]
    time_ = 100.0 + 40.0 * waves[1]
    water = 60.0 + 15.0 * waves[2]
    b_n = 1.5 + 0.5 * waves[3]
    b_s = 0.5 + 0.2 * waves[4]
    return make_dataset(
        n, biomass_n=b_n, biomass_s=b_s, temperature_c=temp, time_min=time_, water_wt=water, hc_yield=50.0
    )


ORTHO_COLS = ["temperature_c", "time_min", "water_wt", "biomass_n", "biomass_s"]


def test_factor_identity_correlation_gives_unit_eigenvalues():
    res = stats.factor_analysis(_orthogonal_dataset(), ORTHO_COLS)
    assert np.allclose(res.eigenvalues, 1.0, atol=1e-6)
    assert res.cumulative_fraction[-1] == pytest.approx(1.0, abs=1e-10)


def test_factor_perfectly_correlated_pair():
    temp = np.linspace(150.0, 300.0, 30)
    ds = make_dataset(30, temperature_c=temp, time_min=2.0 * temp - 150.0)
    res = stats.factor_analysis(ds, ["temperature_c", "time_min"])
    assert res.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-10)


def test_factor_rank_cut_writes_exact_zeros():
    """Noise-free synthetic rows make the 21-column correlation matrix rank
    11: the ten eigenvalues past the rank, and their loadings, are exactly 0,
    not rounding noise; a full-rank selection keeps every eigenvalue."""
    cols = list(data.FEATURE_COLUMNS) + list(data.TARGET_COLUMNS)
    res = stats.factor_analysis(data.generate_synthetic(120, seed=9), cols)
    assert np.linalg.matrix_rank(res.correlation) == 11
    assert np.all(res.eigenvalues[:11] > 0.0)
    assert res.eigenvalues[11:].tolist() == [0.0] * 10
    assert np.all(res.loadings[:, 11:] == 0.0)
    noisy = stats.factor_analysis(data.generate_synthetic(120, seed=9, noise_sd=0.5), cols)
    assert noisy.eigenvalues.min() > 0.05


def test_factor_eigensum_and_reconstruction(small_dataset):
    cols = list(data.FEATURE_COLUMNS) + list(data.TARGET_COLUMNS)
    res = stats.factor_analysis(small_dataset, cols)
    assert res.eigenvalues.sum() == pytest.approx(len(cols), abs=1e-8)
    recon = res.loadings @ res.loadings.T
    assert np.allclose(recon, res.correlation, atol=1e-8)
    assert np.all(np.diff(res.eigenvalues) <= 0.0)
    assert np.all(res.eigenvalues >= 0.0)
    # correlation @ v = v lambda and v^T v = I, with each eigenvector v read
    # back from its loadings where the eigenvalue is not numerically zero
    assert np.allclose(res.correlation @ res.loadings, res.loadings * res.eigenvalues, rtol=0.0, atol=1e-12)
    nonzero = res.eigenvalues > 1e-8
    v = res.loadings[:, nonzero] / np.sqrt(res.eigenvalues[nonzero])
    assert np.allclose(res.correlation @ v, v * res.eigenvalues[nonzero], rtol=0.0, atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(v.shape[1]), rtol=0.0, atol=1e-12)


def test_factor_sign_convention(small_dataset):
    res = stats.factor_analysis(small_dataset, list(data.FEATURE_COLUMNS))
    vecs = res.loadings / np.where(np.sqrt(res.eigenvalues) > 0, np.sqrt(res.eigenvalues), 1.0)
    for j in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, j]))
        assert vecs[lead, j] >= 0.0


def test_factor_csv_serialization(small_dataset):
    res = stats.factor_analysis(small_dataset, list(data.FEATURE_COLUMNS))
    lines = res.to_csv_text().splitlines()
    assert lines[0].startswith("variable,factor_1")
    assert len(lines) == 1 + 11 + 3  # header, variables, summary rows
    assert lines[-3].startswith("eigenvalue,")
    assert lines[-1].startswith("cumulative_fraction,")


def test_factor_errors():
    ds = _orthogonal_dataset(8)
    with pytest.raises(ValueError):
        stats.factor_analysis(ds, ["temperature_c"])
    const = make_dataset(10, temperature_c=200.0)
    with pytest.raises(ConstantColumn):
        stats.factor_analysis(const, ["temperature_c", "time_min"])
    sparse = make_dataset(2, temperature_c=200.0)
    with pytest.raises(TooFewRows):
        stats.factor_analysis(sparse, ["hc_yield", "hc_hhv"])
