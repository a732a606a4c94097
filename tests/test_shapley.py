import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hydrochar.cart import TreeParams, fit_tree
from hydrochar.data import Scaler
from hydrochar.errors import (
    DimensionMismatch,
    EmptyInput,
    TooManyFeatures,
)
from hydrochar import shapley, svr
from hydrochar.pipeline import TrainedTarget
from hydrochar.shapley import (
    ShapExplanation,
    coalition_values,
    emit_plot_data,
    explain,
    importance_svg,
)
from hydrochar.stats import MetricsReport
from hydrochar.svr import Kernel, SvrModel, SvrParams

from conftest import examples


def mc_shapley(predict_fn, x, background, n_perm, seed):
    """Permutation-sampling Shapley oracle; returns (phi, standard errors)."""
    d = len(x)
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(d) for _ in range(n_perm)])
    onehot = perms[:, :, None] == np.arange(d)[None, None, :]
    prefix = np.cumsum(onehot, axis=1) > 0  # (n_perm, d, d) coalition masks
    bg = np.atleast_2d(background)
    rows = np.where(prefix[:, :, None, :], x[None, None, None, :], bg[None, None, :, :])
    values = np.asarray(predict_fn(rows.reshape(-1, d))).reshape(n_perm, d, len(bg)).mean(axis=2)
    base = float(np.asarray(predict_fn(bg)).mean())
    marginals = np.diff(np.concatenate([np.full((n_perm, 1), base), values], axis=1), axis=1)
    phi = np.zeros(d)
    se = np.zeros(d)
    for i in range(d):
        contrib = marginals[perms == i].reshape(n_perm)
        phi[i] = contrib.mean()
        se[i] = contrib.std(ddof=1) / np.sqrt(n_perm)
    return phi, se


def test_linear_model_with_zero_mean_background():
    f = lambda X: X[:, 0] + X[:, 1]  # noqa: E731
    bg = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, -2.0], [-2.0, 2.0]])
    e = explain(f, np.array([3.0, 5.0]), bg)
    assert e.phi == pytest.approx([3.0, 5.0], abs=1e-12)
    assert e.base_value == pytest.approx(0.0, abs=1e-12)
    assert e.prediction == pytest.approx(8.0, abs=1e-12)


def test_constant_model():
    f = lambda X: np.full(len(X), 4.25)  # noqa: E731
    e = explain(f, np.zeros(3), np.ones((5, 3)))
    assert np.all(e.phi == 0.0)
    assert e.base_value == 4.25


def test_dummy_feature_gets_exact_zero(rng):
    # step function of features 0 and 2 only; each split's true gain
    # dominates any spurious one, so features 1 and 3 stay unused
    x = rng.uniform(0, 1, (80, 4))
    y = np.where(x[:, 0] <= 0.5, 0.0, 4.0) + np.where(x[:, 2] <= 0.5, 0.0, 1.0)
    tree = fit_tree(x, y, TreeParams())
    used = set(tree.feature[~tree.is_leaf].tolist())
    assert used <= {0, 2}
    e = explain(tree.predict_batch, x[3], x[:20])
    assert e.phi[1] == 0.0
    assert e.phi[3] == 0.0


def test_efficiency_on_tree_models(rng):
    x = rng.uniform(0, 1, (60, 5))
    y = np.sin(3 * x[:, 0]) + x[:, 1] * x[:, 2]
    tree = fit_tree(x, y, TreeParams(max_depth=6))
    for row in x[:10]:
        e = explain(tree.predict_batch, row, x[:16])
        assert abs(e.base_value + e.phi.sum() - tree.predict_batch([row])[0]) <= 1e-9


def test_symmetry(rng):
    f = lambda X: X[:, 0] * X[:, 1] + X[:, 2]  # noqa: E731, symmetric in 0/1
    bg = rng.uniform(-1, 1, (12, 3))
    bg[:, 1] = bg[:, 0]  # background symmetric under swapping 0 and 1
    x = np.array([0.7, -0.4, 0.2])
    swapped = np.array([-0.4, 0.7, 0.2])
    e1 = explain(f, x, bg)
    e2 = explain(f, swapped, bg)
    assert e1.phi[0] == pytest.approx(e2.phi[1], abs=1e-12)
    assert e1.phi[1] == pytest.approx(e2.phi[0], abs=1e-12)
    assert e1.phi[2] == pytest.approx(e2.phi[2], abs=1e-12)


def test_linearity_of_explanations(rng):
    x = rng.uniform(0, 1, (50, 4))
    y1 = x[:, 0] ** 2 + x[:, 1]
    y2 = np.cos(2 * x[:, 2]) - x[:, 3]
    t1 = fit_tree(x, y1, TreeParams(max_depth=4))
    t2 = fit_tree(x, y2, TreeParams(max_depth=4))
    both = lambda X: t1.predict_batch(X) + t2.predict_batch(X)  # noqa: E731
    bg = x[:12]
    for row in x[:5]:
        ea = explain(t1.predict_batch, row, bg)
        eb = explain(t2.predict_batch, row, bg)
        es = explain(both, row, bg)
        assert np.abs((ea.phi + eb.phi) - es.phi).max() <= 1e-9
        assert es.base_value == pytest.approx(ea.base_value + eb.base_value, abs=1e-9)


def test_monte_carlo_oracle_agreement(rng):
    x = rng.uniform(0, 1, (40, 4))
    y = 3 * x[:, 0] + np.sin(4 * x[:, 1]) + x[:, 2] * x[:, 3]
    tree = fit_tree(x, y, TreeParams(max_depth=5))
    bg = x[:8]
    row = x[11]
    exact = explain(tree.predict_batch, row, bg)
    phi_mc, se = mc_shapley(tree.predict_batch, row, bg, n_perm=10_000, seed=99)
    for i in range(4):
        assert abs(exact.phi[i] - phi_mc[i]) <= 3.0 * max(se[i], 1e-12)


def _reference_coalition_values(predict_fn, x, background):
    """The np.where build of every chunk's rows that coalition_values replaced,
    with as many masks per call as fit shapley._EVAL_ROWS rows (at least one)."""
    d = len(x)
    n_bg = len(background)
    n_masks = 1 << d
    per_call = 1
    while per_call < n_masks and 2 * per_call * n_bg <= shapley._EVAL_ROWS:
        per_call *= 2
    bit_cols = np.arange(d)
    values = np.empty(n_masks)
    for start in range(0, n_masks, per_call):
        masks = np.arange(start, min(start + per_call, n_masks))
        bits = ((masks[:, None] >> bit_cols) & 1).astype(bool)
        rows = np.where(bits[:, None, :], x[None, None, :], background[None, :, :])
        preds = np.asarray(predict_fn(rows.reshape(-1, d)), dtype=float)
        values[masks] = preds.reshape(len(masks), n_bg).mean(axis=1)
    return values


@pytest.mark.parametrize(
    "d, n_bg, calls",
    [(1, 3, 1), (2, 3, 1), (11, 3, 1), (15, 3, 8), (16, 3, 16), (11, 32, 4), (11, 64, 8), (11, 100, 16),
     (3, shapley._EVAL_ROWS + 1, 8)],
    ids=["1", "2", "11", "15", "16", "11-bg32", "11-bg64", "11-bg100", "3-bg-over-budget"],
)
def test_coalition_values_match_where_build(d, n_bg, calls):
    """Same rows to the model in the same calls, and the same values bit for bit.
    Where a call holds fewer than all masks, its chunk's high mask bits are set
    per call; a background larger than the row budget takes one mask per call."""
    rng = np.random.default_rng(d)
    x = rng.normal(size=d)
    background = rng.normal(size=(n_bg, d))
    background[0, 0] = x[0]  # a background cell equal to the explained one
    w = rng.normal(size=d)

    def recorder(calls):
        def predict(rows):
            calls.append(rows.copy())
            return np.sin(rows @ w) * rows[:, 0]
        return predict

    got_calls, want_calls = [], []
    got = coalition_values(recorder(got_calls), x, background)
    want = _reference_coalition_values(recorder(want_calls), x, background)
    assert got.tobytes() == want.tobytes()
    assert len(got_calls) == len(want_calls) == calls
    assert all(len(rows) <= max(shapley._EVAL_ROWS, n_bg) for rows in got_calls)
    for a, b in zip(got_calls, want_calls):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_coalition_values_memory_is_bounded_by_the_row_budget():
    """At background 512 all 2^11 coalitions would be a 92 MB block of rows;
    chunks of _EVAL_ROWS rows keep the peak to about one chunk."""
    rng = np.random.default_rng(5)
    d, n_bg = 11, 512
    x, background, w = rng.normal(size=d), rng.normal(size=(n_bg, d)), rng.normal(size=d)
    chunk_bytes = shapley._EVAL_ROWS * d * 8
    tracemalloc.start()
    try:
        coalition_values(lambda rows: rows @ w, x, background)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * chunk_bytes


def _reference_explain_phi(v, d):
    """The per-row bookkeeping and sums that explain replaced, applied to v."""
    masks = np.arange(1 << d)
    sizes = np.zeros(1 << d, dtype=int)
    for i in range(d):
        sizes += (masks >> i) & 1
    fact = [math.factorial(k) for k in range(d + 1)]
    weight = np.array([fact[s] * fact[d - s - 1] / fact[d] for s in range(d)])
    phi = np.empty(d)
    for i in range(d):
        without = (masks & (1 << i)) == 0
        base = masks[without]
        phi[i] = float(np.sum(weight[sizes[base]] * (v[base | (1 << i)] - v[base])))
    return phi


@pytest.mark.parametrize("d", [1, 2, 5, 11])
def test_explain_phi_matches_per_row_bookkeeping(d):
    rng = np.random.default_rng(100 + d)
    background = rng.normal(size=(4, d))
    tree = fit_tree(rng.normal(size=(60, d)), rng.normal(size=60), TreeParams(max_depth=6))
    for x in rng.normal(size=(3, d)):
        e = explain(tree.predict_batch, x, background)
        v = coalition_values(tree.predict_batch, x, background)
        assert e.phi.tobytes() == _reference_explain_phi(v, d).tobytes()
        assert e.base_value == v[0]


def _svr_target(kernel, sv, beta, bias, scaler_in, out_mean=0.0, out_std=1.0) -> TrainedTarget:
    """A TrainedTarget around given support vectors and duals, in raw units."""
    params = SvrParams(c=10.0, epsilon=0.1, kernel=kernel)
    report = MetricsReport(0.0, 0.0, 0.0, 0)
    return TrainedTarget(
        target="hc_yield", model=SvrModel(sv, beta, bias, params, sv.shape[1]),
        scaler_in=scaler_in, scaler_out=Scaler(np.array([out_mean]), np.array([out_std])),
        cv_rmse=0.0, train_metrics=report, test_metrics=report, target_mean=out_mean, target_std=out_std,
    )


def _random_svr_target(rng, kernel, d, n_sv):
    scaler_in = Scaler(rng.uniform(-100, 100, d), rng.uniform(0.1, 10, d))
    return _svr_target(kernel, rng.normal(size=(n_sv, d)), rng.uniform(-10, 10, n_sv), rng.normal(), scaler_in,
                       out_mean=50.0, out_std=7.0)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def svr_explain_cases(draw):
    """A linear or RBF SVR target (possibly without support vectors), a raw
    row and a raw background of 1-64 rows, all drawn on standardized scale."""
    d = draw(st.integers(1, 11))
    n_sv = draw(st.integers(0, 12))
    kernel = draw(st.just(Kernel("linear")) | _floats(0.01, 2.0).map(lambda g: Kernel("rbf", gamma=g)))
    scaler_in = Scaler(draw(hnp.arrays(float, d, elements=_floats(-100, 100))),
                       draw(hnp.arrays(float, d, elements=_floats(0.01, 100))))
    target = _svr_target(
        kernel,
        draw(hnp.arrays(float, (n_sv, d), elements=_floats(-3, 3))),
        draw(hnp.arrays(float, n_sv, elements=_floats(-10, 10))),
        draw(_floats(-5, 5)),
        scaler_in,
        out_mean=draw(_floats(-100, 100)),
        out_std=draw(_floats(0.01, 100)),
    )
    x = scaler_in.inverse_transform(draw(hnp.arrays(float, d, elements=_floats(-3, 3))))
    background = scaler_in.inverse_transform(
        draw(hnp.arrays(float, (draw(st.integers(1, 64)), d), elements=_floats(-3, 3))))
    return target, x, background


@settings(max_examples=examples(50))
@given(svr_explain_cases())
def test_svr_closed_form_matches_enumeration(case):
    """The bound predict takes the closed form; a plain lambda around the same
    predict enumerates every coalition. Both agree, and both are efficient,
    within 1e-9 of the target's spread."""
    target, x, background = case
    tol = 1e-9 * target.target_std
    closed = explain(target.predict, x, background)
    enumerated = explain(lambda rows: target.predict(rows), x, background)
    assert np.abs(closed.phi - enumerated.phi).max() <= tol
    assert abs(closed.base_value - enumerated.base_value) <= tol
    assert abs(closed.prediction - target.predict(x[None, :])[0]) <= tol


def test_trees_and_polynomial_kernels_are_enumerated(monkeypatch, rng):
    calls = []
    original = shapley.coalition_values

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(shapley, "coalition_values", counted)
    x = rng.normal(size=(40, 3))
    report = MetricsReport(0.0, 0.0, 0.0, 0)
    tree = TrainedTarget(
        target="hc_yield", model=fit_tree(x, x[:, 0] * x[:, 1], TreeParams(max_depth=4)),
        scaler_in=None, scaler_out=None, cv_rmse=0.0,
        train_metrics=report, test_metrics=report, target_mean=0.0, target_std=1.0,
    )
    explain(tree.predict, x[0], x[:8])
    assert len(calls) == 1
    explain(_random_svr_target(rng, Kernel("polynomial", degree=2, coef0=1.0), 3, 5).predict, x[0], x[:8])
    assert len(calls) == 2
    for kernel in (Kernel("linear"), Kernel("rbf", gamma=0.5)):
        explain(_random_svr_target(rng, kernel, 3, 5).predict, x[0], x[:8])
    assert len(calls) == 2


def test_rbf_closed_form_beyond_the_enumeration_cap_matches_monte_carlo():
    """At 25 features enumeration is refused, and the closed form agrees with
    permutation sampling within four standard errors on every feature."""
    rng = np.random.default_rng(25)
    d = 25
    target = _random_svr_target(rng, Kernel("rbf", gamma=0.05), d, 10)
    x = target.scaler_in.inverse_transform(rng.normal(size=d))
    background = target.scaler_in.inverse_transform(rng.normal(size=(4, d)))
    e = explain(target.predict, x, background)
    phi_mc, se = mc_shapley(target.predict, x, background, n_perm=1000, seed=99)
    assert np.all(np.abs(e.phi - phi_mc) <= 4.0 * np.maximum(se, 1e-12))
    assert abs(e.prediction - target.predict(x[None, :])[0]) <= 1e-9 * target.target_std
    with pytest.raises(TooManyFeatures):
        explain(lambda rows: target.predict(rows), x, background)


@pytest.mark.parametrize("kernel", [Kernel("linear"), Kernel("rbf", gamma=0.3)], ids=["linear", "rbf"])
def test_svr_attributions_do_not_depend_on_batch_sizes(monkeypatch, kernel):
    rng = np.random.default_rng(7)
    target = _random_svr_target(rng, kernel, 11, 60)
    rows = target.scaler_in.inverse_transform(rng.normal(size=(5, 11)))
    background = target.scaler_in.inverse_transform(rng.normal(size=(16, 11)))
    want = [explain(target.predict, row, background).phi for row in rows]
    monkeypatch.setattr(shapley, "_EVAL_ROWS", 1)
    monkeypatch.setattr(svr, "_KERNEL_ENTRIES", 1)
    monkeypatch.setattr(svr, "_FACTOR_ENTRIES", 1)  # one background row per block
    got = [explain(target.predict, row, background).phi for row in rows]
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


def test_rbf_closed_form_memory_is_bounded_by_the_factor_budget():
    """At background 600 and 200 support vectors each work array of one
    block would be 10.6 MB; blocks of _FACTOR_ENTRIES keep all six to about
    1 MiB each."""
    rng = np.random.default_rng(8)
    d, n_sv, n_bg = 11, 200, 600
    params = SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("rbf", gamma=0.1))
    model = SvrModel(rng.normal(size=(n_sv, d)), rng.normal(size=n_sv), 0.0, params, d)
    x, background = rng.normal(size=d), rng.normal(size=(n_bg, d))
    block_bytes = svr._FACTOR_ENTRIES * 8
    tracemalloc.start()
    try:
        model.shapley_values(x, background)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * block_bytes


@pytest.mark.parametrize("kernel", [Kernel("linear"), Kernel("rbf", gamma=0.3)], ids=["linear", "rbf"])
def test_bound_predict_batch_is_enumerated(kernel):
    """SvrModel has ``shapley_values`` (on standardized rows) but no
    ``predict``: its bound ``predict_batch`` is an ordinary batch callable and
    gets the enumerated values, like a plain lambda around it."""
    rng = np.random.default_rng(9)
    d = 4
    model = SvrModel(rng.normal(size=(6, d)), rng.normal(size=6), 0.5, SvrParams(c=1.0, epsilon=0.1, kernel=kernel), d)
    x, background = rng.normal(size=d), rng.normal(size=(8, d))
    got = explain(model.predict_batch, x, background)
    want = explain(lambda rows: model.predict_batch(rows), x, background)
    assert got.phi.tobytes() == want.phi.tobytes()
    assert got.base_value == want.base_value


def test_errors():
    f = lambda X: X.sum(axis=1)  # noqa: E731
    with pytest.raises(TooManyFeatures):
        explain(f, np.zeros(21), np.zeros((2, 21)))
    with pytest.raises(EmptyInput):
        explain(f, np.zeros(3), np.zeros((0, 3)))
    with pytest.raises(DimensionMismatch):
        explain(f, np.zeros(3), np.zeros((4, 2)))
    with pytest.raises(EmptyInput):
        emit_plot_data([])


def test_plot_bar_ranking(rng):
    x = rng.uniform(0, 1, (60, 3))
    y = np.where(x[:, 0] <= 0.4, 0.0, np.where(x[:, 0] <= 0.7, 5.0, 9.0))
    tree = fit_tree(x, y, TreeParams())
    assert set(tree.feature[~tree.is_leaf].tolist()) == {0}
    bar = emit_plot_data([explain(tree.predict_batch, row, x[:16]) for row in x[:12]]).bar
    assert bar[0][0] == "x0"
    assert dict(bar)["x1"] == 0.0 and dict(bar)["x2"] == 0.0
    # zero-importance features rank by index after the used one
    assert [name for name, _ in bar] == ["x0", "x1", "x2"]


def test_plot_bar_of_one_explained_row_equals_abs_phi(rng):
    f = lambda X: X[:, 0] - 2 * X[:, 1]  # noqa: E731
    bg = rng.uniform(-1, 1, (10, 2))
    row = np.array([0.5, 0.25])
    e = explain(f, row, bg)
    bar = emit_plot_data([e]).bar
    assert np.allclose([dict(bar)[name] for name in ("x0", "x1")], np.abs(e.phi), atol=1e-12)


def test_plot_data_tables(tmp_path):
    e1 = ShapExplanation(np.array([1.0, 2.0]), np.array([0.5, -1.0]), 3.0)
    e2 = ShapExplanation(np.array([0.0, 1.0]), np.array([-0.5, 1.0]), 3.0)
    plot = emit_plot_data([e1, e2], feature_names=["a", "b"], out_dir=tmp_path)
    # bar is the mean of |phi|, not the signed mean (which would be zero)
    assert dict(plot.bar) == {"a": 0.5, "b": 1.0}
    assert plot.bar[0][0] == "b"
    assert len(plot.beeswarm) == 4
    assert plot.heatmap.shape == (2, 2)
    assert plot.fx == pytest.approx([2.5, 3.5])
    for name in ("beeswarm.csv", "bar.csv", "heatmap.csv", "importance.svg"):
        assert (tmp_path / name).exists()
    bar_lines = (tmp_path / "bar.csv").read_text().splitlines()
    assert bar_lines[0] == "feature,mean_abs_phi"
    assert len(bar_lines) == 3


def test_plot_single_explanation_bar_is_abs_phi():
    e = ShapExplanation(np.array([1.0, 2.0, 3.0]), np.array([0.25, -0.75, 0.0]), 1.0)
    plot = emit_plot_data([e])
    assert dict(plot.bar) == {"x0": 0.25, "x1": 0.75, "x2": 0.0}


def test_svg_deterministic():
    e = ShapExplanation(np.array([1.0, 2.0]), np.array([0.5, -1.0]), 3.0)
    plot = emit_plot_data([e], feature_names=["alpha", "beta"])
    svg1 = importance_svg(plot)
    svg2 = importance_svg(plot)
    assert svg1 == svg2
    assert 'viewBox="0 0 800 400"' in svg1
    assert svg1.count("<rect") == 2


def test_inconsistent_feature_counts_rejected():
    e1 = ShapExplanation(np.array([1.0, 2.0]), np.array([0.5, -1.0]), 3.0)
    e2 = ShapExplanation(np.array([1.0]), np.array([0.5]), 3.0)
    with pytest.raises(DimensionMismatch):
        emit_plot_data([e1, e2])
