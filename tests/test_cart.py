import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hydrochar import cart, data
from hydrochar.cart import RegressionTree, SplitMemo, TreeParams, fit_tree
from hydrochar.data import Scaler
from hydrochar.errors import DimensionMismatch, EmptyInput, InvalidModelFile, NonFiniteInput
from hydrochar.pipeline import HyperGrid
from hydrochar.stats import r_squared

from conftest import examples


def training_sse(tree, x, y):
    return float(np.sum((tree.predict_batch(x) - y) ** 2))


def test_params_validation():
    with pytest.raises(ValueError):
        TreeParams(min_samples_split=1)
    with pytest.raises(ValueError):
        TreeParams(min_samples_leaf=0)
    with pytest.raises(ValueError):
        TreeParams(min_impurity_decrease=-1.0)
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="min_impurity_decrease must be finite"):
            TreeParams(min_impurity_decrease=value)
    for field in ("max_depth", "min_samples_split", "min_samples_leaf"):
        for value in (4.7, 4.0, True, "4"):
            with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
                TreeParams(**{field: value})


def test_constant_target_single_leaf():
    tree = fit_tree([[0.0], [1.0], [2.0]], [4.0, 4.0, 4.0], TreeParams())
    assert tree.n_nodes == 1
    assert tree.predict_batch([[99.0]])[0] == 4.0


def test_single_candidate_split():
    tree = fit_tree([[0.0], [1.0]], [0.0, 10.0], TreeParams(min_samples_leaf=1))
    assert tree.n_nodes == 3
    assert tree.threshold[0] == 0.5
    # the boundary row 0.5 routes left (<= convention)
    assert tree.predict_batch([[0.2], [0.7], [0.5]]).tolist() == [0.0, 10.0, 0.0]


def test_memorization_with_distinct_rows(rng):
    x = rng.uniform(0, 1, (150, 4))
    y = rng.normal(0, 2, 150)
    tree = fit_tree(x, y, TreeParams())
    assert np.array_equal(tree.predict_batch(x), y)
    assert r_squared(y, tree.predict_batch(x)) == 1.0


def test_memorization_xor_pattern():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    tree = fit_tree(x, y, TreeParams())
    assert np.array_equal(tree.predict_batch(x), y)


def test_deeper_never_hurts_training_sse(rng):
    x = rng.uniform(0, 1, (120, 3))
    y = np.sin(5 * x[:, 0]) + x[:, 1] ** 2 + rng.normal(0, 0.2, 120)
    last = np.inf
    for depth in range(1, 10):
        tree = fit_tree(x, y, TreeParams(max_depth=depth))
        sse = training_sse(tree, x, y)
        assert sse <= last + 1e-9
        last = sse


def test_max_depth_respected(rng):
    x = rng.uniform(0, 1, (200, 3))
    y = rng.normal(0, 1, 200)
    for depth in (0, 1, 3, 5):
        tree = fit_tree(x, y, TreeParams(max_depth=depth))
        assert tree.depth <= depth


def test_min_samples_leaf_respected(rng):
    x = rng.uniform(0, 1, (100, 2))
    y = rng.normal(0, 1, 100)
    tree = fit_tree(x, y, TreeParams(min_samples_leaf=7))
    assert all(tree.count[tree.is_leaf] >= 7)


def test_leaf_replay_reproduces_target_sum(rng):
    x = rng.uniform(0, 1, (80, 3))
    y = rng.normal(10, 3, 80)
    tree = fit_tree(x, y, TreeParams(max_depth=4, min_samples_leaf=3))
    replay = np.dot(tree.value[tree.is_leaf], tree.count[tree.is_leaf])
    assert replay == pytest.approx(y.sum(), abs=1e-9)
    assert tree.count[tree.is_leaf].sum() == 80


def test_min_impurity_decrease_prunes():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.1, 0.0, 0.1])
    free = fit_tree(x, y, TreeParams())
    strict = fit_tree(x, y, TreeParams(min_impurity_decrease=10.0))
    assert free.n_nodes > 1
    assert strict.n_nodes == 1


def test_determinism_identical_structures(rng):
    x = rng.uniform(0, 1, (90, 5))
    y = rng.normal(0, 1, 90)
    a = fit_tree(x, y, TreeParams(max_depth=6))
    b = fit_tree(x, y, TreeParams(max_depth=6))
    assert a.to_json_obj() == b.to_json_obj()


def test_tie_break_prefers_lowest_feature():
    # duplicated feature column: both splits identical gain, feature 0 wins
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    tree = fit_tree(x, y, TreeParams())
    assert tree.feature[0] == 0


def test_prediction_piecewise_constant(rng):
    x = rng.uniform(0, 1, (60, 3))
    y = rng.normal(0, 1, 60)
    tree = fit_tree(x, y, TreeParams(max_depth=5))
    thresholds = sorted(set(tree.threshold[~tree.is_leaf]))
    for _ in range(20):
        q = rng.uniform(0, 1, 3)
        base = tree.predict_batch([q])[0]
        for j in range(3):
            cuts = sorted({t for f, t in zip(tree.feature[~tree.is_leaf], tree.threshold[~tree.is_leaf]) if f == j})
            lo = max([c for c in cuts if c < q[j]], default=0.0)
            hi = min([c for c in cuts if c >= q[j]], default=1.0)
            if hi <= lo:
                continue
            q2 = q.copy()
            q2[j] = rng.uniform(lo + 1e-12, hi)
            assert tree.predict_batch([q2])[0] == base


def test_errors():
    with pytest.raises(EmptyInput):
        fit_tree(np.empty((0, 2)), [], TreeParams())
    with pytest.raises(DimensionMismatch):
        fit_tree([[1.0], [2.0]], [1.0], TreeParams())
    tree = fit_tree([[0.0], [1.0]], [0.0, 1.0], TreeParams())
    with pytest.raises(DimensionMismatch):
        tree.predict_batch([1.0, 2.0])  # one row with two features
    with pytest.raises(DimensionMismatch):
        tree.predict_batch(np.ones((3, 2)))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("argument", ["x", "y"])
def test_fit_refuses_non_finite_input_naming_it(argument, value):
    x, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    {"x": x, "y": y}[argument][3] = value
    with pytest.raises(NonFiniteInput, match=f"^{argument} holds a value that is not finite$"):
        fit_tree(x, y, TreeParams())


def test_serialization_roundtrip_bit_exact(rng):
    x = rng.uniform(-5, 5, (70, 4))
    y = rng.normal(0, 2, 70)
    tree = fit_tree(x, y, TreeParams(max_depth=7, min_samples_leaf=2))
    blob = json.dumps(tree.to_json_obj())
    back = RegressionTree.from_json_obj(json.loads(blob))
    q = rng.uniform(-5, 5, (40, 4))
    assert np.array_equal(tree.predict_batch(q), back.predict_batch(q))
    assert back.params == tree.params
    assert back.depth == tree.depth == 7
    for name in ("feature", "threshold", "left", "right", "value", "count"):
        got, want = getattr(back, name), getattr(tree, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert back.to_json_obj() == tree.to_json_obj()
    assert json.dumps(back.to_json_obj()) == blob


def test_leaf_mean_that_overflows_is_refused():
    """A leaf's mean must be finite: two targets of 1e308 sum to inf. The fit refuses y before any node exists."""
    with pytest.raises(NonFiniteInput, match=r"^y is too large for the split search's sums of squares: "
                                             r"len\(y\) \* max\|y\| = inf is not below 6\.7039e\+153$"):
        fit_tree([[0.0], [1.0]], [1e308, 1e308], TreeParams())


def test_target_whose_sums_of_squares_overflow_is_refused():
    """At 1e160 the squares of y overflow, so every candidate's child SSE would be inf or NaN and the split search
    would pick its first position (0.5, not 3.5). Just below the bound the same targets split where they should."""
    x = np.arange(8.0)[:, None]
    y = np.array([1.0, 1, 1, 1, 5, 5, 5, 5])
    with pytest.raises(NonFiniteInput, match=r"^y is too large .* = 4e\+161 is not below 6\.7039e\+153$"):
        fit_tree(x, y * 1e160, TreeParams())
    scale = cart._Y_SCALE_LIMIT / (len(y) * 5.0) * (1.0 - 1e-15)
    tree = fit_tree(x, y * scale, TreeParams())
    assert tree.n_nodes == 3 and tree.threshold[0] == 3.5
    assert tree.value[1:].tolist() == [scale, 5.0 * scale]


_LEAF = {"kind": "leaf", "value": 1.0, "count": 1}


@pytest.mark.parametrize("nodes", [
    [],
    [{"kind": "split", "feature": -1, "threshold": 0.5, "left": 1, "right": 2}] + [_LEAF] * 2,
    [{"kind": "split", "feature": 2, "threshold": 0.5, "left": 1, "right": 2}] + [_LEAF] * 2,
    [{"kind": "split", "feature": 0, "threshold": 0.5, "left": 999, "right": 2}] + [_LEAF] * 2,
    [{"kind": "split", "feature": 0, "threshold": 0.5, "left": 1, "right": -1}] + [_LEAF] * 2,
    [{"kind": "split", "feature": 0, "threshold": 0.5, "left": 1}] + [_LEAF] * 2,
    [{"kind": "split", "feature": 0, "threshold": 0.5, "left": 0, "right": 1}, _LEAF],
    [_LEAF, {"kind": "split", "feature": 1, "threshold": float("nan"), "left": 0, "right": 0}],
    [{"kind": "split", "feature": 0, "threshold": -float("inf"), "left": 1, "right": 2}] + [_LEAF] * 2,
], ids=["no-nodes", "feature-negative", "feature-n_features", "left-past-end", "right-negative", "right-missing",
        "cycle", "threshold-nan", "threshold-inf"])
def test_loaded_malformed_tree_is_refused(nodes):
    with pytest.raises(InvalidModelFile):
        RegressionTree.from_json_obj({"n_features": 2, "params": {}, "nodes": nodes})


_SPLIT = {"kind": "split", "feature": 0, "threshold": 0.5, "left": 1, "right": 2}


@pytest.mark.parametrize("node, message", [
    ({**_SPLIT, "kind": "lief"}, "node 0 kind 'lief' is neither 'leaf' nor 'split'"),
    ({"kind": "lief", "value": 1.0, "count": 1}, "node 0 kind 'lief' is neither 'leaf' nor 'split'"),
    ({k: v for k, v in _SPLIT.items() if k != "kind"}, "node 0 kind None is neither 'leaf' nor 'split'"),
    ({**_SPLIT, "kind": ["split"]}, "node 0 kind ['split'] is neither 'leaf' nor 'split'"),
    ({**_LEAF, "feature": 0}, "node 0 kind 'leaf' does not read field 'feature'"),
    ({**_LEAF, "left": 1}, "node 0 kind 'leaf' does not read field 'left'"),
    ({**_SPLIT, "value": 1.0}, "node 0 kind 'split' does not read field 'value'"),
    ({**_SPLIT, "count": 3}, "node 0 kind 'split' does not read field 'count'"),
    ({**_SPLIT, "note": "x"}, "node 0 kind 'split' does not read field 'note'"),
], ids=["split-kind-misspelt", "leaf-kind-misspelt", "no-kind", "kind-list", "leaf-with-feature", "leaf-with-left",
        "split-with-value", "split-with-count", "split-with-unknown"])
def test_node_whose_kind_or_fields_no_fit_writes_is_refused(node, message):
    """A node is read only as the leaf or split a fit writes, with just that kind's fields."""
    with pytest.raises(InvalidModelFile, match=f"^{re.escape(message)}$"):
        RegressionTree.from_json_obj({"n_features": 2, "params": {}, "nodes": [node, dict(_LEAF), dict(_LEAF)]})


@pytest.mark.parametrize("field, message", [
    ("left", "node 0 has a child outside nodes 0..2"),
    ("right", "node 0 has a child outside nodes 0..2"),
    ("feature", f"node 0 splits on feature {10**30}, not one of 0..1"),
    ("count", f"node 1 count {10**30} is not in 1.."),
])
def test_integer_past_the_c_long_range_is_refused_naming_its_node(field, message):
    """An index or count that would overflow the node arrays is refused before they are built."""
    nodes = [{"kind": "split", "feature": 0, "threshold": 0.5, "left": 1, "right": 2}, dict(_LEAF), dict(_LEAF)]
    nodes[1 if field == "count" else 0][field] = 10**30
    with pytest.raises(InvalidModelFile, match=message):
        RegressionTree.from_json_obj(json.loads(json.dumps({"n_features": 2, "params": {}, "nodes": nodes})))


def _leaf(value):
    return 0, np.inf, -1, -1, value, 1


def _tree(d, nodes):
    """A hand-built tree from (feature, threshold, left, right, value, count) rows."""
    feature, threshold, left, right, value, count = zip(*nodes)
    return RegressionTree(d, TreeParams(), feature, threshold, left, right, value, count, cart._depth(left, right))


def test_non_finite_threshold_names_its_node():
    nodes = [(0, 0.5, 1, 2, 0.0, 0), _leaf(1.0), (1, np.inf, 3, 4, 0.0, 0), _leaf(2.0), _leaf(3.0)]
    with pytest.raises(InvalidModelFile, match="node 2 threshold is not finite: inf"):
        _tree(2, nodes)


@pytest.mark.parametrize(
    "a, b",
    [(1.6e308, 1.7e308), (-1.7e308, -1.6e308), (1.0 + 2.0**-52, 1.0 + 2.0**-51)],
    ids=["overflow", "negative-overflow", "midpoint-rounds-onto-b"],
)
def test_threshold_separates_its_two_sides(a, b):
    """Where the midpoint of a and b is not in [a, b), the split is at a, so
    the tree routes the split it scored."""
    tree = fit_tree([[a], [b]], [0.0, 10.0], TreeParams())
    assert tree.threshold[0] == a
    assert tree.predict_batch([[a], [b]]).tolist() == [0.0, 10.0]


def _route_one(tree, x):
    """Reference walk of one row from the root to its leaf."""
    i = 0
    while not tree.is_leaf[i]:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return tree.value[i]


def test_predict_batch_matches_scalar(rng):
    x = rng.uniform(0, 1, (50, 3))
    y = rng.normal(0, 1, 50)
    tree = fit_tree(x, y, TreeParams(max_depth=4))
    q = rng.uniform(0, 1, (25, 3))
    batch = tree.predict_batch(q)
    assert all(batch[i] == _route_one(tree, q[i]) for i in range(len(q)))


def _reference_predict_batch(tree, x):
    """The per-level walk over the whole batch that predict_batch replaced."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ids = np.arange(tree.n_nodes)
    children = np.stack(
        [np.where(tree.is_leaf, ids, tree.right), np.where(tree.is_leaf, ids, tree.left)], axis=1
    ).ravel()
    flat = x.ravel()
    row_start = np.arange(0, flat.size, tree.n_features)
    node = np.zeros(x.shape[0], dtype=np.intp)
    for _ in range(tree.depth):
        node = children[2 * node + (flat[row_start + tree.feature[node]] <= tree.threshold[node])]
    return tree.value[node]


@st.composite
def trees_and_rows(draw):
    """Hand-built trees of any shape (a lone leaf, chains, unbalanced and
    bushy), with rows whose cells sit on a threshold, one ulp either side of
    it, at +-inf, NaN, or anywhere."""
    d = draw(st.integers(1, 4))
    nodes = [None]
    leaves = [0]
    for _ in range(draw(st.integers(0, 12))):
        node = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        threshold = draw(st.sampled_from([0.0, -1.5, 2.0, 1e-300]) | st.floats(-1e6, 1e6))
        nodes[node] = (draw(st.integers(0, d - 1)), threshold, len(nodes), len(nodes) + 1, 0.0, 0)
        leaves += [len(nodes), len(nodes) + 1]
        nodes += [None, None]
    for value, node in enumerate(leaves, start=1):
        nodes[node] = _leaf(float(value))
    tree = _tree(d, nodes)
    cuts = tree.threshold[~tree.is_leaf]
    pool = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf), [np.nan, np.inf, -np.inf]])
    cell = st.sampled_from(pool.tolist()) | st.floats(allow_nan=True)
    rows = draw(hnp.arrays(float, (draw(st.integers(1, 30)), d), elements=cell))
    return tree, rows


@settings(max_examples=examples(200))
@given(trees_and_rows())
def test_predict_batch_matches_reference_walk(case):
    tree, rows = case
    want = [_route_one(tree, row) for row in rows]
    got = tree.predict_batch(rows)
    assert np.array_equal(got, want)
    assert got.tobytes() == _reference_predict_batch(tree, rows).tobytes()


@pytest.mark.parametrize("n_rows", [0, 1, cart._WALK_BLOCK - 1, cart._WALK_BLOCK, cart._WALK_BLOCK + 1,
                                    3 * cart._WALK_BLOCK + 5])
def test_blockwise_walk_matches_per_level_walk(n_rows):
    rng = np.random.default_rng(n_rows)
    for d, params in ((1, TreeParams()), (4, TreeParams(max_depth=3)), (11, TreeParams(max_depth=8)),
                      (11, TreeParams(min_samples_leaf=3))):
        x = rng.uniform(0, 1, (200, d))
        tree = fit_tree(x, rng.normal(0, 1, 200), params)
        q = rng.uniform(-0.1, 1.1, (n_rows, d))
        q[rng.random(q.shape) < 0.05] = np.nan  # NaN goes right
        want = _reference_predict_batch(tree, q)
        assert tree.predict_batch(q).tobytes() == want.tobytes()
        assert tree.predict_batch(np.asfortranarray(q)).tobytes() == want.tobytes()


@pytest.mark.parametrize("mean", [1e-6, -1.0, 1e6, -1e6])
@pytest.mark.parametrize("std", [1e-6, 1.0, 1e6])
def test_raw_unit_routing_matches_transform(rng, mean, std):
    """A split compares one feature with a threshold, so a tree fit on raw
    inputs has the same structure and leaves as one fit on standardized
    inputs, and routes every training row to the same leaf."""
    d = 3
    scaler = Scaler(means=np.array([mean, 0.5 * mean, 2.0 * mean]), stds=np.array([std, 3.0 * std, 0.25 * std]))
    raw = np.vstack([scaler.means + scaler.stds * rng.normal(0, 1, (150, d)), 10.0 ** rng.uniform(-3, 2, (50, d))])
    y = rng.normal(0, 1, 200)
    for params in (TreeParams(max_depth=8), TreeParams(min_samples_leaf=3)):
        on_raw = fit_tree(raw, y, params)
        on_scaled = fit_tree(scaler.transform(raw), y, params)
        for name in ("feature", "left", "right", "value", "count"):
            assert getattr(on_raw, name).tobytes() == getattr(on_scaled, name).tobytes(), name
        assert on_raw.predict_batch(raw).tobytes() == on_scaled.predict_batch(scaler.transform(raw)).tobytes()


@settings(max_examples=examples(20))
@given(st.integers(0, 10_000))
def test_fully_grown_replays_training_targets(seed):
    r = np.random.default_rng(seed)
    x = r.uniform(0, 1, (30, 2))
    y = r.normal(0, 1, 30)
    tree = fit_tree(x, y, TreeParams())
    assert np.array_equal(tree.predict_batch(x), y)


def _reference_best_split(x, y, min_leaf):
    """Per-feature loop at one leaf size that the one-pass scan in cart._best_splits replaces."""
    m = len(y)
    s_tot = float(y.sum())
    s2_tot = float(np.dot(y, y))
    parent_sse = s2_tot - s_tot * s_tot / m
    best = None
    positions = np.arange(1, m)
    for f in range(x.shape[1]):
        xf = x[:, f]
        order = np.argsort(xf, kind="stable")
        xo = xf[order]
        yo = y[order]
        valid = (xo[1:] != xo[:-1]) & (positions >= min_leaf) & (m - positions >= min_leaf)
        if not valid.any():
            continue
        cs = np.cumsum(yo)[:-1]
        cs2 = np.cumsum(yo * yo)[:-1]
        nl = positions
        nr = m - positions
        child_sse = (cs2 - cs * cs / nl) + ((s2_tot - cs2) - (s_tot - cs) ** 2 / nr)
        child_sse[~valid] = np.inf
        pos = int(np.argmin(child_sse))
        gain = parent_sse - float(child_sse[pos])
        if best is None or gain > best[0]:
            thr = 0.5 * (xo[pos] + xo[pos + 1])
            best = (gain, f, float(thr), order, pos + 1)
    return best


@st.composite
def split_cases(draw):
    """Small-integer matrices, so duplicate values and equal gains across
    features are common, with some columns (possibly all) held constant, and
    the ascending leaf sizes of one shared search."""
    m = draw(st.integers(2, 80))
    d = draw(st.integers(1, 11))
    x = draw(hnp.arrays(float, (m, d), elements=st.sampled_from([0.0, 1.0, 2.0, 3.0]), fill=st.nothing()))
    for f in draw(st.sets(st.integers(0, d - 1))):
        x[:, f] = x[0, f]
    ys = draw(st.sampled_from([st.sampled_from([0.0, 1.0, 2.0]), st.floats(-1e3, 1e3)]))
    y = draw(hnp.arrays(float, m, elements=ys, fill=st.nothing()))
    return x, y, tuple(sorted(draw(st.sets(st.sampled_from([1, 2, 3, 5, 10, 40]), min_size=1))))


@settings(max_examples=examples(150))
@given(split_cases())
def test_best_split_matches_per_feature_loop(case):
    """Each leaf size's entry of one shared search is the reference's split at that leaf size alone."""
    x, y, leaves = case
    found = cart._best_splits(x, y, float(y.sum()), leaves)
    assert len(found) == len(leaves)
    for min_leaf, got in zip(leaves, found):
        want = _reference_best_split(x, y, min_leaf)
        if want is None:
            assert got is None
            continue
        gain, feature, threshold, order, n_left = got
        want_gain, want_feature, want_threshold, want_order, want_n_left = want
        assert (feature, threshold, n_left) == (want_feature, want_threshold, want_n_left)
        assert gain == want_gain  # same bits, not approximately equal
        assert np.array_equal(order, want_order)


def test_trees_match_per_feature_loop(monkeypatch):
    """The default grid fitted through one memo per table, whose search serves every leaf size, gives the trees
    of fresh fits whose search calls the reference once per leaf size."""
    ds = data.generate_synthetic(80, seed=7, noise_sd=0.5)
    lattice = np.floor(ds.feature_matrix() / 10.0)  # many tied thresholds
    cases = [(ds.feature_matrix(), ds.target_matrix()[:, 0]), (lattice, ds.target_matrix()[:, 1])]
    grid = HyperGrid.default().tree_grid
    memos = [SplitMemo(p.min_samples_leaf for p in grid) for _ in cases]
    fast = [fit_tree(x, y, p, memo).to_json_obj() for (x, y), memo in zip(cases, memos) for p in grid]
    monkeypatch.setattr(cart, "_best_splits", lambda x, y, s_tot, leaves: [
        _reference_best_split(x, y, leaf) for leaf in leaves])
    slow = [fit_tree(x, y, p).to_json_obj() for x, y in cases for p in grid]
    assert len(fast) >= 30
    assert fast == slow


@st.composite
def memo_cases(draw):
    """Tie-rich tables (features on a small integer lattice, rows drawn from a
    pool so duplicates occur, targets on a lattice), the leaf sizes of one
    memo, and a random order of fit parameters that mix those leaf sizes,
    depth caps and the other stops, followed by the same parameters
    shuffled, so each fit also runs through a memo that every other fit has
    filled. The memo may announce a leaf size no fit uses."""
    m = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    pool = draw(hnp.arrays(float, (draw(st.integers(1, m)), d), elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])))
    x = pool[draw(hnp.arrays(np.intp, m, elements=st.integers(0, len(pool) - 1)))]
    y = draw(hnp.arrays(float, m, elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    leaves = draw(st.sets(st.sampled_from([1, 2, 3, 5, 8]), min_size=1))
    params = draw(st.lists(
        st.builds(TreeParams, max_depth=st.none() | st.integers(0, 8), min_samples_split=st.integers(2, 12),
                  min_samples_leaf=st.sampled_from(sorted(leaves)),
                  min_impurity_decrease=st.sampled_from([0.0, 0.1, 0.5, 2.0])),
        min_size=1, max_size=12))
    return x, y, leaves, params + draw(st.permutations(params))


@settings(max_examples=examples(150))
@given(memo_cases())
def test_fits_through_one_split_memo_match_fresh_fits(case):
    """Each fit through one shared memo equals a fresh fit, and the depth the
    fit hands to the tree is what ``_depth`` walks from its node arrays."""
    x, y, leaves, params = case
    memo = SplitMemo(leaves)
    for p in params:
        tree = fit_tree(x, y, p, memo)
        assert tree.to_json_obj() == fit_tree(x, y, p).to_json_obj()
        assert tree.depth == cart._depth(tree.left, tree.right)


def test_refits_through_filled_memos_search_nothing_and_compute_no_statistic(monkeypatch):
    """Once each default-grid candidate has been fitted through one memo made
    for the grid's leaf sizes, refitting them all in another order calls
    neither the split search nor the leaf mean and gives the same trees."""
    ds = data.generate_synthetic(120, seed=3, noise_sd=0.5)
    x, y = ds.feature_matrix(), ds.target_matrix()[:, 0]
    grid = HyperGrid.default().tree_grid
    memo = SplitMemo(p.min_samples_leaf for p in grid)
    first = [fit_tree(x, y, p, memo).to_json_obj() for p in grid]
    calls = []

    def counted(name):
        real = getattr(cart, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_search", "_leaf_mean", "_best_splits"):
        monkeypatch.setattr(cart, name, counted(name))
    order = np.random.default_rng(0).permutation(len(grid))
    again = {i: fit_tree(x, y, grid[i], memo).to_json_obj() for i in order}
    assert calls == []
    assert [again[i] for i in range(len(grid))] == first
    fit_tree(x, y, grid[0])  # a fresh memo: the counters see every helper
    assert set(calls) == {"_search", "_leaf_mean", "_best_splits"}


def test_fit_whose_cap_the_uncapped_tree_never_reaches_shares_that_tree(monkeypatch):
    """Through one memo, a fit whose cap is None or at least the uncapped tree's depth returns that tree's arrays
    under its own params, as a fresh fit would give them, and calls neither the split search nor the leaf mean. A
    binding cap, or other stops, builds its own tree; the first tree no cap bound of those stops is shared in turn."""
    ds = data.generate_synthetic(120, seed=3, noise_sd=0.5)
    x, y = ds.feature_matrix(), ds.target_matrix()[:, 0]
    memo = SplitMemo([2])
    uncapped = fit_tree(x, y, TreeParams(max_depth=40, min_samples_leaf=2), memo)
    depth = uncapped.depth
    assert 3 < depth < 40
    sharing = [TreeParams(max_depth=d, min_samples_leaf=2) for d in (None, depth, depth + 1, 64)]
    own = [TreeParams(max_depth=depth - 1, min_samples_leaf=2),
           TreeParams(max_depth=None, min_samples_split=9, min_samples_leaf=2),
           TreeParams(max_depth=64, min_samples_leaf=2, min_impurity_decrease=0.5)]
    fresh = {p: fit_tree(x, y, p).to_json_obj() for p in sharing + own}
    calls = []

    def counted(name):
        real = getattr(cart, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_search", "_leaf_mean"):
        monkeypatch.setattr(cart, name, counted(name))
    arrays = ("feature", "threshold", "left", "right", "value", "count", "is_leaf",
              "_children", "_feature2", "_threshold2", "_value2")
    for p in sharing:
        tree = fit_tree(x, y, p, memo)
        assert tree.params is p and tree.depth == depth
        assert tree.to_json_obj() == fresh[p]
        assert all(getattr(tree, a) is getattr(uncapped, a) for a in arrays)
    assert calls == []
    for p in own:
        tree = fit_tree(x, y, p, memo)
        assert tree.to_json_obj() == fresh[p]
        assert tree.value is not uncapped.value
        again = fit_tree(x, y, TreeParams(max_depth=None, min_samples_split=p.min_samples_split, min_samples_leaf=2,
                                          min_impurity_decrease=p.min_impurity_decrease), memo)
        assert (again.value is tree.value) == (p.max_depth is None or p.max_depth > tree.depth)
        assert (again.value is uncapped.value) == (p.max_depth == depth - 1)


def test_input_checks_run_once_per_memo(monkeypatch):
    """The finiteness and scale checks run when a fit makes the memo's root record. A refused fit makes none, so
    a fit through a memo that a refused fit left empty refuses the same input with the same message."""
    checked = []
    real = cart.require_finite
    monkeypatch.setattr(cart, "require_finite", lambda name, a: checked.append(name) or real(name, a))
    x, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    memo = SplitMemo([1, 2])
    fit_tree(x, y, TreeParams(), memo)
    fit_tree(x, y, TreeParams(max_depth=1, min_samples_leaf=2), memo)
    assert checked == ["x", "y"]
    y[3] = np.nan
    memo = SplitMemo([1])
    for _ in range(2):
        with pytest.raises(NonFiniteInput, match="^y holds a value that is not finite$"):
            fit_tree(x, y, TreeParams(), memo)
        assert memo.root is None
    with pytest.raises(NonFiniteInput, match=r"^y is too large for the split search's sums of squares"):
        fit_tree(x, np.full(6, 1e308), TreeParams())


def test_fit_whose_leaf_size_its_memo_was_not_made_for_is_refused():
    """A memo searches each node for the leaf sizes it was made for, so a fit of another leaf size raises before
    it checks or searches anything; a fit of an announced size then goes through."""
    x, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    memo = SplitMemo([3, 1, 3])
    assert memo.leaves == (1, 3)
    with pytest.raises(ValueError, match=r"^min_samples_leaf 2 is not a leaf size of the split memo, "
                                         r"which was made for \[1, 3\]$"):
        fit_tree(x, y, TreeParams(min_samples_leaf=2), memo)
    assert memo.root is None
    assert fit_tree(x, y, TreeParams(min_samples_leaf=3), memo).to_json_obj() == \
        fit_tree(x, y, TreeParams(min_samples_leaf=3)).to_json_obj()


def _synthetic_xy(n, seed):
    ds = data.generate_synthetic(n, seed, noise_sd=0.5)
    return ds.feature_matrix(), ds.target_matrix()[:, 0]


@pytest.mark.parametrize("n, params", [(60, TreeParams(max_depth=4)), (30, TreeParams())],
                         ids=["same-size-table", "smaller-table"])
def test_fit_through_a_memo_made_for_another_table_is_refused(monkeypatch, n, params):
    """A memo's records hold row indices into its first fit's table, so other rows are refused, naming the memo.
    Without the check the same-size table got a tree unlike a fresh fit's, and the smaller one an IndexError."""
    x, y = _synthetic_xy(60, 1)
    memo = SplitMemo((1,))
    fit_tree(x, y, TreeParams(max_depth=4), memo)
    with pytest.raises(ValueError, match="^the split memo was made for another x and y; "):
        fit_tree(*_synthetic_xy(n, 2), params, memo)
    fresh = fit_tree(x, y, params).to_json_obj()
    assert fit_tree(x.copy(), y.copy(), params, memo).to_json_obj() == fresh  # equal rows are the same table
    monkeypatch.setattr(cart.np, "array_equal", None)  # the table's own arrays are never compared
    assert fit_tree(x, y, params, memo).to_json_obj() == fresh
