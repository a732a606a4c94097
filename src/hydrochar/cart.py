"""Greedy variance-reduction regression trees (CART) for one continuous target."""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import (DimensionMismatch, EmptyInput, InvalidModelFile, NonFiniteInput, read_fields, require_finite,
                     require_int, require_real, require_type)

_WALK_BLOCK = 8192  # rows per block of the batch tree walk
_MAX_COUNT = np.iinfo(np.intp).max  # the largest leaf row count a node array holds
_Y_SCALE_LIMIT = math.sqrt(np.finfo(float).max) / 2  # len(y) * max|y| below it keeps _best_splits' sums finite


@dataclass(frozen=True)
class TreeParams:
    """Pre-pruning controls; depth and leaf size are the working stops."""

    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        if self.max_depth is not None:
            require_int("max_depth", self.max_depth)
        require_int("min_samples_split", self.min_samples_split)
        require_int("min_samples_leaf", self.min_samples_leaf)
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not math.isfinite(self.min_impurity_decrease):
            raise ValueError(f"min_impurity_decrease must be finite, got {self.min_impurity_decrease!r}")
        if self.min_impurity_decrease < 0.0:
            raise ValueError("min_impurity_decrease must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        return read_fields(cls, "tree params", d,
                           {"min_impurity_decrease": partial(require_real, "min_impurity_decrease")})


class RegressionTree:
    """Fitted binary regression tree stored as parallel node arrays.

    Node 0 is the root. Internal nodes route ``x[feature] <= threshold`` to
    the left child, so NaN goes right; leaves predict the mean of their
    training targets. Instances are immutable after fitting and safe to
    share across threads.
    """

    def __init__(self, n_features: int, params: TreeParams, feature, threshold, left, right, value, count, depth: int):
        self.n_features = n_features
        self.params = params
        # A leaf has left == right == -1 and tests feature 0 against +inf; a
        # split holds value 0.0 and count 0.
        self.feature, self.left, self.right, self.count = (
            np.array(a, dtype=np.intp) for a in (feature, left, right, count)
        )
        self.threshold, self.value = (np.array(a, dtype=float) for a in (threshold, value))
        self.is_leaf = self.left < 0
        bad = np.flatnonzero(self.is_leaf & ~np.isfinite(self.value))
        if bad.size:
            raise InvalidModelFile(f"node {bad[0]} value is not finite: {self.value[bad[0]]}")
        bad = np.flatnonzero(~self.is_leaf & ~np.isfinite(self.threshold))
        if bad.size:
            raise InvalidModelFile(f"node {bad[0]} threshold is not finite: {self.threshold[bad[0]]}")
        ids = np.arange(self.n_nodes)
        # The walk state is 2 * node: each table holds a node's entry twice,
        # and state + (x <= t) picks 2 * right or 2 * left from _children.
        self._children = 2 * np.stack(
            [np.where(self.is_leaf, ids, self.right), np.where(self.is_leaf, ids, self.left)], axis=1
        ).ravel()
        self._feature2, self._threshold2, self._value2 = (
            np.repeat(a, 2) for a in (self.feature, self.threshold, self.value)
        )
        self.depth = depth  # split levels on the longest root-to-leaf path
        for arr in (self.feature, self.threshold, self.left, self.right, self.value, self.count, self.is_leaf,
                    self._children, self._feature2, self._threshold2, self._value2):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.is_leaf)

    def predict_batch(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.n_features:
            raise DimensionMismatch(f"expected {self.n_features} features, got {x.shape[1]}")
        n, n_features = x.shape
        out = np.empty(n)
        b = max(1, min(n, _WALK_BLOCK))
        # Blocks keep the per-level buffers in cache, and every block reuses
        # them. mode="clip" never clips: fit_tree makes, and from_json_obj
        # checks, every feature and child index in range (the default mode
        # copies through a buffer).
        row_start = np.arange(0, b * n_features, n_features)
        state, pos, col = np.empty((3, b), dtype=np.intp)
        cell, thr = np.empty((2, b))
        goes_left = np.empty(b, dtype=bool)
        for lo in range(0, n, b):
            m = min(b, n - lo)
            if m < b:  # the last block is short
                row_start, state, pos, col, cell, thr, goes_left = (
                    a[:m] for a in (row_start, state, pos, col, cell, thr, goes_left)
                )
            flat = x[lo : lo + m].ravel()
            state.fill(0)
            for _ in range(self.depth):
                self._feature2.take(state, out=col, mode="clip")
                np.add(col, row_start, out=col)
                flat.take(col, out=cell, mode="clip")
                self._threshold2.take(state, out=thr, mode="clip")
                np.less_equal(cell, thr, out=goes_left)
                np.add(state, goes_left, out=pos)
                self._children.take(pos, out=state, mode="clip")
            self._value2.take(state, out=out[lo : lo + m], mode="clip")
        return out

    def to_json_obj(self) -> dict:
        columns = (a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.value, self.count))
        nodes = [
            {"kind": "leaf", "value": value, "count": count} if left < 0
            else {"kind": "split", "feature": feature, "threshold": threshold, "left": left, "right": right}
            for feature, threshold, left, right, value, count in zip(*columns)
        ]
        return {"n_features": self.n_features, "params": self.params.to_dict(), "nodes": nodes}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RegressionTree":
        """Read a tree's JSON, refusing a node whose kind or fields no fit writes. Counts and indices are
        checked as Python ints, before any array exists: one past the C long range would overflow the arrays."""
        require_type("model", obj, dict)
        n_features = require_int("n_features", obj["n_features"])
        nodes = require_type("nodes", obj["nodes"], list)
        if not nodes:
            raise InvalidModelFile("a tree has no nodes")
        rows = []
        for i, node in enumerate(nodes):
            kind = require_type(f"node {i}", node, dict).get("kind")
            if kind not in ("leaf", "split"):
                raise InvalidModelFile(f"node {i} kind {kind!r} is neither 'leaf' nor 'split'")
            names = ("value", "count") if kind == "leaf" else ("feature", "threshold", "left", "right")
            unread = [k for k in node if k not in ("kind", *names)]
            if unread:
                raise InvalidModelFile(f"node {i} kind {kind!r} does not read field {unread[0]!r}")
            for name in names:
                if name not in node:
                    raise InvalidModelFile(f"node {i} has no {name!r}")
                (require_real if name in ("value", "threshold") else require_int)(f"node {i} {name}", node[name])
            if kind == "leaf":
                if not 1 <= node["count"] <= _MAX_COUNT:
                    raise InvalidModelFile(f"node {i} count {node['count']} is not in 1..{_MAX_COUNT}")
                rows.append((0, np.inf, -1, -1, node["value"], node["count"]))
            elif not 0 <= node["feature"] < n_features:
                raise InvalidModelFile(f"node {i} splits on feature {node['feature']}, not one of 0..{n_features - 1}")
            elif not (0 <= node["left"] < len(nodes) and 0 <= node["right"] < len(nodes)):
                raise InvalidModelFile(f"node {i} has a child outside nodes 0..{len(nodes) - 1}")
            else:
                rows.append((node["feature"], node["threshold"], node["left"], node["right"], 0.0, 0))
        columns = list(zip(*rows))
        return cls(n_features, TreeParams.from_dict(obj["params"]), *columns, _depth(columns[2], columns[3]))


def _depth(left, right) -> int:
    """Number of split levels on the longest root-to-leaf path, one level at a time; a leaf has child -1."""
    left, right = np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp)
    level = np.zeros(1, dtype=np.intp)
    depth = 0
    while True:
        level = level[left[level] >= 0]
        if not level.size:
            return depth
        level = np.concatenate([left[level], right[level]])
        depth += 1
        # a path longer than the node count, or a level wider, revisits a node
        if level.size > len(left) or depth > len(left):
            raise InvalidModelFile("tree nodes form a cycle")


def _best_splits(x: np.ndarray, y: np.ndarray, s_tot: float, leaves: tuple[int, ...]) -> list:
    """Exhaustive scan over (feature, midpoint threshold) candidates, all features in one pass, for every leaf size.

    ``s_tot`` is ``float(y.sum())`` and ``leaves`` the ascending leaf sizes.
    Returns one entry per leaf size: (gain, feature, threshold, order,
    n_left) for the split minimizing total child SSE, where the first
    ``n_left`` rows of ``order`` go left, or None when no candidate leaves
    both children with that many samples. Ties prefer the lowest feature
    index, then the smallest threshold. One table covers the split positions
    ``leaves[0] .. m - leaves[0]`` that the smallest floor allows, and each
    leaf size ``k`` takes the first minimum of its rows ``k .. m - k``: the
    cumulative sums and child SSE of a position do not depend on the range
    scanned, so each entry is what a scan of that leaf size alone finds.
    """
    m, d = x.shape
    lo, hi = leaves[0], m - leaves[0]  # first and last left-child size the smallest floor allows
    if hi < lo:
        return [None] * len(leaves)
    s2_tot = float(np.dot(y, y))
    parent_sse = s2_tot - s_tot * s_tot / m
    cols = np.arange(d)
    # ndarray methods, not np.* wrappers: a search makes a few dozen calls on small tables
    order = x.argsort(axis=0, kind="stable")
    # sorted rows lo - 1 .. hi: table row j splits xw[j] | xw[j + 1], at position lo + j
    xw = x[order[lo - 1 : hi + 1], cols]
    yo = y[order[:hi]]
    positions = np.arange(lo, hi + 1)[:, None]
    cs = yo.cumsum(axis=0)[lo - 1 :]
    cs2 = (yo * yo).cumsum(axis=0)[lo - 1 :]
    child_sse = (cs2 - cs * cs / positions) + ((s2_tot - cs2) - (s_tot - cs) ** 2 / (m - positions))
    child_sse[xw[1:] == xw[:-1]] = np.inf
    found = []
    for leaf in leaves:
        first, last = leaf - lo, m - leaf - lo  # this floor's table rows
        if last < first:
            found.append(None)
            continue
        pos = child_sse[first : last + 1].argmin(axis=0) + first
        gains = parent_sse - child_sse[pos, cols]  # -inf where a feature has no valid split
        f = int(gains.argmax())
        gain = float(gains[f])
        if gain == -math.inf:
            found.append(None)
            continue
        p = int(pos[f])
        a, b = float(xw[p, f]), float(xw[p + 1, f])
        thr = 0.5 * (a + b)
        if not a <= thr < b:  # the midpoint overflowed or rounded onto b
            thr = a
        found.append((gain, f, thr, order[:, f], lo + p))
    return found


class _Node:
    """A split memo's record of a node: its rows in fit order and their count, then its leaf mean and splits, each
    None until a fit needs it. ``split`` holds one entry per leaf size of the memo: () where none is allowed, else
    (gain, feature, threshold, left, right) with the children's records, one pair per distinct split. Once
    searched, a record holds its mean and drops its rows: no fit reads them again."""

    __slots__ = ("rows", "size", "mean", "split")

    def __init__(self, rows: np.ndarray):
        self.rows, self.size, self.mean, self.split = rows, len(rows), None, None


class SplitMemo:
    """The split search that fits of one ``x`` and ``y`` share, for trees of the leaf sizes ``leaves``.

    ``root`` is the root's ``_Node`` record, made by the first fit after it has
    checked the inputs, and each record links to its children's. ``table`` is
    that fit's (``x``, ``y``), which every later fit must pass. ``uncapped``
    keeps, by (``min_samples_leaf``, ``min_samples_split``,
    ``min_impurity_decrease``), the first tree no depth cap bound.
    """

    __slots__ = ("leaves", "root", "table", "uncapped")

    def __init__(self, leaves):
        self.leaves = tuple(sorted(set(leaves)))
        self.root = self.table = None
        self.uncapped = {}


def _leaf_mean(ys: np.ndarray) -> float:
    return float(ys.sum()) / len(ys)  # bitwise what ys.mean() returns: the same sum, one division


def _search(node: _Node, x: np.ndarray, y: np.ndarray, leaves: tuple[int, ...]) -> None:
    """Fill ``node.mean`` and ``node.split`` for every leaf size, make the children's records, drop ``node.rows``."""
    ys = y[node.rows]
    s_tot = float(ys.sum())
    node.mean = s_tot / node.size  # the bits of _leaf_mean(ys)
    found = [None] * len(leaves) if ys.max() == ys.min() else _best_splits(x[node.rows], ys, s_tot, leaves)
    made = {}  # (feature, n_left) -> split entry: leaf sizes that pick one split share its children
    for hit in found:
        if hit is not None and (hit[1], hit[4]) not in made:
            gain, f, thr, order, n_left = hit
            rows = node.rows[order]  # the split's order of the rows
            made[f, n_left] = (gain, f, thr, _Node(rows[:n_left]), _Node(rows[n_left:]))
    # From a list, so the tuple is made at its size: one built from a generator is resized, and CPython's
    # tuple free list then keeps every dropped memo's tuples, which tracemalloc counts.
    node.split = tuple([() if hit is None else made[hit[1], hit[4]] for hit in found])
    node.rows = None


def fit_tree(x, y, params: TreeParams, memo: SplitMemo | None = None) -> RegressionTree:
    """Fit a CART regression tree by greedy SSE reduction.

    Thresholds are midpoints between consecutive distinct sorted feature
    values, or the lower value where the midpoint would not separate them
    (it overflows, or rounds onto the upper value). A node becomes a leaf
    when its targets are constant, it is too small to split, the depth cap
    binds, no candidate respects the leaf-size floor, or the best gain falls
    below ``min_impurity_decrease``. The fit is fully deterministic.

    ``memo`` is the ``SplitMemo`` of fits of the same ``x`` and ``y``; without
    one a fit makes its own for its leaf size, and a leaf size the memo was not
    made for, or other rows than its first fit's, raise ValueError. A node's
    record depends only on ``x``, ``y`` and the splits above it, never on the
    stops, so each node's rows are searched once for every leaf size of the
    memo, and each statistic is computed once. The stops are still applied in
    every fit. The input checks run when the root's record is made, so once per
    memo. A depth cap only prunes the uncapped tree, so a fit whose cap is None
    or at least the depth of the memo's uncapped tree of its other stops returns
    that tree's read-only arrays under its own ``params``, with no node walk.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    y = y if y.ndim == 1 else y.ravel()  # ravel makes a new array, which the memo's identity check would miss
    if x.shape[0] == 0:
        raise EmptyInput("no training rows")
    if x.shape[0] != len(y):
        raise DimensionMismatch(f"x has {x.shape[0]} rows but y has {len(y)} values")
    memo = SplitMemo((params.min_samples_leaf,)) if memo is None else memo
    if params.min_samples_leaf not in memo.leaves:
        raise ValueError(f"min_samples_leaf {params.min_samples_leaf} is not a leaf size of the split memo, "
                         f"which was made for {list(memo.leaves)}")
    if memo.root is None:
        require_finite("x", x)
        require_finite("y", y)
        scale = len(y) * float(np.abs(y).max())
        if scale >= _Y_SCALE_LIMIT:
            raise NonFiniteInput(f"y is too large for the split search's sums of squares: "
                                 f"len(y) * max|y| = {scale:g} is not below {_Y_SCALE_LIMIT:g}")
        memo.root, memo.table = _Node(np.arange(len(y))), (x, y)
    elif (x is not memo.table[0] or y is not memo.table[1]) and not all(map(np.array_equal, (x, y), memo.table)):
        raise ValueError("the split memo was made for another x and y; each table needs its own SplitMemo")
    stops = (params.min_samples_leaf, params.min_samples_split, params.min_impurity_decrease)
    uncapped = memo.uncapped.get(stops)
    if uncapped is not None and (params.max_depth is None or params.max_depth >= uncapped.depth):
        tree = copy.copy(uncapped)  # shares every array
        tree.params = params
        return tree
    k = memo.leaves.index(params.min_samples_leaf)
    # One (feature, threshold, left, right, value, count) row per node id.
    nodes: list[tuple | None] = [None]
    # Stack of (node_id, record, depth); children are allocated when a split
    # is committed so node ids are stable and deterministic.
    stack = [(0, memo.root, 0)]
    deepest = 0
    min_rows = max(params.min_samples_split, 2 * params.min_samples_leaf)
    while stack:
        node_id, node, depth = stack.pop()
        split = ()
        if node.size >= min_rows and (params.max_depth is None or depth < params.max_depth):
            if node.split is None:
                _search(node, x, y, memo.leaves)
            split = node.split[k]
            if split and params.min_impurity_decrease > 0.0 and split[0] < params.min_impurity_decrease:
                split = ()
        if not split:
            if node.mean is None:
                node.mean = _leaf_mean(y[node.rows])
            nodes[node_id] = (0, np.inf, -1, -1, node.mean, node.size)
            deepest = max(deepest, depth)
            continue
        _, feat, thr, left, right = split
        left_id = len(nodes)
        nodes[node_id] = (feat, thr, left_id, left_id + 1, 0.0, 0)
        nodes += [None, None]
        stack.append((left_id + 1, right, depth + 1))
        stack.append((left_id, left, depth + 1))
    tree = RegressionTree(x.shape[1], params, *zip(*nodes), deepest)
    if params.max_depth is None or tree.depth < params.max_depth:
        memo.uncapped[stops] = tree  # the first: a later one would have been returned above
    return tree
