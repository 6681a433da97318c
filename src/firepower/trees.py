"""Gradient-boosted regression trees with impurity-decrease importance.

Squared-error boosting with exact greedy splits over midpoints of sorted
unique feature values, L2-regularized leaf values and deterministic
tie-breaking (lowest feature index, then lowest threshold).  Also houses
the single-feature linear regressor used by the retraining strategy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ModelError, SchemaError

# A split must reduce SSE by more than this to be accepted.
MIN_SPLIT_GAIN = 1e-12


@dataclass(slots=True)
class TreeNode:
    """Internal node (feature_index/threshold/left/right) or leaf (value)."""

    feature_index: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0


@dataclass(frozen=True)
class GbtHyperparams:
    n_estimators: int = 100
    max_depth: int = 3
    learning_rate: float = 0.3
    min_samples_leaf: int = 1
    l2_leaf_reg: float = 1.0

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ModelError("n_estimators, max_depth and min_samples_leaf must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ModelError("learning_rate must lie in (0, 1]")
        if self.l2_leaf_reg < 0:
            raise ModelError("l2_leaf_reg must be nonnegative")


@dataclass
class GbtModel:
    base_prediction: float
    trees: list[TreeNode]
    hyperparams: GbtHyperparams
    feature_count: int
    cumulative_gain: np.ndarray
    training_sse: list[float] = field(default_factory=list)

    def predict(self, x) -> float:
        return self._walk([self._checked(x, 1).tolist()])[0]

    def predict_many(self, X) -> np.ndarray:
        return np.array(self._walk(self._checked(X, 2).tolist()))

    def _checked(self, X, ndim: int) -> np.ndarray:
        """X as floats; ModelError unless ndim-D with feature_count columns."""
        X = np.asarray(X, dtype=float)
        if X.ndim != ndim or X.shape[-1] != self.feature_count:
            raise ModelError(f"expected {self.feature_count} features, got shape {X.shape}")
        return X

    def _walk(self, rows: list) -> list[float]:
        """Per row, the base plus lr times its leaf in each tree, in tree order.

        The only walk from a row to a leaf.  Rows are lists of Python floats,
        which compare and add as float64 does, for speed on small batches.
        """
        lr = self.hyperparams.learning_rate
        out = []
        for row in rows:
            total = self.base_prediction
            for node in self.trees:
                while node.left is not None:
                    node = node.left if row[node.feature_index] <= node.threshold else node.right
                total += lr * node.value
            out.append(total)
        return out


def _leaf_value(residual_sum: float, count: int, l2: float) -> float:
    return residual_sum / (count + l2)


def _sse(sq_sum, residual_sum, count, l2):
    """SSE of a node that predicts its leaf value; scalars or arrays."""
    v = _leaf_value(residual_sum, count, l2)
    return sq_sum - 2.0 * v * residual_sum + count * v * v


class _SplitSearch:
    """What one fit's split search needs besides the residuals.

    ``order`` holds the stable argsort of each column of X, one row per
    feature; filtered to a node's rows it is the node's own stable sort.
    The index grids and the depth-0 layout depend on X and hp alone, so
    they are built once per fit and shared by all its trees.
    """

    def __init__(self, X: np.ndarray, hp: GbtHyperparams):
        n, d = X.shape
        self.X = X
        self.hp = hp
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        self.lanes = np.arange(n)
        self.features = np.arange(d)[:, None]
        self.root = self.layout(self.order, np.array([n])) if n >= 2 * hp.min_samples_leaf else None

    def layout(self, grouped, counts):
        """The padded layout of one level's search.

        ``grouped`` holds, per feature, the stable sort of the open nodes'
        rows, grouped by node; ``counts`` the nodes' sizes.  The layout is
        padded at the end to (features, nodes, largest node).  Returns the
        row in each lane (``samples``), its value (``xs``), the row counts
        left and right of a split after each lane (``sizes``), and the
        splits that are not allowed (``invalid``): between equal values,
        into the padding, or leaving a side below min_samples_leaf.
        """
        n = self.lanes.size
        width = int(counts.max())
        starts = np.cumsum(counts) - counts
        samples = grouped[:, np.minimum(starts[:, None] + self.lanes[:width], n - 1)]
        xs = self.X[samples, self.features[:, :, None]]
        # Lane t splits after the node's t-th sorted row: t + 1 rows go left.
        sizes = np.empty((2, 1, counts.size, width - 1))
        sizes[0] = self.lanes[1:width]
        np.subtract(counts[:, None], sizes[0], out=sizes[1])
        invalid = (xs[:, :, 1:] <= xs[:, :, :-1]) | (
            np.minimum(sizes[0], sizes[1]) < self.hp.min_samples_leaf
        )
        return samples, xs, sizes, invalid


def _level_splits(layout, r, sums, sq_sums, parent_sse, l2: float):
    """The best split of each open node of one level, all searched at once.

    ``layout`` is the level's ``_SplitSearch.layout``; ``sums`` and
    ``sq_sums`` hold the pairwise sums of each node's residuals and squared
    residuals in sample order, and ``parent_sse`` its SSE as a leaf.
    Cumulative sums run along the layout's last axis in the same sequential
    order as over one node alone.  Returns (feature, gain, threshold) per
    node; the gain is -inf where no split is allowed.
    """
    samples, xs, sizes, invalid = layout
    d, m, width = samples.shape
    rs = r[samples]
    # Sums and squares, left and right, are one array so each step of the
    # SSE formula runs once for both sides.  (np.add.accumulate is
    # np.cumsum without its Python wrapper.)
    sides = np.empty((2, 2, d, m, width))
    np.add.accumulate(rs, axis=2, out=sides[0, 0])
    np.add.accumulate(rs * rs, axis=2, out=sides[1, 0])
    del rs  # each padded array is freed once used, to keep the peak low
    np.subtract(np.array([sums, sq_sums])[:, None, :, None], sides[:, 0], out=sides[:, 1])
    sides = sides[..., :-1]
    # Padded lanes may divide by zero; they are masked out below.
    with np.errstate(all="ignore"):
        sse = _sse(sides[1], sides[0], sizes, l2)
        del sides
        gain = np.array(parent_sse)[:, None] - (sse[0] + sse[1])
    gain[invalid] = -np.inf
    at = gain.argmax(axis=2)
    best = gain.max(axis=2)
    best[np.isnan(best)] = -np.inf  # a NaN gain never beats the best so far
    splits = []
    for k, j in enumerate(best.argmax(axis=0).tolist()):
        i = at[j, k]
        splits.append((j, float(best[j, k]), float((xs[j, k, i] + xs[j, k, i + 1]) / 2.0)))
    return splits


def _grow_tree(search: _SplitSearch, r, gains: np.ndarray):
    """Grow one tree level by level; returns it and its value on each row of X.

    The search is exact: every midpoint between distinct consecutive values
    of every feature, ties going to the lowest feature index, then the
    lowest threshold.  The trees are those a node-by-node recursion grows,
    bit for bit: node sums are numpy's pairwise sums over the node's rows
    in sample order (padding would change their last bits), the leaf values
    and parent SSEs are the same float operations in the same order, and
    the split gains are added to ``gains`` in preorder, the recursion's
    order.
    """
    X, order, hp = search.X, search.order, search.hp
    n = X.shape[0]
    l2 = hp.l2_leaf_reg
    root = TreeNode()
    values = np.empty(n)
    split_gain: dict[int, float] = {}
    level = [(root, search.lanes)]
    for depth in range(hp.max_depth + 1):
        nodes, rows, sums, sq_sums, parent_sse = [], [], [], [], []
        for node, idx in level:
            r_node = r[idx]
            total = float(r_node.sum())
            if depth == hp.max_depth or idx.size < 2 * hp.min_samples_leaf:
                node.value = _leaf_value(total, idx.size, l2)
                values[idx] = node.value
                continue
            sq_sum = float((r_node * r_node).sum())
            nodes.append(node)
            rows.append(idx)
            sums.append(total)
            sq_sums.append(sq_sum)
            parent_sse.append(_sse(sq_sum, total, idx.size, l2))
        if not nodes:
            break
        if depth == 0:
            layout = search.root
        else:
            # Each feature's sorted rows, grouped by node; closed rows last.
            slot = np.full(n, len(nodes))
            for k, idx in enumerate(rows):
                slot[idx] = k
            grouped = order[search.features, np.argsort(slot[order], axis=1, kind="stable")]
            layout = search.layout(grouped, np.array([idx.size for idx in rows]))
        splits = _level_splits(layout, r, sums, sq_sums, parent_sse, l2)
        level = []
        for node, idx, total, (j, gain, threshold) in zip(nodes, rows, sums, splits):
            if not gain > MIN_SPLIT_GAIN:
                node.value = _leaf_value(total, idx.size, l2)
                values[idx] = node.value
                continue
            goes_left = X[idx, j] <= threshold
            node.feature_index = j
            node.threshold = threshold
            node.left = TreeNode()
            node.right = TreeNode()
            split_gain[id(node)] = gain
            level.append((node.left, idx[goes_left]))
            level.append((node.right, idx[~goes_left]))
    stack = [root]
    while stack:
        node = stack.pop()
        if node.left is not None:
            gains[node.feature_index] += split_gain[id(node)]
            stack += [node.right, node.left]
    return root, values


def fit_gbt(X, y, hp: GbtHyperparams | None = None) -> GbtModel:
    hp = hp or GbtHyperparams()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ModelError("X must be a nonempty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ModelError("y length must match the number of rows of X")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ModelError("inputs must be finite")

    n, d = X.shape
    base = float(y.mean())
    gains = np.zeros(d)
    trees: list[TreeNode] = []
    search = _SplitSearch(X, hp)
    pred = np.full(n, base)
    residual = y - pred
    sse_trace: list[float] = []
    lr = hp.learning_rate
    for _ in range(hp.n_estimators):
        root, values = _grow_tree(search, residual, gains)
        trees.append(root)
        pred += lr * values
        residual = y - pred
        sse_trace.append(float((residual**2).sum()))
    return GbtModel(
        base_prediction=base,
        trees=trees,
        hyperparams=hp,
        feature_count=d,
        cumulative_gain=gains,
        training_sse=sse_trace,
    )


def feature_importance(m: GbtModel) -> np.ndarray:
    """Normalized impurity-decrease importance; uniform if nothing gained."""
    total = float(m.cumulative_gain.sum())
    if total <= 0.0:
        return np.full(m.feature_count, 1.0 / m.feature_count)
    return m.cumulative_gain / total


@dataclass(frozen=True)
class LinearModel:
    feature_index: int
    slope: float
    intercept: float
    is_constant: bool = False

    def predict(self, row) -> float:
        return self.slope * float(row[self.feature_index]) + self.intercept


def fit_linear_one_feature(x, y, feature_index: int = 0) -> LinearModel:
    """Ordinary least squares on one feature; constant model when x is flat."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise ModelError("x and y must be nonempty vectors of equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ModelError("inputs must be finite")
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        return LinearModel(feature_index=feature_index, slope=0.0, intercept=ym, is_constant=True)
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    return LinearModel(
        feature_index=feature_index, slope=slope, intercept=ym - slope * xm, is_constant=False
    )


# --- serialization ----------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if node.left is None:
        return {"value": node.value}
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(doc: dict, feature_count: int) -> TreeNode:
    """One node and its subtree, checked so the walk cannot fail on it.
    Checks are inline and internal nodes positional: a model holds tens of
    thousands of nodes, and this keeps decoding as fast as unchecked."""
    if type(doc) is not dict:
        raise SchemaError(f"GBT tree node {doc!r} is missing or not a mapping")
    if "value" in doc:
        value = doc["value"]
        if type(value) not in (int, float) or not math.isfinite(value):
            raise SchemaError(f"GBT leaf value {value!r} is not a finite number")
        return TreeNode(value=value)
    j, threshold = doc["feature_index"], doc["threshold"]
    if type(j) is not int or not 0 <= j < feature_count:
        raise SchemaError(f"GBT tree node reads feature {j!r}, not one of {feature_count}")
    if type(threshold) not in (int, float) or not math.isfinite(threshold):
        raise SchemaError(f"GBT threshold {threshold!r} is not a finite number")
    left = _node_from_dict(doc.get("left"), feature_count)
    return TreeNode(j, threshold, left, _node_from_dict(doc.get("right"), feature_count))


def gbt_to_dict(m: GbtModel) -> dict:
    return {
        "base_prediction": m.base_prediction,
        "hyperparams": asdict(m.hyperparams),
        "feature_count": m.feature_count,
        "cumulative_gain": list(m.cumulative_gain),
        "trees": [_node_to_dict(t) for t in m.trees],
    }


def _finite(value, what: str):
    """A finite int or float (numpy's float64 is one), else a SchemaError
    naming `what`; True and False are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise SchemaError(f"{what} {value!r} is not a finite number")
    return value


def gbt_from_dict(doc: dict) -> GbtModel:
    d = doc["feature_count"]
    gains = np.array(doc["cumulative_gain"], dtype=float)
    if type(d) is not int or gains.shape != (d,):
        raise SchemaError(f"GBT feature_count {d!r} does not match cumulative_gain {gains.shape}")
    return GbtModel(
        base_prediction=_finite(doc["base_prediction"], "GBT base prediction"),
        trees=[_node_from_dict(t, d) for t in doc["trees"]],
        hyperparams=GbtHyperparams(**doc["hyperparams"]),
        feature_count=d,
        cumulative_gain=gains,
    )


def linear_to_dict(m: LinearModel) -> dict:
    return {
        "feature_index": m.feature_index,
        "slope": m.slope,
        "intercept": m.intercept,
        "is_constant": m.is_constant,
    }


def linear_from_dict(doc: dict) -> LinearModel:
    return LinearModel(
        feature_index=doc["feature_index"],
        slope=_finite(doc["slope"], "linear model slope"),
        intercept=_finite(doc["intercept"], "linear model intercept"),
        is_constant=doc["is_constant"],
    )
