"""Gradient-boosted regression trees with impurity-decrease importance.

Squared-error boosting with exact greedy splits over midpoints of sorted
unique feature values, L2-regularized leaf values and deterministic
tie-breaking (lowest feature index, then lowest threshold).  Also houses
the single-feature linear regressor used by the retraining strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

# A split must reduce SSE by more than this to be accepted.
MIN_SPLIT_GAIN = 1e-12


@dataclass
class TreeNode:
    """Internal node (feature_index/threshold/left/right) or leaf (value)."""

    feature_index: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def evaluate(self, x: np.ndarray) -> float:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature_index] <= node.threshold else node.right
        return node.value

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        self._fill(X, np.arange(X.shape[0]), out)
        return out

    def _fill(self, X, idx, out):
        if self.is_leaf:
            out[idx] = self.value
            return
        mask = X[idx, self.feature_index] <= self.threshold
        self.left._fill(X, idx[mask], out)
        self.right._fill(X, idx[~mask], out)


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
        x = np.asarray(x, dtype=float)
        if x.shape != (self.feature_count,):
            raise ModelError(
                f"expected {self.feature_count} features, got shape {x.shape}"
            )
        out = self.base_prediction
        lr = self.hyperparams.learning_rate
        for tree in self.trees:
            out += lr * tree.evaluate(x)
        return out

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[0], self.base_prediction)
        lr = self.hyperparams.learning_rate
        for tree in self.trees:
            out += lr * tree.evaluate_many(X)
        return out


def _leaf_value(residual_sum: float, count: int, l2: float) -> float:
    return residual_sum / (count + l2)


def _node_sse(sq_sum: float, residual_sum: float, count: int, l2: float) -> float:
    v = _leaf_value(residual_sum, count, l2)
    return sq_sum - 2.0 * v * residual_sum + count * v * v


def _best_split(X: np.ndarray, r: np.ndarray, hp: GbtHyperparams):
    """Exact search over all features and midpoints; returns the best split.

    Ties resolved toward the lowest feature index, then the lowest
    threshold.  Returns None when no split beats MIN_SPLIT_GAIN.
    """
    n, d = X.shape
    l2 = hp.l2_leaf_reg
    total_sum = float(r.sum())
    total_sq = float((r * r).sum())
    parent_sse = _node_sse(total_sq, total_sum, n, l2)

    best_gain = MIN_SPLIT_GAIN
    best = None
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        rs = r[order]
        cum = np.cumsum(rs)
        cum_sq = np.cumsum(rs * rs)
        # Candidate boundaries between distinct consecutive values.
        distinct = xs[1:] > xs[:-1]
        counts = np.arange(1, n)
        ok = distinct & (counts >= hp.min_samples_leaf) & (n - counts >= hp.min_samples_leaf)
        if not ok.any():
            continue
        idx = np.nonzero(ok)[0]
        nl = idx + 1
        sl = cum[idx]
        sql = cum_sq[idx]
        nr = n - nl
        sr = total_sum - sl
        sqr = total_sq - sql
        vl = sl / (nl + l2)
        vr = sr / (nr + l2)
        sse = (sql - 2.0 * vl * sl + nl * vl * vl) + (sqr - 2.0 * vr * sr + nr * vr * vr)
        gains = parent_sse - sse
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain > best_gain:
            best_gain = gain
            i = idx[k]
            threshold = (xs[i] + xs[i + 1]) / 2.0
            mask = X[:, j] <= threshold
            best = (j, threshold, mask, gain)
    return best


def _build_tree(X, r, depth, hp, gains: np.ndarray) -> TreeNode:
    n = X.shape[0]
    l2 = hp.l2_leaf_reg
    if depth >= hp.max_depth or n < 2 * hp.min_samples_leaf:
        return TreeNode(value=_leaf_value(float(r.sum()), n, l2))
    split = _best_split(X, r, hp)
    if split is None:
        return TreeNode(value=_leaf_value(float(r.sum()), n, l2))
    j, threshold, mask, gain = split
    gains[j] += gain
    left = _build_tree(X[mask], r[mask], depth + 1, hp, gains)
    right = _build_tree(X[~mask], r[~mask], depth + 1, hp, gains)
    return TreeNode(feature_index=j, threshold=threshold, left=left, right=right)


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
    # Training predictions accumulate through the same per-row evaluation
    # path used at inference time.
    pred = np.full(n, base)
    sse_trace: list[float] = []
    lr = hp.learning_rate
    for _ in range(hp.n_estimators):
        residual = y - pred
        root = _build_tree(X, residual, 0, hp, gains)
        trees.append(root)
        pred += lr * root.evaluate_many(X)
        sse_trace.append(float(((y - pred) ** 2).sum()))
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
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(doc: dict) -> TreeNode:
    if "value" in doc:
        return TreeNode(value=doc["value"])
    return TreeNode(
        feature_index=doc["feature_index"],
        threshold=doc["threshold"],
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def gbt_to_dict(m: GbtModel) -> dict:
    return {
        "base_prediction": m.base_prediction,
        "hyperparams": {
            "n_estimators": m.hyperparams.n_estimators,
            "max_depth": m.hyperparams.max_depth,
            "learning_rate": m.hyperparams.learning_rate,
            "min_samples_leaf": m.hyperparams.min_samples_leaf,
            "l2_leaf_reg": m.hyperparams.l2_leaf_reg,
        },
        "feature_count": m.feature_count,
        "cumulative_gain": list(m.cumulative_gain),
        "trees": [_node_to_dict(t) for t in m.trees],
    }


def gbt_from_dict(doc: dict) -> GbtModel:
    return GbtModel(
        base_prediction=doc["base_prediction"],
        trees=[_node_from_dict(t) for t in doc["trees"]],
        hyperparams=GbtHyperparams(**doc["hyperparams"]),
        feature_count=doc["feature_count"],
        cumulative_gain=np.array(doc["cumulative_gain"], dtype=float),
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
        slope=doc["slope"],
        intercept=doc["intercept"],
        is_constant=doc["is_constant"],
    )
