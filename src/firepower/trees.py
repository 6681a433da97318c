"""Gradient-boosted regression trees with impurity-decrease importance.

Squared-error boosting with exact greedy splits over midpoints of sorted
unique feature values, L2-regularized leaf values and deterministic
tie-breaking (lowest feature index, then lowest threshold).  Also houses
the single-feature linear regressor used by the retraining strategy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

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


def _leaf_value(residual_sum, count, l2):
    return residual_sum / (count + l2)


# The split search of a level runs in chunks of nodes of at most this many
# padded (pair, slot) cells, a node at least, which bounds its memory.
SEARCH_CELLS = 1 << 13
# A partition of a batch's rows into open nodes fixes a level's layouts.
# In a fit of a few dozen rows the same partition recurs from tree to tree
# (more than half the levels of a CLI chain), so the layouts of levels of
# at most MEMO_CELLS cells are kept, the MEMO_LEVELS used last per batch;
# more raised the peak memory of a few-shot sweep.  The partitions of a
# batch of many models practically never recur, and their levels are
# larger.
MEMO_CELLS = 1 << 9
MEMO_LEVELS = 16


class _Chunk(NamedTuple):
    """The padded layout of one chunk of a level's split search: nodes k0
    to k1 - 1 of the level and their (node, lane) pairs.  Rows are pairs,
    columns slots; all of it is fixed by the partition of the rows."""

    k0: int
    k1: int
    pair_node: np.ndarray  # each pair's node, counted from k0
    first: np.ndarray  # each node's first pair, counted from the chunk's first
    rows: np.ndarray  # the flat row in each slot, the node's rows in the lane's order
    xs: np.ndarray  # the lane's value in each slot
    mids: np.ndarray  # the threshold of a split after each slot
    sizes: np.ndarray  # rows left and right of a split after each slot; the node's in the last
    denom: np.ndarray  # sizes + l2_leaf_reg, the leaf values' divisors
    invalid: np.ndarray  # splits not allowed: between equal values, into the
    # padding, or leaving a side below min_samples_leaf


class _SplitSearch:
    """What the split search of a batch of fits needs besides the residuals.

    The models share their row count n; row i of model m is entry m*n + i
    of the batch's flat per-row arrays.  The search runs over lanes, one per
    (model, feature): model 0's columns, then model 1's, and so on.
    ``rows`` and ``xs`` hold, lane after lane, the flat rows in the stable
    order of the lane's values, and those values; filtered to a node's rows
    it is the node's own stable sort.  All of it depends on X and hp alone,
    so it is built once per batch and shared by all its trees.
    """

    def __init__(self, Xs: list[np.ndarray], hp: GbtHyperparams):
        n, m = Xs[0].shape[0], len(Xs)
        self.widths = np.array([X.shape[1] for X in Xs])
        self.width_list = self.widths.tolist()
        cols = np.concatenate([X.T for X in Xs])
        order = cols.argsort(axis=1, kind="stable")
        self.hp = hp
        self.lane_count = cols.shape[0]
        self.lane_key = np.arange(self.lane_count).repeat(n)
        self.rows = (order + np.arange(m).repeat(self.widths)[:, None] * n).ravel()
        self.xs = np.take_along_axis(cols, order, axis=1).ravel()
        # 0, 1, 2, ...: sliced for every index range below, the longest
        # being the 2k of up to n*m open nodes.
        self.positions = np.arange(2 * n * m + 2)
        self.neg_zeros = np.full(n * m, -0.0)
        self.root = (np.arange(m), np.full(m, n), np.arange(1, 2 * m, 2).repeat(n))
        self.root_memo: dict = {}
        self.memos: dict[bytes, dict] = {}

    def cells(self, node_model, counts) -> int:
        """The padded cells of one chunk of all the nodes."""
        return max(counts.tolist()) * sum(map(self.width_list.__getitem__, node_model.tolist()))

    def memo(self, node_model, counts, slot) -> dict:
        """Where to keep what a level's partition of the rows fixes: the
        same dict for a partition seen before, else a new one.  The
        partition used least recently is dropped first."""
        if self.cells(node_model, counts) > MEMO_CELLS:
            return {}
        key = slot.tobytes()
        memo = self.memos.pop(key, None)
        if memo is None:
            memo = {}
            if len(self.memos) == MEMO_LEVELS:
                del self.memos[next(iter(self.memos))]
        self.memos[key] = memo
        return memo

    def runs(self, counts, slot, open_rows):
        """Each open node's run of the residuals with heads (see
        _grow_trees): its -0.0 head (key 2k), then its rows in sample order
        (key 2k + 1).  Returns the run lengths, the runs' entries, in
        order, and where each run starts."""
        runs = counts + 1
        key = np.concatenate((slot, self.positions[: 2 * counts.size : 2]))
        order = _stable_order(key, 2 * counts.size + 2)[: open_rows + counts.size]
        return runs, order, np.add.accumulate(runs) - runs

    def level(self, node_model, counts, slot) -> list[_Chunk]:
        """The padded layouts of one level's search, chunk by chunk.

        ``slot`` holds 2k + 1 for each flat row of open node k, or 2N + 1
        for a row of a closed node.  The search runs over (node, lane)
        pairs, node by node, each over its own model's lanes only.  A chunk
        is a run of nodes, padded at the end to its largest node (two rows
        at least, so that a chunk of one-row nodes has a slot).
        """
        d = self.widths.take(node_model)
        # Each lane's sorted rows, grouped by node, then by lane; closed rows last.
        key = slot.take(self.rows) * self.lane_count + self.lane_key
        grouped = _stable_order(key, (2 * counts.size + 2) * self.lane_count)
        pair_node = self.positions[: counts.size].repeat(d)
        pair_count = counts.take(pair_node)
        at = np.add.accumulate(pair_count) - pair_count
        first = np.add.accumulate(d) - d
        sizes, lanes = counts.tolist(), d.tolist()
        chunks, k0 = [], 0
        while k0 < len(sizes):
            k1, width, pairs = k0 + 1, sizes[k0], lanes[k0]
            while k1 < len(sizes) and (pairs + lanes[k1]) * max(width, sizes[k1]) <= SEARCH_CELLS:
                width, pairs, k1 = max(width, sizes[k1]), pairs + lanes[k1], k1 + 1
            if k0 == 0 and k1 == len(sizes):
                chunk = pair_node, first, pair_count, at
            else:
                p0 = int(first[k0])
                part = slice(p0, p0 + pairs)
                chunk = pair_node[part] - k0, first[k0:k1] - p0, pair_count[part], at[part]
            chunks.append(self._chunk(grouped, k0, k1, *chunk, max(width, 2)))
            k0 = k1
        return chunks

    def _chunk(self, grouped, k0, k1, pair_node, first, pair_count, at, width) -> _Chunk:
        samples = grouped.take(np.minimum(at[:, None] + self.positions[:width], grouped.size - 1))
        xs = self.xs.take(samples)
        # Slot t splits after the node's t-th sorted row: t + 1 rows go left.
        sizes = np.empty((2, pair_node.size, width))
        sizes[0] = self.positions[1 : width + 1]
        sizes[0, :, -1] = pair_count
        np.subtract(pair_count[:, None], sizes[0], out=sizes[1])
        invalid = (xs[:, 1:] <= xs[:, :-1]) | (
            np.minimum(sizes[0, :, :-1], sizes[1, :, :-1]) < self.hp.min_samples_leaf
        )
        mids = (xs[:, :-1] + xs[:, 1:]) / 2.0
        return _Chunk(k0, k1, pair_node, first, self.rows.take(samples), xs, mids, sizes,
                      sizes + self.hp.l2_leaf_reg, invalid)


def _run_sums(values, starts):
    """Per row of ``values`` and per run, the ``.sum()`` of the run's values
    after its head, bit for bit; run k starts at ``starts[k]`` with a -0.0
    head and ends where run k + 1 starts.

    ``a.sum()`` is 0.0 plus numpy's pairwise sum of ``a``, and
    np.add.reduceat adds a run's first value to the pairwise sum of the
    rest; -0.0 + x is x exactly, signed zeros included.  So every node of a
    level, of every model, is summed in one call, whatever its size.
    """
    return 0.0 + np.add.reduceat(values, starts, axis=1)


def _stable_order(key, bound: int):
    """``key.argsort(kind="stable")`` for integer keys below ``bound``.  In
    the smallest integer type that holds them, numpy sorts keys of up to 16
    bits by radix sort, about ten times faster than 64-bit keys."""
    return key.astype(np.min_scalar_type(bound)).argsort(kind="stable")


def _level_splits(chunk: _Chunk, r, sums):
    """The best split of each node of one chunk of a level, all searched at once.

    ``sums`` holds the pairwise sums of the chunk's nodes' residuals and
    squared residuals in sample order.  Cumulative sums run along the
    slots in the same sequential order as over one node alone, and each
    side's SSE as a leaf is the node-by-node formula,
    ``sq - 2 v s + n v v`` with leaf value ``v = s / (n + l2)``.  Returns
    per node its best pair, the gain (-inf where no split is allowed) and
    the threshold.  Padded slots may divide by zero; the caller silences
    that, and they are masked out.
    """
    rs = r.take(chunk.rows)
    # Sums and squares, left and right, are one array so each step of the
    # SSE formula runs once for both sides.  The left side's last slot
    # holds the whole node, whose SSE as a leaf is the parent's.
    # (np.add.accumulate is np.cumsum without its Python wrapper.)
    sides = np.empty((2, 2) + rs.shape)
    np.add.accumulate(rs, axis=1, out=sides[0, 0])
    np.add.accumulate(rs * rs, axis=1, out=sides[1, 0])
    del rs  # each padded array is freed once used, to keep the peak low
    node = sums.take(chunk.pair_node, axis=1)[:, :, None]
    np.subtract(node, sides[:, 0], out=sides[:, 1])
    sides[:, 0, :, -1:] = node
    v = sides[0] / chunk.denom
    sse = sides[1] - 2.0 * v * sides[0] + chunk.sizes * v * v
    del sides, v
    gain = sse[0, :, -1:] - (sse[0, :, :-1] + sse[1, :, :-1])
    np.putmask(gain, chunk.invalid, -np.inf)
    at = gain.argmax(axis=1)
    best = np.maximum.reduce(gain, axis=1)
    np.putmask(best, best != best, -np.inf)  # a NaN gain never beats the best so far
    # Per node, the first of its pairs that holds its best gain: the lowest
    # feature, and within it the lowest threshold.
    pick = np.lexsort((-best, chunk.pair_node)).take(chunk.first)
    return pick, best.take(pick), chunk.mids[pick, at.take(pick)]


def _grow_trees(search: _SplitSearch, r, gains: list[np.ndarray]):
    """Grow one tree per model of the batch, all level by level at once.

    ``r`` holds the residuals as a flat per-row array.  Returns the roots
    and each flat row's value in its model's tree.  The search is exact:
    every midpoint between distinct consecutive values of every feature,
    ties going to the lowest feature index, then the lowest threshold.
    Each tree is the one a node-by-node recursion grows from its model
    alone, bit for bit: node sums are numpy's pairwise sums over the node's
    rows in sample order, the leaf values and parent SSEs are the same
    float operations in the same order, and the split gains are added to
    the model's ``gains`` in preorder, the recursion's order.  A node too
    small to split is searched too; no split is allowed in it, so it closes
    as a leaf, as the recursion leaves it.
    """
    hp = search.hp
    l2 = hp.l2_leaf_reg
    roots = [TreeNode() for _ in gains]
    # Entries r.size on are the -0.0 heads of the nodes' runs (see runs());
    # ``values`` has room for them too, and what lands there is dropped.
    r_heads = np.concatenate((r, search.neg_zeros))
    values = np.empty(2 * r.size)
    nodes, (node_model, counts, slot) = roots, search.root
    open_rows = r.size
    split_gain: dict[int, float] = {}
    for depth in range(hp.max_depth + 1):
        memo = search.root_memo if depth == 0 else search.memo(node_model, counts, slot)
        if "runs" not in memo:
            memo["runs"] = search.runs(counts, slot, open_rows)
        runs, order, starts = memo["runs"]
        last = depth == hp.max_depth or max(counts.tolist()) < 2 * hp.min_samples_leaf
        run_values = np.empty((1 if last else 2, order.size))
        r_heads.take(order, out=run_values[0])
        if not last:
            np.multiply(run_values[0], run_values[0], out=run_values[1])
        sums = _run_sums(run_values, starts)
        leaf = _leaf_value(sums[0], counts, l2)
        if last:
            values[order] = leaf.repeat(runs)
            for node, value in zip(nodes, leaf.tolist()):
                node.value = value
            break
        children, parts, splits = [], [], []
        if "level" not in memo:
            memo["level"] = search.level(node_model, counts, slot)
        for chunk in memo["level"]:
            k0, k1, first, rows, xs = chunk.k0, chunk.k1, chunk.first, chunk.rows, chunk.xs
            pick, gain, threshold = _level_splits(chunk, r, sums[:, k0:k1])
            split = gain > MIN_SPLIT_GAIN
            splits.append(split)
            for node, s, value, p, c, j, g, t in zip(
                nodes[k0:k1],
                split.tolist(),
                leaf[k0:k1].tolist(),
                pick.tolist(),
                counts[k0:k1].tolist(),
                (pick - first).tolist(),
                gain.tolist(),
                threshold.tolist(),
            ):
                if not s:
                    node.value = value
                    continue
                node.feature_index = j
                node.threshold = t
                node.left = TreeNode()
                node.right = TreeNode()
                split_gain[id(node)] = g
                children += (node.left, node.right)
                parts.append((rows[p, :c], xs[p, :c], t))
        if len(parts) < len(nodes):
            # The rows of the nodes that close keep their leaf value; the
            # others take their child's at the next level.
            values[order] = leaf.repeat(runs)
        if not parts:
            break
        # The rows of the q-th split node, in its split feature's lane, go
        # to children 2q and 2q + 1; every other row is closed.
        slot = np.full(r.size, 2 * len(children) + 1)
        child_counts = []
        for q, (rows, xs, t) in enumerate(parts):
            left = int(xs.searchsorted(t, side="right"))
            slot[rows[:left]] = 4 * q + 1
            slot[rows[left:]] = 4 * q + 3
            child_counts += (left, rows.size - left)
        split = splits[0] if len(splits) == 1 else np.concatenate(splits)
        nodes, node_model, counts = children, node_model[split].repeat(2), np.array(child_counts)
        open_rows = sum(child_counts)
    for root, model_gains in zip(roots, gains):
        stack = [root]
        while stack:
            node = stack.pop()
            if node.left is not None:
                model_gains[node.feature_index] += split_gain[id(node)]
                stack += [node.right, node.left]
    return roots, values[: r.size]


def _checked_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ModelError("X must be a nonempty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ModelError("y length must match the number of rows of X")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ModelError("inputs must be finite")
    return X, y


def fit_gbt_many(Xs, ys, hp: GbtHyperparams | None = None) -> list[GbtModel]:
    """One model per (X, y), each bit-identical to ``fit_gbt(X, y, hp)``.

    Tree t of every model grows in the same step, so a batch costs about
    as many numpy calls as one fit.  The Xs must share their row count;
    their column counts may differ.
    """
    hp = hp or GbtHyperparams()
    if len(Xs) != len(ys):
        raise ModelError(f"{len(Xs)} feature matrices but {len(ys)} label vectors")
    checked = [_checked_xy(X, y) for X, y in zip(Xs, ys)]
    if not checked:
        return []
    Xs, ys = zip(*checked)
    if len({X.shape[0] for X in Xs}) > 1:
        raise ModelError("the models of a batch must share their row count")
    n = Xs[0].shape[0]
    bases = [float(y.mean()) for y in ys]
    gains = [np.zeros(X.shape[1]) for X in Xs]
    search = _SplitSearch(list(Xs), hp)
    Y = np.array(ys)
    pred = np.repeat(bases, n).reshape(Y.shape)
    residual = Y - pred
    trees: list[list[TreeNode]] = [[] for _ in Xs]
    sse_traces: list[list[float]] = [[] for _ in Xs]
    lr = hp.learning_rate
    # Padded slots of the split search may divide by zero (see _level_splits).
    with np.errstate(all="ignore"):
        for _ in range(hp.n_estimators):
            roots, values = _grow_trees(search, residual.ravel(), gains)
            pred += lr * values.reshape(Y.shape)
            residual = Y - pred
            for model_trees, root, trace, sse in zip(
                trees, roots, sse_traces, (residual**2).sum(axis=1).tolist()
            ):
                model_trees.append(root)
                trace.append(sse)
    return [
        GbtModel(
            base_prediction=base,
            trees=model_trees,
            hyperparams=hp,
            feature_count=X.shape[1],
            cumulative_gain=model_gains,
            training_sse=trace,
        )
        for X, base, model_trees, model_gains, trace in zip(Xs, bases, trees, gains, sse_traces)
    ]


def fit_gbt(X, y, hp: GbtHyperparams | None = None) -> GbtModel:
    return fit_gbt_many([X], [y], hp)[0]


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
