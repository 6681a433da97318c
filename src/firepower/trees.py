"""Gradient-boosted regression trees with impurity-decrease importance.

Squared-error boosting with exact greedy splits over midpoints of sorted
unique feature values, L2-regularized leaf values and deterministic
tie-breaking (lowest feature index, then lowest threshold).  Also houses
the single-feature linear regressor used by the retraining strategy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
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
        """A ModelError names the first field, in order, the trees cannot use."""
        for name in ("n_estimators", "max_depth", "min_samples_leaf"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ModelError(f"hyperparameter {name} {value!r} is not an integer >= 1")
            object.__setattr__(self, name, int(value))  # JSON writes no numpy integer
        lr = finite_number(self.learning_rate, "hyperparameter learning_rate", ModelError)
        if not 0 < lr <= 1:
            raise ModelError(f"hyperparameter learning_rate {lr!r} is not in (0, 1]")
        l2 = finite_number(self.l2_leaf_reg, "hyperparameter l2_leaf_reg", ModelError)
        if l2 < 0:
            raise ModelError(f"hyperparameter l2_leaf_reg {l2!r} is negative")


# The `feature` entry of a leaf.
LEAF = -1


@dataclass
class GbtModel:
    """The trees are preorder arrays (a node, its left subtree, its right
    subtree), tree after tree: ``feature`` holds each node's split feature
    (LEAF for a leaf), ``value`` its threshold or leaf value, ``right`` a
    split's right child (a leaf's own index); a split's left child follows
    it.  ``tree_sizes`` holds each tree's node count.  These are the lists
    that format 2 writes (see gbt_to_dict)."""

    base_prediction: float
    tree_sizes: np.ndarray
    feature: np.ndarray
    value: np.ndarray
    right: np.ndarray
    hyperparams: GbtHyperparams
    feature_count: int
    cumulative_gain: np.ndarray
    training_sse: list[float] = field(default_factory=list)

    @cached_property
    def trees(self) -> list[TreeNode]:
        """The roots of the trees as linked TreeNodes, built on first read:
        the view that the one-row walk of ``predict`` reads."""
        nodes = [
            TreeNode(value=v) if j == LEAF else TreeNode(j, v)
            for j, v in zip(self.feature.tolist(), self.value.tolist())
        ]
        for i, (node, k) in enumerate(zip(nodes, self.right.tolist())):
            if node.feature_index != LEAF:
                node.left, node.right = nodes[i + 1], nodes[k]
        starts = np.add.accumulate(self.tree_sizes) - self.tree_sizes
        return [nodes[s] for s in starts.tolist()]

    def predict(self, x) -> float:
        """The base plus lr times x's leaf in each tree, in tree order.  The
        row is a list of Python floats, which compare and add as float64
        does, for speed on one row."""
        row = self._checked(x, 1).tolist()
        lr = self.hyperparams.learning_rate
        total = self.base_prediction
        for node in self.trees:
            while node.left is not None:
                node = node.left if row[node.feature_index] <= node.threshold else node.right
            total += lr * node.value
        return total

    def predict_many(self, X) -> np.ndarray:
        """``predict`` of each row, bit for bit.  All rows walk all trees at
        once, one step per level, and leaves loop to themselves; then each
        row's terms, the base and lr times its leaves, are added in tree
        order, the walk's sequence of additions."""
        X = self._checked(X, 2)
        split = self.feature != LEAF
        # From node i a row goes to child[2i] unless its feature is <= the
        # threshold (NaN is not), then to child[2i + 1].
        child = np.stack((self.right, np.arange(split.size) + split), axis=1).ravel()
        column = np.maximum(self.feature, 0)
        starts = np.add.accumulate(self.tree_sizes) - self.tree_sizes
        node = np.tile(starts, X.shape[0])
        row_start = (np.arange(X.shape[0]) * X.shape[1]).repeat(starts.size)
        while split.take(node).any():
            goes_left = X.take(row_start + column.take(node)) <= self.value.take(node)
            node = child.take(2 * node + goes_left)
        terms = np.empty((X.shape[0], starts.size + 1))
        terms[:, 0] = self.base_prediction
        leaves = self.value.take(node).reshape(X.shape[0], starts.size)
        np.multiply(self.hyperparams.learning_rate, leaves, out=terms[:, 1:])
        return np.add.accumulate(terms, axis=1, out=terms)[:, -1]

    def _checked(self, X, ndim: int) -> np.ndarray:
        """X as floats; ModelError unless ndim-D with feature_count columns."""
        X = np.asarray(X, dtype=float)
        if X.ndim != ndim or X.shape[-1] != self.feature_count:
            raise ModelError(f"expected {self.feature_count} features, got shape {X.shape}")
        return X


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


def _grow_trees(search: _SplitSearch, r):
    """Grow one tree per model of the batch, all level by level at once.

    ``r`` holds the residuals as a flat per-row array.  Returns each flat
    row's value in its model's tree and the tree's levels: per level, its
    nodes' models, which split, and each node's split feature, threshold,
    gain and leaf value, in the order _preorder reads.  The search is
    exact: every midpoint between distinct consecutive values of every
    feature, ties going to the lowest feature index, then the lowest
    threshold.  Each tree is the one a node-by-node recursion grows from
    its model alone, bit for bit: node sums are numpy's pairwise sums over
    the node's rows in sample order, and the leaf values and parent SSEs
    are the same float operations in the same order.  A node too small to
    split is searched too; no split is allowed in it, so it closes as a
    leaf, as the recursion leaves it.
    """
    hp = search.hp
    l2 = hp.l2_leaf_reg
    # Entries r.size on are the -0.0 heads of the nodes' runs (see runs());
    # ``values`` has room for them too, and what lands there is dropped.
    r_heads = np.concatenate((r, search.neg_zeros))
    values = np.empty(2 * r.size)
    node_model, counts, slot = search.root
    open_rows = r.size
    levels = []
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
            # No node splits; the other fields are read only where one does.
            levels.append((node_model, np.zeros(counts.size, bool), counts, leaf, leaf, leaf))
            break
        if "level" not in memo:
            memo["level"] = search.level(node_model, counts, slot)
        chunks = memo["level"]
        found = [_level_splits(c, r, sums[:, c.k0 : c.k1]) for c in chunks]
        pick, gain, threshold = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
        first = chunks[0].first if len(chunks) == 1 else np.concatenate([c.first for c in chunks])
        feature = pick - first
        split = gain > MIN_SPLIT_GAIN
        levels.append((node_model, split, feature, threshold, gain, leaf))
        at = np.flatnonzero(split)
        if at.size < counts.size:
            # The rows of the nodes that close keep their leaf value; the
            # others take their child's at the next level.
            values[order] = leaf.repeat(runs)
        if not at.size:
            break
        # The rows of the q-th split node, in its split feature's lane, go
        # to children 2q and 2q + 1; every other row is closed.
        slot = np.full(r.size, 4 * at.size + 1)
        child_counts: list[int] = []
        chunk, *later = chunks
        for k, p, c, t in zip(
            at.tolist(), pick.take(at).tolist(), counts.take(at).tolist(), threshold.take(at).tolist()
        ):
            while k >= chunk.k1:
                chunk, *later = later
            rows, xs = chunk.rows[p, :c], chunk.xs[p, :c]
            left = int(xs.searchsorted(t, side="right"))
            slot[rows[:left]] = 2 * len(child_counts) + 1
            slot[rows[left:]] = 2 * len(child_counts) + 3
            child_counts += (left, c - left)
        node_model, counts = node_model[split].repeat(2), np.array(child_counts)
        open_rows = sum(child_counts)
    return values[: r.size], levels


def _preorder(rounds: list[list[tuple]], widths: np.ndarray) -> list[tuple]:
    """Per model, its tree_sizes, feature, value, right and cumulative_gain,
    from the levels _grow_trees recorded in each boosting round, with a
    fixed number of numpy calls per depth.  Level d of all rounds is one
    array; the children of its q-th split are nodes 2q and 2q + 1 of level
    d + 1.  Subtree sizes run bottom up, preorder positions top down.  The
    gains are added one by one by np.add.at, by model, tree and preorder:
    the node-by-node recursion's order of additions."""
    levels = [
        [np.concatenate(field) for field in zip(*(tree[d] for tree in rounds if d < len(tree)))]
        for d in range(max(map(len, rounds)))
    ]
    sizes = [np.ones(levels[-1][1].size, dtype=np.int64)]
    for _, split, *_ in reversed(levels[:-1]):
        sizes.insert(0, np.ones(split.size, dtype=np.int64))
        sizes[0][split] += sizes[1][0::2] + sizes[1][1::2]
    tree_sizes = sizes[0].reshape(len(rounds), widths.size).T
    flat = tree_sizes.ravel()
    model_sizes = tree_sizes.sum(axis=1)
    feature = np.full(flat.sum(), LEAF)
    value = np.empty(feature.size)
    gain = np.empty(feature.size)
    right = np.arange(feature.size)
    pos = (np.add.accumulate(flat) - flat).reshape(tree_sizes.shape).T.ravel()
    for d, (_, split, j, threshold, g, leaf) in enumerate(levels):
        at = pos[split]
        value[pos] = leaf
        value[at] = threshold[split]
        feature[at] = j[split]
        gain[at] = g[split]
        if d + 1 < len(levels):
            pos = np.empty(2 * at.size, dtype=np.int64)
            pos[0::2] = at + 1
            pos[1::2] = at + 1 + sizes[d + 1][0::2]
            right[at] = pos[1::2]
    right -= (np.add.accumulate(model_sizes) - model_sizes).repeat(model_sizes)
    inner = feature != LEAF
    lane = (np.add.accumulate(widths) - widths).repeat(model_sizes) + feature
    gains = np.zeros(widths.sum())
    np.add.at(gains, lane[inner], gain[inner])
    cut = np.add.accumulate(model_sizes)[:-1]
    per_model = (np.split(a, cut) for a in (feature, value, right))
    return list(zip(tree_sizes, *per_model, np.split(gains, np.add.accumulate(widths)[:-1])))


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
    search = _SplitSearch(list(Xs), hp)
    Y = np.array(ys)
    pred = np.repeat(bases, n).reshape(Y.shape)
    residual = Y - pred
    rounds, sse = [], []
    lr = hp.learning_rate
    # Padded slots of the split search may divide by zero (see _level_splits).
    with np.errstate(all="ignore"):
        for _ in range(hp.n_estimators):
            values, levels = _grow_trees(search, residual.ravel())
            rounds.append(levels)
            pred += lr * values.reshape(Y.shape)
            residual = Y - pred
            sse.append((residual**2).sum(axis=1))
    return [
        GbtModel(base, sizes, feature, value, right, hp, X.shape[1], gains, trace)
        for X, base, (sizes, feature, value, right, gains), trace in zip(
            Xs, bases, _preorder(rounds, search.widths), np.array(sse).T.tolist()
        )
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

    def predict_many(self, X) -> np.ndarray:
        return self.slope * np.asarray(X, dtype=float)[:, self.feature_index] + self.intercept


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

# A knowledge-base or model file names its layout in "format_version"; one
# without it is format 1, which nests every tree node as a JSON object.
# Format 2 writes each GBT's trees as three flat lists (see gbt_to_dict).
FORMAT_VERSION = 2


def format_version(doc: dict, kind: str) -> int:
    """The format of a `kind` document: 1 or 2, an int; 1 when unnamed."""
    version = doc.get("format_version", 1)
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise SchemaError(
            f"{kind}: unknown format_version {version!r} (this version reads 1 and {FORMAT_VERSION})"
        )
    return version


def _node_from_dict(doc: dict, feature_count: int, feature: list, value: list) -> int:
    """Appends one format-1 node and its subtree to format 2's preorder
    lists, checked so the walk cannot fail on it; returns their size."""
    if type(doc) is not dict:
        raise SchemaError(f"GBT tree node {doc!r} is missing or not a mapping")
    if "value" in doc:
        feature.append(LEAF)
        value.append(finite_number(doc["value"], "GBT leaf value"))
        return 1
    j = doc["feature_index"]
    if type(j) is not int or not 0 <= j < feature_count:
        raise SchemaError(f"GBT tree node reads feature {j!r}, not one of {feature_count}")
    feature.append(j)
    value.append(finite_number(doc["threshold"], "GBT threshold"))
    left = _node_from_dict(doc.get("left"), feature_count, feature, value)
    return 1 + left + _node_from_dict(doc.get("right"), feature_count, feature, value)


def gbt_to_dict(m: GbtModel) -> dict:
    """Format 2.  The trees are three flat lists: ``tree_sizes``, each
    tree's node count, then per node in preorder (node, left subtree, right
    subtree), tree after tree, its split ``feature`` (LEAF for a leaf) and
    its ``value``: the threshold of a split, the value of a leaf."""
    return {
        "base_prediction": m.base_prediction,
        "hyperparams": asdict(m.hyperparams),
        "feature_count": m.feature_count,
        "cumulative_gain": m.cumulative_gain.tolist(),
        "tree_sizes": m.tree_sizes.tolist(),
        "feature": m.feature.tolist(),
        "value": m.value.tolist(),
    }


def finite_number(value, what: str, error: type[Exception] = SchemaError):
    """A finite int or float (numpy's float64 is one), else an `error`
    (SchemaError by default) naming `what`; True and False are not numbers."""
    try:
        number = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        number = False
    if not number:
        raise error(f"{what} {value!r} is not a finite number")
    return value


def all_finite(values: list) -> bool:
    """Whether every entry is a finite int or float, not a bool."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return bool(np.isfinite(np.array(values, dtype=float)).all())
    except OverflowError:  # an int beyond the float range
        return False


def _trees_from_lists(sizes, feature, value, feature_count: int) -> tuple:
    """Format 2's trees as GbtModel's arrays, with the checks
    _node_from_dict makes on format 1.  The entries are checked in bulk;
    only a GBT that fails is searched node by node for the entry to name."""
    for name, entries in (("tree_sizes", sizes), ("feature", feature), ("value", value)):
        if type(entries) is not list:
            raise SchemaError(f"GBT {name} is a {type(entries).__name__}, not a list")
    for size in sizes:
        if type(size) is not int or size < 1:
            raise SchemaError(f"GBT tree size {size!r} is not a positive integer")
    total = sum(sizes)
    if len(feature) != total or len(value) != total:
        raise SchemaError(
            f"GBT tree_sizes add up to {total} nodes, but feature holds "
            f"{len(feature)} and value {len(value)}"
        )
    features_ok = not feature or (
        set(map(type, feature)) == {int} and min(feature) >= LEAF and max(feature) < feature_count
    )
    if not (features_ok and all_finite(value)):
        for j, v in zip(feature, value):
            if type(j) is not int or not LEAF <= j < feature_count:
                raise SchemaError(f"GBT tree node reads feature {j!r}, not one of {feature_count}")
            finite_number(v, "GBT leaf value" if j == LEAF else "GBT threshold")
    sizes = np.array(sizes, dtype=np.int64)
    feature = np.array(feature, dtype=np.int64)
    split = feature != LEAF
    # Read in preorder, a split fills one open child slot and opens two, a
    # leaf fills one: ``opened`` counts, from node 0 on, the slots opened
    # less those filled.  A tree closes at its first node whose count falls
    # one below the count at its start, which must be its last node.
    opened = np.concatenate(([0], np.add.accumulate(np.where(split, 1, -1))))
    starts = np.add.accumulate(sizes) - sizes
    closes = opened[1:] == opened[starts].repeat(sizes) - 1
    first = np.minimum.reduceat(np.where(closes, np.arange(closes.size), closes.size), starts)
    bad = np.flatnonzero(first != starts + sizes - 1)
    if bad.size:
        t = bad[0]
        if first[t] < starts[t] + sizes[t] - 1:
            raise SchemaError(f"GBT tree {t} closes after {first[t] - starts[t] + 1} of its {sizes[t]} nodes")
        raise SchemaError(f"GBT tree {t} does not close within its {sizes[t]} nodes")
    # A split's right child is the next node whose count before it equals
    # the split's: the one after the left subtree.
    order = opened[:-1].argsort(kind="stable")
    following = np.zeros_like(order)
    following[order[:-1]] = order[1:]
    right = np.where(split, following, np.arange(feature.size))
    return sizes, feature, np.array(value, dtype=float), right


def _hyperparams_from_dict(doc: dict, what: str) -> GbtHyperparams:
    """The five hyperparameters of a GBT document, every one required; a
    SchemaError naming `what` if one is missing, extra or invalid."""
    names = [f.name for f in fields(GbtHyperparams)]
    if type(doc) is not dict or sorted(doc) != sorted(names):
        raise SchemaError(f"{what} hyperparams {doc!r} do not hold exactly {names}")
    try:
        return GbtHyperparams(**doc)
    except ModelError as exc:
        raise SchemaError(f"{what} {exc}") from None


def gbt_from_dict(
    doc: dict, version: int = FORMAT_VERSION, width: int | None = None, what: str = "GBT"
) -> GbtModel:
    """A GBT of a format-`version` document, checked so that no walk can fail
    on it; with `width`, a GBT that reads another number of features is a
    SchemaError naming `what`."""
    d, gains = doc["feature_count"], doc["cumulative_gain"]
    if type(d) is not int or type(gains) is not list or len(gains) != d:
        raise SchemaError(f"GBT feature_count {d!r} does not match cumulative_gain {gains!r}")
    if width is not None and d != width:
        raise SchemaError(f"{what} reads {d} features, not {width}")
    if not all_finite(gains):
        raise SchemaError(f"GBT cumulative_gain {gains!r} holds a value that is not a finite number")
    if version == 1:
        feature, value = [], []
        try:
            lists = [_node_from_dict(t, d, feature, value) for t in doc["trees"]], feature, value
        except RecursionError:
            raise SchemaError("GBT tree is nested too deeply to decode") from None
    else:
        lists = doc["tree_sizes"], doc["feature"], doc["value"]
    arrays = _trees_from_lists(*lists, d)
    base = finite_number(doc["base_prediction"], "GBT base prediction")
    hp = _hyperparams_from_dict(doc["hyperparams"], what)
    return GbtModel(base, *arrays, hp, d, np.array(gains, dtype=float))


def linear_to_dict(m: LinearModel) -> dict:
    return {
        "feature_index": m.feature_index,
        "slope": m.slope,
        "intercept": m.intercept,
        "is_constant": m.is_constant,
    }


def linear_from_dict(doc: dict, what: str = "linear model") -> LinearModel:
    """A LinearModel; a SchemaError names `what` and the first bad field."""
    for key, kind in (("feature_index", int), ("is_constant", bool)):
        if type(doc[key]) is not kind:  # True is no index, 1 no flag
            raise SchemaError(f"{what} {key} {doc[key]!r} is not of type {kind.__name__}")
    return LinearModel(
        feature_index=doc["feature_index"],
        slope=finite_number(doc["slope"], f"{what} slope"),
        intercept=finite_number(doc["intercept"], f"{what} intercept"),
        is_constant=doc["is_constant"],
    )
