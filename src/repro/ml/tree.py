"""Regression trees (CART) used standalone and inside gradient boosting.

Two splitters are available, selectable with ``splitter=``:

* ``"hist"`` (default) — LightGBM-style histogram split finding: every
  feature column is bucketed once per ``fit`` into at most 256 bins
  (``max_bins`` lowers the budget), per-bin statistics are
  accumulated with ``np.bincount`` and child histograms are derived from the
  parent with the histogram-subtraction trick, so each node costs one pass
  over its rows instead of one argsort per feature.
* ``"exact"`` — the original exact variance-reduction splitter over sorted
  feature columns, kept as the reference for equivalence testing.

When a column has at most ``max_bins`` distinct values the histogram cut
points coincide with the exact splitter's candidate thresholds, so both
splitters see identical split gains.

Fitted trees are additionally *flattened* into parallel numpy arrays
(feature / threshold / left / right / value, :class:`FlatTree`), and the
trees of a model are packed into one node array (:class:`PackedForest`) that
routes every (tree, row) pair level by level over whole matrices, replacing
per-row Python recursion and the per-tree loop.
Leaf values can be plain means (standalone use) or Newton steps from
per-sample gradients/hessians (XGBoost-style boosting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.faults import fault_active
from repro.ml.base import Estimator, as_1d_array, as_2d_array

#: Hard ceiling on the bin budget — bin codes must fit in uint8.
MAX_BINS = 256

#: The two split-finding strategies.
SPLITTERS = ("hist", "exact")


def resolve_max_bins(max_bins: Optional[int] = None) -> int:
    """Effective bin budget: the argument clamped to 2..256, else 256."""
    if max_bins is None:
        return MAX_BINS
    return min(max(int(max_bins), 2), MAX_BINS)


# ---------------------------------------------------------------------------
# Feature binning
# ---------------------------------------------------------------------------


@dataclass
class BinnedMatrix:
    """Per-fit uint8 bin codes of a feature matrix plus the cut points.

    ``codes[i, f]`` is the bin of row ``i`` in feature ``f``; ``cuts[f]`` holds
    the increasing split thresholds between consecutive bins, so splitting
    after bin ``b`` corresponds to the predicate ``x <= cuts[f][b]`` and a
    feature with ``k`` cut points has ``k + 1`` bins.
    """

    codes: np.ndarray  # (n_rows, n_features) uint8
    cuts: List[np.ndarray]  # per feature, len(cuts[f]) == n_bins_f - 1

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    @property
    def n_bins(self) -> int:
        """Bin-axis size of the histogram arrays (max bins over features)."""
        return max((len(c) + 1 for c in self.cuts), default=1)

    def flat_codes(self) -> np.ndarray:
        """Codes with per-feature bin offsets added (int64), memoized.

        Computed lazily once per matrix so boosting loops that share one
        ``BinnedMatrix`` across rounds do not redo the O(rows x features)
        widening per tree.
        """
        flat = self.__dict__.get("_flat_codes")
        if flat is None:
            offsets = np.arange(self.n_features, dtype=np.int64) * self.n_bins
            flat = self.codes.astype(np.int64) + offsets
            self.__dict__["_flat_codes"] = flat
        return flat

    def cut_valid(self) -> np.ndarray:
        """Boolean (features, bins) mask of existing cut positions, memoized."""
        valid = self.__dict__.get("_cut_valid")
        if valid is None:
            lengths = np.array([len(cut) for cut in self.cuts])
            valid = np.arange(self.n_bins) < lengths[:, None]
            self.__dict__["_cut_valid"] = valid
        return valid

    def take(self, rows: np.ndarray) -> "BinnedMatrix":
        """Row-subset view sharing the cut points (for row-subsampled fits)."""
        subset = BinnedMatrix(codes=self.codes[rows], cuts=self.cuts)
        flat = self.__dict__.get("_flat_codes")
        if flat is not None:
            subset.__dict__["_flat_codes"] = flat[rows]
        valid = self.__dict__.get("_cut_valid")
        if valid is not None:
            subset.__dict__["_cut_valid"] = valid
        return subset


def bin_feature_matrix(features: np.ndarray, max_bins: Optional[int] = None) -> BinnedMatrix:
    """Bucket every feature column into at most ``max_bins`` ordered bins.

    Columns with few distinct values get one bin per value with cut points at
    the midpoints between consecutive values — exactly the exact splitter's
    candidate thresholds.  Wider columns are quantized over their distinct
    values, evenly in distinct-value space.
    """
    X = as_2d_array(features)
    budget = resolve_max_bins(max_bins)
    codes = np.empty(X.shape, dtype=np.uint8)
    cuts: List[np.ndarray] = []
    for feature in range(X.shape[1]):
        column = X[:, feature]
        uniques = np.unique(column)
        if len(uniques) <= budget:
            cut = 0.5 * (uniques[:-1] + uniques[1:])
        else:
            boundaries = np.linspace(0, len(uniques) - 1, budget + 1).round().astype(int)
            boundaries = np.unique(boundaries)[1:-1]
            cut = 0.5 * (uniques[boundaries - 1] + uniques[boundaries])
        # Adjacent floats can collapse a midpoint onto a value; deduplicate so
        # the cut points stay strictly increasing (empty bins are harmless).
        cut = np.unique(cut)
        codes[:, feature] = np.searchsorted(cut, column, side="left")
        cuts.append(cut)
    return BinnedMatrix(codes=codes, cuts=cuts)


# ---------------------------------------------------------------------------
# Flattened trees
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    """One node of a fitted tree (leaf when ``feature`` is None)."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class FlatTree:
    """A fitted tree flattened into parallel arrays for vectorized predict.

    ``feature[i] == -1`` marks node ``i`` as a leaf; interior nodes route rows
    with ``x[feature] <= threshold`` to ``left`` and the rest to ``right``.
    """

    feature: np.ndarray  # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int32
    right: np.ndarray  # (n_nodes,) int32
    value: np.ndarray  # (n_nodes,) float64

    @property
    def n_nodes(self) -> int:
        return len(self.value)

    @classmethod
    def from_node(cls, root: _Node) -> "FlatTree":
        order: List[_Node] = []
        index_of = {}
        stack = [root]
        while stack:
            node = stack.pop()
            index_of[id(node)] = len(order)
            order.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        n = len(order)
        feature = np.full(n, -1, dtype=np.int32)
        threshold = np.zeros(n)
        left = np.full(n, -1, dtype=np.int32)
        right = np.full(n, -1, dtype=np.int32)
        value = np.empty(n)
        for index, node in enumerate(order):
            value[index] = node.value
            if not node.is_leaf:
                feature[index] = node.feature
                threshold[index] = node.threshold
                left[index] = index_of[id(node.left)]
                right[index] = index_of[id(node.right)]
        return cls(feature=feature, threshold=threshold, left=left, right=right, value=value)

    def to_node(self) -> _Node:
        """Rebuild the linked-node form of the tree (index 0 is the root).

        Inverse of :meth:`from_node` up to node identity — routing and leaf
        values are preserved exactly, so ``predict_recursive`` over the
        rebuilt nodes matches the flattened ``predict`` bit for bit.  Used
        when a tree is restored from serialized state, where only the flat
        arrays are stored.
        """

        def build(index: int) -> _Node:
            if self.feature[index] < 0:
                return _Node(value=float(self.value[index]))
            return _Node(
                value=float(self.value[index]),
                feature=int(self.feature[index]),
                threshold=float(self.threshold[index]),
                left=build(int(self.left[index])),
                right=build(int(self.right[index])),
            )

        return build(0)

    def to_state(self) -> dict:
        """The five parallel arrays as a plain dict (copies, not views)."""
        return {
            "feature": self.feature.copy(),
            "threshold": self.threshold.copy(),
            "left": self.left.copy(),
            "right": self.right.copy(),
            "value": self.value.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "FlatTree":
        """Rebuild a :class:`FlatTree` from :meth:`to_state` output."""
        return cls(
            feature=np.asarray(state["feature"], dtype=np.int32),
            threshold=np.asarray(state["threshold"], dtype=float),
            left=np.asarray(state["left"], dtype=np.int32),
            right=np.asarray(state["right"], dtype=np.int32),
            value=np.asarray(state["value"], dtype=float),
        )


#: Rows routed per pass of :class:`PackedForest`: bounds the (rows x trees)
#: node-index scratch so large inputs stay cache-resident.
ROUTE_CHUNK_ROWS = 512


@dataclass
class PackedForest:
    """The :class:`FlatTree` s of one model packed into a single node array.

    Tree ``t`` starts at node ``roots[t]``; ``children[2 * i]`` and
    ``children[2 * i + 1]`` are node ``i``'s left and right child, and a leaf
    is its own child on both sides (with feature 0), so routing every
    (row, tree) pair one level down is the same gather for interior nodes
    and leaves.  ``depth`` such passes land every pair on its leaf.
    ``value`` holds each node's value times the model's ``scale`` (its
    learning rate), the exact product the per-tree sum used to form.
    """

    feature: np.ndarray  # (n_nodes,) intp, 0 at leaves
    threshold: np.ndarray  # (n_nodes,) float64
    children: np.ndarray  # (2 * n_nodes,) intp
    value: np.ndarray  # (n_nodes,) float64, scaled
    roots: np.ndarray  # (n_trees,) intp
    depth: int
    n_features: int  # columns a routed matrix needs

    @classmethod
    def pack(cls, trees: List[FlatTree], scale: float = 1.0) -> "PackedForest":
        sizes = [tree.n_nodes for tree in trees]
        roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)[: len(trees)]
        feature = np.concatenate([tree.feature for tree in trees] or [[]]).astype(np.intp)
        interior = feature >= 0
        own = np.arange(len(feature), dtype=np.intp)
        children = np.empty(2 * len(feature), dtype=np.intp)
        for side, column in ((0, "left"), (1, "right")):
            offset = [getattr(tree, column) + root for tree, root in zip(trees, roots)]
            children[side::2] = np.where(interior, np.concatenate(offset or [[]]), own)
        depth, frontier = 0, roots[interior[roots]]
        while frontier.size:
            depth += 1
            frontier = children.reshape(-1, 2)[frontier].ravel()
            frontier = frontier[interior[frontier]]
        return cls(
            feature=np.where(interior, feature, 0),
            threshold=np.concatenate([tree.threshold for tree in trees] or [[]]),
            children=children,
            value=scale * np.concatenate([tree.value for tree in trees] or [[]]),
            roots=roots,
            depth=depth,
            n_features=int(feature.max(initial=-1)) + 1,
        )

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def leaf_values(self, features: np.ndarray) -> Iterator[Tuple[slice, np.ndarray]]:
        """Yield ``(rows, values)`` per chunk; ``values[t, r]`` is tree ``t``'s leaf value.

        Rows go level-major: one gather pass per depth over every
        (tree, row) pair of the chunk.  ``x <= threshold`` routes left, so a
        NaN feature value goes right, as in the recursive reference.
        """
        X = as_2d_array(features)
        if X.shape[1] < self.n_features:
            raise ValueError(
                f"feature matrix has {X.shape[1]} columns, the model splits on "
                f"column {self.n_features - 1}"
            )
        width = X.shape[1]
        for start in range(0, len(X), ROUTE_CHUNK_ROWS):
            chunk = X[start : start + ROUTE_CHUNK_ROWS]
            node = np.broadcast_to(self.roots[:, None], (self.n_trees, len(chunk)))
            cells = chunk.ravel()
            row_base = np.arange(0, len(chunk) * width, width, dtype=np.intp)
            for _ in range(self.depth):
                goes_left = cells[row_base + self.feature[node]] <= self.threshold[node]
                node = self.children[2 * node + 1 - goes_left]
            yield slice(start, start + len(chunk)), self.value[node]

    def predict(self, features: np.ndarray, base: float) -> np.ndarray:
        """``base`` plus every tree's leaf value, added in tree order."""
        return self._running_sums(features, base, staged=False)[0]

    def staged_predict(self, features: np.ndarray, base: float) -> np.ndarray:
        """(trees, rows): the running sum of :meth:`predict` after each tree."""
        return self._running_sums(features, base, staged=True)

    def _running_sums(self, features: np.ndarray, base: float, staged: bool) -> np.ndarray:
        # np.cumsum adds strictly in order, so each running sum is the float
        # the per-tree loop ``predictions += lr * tree.predict(X)`` produced.
        X = as_2d_array(features)
        out = np.full((self.n_trees if staged else 1, len(X)), base)
        if not self.n_trees:
            return out
        for rows, values in self.leaf_values(X):
            sums = np.empty((self.n_trees + 1, values.shape[1]))
            sums[0] = base
            sums[1:] = values
            np.cumsum(sums, axis=0, out=sums)
            out[:, rows] = sums[1:] if staged else sums[-1]
        return out


# ---------------------------------------------------------------------------
# Histogram split finding
# ---------------------------------------------------------------------------


class _HistogramContext:
    """Per-fit state of the histogram splitter.

    The split gain for both tree flavours has the common form
    ``num^2 / (den + lam)``: the variance splitter uses ``num = w*y`` and
    ``den = w`` (with a denominator floor), the Newton splitter ``num = g``
    and ``den = h`` with the L2 regularizer as ``lam``.
    """

    def __init__(
        self,
        binned: BinnedMatrix,
        num: np.ndarray,
        den: np.ndarray,
        lam: float,
        floor: float,
    ):
        self.binned = binned
        self.num = num
        self.den = den
        self.lam = lam
        self.floor = floor
        self._bins = binned.n_bins
        self._size = binned.n_features * self._bins
        # Both memoized on the binned matrix, so boosting rounds sharing one
        # BinnedMatrix pay for them once per fit, not once per tree.
        self._flat_codes = binned.flat_codes()
        self.cut_valid = binned.cut_valid()

    def split_score(self, num, den):
        denominator = den + self.lam
        if self.floor > 0.0:
            denominator = np.maximum(denominator, self.floor)
        return num * num / denominator

    def histograms(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-bin (num, den, count) sums for the given rows, one bincount each."""
        flat = self._flat_codes[rows].ravel()
        reps = self.binned.n_features
        shape = (reps, self._bins)
        count = np.bincount(flat, minlength=self._size).reshape(shape)
        num = np.bincount(
            flat, weights=np.repeat(self.num[rows], reps), minlength=self._size
        ).reshape(shape)
        den = np.bincount(
            flat, weights=np.repeat(self.den[rows], reps), minlength=self._size
        ).reshape(shape)
        return num, den, count

    def partition(self, rows: np.ndarray, hist, feature: int, cut_index: int):
        """Split rows at a cut; the bigger child's histogram comes by subtraction."""
        mask = self.binned.codes[rows, feature] <= cut_index
        left_rows = rows[mask]
        right_rows = rows[~mask]
        if len(left_rows) <= len(right_rows):
            left_hist = self.histograms(left_rows)
            right_hist = tuple(parent - child for parent, child in zip(hist, left_hist))
        else:
            right_hist = self.histograms(right_rows)
            left_hist = tuple(parent - child for parent, child in zip(hist, right_hist))
        return left_rows, right_rows, left_hist, right_hist


class DecisionTreeRegressor(Estimator):
    """CART regression tree with histogram (default) or exact splits.

    A histogram fit additionally exposes ``training_predictions_`` — the leaf
    value of every training row, assigned during growth — so boosting loops
    can skip re-routing the training matrix after each round (bit-identical
    to ``predict`` on the training data by construction).
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 8,
        min_samples_leaf: int = 3,
        max_features: Optional[float] = None,
        min_impurity_decrease: float = 1e-9,
        splitter: str = "hist",
        max_bins: Optional[int] = None,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.splitter = splitter
        self.max_bins = max_bins
        self.seed = seed

    # -- public ---------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        binned: Optional[BinnedMatrix] = None,
    ) -> "DecisionTreeRegressor":
        X = as_2d_array(features)
        y = as_1d_array(targets)
        if len(X) != len(y):
            raise ValueError("features and targets must have the same number of rows")
        if len(X) == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        weights = (
            np.ones(len(y)) if sample_weight is None else as_1d_array(sample_weight)
        )
        self._rng_ = np.random.default_rng(self.seed)
        self.n_features_ = X.shape[1]
        if self.splitter == "hist":
            binned = self._check_binned(X, binned)
            context = _HistogramContext(binned, num=weights * y, den=weights, lam=0.0, floor=1e-12)
            rows = np.arange(len(y))
            self._training_pred_ = np.empty(len(y))
            self.root_ = self._grow_hist(context, y, weights, rows, context.histograms(rows), 0)
            self.training_predictions_ = self._training_pred_
        elif self.splitter == "exact":
            self.root_ = self._build(X, y, weights, depth=0)
        else:
            raise ValueError(f"splitter must be one of {SPLITTERS}, got {self.splitter!r}")
        self.flat_ = FlatTree.from_node(self.root_)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Leaf value of every row, routed by a one-tree :class:`PackedForest`.

        The forest is packed per call (nothing cached on a shared model):
        boosters predict through their own packed forest, so a lone tree's
        predict is rare.
        """
        self._check_fitted("flat_")
        X = as_2d_array(features)
        out = np.empty(len(X))
        for rows, values in PackedForest.pack([self.flat_]).leaf_values(X):
            out[rows] = values[0]
        return out

    def predict_recursive(self, features: np.ndarray) -> np.ndarray:
        """Reference per-row recursive predict (equivalence testing only)."""
        self._check_fitted("root_")
        X = as_2d_array(features)
        out = np.empty(len(X))
        for i, row in enumerate(X):
            out[i] = self._predict_row(row)
        return out

    def depth(self) -> int:
        """Depth of the fitted tree (a single leaf has depth 0)."""
        self._check_fitted("root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        self._check_fitted("root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)

    # -- serialization ----------------------------------------------------------

    def _fitted_state(self) -> dict:
        """Flat arrays + feature count; ``root_`` is rebuilt on restore."""
        self._check_fitted("flat_")
        return {"flat": self.flat_.to_state(), "n_features": int(self.n_features_)}

    def _restore_fitted(self, fitted) -> None:
        self.flat_ = FlatTree.from_state(fitted["flat"])
        self.root_ = self.flat_.to_node()
        self.n_features_ = int(fitted["n_features"])

    # -- internals --------------------------------------------------------------

    def _check_binned(self, X: np.ndarray, binned: Optional[BinnedMatrix]) -> BinnedMatrix:
        if binned is None:
            return bin_feature_matrix(X, self.max_bins)
        if binned.codes.shape != X.shape:
            raise ValueError("pre-binned matrix does not match the feature matrix shape")
        return binned

    def _predict_row(self, row: np.ndarray) -> float:
        node = self.root_
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def _leaf_value(self, y: np.ndarray, weights: np.ndarray) -> float:
        total = weights.sum()
        if total <= 0:
            return float(y.mean()) if len(y) else 0.0
        return float(np.dot(y, weights) / total)

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None:
            return np.arange(self.n_features_)
        count = max(1, int(round(self.max_features * self.n_features_)))
        return self._rng_.choice(self.n_features_, size=count, replace=False)

    # -- histogram splitter ------------------------------------------------------

    def _grow_hist(
        self,
        context: _HistogramContext,
        y: np.ndarray,
        weights: np.ndarray,
        rows: np.ndarray,
        hist,
        depth: int,
    ) -> _Node:
        node_y = y[rows]
        value = self._leaf_value(node_y, weights[rows])
        if (
            depth >= self.max_depth
            or len(rows) < self.min_samples_split
            or np.all(node_y == node_y[0])
        ):
            self._training_pred_[rows] = value
            return _Node(value=value)
        split = self._best_hist_split(context, hist)
        if split is None:
            self._training_pred_[rows] = value
            return _Node(value=value)
        feature, cut_index, threshold = split
        left_rows, right_rows, left_hist, right_hist = context.partition(
            rows, hist, feature, cut_index
        )
        left = self._grow_hist(context, y, weights, left_rows, left_hist, depth + 1)
        right = self._grow_hist(context, y, weights, right_rows, right_hist, depth + 1)
        return _Node(value=value, feature=feature, threshold=threshold, left=left, right=right)

    def _best_hist_split(
        self, context: _HistogramContext, hist
    ) -> Optional[Tuple[int, int, float]]:
        """Best (feature, cut index, threshold) from the node's histograms.

        All candidate features are scored in one vectorized pass over the
        (features, bins) histogram arrays; tie-breaking matches the exact
        splitter (first feature in candidate order, first cut position).
        """
        num_h, den_h, cnt_h = hist
        candidates = self._candidate_features()
        min_leaf = max(self.min_samples_leaf, 1)

        left_num = np.cumsum(num_h[candidates], axis=1)
        left_den = np.cumsum(den_h[candidates], axis=1)
        left_cnt = np.cumsum(cnt_h[candidates], axis=1)
        total_num = left_num[:, -1]
        total_den = left_den[:, -1]
        total_cnt = left_cnt[:, -1]

        valid = (
            context.cut_valid[candidates]
            & (left_cnt >= min_leaf)
            & (total_cnt[:, None] - left_cnt >= min_leaf)
        )
        if not valid.any():
            return None

        with np.errstate(divide="ignore", invalid="ignore"):
            score = context.split_score(left_num, left_den) + context.split_score(
                total_num[:, None] - left_num, total_den[:, None] - left_den
            )
            gain = np.where(
                valid, score - context.split_score(total_num, total_den)[:, None], -np.inf
            )

        best_cut = np.argmax(gain, axis=1)
        per_feature = np.take_along_axis(gain, best_cut[:, None], axis=1)[:, 0]
        position = int(np.argmax(per_feature))
        if not per_feature[position] > self.min_impurity_decrease:
            return None
        feature = int(candidates[position])
        cut_index = int(best_cut[position])
        if fault_active("gbm.hist_threshold") and cut_index + 1 < len(
            context.binned.cuts[feature]
        ):
            # Debug fault point: shifting the chosen cut one bin over
            # re-partitions the node's rows, so the hist splitter diverges
            # from the exact splitter under the fuzz campaign's
            # hist-vs-exact oracle (see repro.faults).
            cut_index += 1
        return feature, cut_index, float(context.binned.cuts[feature][cut_index])

    # -- exact splitter ----------------------------------------------------------

    def _build(self, X: np.ndarray, y: np.ndarray, weights: np.ndarray, depth: int) -> _Node:
        value = self._leaf_value(y, weights)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or np.all(y == y[0])
        ):
            return _Node(value=value)

        split = self._best_split(X, y, weights)
        if split is None:
            return _Node(value=value)
        feature, threshold = split
        mask = X[:, feature] <= threshold
        left = self._build(X[mask], y[mask], weights[mask], depth + 1)
        right = self._build(X[~mask], y[~mask], weights[~mask], depth + 1)
        return _Node(value=value, feature=feature, threshold=threshold, left=left, right=right)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, weights: np.ndarray
    ) -> Optional[Tuple[int, float]]:
        """Return (feature, threshold) minimizing weighted squared error."""
        best_gain = self.min_impurity_decrease
        best: Optional[Tuple[int, float]] = None
        total_weight = weights.sum()
        total_sum = np.dot(y, weights)
        parent_score = total_sum * total_sum / total_weight if total_weight > 0 else 0.0

        for feature in self._candidate_features():
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_x = column[order]
            sorted_y = y[order]
            sorted_w = weights[order]

            cum_weight = np.cumsum(sorted_w)
            cum_sum = np.cumsum(sorted_y * sorted_w)

            # Candidate split positions: between distinct consecutive values.
            distinct = np.nonzero(np.diff(sorted_x) > 0)[0]
            if len(distinct) == 0:
                continue
            left_weight = cum_weight[distinct]
            left_sum = cum_sum[distinct]
            right_weight = total_weight - left_weight
            right_sum = total_sum - left_sum

            counts_left = distinct + 1
            counts_right = len(y) - counts_left
            valid = (counts_left >= self.min_samples_leaf) & (
                counts_right >= self.min_samples_leaf
            )
            if not np.any(valid):
                continue

            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.where(
                    valid,
                    left_sum**2 / np.maximum(left_weight, 1e-12)
                    + right_sum**2 / np.maximum(right_weight, 1e-12),
                    -np.inf,
                )
            gain = score - parent_score
            index = int(np.argmax(gain))
            if gain[index] > best_gain:
                best_gain = float(gain[index])
                position = distinct[index]
                threshold = 0.5 * (sorted_x[position] + sorted_x[position + 1])
                best = (int(feature), float(threshold))
        return best


class NewtonTreeRegressor(DecisionTreeRegressor):
    """Tree fitted on gradients/hessians with Newton-step leaf values.

    Used by :class:`repro.ml.gbm.GradientBoostingRegressor` in XGBoost mode:
    splits maximize the standard second-order gain
    ``G_l^2/(H_l + lambda) + G_r^2/(H_r + lambda) - G^2/(H + lambda)`` and the
    leaf value is ``-G/(H + lambda)``.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 8,
        min_samples_leaf: int = 3,
        max_features: Optional[float] = None,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-9,
        splitter: str = "hist",
        max_bins: Optional[int] = None,
        seed: int = 0,
    ):
        super().__init__(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            min_impurity_decrease=min_gain,
            splitter=splitter,
            max_bins=max_bins,
            seed=seed,
        )
        self.reg_lambda = reg_lambda

    def _state_params(self) -> dict:
        # The constructor spells the gain threshold ``min_gain`` while the
        # attribute keeps the base class name, so map it back for from_state.
        params = super()._state_params()
        params["min_gain"] = params.pop("min_impurity_decrease")
        return params

    def fit_gradients(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        binned: Optional[BinnedMatrix] = None,
    ) -> "NewtonTreeRegressor":
        """Fit the tree from per-sample gradients and hessians."""
        X = as_2d_array(features)
        grad = as_1d_array(gradients)
        hess = as_1d_array(hessians)
        if not (len(X) == len(grad) == len(hess)):
            raise ValueError("features, gradients and hessians must align")
        self._rng_ = np.random.default_rng(self.seed)
        self.n_features_ = X.shape[1]
        if self.splitter == "hist":
            binned = self._check_binned(X, binned)
            context = _HistogramContext(
                binned, num=grad, den=hess, lam=self.reg_lambda, floor=0.0
            )
            rows = np.arange(len(grad))
            self._training_pred_ = np.empty(len(grad))
            self.root_ = self._grow_hist_newton(
                context, grad, hess, rows, context.histograms(rows), 0
            )
            self.training_predictions_ = self._training_pred_
        elif self.splitter == "exact":
            self.root_ = self._build_newton(X, grad, hess, depth=0)
        else:
            raise ValueError(f"splitter must be one of {SPLITTERS}, got {self.splitter!r}")
        self.flat_ = FlatTree.from_node(self.root_)
        return self

    def fit(self, features, targets, sample_weight=None, binned=None):  # type: ignore[override]
        """Plain regression fit: equivalent to one Newton step on squared loss."""
        y = as_1d_array(targets)
        gradients = -y
        hessians = np.ones_like(y)
        return self.fit_gradients(features, gradients, hessians, binned=binned)

    # -- internals --------------------------------------------------------------

    def _newton_value(self, grad: np.ndarray, hess: np.ndarray) -> float:
        return float(-grad.sum() / (hess.sum() + self.reg_lambda))

    def _grow_hist_newton(
        self,
        context: _HistogramContext,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        hist,
        depth: int,
    ) -> _Node:
        value = self._newton_value(grad[rows], hess[rows])
        if depth >= self.max_depth or len(rows) < self.min_samples_split:
            self._training_pred_[rows] = value
            return _Node(value=value)
        split = self._best_hist_split(context, hist)
        if split is None:
            self._training_pred_[rows] = value
            return _Node(value=value)
        feature, cut_index, threshold = split
        left_rows, right_rows, left_hist, right_hist = context.partition(
            rows, hist, feature, cut_index
        )
        left = self._grow_hist_newton(context, grad, hess, left_rows, left_hist, depth + 1)
        right = self._grow_hist_newton(context, grad, hess, right_rows, right_hist, depth + 1)
        return _Node(value=value, feature=feature, threshold=threshold, left=left, right=right)

    def _build_newton(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray, depth: int
    ) -> _Node:
        value = self._newton_value(grad, hess)
        if depth >= self.max_depth or len(grad) < self.min_samples_split:
            return _Node(value=value)
        split = self._best_newton_split(X, grad, hess)
        if split is None:
            return _Node(value=value)
        feature, threshold = split
        mask = X[:, feature] <= threshold
        left = self._build_newton(X[mask], grad[mask], hess[mask], depth + 1)
        right = self._build_newton(X[~mask], grad[~mask], hess[~mask], depth + 1)
        return _Node(value=value, feature=feature, threshold=threshold, left=left, right=right)

    def _best_newton_split(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> Optional[Tuple[int, float]]:
        lam = self.reg_lambda
        total_g = grad.sum()
        total_h = hess.sum()
        parent_score = total_g * total_g / (total_h + lam)
        best_gain = self.min_impurity_decrease
        best: Optional[Tuple[int, float]] = None

        for feature in self._candidate_features():
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_x = column[order]
            cum_g = np.cumsum(grad[order])
            cum_h = np.cumsum(hess[order])

            distinct = np.nonzero(np.diff(sorted_x) > 0)[0]
            if len(distinct) == 0:
                continue
            left_g = cum_g[distinct]
            left_h = cum_h[distinct]
            right_g = total_g - left_g
            right_h = total_h - left_h

            counts_left = distinct + 1
            counts_right = len(grad) - counts_left
            valid = (counts_left >= self.min_samples_leaf) & (
                counts_right >= self.min_samples_leaf
            )
            if not np.any(valid):
                continue

            score = np.where(
                valid,
                left_g**2 / (left_h + lam) + right_g**2 / (right_h + lam),
                -np.inf,
            )
            gain = score - parent_score
            index = int(np.argmax(gain))
            if gain[index] > best_gain:
                best_gain = float(gain[index])
                position = distinct[index]
                threshold = 0.5 * (sorted_x[position] + sorted_x[position + 1])
                best = (int(feature), float(threshold))
        return best
