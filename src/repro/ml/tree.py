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

A fitted tree exists in one form only: parallel numpy arrays (feature /
threshold / left / right / value, :class:`FlatTree`) that growth appends to
directly in depth-first pre-order, and that a restored model carries
verbatim.  One grower serves both splitters and both tree flavours: leaf
values are plain weighted means (:class:`DecisionTreeRegressor`) or Newton
steps from per-sample gradients/hessians (:class:`NewtonTreeRegressor`,
XGBoost-style boosting), and only the per-node statistics differ between
them.  The trees of a model are packed into one node array
(:class:`PackedForest`) that routes every (tree, row) pair level by level
over whole matrices; ``predict_recursive`` walks the arrays row by row as
the reference the fuzz oracles compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

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
class FlatTree:
    """A fitted tree as parallel node arrays, the only form a fitted tree has.

    Nodes are stored in depth-first pre-order (node 0 is the root, a node's
    left subtree follows it directly).  ``feature[i] == -1`` marks node ``i``
    as a leaf; interior nodes route rows with ``x[feature] <= threshold`` to
    ``left`` and the rest to ``right``.  Every node carries the value a leaf
    there would predict.
    """

    feature: np.ndarray  # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int32
    right: np.ndarray  # (n_nodes,) int32
    value: np.ndarray  # (n_nodes,) float64

    @property
    def n_nodes(self) -> int:
        return len(self.value)

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
# Split finding
# ---------------------------------------------------------------------------


def _split_score(num, den, lam: float, floor: float):
    """One side's share of a split gain: ``num^2 / (den + lam)``.

    A positive ``floor`` bounds the denominator from below, the variance
    tree's guard against a zero-weight side.
    """
    denominator = den + lam
    if floor > 0.0:
        denominator = np.maximum(denominator, floor)
    return num * num / denominator


class _HistogramContext:
    """Per-fit state of the histogram splitter.

    The split gain for both tree flavours has the common form
    ``num^2 / (den + lam)`` (:func:`_split_score`): the variance splitter uses
    ``num = w*y`` and ``den = w`` (with a denominator floor), the Newton
    splitter ``num = g`` and ``den = h`` with the L2 regularizer as ``lam``.
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
        return _split_score(num, den, self.lam, self.floor)

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

    def child_histograms(self, hist, left_rows: np.ndarray, right_rows: np.ndarray):
        """Both children's histograms; the bigger child's comes by subtraction."""
        if len(left_rows) <= len(right_rows):
            left_hist = self.histograms(left_rows)
            right_hist = tuple(parent - child for parent, child in zip(hist, left_hist))
        else:
            right_hist = self.histograms(right_rows)
            left_hist = tuple(parent - child for parent, child in zip(hist, right_hist))
        return left_hist, right_hist


#: What a tree flavour reports about the rows reaching a node: the leaf value,
#: the ``(sum num, sum den)`` totals and whether growth stops on purity.
_NodeStats = Callable[[np.ndarray], Tuple[float, Tuple[float, float], bool]]

#: The :class:`FlatTree` arrays, in the order a node record lists them.
_NODE_FIELDS = ("feature", "threshold", "left", "right", "value")


class DecisionTreeRegressor(Estimator):
    """CART regression tree with histogram (default) or exact splits.

    Growth appends nodes straight into the :class:`FlatTree` arrays
    (``flat_``), in pre-order, through one grower shared by both splitters
    and by :class:`NewtonTreeRegressor`.  A fit also exposes
    ``training_predictions_`` -- the leaf value of every training row,
    assigned during growth -- so boosting loops can skip re-routing the
    training matrix after each round (bit-identical to ``predict`` on the
    training data by construction).
    """

    #: Denominator floor of the split score: a zero-weight side scores 0.
    _score_floor = 1e-12

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

        def node(rows: np.ndarray):
            node_y, node_w = y[rows], weights[rows]
            totals = np.dot(node_y, node_w), node_w.sum()
            if totals[1] > 0:
                value = float(totals[0] / totals[1])
            else:
                value = float(node_y.mean()) if len(node_y) else 0.0
            return value, totals, bool(np.all(node_y == node_y[:1]))

        return self._fit(X, weights * y, weights, 0.0, binned, node)

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
        """Reference predict: each row walks ``flat_`` one node at a time.

        Kept for equivalence testing only; it shares nothing with
        :class:`PackedForest`'s vectorized level-by-level routing.
        """
        self._check_fitted("flat_")
        flat = self.flat_
        feature, threshold = flat.feature.tolist(), flat.threshold.tolist()
        left, right, value = flat.left.tolist(), flat.right.tolist(), flat.value.tolist()
        X = as_2d_array(features)
        out = np.empty(len(X))
        for i, row in enumerate(X.tolist()):
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            out[i] = value[node]
        return out

    def depth(self) -> int:
        """Depth of the fitted tree (a single leaf has depth 0)."""
        self._check_fitted("flat_")
        return PackedForest.pack([self.flat_]).depth

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        self._check_fitted("flat_")
        return int(np.count_nonzero(self.flat_.feature < 0))

    # -- serialization ----------------------------------------------------------

    def _fitted_state(self) -> dict:
        """The flat arrays + feature count: the whole fitted tree."""
        self._check_fitted("flat_")
        return {"flat": self.flat_.to_state(), "n_features": int(self.n_features_)}

    def _restore_fitted(self, fitted) -> None:
        self.flat_ = FlatTree.from_state(fitted["flat"])
        self.n_features_ = int(fitted["n_features"])

    # -- growth -----------------------------------------------------------------

    def _fit(
        self,
        X: np.ndarray,
        num: np.ndarray,
        den: np.ndarray,
        lam: float,
        binned: Optional[BinnedMatrix],
        node: _NodeStats,
    ) -> "DecisionTreeRegressor":
        """Grow ``flat_`` from per-row split statistics, for both flavours.

        A side of a split scores ``num^2 / (den + lam)`` under either
        splitter; ``node`` supplies the flavour's leaf value, the node totals
        the exact splitter scores the parent and right side with, and the
        purity stop.  Nodes are appended in depth-first pre-order.
        """
        if self.splitter not in SPLITTERS:
            raise ValueError(f"splitter must be one of {SPLITTERS}, got {self.splitter!r}")
        self._rng_ = np.random.default_rng(self.seed)
        self.n_features_ = X.shape[1]
        context = None
        if self.splitter == "hist":
            context = _HistogramContext(
                self._check_binned(X, binned), num, den, lam, self._score_floor
            )
        nodes: List[list] = []
        training = np.empty(len(X))

        def grow(rows: np.ndarray, hist, depth: int) -> None:
            value, totals, pure = node(rows)
            record = [-1, 0.0, -1, -1, value]
            nodes.append(record)
            split = None
            if depth < self.max_depth and len(rows) >= self.min_samples_split and not pure:
                if context is None:
                    split = self._best_exact_split(X, rows, num, den, lam, totals)
                else:
                    split = self._best_hist_split(context, rows, hist)
            if split is None:
                training[rows] = value
                return
            feature, threshold, goes_left = split
            record[0], record[1] = feature, threshold
            left_rows, right_rows = rows[goes_left], rows[~goes_left]
            left_hist = right_hist = None
            if context is not None:
                left_hist, right_hist = context.child_histograms(hist, left_rows, right_rows)
            record[2] = len(nodes)
            grow(left_rows, left_hist, depth + 1)
            record[3] = len(nodes)
            grow(right_rows, right_hist, depth + 1)

        rows = np.arange(len(X))
        grow(rows, None if context is None else context.histograms(rows), 0)
        self.flat_ = FlatTree.from_state(dict(zip(_NODE_FIELDS, zip(*nodes))))
        self.training_predictions_ = training
        return self

    def _check_binned(self, X: np.ndarray, binned: Optional[BinnedMatrix]) -> BinnedMatrix:
        if binned is None:
            return bin_feature_matrix(X, self.max_bins)
        if binned.codes.shape != X.shape:
            raise ValueError("pre-binned matrix does not match the feature matrix shape")
        return binned

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None:
            return np.arange(self.n_features_)
        count = max(1, int(round(self.max_features * self.n_features_)))
        return self._rng_.choice(self.n_features_, size=count, replace=False)

    def _best_hist_split(
        self, context: _HistogramContext, rows: np.ndarray, hist
    ) -> Optional[Tuple[int, float, np.ndarray]]:
        """Best (feature, threshold, goes-left mask) from the node's histograms.

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
        threshold = float(context.binned.cuts[feature][cut_index])
        return feature, threshold, context.binned.codes[rows, feature] <= cut_index

    def _best_exact_split(
        self,
        X: np.ndarray,
        rows: np.ndarray,
        num: np.ndarray,
        den: np.ndarray,
        lam: float,
        totals: Tuple[float, float],
    ) -> Optional[Tuple[int, float, np.ndarray]]:
        """Best (feature, threshold, goes-left mask) over sorted feature columns.

        Candidate thresholds sit midway between consecutive distinct values
        of the node's rows; the node totals give the parent score and, minus
        the left prefix sums, the right side.
        """
        floor = self._score_floor
        total_num, total_den = totals
        parent_score = _split_score(total_num, total_den, lam, floor)
        node_num, node_den = num[rows], den[rows]
        best_gain = self.min_impurity_decrease
        best: Optional[Tuple[int, float]] = None

        for feature in self._candidate_features():
            column = X[rows, feature]
            order = np.argsort(column, kind="stable")
            sorted_x = column[order]

            # Candidate split positions: between distinct consecutive values.
            distinct = np.nonzero(np.diff(sorted_x) > 0)[0]
            if len(distinct) == 0:
                continue
            counts_left = distinct + 1
            valid = (counts_left >= self.min_samples_leaf) & (
                len(rows) - counts_left >= self.min_samples_leaf
            )
            if not np.any(valid):
                continue
            left_num = np.cumsum(node_num[order])[distinct]
            left_den = np.cumsum(node_den[order])[distinct]

            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.where(
                    valid,
                    _split_score(left_num, left_den, lam, floor)
                    + _split_score(total_num - left_num, total_den - left_den, lam, floor),
                    -np.inf,
                )
            gain = score - parent_score
            index = int(np.argmax(gain))
            if gain[index] > best_gain:
                best_gain = float(gain[index])
                position = distinct[index]
                threshold = 0.5 * (sorted_x[position] + sorted_x[position + 1])
                best = (int(feature), float(threshold))
        if best is None:
            return None
        feature, threshold = best
        return feature, threshold, X[rows, feature] <= threshold


class NewtonTreeRegressor(DecisionTreeRegressor):
    """Tree fitted on gradients/hessians with Newton-step leaf values.

    Used by :class:`repro.ml.gbm.GradientBoostingRegressor` in XGBoost mode:
    splits maximize the standard second-order gain
    ``G_l^2/(H_l + lambda) + G_r^2/(H_r + lambda) - G^2/(H + lambda)`` and the
    leaf value is ``-G/(H + lambda)``.
    """

    _score_floor = 0.0

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
        lam = self.reg_lambda

        def node(rows: np.ndarray):
            totals = grad[rows].sum(), hess[rows].sum()
            return float(-totals[0] / (totals[1] + lam)), totals, False

        return self._fit(X, grad, hess, lam, binned, node)

    def fit(self, features, targets, sample_weight=None, binned=None):  # type: ignore[override]
        """(Weighted) regression fit: one Newton step on weighted squared loss.

        The loss ``0.5 * w * (p - y)^2`` at ``p = 0`` has gradient ``-w*y``
        and hessian ``w``, so a leaf predicts ``sum(w*y) / (sum(w) + lambda)``.
        """
        y = as_1d_array(targets)
        weights = np.ones(len(y)) if sample_weight is None else as_1d_array(sample_weight)
        return self.fit_gradients(features, -weights * y, weights, binned=binned)
