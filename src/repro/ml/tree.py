"""Regression decision tree (CART) with variance-reduction splitting.

The tree is the building block of the random forest and gradient boosting
regressors.  It records impurity-based feature importances, which Section V-E
of the paper uses to explain which graph properties drive the partitioning
quality predictions (Table VII).
"""

from __future__ import annotations

import numbers
from typing import Optional, Sequence

import numpy as np

from .base import Regressor, check_2d, check_fitted

__all__ = ["DecisionTreeRegressor", "FlatTreeEnsemble"]


class FlatTreeEnsemble:
    """Fitted CART trees as five parallel node arrays plus one root per tree.

    This is the only form a fitted tree has: ``fit`` writes these arrays,
    ``predict`` reads them and a saved bundle stores them.  Node ``i`` sends
    a row to ``left[i]`` when ``row[feature[i]] <= threshold[i]`` and to
    ``right[i]`` otherwise; ``value[i]`` is the mean target of the training
    rows that reached it.  Leaves self-loop (``left[i] == right[i] == i``, on
    a dummy feature 0 / threshold 0.0): descending past a leaf stays on the
    leaf, so the descent needs no per-row "done" bookkeeping, and one
    level-synchronous pass advances every (tree, row) pair per numpy
    operation instead of one interpreter step per (tree, row, level).
    """

    def __init__(self, feature, threshold, left, right, value, roots,
                 max_depth: int) -> None:
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.roots = np.asarray(roots, dtype=np.intp)
        self.max_depth = max_depth

    @classmethod
    def concatenate(cls, ensembles: Sequence["FlatTreeEnsemble"]
                    ) -> "FlatTreeEnsemble":
        """One ensemble holding the trees of ``ensembles``, in order."""
        # Node indices (children, roots) move up by the nodes placed before.
        offsets = np.cumsum([0] + [len(e.feature) for e in ensembles[:-1]])

        def joined(name: str, shifted: bool) -> np.ndarray:
            return np.concatenate(
                [getattr(ensemble, name) + (offset if shifted else 0)
                 for ensemble, offset in zip(ensembles, offsets)])

        return cls(joined("feature", False), joined("threshold", False),
                   joined("left", True), joined("right", True),
                   joined("value", False), joined("roots", True),
                   max_depth=max(e.max_depth for e in ensembles))

    def __len__(self) -> int:
        """Number of trees."""
        return len(self.roots)

    def predict_per_tree(self, features: np.ndarray) -> np.ndarray:
        """Leaf predictions of every tree: shape ``(num_trees, num_rows)``.

        Level-synchronous descent: after ``max_depth`` steps every (tree,
        row) pair sits on its leaf (leaves self-loop, and their comparison
        reads the stored dummy feature 0 / threshold 0.0 whose outcome is
        irrelevant because both children are the leaf itself).
        """
        num_rows = features.shape[0]
        index = np.repeat(self.roots, num_rows)
        rows = np.tile(np.arange(num_rows), len(self.roots))
        for _ in range(self.max_depth):
            go_left = (features[rows, self.feature[index]]
                       <= self.threshold[index])
            index = np.where(go_left, self.left[index], self.right[index])
        return self.value[index].reshape(len(self.roots), num_rows)


class DecisionTreeRegressor(Regressor):
    """CART regression tree minimising mean squared error.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` grows until the other limits stop it).
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        Number of features considered per split: an int >= 1, a fraction in
        (0, 1], ``"sqrt"`` or ``None`` (all features).  Random forests use
        this for per-split feature subsampling.
    random_state:
        Seed for the feature subsampling.
    """

    def __init__(self, max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features=None, random_state: int = 0) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[FlatTreeEnsemble] = None
        self.feature_importances_: Optional[np.ndarray] = None
        self._num_features: int = 0

    # ------------------------------------------------------------------ #
    def _resolve_max_features(self, num_features: int) -> int:
        value = self.max_features
        if value is None:
            return num_features
        if value == "sqrt":
            return max(1, int(np.sqrt(num_features)))
        integral = isinstance(value, numbers.Integral)
        if integral and not isinstance(value, bool) and value >= 1:
            return min(int(value), num_features)
        if isinstance(value, numbers.Real) and not integral and 0 < value <= 1:
            return max(1, int(float(value) * num_features))
        raise ValueError(f"max_features={value!r} is not one of None, 'sqrt', "
                         "an int >= 1 or a float in (0, 1]")

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        features = check_2d(features)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets must have the same length")
        if features.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        self._num_features = features.shape[1]
        features_per_split = self._resolve_max_features(self._num_features)
        rng = np.random.default_rng(self.random_state)
        total_samples = features.shape[0]
        importances = np.zeros(self._num_features)
        feature, threshold, left, right, value = [], [], [], [], []

        def build(rows: np.ndarray, targets: np.ndarray, depth: int) -> int:
            """Append the subtree fitted to ``rows`` in preorder (a node, its
            left subtree, its right subtree) and return the depth reached."""
            node = len(feature)
            # Every node starts as a leaf: dummy feature 0 / threshold 0.0 and
            # both children itself.  A split overwrites those four fields.
            feature.append(0)
            threshold.append(0.0)
            left.append(node)
            right.append(node)
            value.append(float(targets.mean()))
            num_samples = targets.shape[0]
            if (num_samples < self.min_samples_split
                    or (self.max_depth is not None and depth >= self.max_depth)
                    or np.all(targets == targets[0])):
                return depth

            split = self._best_split(rows, targets, rng, features_per_split)
            if split is None:
                return depth
            feature[node], threshold[node], gain, left_mask = split
            importances[feature[node]] += gain * num_samples / total_samples
            left[node] = len(feature)
            left_depth = build(rows[left_mask], targets[left_mask], depth + 1)
            right[node] = len(feature)
            right_depth = build(rows[~left_mask], targets[~left_mask], depth + 1)
            return max(left_depth, right_depth)

        max_depth = build(features, targets, depth=0)
        self.tree_ = FlatTreeEnsemble(feature, threshold, left, right, value,
                                      roots=[0], max_depth=max_depth)
        total = importances.sum()
        self.feature_importances_ = (importances / total if total > 0
                                     else importances)
        return self

    # ------------------------------------------------------------------ #
    def _best_split(self, features: np.ndarray, targets: np.ndarray,
                    rng: np.random.Generator, features_per_split: int):
        """Best ``(feature, threshold, gain, left_mask)`` of a node, or ``None``.

        All candidate features are scored in one 2-D pass whose per-column
        sums run in row order.  Tie-break contract: within a column the first
        maximal position wins, across columns the first maximal candidate in
        ``rng.choice`` order; only a gain above ``1e-12`` is accepted."""
        num_samples, num_features = features.shape
        parent_impurity = targets.var()
        if parent_impurity == 0.0:
            return None
        candidate_features = (
            rng.choice(num_features, size=features_per_split, replace=False)
            if features_per_split < num_features else np.arange(num_features))

        columns = features[:, candidate_features]
        order = np.argsort(columns, axis=0, kind="stable")
        sorted_values = np.take_along_axis(columns, order, axis=0)
        sorted_targets = targets[order]
        prefix_sum = np.cumsum(sorted_targets, axis=0)
        prefix_sq = np.cumsum(sorted_targets ** 2, axis=0)
        # Candidate split positions: between distinct consecutive values.
        left_counts = np.arange(1, num_samples)[:, None]
        right_counts = num_samples - left_counts
        min_leaf = self.min_samples_leaf
        valid = ((sorted_values[1:] != sorted_values[:-1])
                 & (left_counts >= min_leaf) & (right_counts >= min_leaf))
        left_sum, left_sq = prefix_sum[:-1], prefix_sq[:-1]
        right_sum, right_sq = prefix_sum[-1] - left_sum, prefix_sq[-1] - left_sq
        left_var = left_sq / left_counts - (left_sum / left_counts) ** 2
        right_var = right_sq / right_counts - (right_sum / right_counts) ** 2
        weighted = (left_counts * left_var + right_counts * right_var) / num_samples
        gain = parent_impurity - weighted
        gain[~valid] = -np.inf
        positions = np.argmax(gain, axis=0)
        column_gain = gain[positions, np.arange(gain.shape[1])]
        accepted = np.flatnonzero(column_gain > 1e-12)  # never a NaN maximum
        if not accepted.size:
            return None
        column = accepted[np.argmax(column_gain[accepted])]
        index, feature = positions[column], int(candidate_features[column])
        threshold = 0.5 * (sorted_values[index, column]
                           + sorted_values[index + 1, column])
        return (feature, float(threshold), float(column_gain[column]),
                features[:, feature] <= threshold)

    # ------------------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_2d(features)
        check_fitted(self, "tree_")
        if features.shape[1] != self._num_features:
            raise ValueError("feature dimensionality changed between fit and "
                             "predict")
        return self.tree_.predict_per_tree(features)[0]

    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        check_fitted(self, "tree_")
        return self.tree_.max_depth
