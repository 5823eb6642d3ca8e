"""The parent's CART builder: a graph of ``_Node`` objects, flattened afterwards.

``ReferenceTreeRegressor`` is ``repro.ml.tree.DecisionTreeRegressor`` as it
stood before a fitted tree became its arrays, kept literally: ``_build``
returns ``_Node`` objects, ``_best_split`` draws its candidate features from
an estimator-held generator, and :func:`flatten` (the old
``FlatTreeEnsemble.__init__``) converts the node graph by a stack walk.  The
only edits are the class name, ``flatten`` returning the production
``FlatTreeEnsemble`` (so an ensemble can concatenate and descend it) and the
``tree_`` property, which exposes the flattened result under the production
name.  ``depth()`` is still the recursive node walk, independent of the
``max_depth`` the flat form carries.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.ml.base import Regressor, check_2d, check_fitted
from repro.ml.tree import FlatTreeEnsemble


@dataclass
class _Node:
    """One node of the fitted tree."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def flatten(roots: Sequence["_Node"]) -> FlatTreeEnsemble:
    """The parent's ``FlatTreeEnsemble.__init__``: a stack walk over node
    objects that emits the flat arrays in preorder."""
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    value: List[float] = []
    tree_roots: List[int] = []
    max_depth = 0
    for root in roots:
        tree_roots.append(len(feature))
        stack = [(root, -1, False, 0)]
        while stack:
            node, parent, is_left, depth = stack.pop()
            index = len(feature)
            if parent >= 0:
                (left if is_left else right)[parent] = index
            feature.append(0 if node.is_leaf else node.feature)
            threshold.append(node.threshold)
            value.append(node.prediction)
            # Leaves self-loop: descending past a leaf stays on the leaf,
            # so the descent needs no per-row "done" bookkeeping.
            left.append(index)
            right.append(index)
            if not node.is_leaf:
                max_depth = max(max_depth, depth + 1)
                stack.append((node.right, index, False, depth + 1))
                stack.append((node.left, index, True, depth + 1))
    return FlatTreeEnsemble(feature, threshold, left, right, value,
                            roots=tree_roots, max_depth=max_depth)


class ReferenceTreeRegressor(Regressor):
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
        Number of features considered per split: an int, a float fraction,
        ``"sqrt"`` or ``None`` (all features).  Random forests use this for
        per-split feature subsampling.
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
        self._root: Optional[_Node] = None
        self.feature_importances_: Optional[np.ndarray] = None
        self._num_features: int = 0

    # ------------------------------------------------------------------ #
    def _resolve_max_features(self, num_features: int) -> int:
        if self.max_features is None:
            return num_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(num_features)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * num_features))
        return max(1, min(int(self.max_features), num_features))

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ReferenceTreeRegressor":
        features = check_2d(features)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets must have the same length")
        if features.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        self._num_features = features.shape[1]
        self._importance_accumulator = np.zeros(self._num_features)
        self._rng = np.random.default_rng(self.random_state)
        self._features_per_split = self._resolve_max_features(self._num_features)
        self._total_samples = features.shape[0]
        self._root = self._build(features, targets, depth=0)
        self._flat = None
        total = self._importance_accumulator.sum()
        if total > 0:
            self.feature_importances_ = self._importance_accumulator / total
        else:
            self.feature_importances_ = np.zeros(self._num_features)
        return self

    # ------------------------------------------------------------------ #
    def _build(self, features: np.ndarray, targets: np.ndarray,
               depth: int) -> _Node:
        node = _Node(prediction=float(targets.mean()))
        num_samples = targets.shape[0]
        if (num_samples < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.all(targets == targets[0])):
            return node

        split = self._best_split(features, targets)
        if split is None:
            return node
        feature, threshold, gain, left_mask = split
        self._importance_accumulator[feature] += gain * num_samples / self._total_samples
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(features[left_mask], targets[left_mask], depth + 1)
        node.right = self._build(features[~left_mask], targets[~left_mask], depth + 1)
        return node

    def _best_split(self, features: np.ndarray, targets: np.ndarray):
        num_samples, num_features = features.shape
        parent_impurity = targets.var()
        if parent_impurity == 0.0:
            return None

        if self._features_per_split < num_features:
            candidate_features = self._rng.choice(num_features,
                                                  size=self._features_per_split,
                                                  replace=False)
        else:
            candidate_features = np.arange(num_features)

        best = None
        best_gain = 1e-12
        min_leaf = self.min_samples_leaf
        for feature in candidate_features:
            order = np.argsort(features[:, feature], kind="stable")
            sorted_values = features[order, feature]
            sorted_targets = targets[order]

            # Candidate split positions: between distinct consecutive values.
            prefix_sum = np.cumsum(sorted_targets)
            prefix_sq = np.cumsum(sorted_targets ** 2)
            total_sum = prefix_sum[-1]
            total_sq = prefix_sq[-1]

            left_counts = np.arange(1, num_samples)
            right_counts = num_samples - left_counts
            valid = ((sorted_values[1:] != sorted_values[:-1])
                     & (left_counts >= min_leaf) & (right_counts >= min_leaf))
            if not valid.any():
                continue

            left_sum = prefix_sum[:-1]
            left_sq = prefix_sq[:-1]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            left_var = left_sq / left_counts - (left_sum / left_counts) ** 2
            right_var = right_sq / right_counts - (right_sum / right_counts) ** 2
            weighted = (left_counts * left_var + right_counts * right_var) / num_samples
            gain = parent_impurity - weighted
            gain[~valid] = -np.inf

            index = int(np.argmax(gain))
            if gain[index] > best_gain:
                best_gain = float(gain[index])
                threshold = 0.5 * (sorted_values[index] + sorted_values[index + 1])
                left_mask = features[:, feature] <= threshold
                best = (int(feature), float(threshold), best_gain, left_mask)
        return best

    # ------------------------------------------------------------------ #
    def flattened(self) -> FlatTreeEnsemble:
        """Flat-array view of this tree (built lazily, cached until refit)."""
        check_fitted(self, "_root")
        flat = getattr(self, "_flat", None)
        if flat is None:
            flat = self._flat = flatten([self._root])
        return flat

    @property
    def tree_(self) -> FlatTreeEnsemble:
        """What production calls ``tree_``, derived the parent's way."""
        return self.flattened()

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_2d(features)
        flat = self.flattened()
        if features.shape[1] != self._num_features:
            raise ValueError("feature dimensionality changed between fit and "
                             "predict")
        return flat.predict_per_tree(features)[0]

    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        check_fitted(self, "_root")

        def _depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)
