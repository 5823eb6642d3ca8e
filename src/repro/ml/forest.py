"""Random forest regressor with impurity-based feature importances.

The RFR is the model the paper selects for the balance-metric predictions
(Table VI) and the one whose feature importances are reported in Table VII.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Regressor, check_2d, check_fitted
from .tree import DecisionTreeRegressor, FlatTreeEnsemble

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(Regressor):
    """Bagged ensemble of CART trees with per-split feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to every tree.
    max_features:
        Features considered per split (default ``"sqrt"``, the standard
        random-forest choice).
    bootstrap:
        Whether each tree is trained on a bootstrap resample.
    random_state:
        Base seed; every tree receives a distinct derived seed.
    """

    def __init__(self, n_estimators: int = 50, max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features="sqrt", bootstrap: bool = True,
                 random_state: int = 0) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: Optional[FlatTreeEnsemble] = None
        self.feature_importances_: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForestRegressor":
        features = check_2d(features)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.random_state)
        num_samples = features.shape[0]
        trees = []
        importances = np.zeros(features.shape[1])
        for index in range(self.n_estimators):
            if self.bootstrap:
                sample = rng.integers(0, num_samples, size=num_samples)
            else:
                sample = np.arange(num_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=self.random_state + index + 1,
            )
            tree.fit(features[sample], targets[sample])
            trees.append(tree.tree_)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (importances / total if total > 0
                                     else importances)
        self.trees_ = FlatTreeEnsemble.concatenate(trees)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "trees_")
        features = check_2d(features)
        per_tree = self.trees_.predict_per_tree(features)
        # Accumulate in tree order (not per_tree.sum) so predictions stay
        # bit-identical to the historical one-tree-at-a-time loop.
        predictions = np.zeros(features.shape[0])
        for tree_values in per_tree:
            predictions += tree_values
        return predictions / len(self.trees_)
