"""Gradient-boosted regression trees (the XGBoost stand-in).

The paper uses XGBoost as one of its six model families and selects it for the
replication-factor and run-time predictions (Tables V and VI).  This
implementation is classic gradient boosting on the squared loss with
XGBoost-style shrinkage and row subsampling, which reproduces the role the
model plays in the evaluation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Regressor, check_2d, check_fitted
from .tree import DecisionTreeRegressor, FlatTreeEnsemble

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor(Regressor):
    """Gradient boosting with CART base learners.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth:
        Depth of the base trees (small trees, as in XGBoost defaults).
    subsample:
        Fraction of rows sampled (without replacement) per round.
    min_samples_leaf:
        Minimum samples per leaf of the base trees.
    random_state:
        Base seed for subsampling and tree feature sampling.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, subsample: float = 1.0,
                 min_samples_leaf: int = 1, random_state: int = 0) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.trees_: Optional[FlatTreeEnsemble] = None
        self.initial_prediction_: float = 0.0
        self.feature_importances_: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostingRegressor":
        features = check_2d(features)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.random_state)
        num_samples = features.shape[0]
        self.initial_prediction_ = float(targets.mean())
        predictions = np.full(num_samples, self.initial_prediction_)
        trees = []
        importances = np.zeros(features.shape[1])

        for index in range(self.n_estimators):
            residuals = targets - predictions
            if self.subsample < 1.0:
                sample_size = max(1, int(self.subsample * num_samples))
                sample = rng.choice(num_samples, size=sample_size, replace=False)
            else:
                sample = np.arange(num_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=self.random_state + index + 1,
            )
            tree.fit(features[sample], residuals[sample])
            trees.append(tree.tree_)
            importances += tree.feature_importances_
            predictions += self.learning_rate * tree.predict(features)

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
        predictions = np.full(features.shape[0], self.initial_prediction_)
        for tree_values in per_tree:
            predictions += self.learning_rate * tree_values
        return predictions
