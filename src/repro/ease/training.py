"""Model-family comparison and hyper-parameter search (Section IV-C).

The paper compares six supervised model families for every prediction task
using 5-fold cross-validation on the synthetic training data, tunes each
family with a grid search, and keeps the best configuration.  This module
provides that protocol for the EASE predictors and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ml import (
    GradientBoostingRegressor,
    PolynomialRegression,
    RandomForestRegressor,
    Regressor,
    mape,
)
from ..ml.knn import KNeighborsRegressor
from ..ml.mlp import MLPRegressor
from ..ml.model_selection import GridSearchCV, cross_val_score
from ..ml.svr import SupportVectorRegressor

__all__ = ["MODEL_FAMILIES", "default_param_grids", "ModelComparison",
           "compare_model_families"]

#: The six model families of the paper (Section IV-C).
MODEL_FAMILIES: Dict[str, Callable[[], Regressor]] = {
    "polynomial_regression": lambda: PolynomialRegression(degree=2, alpha=1e-4),
    "svr": lambda: SupportVectorRegressor(C=10.0, max_iter=120),
    "knn": lambda: KNeighborsRegressor(n_neighbors=5),
    "random_forest": lambda: RandomForestRegressor(n_estimators=40, max_depth=12),
    "xgboost": lambda: GradientBoostingRegressor(n_estimators=120, max_depth=3),
    "mlp": lambda: MLPRegressor(hidden_layer_sizes=(64, 32), max_iter=120),
}


def default_param_grids() -> Dict[str, Dict[str, Sequence]]:
    """Small hyper-parameter grids per family (the paper's grid search)."""
    return {
        "polynomial_regression": {"degree": [1, 2, 3]},
        "svr": {"C": [1.0, 10.0], "epsilon": [0.05, 0.2]},
        "knn": {"n_neighbors": [3, 5, 9], "weights": ["uniform", "distance"]},
        "random_forest": {"n_estimators": [30, 60], "max_depth": [8, 14]},
        "xgboost": {"n_estimators": [80, 150], "max_depth": [3, 4],
                    "learning_rate": [0.05, 0.1]},
        "mlp": {"hidden_layer_sizes": [(32,), (64, 32)],
                "learning_rate": [1e-3, 3e-3]},
    }


@dataclass
class FamilyResult:
    """Cross-validation outcome of one model family."""

    family: str
    mean_score: float
    scores: np.ndarray
    best_params: Dict = field(default_factory=dict)


@dataclass
class ModelComparison:
    """Comparison of model families on one prediction task."""

    results: List[FamilyResult]

    def best(self) -> FamilyResult:
        """The family with the lowest mean CV error."""
        return min(self.results, key=lambda result: result.mean_score)

    def as_table(self) -> List[Tuple[str, float]]:
        """(family, mean CV MAPE) rows sorted from best to worst."""
        return sorted(((r.family, r.mean_score) for r in self.results),
                      key=lambda row: row[1])


def compare_model_families(features: np.ndarray, targets: np.ndarray,
                           families: Optional[Sequence[str]] = None,
                           n_splits: int = 5, tune: bool = False,
                           scoring=mape, random_state: int = 0
                           ) -> ModelComparison:
    """Cross-validate (optionally grid-search) the model families on a task.

    Parameters
    ----------
    features, targets:
        The training matrix of the prediction task.
    families:
        Subset of :data:`MODEL_FAMILIES` names (default: all six).
    n_splits:
        Cross-validation folds (5 in the paper).
    tune:
        If True, run the grid search per family (slower); if False, evaluate
        each family's default configuration.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).ravel()
    family_names = list(families) if families is not None else list(MODEL_FAMILIES)
    grids = default_param_grids()
    results = []
    for family in family_names:
        if family not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family {family!r}")
        estimator = MODEL_FAMILIES[family]()
        if tune:
            search = GridSearchCV(estimator, grids.get(family, {}),
                                  n_splits=n_splits, scoring=scoring,
                                  random_state=random_state)
            search.fit(features, targets)
            results.append(FamilyResult(
                family=family, mean_score=search.best_score_,
                scores=np.array([search.best_score_]),
                best_params=search.best_params_))
        else:
            scores = cross_val_score(estimator, features, targets,
                                     n_splits=n_splits, scoring=scoring,
                                     random_state=random_state)
            results.append(FamilyResult(family=family,
                                        mean_score=float(scores.mean()),
                                        scores=scores))
    return ModelComparison(results=results)
