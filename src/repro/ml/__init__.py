"""From-scratch machine-learning library used by the EASE predictors.

The package exports the families the predictors train (polynomial and
ridge regression, decision tree, random forest, gradient boosting), the
preprocessing steps (z-score standardisation, one-hot encoding) and the
evaluation metrics (RMSE, MAPE).  The other three families of the paper's
Section IV-C comparison (``svr``, ``knn``, ``mlp``) and its protocol
(``model_selection``: K-fold cross-validation, grid search) are imported by
module path, only by :mod:`repro.ease.training`, its tests and
``benchmarks/reproduce.py``, so serving and profiling never load them.
"""

from .base import Regressor, clone
from .metrics import mae, mape, r2_score, rmse
from .preprocessing import OneHotEncoder, PolynomialFeatures, StandardScaler
from .linear import LinearRegression, PolynomialRegression, RidgeRegression
from .tree import DecisionTreeRegressor
from .forest import RandomForestRegressor
from .boosting import GradientBoostingRegressor

__all__ = [
    "Regressor",
    "clone",
    "mae",
    "mape",
    "r2_score",
    "rmse",
    "OneHotEncoder",
    "PolynomialFeatures",
    "StandardScaler",
    "LinearRegression",
    "PolynomialRegression",
    "RidgeRegression",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "GradientBoostingRegressor",
]
