"""Linear, ridge and polynomial regression."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Regressor, check_2d, check_fitted
from .preprocessing import PolynomialFeatures, StandardScaler

__all__ = ["LinearRegression", "RidgeRegression", "PolynomialRegression"]


def _affine(features: np.ndarray, coefficients: np.ndarray,
            intercept: float) -> np.ndarray:
    """``features @ coefficients + intercept`` summed row by row: a
    matrix-vector product sums in an order set by the whole matrix's shape,
    so a row's last bits would depend on the other rows of its batch."""
    return ((np.ascontiguousarray(features) * coefficients).sum(axis=1)
            + intercept)


class LinearRegression(Regressor):
    """Ordinary least squares via the pseudo-inverse (numerically stable)."""

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coefficients_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "LinearRegression":
        features = check_2d(features)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        design = (np.column_stack([np.ones(features.shape[0]), features])
                  if self.fit_intercept else features)
        solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
        if self.fit_intercept:
            self.intercept_ = float(solution[0])
            self.coefficients_ = solution[1:]
        else:
            self.intercept_ = 0.0
            self.coefficients_ = solution
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "coefficients_")
        return _affine(check_2d(features), self.coefficients_, self.intercept_)


class RidgeRegression(Regressor):
    """L2-regularised least squares (closed form)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True) -> None:
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coefficients_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RidgeRegression":
        features = check_2d(features)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if self.fit_intercept:
            feature_mean = features.mean(axis=0)
            target_mean = targets.mean()
            centered_features = features - feature_mean
            centered_targets = targets - target_mean
        else:
            feature_mean = np.zeros(features.shape[1])
            target_mean = 0.0
            centered_features = features
            centered_targets = targets
        gram = centered_features.T @ centered_features
        regularised = gram + self.alpha * np.eye(features.shape[1])
        self.coefficients_ = np.linalg.solve(
            regularised, centered_features.T @ centered_targets)
        self.intercept_ = float(target_mean - feature_mean @ self.coefficients_)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "coefficients_")
        return _affine(check_2d(features), self.coefficients_, self.intercept_)


class PolynomialRegression(Regressor):
    """Polynomial regression: polynomial expansion + ridge solve.

    This is the "Polynomial Regression" model of the paper's model comparison
    (Section IV-C); the small ridge term keeps the expanded design matrix
    well-conditioned.
    """

    def __init__(self, degree: int = 2, alpha: float = 1e-6) -> None:
        self.degree = degree
        self.alpha = alpha
        self._expansion: Optional[PolynomialFeatures] = None
        self._scaler: Optional[StandardScaler] = None
        self._model: Optional[RidgeRegression] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "PolynomialRegression":
        features = check_2d(features)
        self._scaler = StandardScaler().fit(features)
        scaled = self._scaler.transform(features)
        self._expansion = PolynomialFeatures(degree=self.degree,
                                             include_bias=False).fit(scaled)
        expanded = self._expansion.transform(scaled)
        self._model = RidgeRegression(alpha=self.alpha).fit(expanded, targets)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "_model")
        scaled = self._scaler.transform(check_2d(features))
        return self._model.predict(self._expansion.transform(scaled))
