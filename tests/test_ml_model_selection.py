"""Tests for K-fold cross-validation, train/test split and grid search."""

import numpy as np
import pytest

from repro.ml import DecisionTreeRegressor, LinearRegression, mape, rmse
from repro.ml.knn import KNeighborsRegressor
from repro.ml.model_selection import (
    GridSearchCV,
    KFold,
    cross_val_score,
    train_test_split,
)


class TestKFold:
    def test_folds_partition_all_samples(self):
        splits = list(KFold(n_splits=5).split(23))
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test.tolist()) == list(range(23))

    def test_train_and_test_are_disjoint(self):
        for train, test in KFold(n_splits=4).split(20):
            assert set(train).isdisjoint(set(test))
            assert len(train) + len(test) == 20

    def test_deterministic_given_seed(self):
        a = [test.tolist() for _, test in KFold(random_state=1).split(30)]
        b = [test.tolist() for _, test in KFold(random_state=1).split(30)]
        assert a == b

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(3))

    def test_rejects_single_split(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = train_test_split(100, test_fraction=0.2, random_state=0)
        assert len(train) == 80
        assert len(test) == 20
        assert set(train).isdisjoint(test)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(10, test_fraction=1.5)


class TestCrossValScore:
    def test_returns_one_score_per_fold(self):
        rng = np.random.default_rng(0)
        features = rng.random((60, 2))
        targets = features[:, 0] * 2 + 1
        scores = cross_val_score(LinearRegression(), features, targets,
                                 n_splits=4, scoring=rmse)
        assert scores.shape == (4,)
        assert (scores < 1e-6).all()

    def test_does_not_mutate_template_estimator(self):
        rng = np.random.default_rng(0)
        features = rng.random((40, 2))
        targets = features[:, 0]
        template = LinearRegression()
        cross_val_score(template, features, targets, n_splits=4)
        assert template.coefficients_ is None


class TestGridSearch:
    def test_selects_better_hyperparameters(self):
        rng = np.random.default_rng(2)
        features = rng.random((120, 1))
        targets = np.sin(6 * features[:, 0])
        search = GridSearchCV(KNeighborsRegressor(),
                              {"n_neighbors": [1, 50]}, n_splits=4,
                              scoring=rmse)
        search.fit(features, targets)
        assert search.best_params_["n_neighbors"] == 1

    def test_best_estimator_is_refit_on_full_data(self):
        rng = np.random.default_rng(3)
        features = rng.random((50, 2))
        targets = features.sum(axis=1)
        search = GridSearchCV(DecisionTreeRegressor(), {"max_depth": [2, 4]},
                              n_splits=3)
        search.fit(features, targets)
        predictions = search.predict(features)
        assert predictions.shape == (50,)

    def test_all_configurations_are_evaluated(self):
        rng = np.random.default_rng(4)
        features = rng.random((40, 2))
        targets = features[:, 0]
        search = GridSearchCV(DecisionTreeRegressor(),
                              {"max_depth": [1, 2], "min_samples_leaf": [1, 3]},
                              n_splits=3)
        search.fit(features, targets)
        assert len(search.result_.all_results) == 4

    def test_empty_grid_uses_defaults(self):
        rng = np.random.default_rng(5)
        features = rng.random((30, 2))
        targets = features[:, 0]
        search = GridSearchCV(LinearRegression(), {}, n_splits=3)
        search.fit(features, targets)
        assert search.best_params_ == {}

    def test_unfitted_access_raises(self):
        search = GridSearchCV(LinearRegression(), {})
        with pytest.raises(RuntimeError):
            _ = search.best_params_
        with pytest.raises(RuntimeError):
            search.predict(np.ones((2, 2)))
