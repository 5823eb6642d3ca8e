"""Tests for the regression models of the from-scratch ML library."""

import pickle
import pickletools

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    LinearRegression,
    PolynomialRegression,
    RandomForestRegressor,
    RidgeRegression,
    clone,
    r2_score,
    rmse,
)
from repro.ml.knn import KNeighborsRegressor
from repro.ml.mlp import MLPRegressor
from repro.ml.svr import SupportVectorRegressor


def _linear_data(num_samples=150, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.random((num_samples, 3))
    targets = 2.0 * features[:, 0] - 1.5 * features[:, 1] + 0.5 + \
        noise * rng.normal(size=num_samples)
    return features, targets


def _nonlinear_data(num_samples=300, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.random((num_samples, 4))
    targets = (np.sin(3 * features[:, 0]) + features[:, 1] ** 2
               + features[:, 2] * features[:, 3])
    return features, targets


def _assert_bundles_model_state_only(fitted, features):
    """A pickled tree model is its arrays: it predicts bit-identically on the
    first call after a load, and the dump names no node class and no RNG."""
    dump = pickle.dumps(fitted)
    assert (pickle.loads(dump).predict(features).tobytes()
            == fitted.predict(features).tobytes())
    named = " ".join(str(arg) for _, arg, _ in pickletools.genops(dump)
                     if isinstance(arg, str))
    assert "_Node" not in named and "numpy.random" not in named


ALL_MODELS = [
    LinearRegression(),
    RidgeRegression(alpha=0.1),
    PolynomialRegression(degree=2),
    KNeighborsRegressor(n_neighbors=3),
    SupportVectorRegressor(C=10.0, max_iter=100),
    DecisionTreeRegressor(max_depth=6),
    RandomForestRegressor(n_estimators=15, max_depth=8),
    GradientBoostingRegressor(n_estimators=40, max_depth=3),
    MLPRegressor(hidden_layer_sizes=(32,), max_iter=80),
]


class TestModelContract:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_fit_predict_shapes(self, model):
        features, targets = _linear_data()
        fitted = clone(model).fit(features, targets)
        predictions = fitted.predict(features)
        assert predictions.shape == (features.shape[0],)
        assert np.isfinite(predictions).all()

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_predict_before_fit_raises(self, model):
        with pytest.raises((RuntimeError, Exception)):
            clone(model).predict(np.ones((2, 3)))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_clone_preserves_params(self, model):
        copy = clone(model)
        assert copy.get_params() == model.get_params()
        assert copy is not model

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_learns_linear_signal(self, model):
        features, targets = _linear_data()
        fitted = clone(model).fit(features, targets)
        predictions = fitted.predict(features)
        assert r2_score(targets, predictions) > 0.5


#: The families EASE serves predictions from (linear, ridge and polynomial
#: for the processing-time models, the three tree families for the rest).
SERVED_MODELS = [
    LinearRegression(),
    RidgeRegression(alpha=0.1),
    PolynomialRegression(degree=2, alpha=1e-4),
    DecisionTreeRegressor(max_depth=6),
    RandomForestRegressor(n_estimators=10, max_depth=6, random_state=0),
    GradientBoostingRegressor(n_estimators=20, max_depth=3, random_state=0),
]


@pytest.mark.parametrize("order", ("C", "F"))
@pytest.mark.parametrize("model", SERVED_MODELS,
                         ids=lambda m: type(m).__name__)
def test_row_prediction_does_not_depend_on_its_batch(model, order):
    """``predict(X)[i]`` equals ``predict(X[i:i+1])[0]`` bit for bit, so a
    served answer does not depend on which requests shared its batch."""
    rng = np.random.default_rng(11)
    features = rng.lognormal(sigma=2.0, size=(72, 9))
    targets = features @ rng.normal(size=9) + rng.normal(size=72)
    fitted = clone(model).fit(features, targets)
    features = np.asarray(features, order=order)
    batch = fitted.predict(features)
    singles = np.concatenate([fitted.predict(features[row:row + 1])
                              for row in range(len(features))])
    assert batch.tobytes() == singles.tobytes()


class TestLinearModels:
    def test_ols_recovers_coefficients(self):
        features, targets = _linear_data(noise=0.0)
        model = LinearRegression().fit(features, targets)
        np.testing.assert_allclose(model.coefficients_, [2.0, -1.5, 0.0],
                                   atol=1e-8)
        assert model.intercept_ == pytest.approx(0.5, abs=1e-8)

    def test_ridge_shrinks_towards_zero(self):
        features, targets = _linear_data(noise=0.0)
        weak = RidgeRegression(alpha=1e-6).fit(features, targets)
        strong = RidgeRegression(alpha=1e3).fit(features, targets)
        assert np.abs(strong.coefficients_).sum() < np.abs(weak.coefficients_).sum()

    def test_polynomial_beats_linear_on_quadratic_target(self):
        rng = np.random.default_rng(3)
        features = rng.random((200, 2))
        targets = features[:, 0] ** 2 + features[:, 1] ** 2
        linear_error = rmse(targets, LinearRegression().fit(features, targets)
                            .predict(features))
        poly_error = rmse(targets, PolynomialRegression(degree=2)
                          .fit(features, targets).predict(features))
        assert poly_error < linear_error / 2

    def test_set_params_roundtrip(self):
        model = PolynomialRegression(degree=2)
        model.set_params(degree=3)
        assert model.get_params()["degree"] == 3
        with pytest.raises(ValueError):
            model.set_params(nonexistent=1)


class TestKNN:
    def test_single_neighbor_memorises_training_data(self):
        features, targets = _linear_data(num_samples=40)
        model = KNeighborsRegressor(n_neighbors=1).fit(features, targets)
        np.testing.assert_allclose(model.predict(features), targets)

    def test_distance_weighting(self):
        features = np.array([[0.0], [1.0], [10.0]])
        targets = np.array([0.0, 1.0, 10.0])
        model = KNeighborsRegressor(n_neighbors=3, weights="distance")
        model.fit(features, targets)
        prediction = model.predict(np.array([[0.1]]))[0]
        assert prediction < 2.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(weights="bad")
        with pytest.raises(ValueError):
            KNeighborsRegressor(n_neighbors=0).fit(np.ones((3, 1)), np.ones(3))


class TestTrees:
    def test_tree_fits_step_function_exactly(self):
        features = np.arange(20, dtype=float).reshape(-1, 1)
        targets = (features.ravel() >= 10).astype(float)
        model = DecisionTreeRegressor().fit(features, targets)
        np.testing.assert_allclose(model.predict(features), targets)
        assert model.depth() >= 1

    def test_max_depth_limits_tree(self):
        features, targets = _nonlinear_data(150)
        shallow = DecisionTreeRegressor(max_depth=1).fit(features, targets)
        assert shallow.depth() <= 1

    def test_min_samples_leaf_respected(self):
        features = np.arange(10, dtype=float).reshape(-1, 1)
        targets = features.ravel()
        model = DecisionTreeRegressor(min_samples_leaf=5).fit(features, targets)
        assert model.depth() <= 1

    def test_feature_importances_sum_to_one(self):
        features, targets = _nonlinear_data(200)
        model = DecisionTreeRegressor(max_depth=6).fit(features, targets)
        assert model.feature_importances_.sum() == pytest.approx(1.0)
        # Nothing fit-scoped (RNG, accumulators) stays on the estimator.
        assert set(vars(model)) == set(model.get_params()) | {
            "tree_", "feature_importances_", "_num_features"}
        _assert_bundles_model_state_only(model, features)

    def test_irrelevant_feature_gets_low_importance(self):
        rng = np.random.default_rng(0)
        signal = rng.random(300)
        noise = rng.random(300)
        features = np.column_stack([signal, noise])
        targets = 3.0 * signal
        model = DecisionTreeRegressor(max_depth=8).fit(features, targets)
        assert model.feature_importances_[0] > 0.9

    def test_constant_target_yields_single_leaf(self):
        features = np.random.default_rng(0).random((30, 3))
        model = DecisionTreeRegressor().fit(features, np.ones(30))
        assert model.depth() == 0

    @pytest.mark.parametrize("max_features, expected", [
        (None, 20), ("sqrt", 4), (1, 1), (7, 7), (np.int64(7), 7), (50, 20),
        (0.6, 12), (np.float64(0.6), 12), (np.float32(0.6), 12), (1.0, 20),
        (0.01, 1), ("log2", None), (0, None), (-3, None), (0.0, None),
        (1.5, None), (float("nan"), None), (True, None)])
    def test_max_features_resolves_or_names_the_bad_value(self, max_features,
                                                          expected):
        model = DecisionTreeRegressor(max_features=max_features)
        if expected is not None:
            assert model._resolve_max_features(20) == expected
            return
        features = np.random.default_rng(0).random((30, 20))
        with pytest.raises(ValueError, match=r"max_features=.* is not one of "
                           r"None, 'sqrt', an int >= 1 or a float in \(0, 1\]"):
            model.fit(features, np.arange(30.0))
        assert model.tree_ is None


class TestEnsembles:
    def test_forest_importances_normalised(self):
        features, targets = _nonlinear_data(200)
        model = RandomForestRegressor(n_estimators=10, max_depth=6)
        model.fit(features, targets)
        assert model.feature_importances_.sum() == pytest.approx(1.0)
        assert len(model.trees_) == model.n_estimators
        _assert_bundles_model_state_only(model, features)

    def test_forest_beats_single_tree_on_noisy_data(self):
        rng = np.random.default_rng(7)
        features = rng.random((300, 5))
        targets = features[:, 0] + 0.3 * rng.normal(size=300)
        holdout_features = rng.random((100, 5))
        holdout_targets = holdout_features[:, 0]
        tree_error = rmse(holdout_targets,
                          DecisionTreeRegressor(random_state=1)
                          .fit(features, targets).predict(holdout_features))
        forest_error = rmse(holdout_targets,
                            RandomForestRegressor(n_estimators=30, random_state=1)
                            .fit(features, targets).predict(holdout_features))
        assert forest_error < tree_error

    def test_boosting_reduces_training_error_with_more_rounds(self):
        features, targets = _nonlinear_data(200)
        few = GradientBoostingRegressor(n_estimators=5).fit(features, targets)
        many = GradientBoostingRegressor(n_estimators=100).fit(features, targets)
        assert (rmse(targets, many.predict(features))
                < rmse(targets, few.predict(features)))
        assert len(many.trees_) == many.n_estimators
        _assert_bundles_model_state_only(many, features)

    def test_boosting_rejects_invalid_subsample(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0).fit(np.ones((10, 2)),
                                                         np.ones(10))

    def test_ensembles_are_deterministic_given_seed(self):
        features, targets = _nonlinear_data(120)
        a = RandomForestRegressor(n_estimators=5, random_state=3).fit(features, targets)
        b = RandomForestRegressor(n_estimators=5, random_state=3).fit(features, targets)
        np.testing.assert_allclose(a.predict(features), b.predict(features))


class TestSVRAndMLP:
    def test_svr_linear_kernel_on_linear_data(self):
        features, targets = _linear_data(noise=0.01)
        model = SupportVectorRegressor(kernel="linear", C=10.0)
        model.fit(features, targets)
        assert r2_score(targets, model.predict(features)) > 0.9

    def test_svr_invalid_kernel(self):
        with pytest.raises(ValueError):
            SupportVectorRegressor(kernel="poly")

    def test_mlp_learns_nonlinear_signal(self):
        features, targets = _nonlinear_data(250)
        model = MLPRegressor(hidden_layer_sizes=(64, 32), max_iter=200,
                             random_state=1)
        model.fit(features, targets)
        assert r2_score(targets, model.predict(features)) > 0.8

    def test_mlp_deterministic_given_seed(self):
        features, targets = _linear_data()
        a = MLPRegressor(max_iter=30, random_state=5).fit(features, targets)
        b = MLPRegressor(max_iter=30, random_state=5).fit(features, targets)
        np.testing.assert_allclose(a.predict(features), b.predict(features))
