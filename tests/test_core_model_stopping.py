"""Tests for the KernelModel container, label handling, and stopping rules."""

import numpy as np
import pytest

from repro.core.model import KernelModel, as_labels
from repro.core.stopping import TrainMSETarget, ValidationPlateau
from repro.exceptions import ConfigurationError
from repro.kernels import GaussianKernel


class TestAsLabels:
    def test_integer_passthrough(self):
        labels = np.array([0, 2, 1])
        np.testing.assert_array_equal(as_labels(labels), labels)

    def test_one_hot_argmax(self):
        y = np.array([[0.1, 0.9], [0.8, 0.2]])
        np.testing.assert_array_equal(as_labels(y), [1, 0])

    def test_binary_pm_one(self):
        np.testing.assert_array_equal(
            as_labels(np.array([-1.0, 1.0, -0.5])), [0, 1, 0]
        )

    def test_binary_zero_one_scores(self):
        np.testing.assert_array_equal(
            as_labels(np.array([0.1, 0.9, 0.4])), [0, 1, 0]
        )

    def test_single_column_2d(self):
        np.testing.assert_array_equal(
            as_labels(np.array([[0.2], [0.8]])), [0, 1]
        )

    def test_rejects_3d(self):
        with pytest.raises(ConfigurationError):
            as_labels(np.zeros((2, 2, 2)))


class TestKernelModel:
    @pytest.fixture()
    def model(self, rng):
        centers = rng.standard_normal((25, 4))
        weights = rng.standard_normal((25, 3))
        return KernelModel(GaussianKernel(bandwidth=1.5), centers, weights)

    def test_predict_matches_direct_sum(self, model, rng):
        x = rng.standard_normal((10, 4))
        direct = model.kernel(x, model.centers) @ model.weights
        np.testing.assert_allclose(model.predict(x), direct, atol=1e-10)

    def test_1d_weights_promoted(self, rng):
        centers = rng.standard_normal((5, 2))
        m = KernelModel(GaussianKernel(bandwidth=1.0), centers, np.ones(5))
        assert m.weights.shape == (5, 1)
        assert m.n_outputs == 1

    def test_weight_mismatch_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            KernelModel(
                GaussianKernel(bandwidth=1.0),
                rng.standard_normal((5, 2)),
                np.ones((4, 1)),
            )

    def test_mse_zero_on_own_predictions(self, model, rng):
        x = rng.standard_normal((8, 4))
        assert model.mse(x, model.predict(x)) == pytest.approx(0.0, abs=1e-18)

    def test_classification_error_range(self, model, rng):
        x = rng.standard_normal((20, 4))
        labels = rng.integers(0, 3, 20)
        err = model.classification_error(x, labels)
        assert 0.0 <= err <= 1.0

    def test_classification_error_accepts_one_hot(self, model, rng):
        x = rng.standard_normal((12, 4))
        labels = rng.integers(0, 3, 12)
        one_hot = np.eye(3)[labels]
        assert model.classification_error(
            x, labels
        ) == model.classification_error(x, one_hot)

    def test_mse_rejects_1d_targets_for_multi_output(self, model, rng):
        x = rng.standard_normal((5, 4))
        with pytest.raises(ConfigurationError, match="shape"):
            model.mse(x, rng.standard_normal(5))

    def test_mse_rejects_broadcast_row(self, model, rng):
        x = rng.standard_normal((5, 4))
        with pytest.raises(ConfigurationError, match="shape"):
            model.mse(x, rng.standard_normal((1, 3)))

    def test_mse_rejects_row_mismatch(self, model, rng):
        x = rng.standard_normal((5, 4))
        with pytest.raises(ConfigurationError, match="shape"):
            model.mse(x, rng.standard_normal((6, 3)))

    def test_mse_accepts_1d_targets_for_single_output(self, rng):
        centers = rng.standard_normal((5, 2))
        m = KernelModel(GaussianKernel(bandwidth=1.0), centers, np.ones(5))
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        assert m.mse(x, y) == m.mse(x, y[:, None])

    def test_classification_error_rejects_single_label(self, model, rng):
        x = rng.standard_normal((5, 4))
        with pytest.raises(ConfigurationError, match="shape"):
            model.classification_error(x, np.array([2]))

    def test_classification_error_rejects_row_mismatch(self, model, rng):
        x = rng.standard_normal((5, 4))
        with pytest.raises(ConfigurationError, match="shape"):
            model.classification_error(x, rng.integers(0, 3, 6))

    def test_rkhs_norm_positive(self, model):
        assert model.rkhs_norm_squared() > 0

    def test_rkhs_norm_zero_weights(self, rng):
        m = KernelModel(
            GaussianKernel(bandwidth=1.0),
            rng.standard_normal((5, 2)),
            np.zeros((5, 1)),
        )
        assert m.rkhs_norm_squared() == pytest.approx(0.0, abs=1e-15)


class TestTrainMSETarget:
    def test_stops_below_tol(self):
        stop = TrainMSETarget(tol=1e-3)
        assert not stop.should_stop(1e-2)
        assert stop.should_stop(1e-4)

    def test_none_never_stops(self):
        assert not TrainMSETarget(tol=1e-3).should_stop(None)

    def test_invalid_tol(self):
        with pytest.raises(ConfigurationError):
            TrainMSETarget(tol=0.0)


class TestValidationPlateau:
    def test_stops_after_patience(self):
        p = ValidationPlateau(patience=2)
        assert not p.update(0.5)
        assert not p.update(0.4)
        assert not p.update(0.4)  # stale 1
        assert p.update(0.41)  # stale 2 -> stop

    def test_improvement_resets(self):
        p = ValidationPlateau(patience=2)
        p.update(0.5)
        p.update(0.5)  # stale 1
        assert not p.update(0.3)  # improvement resets
        assert p.stale_epochs == 0

    def test_min_delta(self):
        p = ValidationPlateau(patience=1, min_delta=0.1)
        p.update(0.5)
        assert p.update(0.45)  # improvement below min_delta doesn't count

    def test_none_ignored(self):
        p = ValidationPlateau(patience=1)
        assert not p.update(None)
        assert not p.update(None)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ValidationPlateau(patience=0)
        with pytest.raises(ConfigurationError):
            ValidationPlateau(patience=1, min_delta=-1)
