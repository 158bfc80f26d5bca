"""Maximum-likelihood fitting and its initialization machinery."""

import numpy as np
import pytest
from conftest import four_mode_data, four_mode_nll

import trip
from trip.fitting import fit_gmm_1d, nll_regression_epochs


class TestGmmInit:
    def test_single_component_recovers_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 0.5, size=5000)
        mu, sd = fit_gmm_1d(x, 1, rng)
        assert mu[0] == pytest.approx(x.mean(), abs=1e-9)
        assert sd[0] == pytest.approx(x.std(), abs=1e-9)

    def test_two_components_find_separated_modes(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(-2, 0.3, 2000), rng.normal(2, 0.3, 2000)])
        mu, sd = fit_gmm_1d(x, 2, rng)
        assert sorted(np.round(mu, 1)) == pytest.approx([-2.0, 2.0], abs=0.1)
        assert np.allclose(sd, 0.3, atol=0.05)

    def test_degenerate_constant_data(self):
        rng = np.random.default_rng(2)
        mu, sd = fit_gmm_1d(np.zeros(10), 2, rng)
        assert np.all(np.isfinite(mu)) and np.all(sd > 0)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            trip.FitConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            trip.FitConfig(epochs=0)
        with pytest.raises(ValueError):
            trip.FitConfig(batch_size=0)
        # counts are refused, not truncated, when they are not integers
        for field in ("epochs", "batch_size", "reinit_period_epochs"):
            for value in (1.5, 2.5, -1, "2"):
                with pytest.raises(ValueError, match=f"{field}: counts must be integers"):
                    trip.FitConfig(**{field: value})
        # an integral float or a numpy integer is a count, stored as an int
        config = trip.FitConfig(epochs=2.0, batch_size=np.int64(4), reinit_period_epochs=1.0)
        values = (config.epochs, config.batch_size, config.reinit_period_epochs)
        assert values == (2, 4, 1) and all(type(v) is int for v in values)


class TestFitMle:
    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            trip.fit_mle(np.empty((0, 2)), 1, 1)
        with pytest.raises(ValueError):
            trip.fit_mle(np.array([[1.0, np.nan]]), 1, 1)

    def test_rejects_non_integral_sizes(self):
        data = np.random.default_rng(1).normal(size=(8, 2))
        config = trip.FitConfig(epochs=1)
        for sizes in ((1.5, 1), (1, 2.5), (0, 1)):
            with pytest.raises(ValueError, match="must be integers >= 1"):
                trip.fit_mle(data, *sizes, config)
        with pytest.raises(ValueError, match="must be integers >= 1"):
            trip.fit_joint_mle(data, np.zeros((8, 1), dtype=int), [2.5], 1, 1, config)
        # an integral float is a size
        assert trip.fit_mle(data, 2.0, 1.0, config).component_counts == (2, 2)

    def test_single_gaussian_recovery(self):
        rng = np.random.default_rng(3)
        data = rng.normal([0.5, -1.0], [0.8, 1.3], size=(3000, 2))
        cfg = trip.FitConfig(learning_rate=1e-3, epochs=200, batch_size=256, seed=2)
        model = trip.fit_mle(data, 1, 1, cfg)
        for j in range(2):
            assert model.means[j][0] == pytest.approx(data[:, j].mean(), abs=0.05)
            assert model.stds[j][0] == pytest.approx(data[:, j].std(), abs=0.05)

    def test_divergence_reported_with_epoch(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(300, 2))
        with pytest.raises(trip.DivergenceError) as err:
            trip.fit_mle(data, 2, 2, trip.FitConfig(learning_rate=1e6, epochs=5, seed=0))
        assert err.value.epoch >= 0

    def test_epoch_callback_reports_decreasing_nll(self):
        rng = np.random.default_rng(5)
        weights = [[0.4, 0.1], [0.1, 0.4]]
        data = four_mode_data(2000, weights, rng)
        history = []
        cfg = trip.FitConfig(learning_rate=0.01, epochs=25, batch_size=256, seed=1)
        trip.fit_mle(data, 2, 2, cfg, on_epoch=lambda e, nll: history.append((e, nll)))
        assert [e for e, _ in history] == list(range(25))
        nlls = [nll for _, nll in history]
        assert nlls[-1] < nlls[0]
        assert not nll_regression_epochs(nlls)

    def test_reinit_period_consumes_and_recovers(self):
        rng = np.random.default_rng(6)
        data = four_mode_data(1500, [[0.4, 0.1], [0.1, 0.4]], rng)
        cfg = trip.FitConfig(
            learning_rate=0.01, epochs=12, batch_size=256, seed=3, reinit_period_epochs=5
        )
        model = trip.fit_mle(data, 2, 2, cfg)
        held = four_mode_data(1500, [[0.4, 0.1], [0.1, 0.4]], rng)
        nll = -np.mean(model.log_densities([0, 1], held))
        assert np.isfinite(nll)

    def test_four_mode_benchmark_small(self):
        # scaled-down version of the full benchmark in the acceptance suite
        rng = np.random.default_rng(7)
        weights = [[0.4, 0.1], [0.1, 0.4]]
        train = four_mode_data(4000, weights, rng)
        held = four_mode_data(4000, weights, rng)
        cfg = trip.FitConfig(learning_rate=0.01, epochs=40, batch_size=256, seed=1)
        model = trip.fit_mle(train, 2, 2, cfg)
        nll = -np.mean(model.log_densities([0, 1], held))
        assert nll - four_mode_nll(held, weights) < 0.1

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(500, 2))
        cfg = trip.FitConfig(epochs=5, seed=9)
        a = trip.fit_mle(data, 2, 2, cfg)
        b = trip.fit_mle(data, 2, 2, cfg)
        for x, y in zip(a.cores.cores, b.cores.cores):
            np.testing.assert_array_equal(x, y)
        for x, y in zip(a.means, b.means):
            np.testing.assert_array_equal(x, y)


class TestRegressionFlag:
    def test_flags_windows_without_improvement(self):
        jump_then_plateau = [1.0] + [2.0] * 12
        assert nll_regression_epochs(jump_then_plateau) == [0]
        strictly_rising = [float(i) for i in range(13)]
        assert nll_regression_epochs(strictly_rising) == [0, 1, 2]
        falling = list(np.linspace(3, 1, 30))
        assert nll_regression_epochs(falling) == []
        noisy = [3.0, 3.2, 2.9, 3.1, 2.8, 3.0, 2.7, 2.9, 2.6, 2.8, 2.5, 2.7]
        assert nll_regression_epochs(noisy) == []
