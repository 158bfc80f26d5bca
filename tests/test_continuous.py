"""Densities, conditionals, and sampling of the Gaussian-lattice model."""

import numpy as np
import pytest
import scipy.stats
from conftest import random_trip_model
from hypothesis import given, settings, strategies as st

import trip
from trip import chain, oracle
from trip.continuous import gaussian_logpdf


def quad_grid(model, points=1201, span=10.0):
    """Shared integration grid covering every mode out to ``span`` stds."""
    mu = np.concatenate(model.means)
    sd = np.concatenate(model.stds)
    lo = (mu - span * sd).min()
    hi = (mu + span * sd).max()
    return np.linspace(lo, hi, points)


class TestLogDensity:
    def test_single_gaussian_exact(self):
        model = trip.TripModel(
            [np.array([[[0.7]]])], [np.array([1.5])], [np.array([0.8])]
        )
        for z in [-3.0, 0.0, 1.5, 10.0]:
            want = gaussian_logpdf(z, 1.5, np.log(0.8))
            assert model.log_density({0: z}) == pytest.approx(want, abs=1e-14)

    def test_unit_core_size_factorizes(self):
        # with 1x1 cores the joint is a product of independent 1-D mixtures
        # whose weights are the normalized absolute core entries
        rng = np.random.default_rng(0)
        d = 3
        cores = [rng.standard_normal((2, 1, 1)) for _ in range(d)]
        means = [rng.normal(0, 2, 2) for _ in range(d)]
        stds = [rng.uniform(0.5, 1.5, 2) for _ in range(d)]
        model = trip.TripModel(cores, means, stds)
        z = rng.normal(0, 2, (100, d))
        got = model.log_densities(range(d), z)
        want = np.zeros(len(z))
        for j in range(d):
            w = np.abs(cores[j][:, 0, 0])
            w = w / w.sum()
            pdf = w[None, :] * np.exp(
                gaussian_logpdf(z[:, j][:, None], means[j][None], np.log(stds[j])[None])
            )
            want += np.log(pdf.sum(axis=1))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_marginalized_dimension_matches_mode_sum(self):
        rng = np.random.default_rng(1)
        model = random_trip_model(rng, [2, 2, 2])
        mask = {0: 0.4, 2: -1.1}
        want = np.log(oracle.dense_density(model, mask))
        assert model.log_density(mask) == pytest.approx(want, rel=1e-12)

    def test_all_observed_matches_mode_sum(self):
        rng = np.random.default_rng(2)
        model = random_trip_model(rng, [3, 2, 3, 2], sizes=[2, 3, 2, 3])
        z = {k: float(v) for k, v in enumerate(rng.normal(0, 2, 4))}
        want = np.log(oracle.dense_density(model, z))
        assert model.log_density(z) == pytest.approx(want, rel=1e-10)

    def test_empty_mask_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        model = random_trip_model(rng, [2, 3])
        assert model.log_density({}) == 0.0

    def test_non_finite_value_rejected(self):
        rng = np.random.default_rng(4)
        model = random_trip_model(rng, [2])
        with pytest.raises(ValueError):
            model.log_density({0: np.nan})

    def test_density_normalizes_by_quadrature_2d(self):
        rng = np.random.default_rng(5)
        model = random_trip_model(rng, [2, 2], mean_scale=1.0)
        grid = quad_grid(model, points=801)
        zz = np.array([[a, b] for a in grid for b in grid])
        dens = np.exp(model.log_densities([0, 1], zz)).reshape(len(grid), len(grid))
        total = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_mask_marginal_equals_quadrature_of_full(self):
        rng = np.random.default_rng(6)
        model = random_trip_model(rng, [2, 2], mean_scale=1.0)
        z0 = 0.37
        grid = quad_grid(model, points=4001)
        full = np.exp(
            model.log_densities([0, 1], np.column_stack([np.full_like(grid, z0), grid]))
        )
        want = np.trapezoid(full, grid)
        assert np.exp(model.log_density({0: z0})) == pytest.approx(want, abs=1e-4)


class TestConditionalMixtureWeights:
    def test_first_dimension_unit_core(self):
        cores = [np.array([[[2.0]], [[-6.0]]])]
        model = trip.TripModel(
            cores, [np.array([0.0, 1.0])], [np.array([1.0, 1.0])]
        )
        np.testing.assert_allclose(
            model.conditional_mixture_weights(0, []), [0.25, 0.75], rtol=1e-14
        )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        model = random_trip_model(rng, [2, 2])
        got = model.conditional_mixture_weights(1, [0.6])
        want = oracle.dense_mixture_weights(model, 1, {0: 0.6})
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(8)
        for counts in ([3], [2, 3], [2, 2, 2]):
            model = random_trip_model(rng, counts)
            for k in range(len(counts)):
                w = model.conditional_mixture_weights(k, list(rng.normal(size=k)))
                assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_prefix_length_enforced(self):
        rng = np.random.default_rng(9)
        model = random_trip_model(rng, [2, 2])
        with pytest.raises(ValueError):
            model.conditional_mixture_weights(1, [0.1, 0.2])

    def test_agrees_with_density_ratio(self):
        # forcing component s on dimension k by shrinking the model to that
        # single component reproduces p(s | prefix) as a density ratio
        rng = np.random.default_rng(10)
        model = random_trip_model(rng, [2, 2])
        prefix = [0.9]
        w = model.conditional_mixture_weights(1, prefix)
        weights, means, stds = oracle.enumerate_modes(model)
        idx = np.array(list(np.ndindex(2, 2)))
        per_mode = weights * np.exp(
            gaussian_logpdf(prefix[0], means[:, 0], np.log(stds[:, 0]))
        )
        want = np.array([per_mode[idx[:, 1] == s].sum() for s in range(2)])
        np.testing.assert_allclose(w, want / want.sum(), rtol=1e-10)


class TestParamStats:
    @pytest.mark.parametrize(
        "m,mb",
        [(1, 0.023), (10, 0.77), (20, 3.1)],
    )
    def test_reference_memory_table(self, m, mb):
        d, n_comp = 100, 10
        rng = np.random.default_rng(0)
        model = trip.TripModel(
            [np.ones((n_comp, m, m))] * d,
            [np.zeros(n_comp)] * d,
            [np.ones(n_comp)] * d,
        )
        stats = model.param_stats()
        assert stats.param_count == d * n_comp * m * m + 2 * d * n_comp
        assert stats.memory_bytes == 8 * stats.param_count
        assert stats.memory_mib == pytest.approx(mb, rel=0.05)


class TestSampling:
    def test_single_gaussian_moments(self):
        model = trip.TripModel(
            [np.array([[[1.0]]])], [np.array([0.4])], [np.array([1.3])]
        )
        draws = model.sample_batch(100_000, rng=0)[:, 0]
        se_mean = 1.3 / np.sqrt(len(draws))
        se_std = 1.3 / np.sqrt(2 * len(draws))
        assert abs(draws.mean() - 0.4) <= 4 * se_mean
        assert abs(draws.std() - 1.3) <= 4 * se_std

    def test_factorized_histogram_chi_square(self):
        # with 1x1 cores each dimension is an independent 1-D mixture with
        # weights |q| / sum |q|: bin the draws against that exact CDF
        rng = np.random.default_rng(11)
        model = random_trip_model(rng, [2, 2], sizes=[1, 1], mean_scale=1.5)
        draws = model.sample_batch(20_000, rng=3)
        for j in range(2):
            x = draws[:, j]
            w = np.abs(model.cores.cores[j][:, 0, 0])
            w = w / w.sum()
            edges = np.quantile(x, np.linspace(0, 1, 21))
            edges[0], edges[-1] = -np.inf, np.inf
            cdf_at = lambda t: float(
                (w * scipy.stats.norm.cdf(t, model.means[j], model.stds[j])).sum()
            )
            probs = np.diff([cdf_at(e) for e in edges])
            expected = len(x) * probs
            counts, _ = np.histogram(x, edges)
            chi2 = ((counts - expected) ** 2 / expected).sum()
            assert chi2 <= scipy.stats.chi2.ppf(0.99, len(counts) - 1)

    def test_mean_vector_matches_mode_average(self):
        rng = np.random.default_rng(12)
        model = random_trip_model(rng, [2, 2, 2])
        weights, means, _ = oracle.enumerate_modes(model)
        target = (weights[:, None] * means).sum(axis=0)
        draws = model.sample_batch(100_000, rng=21)
        se = draws.std(axis=0) / np.sqrt(len(draws))
        assert (np.abs(draws.mean(axis=0) - target) <= 4 * se).all()

    def test_reproducible(self):
        rng = np.random.default_rng(13)
        model = random_trip_model(rng, [2, 2])
        np.testing.assert_array_equal(
            model.sample_batch(10, rng=5), model.sample_batch(10, rng=5)
        )


    def test_products_go_through_chain_multiply(self, monkeypatch):
        # wrappers of trip.chain._multiply, such as a tracer's, see every
        # product the sampler makes: one per position
        model = random_trip_model(np.random.default_rng(17), [2, 3, 2, 2, 3])
        inner, shapes = chain._multiply, []

        def counting(buf, mat):
            shapes.append(buf.shape)
            return inner(buf, mat)

        monkeypatch.setattr(chain, "_multiply", counting)
        model.sample_batch(4, rng=0)
        assert shapes == [(4, 2, 2)] * 5


class TestConditionalResample:
    def test_empty_set_returns_input(self):
        rng = np.random.default_rng(14)
        model = random_trip_model(rng, [2, 2])
        current = np.array([0.3, -0.7])
        out = model.conditional_resample(current, [], rng=0)
        np.testing.assert_array_equal(out, current)
        with pytest.raises(ValueError):  # the cells are checked all the same
            model.conditional_resample(np.array([np.nan, 0.0]), [], rng=0)

    def test_full_set_matches_sample_under_same_seed(self):
        rng = np.random.default_rng(15)
        model = random_trip_model(rng, [2, 2, 2])
        a = model.sample(rng=np.random.default_rng(33))
        b = model.conditional_resample(
            np.zeros(3), [0, 1, 2], rng=np.random.default_rng(33)
        )
        np.testing.assert_array_equal(a, b)

    def test_kept_dimensions_unchanged(self):
        rng = np.random.default_rng(16)
        model = random_trip_model(rng, [2, 2, 2])
        current = rng.normal(size=3)
        out = model.conditional_resample(current, [1], rng=4)
        assert out[0] == current[0] and out[2] == current[2]
        assert out[1] != current[1]

    def test_conditional_histogram_chi_square(self):
        # oracle conditional: mode weights reweighted by the kept coordinate's
        # likelihood give an exact mixture for p(z2 | z1)
        rng = np.random.default_rng(17)
        model = random_trip_model(rng, [2, 2], mean_scale=1.5)
        z0 = 0.8
        gen = np.random.default_rng(55)
        draws = np.array(
            [
                model.conditional_resample(np.array([z0, 0.0]), [1], rng=gen)[1]
                for _ in range(8000)
            ]
        )
        weights, means, stds = oracle.enumerate_modes(model)
        w = weights * np.exp(gaussian_logpdf(z0, means[:, 0], np.log(stds[:, 0])))
        w = w / w.sum()
        edges = np.quantile(draws, np.linspace(0, 1, 21))
        edges[0], edges[-1] = -np.inf, np.inf
        cdf_at = lambda t: float((w * scipy.stats.norm.cdf(t, means[:, 1], stds[:, 1])).sum())
        probs = np.diff([cdf_at(e) for e in edges])
        expected = len(draws) * probs
        counts, _ = np.histogram(draws, edges)
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 <= scipy.stats.chi2.ppf(0.99, len(counts) - 1)

    def test_out_of_range_dim_rejected(self):
        rng = np.random.default_rng(18)
        model = random_trip_model(rng, [2, 2])
        # a non-integral index must not read as the dimension it truncates to
        for dims in ([5], [0.5], [-1]):
            with pytest.raises(ValueError):
                model.conditional_resample(np.zeros(2), dims, rng=0)
        with pytest.raises(ValueError):
            model.conditional_resample([0.3, 0.4], [0.5], rng=0)
        with pytest.raises(ValueError):
            model.conditional_mixture_weights(1.7, [0.2])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), scale=st.sampled_from([1e-2, 7.0]))
def test_core_scale_and_sign_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    model = random_trip_model(rng, [2, 2])
    cores = model.cores.cores
    other = trip.TripModel(
        [cores[0] * -scale, cores[1]], model.means, model.stds
    )
    mask = {0: 0.2, 1: -0.4}
    assert abs(other.log_density(mask) - model.log_density(mask)) <= 1e-12
