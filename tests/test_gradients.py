"""Analytic gradients against central finite differences; estimator algebra."""

import tracemalloc

import numpy as np
import pytest
from conftest import random_trip_model

import trip
from trip import oracle
from trip.gradients import (
    grad_log_density,
    kl_and_elbo_mc,
    model_from_vector,
    param_vector,
    reinforce_grad,
)


def fd_gradient(model, z, h=1e-5):
    vec = param_vector(model)
    f = lambda v: model_from_vector(model, v).log_density(dict(enumerate(z)))
    return oracle.numeric_grad(f, vec, h)


class TestGradLogDensity:
    def test_single_gaussian_mean_score(self):
        model = trip.TripModel(
            [np.array([[[1.0]]])], [np.array([0.3])], [np.array([0.9])]
        )
        z = 1.7
        _, g = grad_log_density(model, [z])
        assert g.d_means[0][0] == pytest.approx((z - 0.3) / 0.9**2, rel=1e-12)
        assert g.d_log_stds[0][0] == pytest.approx(
            ((z - 0.3) / 0.9) ** 2 - 1.0, rel=1e-12
        )

    def test_logp_matches_forward(self):
        rng = np.random.default_rng(0)
        model = random_trip_model(rng, [2, 3, 2])
        z = rng.normal(size=3)
        logp, _ = grad_log_density(model, z)
        assert logp == pytest.approx(model.log_density(dict(enumerate(z))), abs=1e-12)

    def test_core_scale_direction_vanishes(self):
        rng = np.random.default_rng(1)
        model = random_trip_model(rng, [2, 2, 2])
        z = rng.normal(size=3)
        _, g = grad_log_density(model, z)
        for k in range(3):
            directional = float((g.d_cores[k] * model.cores.cores[k]).sum())
            assert abs(directional) <= 1e-12

    def test_matches_finite_differences_sweep(self):
        rng = np.random.default_rng(2)
        checked = 0
        for d in (1, 2, 3, 4):
            for _ in range(4):
                counts = list(rng.integers(1, 4, size=d))
                sizes = list(rng.integers(1, 4, size=d))
                model = random_trip_model(rng, counts, sizes, min_mag=0.05)
                for _ in range(2):
                    z = rng.normal(0, 2, size=d)
                    _, g = grad_log_density(model, z)
                    fd = fd_gradient(model, z)
                    # the 1e-3 floor tests near-zero coordinates absolutely,
                    # at the cancellation noise level of h=1e-5 differences
                    rel = np.abs(g.as_vector() - fd) / np.maximum(np.abs(fd), 1e-3)
                    assert rel.max() < 1e-5
                    checked += 1
        assert checked >= 32

    def test_rejects_partial_or_bad_z(self):
        rng = np.random.default_rng(3)
        model = random_trip_model(rng, [2, 2])
        with pytest.raises(ValueError):
            grad_log_density(model, [0.1])
        with pytest.raises(ValueError):
            grad_log_density(model, [0.1, np.inf])


class TestFlatLayout:
    """``param_vector``, ``model_from_vector`` and ``GradPsi.as_vector``
    share one layout, on a model with unequal component counts and sizes."""

    @staticmethod
    def model():
        return random_trip_model(np.random.default_rng(40), [2, 4, 3], [2, 3, 1])

    @staticmethod
    def groups(model):
        return (model.cores.cores, model.means, model.log_stds)

    def test_round_trip_is_bit_exact(self):
        model = self.model()
        back = model_from_vector(model, param_vector(model))
        for want, got in zip(self.groups(model), self.groups(back)):
            assert [a.shape for a in got] == [a.shape for a in want]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_gradient_entries_sit_at_their_parameters(self):
        model = self.model()
        _, g = grad_log_density(model, np.random.default_rng(41).normal(size=3))
        vec, gvec = param_vector(model), g.as_vector()
        assert gvec.shape == vec.shape
        # random parameters are distinct, so each value names its own offset
        offset = {float(x): i for i, x in enumerate(vec)}
        assert len(offset) == vec.shape[0]
        grads = (g.d_cores, g.d_means, g.d_log_stds)
        for params, d_params in zip(self.groups(model), grads):
            for p, dp in zip(params, d_params):
                for idx in np.ndindex(p.shape):
                    assert gvec[offset[float(p[idx])]] == dp[idx]

    def test_rejects_wrong_length(self):
        model = self.model()
        vec = param_vector(model)
        for bad in (vec[:-1], np.append(vec, 0.0)):
            with pytest.raises(ValueError):
                model_from_vector(model, bad)


class TestReinforce:
    def test_constant_scores_give_exact_zero(self):
        rng = np.random.default_rng(4)
        model = random_trip_model(rng, [2, 2])
        samples = model.sample_batch(33, rng=0)
        g = reinforce_grad(model, samples, np.full(33, 0.1))
        assert (g.as_vector() == 0.0).all()

    def test_two_sample_identity(self):
        # with two samples the estimate collapses to
        # (a - b) / 4 * (grad log p(z1) - grad log p(z2))
        rng = np.random.default_rng(5)
        model = random_trip_model(rng, [2])
        samples = model.sample_batch(2, rng=1)
        a, b = 1.3, -0.2
        g = reinforce_grad(model, samples, [a, b])
        _, g1 = grad_log_density(model, samples[0])
        _, g2 = grad_log_density(model, samples[1])
        want = (a - b) / 4.0 * (g1.as_vector() - g2.as_vector())
        np.testing.assert_allclose(g.as_vector(), want, rtol=1e-12, atol=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        model = random_trip_model(rng, [2, 2])
        samples = model.sample_batch(40, rng=2)
        scores = rng.normal(size=40)
        g1 = reinforce_grad(model, samples, scores)
        g2 = reinforce_grad(model, samples, scores + 123.456)
        assert np.abs(g1.as_vector() - g2.as_vector()).max() <= 1e-12

    def test_needs_two_samples(self):
        rng = np.random.default_rng(7)
        model = random_trip_model(rng, [2])
        with pytest.raises(ValueError):
            reinforce_grad(model, model.sample_batch(1, rng=0), [1.0])

    def test_matches_expectation_gradient(self):
        # d=1 model, f(z) = z^2: E[f] = sum_s w_s (mu_s^2 + sigma_s^2) is
        # analytic, so its parameter gradient has a finite-difference oracle
        model = trip.TripModel(
            [np.array([[[0.8]], [[-1.4]]])],
            [np.array([-0.6, 1.1])],
            [np.array([0.7, 1.2])],
        )

        def expect_zsq(vec):
            m = model_from_vector(model, vec)
            w = np.abs(m.cores.cores[0][:, 0, 0])
            w = w / w.sum()
            mu, sd = m.means[0], m.stds[0]
            return float((w * (mu**2 + sd**2)).sum())

        fd = oracle.numeric_grad(expect_zsq, param_vector(model), 1e-5)

        n = 300_000
        draws = model.sample_batch(n, rng=11)
        scores = draws[:, 0] ** 2
        est = reinforce_grad(model, draws, scores).as_vector()

        # per-sample terms for the standard-error bound, from the closed-form
        # d=1 score function
        q = model.cores.cores[0][:, 0, 0]
        absq = np.abs(q)
        mu, sd = model.means[0], model.stds[0]
        pdfs = np.exp(
            -0.5 * ((draws[:, 0][:, None] - mu) / sd) ** 2
        ) / (sd * np.sqrt(2 * np.pi))
        resp = absq * pdfs
        resp = resp / resp.sum(axis=1, keepdims=True)
        dlog_q = np.sign(q) * (resp / absq - 1.0 / absq.sum())
        dlog_mu = resp * (draws[:, 0][:, None] - mu) / sd**2
        dlog_ls = resp * (((draws[:, 0][:, None] - mu) / sd) ** 2 - 1.0)
        per_sample = np.hstack([dlog_q, dlog_mu, dlog_ls])
        centered = (scores - scores.mean())[:, None] * per_sample
        se = centered.std(axis=0) / np.sqrt(n)
        assert (np.abs(est - fd) <= 3 * se + 1e-12).all()

    @pytest.mark.parametrize("d,N,m,n", [(40, 4, 8, 64), (12, 3, 16, 200)])
    def test_memory_stays_below_three_buffers_per_position(self, d, N, m, n):
        # the forward matrices and the prefixes are d buffers of (n, m, m)
        # each; streaming the adjoints keeps the rest to a few buffers
        rng = np.random.default_rng(13)
        model = random_trip_model(rng, [N] * d, [m] * d)
        samples = model.sample_batch(n, rng=rng)
        scores = rng.normal(size=n)
        tracemalloc.start()
        try:
            reinforce_grad(model, samples, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * d * n * m * m * 8


class TestKlElbo:
    def test_kl_of_identical_gaussian_is_zero(self):
        model = trip.TripModel(
            [np.array([[[1.0]]]), np.array([[[1.0]]])],
            [np.array([0.2]), np.array([-0.5])],
            [np.array([1.1]), np.array([0.7])],
        )
        est = kl_and_elbo_mc(
            model, [0.2, -0.5], [1.1, 0.7], lambda z: 0.0, 10_000, rng=0
        )
        assert est["kl"] == pytest.approx(0.0, abs=1e-9)
        assert est["elbo"] == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_closed_form(self):
        mu = 0.9
        model = trip.TripModel([np.array([[[1.0]]])], [np.array([mu])], [np.array([1.0])])
        est = kl_and_elbo_mc(model, [0.0], [1.0], lambda z: 0.0, 10_000, rng=1)
        se = mu / np.sqrt(10_000)  # std of (log q - log p) is exactly mu here
        assert abs(est["kl"] - mu**2 / 2) <= 3 * se

    def test_elbo_includes_reconstruction_term(self):
        model = trip.TripModel([np.array([[[1.0]]])], [np.array([0.0])], [np.array([1.0])])
        est = kl_and_elbo_mc(model, [0.0], [1.0], lambda z: -2.5, 5_000, rng=2)
        assert est["elbo"] == pytest.approx(-2.5 - est["kl"], abs=1e-12)

    def test_matches_quadrature_2d(self):
        rng = np.random.default_rng(8)
        model = random_trip_model(rng, [2, 2], mean_scale=1.0)
        q_mean, q_std = np.array([0.3, -0.2]), np.array([0.8, 1.1])
        grid0 = np.linspace(q_mean[0] - 8 * q_std[0], q_mean[0] + 8 * q_std[0], 401)
        grid1 = np.linspace(q_mean[1] - 8 * q_std[1], q_mean[1] + 8 * q_std[1], 401)
        zz = np.array([[a, b] for a in grid0 for b in grid1])
        from trip.continuous import gaussian_logpdf

        log_q = gaussian_logpdf(zz, q_mean[None, :], np.log(q_std)[None, :]).sum(axis=1)
        log_p = model.log_densities([0, 1], zz)
        integrand = (np.exp(log_q) * (log_q - log_p)).reshape(401, 401)
        want = np.trapezoid(np.trapezoid(integrand, grid1, axis=1), grid0)

        n = 100_000
        est = kl_and_elbo_mc(model, q_mean, q_std, lambda z: 0.0, n, rng=3)
        gen = np.random.default_rng(3)
        eps = gen.standard_normal((n, 2))
        z = q_mean[None, :] + eps * q_std[None, :]
        terms = gaussian_logpdf(z, q_mean[None, :], np.log(q_std)[None, :]).sum(
            axis=1
        ) - model.log_densities([0, 1], z)
        se = terms.std() / np.sqrt(n)
        assert abs(est["kl"] - want) <= 3 * se

    def test_seed_invariance_in_expectation(self):
        rng = np.random.default_rng(9)
        model = random_trip_model(rng, [2, 2], mean_scale=1.0)
        ests, ses = [], []
        for seed in (10, 11):
            n = 100_000
            est = kl_and_elbo_mc(model, [0.0, 0.0], [1.0, 1.0], lambda z: 0.0, n, rng=seed)
            gen = np.random.default_rng(seed)
            z = gen.standard_normal((n, 2))
            from trip.continuous import gaussian_logpdf

            terms = gaussian_logpdf(z, 0.0, 0.0).sum(axis=1) - model.log_densities(
                [0, 1], z
            )
            ests.append(est["kl"])
            ses.append(terms.std() / np.sqrt(n))
        combined = np.hypot(*ses)
        assert abs(ests[0] - ests[1]) <= 4 * combined

    def test_validates_arguments(self):
        model = trip.TripModel([np.array([[[1.0]]])], [np.array([0.0])], [np.array([1.0])])
        with pytest.raises(ValueError):
            kl_and_elbo_mc(model, [0.0], [-1.0], lambda z: 0.0, 10, rng=0)
        with pytest.raises(ValueError):
            kl_and_elbo_mc(model, [0.0], [1.0], lambda z: 0.0, 0, rng=0)
        # a count is not truncated: 2.9 samples is not 2
        with pytest.raises(ValueError, match="num_samples: counts must be integers >= 1"):
            kl_and_elbo_mc(model, [0.0], [1.0], lambda z: 0.0, 2.9, rng=0)
        same = [kl_and_elbo_mc(model, [0.0], [1.0], lambda z: 0.0, n, rng=0)
                for n in (5, 5.0, np.int64(5))]
        assert same[0] == same[1] == same[2]
