"""Joint latent-attribute ring: evaluation, consistency, and sampling."""

import numpy as np
import pytest
import scipy.stats
from conftest import random_core_set, random_joint_model, random_trip_model

import trip
from trip import oracle
from trip.continuous import gaussian_logpdf


def joint_mode_table(model):
    """Exhaustive (weight, means, stds, attrs) rows over modes x attributes."""
    counts = model.trip.component_counts
    cards = model.cardinalities
    ring_order = model.permutation
    rows = []
    for s in np.ndindex(*counts):
        for y in np.ndindex(*cards):
            mats = []
            for v in ring_order:
                if v < model.d:
                    mats.append(np.abs(model.trip.cores.cores[v][s[v]]))
                else:
                    mats.append(np.abs(model.attribute_cores[v - model.d][y[v - model.d]]))
            w = mats[0]
            for m in mats[1:]:
                w = w @ m
            rows.append((float(np.trace(w)), s, y))
    total = sum(r[0] for r in rows)
    return [(w / total, s, y) for w, s, y in rows]


def oracle_log_joint(model, z_obs, attrs):
    total = 0.0
    for w, s, y in joint_mode_table(model):
        if any(y[i] != v for i, v in attrs.items()):
            continue
        p = w
        for j, zv in z_obs.items():
            mu = model.trip.means[j][s[j]]
            sd = model.trip.stds[j][s[j]]
            p *= float(np.exp(gaussian_logpdf(zv, mu, np.log(sd))))
        total += p
    return np.log(total) if total > 0 else -np.inf


class TestMakePermutation:
    def test_golden_value(self):
        # an integral float or a numpy integer counts as d
        for d in (3, 3.0, np.int64(3)):
            np.testing.assert_array_equal(trip.make_permutation(d, 2, 7), [2, 0, 4, 1, 3])

    def test_deterministic(self):
        np.testing.assert_array_equal(
            trip.make_permutation(5, 3, 123), trip.make_permutation(5, 3, 123)
        )

    def test_no_attributes(self):
        perm = trip.make_permutation(4, 0, 0)
        assert sorted(perm.tolist()) == [0, 1, 2, 3]

    def test_is_bijection(self):
        perm = trip.make_permutation(6, 4, 99)
        assert sorted(perm.tolist()) == list(range(10))

    def test_rejects_bad_counts(self):
        for d, c in ((2.5, 1), (1, 0.5), (-1, 2), (2, -1)):
            with pytest.raises(ValueError, match="counts must be integers >= 0"):
                trip.make_permutation(d, c, 0)


class TestConstruction:
    def test_rejects_bad_permutation(self):
        rng = np.random.default_rng(0)
        model = random_trip_model(rng, [2, 2])
        with pytest.raises(ValueError):
            trip.JointModel(model, [rng.standard_normal((2, 2, 2))], [0, 1, 1])

    def test_rejects_incompatible_ring(self):
        rng = np.random.default_rng(1)
        model = random_trip_model(rng, [2, 2])
        # unchained, non-finite and 2-D attribute cores
        for core in (rng.standard_normal((2, 3, 3)), np.full((2, 2, 2), np.nan), np.ones((2, 2))):
            with pytest.raises(trip.CoreShapeError):
                trip.JointModel(model, [core], [0, 1, 2])

    def test_leaves_callers_permutation_writable(self):
        rng = np.random.default_rng(2)
        model = random_trip_model(rng, [2, 2])
        perm = trip.make_permutation(2, 1, 0)
        jm = trip.JointModel(model, [rng.standard_normal((2, 2, 2))], perm)
        perm[0] = perm[0]
        assert not jm.permutation.flags.writeable
        fit_perm = np.array([0, 2, 1])
        trip.fit_joint_mle(rng.normal(size=(8, 2)), np.zeros((8, 1), dtype=int), [2], 1, 1,
                           trip.FitConfig(epochs=1), permutation=fit_perm)
        fit_perm[0] = fit_perm[0]

    def test_attribute_names_default(self):
        rng = np.random.default_rng(2)
        jm = random_joint_model(rng, [2, 2], [2, 3])
        assert jm.attribute_names == ("attr0", "attr1")
        assert jm.cardinalities == (2, 3)


class TestReductionToContinuous:
    def test_log_joint_bit_equal(self):
        rng = np.random.default_rng(3)
        model = random_trip_model(rng, [2, 3, 2])
        jm = trip.JointModel(model, [], [0, 1, 2])
        for mask in ({}, {0: 0.3}, {0: 0.3, 1: -1.0, 2: 0.2}):
            assert jm.log_joint(mask, {}) == model.log_density(mask)

    def test_sampling_bit_equal(self):
        rng = np.random.default_rng(4)
        model = random_trip_model(rng, [2, 2])
        jm = trip.JointModel(model, [], [0, 1])
        a = model.sample_batch(20, rng=np.random.default_rng(8))
        b = jm.sample_given_attrs_batch(20, {}, rng=np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)


class TestLogJoint:
    def test_all_attributes_missing_marginalizes(self):
        # with every attribute summed out the ring reduces to a latent-only
        # chain interleaved with constant matrices; compare against the
        # exhaustive mode x attribute table
        rng = np.random.default_rng(5)
        jm = random_joint_model(rng, [2, 2], [2])
        mask = {0: 0.5, 1: -0.3}
        want = oracle_log_joint(jm, mask, {})
        assert jm.log_joint(mask, {}) == pytest.approx(want, rel=1e-10)

    def test_matches_exhaustive_table(self):
        rng = np.random.default_rng(6)
        jm = random_joint_model(rng, [2, 2], [2, 2])
        cases = [
            ({0: 0.4, 1: -0.9}, {0: 1, 1: 0}),
            ({0: 0.4}, {1: 1}),
            ({}, {0: 0, 1: 1}),
            ({1: 2.0}, {}),
        ]
        for z_obs, attrs in cases:
            want = oracle_log_joint(jm, z_obs, attrs)
            assert jm.log_joint(z_obs, attrs) == pytest.approx(want, rel=1e-10)

    def test_empty_call_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        jm = random_joint_model(rng, [2, 2], [3])
        assert jm.log_joint({}, {}) == 0.0

    def test_marginal_consistency(self):
        rng = np.random.default_rng(8)
        for seed in range(3):
            jm = random_joint_model(np.random.default_rng(seed), [2, 2], [2, 3])
            z = {0: float(rng.normal())}
            for i in range(jm.c):
                total = sum(
                    np.exp(jm.log_joint(z, {i: y})) for y in range(jm.cardinalities[i])
                )
                marg = np.exp(jm.log_joint(z, {}))
                assert total == pytest.approx(marg, rel=1e-10)

    def test_attribute_value_out_of_range(self):
        rng = np.random.default_rng(9)
        jm = random_joint_model(rng, [2], [2])
        with pytest.raises(ValueError):
            jm.log_joint({}, {0: 2})

    def test_batched_rejects_blocks_of_unequal_rows(self):
        rng = np.random.default_rng(9)
        jm = random_joint_model(rng, [2, 2], [2])
        with pytest.raises(ValueError, match="one n for every block"):
            jm.log_joints(range(2), np.zeros((2, 2)), np.zeros((3, 1), dtype=int))

    def test_batched_columns_are_views_of_the_callers_arrays(self):
        rng = np.random.default_rng(9)
        jm = random_joint_model(rng, [2, 2, 2], [2, 3])
        z, attrs = rng.normal(size=(4, 3)), np.zeros((4, 2), dtype=int)
        cols = jm._table.columns((range(3), z), (range(3, 5), attrs))
        for v, p in enumerate(jm.permutation.tolist().index(v) for v in range(5)):
            assert np.shares_memory(cols[p], z if v < 3 else attrs)

    @pytest.mark.parametrize("dims", [[7], [-1], [3], [0, 0], [999], [0.5]])
    def test_batched_rejects_bad_latent_dims(self, dims):
        # an unchecked index would drop its column and silently sum it out;
        # indices are checked before an empty batch returns, in every model
        rng = np.random.default_rng(9)
        jm = random_joint_model(rng, [2, 2, 2], [2])
        for n in (1, 0):
            with pytest.raises(ValueError):
                jm.log_joints(dims, np.full((n, len(dims)), 0.5), np.full((n, 1), -1))
            if dims != [3]:  # column 3 is the attribute of the joint table only
                with pytest.raises(ValueError):
                    jm.trip.log_densities(dims, np.full((n, len(dims)), 0.5))
                with pytest.raises(ValueError):
                    jm.trip.cores.log_marginals(dims, np.zeros((n, len(dims)), dtype=int))

    def test_permutation_changes_values_not_invariants(self):
        rng = np.random.default_rng(10)
        model = random_trip_model(rng, [2, 2])
        attr_cores = [rng.standard_normal((2, 2, 2))]
        a = trip.JointModel(model, attr_cores, [0, 1, 2])
        b = trip.JointModel(model, attr_cores, [0, 2, 1])
        z = {0: 0.2, 1: -0.5}
        assert a.log_joint(z, {0: 1}) != b.log_joint(z, {0: 1})
        for jm in (a, b):
            total = sum(np.exp(jm.log_joint(z, {0: y})) for y in range(2))
            assert total == pytest.approx(np.exp(jm.log_joint(z, {})), rel=1e-10)
            assert jm.log_joint({}, {}) == 0.0


def test_non_integral_categorical_cells_rejected():
    # each entry point once, with one cell of 1.7 where an integer belongs
    rng = np.random.default_rng(15)
    jm = random_joint_model(rng, [2, 2], [3])
    cs = random_core_set(rng, [3, 3])
    cases = [
        lambda: cs.log_marginal({0: 1.7}),
        lambda: cs.log_marginals([1], np.array([[0.0], [1.7]])),
        lambda: cs.unnormalized_weight([0, 1.7]),
        lambda: cs.sample({0: 1.7}, rng=0),
        lambda: cs.sample_batch(2, {0: 1.7}, rng=0),
        lambda: jm.log_joint({0: 0.1}, {0: 1.7}),
        lambda: jm.log_joints([0], np.array([[0.1], [0.2]]), np.array([[0.0], [1.7]])),
        lambda: jm.sample_given_attrs({0: 1.7}, rng=0),
        lambda: jm.sample_given_attrs_batch(2, {0: 1.7}, rng=0),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="integers in -1"):
            case()
    # an integral float is a category and -1 sums its cell out, as in the CLI's cells
    assert cs.log_marginal({0: 1.0}) == cs.log_marginal({0: 1})
    assert cs.log_marginal({0: -1, 1: 2}) == cs.log_marginal({1: 2})
    assert jm.log_joint({0: 0.1}, {0: -1}) == jm.log_joint({0: 0.1})


def test_negative_sample_count_rejected():
    # one check in the table's sampler, for all three models
    jm = random_joint_model(np.random.default_rng(24), [2, 2], [2])
    for sample in (jm.trip.sample_batch, jm.trip.cores.sample_batch, jm.sample_given_attrs_batch):
        with pytest.raises(ValueError, match="n: counts must be integers >= 0"):
            sample(-1, rng=0)
        # a count is not truncated: 2.5 rows is no count at all
        with pytest.raises(ValueError, match="n: counts must be integers >= 0"):
            sample(2.5, rng=0)
        assert sample(0, rng=0).shape[0] == 0
        # an integral float or a numpy integer is a count
        np.testing.assert_array_equal(sample(2.0, rng=0), sample(np.int64(2), rng=0))


class TestAttrGivenZ:
    def test_all_missing_is_zero(self):
        rng = np.random.default_rng(11)
        jm = random_joint_model(rng, [2, 2], [2])
        assert jm.log_attr_given_z(np.array([0.1, 0.2]), {}) == 0.0

    def test_binary_attribute_normalizes(self):
        rng = np.random.default_rng(12)
        jm = random_joint_model(rng, [2, 2], [2])
        z = np.array([0.1, -0.7])
        total = sum(np.exp(jm.log_attr_given_z(z, {0: y})) for y in range(2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_exhaustive_ratio(self):
        rng = np.random.default_rng(13)
        jm = random_joint_model(rng, [2, 2], [2, 2])
        z = np.array([0.4, -0.2])
        attrs = {1: 1}
        z_mask = dict(enumerate(z))
        want = oracle_log_joint(jm, z_mask, attrs) - oracle_log_joint(jm, z_mask, {})
        assert jm.log_attr_given_z(z, attrs) == pytest.approx(want, rel=1e-10)

    def test_requires_full_z(self):
        rng = np.random.default_rng(14)
        jm = random_joint_model(rng, [2, 2], [2])
        with pytest.raises(ValueError):
            jm.log_attr_given_z(np.array([0.1]), {})


class TestSampleGivenAttrs:
    def test_no_attrs_matches_unconditional_distribution(self):
        rng = np.random.default_rng(15)
        jm = random_joint_model(rng, [2, 2], [2])
        draws = jm.sample_given_attrs_batch(60_000, {}, rng=5)
        table = joint_mode_table(jm)
        mean = np.zeros(2)
        for w, s, _ in table:
            for j in range(2):
                mean[j] += w * jm.trip.means[j][s[j]]
        se = draws.std(axis=0) / np.sqrt(len(draws))
        assert (np.abs(draws.mean(axis=0) - mean) <= 4 * se).all()

    def test_conditional_histogram_chi_square(self):
        # the second model's attribute 1 is left missing, so the sampler sums it out
        for cards in ([2], [2, 3]):
            rng = np.random.default_rng(16)
            jm = random_joint_model(rng, [1], cards, sizes=[2])
            y = {0: 1}
            draws = jm.sample_given_attrs_batch(8000, y, rng=6)[:, 0]
            # oracle conditional: mode weights restricted to the observed slice,
            # summed over the values of any missing attribute
            table = [(w, s) for w, s, yy in joint_mode_table(jm) if yy[0] == 1]
            total = sum(w for w, _ in table)
            w = np.array([wv / total for wv, _ in table])
            mu = np.array([jm.trip.means[0][s[0]] for _, s in table])
            sd = np.array([jm.trip.stds[0][s[0]] for _, s in table])
            edges = np.quantile(draws, np.linspace(0, 1, 21))
            edges[0], edges[-1] = -np.inf, np.inf
            probs = np.diff(
                [float((w * scipy.stats.norm.cdf(e, mu, sd)).sum()) for e in edges]
            )
            expected = len(draws) * probs
            counts, _ = np.histogram(draws, edges)
            chi2 = ((counts - expected) ** 2 / expected).sum()
            assert chi2 <= scipy.stats.chi2.ppf(0.99, len(counts) - 1)

    def test_uninformative_attribute_changes_nothing(self):
        # an attribute whose slices are identical says nothing about z, so
        # conditioning on it reproduces the unconditional distribution
        rng = np.random.default_rng(17)
        model = random_trip_model(rng, [2, 2])
        slice_ = rng.standard_normal((1, 2, 2))
        attr_core = np.concatenate([slice_, slice_], axis=0)
        jm = trip.JointModel(model, [attr_core], [0, 1, 2])
        a = jm.sample_given_attrs_batch(9, {0: 1}, rng=np.random.default_rng(3))
        b = jm.sample_given_attrs_batch(9, {}, rng=np.random.default_rng(3))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_null_conditioning_raises(self):
        rng = np.random.default_rng(18)
        model = random_trip_model(rng, [2, 2])
        dead = np.stack([np.ones((2, 2)), np.zeros((2, 2))])
        jm = trip.JointModel(model, [dead], [0, 1, 2])
        with pytest.raises(trip.ConditionOnNullError):
            jm.sample_given_attrs({0: 1}, rng=0)

    def test_reproducible(self):
        rng = np.random.default_rng(19)
        jm = random_joint_model(rng, [2, 2], [2])
        np.testing.assert_array_equal(
            jm.sample_given_attrs_batch(7, {0: 0}, rng=11),
            jm.sample_given_attrs_batch(7, {0: 0}, rng=11),
        )


class TestStability:
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_mixed_ring_core_rescaling(self, scale):
        rng = np.random.default_rng(21)
        jm = random_joint_model(rng, [2, 3, 2], [2, 3])
        cores = [c * scale if k == 1 else c for k, c in enumerate(jm.trip.cores.cores)]
        attrs = [a * scale if i == 0 else a for i, a in enumerate(jm.attribute_cores)]
        latent = trip.TripModel(cores, jm.trip.means, log_stds=jm.trip.log_stds)
        scaled = trip.JointModel(latent, attrs, jm.permutation)
        z = rng.normal(size=(6, 3))
        y = np.array([[0, -1], [1, 2], [-1, 0], [-1, -1], [1, 1], [0, 2]])
        for dims in ([0, 1, 2], [0, 2]):
            got = scaled.log_joints(dims, z[:, dims], y)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, jm.log_joints(dims, z[:, dims], y), rtol=0, atol=1e-12)
        _, want = trip.grad_log_density(jm.trip, z[0])
        _, got = trip.grad_log_density(scaled.trip, z[0])
        for a, b in zip(got.d_means + got.d_log_stds, want.d_means + want.d_log_stds):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestJointFitting:
    def test_learns_attribute_correlation_with_missing_labels(self):
        rng = np.random.default_rng(20)
        n = 3000
        comp = rng.integers(0, 2, size=n)
        z = np.column_stack(
            [
                np.where(comp == 1, 1.0, -1.0) + 0.3 * rng.standard_normal(n),
                rng.standard_normal(n),
            ]
        )
        attrs = comp[:, None].astype(int)
        attrs[rng.random(n) < 0.6] = -1  # drop 60% of the labels
        cfg = trip.FitConfig(learning_rate=0.02, epochs=40, batch_size=256, seed=4)
        jm = trip.fit_joint_mle(z, attrs, [2], 2, 2, cfg)
        # attribute probability should track the first coordinate's sign
        hi = jm.log_attr_given_z(np.array([1.0, 0.0]), {0: 1})
        lo = jm.log_attr_given_z(np.array([-1.0, 0.0]), {0: 1})
        assert np.exp(hi) > 0.8
        assert np.exp(lo) < 0.2

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 5], [0, 1]])
    def test_rejects_bad_permutation_before_fitting(self, perm):
        rng = np.random.default_rng(21)
        epochs = []
        with pytest.raises(ValueError, match="bijection on 0..2"):
            trip.fit_joint_mle(
                rng.normal(size=(10, 2)), np.zeros((10, 1), dtype=int), [2], 1, 1,
                trip.FitConfig(epochs=1), permutation=perm,
                on_epoch=lambda e, nll: epochs.append(e),
            )
        assert epochs == []

    def test_validates_attribute_values(self):
        with pytest.raises(ValueError):
            trip.fit_joint_mle(
                np.zeros((10, 1)), np.full((10, 1), 5), [2], 1, 1, trip.FitConfig(epochs=1)
            )
        # the fit takes the cells of its model's table: a 1.7 label is no
        # category, and a nan latent no real value
        z, y = np.linspace(-1.0, 1.0, 10)[:, None], np.zeros((10, 1))
        labels, latents = y.copy(), z.copy()
        labels[3], latents[4] = 1.7, np.nan
        epochs = []
        for cells in ((z, labels), (latents, y)):
            with pytest.raises(ValueError, match="column [01]: "):
                trip.fit_joint_mle(*cells, [2], 1, 1, trip.FitConfig(epochs=1),
                                   on_epoch=lambda e, nll: epochs.append(e))
        assert epochs == []
