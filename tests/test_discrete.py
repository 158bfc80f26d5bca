"""Marginals, conditionals, and sampling of the discrete ring distribution,
cross-checked against full enumeration."""

import numpy as np
import pytest
from conftest import random_core_set
from hypothesis import given, settings, strategies as st

import trip
from trip import oracle


def enumeration_logprob(cs, observed):
    dense = oracle.densify(cs)
    p = oracle.dense_marginal(dense, observed)
    return np.log(p) if p > 0 else -np.inf


class TestLogMarginal:
    def test_two_state_single_variable(self):
        cs = trip.CoreSet([np.array([[[1.0]], [[3.0]]])])
        assert cs.log_marginal({0: 1}) == pytest.approx(np.log(0.75), abs=1e-15)
        assert cs.log_marginal({0: 0}) == pytest.approx(np.log(0.25), abs=1e-15)

    def test_empty_mask_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        cs = random_core_set(rng, [3, 2, 4])
        assert cs.log_marginal({}) == 0.0
        assert cs.log_marginal() == 0.0

    def test_matches_enumeration_on_seeded_instance(self):
        rng = np.random.default_rng(5)
        cs = random_core_set(rng, [3, 3, 3, 3], sizes=[2, 2, 2, 2])
        got = cs.log_marginal({1: 1})
        assert got == pytest.approx(enumeration_logprob(cs, {1: 1}), rel=1e-12)

    def test_all_masks_match_enumeration(self):
        rng = np.random.default_rng(6)
        cs = random_core_set(rng, [2, 3, 2], sizes=[3, 2, 3])
        dense = oracle.densify(cs)
        for pattern in np.ndindex(2, 2, 2):
            dims = [k for k in range(3) if pattern[k]]
            counts = [cs.category_counts[k] for k in dims]
            for combo in np.ndindex(*counts):
                mask = dict(zip(dims, combo))
                want = oracle.dense_marginal(dense, mask)
                assert np.exp(cs.log_marginal(mask)) == pytest.approx(want, rel=1e-10)

    def test_degenerate_ring_raises(self):
        cs = trip.CoreSet([np.zeros((2, 2, 2))])
        with pytest.raises(trip.DegenerateDistributionError):
            cs.log_marginal({0: 0})

    def test_batched_equals_scalar(self):
        rng = np.random.default_rng(7)
        cs = random_core_set(rng, [3, 2, 3])
        # a -1 cell sums its variable out for that row only
        values = np.array([[0, 1], [2, 0], [1, 1], [-1, 2], [1, -1], [-1, -1], [2, 2]])
        batch = cs.log_marginals([0, 2], values)
        single = [cs.log_marginal({k: v for k, v in zip((0, 2), row) if v >= 0}) for row in values]
        np.testing.assert_array_equal(batch, single)


class TestLogConditional:
    def test_empty_given_equals_marginal(self):
        rng = np.random.default_rng(8)
        cs = random_core_set(rng, [3, 2])
        assert cs.log_conditional({0: 1}, {}) == cs.log_marginal({0: 1})

    def test_single_variable_reduces_to_marginal(self):
        cs = trip.CoreSet([np.array([[[1.0]], [[3.0]]])])
        assert cs.log_conditional({0: 1}, {}) == cs.log_marginal({0: 1})

    def test_matches_enumeration_ratio(self):
        rng = np.random.default_rng(9)
        cs = random_core_set(rng, [3, 3, 3, 3])
        got = cs.log_conditional({0: 2}, {2: 0})
        want = enumeration_logprob(cs, {0: 2, 2: 0}) - enumeration_logprob(cs, {2: 0})
        assert got == pytest.approx(want, rel=1e-12)

    def test_overlap_rejected(self):
        rng = np.random.default_rng(10)
        cs = random_core_set(rng, [2, 2])
        with pytest.raises(ValueError):
            cs.log_conditional({0: 1}, {0: 0})

    def test_conditioning_on_null_event(self):
        # second variable can only take value 0
        cs = trip.CoreSet([np.ones((2, 1, 1)), np.array([[[1.0]], [[0.0]]])])
        with pytest.raises(trip.ConditionOnNullError):
            cs.log_conditional({0: 0}, {1: 1})

    def test_chain_rule_consistency(self):
        rng = np.random.default_rng(11)
        cs = random_core_set(rng, [3, 2, 4], sizes=[2, 3, 2])
        given = {2: 1}
        total = sum(
            np.exp(cs.log_conditional({0: v}, given)) for v in range(3)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 5),
    data=st.data(),
)
def test_oracle_equivalence_property(seed, d, data):
    rng = np.random.default_rng(seed)
    counts = [data.draw(st.integers(1, 4)) for _ in range(d)]
    sizes = [data.draw(st.integers(1, 3)) for _ in range(d)]
    cs = random_core_set(rng, counts, sizes)
    mask = {
        k: int(rng.integers(counts[k])) for k in range(d) if rng.random() < 0.5
    }
    want = oracle.dense_marginal(oracle.densify(cs), mask)
    assert np.exp(cs.log_marginal(mask)) == pytest.approx(want, rel=1e-10)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), scale=st.sampled_from([1e-3, 0.5, 3.0, 1e4]))
def test_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    cs = random_core_set(rng, [2, 3, 2])
    k = int(rng.integers(3))
    scaled = trip.CoreSet(
        [c * scale if j == k else c for j, c in enumerate(cs.cores)]
    )
    mask = {0: 1, 2: 0}
    assert abs(scaled.log_marginal(mask) - cs.log_marginal(mask)) <= 1e-12
    assert abs(
        scaled.log_conditional({0: 1}, {2: 0}) - cs.log_conditional({0: 1}, {2: 0})
    ) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_sign_invariance(seed):
    rng = np.random.default_rng(seed)
    cs = random_core_set(rng, [3, 2])
    flips = [np.sign(rng.standard_normal(c.shape)) for c in cs.cores]
    flipped = trip.CoreSet([c * f for c, f in zip(cs.cores, flips)])
    mask = {0: 2}
    assert flipped.log_marginal(mask) == cs.log_marginal(mask)


class TestStability:
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_core_rescaling(self, scale):
        rng = np.random.default_rng(12)
        cs = random_core_set(rng, [3, 2, 3, 2])
        mask = {0: 1, 3: 0}
        base = cs.log_marginal(mask)
        scaled = trip.CoreSet(
            [c * scale if k == 1 else c for k, c in enumerate(cs.cores)]
        )
        got = scaled.log_marginal(mask)
        assert np.isfinite(got)
        assert abs(got - base) <= 1e-12

    def test_all_cores_rescaled(self):
        rng = np.random.default_rng(13)
        cs = random_core_set(rng, [2, 2, 2, 2, 2])
        scaled = trip.CoreSet([c * 1e100 for c in cs.cores])
        assert scaled.log_marginal({0: 1}) == pytest.approx(
            cs.log_marginal({0: 1}), abs=1e-11
        )


class TestSampling:
    def test_all_given_returns_unchanged(self):
        rng = np.random.default_rng(14)
        cs = random_core_set(rng, [3, 2, 4])
        draw = cs.sample({0: 2, 1: 0, 2: 3}, rng=0)
        np.testing.assert_array_equal(draw, [2, 0, 3])

    def test_two_state_frequency(self):
        cs = trip.CoreSet([np.array([[[1.0]], [[3.0]]])])
        draws = cs.sample_batch(100_000, rng=42)
        freq = draws.mean()
        sigma = np.sqrt(0.75 * 0.25 / 100_000)
        assert abs(freq - 0.75) <= 3 * sigma

    def test_joint_frequencies_match_enumeration(self):
        rng = np.random.default_rng(15)
        cs = random_core_set(rng, [3, 3, 3, 3])
        dense = oracle.densify(cs)
        n = 50_000
        draws = cs.sample_batch(n, rng=100)
        counts = np.zeros((3,) * 4)
        np.add.at(counts, tuple(draws.T), 1)
        p = dense.probs
        dev = np.abs(counts - n * p) / np.sqrt(n * p * (1 - p))
        assert dev.max() <= 3.5

    def test_conditional_sampling_respects_given(self):
        rng = np.random.default_rng(16)
        cs = random_core_set(rng, [3, 3, 3])
        draws = cs.sample_batch(20_000, {1: 2}, rng=7)
        assert (draws[:, 1] == 2).all()
        dense = oracle.densify(cs)
        cond = dense.probs[:, 2, :] / dense.probs[:, 2, :].sum()
        counts = np.zeros((3, 3))
        np.add.at(counts, (draws[:, 0], draws[:, 2]), 1)
        n = len(draws)
        dev = np.abs(counts - n * cond) / np.sqrt(n * cond * (1 - cond))
        assert dev.max() <= 3.5

    def test_reproducible_under_seed(self):
        rng = np.random.default_rng(17)
        cs = random_core_set(rng, [3, 2, 3])
        a = cs.sample_batch(50, rng=123)
        b = cs.sample_batch(50, rng=123)
        np.testing.assert_array_equal(a, b)

    def test_single_draw_matches_batch_head(self):
        rng = np.random.default_rng(18)
        cs = random_core_set(rng, [3, 2])
        one = cs.sample(rng=np.random.default_rng(9))
        head = cs.sample_batch(1, rng=np.random.default_rng(9))[0]
        np.testing.assert_array_equal(one, head)

    def test_conditioning_on_null_raises(self):
        cs = trip.CoreSet([np.ones((2, 1, 1)), np.array([[[1.0]], [[0.0]]])])
        with pytest.raises(trip.ConditionOnNullError):
            cs.sample({1: 1}, rng=0)
        with pytest.raises(trip.ConditionOnNullError):  # no position left to draw
            cs.sample({0: 0, 1: 1}, rng=0)
