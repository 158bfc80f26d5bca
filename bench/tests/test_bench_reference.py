"""The reference walk against brute-force enumeration on tiny rings."""

import itertools

import numpy as np
import pytest

import inputs
from reference import RefModel, gauss_logpdf


def tiny_joint(seed, d=3, cards=(3,), m=2, n_comp=2):
    rng = np.random.default_rng(seed)
    params = inputs.random_params(rng, d, n_comp, m)
    params["attr_cores"] = [rng.standard_normal((c, m, m)) for c in cards]
    params["perm"] = list(rng.permutation(d + len(cards)))
    return params


def brute_force(params, z, attrs):
    """Density of the observed latents and attributes, and the moments of free latents."""
    d = len(params["cores"])
    cores = [np.abs(c) for c in params["cores"]] + [np.abs(c) for c in params["attr_cores"]]
    total = num = 0.0
    first = np.zeros(d)
    second = np.zeros(d)
    for choice in itertools.product(*[range(c.shape[0]) for c in cores]):
        weight = np.trace(np.linalg.multi_dot([np.eye(cores[0].shape[1])]
                                              + [cores[v][choice[v]] for v in params["perm"]]))
        total += weight
        if any(a >= 0 and choice[d + i] != a for i, a in enumerate(attrs)):
            continue
        like = weight
        for k in range(d):
            if not np.isnan(z[k]):
                like *= np.exp(gauss_logpdf(z[k], params["means"][k][choice[k]],
                                            params["log_stds"][k][choice[k]]))
        num += like
        mu = np.array([params["means"][k][choice[k]] for k in range(d)])
        sd2 = np.array([np.exp(2 * params["log_stds"][k][choice[k]]) for k in range(d)])
        first += like * mu
        second += like * (sd2 + mu * mu)
    mean = first / num
    return np.log(num / total), mean, second / num - mean**2


CASES = [
    ([0.3, -1.0, 2.0], [1]),
    ([0.3, np.nan, 2.0], [-1]),
    ([np.nan, np.nan, -0.5], [2]),
    ([np.nan, np.nan, np.nan], [-1]),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("z, attrs", CASES)
def test_log_density_matches_enumeration(seed, z, attrs):
    params = tiny_joint(seed)
    want, _, _ = brute_force(params, np.array(z), attrs)
    got = RefModel(params).log_density(z, attrs)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("z, attrs", CASES[1:])
def test_latent_moments_match_enumeration(seed, z, attrs):
    params = tiny_joint(seed)
    z = np.array(z)
    _, want_mean, want_var = brute_force(params, z, attrs)
    mean, var = RefModel(params).latent_moments(z, attrs)
    free = np.isnan(z)
    assert np.all(np.isnan(mean[~free]))
    np.testing.assert_allclose(mean[free], want_mean[free], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(var[free], want_var[free], rtol=1e-12, atol=1e-12)


def test_continuous_file_reads_as_identity_ring(tmp_path):
    params = inputs.random_params(np.random.default_rng(3), 3, 2, 2)
    inputs.write_continuous(tmp_path / "m.json", params)
    back = inputs.read_model(tmp_path / "m.json")
    assert back["perm"] == [0, 1, 2] and back["attr_cores"] == []
    for key in ("cores", "means", "log_stds"):
        for a, b in zip(params[key], back[key]):
            assert np.array_equal(a, b)


def test_reference_survives_extreme_scale():
    params = tiny_joint(4)
    ref = RefModel(params)
    scaled = dict(params, cores=[c * 1e150 for c in params["cores"]])
    z = [0.1, 0.2, np.nan]
    assert RefModel(scaled).log_density(z, [0]) == pytest.approx(ref.log_density(z, [0]), rel=1e-12)
