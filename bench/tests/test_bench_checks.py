"""Every check passes on the program's real outputs and fails on a corrupted copy."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import trip
from reference import RefModel, diag_gauss_loglik
from tracer import LAYER_UNITS, layer_metrics

D = 6


@pytest.fixture(scope="module")
def params():
    rng = np.random.default_rng(7)
    p = inputs.random_params(rng, D, 3, 3)
    p["means"][0] -= 6.0  # dims 0 and 1 far apart, so swapping them shows
    p["means"][1] += 6.0
    p["attr_cores"], p["perm"] = [], list(range(D))
    return p


@pytest.fixture(scope="module")
def model(params):
    return trip.TripModel(params["cores"], params["means"], log_stds=params["log_stds"])


@pytest.fixture(scope="module")
def rows(params):
    return inputs.mixture_rows(np.random.default_rng(8), params, 32)


def off_by(values, i, rel):
    out = np.array(values, dtype=float)
    out[i] *= 1.0 + rel
    return out


def test_log_densities_against_reference(params, model, rows):
    ref = RefModel(params)
    hidden = rows.copy()
    hidden[:, 1::2] = np.nan
    for got, want in (
        (model.log_densities(range(D), rows), [ref.log_density(r) for r in rows]),
        (model.log_densities(range(0, D, 2), rows[:, ::2]), [ref.log_density(r) for r in hidden]),
    ):
        assert checks.close("x", got, want) == []
        assert checks.close("x", off_by(got, 3, 1e-6), want)
        assert checks.close("x", np.delete(got, 5), want)
        assert checks.count("x", np.delete(got, 5), len(want))


def test_rotated_ring(params, model, rows):
    order = [(k + 2) % D for k in range(D)]
    rotated = trip.TripModel([params["cores"][k] for k in order], [params["means"][k] for k in order],
                             log_stds=[params["log_stds"][k] for k in order])
    want = model.log_densities(range(D), rows)
    got = rotated.log_densities(range(D), rows[:, order])
    assert checks.close("x", got, want) == []
    assert checks.close("x", off_by(got, 0, 1e-6), want)


def test_sample_means(params, model):
    mean, var = RefModel(params).latent_moments()
    draws = model.sample_batch(4000, rng=1)
    assert checks.sample_means("x", draws, mean, var, 4000) == []
    assert checks.sample_means("x", draws[:, [1, 0] + list(range(2, D))], mean, var, 4000)
    assert checks.sample_means("x", draws[1:], mean, var, 4000)


def test_conditional_resample(params, model, rows):
    redraw, kept = [0, 2, 4], [1, 3, 5]
    gen = np.random.default_rng(2)
    outs = np.array([model.conditional_resample(r, redraw, rng=gen) for r in rows])
    assert checks.kept_exact("x", rows, outs, kept) == []
    bumped = outs.copy()
    bumped[4, 3] = np.nextafter(bumped[4, 3], np.inf)
    assert checks.kept_exact("x", rows, bumped, kept)
    assert checks.kept_exact("x", rows, outs[:-1], kept)

    ref = RefModel(params)
    fixed = rows.copy()
    fixed[:, redraw] = np.nan
    moments = [ref.latent_moments(f) for f in fixed]
    means, variances = [m for m, _ in moments], [v for _, v in moments]
    assert checks.standardized_sum("x", outs, means, variances) == []
    swapped = outs.copy()
    swapped[:, [0, 2]] = swapped[:, [2, 0]]
    assert checks.standardized_sum("x", swapped, means, variances)


def test_attribute_summed_out(params):
    rng = np.random.default_rng(3)
    attr = rng.standard_normal((3, 3, 3))
    joint = trip.JointModel(trip.TripModel(params["cores"], params["means"],
                                           log_stds=params["log_stds"]), [attr], [0, 1, 6, 2, 3, 4, 5])
    z = np.zeros((4, D))
    attrs = np.array([[0], [1], [2], [-1]])
    values = joint.log_joints(range(D), z, attrs)
    lse = [np.logaddexp.reduce(values[:3])]
    assert checks.close("x", lse, values[3:]) == []
    assert checks.close("x", lse, off_by(values[3:], 0, 1e-6))


def test_gradient(params, model, rows):
    analytic, fd, value = checks.gradient_pairs(trip, model, params, rows[0])
    assert value == []
    assert checks.gradient_match("x", analytic, fd) == []
    big = int(np.argmax(np.abs(fd)))
    assert checks.gradient_match("x", off_by(analytic, big, 1e-4), fd)


def test_fit_beats_baseline(params):
    rng = np.random.default_rng(4)
    centers = inputs.cluster_centers(rng, D)
    train = inputs.cluster_rows(rng, centers, 512)[0]
    heldout = inputs.cluster_rows(rng, centers, 64)[0]
    fitted = trip.fit_mle(train, 4, 3, trip.FitConfig(learning_rate=0.01, epochs=3, seed=0))
    good = {"cores": list(fitted.cores.cores), "means": list(fitted.means),
            "log_stds": list(fitted.log_stds), "attr_cores": [], "perm": list(range(D))}
    baseline = diag_gauss_loglik(train, heldout)

    def ll(p):
        ref = RefModel(p)
        return float(np.mean([ref.log_density(h) for h in heldout]))

    assert checks.beats("x", ll(good), baseline) == []
    broken = dict(good, means=[m + 5.0 for m in good["means"]])
    assert checks.beats("x", ll(broken), baseline)


def test_traced_cli_reports_layers(tmp_path, params):
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = tmp_path / "m.json"
    inputs.write_continuous(path, params)
    inputs.write_csv(tmp_path / "d.csv", inputs.mixture_rows(np.random.default_rng(5), params, 8))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path[:2]))
    out = subprocess.run(
        [sys.executable, os.path.join(bench, "traced_cli.py"), str(spans_path), "round",
         "logprob", "--model", str(path), "--data", str(tmp_path / "d.csv")],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.splitlines()[-1].startswith("mean,")
    with open(spans_path) as fh:
        traced = json.load(fh)
    assert traced["missing"] == []
    layers = layer_metrics([traced["spans"]], 1)
    assert set(layers) <= set(LAYER_UNITS)
    for name in ("chain.multiply_s", "continuous.weights_s", "modelfile.load_s",
                 "cli.read_rows_s", "cli.self_s", "cores.normalizer_s"):
        assert layers[name] > 0, name
    assert layers["chain.products"] == 9 * D  # rows x positions, plus the normalizer
    assert layers["joint.log_joints_s"] == 0
