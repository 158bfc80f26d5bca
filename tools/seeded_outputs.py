"""Print one ``name sha256`` line per seeded output of the ``trip`` package.

Every output is computed from fixed seeds through the public API or the CLI,
so two trees that compute the same bits print the same lines. Run it once per
tree and compare::

    PYTHONPATH=path/to/base/src python3 tools/seeded_outputs.py > base.txt
    PYTHONPATH=src python3 tools/seeded_outputs.py > head.txt
    diff base.txt head.txt && echo "all identical"

The ``trip`` imported is whichever one ``PYTHONPATH`` finds first. The list
covers the samplers with and without fixed cells, batched evaluation with
``-1`` cells and integer latents, the two benchmark shapes, small fits (with
labels as ints, integral floats and nested lists), counts given as numpy
integers or integral floats, the gradient, the KL estimate, and the
stdout (and written model files) of ``trip fit``, ``sample`` and ``logprob``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

import trip
from trip import cli


def digest(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, str):
        h.update(value.encode())
    else:
        a = np.asarray(value)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def random_trip(seed: int, d: int, n_comp: int, m: int) -> trip.TripModel:
    rng = np.random.default_rng(seed)
    return trip.TripModel(
        [rng.standard_normal((n_comp, m, m)) for _ in range(d)],
        [rng.normal(0.0, 2.0, n_comp) for _ in range(d)],
        [rng.uniform(0.5, 1.5, n_comp) for _ in range(d)],
    )


def random_joint(seed: int, d: int, cards: list[int], m: int) -> trip.JointModel:
    rng = np.random.default_rng(seed)
    model = random_trip(seed + 1, d, 3, m)
    perm = trip.make_permutation(d, len(cards), rng)
    return trip.JointModel(model, [rng.standard_normal((c, m, m)) for c in cards], perm)


def flat_grad(grad: trip.GradPsi) -> np.ndarray:
    return np.concatenate([a.ravel() for group in (grad.d_cores, grad.d_means, grad.d_log_stds)
                           for a in group])


def discrete_outputs():
    rng = np.random.default_rng(10)
    counts = [3, 2, 4, 3, 2, 3]
    cs = trip.CoreSet([rng.standard_normal((c, 3, 3)) for c in counts])
    values = np.array([[0, 1, 2], [-1, 0, 1], [2, -1, -1], [1, 1, 0], [-1, -1, -1]])
    yield "discrete.log_marginals", cs.log_marginals([0, 1, 5], values)
    yield "discrete.log_marginal", cs.log_marginal({1: 1, 3: 2})
    yield "discrete.log_conditional", cs.log_conditional({0: 2}, {4: 1})
    yield "discrete.unnormalized_weight", cs.unnormalized_weight([2, 1, 3, 0, 1, 2])
    yield "discrete.sample_batch", cs.sample_batch(64, rng=1)
    yield "discrete.sample_batch_given", cs.sample_batch(64, {1: 1, 4: 0}, rng=2)
    yield "discrete.sample_given", cs.sample({0: 2}, rng=3)
    yield "discrete.sample_batch_int64_n", cs.sample_batch(np.int64(5), rng=1)


def continuous_outputs():
    model = random_trip(20, 5, 3, 3)
    x = model.sample_batch(32, rng=4)
    yield "continuous.sample_batch", x
    yield "continuous.sample_batch_int64_n", model.sample_batch(np.int64(5), rng=4)
    yield "continuous.log_densities", model.log_densities(range(5), x)
    yield "continuous.log_densities_marginal", model.log_densities([4, 1], x[:, [4, 1]])
    yield "continuous.log_density", model.log_density({0: 0.3, 2: -1.0})
    yield "continuous.mixture_weights", np.concatenate(
        [model.conditional_mixture_weights(k, x[0, :k]) for k in range(5)])
    yield "continuous.conditional_resample", np.array(
        [model.conditional_resample(x[i], [0, 3], rng=i) for i in range(8)])
    yield "continuous.conditional_resample_int64_dims", np.array(
        [model.conditional_resample(x[i], np.array([4, 1], dtype=np.int64), rng=i)
         for i in range(8)])
    logp, grad = trip.grad_log_density(model, x[0])
    yield "continuous.grad_log_density", np.append(flat_grad(grad), logp)
    scores = np.arange(8.0)
    yield "continuous.reinforce_grad", flat_grad(trip.reinforce_grad(model, x[:8], scores))
    est = trip.kl_and_elbo_mc(model, x[1], np.full(5, 0.7), lambda z: float(z.sum()),
                              np.int64(50), rng=5)
    yield "continuous.kl_and_elbo_mc_int64_samples", np.array([est["kl"], est["elbo"]])
    wide = random_trip(21, 6, 4, 3)
    z = wide.sample_batch(1, rng=6)[0]
    yield "continuous.mixture_weights_d6", np.concatenate(
        [wide.conditional_mixture_weights(k, z[:k]) for k in range(6)])


def joint_outputs():
    jm = random_joint(30, 4, [2, 3, 2], 3)
    z = jm.trip.sample_batch(16, rng=5)
    attrs = np.random.default_rng(6).integers(-1, 2, size=(16, 3))
    yield "joint.log_joints", jm.log_joints(range(4), z, attrs)
    yield "joint.log_joints_partial", jm.log_joints([3, 0], z[:, [3, 0]], attrs)
    yield "joint.log_joint", jm.log_joint({1: 0.2, 2: -0.4}, {0: 1, 2: 0})
    yield "joint.log_attr_given_z", jm.log_attr_given_z(z[0], {1: 2})
    yield "joint.sample_given_attrs_batch", jm.sample_given_attrs_batch(32, rng=7)
    yield "joint.sample_given_attrs_batch_given", jm.sample_given_attrs_batch(
        32, {0: 1, 2: 0}, rng=8)
    yield "joint.sample_given_attrs", jm.sample_given_attrs({1: 2}, rng=9)
    yield "joint.sample_given_attrs_batch_int64_n", jm.sample_given_attrs_batch(
        np.int64(5), {0: 1}, rng=8)
    z_int = np.random.default_rng(12).integers(-2, 3, size=(16, 2))
    yield "joint.log_joints_int_latents", jm.log_joints([2, 0], z_int, attrs)


def bench_shape_outputs():
    for name, (d, n_comp, m) in {"paper_m20": (100, 10, 20), "wide_m4": (256, 16, 4)}.items():
        model = random_trip(40, d, n_comp, m)
        x = model.sample_batch(32, rng=11)
        even = list(range(0, d, 2))
        yield f"{name}.sample_batch", x
        yield f"{name}.log_densities", model.log_densities(range(d), x)
        yield f"{name}.log_densities_marginal", model.log_densities(even, x[:, even])
        yield f"{name}.conditional_resample", np.array(
            [model.conditional_resample(x[i], even, rng=i) for i in range(2)])


def fit_outputs():
    rng = np.random.default_rng(50)
    data = np.concatenate([rng.normal(-2.0, 0.5, (60, 3)), rng.normal(1.5, 0.7, (60, 3))])
    config = trip.FitConfig(learning_rate=0.02, epochs=3, batch_size=32, seed=1)
    fitted = trip.fit_mle(data, 2, 2, config)
    yield "fit_mle.params", trip.param_vector(fitted)
    # counts given as numpy integers, and as an integral float, which a tree
    # that cannot take it reports by its exception instead of the parameters
    for name, epochs in ((".int64_counts", np.int64(2)), (".float_epochs", 2.0)):
        try:
            counts = trip.FitConfig(learning_rate=0.02, epochs=epochs,
                                    batch_size=np.int64(4), seed=1)
            yield f"fit_mle{name}.params", trip.param_vector(trip.fit_mle(data, 2, 2, counts))
        except TypeError as exc:
            yield f"fit_mle{name}.params", f"{type(exc).__name__}: {exc}"
    labels = (data[:, :2] > 0).astype(int)
    labels[rng.random(labels.shape) < 0.4] = -1
    fits = {"": labels, ".float_labels": labels.astype(float), ".list_labels": labels.tolist()}
    for name, cells in fits.items():
        jm = trip.fit_joint_mle(data, cells, [2, 2], 2, 2, config)
        yield f"fit_joint_mle{name}.params", np.concatenate(
            [trip.param_vector(jm.trip), *(a.ravel() for a in jm.attribute_cores)])
        yield f"fit_joint_mle{name}.permutation", jm.permutation


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def cli_outputs():
    rng = np.random.default_rng(60)
    with tempfile.TemporaryDirectory() as tmp:
        path = lambda name: os.path.join(tmp, name)  # noqa: E731
        data = np.concatenate([rng.normal(-1.0, 0.5, (40, 3)), rng.normal(1.0, 0.5, (40, 3))])
        labels = np.where(data[:, 0] > 0, "1", "0")
        labels[rng.random(80) < 0.3] = "?"
        with open(path("cont.csv"), "w") as fh:
            fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in data)
        with open(path("joint.csv"), "w") as fh:
            fh.writelines(",".join([*(repr(float(v)) for v in row[:2]), lab, repr(float(row[2]))])
                          + "\n" for row, lab in zip(data, labels))
        # the model's table: its latents, then its attribute
        with open(path("joint_rows.csv"), "w") as fh:
            fh.writelines(",".join([*(repr(float(v)) for v in row), lab]) + "\n"
                          for row, lab in zip(data, labels))
        common = ["--components", "2", "--core-size", "2", "--epochs", "3",
                  "--batch-size", "16", "--lr", "0.02", "--seed", "3"]
        yield "cli.fit", run_cli(["fit", "--data", path("cont.csv"), *common,
                                  "--out", path("cont.json")])
        yield "cli.fit_joint", run_cli(["fit", "--data", path("joint.csv"), "--attr-cols", "2",
                                        *common, "--out", path("joint.json")])
        for name in ("cont.json", "joint.json"):
            with open(path(name)) as fh:
                yield f"cli.model_file.{name}", fh.read()
        disc = np.random.default_rng(61)
        trip.save_model(trip.CoreSet([disc.standard_normal((c, 2, 2)) for c in (3, 2, 4)]),
                        path("disc.json"))
        with open(path("disc.csv"), "w") as fh:
            fh.write("0,1,2\n?,0,3\n2,?,?\n1,1,0\n")
        yield "cli.sample", run_cli(
            ["sample", "--model", path("cont.json"), "-n", "6", "--seed", "1"])
        yield "cli.sample_resample", run_cli(
            ["sample", "--model", path("cont.json"), "-n", "4", "--seed", "2",
             "--resample-dims", "0,2", "--from", "0.1,-0.2,0.3"])
        yield "cli.sample_joint_given", run_cli(
            ["sample", "--model", path("joint.json"), "-n", "6", "--seed", "3",
             "--given", "attr0=1"])
        yield "cli.sample_discrete_given", run_cli(
            ["sample", "--model", path("disc.json"), "-n", "6", "--seed", "4", "--given", "1=0"])
        yield "cli.logprob", run_cli(["logprob", "--model", path("cont.json"),
                                      "--data", path("cont.csv")])
        yield "cli.logprob_marginal", run_cli(["logprob", "--model", path("cont.json"),
                                               "--data", path("cont.csv"), "--marginal-dims", "1"])
        yield "cli.logprob_joint", run_cli(["logprob", "--model", path("joint.json"),
                                            "--data", path("joint_rows.csv")])
        yield "cli.logprob_discrete", run_cli(["logprob", "--model", path("disc.json"),
                                               "--data", path("disc.csv")])


def main() -> int:
    for group in (discrete_outputs, continuous_outputs, joint_outputs, bench_shape_outputs,
                  fit_outputs, cli_outputs):
        for name, value in group():
            print(name, digest(value))
    return 0


if __name__ == "__main__":
    sys.exit(main())
