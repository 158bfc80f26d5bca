"""The ``joint_cli`` workload: whole ``trip`` processes on a joint model.

A joint model of 32 latents and 4 attributes, about half of them missing,
as a user runs it. Set-up is one ``trip inspect``; one round is
``trip fit --attr-cols``, ``trip logprob`` (all latents observed),
``trip logprob --marginal-dims`` (even latents marginalized), ``trip sample``
and ``trip sample --given`` on two attributes. Every figure is wall clock of
one process, start-up included; each metric is rows over seconds summed
across rounds (``run.throughput``). With tracing, each process is
``traced_cli.py``, which runs ``trip.cli.main`` under the tracer.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

import checks
import inputs

D, CARDS, N_COMP, M = 32, (2, 3, 2, 4), 8, 8
LOGPROB_ROWS = 10_000  # memory of `trip logprob` grows with the row count
TRAIN_ROWS, EPOCHS, TRAIN_BATCH, LEARNING_RATE = 1024, 3, 128, 0.01
SAMPLE_ROWS = 2048
GIVEN = {0: 1, 2: 0}
REF_ROWS = 8
HELDOUT_ROWS = 128
PROBES_PER_ATTR = 2


def _missing_half(rng, attrs: np.ndarray) -> np.ndarray:
    return np.where(rng.random(attrs.shape) < 0.5, -1, attrs)


def _random_attrs(rng, n: int) -> np.ndarray:
    return np.stack([rng.integers(c, size=n) for c in CARDS], axis=1)


def make_inputs(work: str, seed: int) -> dict:
    rng = inputs.rng_for(seed, "joint_cli")
    c = len(CARDS)
    params = inputs.random_params(rng, D, N_COMP, M)
    attr_cores = [rng.standard_normal((card, M, M)) for card in CARDS]
    paths = {k: os.path.join(work, f"{k}.{ext}") for k, ext in
             (("model", "json"), ("eval", "csv"), ("train", "csv"))}
    inputs.write_joint(paths["model"], params, attr_cores, rng.permutation(D + c))

    # probe rows first: one attribute takes every value, then is missing
    probe_z, probe_a, groups = [], [], []
    for i in range(c):
        for _ in range(PROBES_PER_ATTR):
            z = inputs.mixture_rows(rng, params, 1)[0]
            base = _random_attrs(rng, 1)[0]
            start = len(probe_z)
            for y in list(range(CARDS[i])) + [-1]:
                probe_z.append(z)
                probe_a.append(np.where(np.arange(c) == i, y, base))
            groups.append((start, len(probe_z) - 1))
    bulk = LOGPROB_ROWS - len(probe_z)
    z = np.concatenate([probe_z, inputs.mixture_rows(rng, params, bulk)])
    a = np.concatenate([probe_a, _missing_half(rng, _random_attrs(rng, bulk))])
    inputs.write_csv(paths["eval"], z, a)

    # training rows: attributes follow the cluster, so they carry signal
    centers = inputs.cluster_centers(rng, D)
    tz, labels = inputs.cluster_rows(rng, centers, TRAIN_ROWS)
    ta = np.stack([labels % card for card in CARDS], axis=1)
    inputs.write_csv(paths["train"], tz, _missing_half(rng, ta))
    heldout = inputs.cluster_rows(rng, centers, HELDOUT_ROWS)[0]
    return dict(paths=paths, z=z, a=a, groups=groups, train=tz, train_attrs=ta,
                heldout=heldout, ref_idx=np.linspace(0, LOGPROB_ROWS - 1, REF_ROWS).astype(int))


def run(work: str, seed: int, seconds: float, trace: bool) -> dict:
    from run import BENCH, run_checked, throughput

    inp = make_inputs(work, seed)
    paths = inp["paths"]
    attempted = failed = 0
    span_groups = []

    def trip_cmd(phase: str, args: list[str], out_name: str) -> tuple[float, str | None]:
        """Wall seconds of one trip process and its stdout file (None on failure)."""
        nonlocal attempted, failed
        out_path = os.path.join(work, out_name)
        if trace:
            spans = os.path.join(work, f"spans-{len(span_groups)}.json")
            cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), spans, phase] + args
        else:
            cmd = [sys.executable, "-m", "trip.cli"] + args
        attempted += 1
        with open(out_path, "w") as out:
            t = time.perf_counter()
            code = run_checked(cmd, out)
            wall = time.perf_counter() - t
        if trace and os.path.exists(spans):
            with open(spans) as fh:
                span_groups.append(json.load(fh))
        if code != 0:
            failed += 1
            print(f"trip {args[0]} exited with {code}", file=sys.stderr)
            return wall, None
        return wall, out_path

    model = ["--model", paths["model"]]
    setup_s, inspect_out = trip_cmd("setup", ["inspect"] + model, "inspect.out")

    fit = ["fit", "--data", paths["train"], "--attr-cols", ",".join(str(D + i) for i in range(len(CARDS))),
           "--components", str(N_COMP), "--core-size", str(M), "--epochs", str(EPOCHS),
           "--batch-size", str(TRAIN_BATCH), "--lr", str(LEARNING_RATE), "--seed", str(seed)]
    marginal = ",".join(str(k) for k in range(0, D, 2))
    given = ",".join(f"attr{i}={y}" for i, y in GIVEN.items())
    timed = {k: [] for k in ("train", "eval", "marginal", "sample", "cond")}
    outputs = {k: [] for k in timed}
    measure_start = time.perf_counter()
    longest, r = 0.0, 0
    while r == 0 or time.perf_counter() - measure_start + longest <= seconds:
        round_start = time.perf_counter()
        draw = ["-n", str(SAMPLE_ROWS), "--seed", str(seed * 1000 + r)]
        for key, args, rows in (
            ("train", fit + ["--out", os.path.join(work, f"fitted-{r}.json")], TRAIN_ROWS * EPOCHS),
            ("eval", ["logprob"] + model + ["--data", paths["eval"]], LOGPROB_ROWS),
            ("marginal", ["logprob"] + model + ["--data", paths["eval"], "--marginal-dims", marginal],
             LOGPROB_ROWS),
            ("sample", ["sample"] + model + draw, SAMPLE_ROWS),
            ("cond", ["sample"] + model + draw + ["--given", given], SAMPLE_ROWS),
        ):
            wall, out = trip_cmd("round", args, f"{key}-{r}.out")
            if out is not None:
                timed[key].append((rows, wall))
                outputs[key].append(args[-1] if key == "train" else out)
        longest = max(longest, time.perf_counter() - round_start)
        r += 1
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    e2e = {f"{k}_rows_per_s": throughput(v) for k, v in timed.items() if v}
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mib"] = peak_rss
    result = dict(e2e=e2e, attempted=attempted, failed=failed)
    if trace:
        result["layers"] = traced_layers(span_groups, r, inp, seed)
    result["failures"] = check(inp, inspect_out, outputs)
    return result


def traced_layers(span_groups, rounds: int, inp: dict, seed: int) -> dict:
    import trip
    from run import WORK
    from tracer import layer_metrics, peak_alloc_mib

    groups = [g["spans"] for g in span_groups]
    layers = layer_metrics(groups, rounds)
    paths = inp["paths"]
    layers["modelfile.bytes"] = os.path.getsize(paths["model"])
    model = trip.load_model(paths["model"])
    layers["eval.peak_alloc_mib"] = peak_alloc_mib(
        "trip.joint:JointModel.log_joints",
        lambda: model.log_joints(range(D), inp["z"], inp["a"]),
    )
    one_batch = trip.FitConfig(epochs=1, batch_size=TRAIN_BATCH, seed=seed)
    layers["grad.peak_alloc_mib"] = peak_alloc_mib(
        "trip.fitting:_weighted_chain_grad",
        lambda: trip.fit_joint_mle(inp["train"][:TRAIN_BATCH], inp["train_attrs"][:TRAIN_BATCH],
                                   CARDS, N_COMP, M, one_batch),
    )
    missing = sorted({s for g in span_groups for s in g["missing"]})
    with open(os.path.join(WORK, "trace-joint_cli.json"), "w") as fh:
        json.dump({"missing": missing, "rounds": rounds, "processes": span_groups}, fh)
    return layers


def _read_logprob(path) -> tuple[np.ndarray, float]:
    with open(path) as fh:
        lines = [line.rstrip("\n").split(",") for line in fh]
    values = np.array([float(v) for _, v in lines[:-1]])
    if lines[-1][0] != "mean" or [int(i) for i, _ in lines[:-1]] != list(range(len(values))):
        values = values[:0]
    return values, float(lines[-1][1])


def _read_samples(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check(inp: dict, inspect_out, outputs: dict) -> list[str]:
    import trip
    from reference import RefModel, diag_gauss_loglik

    if inspect_out is None or not all(outputs.values()):
        return ["a trip process failed"]
    paths = inp["paths"]
    params = inputs.read_model(paths["model"])
    ref = RefModel(params)
    fails = []
    with open(inspect_out) as fh:
        text = fh.read()
    for line in ("kind: joint", f"latent dimensions: {D}", f"attributes: {len(CARDS)}"):
        if line not in text:
            fails.append(f"inspect: missing line {line!r}")

    z, a = inp["z"], inp["a"]
    idx = np.unique(np.concatenate([np.arange(inp["groups"][-1][1] + 1), inp["ref_idx"]]))
    hidden = z.copy()
    hidden[:, ::2] = np.nan
    logprob = {}
    for key, rows in (("eval", z), ("marginal", hidden)):
        values, mean = _read_logprob(outputs[key][0])
        fails += checks.rows_match(f"logprob {key} vs reference", values, LOGPROB_ROWS, idx,
                                   [ref.log_density(rows[i], a[i]) for i in idx])
        fails += checks.close(f"logprob {key} mean line", [mean], [np.mean(values)])
        logprob[key] = values
    if fails:
        return fails
    evals = logprob["eval"]

    # summing one attribute out equals marking it missing
    lse = [np.logaddexp.reduce(evals[first:last]) for first, last in inp["groups"]]
    fails += checks.close("attribute summed out vs missing", lse,
                          [evals[last] for _, last in inp["groups"]])

    model = trip.load_model(paths["model"])
    rotated = trip.JointModel(model.trip, model.attribute_cores,
                              np.roll(model.permutation, len(model.permutation) // 3),
                              model.attribute_names)
    fails += checks.close("rotated ring", rotated.log_joints(range(D), z[idx], a[idx]), evals[idx])

    for key, attrs in (("sample", ()), ("cond", [GIVEN.get(i, -1) for i in range(len(CARDS))])):
        mean, var = ref.latent_moments(attrs=attrs)
        draws = [_read_samples(p) for p in outputs[key]]
        fails += checks.sample_means(f"trip sample {key} means", np.concatenate(draws), mean, var,
                                     SAMPLE_ROWS * len(draws))

    fails += checks.gradient(trip, model.trip, params, z[inp["ref_idx"][1]])

    fitted = RefModel(inputs.read_model(outputs["train"][0]))
    missing = [-1] * len(CARDS)
    fit_ll = float(np.mean([fitted.log_density(h, missing) for h in inp["heldout"]]))
    fails += checks.beats("trip fit held-out log-density", fit_ll,
                          diag_gauss_loglik(inp["train"], inp["heldout"]))
    return fails
