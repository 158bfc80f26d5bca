"""Library workloads: timed public calls of ``trip`` in one fresh process.

The parent (:func:`run_parent`) makes the inputs and starts this file as a
child; the child times set-up from the moment it was started, runs the fit
with a round of the other operations after every epoch, then more rounds
until the run's time is used, checks every output, and prints one JSON line
for the parent.

One round is one call each of ``log_densities`` (all dims observed),
``log_densities`` (odd dims marginalized) and ``sample_batch``, plus
``COND_CALLS`` single-row ``conditional_resample`` calls redrawing the even
dims. Each metric is rows over seconds summed across rounds
(``run.throughput``); ``train_rows_per_s`` sums the epochs after the first,
timed between ``on_epoch`` calls so initialization is excluded.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

# d dims, n_comp Gaussians each, m ring size; train_rows is one epoch.
SHAPES = {
    # the paper's largest shape: O(n d m^3) ring products dominate
    "paper_m20": dict(d=100, n_comp=10, m=20, train_rows=128, epochs=12),
    # cheap products: Gaussian weights, contractions and per-position overhead dominate
    "wide_m4": dict(d=256, n_comp=16, m=4, train_rows=256, epochs=16),
}
BATCH = 256
TRAIN_BATCH = 128
LEARNING_RATE = 0.01
EVAL_BATCHES = 4
COND_CALLS = 16
REF_ROWS = 8  # rows per output held against the reference walk
CHECK_ROUNDS = 8  # outputs kept for the checks; more would tie peak RSS to the round count
COND_CHECK_ROWS = 48
HELDOUT_ROWS = 128


def run_parent(work: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import inputs
    from run import BENCH, CHILD_TIMEOUT_S, child_env

    shape = SHAPES[name]
    rng = inputs.rng_for(seed, name)
    params = inputs.random_params(rng, shape["d"], shape["n_comp"], shape["m"])
    model_path = os.path.join(work, "model.json")
    inputs.write_continuous(model_path, params)
    centers = inputs.cluster_centers(rng, shape["d"])
    data_path = os.path.join(work, "data.npz")
    np.savez(
        data_path,
        eval=inputs.mixture_rows(rng, params, EVAL_BATCHES * BATCH),
        train=inputs.cluster_rows(rng, centers, shape["train_rows"])[0],
        heldout=inputs.cluster_rows(rng, centers, HELDOUT_ROWS)[0],
    )
    spec = dict(
        name=name, seed=seed, seconds=seconds, trace=trace, work=work,
        model=model_path, data=data_path, **shape,
    )
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)

    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "lib_workload.py"), spec_path],
        stdout=subprocess.PIPE, env=child_env(), text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"{name}: workload process exited with {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    raw["e2e"]["setup_s"] = raw.pop("setup_end") - started
    return raw


class _Ops:
    """Counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation failed: {exc!r}", file=sys.stderr)
            return None


def child_main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    # -- set-up: imports, load, normalizer (timed by the parent from spawn)
    import numpy as np

    import trip
    from run import throughput

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    ops = _Ops()
    model = ops.call(trip.load_model, spec["model"])
    ops.call(lambda: model.cores.log_normalizer)
    setup_end = time.monotonic()

    d, seed = spec["d"], spec["seed"]
    data = np.load(spec["data"])
    evals, train = data["eval"], data["train"]
    even = list(range(0, d, 2))  # observed by `marginal`, redrawn by `cond`
    timed = {k: [] for k in ("eval", "marginal", "sample", "cond")}
    outputs = {k: [] for k in timed}
    cond_in = []
    r, longest = 0, 0.0

    def run_round() -> None:
        nonlocal r, longest
        round_start = time.perf_counter()
        phase = tracer and tracer.phase
        if tracer:
            tracer.phase = "round"
        x = evals[(r % EVAL_BATCHES) * BATCH:][:BATCH]
        for key, fn, args in (
            ("eval", model.log_densities, (range(d), x)),
            ("marginal", model.log_densities, (even, x[:, even])),
            ("sample", model.sample_batch, (BATCH,)),
        ):
            if tracer:
                tracer.op = key
            kwargs = {"rng": np.random.default_rng([seed, r])} if key == "sample" else {}
            t = time.perf_counter()
            out = ops.call(fn, *args, **kwargs)
            dt = time.perf_counter() - t
            if out is not None:
                timed[key].append((BATCH, dt))
                if r < CHECK_ROUNDS:
                    outputs[key].append(out)
        if tracer:
            tracer.op = "cond"
        rows = evals[(r * COND_CALLS) % evals.shape[0]:][:COND_CALLS]
        gen = np.random.default_rng([seed, r, 1])
        t = time.perf_counter()
        outs = [ops.call(model.conditional_resample, row, even, rng=gen) for row in rows]
        timed["cond"].append((len(rows), time.perf_counter() - t))
        if r < CHECK_ROUNDS:
            cond_in.extend(row for row, o in zip(rows, outs) if o is not None)
            outputs["cond"] += [o for o in outs if o is not None]
        if tracer:
            tracer.phase = tracer.op = phase
        longest = max(longest, time.perf_counter() - round_start)
        r += 1

    # -- fit, with one round after every epoch while time is left, so that
    # training is spread over the run like the other operations; epochs are
    # timed between the end of one on_epoch call and the start of the next
    # (epoch 0, which includes initialization, is not timed)
    measure_start = time.perf_counter()
    if tracer:
        tracer.phase = tracer.op = "fit"
    train_timed = []
    resumed = None

    def time_left() -> bool:
        return r == 0 or time.perf_counter() - measure_start + longest <= spec["seconds"]

    def on_epoch(epoch: int, nll: float) -> None:
        nonlocal resumed
        if resumed is not None:
            train_timed.append((train.shape[0], time.perf_counter() - resumed))
        if time_left():
            run_round()
        resumed = time.perf_counter()

    config = trip.FitConfig(
        learning_rate=LEARNING_RATE, epochs=spec["epochs"], batch_size=TRAIN_BATCH, seed=seed
    )
    ops.attempted += spec["epochs"] - 1  # fit_mle is one call of `epochs` epochs
    fitted = ops.call(trip.fit_mle, train, spec["n_comp"], spec["m"], config, on_epoch=on_epoch)
    fitted_path = os.path.join(spec["work"], "fitted.json")
    ops.call(trip.save_model, fitted, fitted_path)

    # -- more rounds until the time is used
    while time_left():
        run_round()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    e2e = {f"{k}_rows_per_s": throughput(v) for k, v in timed.items()}
    e2e["train_rows_per_s"] = throughput(train_timed)
    e2e["peak_rss_mib"] = peak_rss
    result = dict(setup_end=setup_end, e2e=e2e)

    if tracer:
        from tracer import layer_metrics, peak_alloc_mib

        tracer.enabled = False
        layers = layer_metrics([tracer.spans], r)
        layers["modelfile.bytes"] = os.path.getsize(spec["model"])
        layers["eval.peak_alloc_mib"] = peak_alloc_mib(
            "trip.continuous:TripModel.log_densities",
            lambda: model.log_densities(range(d), evals[:BATCH]),
        )
        one_batch = trip.FitConfig(epochs=1, batch_size=TRAIN_BATCH, seed=seed)
        layers["grad.peak_alloc_mib"] = peak_alloc_mib(
            "trip.fitting:_weighted_chain_grad",
            lambda: trip.fit_mle(train[:TRAIN_BATCH], spec["n_comp"], spec["m"], one_batch),
        )
        result["layers"] = layers
        with open(os.path.join(os.path.dirname(spec["work"]), f"trace-{spec['name']}.json"), "w") as fh:
            json.dump({"missing": tracer.missing, "rounds": r, "spans": tracer.spans}, fh)

    result["failures"] = check(spec, model, fitted_path, train, evals, outputs, cond_in)
    result.update(attempted=ops.attempted, failed=ops.failed)
    print(json.dumps(result))


def check(spec, model, fitted_path, train, evals, outputs, cond_in) -> list[str]:
    import numpy as np

    import checks
    import inputs
    import trip
    from reference import RefModel, diag_gauss_loglik

    params = inputs.read_model(spec["model"])
    ref = RefModel(params)
    d = spec["d"]
    x = evals[:BATCH]
    odd = np.arange(1, d, 2)
    idx = np.linspace(0, BATCH - 1, REF_ROWS).astype(int)
    if not all(outputs.values()):
        return ["an operation produced no output"]
    eval_out, marg_out, samples, cond_out = (outputs[k] for k in ("eval", "marginal", "sample", "cond"))
    fails = []

    fails += checks.rows_match("log_densities vs reference", eval_out[0], BATCH, idx,
                               [ref.log_density(x[i]) for i in idx])
    hidden = x.copy()
    hidden[:, odd] = np.nan
    fails += checks.rows_match("marginal log_densities vs reference", marg_out[0], BATCH, idx,
                               [ref.log_density(hidden[i]) for i in idx])
    if fails:
        return fails

    # rotating the ring (cores, means and stds together) leaves densities unchanged
    shift = d // 3
    order = [(k + shift) % d for k in range(d)]
    rotated = trip.TripModel(
        [params["cores"][k] for k in order],
        [params["means"][k] for k in order],
        log_stds=[params["log_stds"][k] for k in order],
    )
    fails += checks.close("rotated ring", rotated.log_densities(range(d), x[idx][:, order]),
                          eval_out[0][idx])

    mean, var = ref.latent_moments()
    all_samples = np.concatenate(samples)
    fails += checks.sample_means("sample_batch means", all_samples, mean, var,
                                 BATCH * len(samples))

    fails += checks.kept_exact("conditional_resample kept dims", cond_in, cond_out, odd)
    moments = []
    for row in cond_in[:COND_CHECK_ROWS]:
        fixed = np.array(row, dtype=float)
        fixed[::2] = np.nan
        moments.append(ref.latent_moments(fixed))
    fails += checks.standardized_sum(
        "conditional_resample draws", cond_out[:COND_CHECK_ROWS],
        [m for m, _ in moments], [v for _, v in moments],
    )

    fails += checks.gradient(trip, model, params, x[0])

    fitted = RefModel(inputs.read_model(fitted_path))
    heldout = np.load(spec["data"])["heldout"]
    fit_ll = float(np.mean([fitted.log_density(h) for h in heldout]))
    fails += checks.beats("fit_mle held-out log-density", fit_ll, diag_gauss_loglik(train, heldout))
    return fails


if __name__ == "__main__":
    child_main(sys.argv[1])
