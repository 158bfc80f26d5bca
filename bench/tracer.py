"""Spans around the program's layers, recorded from outside the program.

:func:`install` replaces module-level names (functions, methods, cached
properties) at every place where callers look them up, for example
``trip.gradients.suffix_chain`` as well as ``trip.chain.suffix_chain``.
Each call records a span: id, parent span, name, start, end, the benchmark
phase and operation it ran under, and for chain products the work done.
Spans stay in memory until the run ends. A name that no longer exists is
listed in ``Tracer.missing`` and its metrics read 0 instead of failing the run.

Layer metrics are totals over one benchmark pass: the set-up and fit phases
once each, plus the mean over rounds of the round phase.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

# span name -> the lookup sites its callers use ("module:Owner.attr")
HOOKS = {
    "chain._multiply": ["trip.chain:_multiply"],
    "chain._renormalize": ["trip.chain:_renormalize"],
    "chain.suffix_chain": ["trip.chain:suffix_chain", "trip.gradients:suffix_chain"],
    "continuous._component_weights": [
        "trip.continuous:_component_weights",
        "trip.gradients:_component_weights",
    ],
    "continuous.observed_matrix": ["trip.continuous:observed_matrix", "trip.joint:observed_matrix"],
    "continuous.log_densities": ["trip.continuous:TripModel.log_densities"],
    "continuous._ancestral_sample": ["trip.continuous:TripModel._ancestral_sample"],
    "cores.log_normalizer": ["trip.cores:CoreSet.log_normalizer", "trip.joint:JointModel.log_normalizer"],
    "joint.log_joints": ["trip.joint:JointModel.log_joints"],
    "joint.sample_given_attrs_batch": ["trip.joint:JointModel.sample_given_attrs_batch"],
    "gradients._forward_item": ["trip.gradients:_forward_item"],
    "gradients._adjoints": ["trip.gradients:_adjoints"],
    "gradients._weighted_chain_grad": [
        "trip.gradients:_weighted_chain_grad",
        "trip.fitting:_weighted_chain_grad",
    ],
    "fitting._Adam.step": ["trip.fitting:_Adam.step"],
    "fitting.fit_gmm_1d": ["trip.fitting:fit_gmm_1d", "trip:fit_gmm_1d"],
    # boundary only: keeps the fit loop out of the CLI commands' self time
    "fitting.fit": [
        "trip.fitting:fit_mle", "trip.fitting:fit_joint_mle", "trip:fit_mle",
        "trip:fit_joint_mle", "trip.cli:fit_mle", "trip.cli:fit_joint_mle",
    ],
    "modelfile.load_model": ["trip.modelfile:load_model", "trip:load_model", "trip.cli:load_model"],
    "modelfile.save_model": ["trip.modelfile:save_model", "trip:save_model", "trip.cli:save_model"],
    "cli._read_rows": ["trip.cli:_read_rows"],
    "cli._cmd": [f"trip.cli:_cmd_{c}" for c in ("fit", "sample", "logprob", "inspect")],
}

# layer metric -> span names whose self time it sums
SELF_TIME = {
    "chain.multiply_s": ["chain._multiply"],
    "chain.renormalize_s": ["chain._renormalize"],
    "chain.suffix_s": ["chain.suffix_chain"],
    "continuous.weights_s": ["continuous._component_weights"],
    "continuous.observed_matrix_s": ["continuous.observed_matrix"],
    "continuous.log_densities_s": ["continuous.log_densities"],
    "continuous.sampler_s": ["continuous._ancestral_sample"],
    "joint.log_joints_s": ["joint.log_joints"],
    "joint.sampler_s": ["joint.sample_given_attrs_batch"],
    "gradients.forward_s": ["gradients._forward_item"],
    "gradients.adjoints_s": ["gradients._adjoints"],
    "gradients.param_grad_s": ["gradients._weighted_chain_grad"],
    "fitting.adam_s": ["fitting._Adam.step"],
    "fitting.init_s": ["fitting.fit_gmm_1d"],
    "modelfile.load_s": ["modelfile.load_model"],
    "modelfile.save_s": ["modelfile.save_model"],
    "cli.read_rows_s": ["cli._read_rows"],
    "cli.self_s": ["cli._cmd"],
}

LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME},
    "cores.normalizer_s": "s",
    "chain.products": "count",
    "chain.gflops": "GFLOP/s",
    "fitting.batches": "count",
    "modelfile.bytes": "bytes",
    "eval.peak_alloc_mib": "MiB",
    "grad.peak_alloc_mib": "MiB",
}

_ID, _PARENT, _NAME, _START, _END, _PHASE, _OP, _WORK = range(8)


def _multiply_work(args) -> tuple[int, int]:
    """(matrix products, flops) of ``_multiply(buf, mat)``: computed, not counted."""
    buf, mat = args[0], args[1]
    n, a, b = buf.shape
    return n, 2 * n * a * b * mat.shape[-1]


_WORK_OF = {"chain._multiply": _multiply_work}


def _resolve(site: str):
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner).get(attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.missing: list[str] = []
        self.enabled = True
        self.phase = "setup"
        self.op = None

    def wrap(self, name: str, fn):
        work = _WORK_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1][_ID] if self.stack else -1
            span = [len(self.spans), parent, name, 0.0, 0.0, self.phase, self.op,
                    work(args) if work else None]
            self.spans.append(span)
            self.stack.append(span)
            span[_START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self) -> "Tracer":
        for name, sites in HOOKS.items():
            for site in sites:
                try:
                    owner, attr, orig = _resolve(site)
                except (ImportError, AttributeError):
                    orig = None
                if orig is None:
                    self.missing.append(site)
                elif isinstance(orig, functools.cached_property):
                    prop = functools.cached_property(self.wrap(name, orig.func))
                    prop.__set_name__(owner, attr)
                    setattr(owner, attr, prop)
                else:
                    setattr(owner, attr, self.wrap(name, orig))
        return self


def layer_metrics(groups, n_rounds: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of one or more processes.

    Each group holds the spans of one process; a span's parent is an id in
    its own group.
    """
    weight = {"round": 1.0 / max(n_rounds, 1)}
    self_t, incl_t, calls, work = {}, {}, {}, {}
    for spans in groups:
        child = {}
        for s in spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] = child.get(s[_PARENT], 0.0) + s[_END] - s[_START]
        for s in spans:
            w = weight.get(s[_PHASE], 1.0)
            dur = s[_END] - s[_START]
            name = s[_NAME]
            incl_t[name] = incl_t.get(name, 0.0) + w * dur
            self_t[name] = self_t.get(name, 0.0) + w * (dur - child.get(s[_ID], 0.0))
            calls[name] = calls.get(name, 0.0) + w
            if s[_WORK] is not None:
                prods, flops = work.get(name, (0.0, 0.0))
                work[name] = (prods + w * s[_WORK][0], flops + w * s[_WORK][1])
    out = {m: sum(self_t.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
    out["cores.normalizer_s"] = incl_t.get("cores.log_normalizer", 0.0)
    prods, flops = work.get("chain._multiply", (0.0, 0.0))
    out["chain.products"] = prods
    mult = out["chain.multiply_s"]
    out["chain.gflops"] = flops / mult / 1e9 if mult > 0 else 0.0
    out["fitting.batches"] = calls.get("fitting._Adam.step", 0.0)
    return out


def peak_alloc_mib(site: str, run) -> float:
    """tracemalloc peak inside the first call made through ``site`` by ``run()``.

    Returns 0.0 when the site no longer exists or is never called.
    """
    try:
        owner, attr, orig = _resolve(site)
    except (ImportError, AttributeError):
        orig = None
    if orig is None:
        run()
        return 0.0
    peak = []

    @functools.wraps(orig)
    def measured(*args, **kwargs):
        if peak:
            return orig(*args, **kwargs)
        tracemalloc.start()
        try:
            return orig(*args, **kwargs)
        finally:
            peak.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    setattr(owner, attr, measured)
    try:
        run()
    finally:
        setattr(owner, attr, orig)
    return peak[0] if peak else 0.0
