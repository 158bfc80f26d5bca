"""Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list means it
passed. None of them trusts the program to grade itself: expected values
come from :mod:`reference`, from a symmetry of the model, from finite
differences, or from closed-form baselines.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-10
N_SE = 5.0


def count(name: str, got, want_len: int) -> list[str]:
    if len(got) != want_len:
        return [f"{name}: {len(got)} outputs, expected {want_len}"]
    return []


def close(name: str, got, want, tol: float = REL_TOL) -> list[str]:
    """Log-values agree to ``tol`` relative (absolute below magnitude 1)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    bad = count(name, got, len(want))
    if bad:
        return bad
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    if not np.all(err <= tol):
        i = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
        return [f"{name}: row {i} got {got[i]!r}, expected {want[i]!r} (rel err {err[i]:.3g})"]
    return []


def rows_match(name: str, got, n_rows: int, idx, want) -> list[str]:
    """One output per input row, and rows ``idx`` agree with ``want``."""
    return count(name, got, n_rows) or close(name, np.asarray(got)[idx], want)


def sample_means(name: str, samples, mean, var, n_rows: int) -> list[str]:
    """Per-dimension sample means within N_SE standard errors of exact means.

    ``mean``/``var`` are exact moments; dimensions where they are ``nan``
    (fixed, not sampled) are skipped.
    """
    samples = np.asarray(samples, dtype=float)
    bad = count(name, samples, n_rows)
    if bad or samples.ndim != 2 or samples.shape[1] != len(mean):
        return bad or [f"{name}: samples have shape {samples.shape}"]
    free = ~np.isnan(mean)
    z = (samples[:, free].mean(axis=0) - mean[free]) / np.sqrt(var[free] / n_rows)
    if not np.all(np.abs(z) <= N_SE):
        k = int(np.flatnonzero(free)[np.argmax(np.abs(z))])
        return [f"{name}: dim {k} mean is {np.max(np.abs(z)):.1f} standard errors off"]
    return []


def standardized_sum(name: str, draws, means, variances) -> list[str]:
    """Draws from differing conditionals, pooled per dimension.

    ``draws[i]`` comes from a distribution with the exact moments
    ``means[i]``/``variances[i]``; per dimension the summed deviation divided
    by the root of the summed variance must lie within N_SE.
    """
    draws, means, variances = (np.asarray(a, dtype=float) for a in (draws, means, variances))
    free = ~np.isnan(means)
    dev = np.where(free, draws - np.where(free, means, 0.0), 0.0).sum(axis=0)
    spread = np.sqrt(np.where(free, variances, 0.0).sum(axis=0))
    used = spread > 0
    z = dev[used] / spread[used]
    if not np.all(np.abs(z) <= N_SE):
        k = int(np.flatnonzero(used)[np.argmax(np.abs(z))])
        return [f"{name}: dim {k} draws are {np.max(np.abs(z)):.1f} standard errors off"]
    return []


def kept_exact(name: str, inputs, outputs, kept) -> list[str]:
    """Dimensions that were not resampled come back bit for bit."""
    inputs = np.asarray(inputs, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    bad = count(name, outputs, len(inputs))
    if bad or outputs.shape != inputs.shape:
        return bad or [f"{name}: output shape {outputs.shape} != {inputs.shape}"]
    diff = inputs[:, kept] != outputs[:, kept]
    if diff.any():
        i, j = np.argwhere(diff)[0]
        return [f"{name}: row {i} kept dim {kept[j]} changed"]
    return []


FD_STEP = 1e-5


def gradient_pairs(trip, model, params, z) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``grad_log_density`` entries and central differences of ``log_densities``.

    Takes a core entry, a mean and a log-std of the component nearest to
    ``z`` in three dimensions. Also returns the check that the log-density
    reported with the gradient equals ``log_densities``.
    """
    d = len(params["cores"])
    logp, grad = trip.grad_log_density(model, z)
    coords, analytic = [], []
    for k in (0, d // 2, d - 1):
        s = int(np.argmin(np.abs(params["means"][k] - z[k])))
        coords += [("cores", k, (s, 0, 0)), ("means", k, (s,)), ("log_stds", k, (s,))]
        analytic += [grad.d_cores[k][s, 0, 0], grad.d_means[k][s], grad.d_log_stds[k][s]]

    def logp_at(key, k, pos, delta):
        arrays = {name: [a.copy() for a in params[name]] for name in ("cores", "means", "log_stds")}
        arrays[key][k][pos] += delta
        moved = trip.TripModel(arrays["cores"], arrays["means"], log_stds=arrays["log_stds"])
        return moved.log_densities(range(d), z[None])[0]

    fd = [(logp_at(*c, FD_STEP) - logp_at(*c, -FD_STEP)) / (2 * FD_STEP) for c in coords]
    value = close("grad_log_density value", [logp], [model.log_densities(range(d), z[None])[0]])
    return np.array(analytic), np.array(fd), value


def gradient_match(name: str, analytic, finite_diff, tol: float = 1e-5) -> list[str]:
    """Analytic gradient entries against central differences.

    The tolerance leaves room for the rounding of ``log_densities`` (about
    1e-8 absolute at d=256) divided by the step.
    """
    err = np.abs(analytic - finite_diff) / np.maximum(np.abs(finite_diff), 1e-2)
    if not np.all(err <= tol):
        i = int(np.argmax(err))
        return [f"{name}: entry {i} analytic {analytic[i]!r} vs difference {finite_diff[i]!r}"]
    return []


def gradient(trip, model, params, z) -> list[str]:
    analytic, fd, fails = gradient_pairs(trip, model, params, z)
    return fails + gradient_match("grad_log_density", analytic, fd)


def beats(name: str, value: float, baseline: float) -> list[str]:
    if not value > baseline:
        return [f"{name}: {value:.4f} does not beat baseline {baseline:.4f}"]
    return []
