"""Reference ring walk, written apart from the program it checks.

One row at a time, with plain ``@`` products, Gaussian component weights in
log space shifted by their maximum, and division of the running product by its
largest entry after every step. Models are the plain arrays of
:func:`inputs.read_model`, so nothing here touches the program's code.

A row is a latent vector (``nan`` = marginalized) and an attribute vector
(``-1`` = missing, summed out).
"""

from __future__ import annotations

import numpy as np

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class RefModel:
    def __init__(self, params: dict):
        self.d = len(params["cores"])
        self.means = params["means"]
        self.log_stds = params["log_stds"]
        self.perm = [int(v) for v in params["perm"]]
        self.abs_cores = [np.abs(c) for c in params["cores"]]
        self.abs_attr = [np.abs(c) for c in params["attr_cores"]]
        self.log_norm = log_trace(self.ring(np.full(self.d, np.nan), [-1] * len(self.abs_attr)))

    def ring(self, z, attrs) -> list[tuple[np.ndarray, float]]:
        """``(matrix, log scale)`` per ring position for one row."""
        out = []
        for v in self.perm:
            if v >= self.d:
                core, y = self.abs_attr[v - self.d], attrs[v - self.d]
                out.append((core.sum(axis=0) if y < 0 else core[y], 0.0))
            elif np.isnan(z[v]):
                out.append((self.abs_cores[v].sum(axis=0), 0.0))
            else:
                logw = gauss_logpdf(z[v], self.means[v], self.log_stds[v])
                shift = logw.max()
                w = np.exp(logw - shift)
                mat = sum(w[s] * self.abs_cores[v][s] for s in range(w.shape[0]))
                out.append((mat, shift))
        return out

    def log_density(self, z, attrs=()) -> float:
        return log_trace(self.ring(np.asarray(z, dtype=float), list(attrs))) - self.log_norm

    def latent_moments(self, z=None, attrs=()) -> tuple[np.ndarray, np.ndarray]:
        """Exact mean and variance of every latent given the fixed ones.

        ``z`` fixes latents (``nan`` = free), ``attrs`` fixes attributes. The
        moments come from each free dimension's exact component marginal;
        entries of fixed dimensions are ``nan``.
        """
        z = np.full(self.d, np.nan) if z is None else np.asarray(z, dtype=float)
        attrs = list(attrs) or [-1] * len(self.abs_attr)
        fixed = self.ring(z, attrs)
        stacks = []
        for p, v in enumerate(self.perm):
            free = v < self.d and np.isnan(z[v])
            stacks.append(self.abs_cores[v] if free else fixed[p][0][None])
        probs = position_marginals(stacks)
        mean = np.full(self.d, np.nan)
        var = np.full(self.d, np.nan)
        for p, v in enumerate(self.perm):
            if v < self.d and np.isnan(z[v]):
                mu, sd2 = self.means[v], np.exp(2.0 * self.log_stds[v])
                mean[v] = probs[p] @ mu
                var[v] = probs[p] @ (sd2 + mu * mu) - mean[v] ** 2
        return mean, var


def gauss_logpdf(x, means, log_stds):
    t = (x - means) / np.exp(log_stds)
    return -0.5 * t * t - log_stds - _LOG_SQRT_2PI


def log_trace(items) -> float:
    """log Tr of the ordered product of ``(matrix, log scale)`` items."""
    buf = np.eye(items[0][0].shape[0])
    acc = 0.0
    for mat, shift in items:
        buf = buf @ mat
        top = buf.max()
        buf = buf / top
        acc += shift + np.log(top)
    return float(np.log(np.trace(buf)) + acc)


def position_marginals(stacks) -> list[np.ndarray]:
    """Normalized slice probabilities of every ring position.

    ``stacks[p]`` holds the candidate matrices of position ``p``; the ring
    weight of a choice is the trace of the product of the chosen matrices.
    """
    summed = [s.sum(axis=0) for s in stacks]
    eye = np.eye(summed[0].shape[0])
    pre = [eye]
    for mat in summed:
        x = pre[-1] @ mat
        pre.append(x / x.max())
    suf = [eye]
    for mat in reversed(summed):
        x = mat @ suf[-1]
        suf.append(x / x.max())
    suf.reverse()
    out = []
    for p, stack in enumerate(stacks):
        rest = (suf[p + 1] @ pre[p]).T
        w = np.array([np.sum(stack[s] * rest) for s in range(stack.shape[0])])
        out.append(w / w.sum())
    return out


def diag_gauss_loglik(train: np.ndarray, test: np.ndarray) -> float:
    """Mean held-out log-density of the closed-form diagonal Gaussian fit."""
    mu = train.mean(axis=0)
    log_sd = 0.5 * np.log(train.var(axis=0))
    return float(gauss_logpdf(test, mu, log_sd).sum(axis=1).mean())
