"""Exact gradients of ring-mixture log-densities, and Monte-Carlo estimators.

The log-density is ``log Tr(prod_j M_j) - log Tr(prod_j S_j)`` where the
``M_j`` are likelihood-weighted slice sums and the ``S_j`` plain slice sums.
Each factor comes from a position of the ring engine (:mod:`trip.ring`) and
a column of observations, so continuous models and joint models with
missing attributes share one gradient. Reverse mode through a trace of a
matrix chain is closed-form: the adjoint of the ``j``-th factor is the
transposed product of all the others, divided by the trace. One forward walk
stores each position's matrices and renormalized prefix product: two buffers
per position and row. One backward walk keeps a single running suffix, and
each position's adjoint is contracted into its parameter gradient and dropped
as soon as it is formed, so the gradient is as overflow-proof as the forward
pass and builds no list of suffixes or adjoints.

The absolute-value reparameterization of core entries contributes a factor
``sign(q)`` per entry, with subgradient 0 at exactly zero (parameters
initialized from continuous noise are never exactly zero in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import ring
from .chain import prefix_chain, suffix_chain
from .continuous import GaussianPosition, TripModel, _component_weights, gaussian_logpdf
from .cores import _as_rng
from .errors import DegenerateDistributionError


@dataclass
class GradPsi:
    """Gradient with respect to every model parameter.

    ``d_cores`` differentiates the stored (signed) core entries; ``d_means``
    and ``d_log_stds`` the per-dimension component parameters.
    """

    d_cores: list[np.ndarray]
    d_means: list[np.ndarray]
    d_log_stds: list[np.ndarray]

    def as_vector(self) -> np.ndarray:
        """The gradient in the layout of :func:`param_vector`."""
        return _flat(self.d_cores, self.d_means, self.d_log_stds)


def _forward_item(position, col) -> tuple[np.ndarray, "np.ndarray | float", np.ndarray | None]:
    """One term's ring matrices ``(mats, logshift)`` and, for an observed
    Gaussian position, the component weights the gradient reuses."""
    if not isinstance(position, GaussianPosition):
        return (*ring.matrices(position, col), None)
    weights, shift = _component_weights(col, position.means, position.log_stds)
    return np.einsum("kab,nk->nab", position.abs_core, weights), shift, weights


def _adjoints(items: Sequence, n: int, row_weights: np.ndarray) -> tuple[np.ndarray, Iterator]:
    """Per-position weighted adjoints of log Tr of the item chain.

    Returns ``(logtrace, G)``. ``G`` yields, last position first, arrays whose
    row ``i`` is ``row_weights[i]`` times the derivative of ``log Tr`` for row
    ``i`` with respect to the true (unscaled) matrix of that position,
    re-expressed against the stabilized matrix actually used in the forward
    pass. Each prefix is kept until its adjoint is formed.
    """
    prefixes = list(prefix_chain(items, n))
    last, total = prefixes.pop()
    trace = np.trace(last, axis1=1, axis2=2)
    if not np.all(trace > 0.0):
        raise DegenerateDistributionError("zero trace: gradient undefined")

    def backward() -> Iterator[np.ndarray]:
        for (_, logshift), (suffix, b) in zip(reversed(items), suffix_chain(items, n)):
            prefix, a = prefixes.pop()
            outer = np.einsum("nca,nab->ncb", suffix, prefix)
            factor = row_weights * np.exp(a + b + logshift - total) / trace
            yield np.transpose(outer, (0, 2, 1)) * factor[:, None, None]

    return np.log(trace) + total, backward()


def _weighted_chain_grad(
    position: Callable[[int], ring.Categorical], cols: Sequence, n: int, row_weights: np.ndarray
) -> tuple[np.ndarray, GradPsi]:
    """Log-probabilities and the weighted sum of per-row parameter gradients.

    Computes ``sum_i row_weights[i] * grad log p(row_i)`` together with the
    per-row log-probabilities of the normalized chain. ``position(j)``
    returns ring position ``j`` and ``cols[j]`` its observations (``-1``
    marks a missing categorical value). Each position is asked for once in
    the forward pass and once, last first, for its parameter gradient, so a
    caller may build positions on demand and no ``|Q|`` copy outlives its
    use. The gradient lists run in ring order: one core per position, and
    one mean and log-std vector per Gaussian position.
    """
    items, gauss, norm_items = [], [], []
    for j, col in enumerate(cols):
        pos = position(j)
        mats, shift, weights = _forward_item(pos, col)
        items.append((mats, shift))
        gauss.append(weights)
        norm_items.append((pos.summed, 0.0))
    logtrace, adj = _adjoints(items, n, row_weights)
    lognorm, norm_adj = _adjoints(norm_items, 1, np.array([row_weights.sum()]))
    logp = logtrace - lognorm[0]

    d_cores, d_means, d_log_stds = [], [], []
    for j, g, h in zip(range(len(cols) - 1, -1, -1), adj, norm_adj):
        pos, col, gauss_w = position(j), cols[j], gauss[j]
        abs_grad = np.zeros_like(pos.core)
        if gauss_w is not None:
            u = np.einsum("nab,kab->nk", g, pos.abs_core)
            e = u * gauss_w
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # blown-up parameters land here with inf/nan, which the
                # divergence check downstream turns into a clear error
                stds = np.exp(pos.log_stds)
                zc = (col[:, None] - pos.means[None, :]) / stds[None, :]
                d_means.append(np.einsum("nk,nk->k", e, zc / stds[None, :]))
                d_log_stds.append(np.einsum("nk,nk->k", e, zc * zc - 1.0))
            abs_grad += np.einsum("nab,nk->kab", g, gauss_w)
        else:
            observed = col >= 0
            if observed.any():
                np.add.at(abs_grad, col[observed], g[observed])
            if (~observed).any():
                abs_grad += g[~observed].sum(axis=0)
        abs_grad -= h[0]
        d_cores.append(np.sign(pos.core) * abs_grad)
    return logp, GradPsi(d_cores[::-1], d_means[::-1], d_log_stds[::-1])


def grad_log_density(model: TripModel, z: Sequence[float]) -> tuple[float, GradPsi]:
    """Log-density at ``z`` (fully observed) and its exact parameter gradient."""
    cols = model._table.columns((range(model.d), np.reshape(z, (1, -1))))
    logp, grad = _weighted_chain_grad(model._ring.__getitem__, cols, 1, np.ones(1))
    return float(logp[0]), grad


def reinforce_grad(
    model: TripModel, samples: np.ndarray, scores: Sequence[float]
) -> GradPsi:
    """Score-function gradient estimate with the mean score as baseline.

    Averages ``grad log p(z_i) * (score_i - mean score)`` over the batch;
    constant scores therefore produce an exactly zero gradient.
    """
    samples = np.asarray(samples, dtype=float)
    cols = model._table.columns((range(model.d), samples))
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.shape[0] != samples.shape[0]:
        raise ValueError("scores must match samples")
    if scores.shape[0] < 2:
        raise ValueError("need at least 2 samples: the mean baseline is undefined")
    if scores.max() == scores.min():
        # constant scores center to exactly zero; skip the float round trip
        weights = np.zeros(scores.shape[0])
    else:
        weights = (scores - scores.mean()) / scores.shape[0]
    n = samples.shape[0]
    return _weighted_chain_grad(model._ring.__getitem__, cols, n, weights)[1]


def kl_and_elbo_mc(
    model: TripModel,
    q_mean: Sequence[float],
    q_std: Sequence[float],
    recon_logp: Callable[[np.ndarray], float],
    num_samples: int,
    rng: "int | np.random.Generator",
) -> dict[str, float]:
    """Monte-Carlo estimates of KL(q || model) and of the evidence lower bound.

    ``q`` is the diagonal Gaussian with the given mean and std; samples are
    drawn by the location-scale transform. ``recon_logp`` maps a latent vector
    to a reconstruction log-likelihood (use ``lambda z: 0.0`` to get the KL
    term alone).
    """
    q_mean = np.asarray(q_mean, dtype=float).reshape(-1)
    q_std = np.asarray(q_std, dtype=float).reshape(-1)
    if q_mean.shape[0] != model.d or q_std.shape[0] != model.d:
        raise ValueError(f"q_mean/q_std must have length d={model.d}")
    if not np.all(q_std > 0.0):
        raise ValueError("q_std must be positive")
    num_samples = ring.at_least(num_samples, 1, "num_samples")
    gen = _as_rng(rng)
    eps = gen.standard_normal((num_samples, model.d))
    z = q_mean[None, :] + eps * q_std[None, :]
    log_q = gaussian_logpdf(z, q_mean[None, :], np.log(q_std)[None, :]).sum(axis=1)
    log_p = model.log_densities(range(model.d), z)
    recon = np.array([float(recon_logp(row)) for row in z])
    kl = float(np.mean(log_q - log_p))
    elbo = float(np.mean(recon + log_p - log_q))
    return {"elbo": elbo, "kl": kl}


# -- flat parameter views (used by optimizers and finite-difference checks) ----


def _flat(*groups: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays of every group, raveled and concatenated in order."""
    return np.concatenate([a.ravel() for group in groups for a in group])


def _split(vec: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of ``vec`` with the given shapes, in order: the inverse of :func:`_flat`."""
    sizes = [int(np.prod(s)) for s in shapes]
    if sum(sizes) != vec.shape[0]:
        raise ValueError("parameter vector length mismatch")
    return [vec[e - k : e].reshape(s) for e, k, s in zip(np.cumsum(sizes), sizes, shapes)]


def param_vector(model: TripModel) -> np.ndarray:
    """Every stored core entry, then every mean, then every log-std, in
    dimension order: the layout of :meth:`GradPsi.as_vector`."""
    return _flat(model.cores.cores, model.means, model.log_stds)


def model_from_vector(template: TripModel, vec: np.ndarray) -> TripModel:
    """Rebuild a model shaped like ``template`` from a flat parameter vector."""
    d = template.d
    groups = (template.cores.cores, template.means, template.log_stds)
    shapes = [a.shape for group in groups for a in group]
    parts = _split(np.asarray(vec, dtype=float), shapes)
    return TripModel(parts[:d], parts[d : 2 * d], log_stds=parts[2 * d :])
