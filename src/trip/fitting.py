"""Maximum-likelihood fitting by minibatch gradient ascent.

Means and standard deviations are initialized per dimension with a small
1-D Gaussian-mixture EM (fixed iteration count, kmeans++-style seeding);
cores start as standard normal noise, which the absolute-value rule turns
into valid non-negative weights. The optimizer is Adam on one flat vector, of
which every core, mean and log-std of the fit is a view. Its layout is that of
``param_vector``, ``model_from_vector`` and ``GradPsi.as_vector``: every core
by variable id (latents, then attributes), then the means, then the log-stds.
The data's cells follow the rules of the fitted model's table. Optionally,
mixtures and cores are re-initialized from the data on a fixed epoch period,
which mirrors how the prior is refreshed when the data stream itself drifts;
on a static dataset it discards progress, so it is off by default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .continuous import GaussianPosition, TripModel, gaussian_logpdf
from .errors import DegenerateDistributionError, DivergenceError
from .gradients import _flat, _split, _weighted_chain_grad
from .joint import JointModel, _check_permutation, make_permutation
from .ring import Categorical, Table, at_least

EpochCallback = Callable[[int, float], None]


@dataclass
class FitConfig:
    """Optimizer hyperparameters and initialization policy."""

    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 128
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    reinit_period_epochs: int = 0  # 0 disables periodic re-initialization
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.epochs = at_least(self.epochs, 1, "epochs")
        self.batch_size = at_least(self.batch_size, 1, "batch_size")
        self.reinit_period_epochs = at_least(self.reinit_period_epochs, 0, "reinit_period_epochs")


class _Adam:
    """Adam on one flat parameter vector, updated in place: the moments are
    flat arrays of its layout, and a step is five elementwise expressions."""

    def __init__(self, size: int, config: FitConfig):
        self.lr = config.learning_rate
        self.b1, self.b2, self.eps = config.beta1, config.beta2, config.eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        self.m *= self.b1
        self.m += (1.0 - self.b1) * grad
        self.v *= self.b2
        self.v += (1.0 - self.b2) * grad * grad
        theta -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


def fit_gmm_1d(
    x: np.ndarray,
    n_components: int,
    rng: np.random.Generator,
    n_iter: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """EM fit of a 1-D Gaussian mixture; returns (means, stds).

    Seeds are chosen kmeans++ style: each new center is a data point drawn
    with probability proportional to its squared distance from the centers
    picked so far. Standard deviations are floored to avoid collapse onto a
    single point.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    for _ in range(n_components - 1):
        d2 = np.min((x[:, None] - np.array(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total > 0:
            centers.append(x[rng.choice(n, p=d2 / total)])
        else:
            centers.append(x[rng.integers(n)])
    means = np.array(centers)

    spread = float(x.std())
    floor = max(1e-6, 1e-3 * spread)
    stds = np.full(n_components, max(spread, floor))
    log_weights = np.full(n_components, -np.log(n_components))

    for _ in range(n_iter):
        logr = log_weights[None, :] + gaussian_logpdf(
            x[:, None], means[None, :], np.log(stds)[None, :]
        )
        shift = logr.max(axis=1, keepdims=True)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        r = np.exp(logr - shift)
        r /= r.sum(axis=1, keepdims=True)
        mass = r.sum(axis=0)
        alive = mass > 1e-12
        log_weights = np.log(np.maximum(mass / n, 1e-300))
        means = np.where(alive, (r * x[:, None]).sum(axis=0) / np.maximum(mass, 1e-300), means)
        var = (r * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / np.maximum(mass, 1e-300)
        stds = np.where(alive, np.sqrt(np.maximum(var, floor**2)), stds)
    return means, stds


def nll_regression_epochs(
    history: Sequence[float], window: int = 10, tol: float = 1e-2
) -> list[int]:
    """Epochs after which the loss failed to dip within the next ``window``.

    Single-epoch noise is tolerated: an epoch is flagged only when none of
    the following ``window`` epochs improves on it by more than ``tol``.
    """
    return [
        i
        for i in range(len(history) - window)
        if min(history[i + 1 : i + 1 + window]) > history[i] + tol
    ]


def _check_data(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("data must be an (n, d) matrix with at least one row")
    return data


def fit_mle(
    data: np.ndarray,
    n_components: int,
    core_size: int,
    config: FitConfig | None = None,
    on_epoch: EpochCallback | None = None,
) -> TripModel:
    """Fit a continuous model to data by maximum likelihood.

    ``n_components`` is the number of Gaussian components per dimension and
    ``core_size`` the (uniform) ring matrix size. ``on_epoch`` receives
    ``(epoch, mean_nll)`` after every epoch.
    """
    data = _check_data(data)
    n, d = data.shape
    return fit_joint_mle(
        data, np.empty((n, 0), dtype=int), [], n_components, core_size, config,
        permutation=np.arange(d), on_epoch=on_epoch,
    ).trip


def fit_joint_mle(
    latents: np.ndarray,
    attributes: np.ndarray,
    cardinalities: Sequence[int],
    n_components: int,
    core_size: int,
    config: FitConfig | None = None,
    permutation: Sequence[int] | None = None,
    attribute_names: Sequence[str] | None = None,
    on_epoch: EpochCallback | None = None,
) -> JointModel:
    """Fit a joint latent-attribute model by maximizing mean log p(z, y_ob).

    ``attributes`` is an ``(n, c)`` matrix of categorical cells; ``-1``
    marks a missing value, which enters the likelihood through exact
    marginalization rather than imputation.
    """
    latents = _check_data(latents)
    config = config or FitConfig()
    attributes = np.asarray(attributes)
    if attributes.ndim != 2 or attributes.shape[0] != latents.shape[0]:
        raise ValueError("attributes must be (n, c) aligned with latents")
    n_components, core_size, *cards = (
        at_least(s, 1, "n_components, core_size and cardinalities")
        for s in [n_components, core_size, *cardinalities])
    if attributes.shape[1] != len(cards):
        raise ValueError("one cardinality per attribute column required")

    d, c = latents.shape[1], len(cards)
    rng = np.random.default_rng(config.seed)
    if permutation is None:
        permutation = make_permutation(d, c, rng)
    perm = _check_permutation(permutation, d + c)

    # one flat vector in the layout of param_vector; every array is a view of it
    shapes = [(n_components, core_size, core_size)] * d
    shapes += [(cv, core_size, core_size) for cv in cards] + [(n_components,)] * (2 * d)
    theta = np.zeros(sum(int(np.prod(s)) for s in shapes))
    parts = _split(theta, shapes)
    cores, means, log_stds = parts[: d + c], parts[d + c : 2 * d + c], parts[2 * d + c :]
    # the gradient arrives in ring order: each variable's ring position, and
    # each latent's rank among the Gaussian positions
    where, rank = np.argsort(perm), np.argsort(perm[perm < d])

    def position(p: int) -> Categorical:
        v = perm[p]
        if v < d:
            return GaussianPosition.of(cores[v], means[v], log_stds[v])
        return Categorical.of(cores[v])

    # the data in ring order, checked by the ring's table (kinds and slice counts only)
    cols = Table([position(p) for p in range(d + c)], where, None).columns(
        (range(d), latents), (range(d, d + c), attributes))

    def initialize() -> None:
        for j in range(d):
            mu, sd = fit_gmm_1d(latents[:, j], n_components, rng)
            means[j][:] = mu
            log_stds[j][:] = np.log(sd)
            cores[j][:] = rng.standard_normal((n_components, core_size, core_size))
        for i, cv in enumerate(cards):
            cores[d + i][:] = rng.standard_normal((cv, core_size, core_size))

    initialize()

    n = latents.shape[0]
    opt = _Adam(theta.shape[0], config)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total_logp = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            b = idx.shape[0]
            batch = [col[idx] for col in cols]
            try:
                logp, grad = _weighted_chain_grad(position, batch, b, np.full(b, 1.0 / b))
            except DegenerateDistributionError as exc:
                raise DivergenceError(epoch, f"epoch {epoch}: {exc}") from exc
            opt.step(theta, -_flat([grad.d_cores[p] for p in where],
                                   [grad.d_means[r] for r in rank], [grad.d_log_stds[r] for r in rank]))
            total_logp += float(logp.sum())
        nll = -total_logp / n
        if not np.isfinite(nll):
            raise DivergenceError(epoch)
        history.append(nll)
        if on_epoch is not None:
            on_epoch(epoch, nll)
        period = config.reinit_period_epochs
        if period > 0 and (epoch + 1) % period == 0 and epoch + 1 < config.epochs:
            initialize()
            opt = _Adam(theta.shape[0], config)
    for i in nll_regression_epochs(history):
        warnings.warn(
            f"training NLL did not improve in the 10 epochs after epoch {i}",
            stacklevel=2,
        )
        break
    trip = TripModel(cores[:d], means, log_stds=log_stds)
    return JointModel(trip, cores[d:], perm, attribute_names)
