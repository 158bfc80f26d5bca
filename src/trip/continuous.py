"""Continuous distributions: a Gaussian-mixture lattice weighted by a core ring.

Each dimension ``k`` carries ``N_k`` Gaussian components with its own means
and standard deviations; the joint density is a mixture over the full lattice
of per-dimension component choices, whose (unnormalized) weights are the ring
traces of :class:`~trip.cores.CoreSet`. Because the weight tensor never has
to be materialized, marginals, one-dimensional conditionals, and chain-rule
sampling all cost a single pass around the ring.

Each dimension is a :class:`GaussianPosition` of the ring engine
(:mod:`trip.ring`), which does every walk; this module defines how such a
position is observed and drawn. An observed dimension contributes the matrix
``sum_k |Q[k]| * pdf(z | mean_k, std_k)`` to the ring product; a marginalized
dimension contributes the plain slice sum. Gaussian values are computed in
log space and shifted by their per-dimension maximum before exponentiation,
so observations hundreds of standard deviations from every component still
produce finite log-densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import ring
from .chain import chain_logtrace
from .cores import CoreSet, _as_rng
from .errors import ConditionOnNullError, CoreShapeError

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Observed entries of a partial continuous assignment; absent = marginalized.
ContinuousMask = Mapping[int, float]


def gaussian_logpdf(z, means, log_stds):
    """Element-wise log N(z | means, exp(log_stds)) with broadcasting.

    Residuals too large for the square map to ``-inf`` rather than warning.
    """
    with np.errstate(over="ignore"):
        t = (np.asarray(z) - means) * np.exp(-log_stds)
        return -0.5 * t * t - log_stds - _LOG_SQRT_2PI


def _component_weights(z_col: np.ndarray, means: np.ndarray, log_stds: np.ndarray):
    """Stabilized per-component likelihoods of a batch of scalars.

    Returns ``(weights, shift)`` with ``weights[i, k] * exp(shift[i])`` equal
    to the true likelihood of ``z_col[i]`` under component ``k``; the shift is
    the row-wise max log-likelihood, so at least one weight is exactly 1. A
    point beyond every component's reach gets zero weights and a ``-inf``
    shift, which the chain walk turns into a ``-inf`` log-density.
    """
    logw = gaussian_logpdf(z_col[:, None], means[None, :], log_stds[None, :])
    shift = logw.max(axis=1)
    safe = np.where(np.isfinite(shift), shift, 0.0)
    return np.exp(logw - safe[:, None]), shift


def observed_matrix(abs_core, z_col, means, log_stds):
    """Ring matrices for an observed dimension, one per batch row.

    Returns ``(mats, shift)``: ``mats[i] * exp(shift[i])`` is the true
    likelihood-weighted slice sum for row ``i``.
    """
    weights, shift = _component_weights(z_col, means, log_stds)
    return np.einsum("kab,ik->iab", abs_core, weights), shift


@dataclass
class GaussianPosition(ring.Categorical):
    """A ring position whose slices are Gaussian components of one dimension."""

    means: np.ndarray
    log_stds: np.ndarray

    def observe(self, col: np.ndarray) -> ring.Item:
        return observed_matrix(self.abs_core, col, self.means, self.log_stds)

    def draw(self, idx: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return self.means[idx] + np.exp(self.log_stds[idx]) * gen.standard_normal(idx.shape[0])

    @staticmethod
    def cells(block: np.ndarray, positions, dims: Sequence[int]) -> np.ndarray:
        """``block`` as floats; raises ValueError naming the table column
        ``dims[i]`` of a cell that is not finite."""
        block = block.astype(float, copy=False)
        finite = np.isfinite(block)
        if not finite.all():
            i = int(np.argmin(finite.all(axis=0)))
            raise ValueError(f"column {dims[i]}: real cells must be finite")
        return block


@dataclass(frozen=True)
class ParamStats:
    """Parameter accounting at 8-byte reals."""

    param_count: int
    memory_bytes: int

    @property
    def memory_mib(self) -> float:
        return self.memory_bytes / 2**20


class TripModel:
    """Gaussian-mixture lattice with ring-weighted modes.

    Parameters
    ----------
    cores : CoreSet or sequence of arrays
        Mode-weight ring; variable ``k`` of the ring selects the component of
        dimension ``k``.
    means, stds : sequences of 1-D arrays
        Per-dimension component means and standard deviations, each of length
        ``N_k``. Standard deviations must be strictly positive and are stored
        internally as logs; pass ``log_stds`` instead of ``stds`` to supply
        the internal parameterization directly (exactly one of the two).
    """

    def __init__(
        self,
        cores: "CoreSet | Sequence[np.ndarray]",
        means: Sequence[np.ndarray],
        stds: Sequence[np.ndarray] | None = None,
        *,
        log_stds: Sequence[np.ndarray] | None = None,
    ):
        self._cores = cores if isinstance(cores, CoreSet) else CoreSet(cores)
        counts = self._cores.category_counts
        if (stds is None) == (log_stds is None):
            raise ValueError("supply exactly one of stds or log_stds")
        scale = stds if stds is not None else log_stds
        if len(means) != self.d or len(scale) != self.d:
            raise CoreShapeError("means/stds must supply one vector per dimension")
        mean_list, log_std_list = [], []
        for k, (mu, sd) in enumerate(zip(means, scale)):
            mu = np.array(mu, dtype=float).reshape(-1)
            sd = np.array(sd, dtype=float).reshape(-1)
            if mu.shape[0] != counts[k] or sd.shape[0] != counts[k]:
                raise CoreShapeError(
                    f"dimension {k}: expected {counts[k]} components, "
                    f"got {mu.shape[0]} means / {sd.shape[0]} stds"
                )
            if not np.all(np.isfinite(mu)):
                raise CoreShapeError(f"dimension {k}: non-finite mean")
            if stds is not None:
                if not (np.all(np.isfinite(sd)) and np.all(sd > 0.0)):
                    raise CoreShapeError(
                        f"dimension {k}: stds must be positive and finite"
                    )
                log_sd = np.log(sd)
            else:
                if not np.all(np.isfinite(sd)):
                    raise CoreShapeError(f"dimension {k}: log-stds must be finite")
                log_sd = sd
            mu.flags.writeable = False
            log_sd.flags.writeable = False
            mean_list.append(mu)
            log_std_list.append(log_sd)
        self._means = tuple(mean_list)
        self._log_stds = tuple(log_std_list)

    # -- structure ----------------------------------------------------------
    @property
    def cores(self) -> CoreSet:
        return self._cores

    @property
    def d(self) -> int:
        return self._cores.d

    @property
    def component_counts(self) -> tuple[int, ...]:
        return self._cores.category_counts

    @property
    def means(self) -> tuple[np.ndarray, ...]:
        return self._means

    @property
    def log_stds(self) -> tuple[np.ndarray, ...]:
        return self._log_stds

    @property
    def stds(self) -> tuple[np.ndarray, ...]:
        return tuple(np.exp(ls) for ls in self._log_stds)

    @cached_property
    def _ring(self) -> list[GaussianPosition]:
        return [
            GaussianPosition(p.core, p.abs_core, p.summed, mu, ls)
            for p, mu, ls in zip(self._cores._ring, self._means, self._log_stds)
        ]

    def __repr__(self) -> str:
        return (
            f"TripModel(d={self.d}, component_counts={self.component_counts}, "
            f"core_sizes={self._cores.core_sizes})"
        )

    def param_stats(self) -> ParamStats:
        """Core entries plus one mean and one std per component."""
        count = sum(int(np.prod(c.shape)) for c in self._cores.cores)
        count += 2 * sum(self.component_counts)
        return ParamStats(param_count=count, memory_bytes=8 * count)

    @property
    def _table(self) -> ring.Table:
        return ring.Table(self._ring, range(self.d), lambda: self._cores.log_normalizer)

    # -- densities ------------------------------------------------------------
    def log_density(self, observed: ContinuousMask | None = None) -> float:
        """log density of the observed values, marginalized over the rest.

        The empty mask returns exactly 0.0.
        """
        return float(self.log_densities(*ring.row(observed or {}))[0])

    def log_densities(self, dims: Sequence[int], values: np.ndarray) -> np.ndarray:
        """Batched :meth:`log_density`: ``values`` has shape ``(n, len(dims))``."""
        return self._table.log_probs((dims, values))

    # -- conditionals and sampling ---------------------------------------------
    def conditional_mixture_weights(self, k: int, prefix: Sequence[float]) -> np.ndarray:
        """Component probabilities of dimension ``k`` given values of 0..k-1."""
        k = ring.column(k, self.d)
        # the component of dimension k is a categorical position observed at
        # each of its values in turn, one row per value; prefix cells are shared
        count = self.component_counts[k]
        cols = self._table.columns((range(k), [prefix]))
        cols[k] = np.arange(count)
        positions = self._ring[:k] + [self._cores._ring[k]] + self._ring[k + 1 :]
        logw = chain_logtrace(ring.items(positions, cols), count)
        top = logw.max()
        if not np.isfinite(top):
            raise ConditionOnNullError("conditioning values carry zero mass")
        weights = np.exp(logw - top)
        return weights / weights.sum()

    def _ancestral_sample(self, cells: Sequence, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the :data:`~trip.ring.DRAW` dimensions in ring order, each
        conditioned on the fixed cells and on the dimensions drawn before it."""
        return self._table.sample(cells, n, rng)

    def sample(self, *, rng: "int | np.random.Generator") -> np.ndarray:
        """Draw one vector by per-dimension chain-rule sampling."""
        return self.sample_batch(1, rng=rng)[0]

    def sample_batch(self, n: int, *, rng: "int | np.random.Generator") -> np.ndarray:
        return self._ancestral_sample([ring.DRAW] * self.d, n, _as_rng(rng))

    def conditional_resample(
        self,
        current: Sequence[float],
        resample_dims: Sequence[int],
        *,
        rng: "int | np.random.Generator",
    ) -> np.ndarray:
        """Redraw the listed dimensions conditioned on all remaining ones.

        Kept dimensions are returned unchanged; resampled dimensions are drawn
        jointly by the chain rule, each conditioned on every kept dimension
        plus the resampled dimensions drawn before it.
        """
        current = np.asarray(current, dtype=float)
        if current.shape != (self.d,):
            raise ValueError(f"current must be a vector of length d={self.d}")
        draw = ring.entries(dict.fromkeys(resample_dims, True), self.d, False)
        cells = [ring.DRAW if redraw else z for redraw, z in zip(draw, current)]
        return self._ancestral_sample(cells, 1, _as_rng(rng))[0]
