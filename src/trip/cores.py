"""Discrete distributions over lattices parameterized by a ring of core tensors.

A :class:`CoreSet` holds ``d`` third-order tensors, one per variable. The
``k``-th core has shape ``(N_k, m_k, m_{k+1})``: slicing it at a variable
value yields an ``m_k x m_{k+1}`` matrix, and the unnormalized weight of a
full assignment is the trace of the cyclic product of the selected matrices
(``m_{d+1}`` wraps to ``m_1``). Stored entries are unconstrained; every
computation uses their element-wise absolute values, which keeps weights
non-negative while leaving the parameters free for gradient-based fitting.

Marginalizing a variable replaces its core by the sum of its slices, which
collapses that variable exactly in a single matrix. All probabilities are
normalized on the fly against the fully summed ring.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Mapping, Sequence

import numpy as np

from . import ring
from .errors import ConditionOnNullError, CoreShapeError

# Observed entries of a partial assignment; absent variables are marginalized.
AssignmentMask = Mapping[int, int]


def _as_rng(rng: "int | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


class CoreSet:
    """Ordered ring of non-negative core tensors defining a joint distribution.

    Parameters
    ----------
    cores : sequence of array-like
        ``d`` arrays, the ``k``-th of shape ``(N_k, m_k, m_{k+1})`` with the
        last core wrapping back to the first (``m_{d+1} == m_1``). Entries
        must be finite; signs are ignored at use.
    """

    def __init__(self, cores: Sequence[np.ndarray]):
        arrays = tuple(np.array(c, dtype=float) for c in cores)
        if len(arrays) == 0:
            raise CoreShapeError("a core set needs at least one core")
        for k, core in enumerate(arrays):
            if core.ndim != 3:
                raise CoreShapeError(f"core {k} must be 3-D, got shape {core.shape}")
            if min(core.shape) < 1:
                raise CoreShapeError(f"core {k} has an empty axis: {core.shape}")
            if not np.all(np.isfinite(core)):
                raise CoreShapeError(f"core {k} contains non-finite entries")
        for k, core in enumerate(arrays):
            nxt = arrays[(k + 1) % len(arrays)]
            if core.shape[2] != nxt.shape[1]:
                raise CoreShapeError(
                    f"core {k} right size {core.shape[2]} does not match "
                    f"core {(k + 1) % len(arrays)} left size {nxt.shape[1]}"
                )
        for core in arrays:
            core.flags.writeable = False
        self._cores = arrays

    # -- structure ----------------------------------------------------------
    @property
    def cores(self) -> tuple[np.ndarray, ...]:
        return self._cores

    @property
    def d(self) -> int:
        return len(self._cores)

    @property
    def category_counts(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self._cores)

    @property
    def core_sizes(self) -> tuple[int, ...]:
        """Left matrix size ``m_k`` of each core (the ring closes the list)."""
        return tuple(c.shape[1] for c in self._cores)

    @cached_property
    def _ring(self) -> list[ring.Categorical]:
        out = [ring.Categorical.of(c) for c in self._cores]
        for p in out:
            p.abs_core.flags.writeable = False
            p.summed.flags.writeable = False
        return out

    @property
    def abs_cores(self) -> tuple[np.ndarray, ...]:
        return tuple(p.abs_core for p in self._ring)

    @property
    def summed_cores(self) -> tuple[np.ndarray, ...]:
        """Per-variable sum of absolute slices, used to marginalize exactly."""
        return tuple(p.summed for p in self._ring)

    @cached_property
    def log_normalizer(self) -> float:
        return ring.log_normalizer(self._ring)

    def __repr__(self) -> str:
        return (
            f"CoreSet(d={self.d}, category_counts={self.category_counts}, "
            f"core_sizes={self.core_sizes})"
        )

    @property
    def _table(self) -> ring.Table:
        return ring.Table(self._ring, range(self.d), lambda: self.log_normalizer)

    # -- weights and probabilities --------------------------------------------
    def unnormalized_weight(self, assignment: Sequence[int]) -> float:
        """Trace of the ring product of the slices selected by ``assignment``;
        a ``-1`` entry sums its variable out."""
        cols = self._table.columns((range(self.d), [assignment]))
        mats = [ring.matrices(p, c)[0].reshape(p.summed.shape) for p, c in zip(self._ring, cols)]
        return float(np.trace(reduce(np.matmul, mats)))

    def log_marginal(self, observed: AssignmentMask | None = None) -> float:
        """log p of the observed values with all other variables summed out.

        The empty mask returns exactly 0.0. Raises
        :class:`DegenerateDistributionError` when the ring carries no mass at
        all; an individually impossible observation yields ``-inf``.
        """
        return float(self.log_marginals(*ring.row(observed or {}))[0])

    def log_marginals(self, dims: Sequence[int], values: np.ndarray) -> np.ndarray:
        """Batched :meth:`log_marginal`.

        ``dims`` lists the observed variables and ``values`` is an integer
        array of shape ``(n, len(dims))`` giving their values per row; a
        ``-1`` cell sums that variable out for that row.
        """
        return self._table.log_probs((dims, values))

    def log_conditional(self, observed: AssignmentMask, given: AssignmentMask) -> float:
        """log p(observed | given) as a difference of marginals."""
        observed = dict(observed)
        given = dict(given)
        overlap = set(observed) & set(given)
        if overlap:
            raise ValueError(f"observed and given overlap on variables {sorted(overlap)}")
        log_given = self.log_marginal(given)
        if log_given == -np.inf:
            raise ConditionOnNullError("conditioning event has probability zero")
        return self.log_marginal({**observed, **given}) - log_given

    # -- sampling ---------------------------------------------------------------
    def sample(
        self, given: AssignmentMask | None = None, *, rng: "int | np.random.Generator"
    ) -> np.ndarray:
        """Draw one full assignment from p(. | given) by the chain rule."""
        return self.sample_batch(1, given, rng=rng)[0]

    def sample_batch(
        self,
        n: int,
        given: AssignmentMask | None = None,
        *,
        rng: "int | np.random.Generator",
    ) -> np.ndarray:
        """Draw ``n`` assignments; unobserved variables are sampled in ring
        order from their exact one-variable conditionals. A ``-1`` in
        ``given`` sums its variable out, and its column holds ``-1``."""
        cells = ring.entries(given or {}, self.d, ring.DRAW)
        self.log_normalizer  # a ring with no mass at all raises DegenerateDistributionError
        return self._table.sample(cells, n, _as_rng(rng)).astype(int)
