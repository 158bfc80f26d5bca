"""The one ring engine behind every model in this package.

A model is a ring of positions, one per variable, and each quantity it
computes is a trace of the cyclic product of one matrix per position. A
position is either observed, contributing the slices selected or weighted by
its observation, or summed out, contributing its slice sum. Positions come
in two kinds: :class:`Categorical` here, which holds ``|Q|`` and its slice
sum, and :class:`~trip.continuous.GaussianPosition`, which also holds
per-slice means and log-stds and is observed through its Gaussian weights.

The engine offers four operations on a list of positions: the matrices of
one position for a column of observations (:func:`matrices`), a lazy stream
of those matrices for :func:`~trip.chain.chain_logtrace` (:func:`items`),
the log-normalizer (:func:`log_normalizer`), and ancestral sampling
(:func:`sample`).

Each operation but the normalizer describes what happens at every position
by one entry of a list ``cols``. ``None`` sums the position out. An array
observes it: one value per row, or one value shared by every row when the
array has length 1 (a fixed condition). A ``-1`` in a categorical column sums
the position out for that row only. :func:`sample` takes one more entry,
:data:`DRAW`, for a position whose value it draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import chain
from .chain import Item, _identity_batch, chain_logtrace, suffix_products
from .errors import ConditionOnNullError, DegenerateDistributionError


@dataclass
class Categorical:
    """A ring position whose slices are selected by a category index."""

    core: np.ndarray  # stored entries, signs intact
    abs_core: np.ndarray  # |Q|, shape (C, m, m')
    summed: np.ndarray  # sum of the slices of |Q|, shape (m, m')

    @classmethod
    def of(cls, core: np.ndarray, *extra) -> "Categorical":
        """The position of a stored core; ``extra`` fills a subclass's fields."""
        abs_core = np.abs(core)
        return cls(core, abs_core, abs_core.sum(axis=0), *extra)

    def observe(self, col: np.ndarray) -> Item:
        """One matrix per row; a ``-1`` entry sums the position out for that row."""
        observed = col >= 0
        if not observed.any():
            return self.summed, 0.0
        if observed.all():
            return self.abs_core[col], 0.0
        mats = np.empty((col.shape[0],) + self.summed.shape)
        mats[~observed] = self.summed
        mats[observed] = self.abs_core[col[observed]]
        return mats, 0.0

    def draw(self, idx: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """The observation of a row whose slice ``idx`` was drawn."""
        return idx


# the entry of ``cols`` that :func:`sample` draws
DRAW = object()


def matrices(position: Categorical, col: "np.ndarray | None") -> Item:
    """Ring matrices ``(mats, logshift)`` of one position for a column of
    observations; ``col=None`` sums the position out for every row."""
    if col is None:
        return position.summed, 0.0
    return position.observe(col)


def items(positions: Sequence[Categorical], cols: Sequence) -> Iterator[Item]:
    """The matrices of every position, built one at a time as the walk needs
    them, so memory stays at one position's matrices per row."""
    return (matrices(p, col) for p, col in zip(positions, cols))


def log_normalizer(positions: Sequence[Categorical]) -> float:
    """log Tr of the ring with every position summed out."""
    value = float(chain_logtrace(((p.summed, 0.0) for p in positions), 1)[0])
    if not np.isfinite(value):
        raise DegenerateDistributionError(
            "all effective core entries are zero; the ring has no mass"
        )
    return value


def sample(
    positions: Sequence[Categorical], cols: Sequence, n: int, gen: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` rows by the chain rule, in ring order.

    ``cols`` holds one entry per position, as in :func:`items`: ``None``
    sums the position out, a length-1 column fixes it, and :data:`DRAW`
    draws it from its exact conditional given the fixed positions and the
    positions drawn before it. Returns an ``(n, len(positions))`` array;
    summed-out columns hold NaN.
    """
    mats = [p.summed if col is DRAW else matrices(p, col)[0] for p, col in zip(positions, cols)]
    # a fixed column is one row shared by every row, so each suffix is one matrix
    suffix = [s.reshape(s.shape[-2:]) for s in suffix_products(mats)]
    if not np.trace(suffix[0]) > 0.0:
        raise ConditionOnNullError("conditioning event has probability zero")
    buf = _identity_batch(mats[0].shape[-2], n)
    out = np.full((n, len(positions)), np.nan)
    for j, (p, col, mat) in enumerate(zip(positions, cols, mats)):
        if col is DRAW:
            t = np.einsum("ca,nab->ncb", suffix[j + 1], buf)
            weights = np.einsum("ncb,sbc->ns", t, p.abs_core)
            totals = weights.sum(axis=1)
            if not np.all(np.isfinite(totals) & (totals > 0.0)):
                raise ConditionOnNullError("zero conditional mass encountered during sampling")
            cum = np.cumsum(weights, axis=1)
            u = gen.random(n) * totals
            idx = np.minimum((cum <= u[:, None]).sum(axis=1), p.abs_core.shape[0] - 1)
            col = p.draw(idx, gen)
            mat, _ = p.observe(col)
        if col is not None:
            out[:, j] = col
        # through the module, so a wrapper of chain._multiply sees these products too
        buf, _ = chain._renormalize(chain._multiply(buf, mat), 0.0)
    return out
