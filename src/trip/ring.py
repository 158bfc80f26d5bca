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

Every model shows its public arguments to the engine as one :class:`Table`:
its ring positions plus the ring position of each table column. A discrete
or continuous model's columns are its variables in ring order; a joint
model's are its latents, then its attributes, and a fit reads its data
through the table of its ring. The table checks one or more ``(dims, values)``
blocks in place, whichever entry point they came through: each block's shape
``(n, len(dims))``, then duplicate or out-of-range columns, then each cell by
the kind of its position. A categorical cell is an integer in ``-1..C-1`` (an
integral float counts); a real cell is a finite float. A count, such as the
number of rows to draw, epochs or sizes, follows one rule too (:func:`at_least`):
an integer (again, an integral float counts) no less than its least value.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Iterator, Mapping, Sequence

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

    @staticmethod
    def cells(
        block: np.ndarray, positions: Sequence["Categorical"], dims: Sequence[int]
    ) -> np.ndarray:
        """``block``, one column per position, as category indices; raises
        ValueError naming the table column ``dims[i]`` of a bad cell."""
        counts = np.array([p.abs_core.shape[0] for p in positions])
        bad = ~((block.min(axis=0, initial=-1) >= -1) & (block.max(axis=0, initial=-1) < counts))
        if block.dtype.kind == "f":
            bad |= (np.floor(block) != block).any(axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"column {dims[i]}: categorical cells must be integers "
                             f"in -1..{counts[i] - 1}")
        return block.astype(int, copy=False)


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


@dataclass(frozen=True)
class Table:
    """``positions`` in ring order, ``ring_of[j]`` the ring position of table
    column ``j``, and the model's ``log_normalizer``, read only when needed."""

    positions: Sequence[Categorical]
    ring_of: Sequence[int]
    log_normalizer: Callable[[], float]

    def columns(self, *blocks: tuple) -> list:
        """Ring-order ``cols`` observing, for each ``(dims, values)`` block, table
        columns ``dims`` at an ``(n, len(dims))`` array, one ``n`` for all blocks;
        other positions are summed out. Raises ValueError on a bad shape, column
        or cell. Adjacent same-kind columns needing no conversion are views."""
        pairs = [(list(dims), np.asarray(values)) for dims, values in blocks]
        n = pairs[0][1].shape[:1]
        if any(values.ndim != 2 or values.shape != (*n, len(dims)) for dims, values in pairs):
            raise ValueError("values must have shape (n, len(dims)), one n for every block")
        keys = [column(k, len(self.ring_of)) for dims, _ in pairs for k in dims]
        if len(set(keys)) != len(keys):
            raise ValueError("dims must be distinct table columns")
        cols: list = [None] * len(self.positions)
        for dims, values in pairs:
            if values.dtype.kind not in "if":
                values = values.astype(float)
            at = [self.ring_of[int(k)] for k in dims]
            kinds = [type(self.positions[r]) for r in at]
            for kind in dict.fromkeys(kinds):  # one vectorized check per position kind
                idx = [i for i, t in enumerate(kinds) if t is kind]
                take = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx
                cells = kind.cells(values[:, take], [self.positions[at[i]] for i in idx],
                                   [int(dims[i]) for i in idx])
                for i, col in zip(idx, cells.T):
                    cols[at[i]] = col
        return cols

    def log_probs(self, *blocks: tuple) -> np.ndarray:
        """Normalized log-probability of each row of the ``(dims, values)``
        blocks, as in :meth:`columns`, every other column summed out."""
        cols = self.columns(*blocks)
        n = len(blocks[0][1])
        if n == 0:
            return np.empty(0)
        return chain_logtrace(items(self.positions, cols), n) - self.log_normalizer()

    def sample(self, entries: Sequence, n: int, gen: np.random.Generator) -> np.ndarray:
        """:func:`sample` on one entry per table column: :data:`DRAW`, ``None``
        (summed out) or a fixed cell. Returns the draws in table order."""
        n = at_least(n, 0, "n")
        fixed = [j for j, e in enumerate(entries) if e is not DRAW and e is not None]
        cols = self.columns((fixed, [[entries[j] for j in fixed]]))
        for j, e in enumerate(entries):
            if e is DRAW:
                cols[self.ring_of[j]] = DRAW
        return sample(self.positions, cols, n, gen)[:, self.ring_of]


def column(k, count: int) -> int:
    """``k`` as an int; raises ValueError unless it is integral and in ``0..count-1``."""
    if k != int(k) or not 0 <= k < count:
        raise ValueError(f"index {k} is not a column in 0..{count - 1}")
    return int(k)


def at_least(x, least: int, what: str) -> int:
    """``x`` as an int; raises ValueError unless it is integral (an integral
    float counts) and ``>= least``."""
    if not (isinstance(x, Integral) or isinstance(x, Real) and float(x).is_integer()) or x < least:
        raise ValueError(f"{what}: counts must be integers >= {least}, got {x!r}")
    return int(x)


def entries(cells: Mapping[int, object], count: int, absent) -> list:
    """``cells`` as a list of ``count`` table entries, ``absent`` at every
    column it leaves out; raises ValueError on a key that is not a
    :func:`column`."""
    out = [absent] * count
    for k, value in cells.items():
        out[column(k, count)] = value
    return out


def row(cells: Mapping[int, object]) -> tuple[list[int], list[list]]:
    """``(dims, values)`` of one table row observing the columns of ``cells``."""
    dims = sorted(cells)
    return dims, [[cells[k] for k in dims]]
