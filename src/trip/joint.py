"""Joint model over continuous latents and discrete attributes in one ring.

Attributes live in the same core ring as the latent dimensions, interleaved
by a permutation (rings capture dependence between close neighbors better
than between distant ones, so the interleaving matters for expressiveness,
not for correctness). The ring is a list of engine positions
(:mod:`trip.ring`) in permutation order: the latents' Gaussian positions and
one categorical position per attribute. Missing attributes are never
imputed: they are marginalized exactly by summing their core slices, both
when evaluating the joint density and when sampling.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import ring
from .continuous import ContinuousMask, TripModel
from .continuous import observed_matrix  # noqa: F401  (a lookup site of bench/tracer.py)
from .cores import CoreSet, _as_rng

# Observed attribute values; absent attributes are missing (marginalized).
PartialAttributes = Mapping[int, int]


def make_permutation(d: int, c: int, seed: "int | np.random.Generator") -> np.ndarray:
    """Uniformly random ring order of ``d`` latent and ``c`` attribute variables.

    Entries ``0..d-1`` are latent dimensions, ``d..d+c-1`` attributes; the
    array lists variable ids by ring position. Deterministic under the seed.
    """
    return _as_rng(seed).permutation(ring.at_least(d, 0, "d") + ring.at_least(c, 0, "c"))


def _check_permutation(permutation: Sequence[int], total: int) -> np.ndarray:
    """A copy of ``permutation`` as an int array, if it orders variables ``0..total-1``."""
    perm = np.array(permutation, dtype=int)
    if sorted(perm.tolist()) != list(range(total)):
        raise ValueError(f"permutation must be a bijection on 0..{total - 1}")
    return perm


class JointModel:
    """A :class:`TripModel` extended with discrete attribute variables.

    Parameters
    ----------
    trip : TripModel
        Model over the ``d`` latent dimensions.
    attribute_cores : sequence of arrays
        One core of shape ``(C_i, m, m')`` per attribute; cardinalities may
        differ from the latent component counts.
    permutation : sequence of int
        Ring order over all ``d + c`` variables (latents ``0..d-1``,
        attributes ``d..d+c-1``). Core shapes must chain compatibly in this
        order, wrapping around; a :class:`CoreShapeError` names a core by its
        position in this order.
    attribute_names : sequence of str, optional
        Defaults to ``attr0, attr1, ...``.
    """

    def __init__(
        self,
        trip: TripModel,
        attribute_cores: Sequence[np.ndarray],
        permutation: Sequence[int],
        attribute_names: Sequence[str] | None = None,
    ):
        self._trip = trip
        self._perm = _check_permutation(permutation, trip.d + len(attribute_cores))
        self._perm.flags.writeable = False

        # one CoreSet checks every core in ring order, naming it by ring position
        cores = CoreSet([
            trip.cores.cores[v] if v < trip.d else attribute_cores[v - trip.d] for v in self._perm
        ]).cores
        self._attr_cores = tuple(cores[p] for p in np.argsort(self._perm)[trip.d :])

        if attribute_names is None:
            attribute_names = [f"attr{i}" for i in range(self.c)]
        if len(attribute_names) != self.c:
            raise ValueError("one name per attribute required")
        self._attr_names = tuple(str(s) for s in attribute_names)

    # -- structure ----------------------------------------------------------
    @property
    def trip(self) -> TripModel:
        return self._trip

    @property
    def attribute_cores(self) -> tuple[np.ndarray, ...]:
        return self._attr_cores

    @property
    def permutation(self) -> np.ndarray:
        return self._perm

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._attr_names

    @property
    def d(self) -> int:
        return self._trip.d

    @property
    def c(self) -> int:
        return len(self._attr_cores)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self._attr_cores)

    @cached_property
    def _ring(self) -> list[ring.Categorical]:
        attrs = [ring.Categorical.of(a) for a in self._attr_cores]
        latents = self._trip._ring
        return [latents[v] if v < self.d else attrs[v - self.d] for v in self._perm]

    @cached_property
    def log_normalizer(self) -> float:
        return ring.log_normalizer(self._ring)

    @property
    def _table(self) -> ring.Table:
        return ring.Table(self._ring, np.argsort(self._perm), lambda: self.log_normalizer)

    def __repr__(self) -> str:
        return (
            f"JointModel(d={self.d}, c={self.c}, "
            f"cardinalities={self.cardinalities}, permutation={self._perm.tolist()})"
        )

    # -- evaluation --------------------------------------------------------------
    def log_joint(
        self,
        z_observed: ContinuousMask | None = None,
        attrs: PartialAttributes | None = None,
    ) -> float:
        """Normalized log p of observed latents and attributes, everything
        else marginalized. The empty call returns exactly 0.0."""
        z_dims, z_values = ring.row(z_observed or {})
        attr_values = [ring.entries(attrs or {}, self.c, -1)]
        return float(self.log_joints(z_dims, z_values, attr_values)[0])

    def log_joints(
        self,
        latent_dims: Sequence[int],
        z_values: np.ndarray,
        attr_values: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`log_joint`. ``attr_values`` is ``(n, c)`` with ``-1``
        marking missing entries; ``z_values`` is ``(n, len(latent_dims))``.
        The two arrays are checked in place as two blocks of the table whose
        columns are the latents, then the attributes."""
        attr_dims = range(self.d, self.d + self.c)
        return self._table.log_probs((latent_dims, z_values), (attr_dims, attr_values))

    def log_attr_given_z(self, z: Sequence[float], attrs: PartialAttributes) -> float:
        """log p(observed attributes | z) for a fully observed latent vector."""
        joint = self.log_joints(range(self.d), [z], [ring.entries(attrs, self.c, -1)])
        return float(joint[0] - self.log_joints(range(self.d), [z], [[-1] * self.c])[0])

    # -- sampling ------------------------------------------------------------------
    def sample_given_attrs(
        self, attrs: PartialAttributes | None = None, *, rng: "int | np.random.Generator"
    ) -> np.ndarray:
        """Draw one latent vector conditioned on the observed attributes;
        missing attributes are marginalized."""
        return self.sample_given_attrs_batch(1, attrs, rng=rng)[0]

    def sample_given_attrs_batch(
        self,
        n: int,
        attrs: PartialAttributes | None = None,
        *,
        rng: "int | np.random.Generator",
    ) -> np.ndarray:
        cells = [ring.DRAW] * self.d + ring.entries(attrs or {}, self.c, None)
        return self._table.sample(cells, n, _as_rng(rng))[:, : self.d]
