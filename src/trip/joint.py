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
from .chain import chain_logtrace
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
    if d < 0 or c < 0:
        raise ValueError("d and c must be non-negative")
    return _as_rng(seed).permutation(d + c)


def _check_permutation(permutation: Sequence[int], total: int) -> np.ndarray:
    """``permutation`` as an int array, if it orders variables ``0..total-1``."""
    perm = np.asarray(permutation, dtype=int)
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

    def __repr__(self) -> str:
        return (
            f"JointModel(d={self.d}, c={self.c}, "
            f"cardinalities={self.cardinalities}, permutation={self._perm.tolist()})"
        )

    # -- validation ------------------------------------------------------------
    def _check_attrs(self, attrs: PartialAttributes) -> dict[int, int]:
        cards = self.cardinalities
        out = {}
        for i, value in attrs.items():
            i, value = int(i), int(value)
            if not 0 <= i < self.c:
                raise ValueError(f"attribute index {i} out of range for c={self.c}")
            if not 0 <= value < cards[i]:
                raise ValueError(
                    f"attribute {i} value {value} out of range (cardinality {cards[i]})"
                )
            out[i] = value
        return out

    # -- evaluation --------------------------------------------------------------
    def log_joint(
        self,
        z_observed: ContinuousMask | None = None,
        attrs: PartialAttributes | None = None,
    ) -> float:
        """Normalized log p of observed latents and attributes, everything
        else marginalized. The empty call returns exactly 0.0."""
        z_observed = self._trip._check_mask(z_observed or {})
        attrs = self._check_attrs(attrs or {})
        z_dims = sorted(z_observed)
        z_values = np.array([[z_observed[k] for k in z_dims]], dtype=float)
        attr_values = np.full((1, self.c), -1, dtype=int)
        for i, v in attrs.items():
            attr_values[0, i] = v
        return float(self.log_joints(z_dims, z_values, attr_values)[0])

    def log_joints(
        self,
        latent_dims: Sequence[int],
        z_values: np.ndarray,
        attr_values: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`log_joint`. ``attr_values`` is ``(n, c)`` with ``-1``
        marking missing entries; ``z_values`` is ``(n, len(latent_dims))``."""
        latent_dims = [int(k) for k in latent_dims]
        z_values = np.asarray(z_values, dtype=float)
        attr_values = np.asarray(attr_values, dtype=int)
        n = z_values.shape[0] if z_values.ndim == 2 else attr_values.shape[0]
        if z_values.ndim != 2 or z_values.shape != (n, len(latent_dims)):
            raise ValueError("z_values must have shape (n, len(latent_dims))")
        if attr_values.shape != (n, self.c):
            raise ValueError(f"attr_values must have shape (n, {self.c})")
        if len(set(latent_dims)) != len(latent_dims):
            raise ValueError("duplicate latent dims")
        if not all(0 <= k < self.d for k in latent_dims):
            raise ValueError("latent dimension index out of range")
        if n == 0:
            return np.empty(0)
        if len(latent_dims) and not np.all(np.isfinite(z_values)):
            raise ValueError("observed latent values must be finite")
        for i in range(self.c):
            col = attr_values[:, i]
            if col.max(initial=-1) >= self.cardinalities[i] or col.min(initial=-1) < -1:
                raise ValueError(f"attribute {i} value out of range")
        col_of = {k: pos for pos, k in enumerate(latent_dims)}
        cols = [
            attr_values[:, v - self.d] if v >= self.d
            else z_values[:, col_of[v]] if v in col_of else None
            for v in self._perm
        ]
        return chain_logtrace(ring.items(self._ring, cols), n) - self.log_normalizer

    def log_attr_given_z(self, z: Sequence[float], attrs: PartialAttributes) -> float:
        """log p(observed attributes | z) for a fully observed latent vector."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.d,):
            raise ValueError(f"z must be a full vector of length d={self.d}")
        z_mask = dict(enumerate(z))
        return self.log_joint(z_mask, attrs) - self.log_joint(z_mask, {})

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
        attrs = self._check_attrs(attrs or {})
        cols = [
            ring.DRAW if v < self.d
            else np.array([attrs[v - self.d]]) if v - self.d in attrs else None
            for v in self._perm
        ]
        draws = ring.sample(self._ring, cols, int(n), _as_rng(rng))
        return draws[:, np.argsort(self._perm)[: self.d]]
