"""Numerically stable products of non-negative matrix chains.

Every distribution in this package reduces to traces of long products of
non-negative matrices. Entries of such products overflow or underflow long
before the final log-trace does, so all chain walks here renormalize the
running buffer after every multiplication: the buffer is divided by its
largest entry and the log of the divisor is accumulated separately. Any
consistent positive divisor would do; the max entry is the cheapest.

Matrices are passed as ``(mat, logscale)`` pairs whose value is
``mat * exp(logscale)``. ``mat`` is either ``(m, m')`` (shared by all rows
of a batch) or ``(n, m, m')`` (one per row); ``logscale`` is ``0.0``, a
scalar, or an ``(n,)`` array.

The forward walk is written once, as the generator :func:`prefix_chain`.
Evaluation keeps its last step (:func:`chain_logtrace`); a gradient stores
every step and walks back through :func:`suffix_chain` one step at a time.
The sampler's :func:`suffix_products` stays separate for speed: with
:func:`suffix_chain` in its place, a one-row conditional redraw gave the same
bits but took 1.15x as long at d=100, m=20 and 1.24x at d=256, m=4 (medians
of eight alternating runs on a 2-vCPU host).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

Item = tuple[np.ndarray, "np.ndarray | float"]


def _multiply(buf: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Right-multiply a batch of buffers ``(n, a, b)`` by ``mat``."""
    if mat.ndim == 2:
        return np.einsum("nab,bc->nac", buf, mat)
    return np.einsum("nab,nbc->nac", buf, mat)


def _renormalize(buf: np.ndarray, acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each row by its max entry, in place; add the log divisor to ``acc``.

    Rows that collapsed to exactly zero are left as-is (their trace is zero
    and the caller maps that to -inf), with a divisor of one so the log
    accumulator stays finite.
    """
    scale = buf.max(axis=(1, 2))
    safe = np.where(scale > 0.0, scale, 1.0)
    return np.divide(buf, safe[:, None, None], out=buf), acc + np.log(safe)


def _identity_batch(m: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(m), (n, m, m)).copy()


def prefix_chain(items: Iterable[Item], n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Normalized partial products from the left, yielded one at a time.

    The ``j``-th pair ``(P, a)`` has ``P * exp(a)`` equal to the true product
    of items ``0..j-1``, one ``(n,)`` log scale per row; the first is the
    identity. Nothing is yielded for an empty chain.
    """
    buf, acc = None, np.zeros(n)
    for mat, logscale in items:
        if buf is None:
            buf = _identity_batch(mat.shape[-2], n)
            yield buf, acc
        buf = _multiply(buf, mat)
        acc = acc + logscale
        buf, acc = _renormalize(buf, acc)
        yield buf, acc


def chain_logtrace(items: Iterable[Item], n: int) -> np.ndarray:
    """log Tr of the ordered matrix product, one value per batch row.

    Rows whose product has zero trace yield ``-inf``.
    """
    buf, acc = None, np.zeros(n)
    for buf, acc in prefix_chain(items, n):
        pass
    if buf is None:
        return acc
    trace = np.trace(buf, axis1=1, axis2=2)
    out = np.where(trace > 0.0, np.log(np.where(trace > 0.0, trace, 1.0)), -np.inf)
    return out + acc


def suffix_chain(items: Sequence[Item], n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Normalized partial products from the right, yielded last first.

    The pair ``(S, b)`` yielded after ``k`` steps has ``S * exp(b)`` equal to
    the true product of items ``d-k..d-1``; the first is the identity. A
    consumer that stops after ``d`` pairs never computes the full product.
    """
    buf, acc = _identity_batch(items[-1][0].shape[-1], n), np.zeros(n)
    yield buf, acc
    for mat, logscale in reversed(items):
        if mat.ndim == 2:
            buf = np.einsum("ab,nbc->nac", mat, buf)
        else:
            buf = np.einsum("nab,nbc->nac", mat, buf)
        acc = acc + logscale
        buf, acc = _renormalize(buf, acc)
        yield buf, acc


def suffix_products(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Right-to-left normalized products of ``(m, m')`` matrices, or of
    ``(1, m, m')`` stacks, which ``@`` broadcasts.

    Scale factors are dropped: callers use these only inside ratios that are
    normalized afterwards. ``out[j]`` is proportional to the product of
    ``mats[j:]``; ``out[d]`` is the identity.
    """
    d = len(mats)
    out = [np.eye(mats[-1].shape[-1])]
    for j in range(d - 1, -1, -1):
        prod = mats[j] @ out[-1]
        scale = prod.max()
        if scale > 0.0:
            prod = prod / scale
        out.append(prod)
    out.reverse()
    return out
