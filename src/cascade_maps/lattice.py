"""N-site cascading lattice: simultaneous logistic iteration plus excess carry.

A step of the lattice applies the logistic map at every site independently
and then sweeps left to right: each site's image receives the carry from
its left neighbour, values above the threshold are clipped to ``c1`` and
the overflow is carried on.  The carry leaving the last site is the step's
emitted excess, the observable time series of the system.

The sweep is inherently sequential across sites, but distinct orbits are
independent.  Both batch kernels step the rows of a float (M, N) batch in
place, one site column at a time, and return the M excesses:
:func:`step_batch` steps states (the census's kernel) and
:func:`cascade_batch` the logistic images the basin renderer keeps.  Given
the excesses of a sweep over a row's first sites as its ``carry``,
:func:`cascade_batch` steps the rest bit for bit as one sweep would; the
renderer's head thus sweeps the undriven site 0 once per x-row of a grid.
:func:`step` advances one state with a loop over its sites, as a one-row
batch costs several times more per call.  All three are bit-identical for
every finite image, so single orbits advanced either way agree bit for bit.

Layout contract of the batch kernels: an (M, N) batch may have any memory
order, and only length-M temporaries are allocated.  The sweep reads one
site column at a time, so column-major (Fortran) order, where each column
is one contiguous run, is the fast path; the renderer and the census keep
their batches column-major.  The values do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .scalar import Threshold

__all__ = [
    "LatticeState",
    "step",
    "step_batch",
]


@dataclass(frozen=True)
class LatticeState:
    """Immutable lattice state: site values plus the last emitted excess.

    ``sites`` is copied into a read-only ``float`` vector.  An empty or
    not 1-D vector, a site value outside [0, 1] or a negative
    ``last_excess`` raises :class:`DomainError`; NaN counts as outside.
    """

    sites: np.ndarray
    last_excess: float = 0.0

    def __post_init__(self):
        arr = np.array(self.sites, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("sites must be a non-empty 1-D vector")
        # One chained comparison per value: NaN fails it and is rejected too.
        # Python floats compare faster than two numpy reductions at lattice sizes.
        if not all(0.0 <= v <= 1.0 for v in arr.tolist()):
            raise DomainError("site values must lie in [0, 1]")
        if not self.last_excess >= 0.0:
            raise DomainError("last_excess must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "sites", arr)

    @property
    def n_sites(self) -> int:
        return self.sites.size


def step(s: LatticeState, t: Threshold) -> LatticeState:
    """One lattice step: sitewise logistic map, then the cascade sweep.

    A loop over the sites on Python floats, with the IEEE operations of
    :func:`step_batch` in the same order; a value exactly at ``c1`` is kept
    with zero carry.
    """
    c1 = t.c1
    out = []
    e = 0.0
    for x in s.sites.tolist():
        yh = 4.0 * x * (1.0 - x) + e
        if yh > c1:
            out.append(c1)
            e = yh - c1
        else:
            out.append(yh)
            e = 0.0
    return LatticeState(sites=out, last_excess=e)


def step_batch(x: np.ndarray, t: Threshold) -> np.ndarray:
    """Advance many independent orbits one step, in place.

    ``x`` is a float (M, N) batch of M orbits of N sites; its rows become
    the next states, and the M emitted excesses are returned.  Elementwise
    over orbits, so the result does not depend on how a larger batch is
    split into blocks.  An int batch raises before any site is written.

    Each site column takes six ufunc calls on two length-M temporaries:
    ``s = 4 x``, ``x = 1 - x``, ``s *= x``, ``s += carry``,
    ``x = min(s, c1)``, ``carry = s - x``.  As in :func:`cascade_batch`,
    ``s - min(s, c1)`` is ``max(s - c1, 0.0)`` at every finite ``s``, so
    the result matches :func:`step` for every state in [0, 1].  It differs
    only where an image is ``-inf``, from a state with ``|x| > 1e154``.
    """
    c1 = t.c1
    s = np.empty(x.shape[0])
    carry = np.zeros(x.shape[0])
    for i in range(x.shape[1]):
        col = x[:, i]
        np.multiply(col, 4.0, out=s)
        np.subtract(1.0, col, out=col)
        s *= col
        s += carry
        np.minimum(s, c1, out=col)
        np.subtract(s, col, out=carry)
    return carry


def cascade_batch(
    y: np.ndarray, c1: float, carry: np.ndarray | None = None
) -> np.ndarray:
    """One lattice step from the logistic images ``y`` (shape (M, N)), in place.

    Per site column: ``yh = y + carry``, ``x = min(yh, c1)``,
    ``carry = yh - x``, ``y = (4 x)(1 - x)``, on one length-M temporary,
    so ``y`` becomes the next step's images; returns the M excesses.  At
    every finite ``yh``, ``yh - min(yh, c1)`` is ``max(yh - c1, 0.0)`` bit
    for bit (the same subtraction above ``c1``, ``yh - yh = +0.0`` at or
    below it), so the sweep is the branching one of :func:`step`, ties
    and their ``+0.0`` carries included.  ``carry`` holds the M carries
    into the first column, zero if ``None``: the excesses of a sweep of the
    sites to the left, so that stepping a row's sites in two batches, the
    second given the first's excesses, is bit-identical to stepping them
    in one.  It is swept in place and returned.
    """
    x = np.empty(y.shape[0])
    if carry is None:
        carry = np.zeros(y.shape[0])
    for i in range(y.shape[1]):
        yh = y[:, i]
        yh += carry
        np.minimum(yh, c1, out=x)
        np.subtract(yh, x, out=carry)
        np.multiply(x, 4.0, out=yh)
        np.subtract(1.0, x, out=x)
        yh *= x
    return carry


#: Odd multiplier of the row hash of :func:`_distinct_rows` (the 64-bit
#: golden-ratio constant).
_ROW_HASH = np.uint64(0x9E3779B97F4A7C15)


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the bit-identical rows of an (M, N) batch of 8-byte values.

    Returns ``(first, inv)`` with ``x[first][inv]`` equal to ``x`` bit for
    bit: ``first`` holds each group's lowest row index and ``inv`` maps each
    row to its group.  Each column's ``uint64`` bits are mixed into a row
    hash (xor, multiply by ``_ROW_HASH``, xor the value shifted down 29), so
    every bit of every column reaches the hash's high bits.  The row index
    fills the low ``(M - 1).bit_length()`` bits of one word per row, and one
    sort of those words orders the rows by truncated hash, then by index.
    A group starts wherever any column's bits differ from those of the
    previous sorted row.  Equal rows have equal words up to the index, so a
    hash collision can only split a group, never merge two states: the
    result is exact, and ``-0.0`` stays apart from ``+0.0``.
    Column-major ``x`` is the fast path, as for the kernels.
    """
    bits = x.view(np.uint64)
    m = bits.shape[0]
    key = np.zeros(m, dtype=np.uint64)
    for i in range(bits.shape[1]):
        key ^= bits[:, i]
        key *= _ROW_HASH
        key ^= key >> 29
    shift = (m - 1).bit_length()
    key >>= shift
    key <<= shift
    key |= np.arange(m, dtype=np.uint64)
    key.sort()
    key &= np.uint64((1 << shift) - 1)
    order = key.view(np.intp)
    new = np.zeros(m, dtype=bool)
    new[:1] = True
    for i in range(bits.shape[1]):
        col = np.take(bits[:, i], order)
        new[1:] |= col[1:] != col[:-1]
    del col
    group = np.cumsum(new)
    group -= 1
    inv = np.empty(m, dtype=np.intp)
    inv[order] = group
    return order[new], inv


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a batch, column-major, and each row's group."""
    first, inv = _distinct_rows(x)
    return np.asfortranarray(x[first]), inv
