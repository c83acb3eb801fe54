"""N-site cascading lattice: simultaneous logistic iteration plus excess carry.

A step of the lattice applies the logistic map at every site independently
and then sweeps left to right: each site's image receives the carry from
its left neighbour, values above the threshold are clipped to ``c1`` and
the overflow is carried on.  The carry leaving the last site is the step's
emitted excess, the observable time series of the system.

The sweep is inherently sequential across sites, but distinct orbits are
independent: :func:`step_batch` advances any number of orbits at once as
rows of an array, and is the kernel behind the basin renderer and the
attractor census.  Scalar and batched paths perform the identical IEEE
operations in the same order, so single orbits advanced either way agree
bit for bit.

Layout contract of the batch kernels: an (M, N) batch may have any memory
order, and the result keeps the input's order.  The sweep reads one site
column at a time, so column-major (Fortran) order, where each column is one
contiguous run, is the fast path; the renderer and the census keep their
batches column-major.  The values do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .scalar import Threshold

__all__ = [
    "LatticeState",
    "cascade",
    "step",
    "step_batch",
    "iterate",
]


@dataclass(frozen=True)
class LatticeState:
    """Immutable lattice state: site values plus the last emitted excess."""

    sites: np.ndarray
    last_excess: float = 0.0

    def __post_init__(self):
        arr = np.array(self.sites, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("sites must be a non-empty 1-D vector")
        # Written as "not inside" so that NaN, which fails every comparison,
        # is rejected too; min and max propagate NaN.
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise DomainError("site values must lie in [0, 1]")
        if not self.last_excess >= 0.0:
            raise DomainError("last_excess must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "sites", arr)

    @property
    def n_sites(self) -> int:
        return self.sites.size


def cascade(y, t: Threshold) -> tuple[np.ndarray, float]:
    """Left-to-right clipping sweep over logistic images ``y``.

    Carries each site's overflow into the next site before comparing with
    ``c1``; a value exactly at the threshold is kept with zero carry (both
    branches agree there).  Returns ``(new_sites, excess)`` where the
    excess is the carry leaving the last site.  ``sum(new_sites) + excess``
    equals ``sum(y)`` up to rounding.
    """
    y = np.asarray(y, dtype=float)
    c1 = t.c1
    out = np.empty_like(y)
    e = 0.0
    for i in range(y.size):
        yh = y[i] + e
        if yh > c1:
            out[i] = c1
            e = yh - c1
        else:
            out[i] = yh
            e = 0.0
    return out, e


def step(s: LatticeState, t: Threshold) -> LatticeState:
    """One lattice step: sitewise logistic map, then the cascade sweep."""
    x = s.sites
    y = 4.0 * x * (1.0 - x)
    out, e = cascade(y, t)
    return LatticeState(sites=out, last_excess=e)


def step_batch(x: np.ndarray, t: Threshold) -> tuple[np.ndarray, np.ndarray]:
    """Advance many independent orbits one step.

    ``x`` has shape (M, N): M orbits of N sites.  Returns the new states
    and the M emitted excesses.  Purely elementwise over orbits, so the
    result does not depend on how a larger batch is split into blocks.
    Any memory order of ``x`` is accepted and kept by the new states;
    column-major is the fast path (see the module docstring).
    """
    y = 4.0 * x * (1.0 - x)
    return cascade_batch(y, t.c1)


def cascade_batch(y: np.ndarray, c1: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised cascade sweep over rows of ``y`` (shape (M, N)).

    Copies ``y`` once and sweeps its site columns in place: ``min(yh, c1)``
    is the clipped value and ``max(yh - c1, 0)`` the carry.  For finite
    input this is bit-identical to :func:`cascade`: ``yh - c1 > 0`` exactly
    when ``yh > c1`` (gradual underflow), and ``yh == c1`` carries ``+0.0``.
    ``y`` itself is not modified.  The copy keeps ``y``'s memory order, so
    any order is accepted and kept; with column-major ``y`` each swept
    column is contiguous, which is the fast path.
    """
    out = y.copy(order="K")
    carry = np.zeros(y.shape[0])
    for i in range(y.shape[1]):
        yh = out[:, i]
        np.add(yh, carry, out=yh)
        np.subtract(yh, c1, out=carry)
        np.maximum(carry, 0.0, out=carry)
        np.minimum(yh, c1, out=yh)
    return out, carry


#: Odd multiplier of the polynomial row hash of :func:`_distinct_rows`
#: (the 64-bit golden-ratio constant).
_ROW_HASH = np.uint64(0x9E3779B97F4A7C15)


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the bit-identical rows of an (M, N) float batch.

    Returns ``(first, inv)`` with ``x[first][inv]`` equal to ``x`` bit for
    bit: ``first`` holds one row index per group and ``inv`` maps each row
    to its group.  The rows' ``uint64`` bit patterns are hashed into one
    key per row and sorted by key; a group starts wherever any column's
    bits differ from those of the previous sorted row.  Equal rows have
    equal keys, so a hash collision can only split a group, never merge two
    states: the result is exact, and ``-0.0`` stays apart from ``+0.0``.
    Column-major ``x`` is the fast path, as for the kernels.
    """
    bits = x.view(np.uint64)
    key = bits[:, 0].copy()
    for i in range(1, bits.shape[1]):
        key *= _ROW_HASH
        key += bits[:, i]
    order = np.argsort(key)
    del key  # spent temporaries go at once: a render chunk peaks in here
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for i in range(bits.shape[1]):
        col = bits[:, i][order]
        new[1:] |= col[1:] != col[:-1]
    del col
    group = np.cumsum(new)
    group -= 1
    inv = np.empty(order.size, dtype=np.intp)
    inv[order] = group
    return order[new], inv


def iterate(
    s: LatticeState,
    t: Threshold,
    k: int,
    record_last: int = 0,
) -> tuple[LatticeState, np.ndarray, np.ndarray | None]:
    """Apply ``k`` steps, collecting the excess trace.

    Returns ``(final_state, trace, states)`` where ``trace`` holds the k
    emitted excesses.  When ``record_last > 0`` the last
    ``min(k, record_last)`` states are kept (ring buffer, returned in
    chronological order); otherwise ``states`` is None so long runs stay
    memory-bounded.
    """
    if k < 0:
        raise ParameterError("step count k must be >= 0")
    trace = np.empty(k)
    buf = None
    if record_last > 0:
        buf = np.empty((min(k, record_last), s.n_sites))
    cur = s
    for j in range(k):
        cur = step(cur, t)
        trace[j] = cur.last_excess
        if buf is not None:
            buf[j % buf.shape[0]] = cur.sites
    states = None
    if buf is not None:
        states = np.roll(buf, -(k % buf.shape[0]), axis=0) if k > buf.shape[0] else buf
    return cur, trace, states

