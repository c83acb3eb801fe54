"""Parameter-space and attractor analysis for the cascading lattice.

Covers the scalar bifurcation structure (the period-2 window, the "star"
thresholds where the orbit of ``c1`` hits the repelling fixed point 3/4,
the Markov partition near 3/4 and its entropy bound) and the lattice side
(anti-phase existence condition, periodic-orbit detection with in-phase /
anti-phase / ripple classification, and a seeded attractor census).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import BracketError, ParameterError
from .lattice import LatticeState, _distinct_rows, step, step_batch
from .scalar import (
    MAX_ITER_DEFAULT,
    OrbitClass,
    SuperStable,
    Threshold,
    classify_orbit,
    make_threshold,
)

__all__ = [
    "XI2",
    "PERIOD2_WINDOW_END",
    "StarValue",
    "MarkovModel",
    "AttractorRecord",
    "BifurcationSample",
    "antiphase_condition",
    "antiphase_root",
    "find_star",
    "star_values",
    "build_markov",
    "detect_periodic_orbit",
    "excess_window_sum",
    "census",
    "bifurcation_scan",
    "central_component_reaches_boundary",
]

#: Threshold where the orbit of c1 reaches 3/4 in two steps; bifurcations of
#: the clipped map accumulate here and the repelling set turns uncountable.
XI2 = (2.0 + math.sqrt(3.0)) / 4.0

#: Right end of the unique period-2 window (image of c1 hits c0 exactly).
PERIOD2_WINDOW_END = (5.0 + math.sqrt(5.0)) / 8.0

RECURRENCE_TOL = 1e-9
#: Steps of excess summed into an :class:`AttractorRecord`'s fingerprint.
FINGERPRINT_WINDOW = 12

OrbitType = Literal["in_phase", "anti_phase", "ripple", "other"]


@dataclass(frozen=True)
class StarValue:
    """Threshold whose orbit first reaches 3/4 after exactly ``s`` steps."""

    s: int
    value: float


@dataclass(frozen=True)
class MarkovModel:
    """Interval partition near 3/4 with its 0/1 transition matrix.

    ``j0`` is the gap (c2, c0); ``branch_preimages[i]`` is its (i+1)-fold
    preimage under the right inverse branch of the logistic map, shrinking
    onto 3/4.  ``n0`` is the first depth from which every deeper interval
    is covered by the image of the gap, which produces the one-superdiagonal
    plus first-column-block transition pattern.
    """

    j0: tuple[float, float]
    branch_preimages: tuple[tuple[float, float], ...]
    n0: int
    matrix: np.ndarray
    spectral_radius: float

    @property
    def entropy_bound(self) -> float:
        """Lower bound ``log(spectral_radius)`` for the topological entropy."""
        return math.log(self.spectral_radius)


@dataclass(frozen=True)
class AttractorRecord:
    """A detected periodic lattice orbit in canonical phase."""

    period: int
    orbit: np.ndarray  # shape (period, n_sites), lexicographically least rotation
    kind: OrbitType
    window_fingerprint: float

    @property
    def n_sites(self) -> int:
        return self.orbit.shape[1]


@dataclass(frozen=True)
class BifurcationSample:
    """One grid point of a threshold scan."""

    c1: float
    orbit_class: OrbitClass
    period: Optional[int]


def antiphase_condition(t: Threshold) -> bool:
    """Whether the kicked partner site stays inside C: ``c2 + e(c2) <= 1 - c0``.

    Exactly this inequality decides existence of the two-site anti-phase
    orbit in the period-2 window.
    """
    e_c2 = 4.0 * t.c2 * (1.0 - t.c2) - t.c1
    return t.c2 + e_c2 <= 1.0 - t.c0


def _antiphase_gap(c: float) -> float:
    # 19c - 84c^2 + 128c^3 - 64c^4 is c2 + e(c2) written out as a polynomial;
    # the right-hand side is 1 - c0.
    lhs = (((-64.0 * c + 128.0) * c - 84.0) * c + 19.0) * c
    rhs = 0.5 * (1.0 + math.sqrt(1.0 - c))
    return lhs - rhs


def _bisect(fn, lo: float, hi: float, width: float) -> float:
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def antiphase_root() -> float:
    """The threshold where the anti-phase existence condition turns on.

    Bisection on the polynomial form of the condition inside the period-2
    window; below the root the condition fails, above it holds.
    """
    return _bisect(_antiphase_gap, 0.76, 0.9, 1e-13)


def _star_gap(c: float, s: int) -> float:
    """``f^s(c) - 3/4`` on the branch where iterates 1..s-1 stay below 1/2.

    Orbits that climb past 1/2 too early belong to thresholds below the
    star and are reported as +inf, which keeps the effective function
    one-signed on each side of the root.
    """
    y = 4.0 * c * (1.0 - c)
    for _ in range(s - 1):
        if y >= 0.5:
            return math.inf
        y = 4.0 * y * (1.0 - y)
    return y - 0.75


def find_star(s: int, bracket: Optional[tuple[float, float]] = None) -> StarValue:
    """Locate the star threshold with ``f^s(value) = 3/4`` to 1e-13.

    Without an explicit bracket the stars are built up recursively: each
    star is the only sign change of the constrained ``f^s`` gap between its
    predecessor and 1.
    """
    if s < 2:
        raise ParameterError("star index s must be >= 2")
    if bracket is not None:
        lo, hi = bracket
        return StarValue(s=s, value=_bisect(lambda c: _star_gap(c, s), lo, hi, 1e-13))
    return star_values(s)[-1]


def star_values(max_s: int) -> list[StarValue]:
    """Stars for ``s = 2..max_s``, each bracketed just past its predecessor."""
    if max_s < 2:
        raise ParameterError("max_s must be >= 2")
    stars: list[StarValue] = []
    prev = 0.75  # s = 1 degenerates to the fixed point itself
    for s in range(2, max_s + 1):
        lo = prev + (1.0 - prev) * 1e-4
        hi = 1.0 - 1e-9
        value = _bisect(lambda c: _star_gap(c, s), lo, hi, 1e-13)
        stars.append(StarValue(s=s, value=value))
        prev = value
    return stars


#: Endpoint slack for the open-inclusion tests used below: inclusion of a
#: branch preimage in the image of the gap is an open condition, so the
#: comparison is done with closed intervals widened by this much.
_INCLUSION_SLACK = 1e-14


def build_markov(t: Threshold, n: int) -> MarkovModel:
    """Markov partition of depth ``n`` near 3/4 and its transition matrix.

    Requires ``c1 > XI2`` so that the image of the gap (c2, c0) reaches
    across 3/4.  The matrix over (J0, J_-1, ..., J_-n) has ones exactly on
    the superdiagonal (each preimage maps onto the previous one) and in the
    last ``n - n0 + 1`` rows of the first column (the gap covers every
    preimage from depth n0 on).  Its spectral radius, the largest eigenvalue
    modulus, exceeds 1 whenever ``n >= n0 + 1``.

    The gap is never empty: on (XI2, 1) c2 = 4 c1 (1 - c1) falls and
    c0 = (1 - sqrt(1 - c1)) / 2 rises with c1, and at XI2 already
    c2 = 1/4 < c0.
    """
    if t.c1 <= XI2:
        raise ParameterError(
            f"Markov partition needs c1 > {XI2:.12f}, got {t.c1!r}"
        )
    c2, c0 = t.c2, t.c0
    j0 = (c2, c0)
    f_lo = 4.0 * c2 * (1.0 - c2)  # image of the gap is (f(c2), c1)
    f_hi = t.c1

    def g(y: float) -> float:
        # right inverse branch of the logistic map; fixes 3/4
        return 0.5 + 0.5 * math.sqrt(1.0 - y)

    intervals: list[tuple[float, float]] = []
    lo, hi = j0
    for _ in range(n):
        lo, hi = g(hi), g(lo)
        intervals.append((lo, hi))
    contained = [
        lo >= f_lo - _INCLUSION_SLACK and hi <= f_hi + _INCLUSION_SLACK
        for lo, hi in intervals
    ]
    n0 = None
    for i in range(len(contained), 0, -1):
        if not contained[i - 1]:
            break
        n0 = i
    if n0 is None:
        raise ParameterError("no branch preimage is covered by the gap image")
    if n < n0 + 1:
        raise ParameterError(f"partition depth n={n} too small, need n >= {n0 + 1}")

    matrix = np.zeros((n + 1, n + 1), dtype=np.int8)
    for i in range(n):
        matrix[i, i + 1] = 1
    matrix[n0:, 0] = 1

    return MarkovModel(
        j0=j0,
        branch_preimages=tuple(intervals),
        n0=n0,
        matrix=matrix,
        spectral_radius=float(np.max(np.abs(np.linalg.eigvals(matrix)))),
    )


def _canonical_rotation(orbit: np.ndarray) -> np.ndarray:
    """Lexicographically least rotation of the orbit's state sequence.

    The least rotation starts at a least state, so only rotations starting
    at a state equal to it are compared; ties go to the first such index.
    """
    p, n = orbit.shape
    if p == 1:
        return orbit
    least = orbit[np.lexsort(orbit.T[::-1])[0]]
    starts = np.flatnonzero((orbit == least).all(axis=1)).tolist()
    flat = orbit.ravel().tolist()
    best = min(starts, key=lambda r: flat[r * n :] + flat[: r * n])
    return np.concatenate((orbit[best:], orbit[:best]))


def _lag_matches(orbit: np.ndarray, lag: int, t: Threshold, tol: float) -> bool:
    """Shifted-site comparison: site i+1 repeats site i ``lag`` steps later.

    Slots inside C are exempt from the strict comparison: that is where the
    upstream clip deposits its carry, and the perturbation is absorbed by
    the receiving site's own clip one step later.  Both partners must still
    lie inside C for the slot to count as matching.
    """
    lo, hi = t.c_interval
    k = lag % orbit.shape[0]
    a = orbit[:, :-1]
    b = np.concatenate((orbit[k:, 1:], orbit[:k, 1:]))  # orbit[(j + lag) % p, i + 1]
    ok = np.abs(a - b) <= tol
    ok |= (np.minimum(a, b) >= lo) & (np.maximum(a, b) <= hi)
    return bool(ok.all())


def _classify_orbit_kind(orbit: np.ndarray, t: Threshold, tol: float) -> OrbitType:
    p, n = orbit.shape
    spread = np.max(orbit, axis=1) - np.min(orbit, axis=1)
    if np.all(spread <= tol):
        return "in_phase"
    if n == 2 and p % 2 == 0 and _lag_matches(orbit, p // 2, t, tol):
        return "anti_phase"
    if _lag_matches(orbit, 1, t, tol):
        return "ripple"
    return "other"


def excess_window_sum(
    s: LatticeState, t: Threshold, transient: int, window: int
) -> float:
    """Total excess over ``window`` steps after discarding a transient.

    This is the ``window_fingerprint`` of an :class:`AttractorRecord`: on a
    super-stable attractor whose period divides the window the sum is an
    exact invariant of the attractor, independent of phase.
    """
    if transient < 0:
        raise ParameterError("transient must be >= 0")
    if window < 1:
        raise ParameterError("window must be >= 1")
    cur = s
    for _ in range(transient):
        cur = step(cur, t)
    total = 0.0
    for _ in range(window):
        cur = step(cur, t)
        total += cur.last_excess
    return total


def _recurrences(
    t: Threshold, x: np.ndarray, transient: int, max_period: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Least return periods of a batch of orbits after a transient.

    ``x`` has shape (M, N).  After ``transient`` steps, row i's period is
    the least ``p <= max_period`` with a max-norm return to its
    post-transient state within ``tol``, or 0 if there is none.  Returns
    ``(periods, x0)`` with ``x0`` the (M, N) post-transient states; no
    history is kept, and :func:`_orbit_states` rebuilds an orbit from its
    row of ``x0``.

    The batch is stepped column-major, the kernel's fast path.  A row
    whose period is found retires from the stepped batch at once; rows
    are independent, so the survivors' bits do not change.  Stepping
    stops once every row has a period.
    """
    if max_period < 1:
        raise ParameterError("max_period must be >= 1")
    if transient < 0:
        raise ParameterError("transient must be >= 0")
    if x.shape[1] < 1:
        raise ParameterError("n_sites must be >= 1")
    x = np.asfortranarray(x)
    for _ in range(transient):
        x, _ = step_batch(x, t)
    x0 = ref = x
    periods = np.zeros(x.shape[0], dtype=int)
    live = np.arange(x.shape[0])
    for p in range(1, max_period + 1):
        x, _ = step_batch(x, t)
        hit = np.max(np.abs(x.T - ref.T), axis=0) <= tol  # over contiguous site rows
        if hit.any():
            periods[live[hit]] = p
            stay = ~hit
            if not stay.any():
                break
            live = live[stay]
            x = np.asfortranarray(x[stay])
            ref = np.asfortranarray(ref[stay])
    return periods, x0


def _orbit_states(t: Threshold, x0: np.ndarray, p: int) -> np.ndarray:
    """States 0 .. p-1 of the orbits from the (B, N) states ``x0``, as (p, B, N).

    ``step_batch`` is elementwise over rows, so each row's states are
    bit-identical to the ones stepped from it in any larger batch.  The
    states are stored site-major, as (p, N, B), and returned as a view.
    """
    x = np.asfortranarray(x0)
    out = np.empty((p,) + x.shape[::-1])
    out[0] = x.T
    for k in range(1, p):
        x, _ = step_batch(x, t)
        out[k] = x.T
    return out.transpose(0, 2, 1)


def _attractor_record(orbit: np.ndarray, t: Threshold, tol: float) -> AttractorRecord:
    """Record of one period of an orbit, in canonical phase."""
    canon = _canonical_rotation(orbit.copy())
    return AttractorRecord(
        period=orbit.shape[0],
        orbit=canon,
        kind=_classify_orbit_kind(canon, t, tol),
        window_fingerprint=excess_window_sum(
            LatticeState(sites=canon[0]), t, 0, FINGERPRINT_WINDOW
        ),
    )


def detect_periodic_orbit(
    t: Threshold,
    s0: LatticeState,
    transient: int,
    max_period: int,
    tol: float = RECURRENCE_TOL,
) -> Optional[AttractorRecord]:
    """Find the periodic orbit reached from ``s0``, if any.

    After the transient, looks for the least ``p <= max_period`` with a
    max-norm return to the post-transient state within ``tol``, keeping no
    history; the orbit is then rebuilt by stepping ``p - 1`` more times
    from that state, canonicalised in phase and classified by its
    synchronisation pattern.  Returns None if no recurrence is found.
    ``tol`` must be positive (NaN is rejected) and ``transient`` must be
    non-negative.
    """
    if not tol > 0.0:  # NaN fails the comparison and is rejected too
        raise ParameterError("tol must be positive")
    periods, x0 = _recurrences(t, s0.sites[None, :], transient, max_period, tol)
    if periods[0] == 0:
        return None
    orbit = _orbit_states(t, x0, int(periods[0]))[:, 0]
    return _attractor_record(orbit, t, tol)


_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _census_initial_states(seed: int, samples: int, n: int, first: int = 0) -> np.ndarray:
    """Deterministic initial states of samples ``first .. first+samples-1``:
    coordinate (i, j) is output ``k = i*n + j + 1`` of splitmix64 from the
    master seed, so any processing order, or split into chunks, gives the
    same sample set.

    All k are computed at once in ``uint64`` arrays, which wrap modulo
    2**64 without the overflow warning of ``uint64`` scalars.
    """
    k = np.arange(first * n + 1, (first + samples) * n + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + k * np.uint64(_SPLITMIX_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    bits = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
    # strictly inside (0, 1)
    return ((bits.astype(np.float64) + 0.5) * 2.0**-53).reshape(samples, n)


#: Samples per census chunk: the recurrence search and the grouping run
#: over one chunk at a time, so the census's working memory depends on
#: neither ``samples`` nor ``max_period``.
_CENSUS_CHUNK = 16384

#: Cap on the orbit states (samples x period) that ``census`` rebuilds and
#: groups at once.
_GROUP_BLOCK_STATES = 4096


def _group_orbits(
    t: Threshold,
    periods: np.ndarray,
    x0: np.ndarray,
    groups: dict[bytes, list],
) -> None:
    """Add one chunk's resolved samples to ``groups``.

    ``periods`` and ``x0`` are as returned by :func:`_recurrences`.
    ``groups`` maps ``key``, the orbit with its states sorted
    lexicographically, as C-ordered bytes, to ``[hits, orbit]``, with
    ``orbit`` the (p, N) orbit of one of the group's samples.
    """
    for p in np.unique(periods[periods > 0]).tolist():
        idx = np.flatnonzero(periods == p)
        # Bit-identical post-transient states have identical orbits: rebuild
        # each distinct state once, weighted by its number of samples.
        first, inv = _distinct_rows(x0[idx])
        idx, counts = idx[first], np.bincount(inv)
        size = max(1, _GROUP_BLOCK_STATES // p)
        for start in range(0, idx.size, size):
            block = idx[start : start + size]
            sub = _orbit_states(t, x0[block], p)  # (p, B, N)
            order = np.lexsort(sub.transpose(2, 1, 0)[::-1], axis=-1)  # (B, p)
            rows = sub[order, np.arange(block.size)[:, None]]  # (B, p, N), sorted
            # Group the sorted orbits by their states' ids: p columns, not p * N.
            ids = _distinct_rows(rows.reshape(-1, x0.shape[1]))[1].reshape(block.size, p)
            first, inv = _distinct_rows(ids.view(np.float64))
            hits = np.bincount(inv, counts[start : start + size]).astype(int)
            for j, h in zip(first.tolist(), hits.tolist()):
                key = rows[j].tobytes()
                if key in groups:
                    groups[key][0] += h
                else:
                    groups[key] = [h, sub[:, j].copy()]


def census(
    t: Threshold,
    n_sites: int,
    samples: int,
    seed: int,
    transient: int = 100,
    max_period: int = 64,
    tol: float = RECURRENCE_TOL,
) -> list[tuple[AttractorRecord, int]]:
    """Seeded random-start survey of attractors with basin-hit counts.

    The samples run in chunks of ``_CENSUS_CHUNK``, each generated from
    its own splitmix indices.  A chunk is advanced through the transient
    together, and only its post-transient states are kept; a sample's
    period is the least ``p <= max_period`` with a max-norm return to its
    post-transient state within ``tol`` (``tol >= 0``; 0 asks for a
    bit-exact return, NaN is rejected), a sample retires from the stepped
    batch once its period is found, and samples without one are left out
    of the counts.  ``transient`` must be non-negative and ``n_sites`` at
    least 1.  Orbits are grouped by their exact state content, which is
    rotation invariant and exact because super-stable orbits repeat
    bit-identically after clipping: the samples of one period are rebuilt
    from their post-transient states, each distinct state once, in blocks
    of at most ``_GROUP_BLOCK_STATES`` orbit states, each block's orbits are
    row-sorted and deduplicated at once, and the blocks and chunks merge
    by the sorted orbit's bytes.  A record is built in canonical phase, so
    any sample of a group gives the same record.  Apart from the groups
    found, working memory is bounded by the chunk, whatever ``samples``
    and ``max_period``.  The result is sorted by decreasing hit count, then
    fingerprint, period and orbit (distinct groups cannot tie, as lattice
    states never hold ``-0.0``), and is a pure function of the arguments.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if not tol >= 0.0:  # NaN fails the comparison and is rejected too
        raise ParameterError("tol must be non-negative")
    groups: dict[bytes, list] = {}
    for first in range(0, samples, _CENSUS_CHUNK):
        # The initial states go straight into the search, and each chunk's
        # arrays are freed before the next chunk is made, so that no more
        # than one chunk's states are alive at a time.
        m = min(_CENSUS_CHUNK, samples - first)
        periods, x0 = _recurrences(
            t, _census_initial_states(seed, m, n_sites, first), transient, max_period, tol
        )
        _group_orbits(t, periods, x0, groups)
        del periods, x0
    # Each group's orbit is dropped once its record holds a copy.
    entries = [(_attractor_record(g.pop(), t, tol), g[0]) for g in groups.values()]
    del groups
    entries.sort(
        key=lambda e: (
            -e[1],
            e[0].window_fingerprint,
            e[0].period,
            e[0].orbit.ravel().tolist(),
        )
    )
    return entries


def bifurcation_scan(
    c1_lo: float,
    c1_hi: float,
    steps: int,
    max_iter: int = MAX_ITER_DEFAULT,
) -> list[BifurcationSample]:
    """Classify the scalar orbit on an even grid of thresholds."""
    if not 0.75 < c1_lo < c1_hi < 1.0:
        raise ParameterError("scan range must satisfy 3/4 < lo < hi < 1")
    if steps < 2:
        raise ParameterError("steps must be >= 2")
    out = []
    for c1 in np.linspace(c1_lo, c1_hi, steps):
        t = make_threshold(float(c1))
        oc = classify_orbit(t, max_iter=max_iter)
        period = oc.period if isinstance(oc, SuperStable) else None
        out.append(BifurcationSample(c1=float(c1), orbit_class=oc, period=period))
    return out


def central_component_reaches_boundary(t: Threshold, n_sites: int) -> bool:
    """Whether accumulated carries can push the in-phase core to the boundary.

    True iff some ``j < n_sites`` has ``j * (1 - c1) > 1``: enough upstream
    sites clipping at once to lift a downstream site past 1.
    """
    if n_sites < 2:
        raise ParameterError("n_sites must be >= 2")
    return any(j * (1.0 - t.c1) > 1.0 for j in range(1, n_sites))
