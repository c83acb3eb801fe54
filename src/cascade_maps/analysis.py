"""Parameter-space and attractor analysis for the cascading lattice.

Covers the scalar bifurcation structure (the period-2 window, the "star"
thresholds where the orbit of ``c1`` hits the repelling fixed point 3/4,
the Markov partition near 3/4 and its entropy bound) and the lattice side
(the threshold above which the two-site anti-phase orbit exists,
periodic-orbit detection with in-phase / anti-phase / ripple
classification, and a seeded attractor census).  An attractor is
identified by its bit-exact return: a clip sets a site to exactly ``c1``,
so every super-stable orbit repeats bit for bit.  Census and detection
both name it by the least state its period search visits, and rebuild its
orbit from that state, in canonical phase.  A record's fingerprint is
the excess summed over the ``FINGERPRINT_WINDOW`` steps from that state
(``_window_fingerprint``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import BracketError, ParameterError, _require_integer
from .lattice import LatticeState, _distinct, _distinct_rows, step, step_batch
from .scalar import (
    MAX_ITER_DEFAULT,
    OrbitClass,
    SuperStable,
    Threshold,
    classify_orbit,
)

__all__ = [
    "XI2",
    "PERIOD2_WINDOW_END",
    "StarValue",
    "MarkovModel",
    "AttractorRecord",
    "BifurcationSample",
    "antiphase_root",
    "star_values",
    "build_markov",
    "detect_periodic_orbit",
    "census",
    "bifurcation_scan",
]

#: Threshold where the orbit of c1 reaches 3/4 in two steps; bifurcations of
#: the clipped map accumulate here and the repelling set turns uncountable.
XI2 = (2.0 + math.sqrt(3.0)) / 4.0

#: Right end of the unique period-2 window (image of c1 hits c0 exactly).
PERIOD2_WINDOW_END = (5.0 + math.sqrt(5.0)) / 8.0

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
    """A detected periodic lattice orbit in canonical phase, fingerprinted
    by :func:`_window_fingerprint` from its first state."""

    period: int
    orbit: np.ndarray  # (period, n_sites), least rotation; read-only
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


def _antiphase_overshoot(t: Threshold) -> float:
    """``c2 + e(c2) - (1 - c0)``, at most 0 exactly when ``c2 + e(c2) <= 1 - c0``."""
    e_c2 = 4.0 * t.c2 * (1.0 - t.c2) - t.c1
    return (t.c2 + e_c2) - (1.0 - t.c0)


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
    """The threshold above which the two-site anti-phase orbit exists.

    The orbit exists exactly when the kicked partner site stays inside C,
    ``c2 + e(c2) <= 1 - c0``.  Bisection on that condition's overshoot, of
    ``Threshold(c)``, inside the period-2 window; below the root the
    condition fails, above it holds.
    """
    return _bisect(lambda c: _antiphase_overshoot(Threshold(c)), 0.76, 0.9, 1e-13)


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


#: Last star that :func:`star_values` resolves: star s lies about 4**-s below 1,
#: so star 16 lies above the bracket, and past s = 17 doubles cannot resolve it.
_LAST_STAR = 15


def star_values(max_s: int) -> list[StarValue]:
    """Stars for ``s = 2..max_s`` (at most ``_LAST_STAR``) to 1e-13, each the only
    sign change of the constrained ``f^s`` gap between its predecessor and 1."""
    # Any integer passes here, so that one out of range fails the range check.
    max_s = _require_integer("max_s", max_s, -math.inf)
    if not 2 <= max_s <= _LAST_STAR:
        msg = f"max_s must lie in 2..{_LAST_STAR}, the stars resolved in doubles"
        raise ParameterError(f"{msg}, got {max_s}")
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
    n = _require_integer("n", n, 1)
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
    n0 = n + 1  # the least depth from which every preimage is covered
    while n0 > 1 and contained[n0 - 2]:
        n0 -= 1
    if n0 > n:
        raise ParameterError("no branch preimage is covered by the gap image")
    if n < n0 + 1:
        raise ParameterError(f"partition depth n={n} too small, need n >= {n0 + 1}")

    matrix = np.eye(n + 1, k=1, dtype=np.int8)
    matrix[n0:, 0] = 1

    return MarkovModel(
        j0=j0,
        branch_preimages=tuple(intervals),
        n0=n0,
        matrix=matrix,
        spectral_radius=float(np.max(np.abs(np.linalg.eigvals(matrix)))),
    )


def _lag_match_rows(orbits: np.ndarray, lag: int, t: Threshold) -> np.ndarray:
    """Shifted-site comparison of each (p, N) orbit in a (B, p, N) batch:
    whether site i+1 repeats site i ``lag`` steps later, as a (B,) mask.

    Slots inside C are exempt from the exact comparison: that is where the
    upstream clip deposits its carry, and the perturbation is absorbed by
    the receiving site's own clip one step later.  Both partners must still
    lie inside C for the slot to count as matching.
    """
    lo, hi = t.c_interval
    k = lag % orbits.shape[1]
    a = orbits[:, :, :-1]
    # b[:, j, i] is orbits[:, (j + lag) % p, i + 1]
    b = np.concatenate((orbits[:, k:, 1:], orbits[:, :k, 1:]), axis=1)
    ok = a == b
    ok |= (np.minimum(a, b) >= lo) & (np.maximum(a, b) <= hi)
    return ok.all(axis=(1, 2))


def _window_fingerprint(x0: np.ndarray, t: Threshold) -> float:
    """Total excess over the :data:`FINGERPRINT_WINDOW` steps from sites ``x0``.

    This is the ``window_fingerprint`` of an :class:`AttractorRecord`: on a
    super-stable attractor whose period divides the window the sum is an
    exact invariant of the attractor, independent of phase.
    """
    cur = LatticeState(sites=x0)
    total = 0.0
    for _ in range(FINGERPRINT_WINDOW):
        cur = step(cur, t)
        total += cur.last_excess
    return total


def _keep_least(low: np.ndarray, x: np.ndarray) -> None:
    """Overwrite each row of ``low`` whose row of ``x`` is lexicographically
    less.  Site 0 decides the rows where it differs; the rows that tie there
    are gathered and decided at their first differing site (a row equal
    throughout is not less), as one ``np.where`` per column would decide."""
    below = x[:, 0] < low[:, 0]
    tie = np.flatnonzero(x[:, 0] == low[:, 0])
    xt, lt = x[tie], low[tie]
    at = (np.arange(tie.size), (xt != lt).argmax(axis=1))
    below[tie] = xt[at] < lt[at]
    np.copyto(low, x, where=below[:, None])


def _returned(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``(x == ref).all(axis=1)``, comparing whole rows only on a step where
    some row's site 0 has returned; gathering just those rows costs more."""
    hit = x[:, 0] == ref[:, 0]
    if hit.any():  # over contiguous site rows
        hit = (x.T == ref.T).all(axis=0)
    return hit


def _recurrences(
    t: Threshold, x: np.ndarray, transient: int, max_period: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least return periods of a batch of orbits after a transient, and the
    least state each search visits.

    ``x`` has shape (M, N).  After ``transient`` steps, row i's period is
    the least ``p <= max_period`` with a bit-exact return to its
    post-transient state, or 0 if there is none.  Returns ``(periods,
    least)``: ``least`` holds the (M, N) lexicographically least state each
    row visited (:func:`_keep_least`), which for a row with a period is the
    least state of its orbit, shared by every row on that cycle.  No
    history is kept.

    A private column-major copy of ``x`` is stepped in place, the kernel's
    fast path, so ``x`` may be read-only.  Only the distinct post-transient
    rows are searched (``_distinct``), as bit-identical rows have identical
    orbits, and a copy of them is stepped against them.  The return test
    (:func:`_returned`) looks at site 0 first: at c1 = 0.95 it has period
    10, so 9 steps in 10 end there.  A row whose period is found retires
    from the stepped batch at once; rows are independent, so the survivors'
    bits do not change.
    """
    max_period = _require_integer("max_period", max_period, 1)
    transient = _require_integer("transient", transient, 0)
    x = np.array(x, dtype=float, order="F")
    for _ in range(transient):
        step_batch(x, t)
    ref, inv = _distinct(x)
    x, low = ref.copy(order="F"), ref.copy(order="F")
    least = np.empty_like(low)
    periods = np.zeros(x.shape[0], dtype=int)
    live = np.arange(x.shape[0])
    for p in range(1, max_period + 1):
        step_batch(x, t)
        hit = _returned(x, ref)
        _keep_least(low, x)
        if hit.any():
            periods[live[hit]] = p
            least[live[hit]] = low[hit]
            stay = ~hit
            live = live[stay]
            x, ref, low = (np.asfortranarray(a[stay]) for a in (x, ref, low))
            if not live.size:
                break
    least[live] = low
    return periods[inv], least[inv]


def _orbit_states(t: Threshold, x0: np.ndarray, p: int) -> np.ndarray:
    """States 0 .. p-1 of the orbits from the (B, N) states ``x0``, as (B, p, N).

    ``step_batch`` is elementwise over rows, so each row's states are
    bit-identical to the ones stepped from it in any larger batch.  A
    private copy of ``x0`` is stepped in place.  The states are stored
    site-major, as (p, N, B), and returned as a view.
    """
    x = np.array(x0, dtype=float, order="F")
    out = np.empty((p,) + x.shape[::-1])
    out[0] = x.T
    for k in range(1, p):
        step_batch(x, t)
        out[k] = x.T
    return out.transpose(2, 0, 1)


def _attractor_records(t: Threshold, orbits: np.ndarray) -> list[AttractorRecord]:
    """Records of a (B, p, N) batch of orbits of one period ``p``, in order.

    Each orbit must start at its least state, as it does when rebuilt by
    :func:`_orbit_states` from a least state of :func:`_recurrences`.  That
    puts it in canonical phase, its least rotation: with least return
    period p it holds p distinct states (F^i(x) = F^j(x) with
    0 <= i < j < p would give x = F^(j-i)(x), an earlier return), so its
    least state occurs once.

    The kind is decided for the whole batch at once, by bit-exact
    comparisons: ``in_phase`` if all sites are equal at every step, else
    ``anti_phase`` for two sites and even ``p`` if site 1 repeats site 0
    half a period later (:func:`_lag_match_rows`), else ``ripple`` if each
    site repeats its left neighbour one step later, else ``other``.  The
    fingerprint is :func:`_window_fingerprint` from the canonical first
    state, one record at a time.  The records' orbits are rows of
    ``orbits``, which is made read-only, so no record's orbit can be written.
    """
    b, p, n = orbits.shape
    orbits.setflags(write=False)
    in_phase = (orbits.max(axis=2) == orbits.min(axis=2)).all(axis=1)
    anti = n == 2 and p % 2 == 0 and _lag_match_rows(orbits, p // 2, t)
    ripple = _lag_match_rows(orbits, 1, t)
    kinds = np.select(
        [in_phase, anti, ripple], ["in_phase", "anti_phase", "ripple"], "other"
    ).tolist()
    return [
        AttractorRecord(
            period=p,
            orbit=orbits[j],
            kind=kinds[j],
            window_fingerprint=_window_fingerprint(orbits[j, 0], t),
        )
        for j in range(b)
    ]


def detect_periodic_orbit(
    t: Threshold,
    s0: LatticeState,
    transient: int,
    max_period: int,
) -> Optional[AttractorRecord]:
    """Find the periodic orbit reached from ``s0``, if any.

    After the transient, looks for the least ``p <= max_period`` with a
    bit-exact return to the post-transient state, keeping no history but
    the least state visited (:func:`_recurrences`), the census's attractor
    identity; the orbit is rebuilt by stepping ``p - 1`` more times from
    that state, so it starts in canonical phase, and is classified by its
    synchronisation pattern.  Returns None if no recurrence is found.
    ``transient`` must be non-negative.
    """
    periods, least = _recurrences(t, s0.sites[None, :], transient, max_period)
    if periods[0] == 0:
        return None
    return _attractor_records(t, _orbit_states(t, least, int(periods[0])))[0]


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


def census(
    t: Threshold,
    n_sites: int,
    samples: int,
    seed: int,
    transient: int = 100,
    max_period: int = 64,
) -> list[tuple[AttractorRecord, int]]:
    """Seeded random-start survey of attractors with basin-hit counts.

    The samples run in chunks of ``_CENSUS_CHUNK``, each generated from
    its own splitmix indices.  A chunk is advanced through the transient
    together, and only its post-transient states are kept; a sample's
    period is the least ``p <= max_period`` with a bit-exact return to its
    post-transient state, a sample retires from the stepped batch once its
    period is found, and samples without one are left out of the counts.
    ``transient`` must be non-negative, ``n_sites`` at least 1 and ``seed``
    in ``[0, 2**64)``, so that no two seeds give the same samples.

    A state determines its orbit, so an attractor is identified by the
    least state its period search visits (:func:`_recurrences`), as in
    :func:`detect_periodic_orbit`: each chunk groups its resolved samples
    by that state (``_distinct_rows``), and the chunks' groups are
    concatenated and grouped the same way, their hits summed.  Each
    period's orbits are rebuilt from their least states and its records
    built in one batch.  Apart from the groups found, working memory is
    bounded by the chunk, whatever ``samples`` and ``max_period``.  The
    result is sorted by decreasing hit count, then fingerprint, period and
    least state (distinct groups cannot tie, as lattice states never hold
    ``-0.0``), and is a pure function of the arguments.
    """
    samples = _require_integer("samples", samples, 1)
    n_sites = _require_integer("n_sites", n_sites, 1)
    # Any integer passes here, so that a negative seed fails the range check.
    seed = _require_integer("seed", seed, -math.inf)
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    parts = []  # per chunk: its groups' least states, periods and hits
    for first in range(0, samples, _CENSUS_CHUNK):
        # The initial states go straight into the search, and each chunk's
        # arrays are freed before the next chunk is made, so that no more
        # than one chunk's states are alive at a time.
        m = min(_CENSUS_CHUNK, samples - first)
        periods, least = _recurrences(
            t, _census_initial_states(seed, m, n_sites, first), transient, max_period
        )
        least, periods = least[periods > 0], periods[periods > 0]
        rows, inv = _distinct_rows(least)
        parts.append((least[rows], periods[rows], np.bincount(inv)))
        del periods, least, rows, inv
    least, periods, hits = (np.concatenate(a) for a in zip(*parts))
    rows, inv = _distinct_rows(least)
    # Float sums of integer hits are exact below 2**53 samples.
    hits = np.bincount(inv, weights=hits).astype(np.int64)
    least, periods = least[rows], periods[rows]
    entries = []
    for p in set(periods.tolist()):
        at = periods == p
        records = _attractor_records(t, _orbit_states(t, least[at], p))
        entries += zip(records, hits[at].tolist())
    entries.sort(
        key=lambda e: (
            -e[1],
            e[0].window_fingerprint,
            e[0].period,
            e[0].orbit[0].tolist(),
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
    steps = _require_integer("steps", steps, 2)
    out = []
    for c1 in np.linspace(c1_lo, c1_hi, steps):
        t = Threshold(c1)
        oc = classify_orbit(t, max_iter=max_iter)
        period = oc.period if isinstance(oc, SuperStable) else None
        out.append(BifurcationSample(c1=float(c1), orbit_class=oc, period=period))
    return out
