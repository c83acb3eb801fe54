"""Single-site threshold (clipped logistic) map dynamics.

The threshold map iterates ``f(x) = 4x(1-x)`` and clips any image that
reaches the threshold ``c1``, emitting the overflow as the *excess*.
A :class:`Threshold` is built from ``c1`` alone, and the constants derived
from it live on that immutable record:

* ``c0``  left endpoint of the critical interval ``C = [c0, 1-c0]``,
  the preimage of ``[c1, 1]`` under ``f``;
* ``c2``  first forward image of ``c1``, lower end of the absorbing
  interval ``A = [c2, c1]``;
* ``d1 = acos(1 - 2 c1) / pi``, the image of ``c1`` in the coordinates
  ``(2/pi) asin(sqrt(x))`` where ``f`` is the slope-2 tent map.
  ``d1**(j+1)`` bounds the tent measure of the points whose first ``j``
  iterates avoid ``C``: exact at ``j = 0``, an upper bound for ``j >= 1``.

An orbit that lands in the interior of ``C`` is clipped to exactly
``c1`` and from then on repeats a finite cycle exactly, so the "period"
of a super-stable orbit is read off without any tolerance.  Orbits that
graze the boundary of ``C`` are reported as :class:`Boundary` rather
than silently classified either way; orbits that never meet ``C`` ride
the repelling invariant set and come back as :class:`Repeller`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, ParameterError, _require_integer

__all__ = [
    "Threshold",
    "SuperStable",
    "Repeller",
    "Boundary",
    "OrbitClass",
    "logistic",
    "threshold_map",
    "classify_orbit",
    "avoidance_measure_tent",
    "estimate_avoidance",
]

#: Orbit classification defaults.  Super-stable entry is detected only at
#: distance > BOUNDARY_TOL from the edge of C; closer orbits are flagged
#: Boundary because semi-stable cycles live exactly on the edge and must
#: not be misclassified by rounding.
BOUNDARY_TOL = 1e-12
MAX_ITER_DEFAULT = 10_000


@dataclass(frozen=True)
class Threshold:
    """A clipping threshold ``c1`` in (3/4, 1), the one field given, with the
    constants ``c0``, ``c2`` and ``d1`` derived from it.  Below 3/4 the map
    has a single attracting point and none of that structure, so any other
    ``c1`` raises :class:`ParameterError`."""

    c1: float
    c0: float = field(init=False)
    c2: float = field(init=False)
    d1: float = field(init=False)

    def __post_init__(self):
        c1 = float(self.c1)
        if not 0.75 < c1 < 1.0:
            raise ParameterError(f"threshold c1 must lie in (3/4, 1), got {c1!r}")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c0", 0.5 - 0.5 * math.sqrt(1.0 - c1))
        # For c1 > 3/4 the image of c1 is below c1, so no clip is involved.
        object.__setattr__(self, "c2", 4.0 * c1 * (1.0 - c1))
        object.__setattr__(self, "d1", math.acos(1.0 - 2.0 * c1) / math.pi)

    @property
    def c_interval(self) -> tuple[float, float]:
        """The critical interval ``C = [c0, 1-c0]`` where ``f(x) >= c1``."""
        return (self.c0, 1.0 - self.c0)

    @property
    def absorbing(self) -> tuple[float, float]:
        """The absorbing interval ``A = [c2, c1]``."""
        return (self.c2, self.c1)


@dataclass(frozen=True)
class SuperStable:
    """Orbit entered int(C): exactly periodic after the clip."""

    period: int
    steps_to_c: int


@dataclass(frozen=True)
class Repeller:
    """No orbit point met C within the iteration budget."""

    iterations_checked: int


@dataclass(frozen=True)
class Boundary:
    """An orbit point landed within tolerance of the edge of C."""

    step: int


OrbitClass = Union[SuperStable, Repeller, Boundary]


def logistic(x: float) -> float:
    """The full logistic map ``4x(1-x)`` on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"logistic map is defined on [0, 1], got {x!r}")
    return 4.0 * x * (1.0 - x)


def threshold_map(x: float, t: Threshold) -> tuple[float, float]:
    """One clipped-logistic step: returns ``(state, excess)``.

    ``state + excess == logistic(x)`` exactly; the excess is zero unless
    the logistic image reaches ``c1``.
    """
    y = logistic(x)
    if y < t.c1:
        return y, 0.0
    return t.c1, y - t.c1


def classify_orbit(t: Threshold, max_iter: int = MAX_ITER_DEFAULT) -> OrbitClass:
    """Classify the forward orbit of ``c1``.

    SuperStable(k + 1, k): the k-th iterate lies in the interior of C at
    distance > ``BOUNDARY_TOL`` from its edge, so the next step clips it to
    exactly ``c1`` and the orbit repeats with period ``k + 1``.  That period
    is minimal: ``c1`` lies outside C, so no earlier iterate was clipped, and
    an unclipped image equals ``c1`` only from the edge of C, which is
    reported as Boundary.  Boundary(k): the k-th iterate lies within
    ``BOUNDARY_TOL`` of the edge of C.  Repeller: no iterate met C within
    ``max_iter`` steps.
    """
    max_iter = _require_integer("max_iter", max_iter, 1)
    lo, hi = t.c_interval
    x = t.c1
    for k in range(1, max_iter + 1):
        x, _ = threshold_map(x, t)
        if abs(x - lo) <= BOUNDARY_TOL or abs(x - hi) <= BOUNDARY_TOL:
            return Boundary(step=k)
        if lo + BOUNDARY_TOL < x < hi - BOUNDARY_TOL:
            return SuperStable(period=k + 1, steps_to_c=k)
    return Repeller(iterations_checked=max_iter)


def avoidance_measure_tent(t: Threshold, j: int) -> float:
    """``d1**(j+1)``: the tent measure of the points avoiding C for ``j``
    steps at ``j = 0``, and an upper bound on it for ``j >= 1``.

    Only at ``j = 0`` is the value exact.  For ``j >= 1`` the avoiding set
    is smaller: at c1=0.95 its exact tent measure is 0.7129 at j=1, against
    ``d1**2`` = 0.7335, and about 0.0112 at j=20, against ``d1**21`` = 0.0386.
    """
    return t.d1 ** (_require_integer("j", j, 0) + 1)


#: Points per chunk of :func:`estimate_avoidance`, about 2 MB of working memory.
_AVOIDANCE_CHUNK = 65536


def estimate_avoidance(
    t: Threshold, j: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the Lebesgue measure of the j-step avoiding set.

    Draws ``samples`` uniform points and counts those whose iterates
    ``x, f_c1(x), ..., f_c1^j(x)`` all stay outside the closed interval C.
    Returns ``(fraction, stderr)`` with the binomial standard error.
    Deterministic for a fixed seed.  The points are drawn and iterated in
    chunks from one generator, which draws the same doubles as one draw.
    ``j``, ``samples`` and ``seed`` are integers (numpy integers too), with
    ``j >= 0``, ``samples >= 1`` and ``seed >= 0``.
    """
    j = _require_integer("j", j, 0)
    samples = _require_integer("samples", samples, 1)
    seed = _require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    lo, hi = t.c_interval
    hits = 0
    for first in range(0, samples, _AVOIDANCE_CHUNK):
        x = rng.random(min(_AVOIDANCE_CHUNK, samples - first))
        alive = (x < lo) | (x > hi)
        for _ in range(j):
            x = np.minimum(4.0 * x * (1.0 - x), t.c1)
            alive &= (x < lo) | (x > hi)
        hits += int(np.count_nonzero(alive))
    fraction = hits / samples
    stderr = math.sqrt(fraction * (1.0 - fraction) / samples)
    return fraction, stderr
