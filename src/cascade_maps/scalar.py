"""Single-site threshold (clipped logistic) map dynamics.

The threshold map iterates ``f(x) = 4x(1-x)`` and clips any image that
reaches the threshold ``c1``, emitting the overflow as the *excess*.
All constants derived from a threshold value live on the immutable
:class:`Threshold` record:

* ``c0``  left endpoint of the critical interval ``C = [c0, 1-c0]``,
  the preimage of ``[c1, 1]`` under ``f``;
* ``c2``  first forward image of ``c1``, lower end of the absorbing
  interval ``A = [c2, c1]``;
* ``d1``  image of ``c1`` under the conjugacy with the slope-2 tent map.
  ``d1**(j+1)`` is the tent measure of the set of points whose first
  ``j`` iterates avoid ``C``.

An orbit that lands in the interior of ``C`` is clipped to exactly
``c1`` and from then on repeats a finite cycle exactly, so the "period"
of a super-stable orbit is read off without any tolerance.  Orbits that
graze the boundary of ``C`` are reported as :class:`Boundary` rather
than silently classified either way; orbits that never meet ``C`` ride
the repelling invariant set and come back as :class:`Repeller`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "Threshold",
    "SuperStable",
    "Repeller",
    "Boundary",
    "OrbitClass",
    "logistic",
    "threshold_map",
    "make_threshold",
    "forward_orbit",
    "classify_orbit",
    "tent_conjugacy",
    "tent_conjugacy_inverse",
    "tent_map",
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
    """A clipping threshold ``c1`` in (3/4, 1) with its derived constants."""

    c1: float
    c0: float
    c2: float
    d1: float

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


def make_threshold(c1: float) -> Threshold:
    """Build a :class:`Threshold` from ``c1``, rejecting values outside (3/4, 1).

    Below 3/4 the clipped map has a single attracting point and none of the
    derived structure exists, so such values are treated as parameter errors.
    """
    c1 = float(c1)
    if not 0.75 < c1 < 1.0:
        raise ParameterError(f"threshold c1 must lie in (3/4, 1), got {c1!r}")
    c0 = 0.5 - 0.5 * math.sqrt(1.0 - c1)
    # For c1 > 3/4 the image of c1 is below c1, so no clip is involved.
    c2 = 4.0 * c1 * (1.0 - c1)
    d1 = math.acos(1.0 - 2.0 * c1) / math.pi
    return Threshold(c1=c1, c0=c0, c2=c2, d1=d1)


def threshold_map(x: float, t: Threshold) -> tuple[float, float]:
    """One clipped-logistic step: returns ``(state, excess)``.

    ``state + excess == logistic(x)`` exactly; the excess is zero unless
    the logistic image reaches ``c1``.
    """
    y = logistic(x)
    if y < t.c1:
        return y, 0.0
    return t.c1, y - t.c1


def forward_orbit(t: Threshold, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``k`` points of the orbit of ``c1`` with the excess of each step.

    Returns ``(states, excesses)`` where ``states[0] = c1`` and
    ``excesses[i]`` is the excess emitted by the step that produced
    ``states[i]`` (zero for the starting point).
    """
    if k < 1:
        raise ParameterError("orbit length k must be >= 1")
    states = np.empty(k)
    excesses = np.zeros(k)
    states[0] = t.c1
    x = t.c1
    for i in range(1, k):
        x, e = threshold_map(x, t)
        states[i] = x
        excesses[i] = e
    return states, excesses


def classify_orbit(
    t: Threshold,
    max_iter: int = MAX_ITER_DEFAULT,
    boundary_tol: float = BOUNDARY_TOL,
) -> OrbitClass:
    """Classify the forward orbit of ``c1``.

    SuperStable(p, k): the k-th iterate lies in the interior of C at
    distance > ``boundary_tol`` from its edge; the orbit then repeats with
    exact minimal period ``p`` (clipping makes the return to ``c1`` exact).
    Boundary(k): the k-th iterate lies within ``boundary_tol`` of the edge
    of C.  Repeller: no iterate met C within ``max_iter`` steps.
    """
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    if boundary_tol <= 0.0:
        raise ParameterError("boundary_tol must be positive")
    lo, hi = t.c_interval
    points = [t.c1]
    x = t.c1
    for k in range(1, max_iter + 1):
        x, _ = threshold_map(x, t)
        points.append(x)
        if abs(x - lo) <= boundary_tol or abs(x - hi) <= boundary_tol:
            return Boundary(step=k)
        if lo + boundary_tol < x < hi - boundary_tol:
            # Entry into int(C): the next step clips to exactly c1, so the
            # cycle is {c1, ..., points[k]}.  An exact earlier return to c1
            # (without a clip) would mean a shorter true period.
            period = k + 1
            for j in range(1, k + 1):
                if points[j] == t.c1:
                    period = j
                    break
            return SuperStable(period=period, steps_to_c=k)
    return Repeller(iterations_checked=max_iter)


def tent_conjugacy(x):
    """Conjugacy ``h(x) = (2/pi) asin(sqrt(x))`` taking ``f`` to the tent map.

    Accepts scalars or arrays; satisfies ``h(f(x)) == tent_map(h(x))``.
    """
    x = np.asarray(x, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise DomainError("tent conjugacy is defined on [0, 1]")
    out = (2.0 / np.pi) * np.arcsin(np.sqrt(x))
    return out.item() if out.ndim == 0 else out


def tent_conjugacy_inverse(u):
    """Inverse conjugacy ``sin^2(pi u / 2)``."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)):
        raise DomainError("inverse tent conjugacy is defined on [0, 1]")
    s = np.sin(np.pi * u / 2.0)
    out = s * s
    return out.item() if out.ndim == 0 else out


def tent_map(u):
    """Slope-2 tent map ``1 - |1 - 2u|`` on [0, 1]."""
    u = np.asarray(u, dtype=float)
    out = 1.0 - np.abs(1.0 - 2.0 * u)
    return out.item() if out.ndim == 0 else out


def avoidance_measure_tent(t: Threshold, j: int) -> float:
    """Tent measure ``d1**(j+1)`` of points avoiding C for ``j`` steps."""
    if j < 0:
        raise ParameterError("j must be >= 0")
    return t.d1 ** (j + 1)


def estimate_avoidance(
    t: Threshold, j: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the Lebesgue measure of the j-step avoiding set.

    Draws ``samples`` uniform points and counts those whose iterates
    ``x, f_c1(x), ..., f_c1^j(x)`` all stay outside the closed interval C.
    Returns ``(fraction, stderr)`` with the binomial standard error.
    Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if j < 0:
        raise ParameterError("j must be >= 0")
    rng = np.random.default_rng(seed)
    x = rng.random(samples)
    lo, hi = t.c_interval
    alive = np.ones(samples, dtype=bool)
    for i in range(j + 1):
        alive &= (x < lo) | (x > hi)
        if i < j:
            y = 4.0 * x * (1.0 - x)
            x = np.where(y < t.c1, y, t.c1)
    fraction = float(alive.mean())
    stderr = math.sqrt(fraction * (1.0 - fraction) / samples)
    return fraction, stderr
