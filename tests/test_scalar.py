import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cascade_maps as cm
from cascade_maps import scalar
from cascade_maps.errors import DomainError, ParameterError

WINDOW_END = cm.PERIOD2_WINDOW_END  # (5 + sqrt 5)/8


# ---------------------------------------------------------------- logistic


@pytest.mark.parametrize("x,expected", [(0.0, 0.0), (0.5, 1.0), (0.75, 0.75)])
def test_logistic_fixed_values(x, expected):
    assert cm.logistic(x) == expected


@pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
def test_logistic_domain_error(x):
    with pytest.raises(DomainError):
        cm.logistic(x)


# ------------------------------------------------------------ threshold map


@pytest.mark.parametrize(
    "x,c1,state,excess",
    [
        (0.5, 0.9, 0.9, 0.1),     # f(0.5) = 1 clipped
        (0.9, 0.9, 0.36, 0.0),    # below threshold (f(0.9) = 0.36)
        (0.25, 0.9, 0.75, 0.0),
    ],
)
def test_threshold_map_examples(x, c1, state, excess):
    t = cm.Threshold(c1)
    s, e = cm.threshold_map(x, t)
    assert s == pytest.approx(state, abs=1e-15)
    assert e == pytest.approx(excess, abs=1e-15)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.7501, max_value=0.9999))
def test_threshold_map_conserves_logistic_image(x, c1):
    t = cm.Threshold(c1)
    s, e = cm.threshold_map(x, t)
    assert s + e == cm.logistic(x)  # exact: clipped difference is Sterbenz-exact
    assert e >= 0.0
    assert s <= t.c1


def test_threshold_map_clips_exactly_on_critical_interval():
    t = cm.Threshold(0.87)
    lo, hi = t.c_interval
    for x in np.linspace(lo + 1e-9, hi - 1e-9, 101):
        s, e = cm.threshold_map(float(x), t)
        assert s == t.c1
    for x in np.concatenate([np.linspace(0, lo - 1e-9, 53), np.linspace(hi + 1e-9, 1, 53)]):
        s, e = cm.threshold_map(float(x), t)
        assert e == 0.0


# ----------------------------------------------------------------- Threshold


def test_derived_constants_at_0_9():
    t = cm.Threshold(0.9)
    assert t.c0 == pytest.approx(0.34188611699158106, abs=1e-15)
    assert t.c2 == pytest.approx(0.36, abs=1e-15)
    assert t.d1 == pytest.approx(0.7951672353008665, abs=1e-15)


def test_derived_constants_at_0_84():
    t = cm.Threshold(0.84)
    assert t.c2 == pytest.approx(0.5376, abs=1e-15)
    assert t.c_interval[1] == pytest.approx(0.7, abs=1e-15)


def test_image_of_c1_hits_c0_at_window_end():
    t = cm.Threshold(WINDOW_END)
    assert t.c2 == pytest.approx(t.c0, abs=1e-15)


@pytest.mark.parametrize("c1", [0.5, 0.75, 1.0, 1.2, -3.0])
def test_make_threshold_rejects_out_of_range(c1):
    with pytest.raises(ParameterError, match=r"^threshold c1 must lie in \(3/4, 1\), got "):
        cm.Threshold(c1)


def _derived_constants(c1: float) -> tuple[float, float, float]:
    """``(c0, c2, d1)`` of ``c1`` from their defining expressions, written out."""
    c0 = 0.5 - 0.5 * math.sqrt(1.0 - c1)
    c2 = 4.0 * c1 * (1.0 - c1)
    d1 = math.acos(1.0 - 2.0 * c1) / math.pi
    return c0, c2, d1


def test_threshold_derives_its_constants_bit_for_bit():
    edges = [np.nextafter(0.75, 1.0), np.nextafter(1.0, 0.0), cm.XI2, WINDOW_END]
    values = np.concatenate((np.linspace(edges[0], edges[1], 10_000), edges))
    for c1 in values.tolist():
        t = cm.Threshold(c1)
        assert type(t.c1) is float and t.c1 == c1
        assert (t.c0, t.c2, t.d1) == _derived_constants(c1)


def test_threshold_takes_c1_alone():
    with pytest.raises(TypeError):
        cm.Threshold(0.9, 0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        cm.Threshold(c1=0.9, c0=0.0)
    assert cm.Threshold(np.float64(0.9)) == cm.Threshold("0.9") == cm.Threshold(0.9)


def test_replacing_c1_recomputes_the_derived_constants():
    t = dataclasses.replace(cm.Threshold(0.95), c1=0.9)
    assert t == cm.Threshold(0.9)
    assert cm.classify_orbit(t) == cm.SuperStable(period=2, steps_to_c=1)
    with pytest.raises(ParameterError):
        dataclasses.replace(t, c1=0.7)


@pytest.mark.parametrize("c1", np.linspace(0.7501, 0.9999, 25).tolist())
def test_threshold_invariants(c1):
    t = cm.Threshold(c1)
    assert t.c0 == pytest.approx(0.5 - 0.5 * math.sqrt(1.0 - c1), abs=0)
    assert 0.0 < t.c0 < 0.5
    lo, hi = t.c_interval
    # C is exactly the preimage of [c1, 1]
    assert cm.logistic(lo) == pytest.approx(c1, abs=1e-12)
    assert cm.logistic(hi) == pytest.approx(c1, abs=1e-12)
    assert t.c2 <= t.c1
    assert 2.0 / 3.0 < t.d1 < 1.0
    assert t.d1 == pytest.approx(math.acos(1.0 - 2.0 * c1) / math.pi, abs=0)


# ------------------------------------------------------------ classify_orbit


@pytest.mark.parametrize(
    "c1,period,steps",
    [(0.84, 2, 1), (0.9, 2, 1), (0.95, 10, 9), (0.99, 4, 3)],
)
def test_classify_superstable_fixtures(c1, period, steps):
    oc = cm.classify_orbit(cm.Threshold(c1))
    assert oc == cm.SuperStable(period=period, steps_to_c=steps)


def test_classify_orbit_at_xi2_escapes_in_floating_point():
    # In exact arithmetic the orbit of XI2 lands on the repelling point 3/4
    # and stays there forever.  In doubles f^2(XI2) is one ulp off, the gap
    # doubles each step, and the orbit enters C after 51 steps.
    oc = cm.classify_orbit(cm.Threshold(cm.XI2))
    assert oc == cm.SuperStable(period=52, steps_to_c=51)


def test_classify_orbit_boundary_at_window_end():
    # At the right end of the period-2 window the image of c1 sits on the
    # edge of C (one ulp away): must be flagged Boundary, not classified.
    oc = cm.classify_orbit(cm.Threshold(WINDOW_END))
    assert oc == cm.Boundary(step=1)


def test_classify_orbit_period_two_across_the_window():
    for c1 in np.linspace(0.7505, 0.9040, 61):
        oc = cm.classify_orbit(cm.Threshold(float(c1)))
        assert isinstance(oc, cm.SuperStable) and oc.period == 2, c1


def test_classify_orbit_repeller_with_tiny_budget():
    # With a one-step budget the 0.99 orbit has not reached C yet.
    oc = cm.classify_orbit(cm.Threshold(0.99), max_iter=1)
    assert oc == cm.Repeller(iterations_checked=1)


def test_classify_orbit_validates_arguments():
    t = cm.Threshold(0.9)
    with pytest.raises(ParameterError):
        cm.classify_orbit(t, max_iter=0)


def test_classify_orbit_period_is_the_first_return_to_c1():
    # The period is read off the clip, without a search: the orbit of c1
    # meets c1 again exactly at step ``period`` and at no step before.
    grid = np.linspace(0.75, 1.0, 2002)[1:-1].tolist() + [cm.XI2]
    found = 0
    for c1 in grid:
        t = cm.Threshold(c1)
        oc = cm.classify_orbit(t)
        if not isinstance(oc, cm.SuperStable):
            continue
        found += 1
        assert oc.period == oc.steps_to_c + 1, c1
        states = [t.c1]
        for _ in range(oc.period):
            states.append(cm.threshold_map(states[-1], t)[0])
        assert states[oc.period] == t.c1, c1
        assert t.c1 not in states[1 : oc.period], c1
    assert found > len(grid) // 2


# -------------------------------------------------------- avoidance measures


def test_avoidance_measure_tent_values():
    t = cm.Threshold(0.9)
    assert cm.avoidance_measure_tent(t, 0) == pytest.approx(0.79517, abs=5e-5)
    t99 = cm.Threshold(0.99)
    assert t99.d1 == pytest.approx(0.9362314391414802, abs=1e-15)
    assert cm.avoidance_measure_tent(t99, 35) == pytest.approx(t99.d1**36, rel=1e-14)


def test_avoidance_measure_tent_monotone_decay():
    t = cm.Threshold(0.87)
    for j in range(0, 20):
        assert cm.avoidance_measure_tent(t, j + 1) == pytest.approx(
            t.d1 * cm.avoidance_measure_tent(t, j), rel=1e-14
        )
    assert cm.avoidance_measure_tent(t, 400) < 1e-20


def avoiding_pieces(t: cm.Threshold, jmax: int) -> list[list[tuple[float, float]]]:
    """Independent oracle: exact interval pullback of the C-avoiding set.

    R_j = G intersect f^{-1}(R_{j-1}) with G the complement of C; the two
    inverse branches of the logistic map pull interval endpoints back
    exactly, so each R_j, j = 0..jmax, is a finite list of intervals.
    """
    c0 = t.c0
    g_pieces = [(0.0, c0), (1.0 - c0, 1.0)]
    cur = list(g_pieces)
    out = [cur]
    for _ in range(jmax):
        nxt = []
        for a, b in cur:
            sa, sb = math.sqrt(1.0 - a), math.sqrt(1.0 - b)
            for lo, hi in ((0.5 - 0.5 * sa, 0.5 - 0.5 * sb), (0.5 + 0.5 * sb, 0.5 + 0.5 * sa)):
                for glo, ghi in g_pieces:
                    lo2, hi2 = max(lo, glo), min(hi, ghi)
                    if hi2 > lo2:
                        nxt.append((lo2, hi2))
        cur = sorted(nxt)
        out.append(cur)
    return out


def exact_avoiding_measure(t: cm.Threshold, jmax: int) -> list[float]:
    """The Lebesgue measure of each R_j: a finite sum of interval lengths."""
    return [sum(b - a for a, b in pieces) for pieces in avoiding_pieces(t, jmax)]


def _tent_coordinate(x: float) -> float:
    """``h(x) = (2/pi) asin(sqrt(x))``, which conjugates f to the slope-2 tent map."""
    return (2.0 / math.pi) * math.asin(math.sqrt(x))


@pytest.mark.parametrize("c1", [0.8, 0.9, 0.95, 0.99])
def test_d1_power_is_the_tent_measure_at_j0_and_an_upper_bound_after(c1):
    # The scalar module docstring's claim, on the exact pullback's pieces
    # measured in tent coordinates.
    t = cm.Threshold(c1)
    tent = [
        sum(_tent_coordinate(b) - _tent_coordinate(a) for a, b in pieces)
        for pieces in avoiding_pieces(t, 20)
    ]
    assert abs(tent[0] - t.d1) <= 1e-15
    assert cm.avoidance_measure_tent(t, 0) == t.d1
    for j in range(1, 21):
        assert tent[j] < cm.avoidance_measure_tent(t, j), j
    if c1 == 0.95:
        assert (round(tent[1], 5), round(tent[20], 5)) == (0.71287, 0.01122)


def test_estimate_avoidance_matches_exact_pullback():
    t = cm.Threshold(0.9)
    exact = exact_avoiding_measure(t, 10)
    for j in (0, 3, 5, 10):
        frac, se = cm.estimate_avoidance(t, j, 200_000, seed=99 + j)
        assert abs(frac - exact[j]) <= 4.0 * max(se, 1e-6), (j, frac, exact[j])


def test_estimate_avoidance_j0_complement_of_c():
    t = cm.Threshold(0.9)
    frac, se = cm.estimate_avoidance(t, 0, 400_000, seed=1)
    assert abs(frac - 2.0 * t.c0) <= 4.0 * se


def test_estimate_avoidance_decays_to_zero():
    t = cm.Threshold(0.9)
    frac, _ = cm.estimate_avoidance(t, 40, 100_000, seed=2)
    assert frac < 1e-3


def test_estimate_avoidance_deterministic():
    t = cm.Threshold(0.9)
    assert cm.estimate_avoidance(t, 5, 50_000, seed=7) == cm.estimate_avoidance(
        t, 5, 50_000, seed=7
    )


def test_estimate_avoidance_true_decay_rate_is_one_half():
    # The avoiding set escapes past the repelling point 3/4 where the
    # conjugated slope is 2, so the measure halves per step; the tent-value
    # d1 does not govern the decay.  (See the exact oracle above.)
    t = cm.Threshold(0.9)
    exact = exact_avoiding_measure(t, 16)
    assert exact[16] / exact[15] == pytest.approx(0.5, abs=1e-4)


def test_estimate_avoidance_validates_arguments():
    t = cm.Threshold(0.9)
    with pytest.raises(ParameterError):
        cm.estimate_avoidance(t, -1, 10, seed=0)
    with pytest.raises(ParameterError):
        cm.estimate_avoidance(t, 1, 0, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: cm.avoidance_measure_tent(t, 1.5),
        lambda t: cm.avoidance_measure_tent(t, -1),
        lambda t: cm.estimate_avoidance(t, 1.5, 10, seed=0),
        lambda t: cm.estimate_avoidance(t, 1, 10.0, seed=0),
        lambda t: cm.estimate_avoidance(t, 1, 10, seed=0.5),
        lambda t: cm.estimate_avoidance(t, 1, 10, seed=-1),
    ],
    ids=["tent-j-1.5", "tent-j-neg", "j-1.5", "samples-10.0", "seed-0.5", "seed-neg"],
)
def test_avoidance_rejects_non_integral_and_negative_counts(call):
    # A fractional j used to give the tent measure d1**2.5.
    with pytest.raises(ParameterError):
        call(cm.Threshold(0.9))


def test_avoidance_accepts_numpy_integers():
    t = cm.Threshold(0.9)
    assert cm.avoidance_measure_tent(t, np.int64(3)) == cm.avoidance_measure_tent(t, 3)
    got = cm.estimate_avoidance(t, np.int32(3), np.int64(1000), seed=np.uint64(5))
    assert got == cm.estimate_avoidance(t, 3, 1000, seed=5)


def _estimate_avoidance_oracle(t, j, samples, seed):
    # The unchunked loop: every sample drawn at once and iterated together,
    # clipped with ``np.where`` and tested again after each step.
    x = np.random.default_rng(seed).random(samples)
    lo, hi = t.c_interval
    alive = np.ones(samples, dtype=bool)
    for i in range(j + 1):
        alive &= (x < lo) | (x > hi)
        if i < j:
            y = 4.0 * x * (1.0 - x)
            x = np.where(y < t.c1, y, t.c1)
    fraction = float(alive.mean())
    return fraction, math.sqrt(fraction * (1.0 - fraction) / samples)


CHUNK = scalar._AVOIDANCE_CHUNK


@pytest.mark.parametrize(
    "samples", [1, 7, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 100, 3 * CHUNK + 5]
)
@pytest.mark.parametrize("j", [0, 1, 4, 5])
def test_estimate_avoidance_chunks_match_one_draw(samples, j):
    t = cm.Threshold(0.9)
    got = cm.estimate_avoidance(t, j, samples, seed=11)
    want = _estimate_avoidance_oracle(t, j, samples, seed=11)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_avoidance_memory_does_not_grow_with_samples():
    # One chunk's points are alive at a time; holding all eight chunks'
    # points at once, as one draw does, would add about 15 MB here.
    t = cm.Threshold(0.9)
    cm.estimate_avoidance(t, 3, 100, seed=1)  # warm imports outside the trace
    one = _traced_peak(lambda: cm.estimate_avoidance(t, 3, CHUNK, seed=1))
    eight = _traced_peak(lambda: cm.estimate_avoidance(t, 3, 8 * CHUNK, seed=1))
    assert eight <= one + (1 << 16)


# ----------------------------------------------------------------- absorption


def test_orbits_absorbed_into_a_and_never_leave():
    t = cm.Threshold(0.9)
    rng = np.random.default_rng(5)
    x = rng.uniform(1e-9, 1.0 - 1e-9, 10_000)
    lo_a, hi_a = t.absorbing
    entered = np.zeros(x.size, dtype=bool)
    for _ in range(200):
        y = 4.0 * x * (1.0 - x)
        x = np.where(y < t.c1, y, t.c1)
        in_a = (x >= lo_a) & (x <= hi_a)
        assert not np.any(entered & ~in_a)
        entered |= in_a
    assert entered.all()
