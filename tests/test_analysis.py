import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import cascade_maps as cm
from cascade_maps import analysis
from cascade_maps.errors import BracketError, ParameterError

SEED = 0x5EED_CA5CADE
ANTIPHASE_ROOT = 0.83627234814318


# -------------------------------------------------------- anti-phase condition


def _condition_holds(t):
    """The two-site anti-phase orbit's existence condition, ``c2 + e(c2) <= 1 - c0``."""
    return analysis._antiphase_overshoot(t) <= 0.0


@pytest.mark.parametrize("c1,expected", [(0.84, True), (0.80, False), (0.9, True)])
def test_antiphase_condition_examples(c1, expected):
    assert _condition_holds(cm.Threshold(c1)) is expected


def test_antiphase_condition_flips_once_across_the_window():
    root = cm.antiphase_root()
    grid = np.linspace(0.7501, cm.PERIOD2_WINDOW_END - 1e-9, 1000)
    for c1 in map(float, grid):
        expected = c1 > root
        assert _condition_holds(cm.Threshold(c1)) is expected


def test_antiphase_root_value():
    root = cm.antiphase_root()
    assert abs(root - ANTIPHASE_ROOT) <= 1e-10


def test_antiphase_root_is_pinned():
    assert cm.antiphase_root() == 0.836272348143198


def test_antiphase_condition_flips_within_the_bisection_width():
    root = cm.antiphase_root()
    assert _condition_holds(cm.Threshold(root - 1e-13)) is False
    assert _condition_holds(cm.Threshold(root + 1e-13)) is True


def test_antiphase_condition_is_the_written_out_comparison():
    # A dense grid of the window and the 200 doubles on each side of the root.
    near = [cm.antiphase_root()]
    for toward in (0.0, 1.0):
        c = near[0]
        for _ in range(200):
            c = float(np.nextafter(c, toward))
            near.append(c)
    grid = np.linspace(0.7501, cm.PERIOD2_WINDOW_END, 20_001).tolist() + near
    for c1 in grid:
        t = cm.Threshold(c1)
        e_c2 = 4.0 * t.c2 * (1.0 - t.c2) - t.c1
        assert _condition_holds(t) is (t.c2 + e_c2 <= 1.0 - t.c0)


def test_antiphase_root_against_direct_condition_oracle():
    # Another route to the root: Brent's method on the condition written
    # with the derived constants themselves.
    def gap(c):
        t = cm.Threshold(c)
        return (t.c2 + (4.0 * t.c2 * (1.0 - t.c2) - t.c1)) - (1.0 - t.c0)

    oracle = brentq(gap, 0.76, 0.9, xtol=1e-14)
    assert cm.antiphase_root() == pytest.approx(oracle, abs=1e-12)


def test_antiphase_straddle():
    root = cm.antiphase_root()
    assert _condition_holds(cm.Threshold(root - 1e-6)) is False
    assert _condition_holds(cm.Threshold(root + 1e-6)) is True


# ------------------------------------------------------------------ star values


def closed_form_star(s: int) -> float:
    """Independent oracle: pull 1/4 back through the left inverse branch
    s-2 times, then take the right preimage near 1."""
    y = 0.25
    for _ in range(s - 2):
        y = 0.5 - 0.5 * math.sqrt(1.0 - y)
    return 0.5 + 0.5 * math.sqrt(1.0 - y)


def test_find_star_two_matches_closed_form():
    xi2 = cm.star_values(2)[-1]
    assert xi2.s == 2
    assert abs(xi2.value - (2.0 + math.sqrt(3.0)) / 4.0) <= 1e-12
    v = xi2.value
    f2 = 4.0 * (4.0 * v * (1.0 - v)) * (1.0 - 4.0 * v * (1.0 - v))
    assert abs(f2 - 0.75) <= 1e-12


@pytest.mark.parametrize("s", range(2, analysis._LAST_STAR + 1))
def test_star_values_match_backward_construction(s):
    assert cm.star_values(s)[-1].value == pytest.approx(closed_form_star(s), abs=1e-12)


@pytest.mark.parametrize("max_s", [analysis._LAST_STAR + 1, analysis._LAST_STAR + 2, 22])
def test_star_values_reject_stars_past_the_last_resolved(max_s):
    # Star 16 lies above the bisection bracket, and from about s = 17 on
    # doubles cannot resolve a star at all: such requests are rejected.
    with pytest.raises(ParameterError, match=f"2..{analysis._LAST_STAR}"):
        cm.star_values(max_s)


def test_star_spacing_ratios_approach_one_quarter():
    stars = {st.s: st.value for st in cm.star_values(8)}
    devs = []
    for s in range(3, 8):
        ratio = (stars[s + 1] - stars[s]) / (stars[s] - stars[s - 1])
        devs.append(abs(ratio - 0.25))
    assert devs == sorted(devs, reverse=True)  # deviation shrinks monotonically
    assert devs[-1] < 0.02


def test_find_star_with_explicit_bracket_and_errors():
    def gap(c):
        return analysis._star_gap(c, 2)

    v = analysis._bisect(gap, 0.92, 0.94, 1e-13)
    assert v == pytest.approx((2.0 + math.sqrt(3.0)) / 4.0, abs=1e-12)
    with pytest.raises(BracketError):
        analysis._bisect(gap, 0.95, 0.96, 1e-13)  # no sign change here
    with pytest.raises(ParameterError):
        cm.star_values(1)


# ------------------------------------------------------------------ Markov model


@pytest.mark.parametrize("c1,n0", [(0.94, 3), (0.95, 3), (0.97, 1), (0.99, 1)])
def test_markov_depth_and_pattern(c1, n0):
    n = 12
    m = cm.build_markov(cm.Threshold(c1), n)
    assert m.n0 == n0
    mat = m.matrix
    assert mat.shape == (n + 1, n + 1)
    assert all(mat[i, i + 1] == 1 for i in range(n))
    assert all(mat[i, 0] == 1 for i in range(n0, n + 1))
    # nothing else is set
    assert int(mat.sum()) == n + (n - n0 + 1)
    assert m.spectral_radius > 1.0
    assert m.entropy_bound > 0.0


@pytest.mark.parametrize("c1", [0.94, 0.95, 0.97, 0.99])
def test_markov_spectral_radius_grows_with_depth(c1):
    t = cm.Threshold(c1)
    rhos = [cm.build_markov(t, n).spectral_radius for n in (12, 13, 14)]
    assert rhos[0] <= rhos[1] + 1e-12 and rhos[1] <= rhos[2] + 1e-12
    assert all(r > 1.0 for r in rhos)


def test_markov_spectral_radius_fixture():
    m = cm.build_markov(cm.Threshold(0.95), 12)
    # Largest root of the characteristic polynomial, from 40-digit mpmath.
    assert m.spectral_radius == pytest.approx(1.3713018658733899, abs=1e-13)


def test_markov_preimages_contract_onto_three_quarters():
    m = cm.build_markov(cm.Threshold(0.95), 14)
    widths = [hi - lo for lo, hi in m.branch_preimages]
    mids = [(hi + lo) / 2 for lo, hi in m.branch_preimages]
    assert abs(mids[-1] - 0.75) < 1e-4
    for k in range(9, 13):
        assert widths[k + 1] / widths[k] == pytest.approx(0.5, abs=1e-3)
    # the right inverse branch fixes 3/4
    assert 0.5 + 0.5 * math.sqrt(1.0 - 0.75) == 0.75


def test_markov_gap_is_open_interval_below_c0():
    m = cm.build_markov(cm.Threshold(0.95), 8)
    lo, hi = m.j0
    t = cm.Threshold(0.95)
    assert lo == t.c2 and hi == t.c0 and lo < hi


def test_markov_rejects_low_threshold_and_small_depth():
    with pytest.raises(ParameterError):
        cm.build_markov(cm.Threshold(0.9), 12)  # below the star value
    with pytest.raises(ParameterError):
        cm.build_markov(cm.Threshold(0.94), 3)  # needs n >= n0 + 1


def _markov_oracle(t, n):
    # Walks the depths directly: the least depth n0 from which every branch
    # preimage down to depth n lies in the gap image (f(c2), c1), widened by
    # the inclusion slack.  Returns (n0, matrix), or the error message.
    slack = analysis._INCLUSION_SLACK
    f_lo = 4.0 * t.c2 * (1.0 - t.c2)
    lo, hi = t.c2, t.c0
    covered = []
    for _ in range(n):
        lo, hi = 0.5 + 0.5 * math.sqrt(1.0 - hi), 0.5 + 0.5 * math.sqrt(1.0 - lo)
        covered.append(lo >= f_lo - slack and hi <= t.c1 + slack)
    n0s = [d for d in range(1, n + 1) if all(covered[d - 1 :])]
    if not n0s:
        return "no branch preimage is covered by the gap image"
    n0 = n0s[0]
    if n < n0 + 1:
        return f"partition depth n={n} too small, need n >= {n0 + 1}"
    matrix = np.zeros((n + 1, n + 1), dtype=np.int8)
    for i in range(n + 1):
        for k in range(n + 1):
            matrix[i, k] = k == i + 1 or (k == 0 and i >= n0)
    return n0, matrix


def test_markov_matches_a_depth_walk_oracle():
    kinds = set()
    for c1 in [0.9331, 0.935, 0.94, 0.95, 0.96, 0.97, 0.99, 0.9999]:
        t = cm.Threshold(c1)
        for n in range(1, 25):
            want = _markov_oracle(t, n)
            if isinstance(want, str):
                with pytest.raises(ParameterError) as info:
                    cm.build_markov(t, n)
                assert str(info.value) == want
                kinds.add(want.split()[0])
                continue
            m = cm.build_markov(t, n)
            assert m.n0 == want[0]
            assert m.matrix.dtype == np.int8
            assert np.array_equal(m.matrix, want[1])
            kinds.add("built")
    # the grid takes both error paths and the build
    assert kinds == {"no", "partition", "built"}


@pytest.mark.parametrize("n", [0, -3])
def test_markov_rejects_a_depth_below_one(n):
    with pytest.raises(ParameterError, match="n must be >= 1"):
        cm.build_markov(cm.Threshold(0.95), n)


# ------------------------------------------------------------ orbit detection


T84 = cm.Threshold(0.84)


def test_detect_in_phase_orbit():
    rec = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.5, 0.5]), 10, 16)
    assert rec.period == 2 and rec.kind == "in_phase"
    assert rec.window_fingerprint == pytest.approx(1.8521395199999993, abs=1e-14)


def test_detect_anti_phase_orbit_exactly_on_cycle():
    rec = cm.detect_periodic_orbit(
        T84, cm.LatticeState(sites=[T84.c2, T84.c1]), 0, 16
    )
    assert rec.period == 2 and rec.kind == "anti_phase"
    kicked = T84.c2 + (4.0 * T84.c2 * (1.0 - T84.c2) - T84.c1)
    expect = np.array([[T84.c2, T84.c1], [T84.c1, kicked]])
    assert np.allclose(rec.orbit, expect, atol=1e-15)


def test_detect_fixed_point():
    rec = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.0, 0.0]), 0, 8)
    assert rec.period == 1 and rec.window_fingerprint == 0.0


def test_detect_returns_none_without_recurrence():
    assert cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.3, 0.8]), 0, 1) is None


def test_detected_orbit_recurs_for_ten_periods():
    rec = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.31, 0.62]), 100, 16)
    s = cm.LatticeState(sites=rec.orbit[0])
    for _ in range(10):
        for _ in range(rec.period):
            s = cm.step(s, T84)
        assert np.array_equal(s.sites, rec.orbit[0])


def test_detect_canonical_phase_is_rotation_invariant():
    a = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.5, 0.5]), 10, 16)
    b = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.5, 0.5]), 11, 16)
    assert np.array_equal(a.orbit, b.orbit)


def _orbit_of_c1(t, k):
    """The first ``k`` states of the scalar orbit of ``c1``."""
    states = [t.c1]
    for _ in range(k - 1):
        states.append(cm.threshold_map(states[-1], t)[0])
    return states


def test_detect_ripple_at_high_threshold():
    t = cm.Threshold(0.95)
    cyc = _orbit_of_c1(t, 10)
    n = 4
    s0 = cm.LatticeState(sites=[cyc[(10 - 1 - i) % 10] for i in range(n)])
    rec = cm.detect_periodic_orbit(t, s0, 60, 32)
    assert rec.period == 10 and rec.kind == "ripple"
    # shifted-site equation is exact outside C; in-C slots carry the kick
    lo, hi = t.c_interval
    for i in range(n - 1):
        for j in range(rec.period):
            a = rec.orbit[j, i]
            b = rec.orbit[(j + 1) % rec.period, i + 1]
            if lo <= a <= hi and lo <= b <= hi:
                assert abs(a - b) <= n * (1.0 - t.c1)
            else:
                assert a == b


def test_ripple_basin_has_interior():
    t = cm.Threshold(0.95)
    cyc = _orbit_of_c1(t, 10)
    base = np.array([cyc[(10 - 1 - i) % 10] for i in range(4)])
    rng = np.random.default_rng(7)
    for _ in range(5):
        s0 = cm.LatticeState(sites=np.clip(base + rng.uniform(-1e-3, 1e-3, 4), 0, 1))
        rec = cm.detect_periodic_orbit(t, s0, 60, 32)
        assert rec is not None and rec.kind == "ripple" and rec.period == 10


# ------------------------------------------------------------------- census


def test_census_two_sites_finds_both_attractors():
    entries = cm.census(T84, 2, 10_000, seed=SEED)
    assert [(r.kind, h) for r, h in entries] == [
        ("in_phase", 6243),
        ("anti_phase", 3757),
    ]
    assert all(r.period == 2 for r, _ in entries)


def test_census_is_reproducible():
    a = cm.census(T84, 2, 2_000, seed=SEED)
    b = cm.census(T84, 2, 2_000, seed=SEED)
    assert len(a) == len(b)
    for (ra, ha), (rb, hb) in zip(a, b):
        assert ha == hb and np.array_equal(ra.orbit, rb.orbit)


def test_census_single_attractor_below_antiphase_root():
    entries = cm.census(cm.Threshold(0.80), 2, 10_000, seed=SEED)
    assert len(entries) == 1
    rec, hits = entries[0]
    assert rec.kind == "in_phase" and rec.period == 2 and hits == 10_000


def test_census_three_sites_where_carry_condition_holds():
    # With c2 + 2 e(c2) <= 1 - c0 (true at 0.9, false at 0.84) every
    # in-phase/lagged combination of adjacent sites survives: 2^(N-1).
    t = cm.Threshold(0.9)
    entries = cm.census(t, 3, 10_000, seed=SEED)
    assert len(entries) == 4
    assert sum(h for _, h in entries) == 10_000


def test_census_records_match_direct_detection():
    entries = cm.census(T84, 2, 2_000, seed=SEED)
    by_kind = {r.kind: r for r, _ in entries}
    direct = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.5, 0.5]), 100, 64)
    assert np.array_equal(by_kind["in_phase"].orbit, direct.orbit)
    direct = cm.detect_periodic_orbit(
        T84, cm.LatticeState(sites=[T84.c2, T84.c1]), 100, 64
    )
    assert np.array_equal(by_kind["anti_phase"].orbit, direct.orbit)
    # many attractors: each record is reproduced from its own first state
    t = cm.Threshold(0.95)
    entries = cm.census(t, 4, 2_000, seed=SEED)
    assert len(entries) == 22
    for rec, _ in entries:
        direct = cm.detect_periodic_orbit(t, cm.LatticeState(sites=rec.orbit[0]), 0, 64)
        assert direct.period == rec.period
        assert np.array_equal(direct.orbit, rec.orbit)
        assert direct.kind == rec.kind
        assert direct.window_fingerprint == rec.window_fingerprint


def test_census_records_recur_when_resimulated():
    for rec, _ in cm.census(T84, 3, 1_000, seed=SEED):
        s = cm.LatticeState(sites=rec.orbit[0])
        for _ in range(10 * rec.period):
            s = cm.step(s, T84)
        assert np.array_equal(s.sites, rec.orbit[0])


def test_census_validates_sample_count():
    with pytest.raises(ParameterError):
        cm.census(T84, 2, 0, seed=1)


@pytest.mark.parametrize("transient", [-1, -5])
def test_recurrence_search_rejects_negative_transient(transient):
    with pytest.raises(ParameterError, match="transient"):
        cm.census(T84, 2, 50, seed=1, transient=transient)
    with pytest.raises(ParameterError, match="transient"):
        cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.3, 0.6]), transient, 16)


@pytest.mark.parametrize("n_sites", [0, -1])
def test_census_rejects_lattice_without_sites(n_sites):
    with pytest.raises(ParameterError, match="n_sites"):
        cm.census(T84, n_sites, 10, seed=1)


@pytest.mark.parametrize("max_period", [-1, 0])
def test_recurrence_search_validates_max_period(max_period):
    with pytest.raises(ParameterError, match="max_period"):
        cm.census(T84, 2, 10, seed=1, max_period=max_period)
    with pytest.raises(ParameterError, match="max_period"):
        cm.detect_periodic_orbit(
            T84, cm.LatticeState(sites=[0.3, 0.6]), 10, max_period=max_period
        )


@pytest.mark.parametrize(
    "name, value",
    [("n_sites", 2.5), ("samples", 50.0), ("seed", 1.5), ("transient", 2.5), ("max_period", 8.0)],
)
def test_census_rejects_non_integral_counts(name, value):
    kwargs = dict(n_sites=3, samples=50, seed=1, transient=100, max_period=64) | {name: value}
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        cm.census(T84, **kwargs)


@pytest.mark.parametrize("name, value", [("transient", 2.5), ("max_period", 8.0)])
def test_detect_periodic_orbit_rejects_non_integral_counts(name, value):
    kwargs = dict(transient=10, max_period=16) | {name: value}
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.3, 0.6]), **kwargs)


def test_census_and_detection_accept_numpy_integers():
    counts = dict(transient=np.int16(100), max_period=np.uint8(64))
    want = cm.census(T84, 3, 50, seed=1)
    got = cm.census(T84, np.int64(3), np.int32(50), seed=np.int64(1), **counts)
    assert [(rec.orbit.tobytes(), hits) for rec, hits in got] == [
        (rec.orbit.tobytes(), hits) for rec, hits in want
    ]
    s = cm.LatticeState(sites=[0.3, 0.6])
    rec = cm.detect_periodic_orbit(T84, s, **counts)
    assert rec.orbit.tobytes() == cm.detect_periodic_orbit(T84, s, 100, 64).orbit.tobytes()


def test_census_orbits_return_exactly_at_many_attractors():
    # The period search is a bit-exact return test: stepping a record's
    # first state ``period`` times gives that state back bit for bit.
    t = cm.Threshold(0.95)
    for rec, _ in cm.census(t, 8, 2_000, seed=SEED):
        s = cm.LatticeState(sites=rec.orbit[0])
        for _ in range(rec.period):
            s = cm.step(s, t)
        assert np.array_equal(s.sites, rec.orbit[0])


def test_detect_redetects_every_census_record():
    # Census and detection share one attractor identity, the bit-exact
    # cycle: detection from a record's first state gives that record back.
    t = cm.Threshold(0.95)
    entries = cm.census(t, 4, 500, seed=SEED)
    assert len(entries) > 1
    for rec, _ in entries:
        got = cm.detect_periodic_orbit(t, cm.LatticeState(sites=rec.orbit[0]), 0, 64)
        assert _record_bytes([(got, 0)]) == _record_bytes([(rec, 0)])


@pytest.mark.parametrize("c1", [0.84, 0.95, 0.98])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_census_orbits_have_distinct_states_and_least_rotation(c1, n):
    # A least bit-exact return period p puts p distinct states on the orbit,
    # so its least state occurs once and starts the least rotation: the
    # period search from every phase of a record's orbit finds period p and
    # the record's first state.
    t = cm.Threshold(c1)
    entries = cm.census(t, n, 1_000, seed=SEED)
    assert entries
    for rec, _ in entries:
        p = rec.period
        assert len({state.tobytes() for state in rec.orbit}) == p
        assert rec.orbit.tobytes() == _canonical_rotation_oracle(rec.orbit).tobytes()
        periods, least = analysis._recurrences(t, rec.orbit, 0, p)
        assert periods.tolist() == [p] * p
        assert least.tobytes() == np.stack([rec.orbit[0]] * p).tobytes()


def test_census_counts_every_phase_of_one_cycle_as_one_group():
    # Samples started at each of a cycle's q phases are one attractor with
    # q hits, whichever phase the search starts from.
    t = cm.Threshold(0.95)
    rec = cm.census(t, 3, 300, seed=SEED)[0][0]
    q = rec.period
    assert q > 1
    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "_census_initial_states", lambda *args: rec.orbit[::-1].copy())
        entries = cm.census(t, 3, q, seed=SEED, transient=0)
    assert _record_bytes(entries) == _record_bytes([(rec, q)])


# Oracle tolerances: 0.0 is the exact comparison (for finite doubles,
# |a - b| <= 0 exactly when a == b), and 1e-9 is the recurrence tolerance
# the census and detection had before they compared exactly, kept so the
# exact identity is also checked against the records that tolerance gave.
ORACLE_TOLS = [0.0, 1e-9]


def _recurrences_oracle(t, x, transient, max_period, tol=0.0):
    # The row-major recurrence search the census was first written with:
    # (M, N) batches in C order and a (max_period + 1, M, N) history.  A
    # private copy of ``x`` is stepped.
    if max_period < 1:
        raise ParameterError("max_period must be >= 1")
    x = np.array(x, dtype=float, order="C")
    for _ in range(transient):
        cm.step_batch(x, t)
    history = np.empty((max_period + 1,) + x.shape)
    history[0] = x
    periods = np.zeros(x.shape[0], dtype=int)
    for p in range(1, max_period + 1):
        cm.step_batch(x, t)
        history[p] = x
        hit = (periods == 0) & (np.max(np.abs(x - history[0]), axis=1) <= tol)
        periods[hit] = p
        if periods.all():
            break
    return periods, history


def _record_bytes(entries):
    return [
        (
            r.period,
            r.orbit.shape,
            r.orbit.tobytes(),
            r.kind,
            np.float64(r.window_fingerprint).tobytes(),
            hits,
        )
        for r, hits in entries
    ]


def _orbit_kind_oracle(orbit, t, tol=0.0):
    # The per-orbit classifier the records were first built with.
    p, n = orbit.shape
    spread = np.max(orbit, axis=1) - np.min(orbit, axis=1)
    if np.all(spread <= tol):
        return "in_phase"
    if n == 2 and p % 2 == 0 and _lag_matches_oracle(orbit, p // 2, t, tol):
        return "anti_phase"
    if _lag_matches_oracle(orbit, 1, t, tol):
        return "ripple"
    return "other"


def _attractor_record_oracle(orbit, t, tol=0.0):
    # One record per orbit, as the census and detection first built them.
    canon = _canonical_rotation_oracle(orbit.copy())
    s, fingerprint = cm.LatticeState(sites=canon[0]), 0.0
    for _ in range(analysis.FINGERPRINT_WINDOW):
        s = cm.step(s, t)
        fingerprint += s.last_excess
    return cm.AttractorRecord(
        period=orbit.shape[0],
        orbit=canon,
        kind=_orbit_kind_oracle(canon, t, tol),
        window_fingerprint=fingerprint,
    )


def _detect_oracle(t, s0, transient, max_period):
    # Single-orbit detection as first written: the orbit is read straight
    # out of the row-major history.
    periods, history = _recurrences_oracle(t, s0.sites[None, :], transient, max_period)
    if periods[0] == 0:
        return None
    return _attractor_record_oracle(history[: periods[0], 0], t)


def _census_oracle(t, n_sites, samples, seed, tol=0.0, transient=100, max_period=64):
    # The per-sample grouping loop the census was first written with, over
    # the row-major history: one lexsort and one tobytes key per resolved
    # sample, first sample kept.
    x = analysis._census_initial_states(seed, samples, n_sites)
    periods, history = _recurrences_oracle(t, x, transient, max_period, tol)
    groups = {}
    for i in np.flatnonzero(periods):
        orbit = history[: periods[i], i]
        key = orbit[np.lexsort(orbit.T[::-1])].tobytes()
        groups.setdefault(key, [orbit, 0])[1] += 1
    entries = [
        (_attractor_record_oracle(orbit, t, tol), hits) for orbit, hits in groups.values()
    ]
    entries.sort(
        key=lambda e: (
            -e[1],
            e[0].window_fingerprint,
            e[0].period,
            tuple(e[0].orbit.ravel()),
        )
    )
    return entries


# (c1, n, transient, max_period): the census default budget on a grid, and
# a long budget at many attractors, with orbits of period up to 512.
_ORACLE_BUDGETS = [
    pytest.param(c1, n, 100, 64, id=f"{n}-{c1}")
    for n in (2, 3, 8)
    for c1 in (0.84, 0.9, 0.95, 0.98)
] + [pytest.param(0.95, 8, 1000, 512, id="8-0.95-1000-512")]


@pytest.mark.parametrize("c1, n, transient, max_period", _ORACLE_BUDGETS)
def test_census_matches_row_major_recurrence_oracle(c1, n, transient, max_period):
    # Periods equal the oracle's, each resolved row's least state is the
    # first state of the least rotation of the oracle's stored orbit, and
    # the orbit rebuilt from it equals that rotation, byte for byte.  An
    # unresolved row's least state is the least of all it visited.
    t = cm.Threshold(c1)
    x = analysis._census_initial_states(SEED, 400, n)
    periods, least = analysis._recurrences(t, x, transient, max_period)
    want_periods, want_history = _recurrences_oracle(t, x, transient, max_period)
    assert periods.tolist() == want_periods.tolist()
    assert least.shape == x.shape
    for i in np.flatnonzero(periods == 0).tolist():
        visited = want_history[:, i]
        assert least[i].tobytes() == visited[np.lexsort(visited.T[::-1])[0]].tobytes()
    for i in np.flatnonzero(periods).tolist():
        p = int(periods[i])
        want = _canonical_rotation_oracle(want_history[:p, i])
        assert least[i].tobytes() == want[0].tobytes()
        orbit = analysis._orbit_states(t, least[i : i + 1], p)[0]
        assert orbit.shape == (p, n)
        assert orbit.tobytes() == want.tobytes()

    starts = [cm.LatticeState(sites=row) for row in x[:6]]
    starts.append(cm.LatticeState(sites=np.full(n, 0.5)))
    budgets = [(100, 64), (0, 64), (3, 2)]

    def records(detect):
        out = []
        for s in starts:
            for transient, max_period in budgets:
                rec = detect(t, s, transient, max_period)
                out.append(None if rec is None else _record_bytes([(rec, 0)]))
        return out

    assert records(cm.detect_periodic_orbit) == records(_detect_oracle)
    got = _record_bytes(cm.census(t, n, 400, SEED, transient, max_period))
    want = _census_oracle(t, n, 400, SEED, transient=transient, max_period=max_period)
    assert got and got == _record_bytes(want)


@pytest.mark.parametrize("c1", [0.84, 0.9, 0.95, 0.98])
@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("oracle_tol", ORACLE_TOLS)
def test_census_grouping_matches_per_sample_oracle(c1, n, oracle_tol):
    t = cm.Threshold(c1)
    want = _record_bytes(_census_oracle(t, n, 300, SEED, oracle_tol))
    assert want
    # Four sample chunks (the last one short) and one.
    for chunk in (97, analysis._CENSUS_CHUNK):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(analysis, "_CENSUS_CHUNK", chunk)
            assert _record_bytes(cm.census(t, n, 300, seed=SEED)) == want


@pytest.mark.parametrize("c1", [0.9, 0.95])
def test_group_records_do_not_depend_on_sample_order(c1):
    # Any sample of a group gives its record, so a chunk's samples in
    # reverse order give the same records and hits.
    t = cm.Threshold(c1)
    x = analysis._census_initial_states(SEED, 300, 3)
    periods, _ = analysis._recurrences(t, x, 100, 64)
    want = _record_bytes(cm.census(t, 3, 300, seed=SEED))
    assert sum(r[-1] for r in want) == np.count_nonzero(periods) > len(want) > 1
    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "_census_initial_states", lambda *args: x[::-1].copy())
        assert _record_bytes(cm.census(t, 3, 300, seed=SEED)) == want


def _records_match_oracle(t, orbits, tol=0.0):
    # Orbits of one (period, n_sites) shape share a batch, each put in
    # canonical phase, and each batch's records equal the per-orbit
    # oracle's, byte for byte.
    batches = {}
    for orbit in orbits:
        batches.setdefault(orbit.shape, []).append(orbit)
    for batch in batches.values():
        want = [_attractor_record_oracle(orbit, t, tol) for orbit in batch]
        got = analysis._attractor_records(
            t, np.stack([_canonical_rotation_oracle(orbit) for orbit in batch])
        )
        assert _record_bytes([(r, 0) for r in got]) == _record_bytes([(r, 0) for r in want])


@pytest.mark.parametrize("c1", [0.84, 0.9, 0.95, 0.98])
@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("oracle_tol", ORACLE_TOLS)
def test_attractor_records_match_per_orbit_oracle_on_census_groups(c1, n, oracle_tol):
    # One orbit per distinct least state, rebuilt as the census does.
    t = cm.Threshold(c1)
    periods, least = analysis._recurrences(
        t, analysis._census_initial_states(SEED, 300, n), 100, 64
    )
    starts = {least[i].tobytes(): i for i in np.flatnonzero(periods).tolist()}
    assert starts
    orbits = [
        analysis._orbit_states(t, least[i : i + 1], int(periods[i]))[0]
        for i in starts.values()
    ]
    _records_match_oracle(t, orbits, oracle_tol)


def test_attractor_records_match_per_orbit_oracle_on_every_kind():
    # Hand-built orbits at c1 = 0.84, where C = [0.3, 0.7]; the values off C
    # must match exactly.  Orbits of one shape share a batch, so anti-phase,
    # ripple, in-phase and other rows sit next to each other.
    s0 = [0.125, 0.25, 0.75, 0.875]
    cases = [
        ([[0.25] * 3, [0.875] * 3], "in_phase"),
        ([[0.25, 0.875], [0.875, 0.25]], "anti_phase"),
        (np.stack([s0, np.roll(s0, 2)], axis=1), "anti_phase"),
        (np.stack([s0, np.roll(s0, 1)], axis=1), "ripple"),
        (np.stack([s0, s0], axis=1), "in_phase"),
        (np.stack([s0, s0[::-1]], axis=1), "other"),
        (np.stack([s0, np.roll(s0, 1), np.roll(s0, 2)], axis=1), "ripple"),
        ([[0.125, 0.875], [0.25, 0.125], [0.875, 0.25]], "ripple"),
        ([[0.25, 0.25]], "in_phase"),
        ([[0.25, 0.875]], "other"),
        ([[0.5, 0.625]], "ripple"),  # both sites inside C
        ([[0.125], [0.5], [0.875]], "in_phase"),
    ]
    orbits = [np.array(orbit, dtype=np.float64) for orbit, _ in cases]
    assert [_orbit_kind_oracle(o, T84) for o in orbits] == [k for _, k in cases]
    _records_match_oracle(T84, orbits)


def test_record_orbits_are_read_only():
    # Records of one period share one block: none of them can be written,
    # and neither can the batch they were built from.
    t = cm.Threshold(0.95)
    entries = cm.census(t, 3, 500, seed=SEED)
    assert len(entries) > 1
    detected = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.5, 0.5]), 10, 16)
    for rec in [r for r, _ in entries] + [detected]:
        with pytest.raises(ValueError):
            rec.orbit[0, 0] = 0.5
    rec = entries[0][0]
    batch = analysis._orbit_states(t, np.stack([rec.orbit[0]] * 2), rec.period)
    records = analysis._attractor_records(t, batch)
    with pytest.raises(ValueError):
        batch[:] = 0.5
    assert [r.orbit.tobytes() for r in records] == [rec.orbit.tobytes()] * 2


def _canonical_rotation_oracle(orbit):
    # Every rotation compared as a Python list; ties go to the first index.
    p, n = orbit.shape
    if p == 1:
        return orbit
    flat = orbit.ravel().tolist()
    best = min(range(p), key=lambda r: flat[r * n :] + flat[: r * n])
    return np.roll(orbit, -best, axis=0)


def _lag_matches_oracle(orbit, lag, t, tol=0.0):
    # The slot-by-slot loop, stopping at the first mismatch.
    p, n = orbit.shape
    lo, hi = t.c_interval
    for i in range(n - 1):
        for j in range(p):
            a = orbit[j, i]
            b = orbit[(j + lag) % p, i + 1]
            if abs(a - b) <= tol:
                continue
            if lo <= a <= hi and lo <= b <= hi:
                continue
            return False
    return True


@st.composite
def _dyadic_cycles(draw, t):
    # Batches of orbits of distinct states, as every census and detected
    # orbit is: distinct rows of eighths (plus the ends and middle of C),
    # each orbit a shuffle of them, so states often share leading sites.
    lo, hi = t.c_interval
    values = st.sampled_from([k / 8 for k in range(9)] + [lo, hi, 0.5 * (lo + hi)])
    n = draw(st.integers(1, 4))
    row = st.lists(values, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=6, unique_by=tuple))
    return np.array(draw(st.lists(st.permutations(rows), min_size=1, max_size=4)))


@st.composite
def _dyadic_orbits(draw, t):
    # A few distinct-or-not rows of eighths (plus the ends and middle of C),
    # strung into a cycle that often repeats its least state.
    lo, hi = t.c_interval
    values = st.sampled_from([k / 8 for k in range(9)] + [lo, hi, 0.5 * (lo + hi)])
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=3))
    seq = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=9))
    return np.array([rows[k] for k in seq], dtype=np.float64)


@given(st.data())
def test_canonical_rotation_matches_all_rotations_oracle(data):
    # The least state kept over an orbit's states starts its least rotation.
    batch = data.draw(_dyadic_cycles(T84))
    want = np.stack([_canonical_rotation_oracle(orbit.copy())[0] for orbit in batch])
    low = batch[:, 0].copy()
    for k in range(1, batch.shape[1]):
        analysis._keep_least(low, batch[:, k])
    assert low.shape == want.shape
    assert low.tobytes() == want.tobytes()


def _keep_least_oracle(low, x):
    # One np.where per site column, from the last to the first.
    below = x[:, -1] < low[:, -1]
    for i in range(x.shape[1] - 2, -1, -1):
        below = np.where(x[:, i] == low[:, i], below, x[:, i] < low[:, i])
    np.copyto(low, x, where=below[:, None])


@st.composite
def _tied_pairs(draw, values):
    # Two (M, N) batches, N = 1..8, of a few values, so that rows often tie
    # on site 0 and on longer prefixes; column-major, as the census passes.
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 30))
    rows = st.lists(st.lists(values, min_size=n, max_size=n), min_size=m, max_size=m)
    a, b = (np.asfortranarray(draw(rows), dtype=float) for _ in range(2))
    for i in draw(st.sets(st.integers(0, m - 1))):
        k = draw(st.integers(1, n))
        b[i, :k] = a[i, :k]
    return a, b


@settings(max_examples=400)
@given(_tied_pairs(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan])))
def test_keep_least_matches_the_full_where_chain(pair):
    # -0.0 ties +0.0 and NaN is never less nor equal, in both forms.
    low, x = pair
    want = low.copy(order="F")
    _keep_least_oracle(want, x)
    analysis._keep_least(low, x)
    assert low.tobytes() == want.tobytes()


@settings(max_examples=400)
@given(_tied_pairs(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])))
def test_return_test_matches_whole_row_comparison(pair):
    # Rows that tie on site 0 alone, on a prefix, or throughout.
    ref, x = pair
    got = analysis._returned(x, ref)
    assert got.dtype == bool
    assert got.tolist() == (x == ref).all(axis=1).tolist()


def test_search_and_rebuild_never_write_their_input():
    # Both step a private copy in place: a read-only column-major batch
    # passes, and a writable one is left byte-identical.
    t = cm.Threshold(0.95)
    x = np.asfortranarray(analysis._census_initial_states(SEED, 300, 4))
    for writeable in (False, True):
        batch = x.copy(order="F")
        batch.setflags(write=writeable)
        before = batch.tobytes()
        periods, least = analysis._recurrences(t, batch, 100, 64)
        assert batch.tobytes() == before
        assert (periods > 0).any()
        orbits = analysis._orbit_states(t, batch, 12)
        assert batch.tobytes() == before
        assert orbits[:, 0].tobytes() == batch.tobytes()
    i = int(np.flatnonzero(periods > 0)[0])
    s0 = cm.LatticeState(sites=x[i])  # read-only sites, passed as a 1-row view
    rec = cm.detect_periodic_orbit(t, s0, 100, 64)
    assert rec is not None and rec.period == periods[i]
    assert rec.orbit[0].tobytes() == least[i].tobytes()
    assert s0.sites.tobytes() == x[i].tobytes()


@settings(max_examples=300)
@given(st.data(), st.sampled_from([0.84, 0.95]), st.integers(0, 30))
def test_lag_matches_agrees_with_slot_loop(data, c1, lag):
    # Each site is the previous one ``lag`` steps later, except in up to two
    # slots set to an end or the middle of C (or 0 or 1), so matches, misses
    # and exempt slots on the edge of C are all common.
    t = cm.Threshold(c1)
    lo, hi = t.c_interval
    orbit = data.draw(_dyadic_orbits(t))
    p = len(orbit)
    for i in range(1, orbit.shape[1]):
        orbit[:, i] = np.roll(orbit[:, i - 1], lag)
        for j in data.draw(st.sets(st.integers(0, p - 1), max_size=2)):
            orbit[j, i] = data.draw(st.sampled_from([lo, hi, 0.5 * (lo + hi), 0.0, 1.0]))
    # Stacked with its time-reversed, rotated and site-reversed copies, each
    # row keeps its own answer: no row's slots leak into its neighbour's.
    batch = np.stack([orbit, orbit[::-1], np.roll(orbit, 1, axis=0), orbit[:, ::-1]])
    for k in (lag, lag + 1):
        got = analysis._lag_match_rows(orbit[None], k, t)
        assert got.dtype == bool and got.shape == (1,)
        assert got[0] == _lag_matches_oracle(orbit, k, t)
        got = analysis._lag_match_rows(batch, k, t)
        assert got.tolist() == [_lag_matches_oracle(o, k, t) for o in batch]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_census_memory_is_bounded_by_the_recurrence_search():
    # Rebuilding orbits, grouping and records add at most a fixed allowance
    # to the peak of the search itself (the initial and post-transient
    # states and the stepped batch): a grouping that rebuilt every resolved
    # orbit at once would add periods x samples x N doubles, over 10 MB here.
    t = cm.Threshold(0.95)
    samples, n = 3000, 8
    cm.census(t, n, 100, seed=SEED)  # warm imports and caches outside the trace

    def search():
        x = analysis._census_initial_states(SEED, samples, n)
        analysis._recurrences(t, x, 100, 64)

    base = _traced_peak(search)
    peak = _traced_peak(lambda: cm.census(t, n, samples, seed=SEED))
    assert peak <= base + (1 << 20)


def test_census_memory_does_not_grow_with_max_period():
    # No history is kept, so a budget of 512 steps needs no more working
    # memory than one of 64; only the longer orbits it resolves are kept.
    # A (max_period + 1) x samples x N history would add 86 MB here.
    t = cm.Threshold(0.95)
    cm.census(t, 8, 100, seed=SEED)  # warm imports and caches outside the trace
    short = _traced_peak(lambda: cm.census(t, 8, 3000, seed=SEED, max_period=64))
    long = _traced_peak(lambda: cm.census(t, 8, 3000, seed=SEED, max_period=512))
    assert long <= short + (1 << 20)


def test_census_memory_does_not_grow_with_sample_chunks():
    # Each chunk's states are freed before the next chunk is made, so four
    # chunks peak where one does; keeping one chunk's post-transient states
    # alive would add 256 KiB here.
    chunk = analysis._CENSUS_CHUNK
    cm.census(T84, 2, 100, seed=SEED)
    one = _traced_peak(lambda: cm.census(T84, 2, chunk, seed=SEED))
    four = _traced_peak(lambda: cm.census(T84, 2, 4 * chunk, seed=SEED))
    assert four <= one + (1 << 16)


@pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**64 + 5])
def test_census_rejects_seeds_outside_64_bits(seed):
    # The samples come from the seed modulo 2**64, so such a seed would
    # silently alias one inside the range.
    with pytest.raises(ParameterError, match=r"seed must lie in \[0, 2\*\*64\)"):
        cm.census(T84, 2, 10, seed=seed)


def test_census_accepts_the_ends_of_the_seed_range():
    for seed in (0, 2**64 - 1):
        entries = cm.census(T84, 2, 50, seed=seed)
        assert sum(hits for _, hits in entries) == 50


def _splitmix_states_oracle(seed, samples, n):
    # The scalar splitmix64 loop the census seeds were first defined by.
    mask = (1 << 64) - 1
    out = np.empty((samples, n))
    for i in range(samples):
        for j in range(n):
            z = ((seed & mask) + (i * n + j + 1) * 0x9E3779B97F4A7C15) & mask
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            bits = (z ^ (z >> 31)) >> 11
            out[i, j] = (bits + 0.5) * 2.0**-53
    return out


@pytest.mark.parametrize("seed", [SEED, 0, 1, -1, -5, 2**64 - 1, 2**64, 2**70 + 3])
@pytest.mark.parametrize("samples, n", [(0, 2), (1, 1), (300, 1), (300, 8)])
def test_census_initial_states_match_scalar_splitmix(seed, samples, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = analysis._census_initial_states(seed, samples, n)
    want = _splitmix_states_oracle(seed, samples, n)
    assert got.shape == want.shape == (samples, n)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------- bifurcation scan


def test_scan_period_two_window():
    samples = cm.bifurcation_scan(0.76, 0.90, 50)
    assert all(s.period == 2 for s in samples)


def test_scan_parity_alternates_across_xi2():
    xi2 = cm.XI2
    samples = cm.bifurcation_scan(xi2 - 0.004, xi2 + 0.004, 41, max_iter=20_000)
    for s in samples:
        if abs(s.c1 - xi2) < 5e-4 or s.period is None:
            continue
        if s.c1 < xi2:
            assert s.period % 2 == 0, s
        else:
            assert s.period % 2 == 1, s


def test_scan_self_consistent_with_classifier():
    samples = cm.bifurcation_scan(0.9899, 0.9901, 3)
    mid = samples[1]
    assert mid.period == 4  # classify_orbit fixture at 0.99


def test_scan_validates_range():
    with pytest.raises(ParameterError):
        cm.bifurcation_scan(0.7, 0.9, 10)
    with pytest.raises(ParameterError):
        cm.bifurcation_scan(0.9, 0.8, 10)
    with pytest.raises(ParameterError):
        cm.bifurcation_scan(0.8, 0.9, 1)


# ------------------------------------------------- integer counts everywhere

T95 = cm.Threshold(0.95)
_COUNT_CALLS = {
    "max_iter": (lambda v: cm.classify_orbit(T95, max_iter=v), 50),
    "steps": (lambda v: cm.bifurcation_scan(0.8, 0.9, v), 3),
    "max_s": (cm.star_values, 3),
    "n": (lambda v: cm.build_markov(T95, v), 12),
}


@pytest.mark.parametrize("name", list(_COUNT_CALLS))
def test_scalar_map_counts_are_integers(name):
    call, valid = _COUNT_CALLS[name]
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        call(2.5)
    assert repr(call(np.int64(valid))) == repr(call(valid))
