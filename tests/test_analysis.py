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


@pytest.mark.parametrize("c1,expected", [(0.84, True), (0.80, False), (0.9, True)])
def test_antiphase_condition_examples(c1, expected):
    assert cm.antiphase_condition(cm.make_threshold(c1)) is expected


def test_antiphase_condition_flips_once_across_the_window():
    root = cm.antiphase_root()
    grid = np.linspace(0.7501, cm.PERIOD2_WINDOW_END - 1e-9, 1000)
    for c1 in map(float, grid):
        # a Python bool, so that ``is`` also checks the ``-> bool`` promise
        expected = c1 > root
        assert cm.antiphase_condition(cm.make_threshold(c1)) is expected


def test_antiphase_root_value():
    root = cm.antiphase_root()
    assert abs(root - ANTIPHASE_ROOT) <= 1e-10


def test_antiphase_root_against_direct_condition_oracle():
    # Independent route: solve the condition written with the derived
    # constants themselves (no polynomial form), via Brent's method.
    def gap(c):
        t = cm.make_threshold(c)
        return (t.c2 + (4.0 * t.c2 * (1.0 - t.c2) - t.c1)) - (1.0 - t.c0)

    oracle = brentq(gap, 0.76, 0.9, xtol=1e-14)
    assert cm.antiphase_root() == pytest.approx(oracle, abs=1e-12)


def test_antiphase_straddle():
    root = cm.antiphase_root()
    assert cm.antiphase_condition(cm.make_threshold(root - 1e-6)) is False
    assert cm.antiphase_condition(cm.make_threshold(root + 1e-6)) is True


# ------------------------------------------------------------------ star values


def closed_form_star(s: int) -> float:
    """Independent oracle: pull 1/4 back through the left inverse branch
    s-2 times, then take the right preimage near 1."""
    y = 0.25
    for _ in range(s - 2):
        y = 0.5 - 0.5 * math.sqrt(1.0 - y)
    return 0.5 + 0.5 * math.sqrt(1.0 - y)


def test_find_star_two_matches_closed_form():
    xi2 = cm.find_star(2)
    assert xi2.s == 2
    assert abs(xi2.value - (2.0 + math.sqrt(3.0)) / 4.0) <= 1e-12
    v = xi2.value
    f2 = 4.0 * (4.0 * v * (1.0 - v)) * (1.0 - 4.0 * v * (1.0 - v))
    assert abs(f2 - 0.75) <= 1e-12


@pytest.mark.parametrize("s", range(2, 10))
def test_star_values_match_backward_construction(s):
    assert cm.find_star(s).value == pytest.approx(closed_form_star(s), abs=1e-12)


def test_star_spacing_ratios_approach_one_quarter():
    stars = {st.s: st.value for st in cm.star_values(8)}
    devs = []
    for s in range(3, 8):
        ratio = (stars[s + 1] - stars[s]) / (stars[s] - stars[s - 1])
        devs.append(abs(ratio - 0.25))
    assert devs == sorted(devs, reverse=True)  # deviation shrinks monotonically
    assert devs[-1] < 0.02


def test_find_star_with_explicit_bracket_and_errors():
    v = cm.find_star(2, bracket=(0.92, 0.94)).value
    assert v == pytest.approx((2.0 + math.sqrt(3.0)) / 4.0, abs=1e-12)
    with pytest.raises(BracketError):
        cm.find_star(2, bracket=(0.95, 0.96))  # no sign change here
    with pytest.raises(ParameterError):
        cm.find_star(1)
    with pytest.raises(ParameterError):
        cm.star_values(1)


# ------------------------------------------------------------------ Markov model


@pytest.mark.parametrize("c1,n0", [(0.94, 3), (0.95, 3), (0.97, 1), (0.99, 1)])
def test_markov_depth_and_pattern(c1, n0):
    n = 12
    m = cm.build_markov(cm.make_threshold(c1), n)
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
    t = cm.make_threshold(c1)
    rhos = [cm.build_markov(t, n).spectral_radius for n in (12, 13, 14)]
    assert rhos[0] <= rhos[1] + 1e-12 and rhos[1] <= rhos[2] + 1e-12
    assert all(r > 1.0 for r in rhos)


def test_markov_spectral_radius_fixture():
    m = cm.build_markov(cm.make_threshold(0.95), 12)
    # Largest root of the characteristic polynomial, from 40-digit mpmath.
    assert m.spectral_radius == pytest.approx(1.3713018658733899, abs=1e-13)


def test_markov_preimages_contract_onto_three_quarters():
    m = cm.build_markov(cm.make_threshold(0.95), 14)
    widths = [hi - lo for lo, hi in m.branch_preimages]
    mids = [(hi + lo) / 2 for lo, hi in m.branch_preimages]
    assert abs(mids[-1] - 0.75) < 1e-4
    for k in range(9, 13):
        assert widths[k + 1] / widths[k] == pytest.approx(0.5, abs=1e-3)
    # the right inverse branch fixes 3/4
    assert 0.5 + 0.5 * math.sqrt(1.0 - 0.75) == 0.75


def test_markov_gap_is_open_interval_below_c0():
    m = cm.build_markov(cm.make_threshold(0.95), 8)
    lo, hi = m.j0
    t = cm.make_threshold(0.95)
    assert lo == t.c2 and hi == t.c0 and lo < hi


def test_markov_rejects_low_threshold_and_small_depth():
    with pytest.raises(ParameterError):
        cm.build_markov(cm.make_threshold(0.9), 12)  # below the star value
    with pytest.raises(ParameterError):
        cm.build_markov(cm.make_threshold(0.94), 3)  # needs n >= n0 + 1


# ------------------------------------------------------------ orbit detection


T84 = cm.make_threshold(0.84)


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
        assert np.max(np.abs(s.sites - rec.orbit[0])) <= 1e-9


def test_detect_canonical_phase_is_rotation_invariant():
    a = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.5, 0.5]), 10, 16)
    b = cm.detect_periodic_orbit(T84, cm.LatticeState(sites=[0.5, 0.5]), 11, 16)
    assert np.array_equal(a.orbit, b.orbit)


def test_detect_ripple_at_high_threshold():
    t = cm.make_threshold(0.95)
    cyc, _ = cm.forward_orbit(t, 10)
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
                assert abs(a - b) <= 1e-9


def test_ripple_basin_has_interior():
    t = cm.make_threshold(0.95)
    cyc, _ = cm.forward_orbit(t, 10)
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
    entries = cm.census(cm.make_threshold(0.80), 2, 10_000, seed=SEED)
    assert len(entries) == 1
    rec, hits = entries[0]
    assert rec.kind == "in_phase" and rec.period == 2 and hits == 10_000


def test_census_three_sites_where_carry_condition_holds():
    # With c2 + 2 e(c2) <= 1 - c0 (true at 0.9, false at 0.84) every
    # in-phase/lagged combination of adjacent sites survives: 2^(N-1).
    t = cm.make_threshold(0.9)
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
    t = cm.make_threshold(0.95)
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
        assert np.max(np.abs(s.sites - rec.orbit[0])) <= 1e-9


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


def test_census_orbits_return_exactly_at_many_attractors():
    # Grouping by exact orbit bytes needs every detected return to be
    # bit-exact, not merely within the recurrence tolerance.
    t = cm.make_threshold(0.95)
    for rec, _ in cm.census(t, 8, 2_000, seed=SEED):
        s = cm.LatticeState(sites=rec.orbit[0])
        for _ in range(rec.period):
            s = cm.step(s, t)
        assert np.array_equal(s.sites, rec.orbit[0])


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_census_rejects_negative_or_nan_tol(tol):
    with pytest.raises(ParameterError, match="tol"):
        cm.census(T84, 2, 10, seed=1, tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_detect_rejects_non_positive_or_nan_tol(tol):
    with pytest.raises(ParameterError, match="tol"):
        cm.detect_periodic_orbit(
            T84, cm.LatticeState(sites=[0.3, 0.6]), 10, 16, tol=tol
        )


def test_census_accepts_zero_tol():
    # Super-stable orbits repeat bit-exactly, so an exact return test finds
    # the same attractors as the default tolerance.
    exact = cm.census(T84, 2, 500, seed=SEED, tol=0.0)
    default = cm.census(T84, 2, 500, seed=SEED)
    assert _record_bytes(exact) == _record_bytes(default)
    assert sum(h for _, h in exact) == 500


def _recurrences_oracle(t, x, transient, max_period, tol):
    # The row-major recurrence search the census was first written with:
    # (M, N) batches in C order and a (max_period + 1, M, N) history.
    if max_period < 1:
        raise ParameterError("max_period must be >= 1")
    for _ in range(transient):
        x, _ = cm.step_batch(x, t)
    history = np.empty((max_period + 1,) + x.shape)
    history[0] = x
    periods = np.zeros(x.shape[0], dtype=int)
    for p in range(1, max_period + 1):
        x, _ = cm.step_batch(x, t)
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


def _detect_oracle(t, s0, transient, max_period, tol=analysis.RECURRENCE_TOL):
    # Single-orbit detection as first written: the orbit is read straight
    # out of the row-major history.
    periods, history = _recurrences_oracle(t, s0.sites[None, :], transient, max_period, tol)
    if periods[0] == 0:
        return None
    return analysis._attractor_record(history[: periods[0], 0], t, tol)


def _census_oracle(t, n_sites, samples, seed, tol):
    # The per-sample grouping loop the census was first written with, over
    # the row-major history: one lexsort and one tobytes key per resolved
    # sample, first sample kept.
    x = analysis._census_initial_states(seed, samples, n_sites)
    periods, history = _recurrences_oracle(t, x, 100, 64, tol)
    groups = {}
    for i in np.flatnonzero(periods):
        orbit = history[: periods[i], i]
        key = orbit[np.lexsort(orbit.T[::-1])].tobytes()
        groups.setdefault(key, [orbit, 0])[1] += 1
    entries = [
        (analysis._attractor_record(orbit, t, tol), hits) for orbit, hits in groups.values()
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


@pytest.mark.parametrize("c1", [0.84, 0.9, 0.95, 0.98])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_census_matches_row_major_recurrence_oracle(c1, n):
    # Periods and post-transient states equal the oracle's, and every
    # resolved orbit rebuilt from its post-transient state equals the
    # oracle's stored history, byte for byte.
    t = cm.make_threshold(c1)
    x = analysis._census_initial_states(SEED, 400, n)
    tol = analysis.RECURRENCE_TOL
    periods, x0 = analysis._recurrences(t, x, 100, 64, tol)
    want_periods, want_history = _recurrences_oracle(t, x, 100, 64, tol)
    assert periods.tolist() == want_periods.tolist()
    assert x0.shape == want_history[0].shape
    assert x0.tobytes() == want_history[0].tobytes()
    for i in np.flatnonzero(periods).tolist():
        p = int(periods[i])
        orbit = analysis._orbit_states(t, x0[i : i + 1], p)[:, 0]
        assert orbit.shape == (p, n)
        assert orbit.tobytes() == want_history[:p, i].tobytes()

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
    got = _record_bytes(cm.census(t, n, 400, seed=SEED))
    assert got and got == _record_bytes(_census_oracle(t, n, 400, SEED, tol))


@pytest.mark.parametrize("c1", [0.84, 0.9, 0.95, 0.98])
@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_census_grouping_matches_per_sample_oracle(c1, n, tol):
    t = cm.make_threshold(c1)
    want = _record_bytes(_census_oracle(t, n, 300, SEED, tol))
    assert want
    # One sample per block, the default cap, and every sample of a period
    # in one block; four sample chunks (the last one short) and one.
    for block in (1, analysis._GROUP_BLOCK_STATES, 10**9):
        for chunk in (97, analysis._CENSUS_CHUNK):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(analysis, "_GROUP_BLOCK_STATES", block)
                m.setattr(analysis, "_CENSUS_CHUNK", chunk)
                assert _record_bytes(cm.census(t, n, 300, seed=SEED, tol=tol)) == want


@pytest.mark.parametrize("c1", [0.9, 0.95])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_group_records_do_not_depend_on_sample_order(c1, tol):
    # Any sample of a group gives its record, so a chunk's samples grouped
    # in reverse order give the same records and hits, at any block size.
    t = cm.make_threshold(c1)
    x = analysis._census_initial_states(SEED, 300, 3)
    periods, x0 = analysis._recurrences(t, x, 100, 64, tol)

    def records(periods, x0):
        groups = {}
        analysis._group_orbits(t, periods, x0, groups)
        return sorted(
            _record_bytes(
                [(analysis._attractor_record(orbit, t, tol), h) for h, orbit in groups.values()]
            )
        )

    want = records(periods, x0)
    assert sum(r[-1] for r in want) == np.count_nonzero(periods) > len(want) > 1
    for block in (1, analysis._GROUP_BLOCK_STATES):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(analysis, "_GROUP_BLOCK_STATES", block)
            assert records(periods[::-1], x0[::-1]) == want


@pytest.mark.parametrize("block", [1, analysis._GROUP_BLOCK_STATES])
def test_group_orbits_keeps_overlapping_windows_apart(block):
    # Windows of p states along one unsettled orbit share all but one state,
    # and often their least state, yet each is a group of its own.
    t = cm.make_threshold(0.95)
    x = analysis._orbit_states(t, analysis._census_initial_states(SEED, 1, 3), 12)[:, 0]
    p = 4
    want = {}
    for i in range(8):
        orbit = x[i : i + p]
        key = orbit[np.lexsort(orbit.T[::-1])].tobytes()
        want[key] = want.get(key, 0) + 1
    assert len(want) == 8
    groups = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "_GROUP_BLOCK_STATES", block)
        analysis._group_orbits(t, np.full(8, p), np.asfortranarray(x[:8]), groups)
    assert {k: h for k, (h, _) in groups.items()} == want


def _canonical_rotation_oracle(orbit):
    # Every rotation compared as a Python list; ties go to the first index.
    p, n = orbit.shape
    if p == 1:
        return orbit
    flat = orbit.ravel().tolist()
    best = min(range(p), key=lambda r: flat[r * n :] + flat[: r * n])
    return np.roll(orbit, -best, axis=0)


def _lag_matches_oracle(orbit, lag, t, tol):
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
    orbit = data.draw(_dyadic_orbits(T84))
    got = analysis._canonical_rotation(orbit.copy())
    want = _canonical_rotation_oracle(orbit.copy())
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300)
@given(
    st.data(),
    st.sampled_from([0.84, 0.95]),
    st.integers(0, 30),
    st.sampled_from([0.0, 1e-9, 0.125]),
)
def test_lag_matches_agrees_with_slot_loop(data, c1, lag, tol):
    # Each site is the previous one ``lag`` steps later, except in up to two
    # slots set to an end or the middle of C (or 0 or 1), so matches, misses
    # and exempt slots on the edge of C are all common.
    t = cm.make_threshold(c1)
    lo, hi = t.c_interval
    orbit = data.draw(_dyadic_orbits(t))
    p = len(orbit)
    for i in range(1, orbit.shape[1]):
        orbit[:, i] = np.roll(orbit[:, i - 1], lag)
        for j in data.draw(st.sets(st.integers(0, p - 1), max_size=2)):
            orbit[j, i] = data.draw(st.sampled_from([lo, hi, 0.5 * (lo + hi), 0.0, 1.0]))
    for k in (lag, lag + 1):
        got = analysis._lag_matches(orbit, k, t, tol)
        assert type(got) is bool
        assert got == _lag_matches_oracle(orbit, k, t, tol)


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
    t = cm.make_threshold(0.95)
    samples, n = 3000, 8
    tol = analysis.RECURRENCE_TOL
    cm.census(t, n, 100, seed=SEED)  # warm imports and caches outside the trace

    def search():
        x = analysis._census_initial_states(SEED, samples, n)
        analysis._recurrences(t, x, 100, 64, tol)

    base = _traced_peak(search)
    peak = _traced_peak(lambda: cm.census(t, n, samples, seed=SEED))
    assert peak <= base + (1 << 20)


def test_census_memory_does_not_grow_with_max_period():
    # No history is kept, so a budget of 512 steps needs no more working
    # memory than one of 64; only the longer orbits it resolves are kept.
    # A (max_period + 1) x samples x N history would add 86 MB here.
    t = cm.make_threshold(0.95)
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


# ---------------------------------------------- central component criterion


@pytest.mark.parametrize(
    "c1,n,expected",
    [
        (0.7501, 6, True),
        (0.9, 2, False),
        (0.8, 2, False),
        (0.9, 11, False),
        (0.9, 12, True),
    ],
)
def test_central_component_reaches_boundary(c1, n, expected):
    assert cm.central_component_reaches_boundary(cm.make_threshold(c1), n) is expected


def test_central_component_needs_two_sites():
    with pytest.raises(ParameterError):
        cm.central_component_reaches_boundary(cm.make_threshold(0.9), 1)
