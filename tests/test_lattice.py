import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cascade_maps as cm
from cascade_maps import analysis, basins, lattice
from cascade_maps.errors import DomainError
from cascade_maps.lattice import _distinct_rows, cascade_batch, step_batch

T84 = cm.Threshold(0.84)
T90 = cm.Threshold(0.9)

IN_PHASE_SUM = 1.8521395199999993     # 12-step window on the in-phase orbit
ANTI_PHASE_SUM = 0.07577117593436133  # 12-step window on the anti-phase orbit


# -------------------------------------------------------------- LatticeState


def test_state_validation():
    s = cm.LatticeState(sites=[0.1, 0.2, 0.3])
    assert s.n_sites == 3 and s.last_excess == 0.0
    assert not s.sites.flags.writeable
    with pytest.raises(DomainError):
        cm.LatticeState(sites=[0.1, 1.2])
    with pytest.raises(DomainError):
        cm.LatticeState(sites=[])
    with pytest.raises(DomainError):
        cm.LatticeState(sites=[0.5], last_excess=-1.0)


@pytest.mark.parametrize("sites", [[np.nan, 0.5], [0.5, np.nan], [np.nan]])
def test_state_rejects_nan_sites(sites):
    with pytest.raises(DomainError, match="site values"):
        cm.LatticeState(sites=sites)


def _sites_in_range_oracle(sites):
    # The range predicate the state was first checked with: two numpy
    # reductions, which propagate NaN.
    arr = np.array(sites, dtype=float)
    return bool(arr.min() >= 0.0 and arr.max() <= 1.0)


def _state_accepts(sites):
    try:
        cm.LatticeState(sites=sites)
    except DomainError:
        return False
    return True


_EDGE_SITES = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 0.5, 5e-324,
    np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0),
]


@pytest.mark.parametrize(
    "sites",
    [
        [np.nan, 0.5, 0.5, 0.5, 0.5],
        [0.5, 0.5, np.nan, 0.5, 0.5],
        [0.5, 0.5, 0.5, 0.5, np.nan],
        [np.inf, 0.5], [0.5, -np.inf], [np.inf], [-np.inf],
        [-0.0], [-0.0, 1.0], [np.nextafter(1.0, 2.0)], [0.5, np.nextafter(1.0, 2.0)],
        [np.nextafter(0.0, -1.0)], [np.nextafter(0.0, -1.0), 0.5],
        [0.0], [1.0], [np.nan],
    ],
)
def test_state_range_check_matches_min_max_oracle_at_edges(sites):
    assert _state_accepts(sites) == _sites_in_range_oracle(sites)


@given(st.lists(st.one_of(st.sampled_from(_EDGE_SITES), st.floats()), min_size=1, max_size=9))
def test_state_range_check_matches_min_max_oracle(sites):
    assert _state_accepts(sites) == _sites_in_range_oracle(sites)


def test_state_rejects_nan_last_excess():
    with pytest.raises(DomainError, match="last_excess"):
        cm.LatticeState(sites=[0.5, 0.5], last_excess=np.nan)
    # The closed bounds stay legal.
    s = cm.LatticeState(sites=[0.0, 1.0], last_excess=0.0)
    assert s.sites.tolist() == [0.0, 1.0]


# ------------------------------------------------------------------- cascade


def _cascade_oracle(y, t):
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


def test_cascade_single_clip_absorbed():
    x, e = _cascade_oracle([0.95, 0.80], T90)
    assert x[0] == T90.c1
    assert x[1] == pytest.approx(0.85, abs=1e-15)
    assert e == 0.0


def test_cascade_carry_pushes_next_site_over():
    x, e = _cascade_oracle([0.95, 0.88], T90)
    assert x.tolist() == [0.9, 0.9]
    assert e == pytest.approx(0.03, abs=1e-15)


def test_cascade_identity_below_threshold():
    y = [0.5, 0.6, 0.7]
    x, e = _cascade_oracle(y, T90)
    assert x.tolist() == y
    assert e == 0.0


def test_cascade_tie_keeps_value_with_zero_carry():
    x, e = _cascade_oracle([T90.c1, 0.5], T90)
    assert x[0] == T90.c1 and x[1] == 0.5 and e == 0.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.7501, max_value=0.9999),
)
def test_cascade_conserves_total(y, c1):
    t = cm.Threshold(c1)
    x, e = _cascade_oracle(y, t)
    n = len(y)
    assert abs(float(np.sum(x)) + e - float(np.sum(np.asarray(y)))) <= 1e-12 * n
    assert np.max(x) <= t.c1 or np.max(x) == np.max(np.asarray(y))
    assert e >= 0.0


# ---------------------------------------------------------------------- step


def test_step_in_phase_two_cycle():
    s = cm.LatticeState(sites=[0.84, 0.84])
    s1 = cm.step(s, T84)
    assert s1.sites == pytest.approx([0.5376, 0.5376], abs=1e-15)
    assert s1.last_excess == 0.0
    s2 = cm.step(s1, T84)
    assert s2.sites.tolist() == [0.84, 0.84]
    assert s2.last_excess == pytest.approx(2 * (4 * 0.5376 * (1 - 0.5376) - 0.84), abs=1e-12)


def test_step_zero_corner_is_fixed():
    s = cm.step(cm.LatticeState(sites=[0.0, 0.0, 0.0]), T84)
    assert s.sites.tolist() == [0.0, 0.0, 0.0]
    assert s.last_excess == 0.0


def test_step_from_critical_point_emits_full_overflow():
    s = cm.step(cm.LatticeState(sites=[0.5, 0.5, 0.5]), T84)
    assert s.sites.tolist() == [0.84, 0.84, 0.84]
    assert s.last_excess == pytest.approx(3 * (1 - 0.84), abs=1e-12)


def test_step_clips_at_threshold():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = cm.LatticeState(sites=rng.random(4))
        s = cm.step(s, T84)
        assert np.max(s.sites) <= T84.c1


def test_single_site_step_matches_threshold_map_bitwise():
    t = cm.Threshold(0.87)
    rng = np.random.default_rng(11)
    for x in rng.random(10_000):
        s = cm.step(cm.LatticeState(sites=[x]), t)
        y, e = cm.threshold_map(float(x), t)
        assert s.sites[0] == y
        assert s.last_excess == e


#: c1 = 4x(1 - x) at x = 19/64.  Sites on the grid k/64 have exact images
#: k(64 - k)/1024 and exact carries, so ties yh == c1 are common.
T_GRID = cm.Threshold(855 / 1024)


@given(
    st.lists(
        st.one_of(st.integers(0, 64).map(lambda k: k / 64), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=8,
    )
)
@example([19 / 64, 25 / 64, 15 / 64, 0.5])  # ties without and with a carry
def test_step_is_bitwise_cascade_oracle_of_logistic_images(sites):
    x = np.array(sites)
    s = cm.step(cm.LatticeState(sites=x), T_GRID)
    want, e = _cascade_oracle(4.0 * x * (1.0 - x), T_GRID)
    assert s.sites.tobytes() == want.tobytes()
    assert np.float64(s.last_excess).tobytes() == np.float64(e).tobytes()


def test_step_tie_example_meets_threshold_exactly():
    # The example above: site 0's image is c1 with no carry, and site 2's
    # image plus site 1's carry is c1 exactly.
    x = np.array([19, 25, 15]) / 64
    y = 4.0 * x * (1.0 - x)
    assert y[0] == T_GRID.c1 and y[1] > T_GRID.c1
    assert y[2] + (y[1] - T_GRID.c1) == T_GRID.c1


def test_step_batch_matches_scalar_step_bitwise():
    rng = np.random.default_rng(21)
    x = rng.random((200, 3))
    bx = x.copy()
    be = step_batch(bx, T84)
    for i in range(200):
        s = cm.step(cm.LatticeState(sites=x[i]), T84)
        assert s.sites.tobytes() == bx[i].tobytes()
        assert np.float64(s.last_excess).tobytes() == be[i].tobytes()


def test_batch_result_independent_of_block_split():
    rng = np.random.default_rng(22)
    x = rng.random((101, 2))
    full = x.copy()
    fe = step_batch(full, T90)
    split = x.copy()
    te = step_batch(split[:37], T90)
    be = step_batch(split[37:], T90)
    assert split.tobytes() == full.tobytes()
    assert np.concatenate([te, be]).tobytes() == fe.tobytes()


def test_decoupled_sites_follow_independent_scalar_orbits():
    # Starts whose scalar orbits avoid C for 13 steps: no site ever clips,
    # so the lattice advances each site exactly like the scalar map.
    t = cm.Threshold(0.95)
    lo, hi = t.c_interval
    rng = np.random.default_rng(12)
    found = []
    while len(found) < 3:
        x0 = float(rng.random())
        x, ok = x0, True
        for _ in range(13):
            if lo <= x <= hi:
                ok = False
                break
            x, _ = cm.threshold_map(x, t)
        if ok:
            found.append(x0)
    lat = cm.LatticeState(sites=found)
    scal = list(found)
    for _ in range(12):
        lat = cm.step(lat, t)
        scal = [cm.threshold_map(v, t)[0] for v in scal]
        assert lat.sites.tolist() == scal
        assert lat.last_excess == 0.0


def test_lattice_absorbed_into_product_interval():
    lo_a, hi_a = T90.absorbing
    rng = np.random.default_rng(13)
    x = rng.uniform(1e-6, 1 - 1e-6, (2_000, 3))
    entered = np.zeros(len(x), dtype=bool)
    for _ in range(200):
        step_batch(x, T90)
        in_a = np.all((x >= lo_a) & (x <= hi_a), axis=1)
        assert not np.any(entered & ~in_a)
        entered |= in_a
    assert entered.all()


# ------------------------------------------------------ window fingerprint


def _window_sum(sites, t, transient):
    """The record fingerprint of the state ``transient`` steps from ``sites``."""
    s = cm.LatticeState(sites=sites)
    for _ in range(transient):
        s = cm.step(s, t)
    return analysis._window_fingerprint(s.sites, t)


def test_window_sum_zero_on_fixed_corner():
    assert _window_sum([0.0, 0.0], T84, 5) == 0.0


def test_window_sum_in_phase_basin():
    total = _window_sum([0.5, 0.5], T84, 100)
    assert total == IN_PHASE_SUM
    assert total == pytest.approx(12 * (4 * 0.5376 * (1 - 0.5376) - 0.84), abs=1e-12)


def test_window_sum_anti_phase_basin_distinct():
    total = _window_sum([T84.c2, T84.c1], T84, 100)
    assert total == ANTI_PHASE_SUM
    assert abs(total - IN_PHASE_SUM) > 1e-3


def test_window_sum_phase_invariant_for_even_window():
    # Window of 12 covers six full periods: the sum cannot depend on the
    # phase at which the window opens.
    a = _window_sum([0.5, 0.5], T84, 100)
    b = _window_sum([0.5, 0.5], T84, 101)
    assert a == b


# ------------------------------------------------- vectorised cascade kernel


def _logistic(x):
    return 4.0 * x * (1.0 - x)


def _next_rows(kernel, y, t):
    """What one call of ``kernel`` leaves in each row of ``y`` and the row's
    excess, from the scalar sweep: ``cascade_batch`` leaves the logistic
    images of ``_cascade_oracle``'s sites, ``step_batch`` the states of
    :func:`cm.step`."""
    rows, excesses = [], []
    for row in y:
        if kernel == "cascade_batch":
            x, e = _cascade_oracle(row, t)
            rows.append(_logistic(x))
        else:
            s = cm.step(cm.LatticeState(sites=row), t)
            rows.append(s.sites)
            e = s.last_excess
        excesses.append(e)
    return np.array(rows), np.array(excesses)


def test_cascade_batch_matches_scalar_cascade():
    rng = np.random.default_rng(31)
    y = rng.random((300, 4))
    b = y.copy()
    be = cascade_batch(b, T84.c1)
    want, want_e = _next_rows("cascade_batch", y, T84)
    assert b.tobytes() == want.tobytes()
    assert be.tobytes() == want_e.tobytes()


@given(
    st.lists(
        st.lists(st.integers(0, 64), min_size=3, max_size=3), min_size=1, max_size=40
    )
)
def test_cascade_batch_is_bitwise_scalar_cascade_at_exact_ties(grid):
    # On a dyadic grid every carry and sum is exact, so many sites land on
    # yh == c1 exactly, where the batch kernel's max/min form must still give
    # the scalar branch's clip and its +0.0 carry.
    t = cm.Threshold(0.875)
    y = np.array(grid, dtype=float) / 64.0
    y[0] = [1.0, 0.75, t.c1]  # ties with and without an incoming carry
    b = y.copy()
    be = cascade_batch(b, t.c1)
    want, want_e = _next_rows("cascade_batch", y, t)
    assert b.tobytes() == want.tobytes()
    assert be.tobytes() == want_e.tobytes()


@given(
    st.lists(
        st.lists(st.integers(0, 64), min_size=3, max_size=3), min_size=1, max_size=40
    ),
    st.integers(1, 2),
)
def test_cascade_batch_continues_a_sweep_from_its_carry(grid, split):
    # Sweeping a row's first sites, then the rest from their excesses, is
    # the one sweep bit for bit, ties and +0.0 carries included.
    t = cm.Threshold(0.875)
    y = np.array(grid, dtype=float) / 64.0
    y[0] = [1.0, 0.75, t.c1]
    want, want_e = _next_rows("cascade_batch", y, t)
    b = y.copy()
    head_e = cascade_batch(b[:, :split], t.c1)
    tail_e = cascade_batch(b[:, split:], t.c1, head_e)
    assert tail_e is head_e
    assert b.tobytes() == want.tobytes()
    assert tail_e.tobytes() == want_e.tobytes()


# ------------------------------------------------------ batch memory layout


def _layouts(y):
    """The same values as C-ordered, column-major and strided batches."""
    doubled = np.asfortranarray(np.repeat(y, 2, axis=0))
    return {
        "C": np.ascontiguousarray(y),
        "F": np.asfortranarray(y),
        "strided": doubled[::2],
    }


@given(
    st.lists(
        st.lists(st.integers(0, 64), min_size=3, max_size=3), min_size=1, max_size=40
    ),
    st.sampled_from(["cascade_batch", "step_batch"]),
)
def test_batch_kernels_do_not_depend_on_memory_order(grid, kernel):
    # Dyadic values make ties yh == c1 common (see the test above), so the
    # sign of every zero carry is compared too.  Each layout is a fresh
    # batch (``_layouts`` may return its input itself), stepped in place.
    t = cm.Threshold(0.875)
    y = np.array(grid, dtype=float) / 64.0
    y[0] = [1.0, 0.75, t.c1]
    run = {
        "cascade_batch": lambda a: cascade_batch(a, t.c1),
        "step_batch": lambda a: step_batch(a, t),
    }[kernel]
    want, want_e = _next_rows(kernel, y, t)
    for name in ("C", "F", "strided"):
        a = _layouts(y.copy())[name]
        e = run(a)
        assert a.tobytes() == want.tobytes(), name
        assert e.tobytes() == want_e.tobytes(), name


def test_step_batch_rejects_an_int_batch_and_leaves_it():
    t = cm.Threshold(0.875)
    ints = np.array([[0, 1, 1], [1, 0, 0]])
    with pytest.raises(TypeError):
        step_batch(ints, t)
    assert ints.tolist() == [[0, 1, 1], [1, 0, 0]]


@pytest.mark.parametrize("kernel", ["cascade_batch", "step_batch"])
def test_a_kernel_call_works_in_memory_linear_in_the_rows(kernel):
    # Both kernels step the batch in place on length-M temporaries: a copy
    # of the (M, N) batch would take 8 M N bytes, twice the bound at N = 8.
    m = 16384
    y = np.asfortranarray(np.random.default_rng(5).random((m, 8)))
    run = {
        "cascade_batch": lambda a: cascade_batch(a, 0.875),
        "step_batch": lambda a: step_batch(a, cm.Threshold(0.875)),
    }[kernel]
    tracemalloc.start()
    try:
        run(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * m


_STATE = st.floats(-1e150, 1e150) | st.integers(0, 64).map(lambda k: k / 64)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_STATE, min_size=n, max_size=n), min_size=1, max_size=20)
    )
)
def test_step_batch_is_the_logistic_image_swept_by_cascade_batch(rows):
    # The fused carry s - min(s, c1) equals max(s - c1, 0) bit for bit at
    # every finite s, so any state whose images stay finite (here |x| <=
    # 1e150, images above -5e300) steps as the scalar sweep of its images;
    # and cascade_batch, given those images, leaves the images of its
    # states (which may overflow, in both alike).
    t = cm.Threshold(0.875)
    x = np.array(rows, dtype=float)
    images = _logistic(x)
    swept = [_cascade_oracle(row, t) for row in images]
    want_x = np.array([row for row, _ in swept])
    want_e = np.array([e for _, e in swept])
    got_x = x.copy()
    got_e = step_batch(got_x, t)
    assert got_x.tobytes() == want_x.tobytes()
    assert got_e.tobytes() == want_e.tobytes()
    with np.errstate(over="ignore"):
        assert cascade_batch(images, t.c1).tobytes() == want_e.tobytes()
        assert images.tobytes() == _logistic(got_x).tobytes()


def _spy(monkeypatch, module, name, batches):
    # Swap the module attribute its callers look up at call time, as the
    # benchmark tracer does, and record the layout of every batch passed.
    inner = getattr(module, name)

    def wrapper(x, *args):
        batches.append((x.ndim, x.flags.f_contiguous))
        return inner(x, *args)

    monkeypatch.setattr(module, name, wrapper)


def test_render_and_census_pass_column_major_batches(monkeypatch):
    batches = []
    _spy(monkeypatch, basins, "cascade_batch", batches)
    _spy(monkeypatch, analysis, "step_batch", batches)
    spec = cm.GridSpec(resolution=8, transient=5, window=4)
    cm.render_basins(T90, spec)
    # Each head step sweeps site 0 per x-row, then the other sites per cell.
    sweeps = spec.transient + spec.window + min(basins._FIRST_COMPACTION, spec.transient)
    assert len(batches) == sweeps
    cm.census(T90, 3, 50, seed=7, transient=5, max_period=8)
    assert len(batches) > sweeps + 5
    assert set(batches) == {(2, True)}


# ------------------------------------------------------------ distinct rows


def _check_groups(x, first, inv):
    # x[first][inv] is x bit for bit, and every group's first row is in it.
    assert x[first][inv].tobytes() == x.tobytes()
    assert np.array_equal(inv[first], np.arange(first.size))


def _mix(z: int) -> int:
    """One column's step of the row hash, on Python ints modulo 2**64."""
    z = z * int(lattice._ROW_HASH) % 2**64
    return z ^ (z >> 29)


def test_distinct_rows_keeps_rows_with_equal_hash_keys_apart():
    # The hash of a two-site row is _mix(_mix(b0) ^ b1), so any b0 with
    # b1 = _mix(b0) ^ _mix(a0) ^ a1 gives a different row with equal hash.
    a = [int(v) for v in np.array([0.25, 0.5]).view(np.uint64)]
    b0 = a[0] + 1
    b = [b0, _mix(b0) ^ _mix(a[0]) ^ a[1]]
    assert b != a
    assert _mix(_mix(a[0]) ^ a[1]) == _mix(_mix(b[0]) ^ b[1])
    x = np.asfortranarray(np.array([a, b, a, b], dtype=np.uint64).view(float))
    first, inv = _distinct_rows(x)
    _check_groups(x, first, inv)
    assert {inv[0], inv[2]}.isdisjoint({inv[1], inv[3]})


def test_distinct_rows_keeps_signed_zeros_apart():
    x = np.asfortranarray(
        [[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5], [0.5, -0.0], [0.5, 0.0]]
    )
    first, inv = _distinct_rows(x)
    _check_groups(x, first, inv)
    assert first.size == 4
    assert inv[0] == inv[2]


@pytest.mark.parametrize(
    "x",
    [np.full((1, 3), 0.3), np.full((1, 1), -0.0), np.full((50, 2), 0.9, order="F")],
)
def test_distinct_rows_of_one_state(x):
    first, inv = _distinct_rows(x)
    _check_groups(x, first, inv)
    assert first.size == 1
    assert not inv.any()


#: Site values of lattice states (no -0.0).  All 8 + 64 + 512 rows of
#: width 1 to 3 over this pool differ in the top 58 bits of their hash, so
#: their words sort apart at any batch size up to 2**6 rows.
_ROW_POOL = [0.0, 5e-324, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0]


@given(
    st.integers(1, 3),
    st.lists(
        st.lists(st.integers(0, len(_ROW_POOL) - 1), min_size=3, max_size=3),
        min_size=1,
        max_size=60,
    ),
    st.booleans(),
)
def test_distinct_rows_groups_exactly_the_equal_rows(width, picks, fortran):
    # No two rows over the pool share the high bits of their hash, so the
    # groups are exactly the distinct rows.
    x = np.array(_ROW_POOL)[np.array(picks)[:, :width]]
    if fortran:
        x = np.asfortranarray(x)
    first, inv = _distinct_rows(x)
    _check_groups(x, first, inv)
    assert first.size == len({row.tobytes() for row in x})


def _lowest_rows(inv: np.ndarray, n_groups: int) -> np.ndarray:
    """The lowest row index in each group of ``inv``."""
    lowest = np.full(n_groups, inv.size)
    np.minimum.at(lowest, inv, np.arange(inv.size))
    return lowest


@pytest.mark.parametrize("m", [1000, 4096, 4097])
@pytest.mark.parametrize("width", [2, 3, 4])
@pytest.mark.parametrize(
    "pool", [[0.0, 1.0, 2.0, 3.0], [0.0, 0.25, 0.5, 1.0]], ids=["ints", "quarters"]
)
def test_distinct_rows_groups_rows_with_few_significant_bits(pool, width, m):
    # These values differ only in their top 16 bits, which every column's
    # step carries into the high bits of the hash.
    rng = np.random.default_rng(100 * m + width)
    x = np.asfortranarray(np.array(pool)[rng.integers(0, len(pool), (m, width))])
    first, inv = _distinct_rows(x)
    _check_groups(x, first, inv)
    assert first.size == len({row.tobytes() for row in x})


@pytest.mark.parametrize("fortran", [True, False])
def test_distinct_rows_first_is_each_groups_lowest_row(fortran):
    rng = np.random.default_rng(29)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 0.5, 1.0])
    x = pool[rng.integers(0, pool.size, (3000, 3))]
    if fortran:
        x = np.asfortranarray(x)
    first, inv = _distinct_rows(x)
    _check_groups(x, first, inv)
    assert first.size == len({row.tobytes() for row in x})
    assert np.array_equal(first, _lowest_rows(inv, first.size))


@pytest.mark.parametrize(
    "m", sorted({1, 2} | {m for k in range(1, 16) for m in (2**k, 2**k + 1)})
)
def test_distinct_rows_at_the_index_width_edges(m):
    # The row index fills the low (m - 1).bit_length() bits of each word.
    i = np.arange(m)
    x = np.asfortranarray(np.column_stack([(i % 97) * 0.125, i % 3]))
    x[i % 5 == 0, 1] = -0.0
    first, inv = _distinct_rows(x)
    _check_groups(x, first, inv)
    assert first.size == len({row.tobytes() for row in x})
    assert np.array_equal(first, _lowest_rows(inv, first.size))
