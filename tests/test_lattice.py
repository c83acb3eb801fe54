import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cascade_maps as cm
from cascade_maps import analysis, basins, lattice
from cascade_maps.errors import DomainError, ParameterError
from cascade_maps.lattice import _distinct_rows, cascade_batch, step_batch

T84 = cm.make_threshold(0.84)
T90 = cm.make_threshold(0.9)

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
    t = cm.make_threshold(c1)
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
    t = cm.make_threshold(0.87)
    rng = np.random.default_rng(11)
    for x in rng.random(10_000):
        s = cm.step(cm.LatticeState(sites=[x]), t)
        y, e = cm.threshold_map(float(x), t)
        assert s.sites[0] == y
        assert s.last_excess == e


#: c1 = 4x(1 - x) at x = 19/64.  Sites on the grid k/64 have exact images
#: k(64 - k)/1024 and exact carries, so ties yh == c1 are common.
T_GRID = cm.make_threshold(855 / 1024)


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
    bx, be = step_batch(x, T84)
    for i in range(200):
        s = cm.step(cm.LatticeState(sites=x[i]), T84)
        assert np.array_equal(s.sites, bx[i])
        assert s.last_excess == be[i]


def test_batch_result_independent_of_block_split():
    rng = np.random.default_rng(22)
    x = rng.random((101, 2))
    full, fe = step_batch(x, T90)
    top, te = step_batch(x[:37], T90)
    bot, be = step_batch(x[37:], T90)
    assert np.array_equal(full, np.vstack([top, bot]))
    assert np.array_equal(fe, np.concatenate([te, be]))


def test_decoupled_sites_follow_independent_scalar_orbits():
    # Starts whose scalar orbits avoid C for 13 steps: no site ever clips,
    # so the lattice advances each site exactly like the scalar map.
    t = cm.make_threshold(0.95)
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
        x, _ = step_batch(x, T90)
        in_a = np.all((x >= lo_a) & (x <= hi_a), axis=1)
        assert not np.any(entered & ~in_a)
        entered |= in_a
    assert entered.all()


# --------------------------------------------------------- excess_window_sum


def test_window_sum_zero_on_fixed_corner():
    assert cm.excess_window_sum(cm.LatticeState(sites=[0.0, 0.0]), T84, 5, 12) == 0.0


def test_window_sum_in_phase_basin():
    total = cm.excess_window_sum(cm.LatticeState(sites=[0.5, 0.5]), T84, 100, 12)
    assert total == IN_PHASE_SUM
    assert total == pytest.approx(12 * (4 * 0.5376 * (1 - 0.5376) - 0.84), abs=1e-12)


def test_window_sum_anti_phase_basin_distinct():
    total = cm.excess_window_sum(
        cm.LatticeState(sites=[T84.c2, T84.c1]), T84, 100, 12
    )
    assert total == ANTI_PHASE_SUM
    assert abs(total - IN_PHASE_SUM) > 1e-3


def test_window_sum_phase_invariant_for_even_window():
    # Window of 12 covers six full periods: the sum cannot depend on the
    # phase at which the window opens.
    a = cm.excess_window_sum(cm.LatticeState(sites=[0.5, 0.5]), T84, 100, 12)
    b = cm.excess_window_sum(cm.LatticeState(sites=[0.5, 0.5]), T84, 101, 12)
    assert a == b


def test_window_sum_validation():
    s = cm.LatticeState(sites=[0.5])
    with pytest.raises(ParameterError):
        cm.excess_window_sum(s, T84, -1, 12)
    with pytest.raises(ParameterError):
        cm.excess_window_sum(s, T84, 0, 0)


# ------------------------------------------------- vectorised cascade kernel


def test_cascade_batch_matches_scalar_cascade():
    rng = np.random.default_rng(31)
    y = rng.random((300, 4))
    bx, be = cascade_batch(y, T84.c1)
    for i in range(300):
        x, e = _cascade_oracle(y[i], T84)
        assert np.array_equal(x, bx[i])
        assert e == be[i]


@given(
    st.lists(
        st.lists(st.integers(0, 64), min_size=3, max_size=3), min_size=1, max_size=40
    )
)
def test_cascade_batch_is_bitwise_scalar_cascade_at_exact_ties(grid):
    # On a dyadic grid every carry and sum is exact, so many sites land on
    # yh == c1 exactly, where the batch kernel's max/min form must still give
    # the scalar branch's clip and its +0.0 carry.
    t = cm.make_threshold(0.875)
    y = np.array(grid, dtype=float) / 64.0
    y[0] = [1.0, 0.75, t.c1]  # ties with and without an incoming carry
    before = y.copy()
    bx, be = cascade_batch(y, t.c1)
    assert y.tobytes() == before.tobytes()
    for i in range(y.shape[0]):
        x, e = _cascade_oracle(y[i], t)
        assert x.tobytes() == bx[i].tobytes()
        assert np.float64(e).tobytes() == be[i].tobytes()


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
    # sign of every zero carry is compared too.
    t = cm.make_threshold(0.875)
    y = np.array(grid, dtype=float) / 64.0
    y[0] = [1.0, 0.75, t.c1]
    run = {
        "cascade_batch": lambda a: cascade_batch(a, t.c1),
        "step_batch": lambda a: step_batch(a, t),
    }[kernel]
    want_x, want_e = run(np.ascontiguousarray(y))
    for name, a in _layouts(y).items():
        before = a.tobytes()
        x, e = run(a)
        assert a.tobytes() == before, name
        assert x.shape == y.shape
        assert x.tobytes() == want_x.tobytes(), name
        assert e.tobytes() == want_e.tobytes(), name
        if name == "F":
            assert x.flags.f_contiguous
        if name == "C":
            assert x.flags.c_contiguous


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
    assert len(batches) == spec.transient + spec.window
    cm.census(T90, 3, 50, seed=7, transient=5, max_period=8)
    assert len(batches) > spec.transient + spec.window + 5
    assert set(batches) == {(2, True)}


# ------------------------------------------------------------ distinct rows


def _check_groups(x, first, inv):
    # x[first][inv] is x bit for bit, and every group's first row is in it.
    assert x[first][inv].tobytes() == x.tobytes()
    assert np.array_equal(inv[first], np.arange(first.size))


def test_distinct_rows_keeps_rows_with_equal_hash_keys_apart():
    # The key of a two-site row is b0 * K + b1 modulo 2**64, so adding one
    # to b0 and subtracting K from b1 gives a different row with equal key.
    k = int(lattice._ROW_HASH)
    a = [int(v) for v in np.array([0.25, 0.5]).view(np.uint64)]
    b = [a[0] + 1, (a[1] - k) % 2**64]
    assert (a[0] * k + a[1]) % 2**64 == (b[0] * k + b[1]) % 2**64
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
#: width 1 to 3 over this pool have distinct hash keys.
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
    # No two rows over the pool share a hash key, so the groups are exactly
    # the distinct rows.
    x = np.array(_ROW_POOL)[np.array(picks)[:, :width]]
    if fortran:
        x = np.asfortranarray(x)
    first, inv = _distinct_rows(x)
    _check_groups(x, first, inv)
    assert first.size == len({row.tobytes() for row in x})
