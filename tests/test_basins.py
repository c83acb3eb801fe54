import dataclasses
import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import cascade_maps as cm
from cascade_maps import analysis, basins
from cascade_maps.basins import _bucket_fingerprints
from cascade_maps.errors import ParameterError

T84 = cm.Threshold(0.84)
T80 = cm.Threshold(0.80)
T94 = cm.Threshold(0.94)
T95 = cm.Threshold(0.95)
T98 = cm.Threshold(0.98)
_UNIT = (0.0, 1.0)


# ------------------------------------------------------------------ GridSpec


def test_gridspec_defaults_match_protocol():
    spec = cm.GridSpec()
    assert spec.resolution == 499
    assert spec.transient == 100
    assert spec.window == 12
    assert spec.n_sites == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(resolution=1),
        dict(x_range=(0.5, 0.4)),
        dict(y_range=(-0.1, 0.5)),
        dict(x_range=(0.0, 1.5)),
        dict(transient=-1),
        dict(window=0),
        dict(pinned_sites=(1.5,)),
        # misshapen: these used to escape as a bare ValueError or TypeError
        dict(x_range=(0.1, 0.5, 0.9)),
        dict(y_range=(0.5,)),
        dict(x_range=0.5),
        dict(y_range=("0.1", "0.5")),
        dict(pinned_sites=0.3),
        dict(pinned_sites="0.3"),
    ],
)
def test_gridspec_validation(kwargs):
    with pytest.raises(ParameterError):
        cm.GridSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [dict(resolution=9.0), dict(transient=2.5), dict(window=12.0), dict(window="12")],
)
def test_gridspec_rejects_non_integral_counts(kwargs):
    # A fractional transient used to shift the window silently: transient
    # 2.5 with window 12 summed the 13 excesses of steps 3 to 15.
    with pytest.raises(ParameterError):
        cm.GridSpec(**kwargs)


def test_gridspec_accepts_numpy_ranges_and_pinned_sites():
    spec = cm.GridSpec(resolution=9, x_range=np.array([0.2, 0.6]), pinned_sites=np.array([0.3]))
    assert spec.n_sites == 3


def _cell_fingerprint(t, spec, i, j):
    """Cell ``(i, j)`` re-simulated through the renderer's own window sums,
    as a grid of one chunk of one cell."""
    ux = basins._axis_offsets(spec.x_range, spec.resolution)
    uy = basins._axis_offsets(spec.y_range, spec.resolution)
    sums, owner = basins._window_sums(t, spec, ux[i : i + 1], uy[j : j + 1])
    return float(sums[owner[0]])


def test_gridspec_and_cell_fingerprint_accept_numpy_integers():
    spec = cm.GridSpec(resolution=np.int64(9), transient=np.int32(5), window=np.int64(3))
    g = cm.render_basins(T84, spec)
    assert _cell_fingerprint(T84, spec, np.int64(2), np.int32(7)) == g.fingerprints[2, 7]
    _, rows = cm.corner_accumulation(T84, spec, [0.1], [np.int64(9)])
    assert {type(row[0]) for row in rows} == {int} and rows[0][0] == 9


# ----------------------------------------------------------------- rendering


def test_single_attractor_parameter_gives_one_class():
    spec = cm.GridSpec(resolution=64)
    g = cm.render_basins(T80, spec)
    assert g.n_classes == 1
    assert np.all(g.classes == 0)
    assert cm.label_components(g).total_components == 1
    _, rows = cm.corner_accumulation(T80, spec, [0.1], [64])
    assert [count for *_, count in rows] == [1, 1, 1, 1]


def test_two_attractor_parameter_gives_two_classes():
    g = cm.render_basins(T84, cm.GridSpec(resolution=125))
    assert g.n_classes == 2
    assert g.class_table[0] == pytest.approx(0.07577117593436133, abs=1e-12)
    assert g.class_table[1] == pytest.approx(1.8521395199999993, abs=1e-12)
    stats = cm.label_components(g)
    assert stats.total_components == 49
    assert stats.total_components > g.n_classes


def test_class_ids_ascend_with_representative_fingerprint():
    g = cm.render_basins(T84, cm.GridSpec(resolution=64))
    reps = [g.class_table[k] for k in sorted(g.class_table)]
    assert reps == sorted(reps)


def test_domain_inside_central_basin_is_single_class():
    spec = cm.GridSpec(resolution=8, x_range=(0.45, 0.55), y_range=(0.45, 0.55))
    g = cm.render_basins(T84, spec)
    assert g.n_classes == 1


def test_render_is_deterministic():
    spec = cm.GridSpec(resolution=101)
    g1 = cm.render_basins(T84, spec)
    g2 = cm.render_basins(T84, spec)
    assert np.array_equal(g1.fingerprints, g2.fingerprints)
    assert np.array_equal(g1.classes, g2.classes)


def test_cell_fingerprint_reproduces_grid_exactly():
    spec = cm.GridSpec(resolution=125)
    g = cm.render_basins(T84, spec)
    rng = np.random.default_rng(3)
    for _ in range(100):
        i, j = (int(v) for v in rng.integers(0, 125, 2))
        assert _cell_fingerprint(T84, spec, i, j) == g.fingerprints[i, j]


@pytest.mark.parametrize("t", [T84, T94])
def test_class_map_mirror_symmetric(t):
    g = cm.render_basins(t, cm.GridSpec(resolution=101))
    assert np.array_equal(g.classes, g.classes[::-1, ::-1])
    assert np.array_equal(g.fingerprints, g.fingerprints[::-1, ::-1])


@pytest.mark.parametrize("pinned", [(), (0.3,)], ids=["plane", "pinned"])
@pytest.mark.parametrize("r", [64, 125])
@pytest.mark.parametrize("t", [T84, T95, T98])
def test_fingerprints_mirror_symmetric_along_each_axis(t, r, pinned):
    # The images of step 1 are 1 - 4u**2, a function of u**2 alone, so
    # flipping one axis alone maps each cell onto a bit-identical orbit.
    f = cm.render_basins(t, cm.GridSpec(resolution=r, pinned_sites=pinned)).fingerprints
    assert f[::-1, :].tobytes() == f.tobytes()
    assert f[:, ::-1].tobytes() == f.tobytes()


@pytest.mark.parametrize("t", [T84, T95, T98])
def test_slice_fingerprints_mirror_symmetric_along_the_unit_axis(t):
    # A slice that spans the unit x axis is folded along x alone: it flips
    # bit for bit along x, and its y axis is simulated whole.
    spec = cm.GridSpec(resolution=125, x_range=_UNIT, y_range=(0.2, 0.7), pinned_sites=(0.6,))
    f = cm.render_basins(t, spec).fingerprints
    assert f[::-1, :].tobytes() == f.tobytes()
    assert f[:, ::-1].tobytes() != f.tobytes()


def _sweep(y, c1):
    # The cascade sweep of a copy of the images ``y``, column by column:
    # min(yh, c1) is the clipped value and max(yh - c1, 0) the carry.
    x = y.copy()
    carry = np.zeros(y.shape[0])
    for i in range(y.shape[1]):
        yh = x[:, i]
        yh += carry
        np.subtract(yh, c1, out=carry)
        np.maximum(carry, 0.0, out=carry)
        np.minimum(yh, c1, out=yh)
    return x, carry


def _direct_fingerprints(t, spec):
    # Oracle: every cell of the grid stepped as one block, none reflected
    # and none merged, with the window's excesses summed in step order.
    # Each pin's offset is taken in the pin's own type, as Python does.
    r = spec.resolution
    u = np.empty((r * r, spec.n_sites))
    u[:, 0] = np.repeat(basins._axis_offsets(spec.x_range, r), r)
    u[:, 1] = np.tile(basins._axis_offsets(spec.y_range, r), r)
    for k, pinned in enumerate(spec.pinned_sites):
        u[:, 2 + k] = pinned - 0.5
    x, e = _sweep(1.0 - 4.0 * (u * u), t.c1)
    total = np.zeros(r * r)
    for k in range(1, spec.transient + spec.window + 1):
        if k > 1:
            x, e = _sweep(4.0 * x * (1.0 - x), t.c1)
        if k > spec.transient:
            total += e
    return total


@pytest.mark.parametrize(
    "r, chunk",
    [(2, 1), (3, 1), (3, 7), (8, 1), (8, 7), (8, 4096), (101, 4096)],
)
def test_render_matches_direct_simulation_of_every_cell(monkeypatch, r, chunk):
    # Transients 7, 8, 9 and 16 put the window's first step on either side
    # of the batch compactions at steps 8 and 16; the default spec runs
    # through the compactions at 32 and 64 as well.  Windows of 40 from
    # steps 1 and 10 span steps 16 and 32 (and 8 from step 1), where a
    # longer transient would compact, and check a window with no
    # compaction in it.  Two pinned sites put two carried sites after the
    # drive site, which the head sweeps once per x-row.
    monkeypatch.setattr(basins, "_CHUNK_CELLS", chunk)
    grid = [(tr, w) for tr in (0, 7, 8, 9, 16) for w in (1, 12)] + [(100, 12), (0, 40), (9, 40)]
    for transient, window in grid:
        steps = dict(transient=transient, window=window)
        specs = [
            cm.GridSpec(resolution=r, **steps),
            cm.GridSpec(resolution=r, pinned_sites=(0.3,), **steps),
            cm.GridSpec(resolution=r, pinned_sites=(0.3, 0.7), **steps),
            cm.GridSpec(resolution=r, x_range=(0.1, 0.6), **steps),
        ]
        for t in (T84, T94, T98):
            for spec in specs:
                want = _direct_fingerprints(t, spec).tobytes()
                g = cm.render_basins(t, spec)
                assert g.fingerprints.tobytes() == want, (t.c1, spec)


@pytest.mark.parametrize("pins", [(np.float32(0.1),), (1,), (0.3, np.float32(0.7), 0)])
@pytest.mark.parametrize("t", [T84, T95, T98])
def test_render_with_int_and_float32_pins_matches_direct_simulation(t, pins):
    # A pin's offset is ``pin - 0.5`` in the pin's own type: it rounds to
    # float32 for an np.float32 pin, which differs from its float64 value.
    assert np.float64(np.float32(0.1) - 0.5) != float(np.float32(0.1)) - 0.5
    for spec in (
        cm.GridSpec(resolution=31, pinned_sites=pins, transient=40),
        cm.GridSpec(resolution=32, y_range=(0.2, 0.7), pinned_sites=pins, transient=9),
    ):
        want = _direct_fingerprints(t, spec).tobytes()
        assert cm.render_basins(t, spec).fingerprints.tobytes() == want, (t.c1, spec)


@pytest.mark.parametrize("transient", [0, 3, 9])
@pytest.mark.parametrize("r, chunk", [(2, 1), (9, 3), (33, 16)])
def test_render_chunks_of_one_x_row_match_direct_simulation(monkeypatch, r, chunk, transient):
    # A _CHUNK_CELLS below one x-row's cells still makes whole x-rows: each
    # chunk holds exactly one, whose drive site is stepped once for all of
    # its cells.  At r=2 the unit square folds to one cell; its slices
    # hold two x-rows or two cells per x-row.
    monkeypatch.setattr(basins, "_CHUNK_CELLS", chunk)
    heads = []
    inner = basins._chunk_head

    def spy(ux, uy, *args):
        heads.append((ux.size, uy.size))
        return inner(ux, uy, *args)

    monkeypatch.setattr(basins, "_chunk_head", spy)
    specs = [
        cm.GridSpec(resolution=r, transient=transient),
        cm.GridSpec(resolution=r, pinned_sites=(0.3, 0.7), transient=transient),
        cm.GridSpec(resolution=r, x_range=(0.1, 0.6), y_range=(0.2, 0.7), transient=transient),
    ]
    for t in (T84, T95, T98):
        for spec in specs:
            heads.clear()
            want = _direct_fingerprints(t, spec).tobytes()
            assert cm.render_basins(t, spec).fingerprints.tobytes() == want, (t.c1, spec)
            hx, hy = ((r + 1) // 2 if a == _UNIT else r for a in (spec.x_range, spec.y_range))
            assert heads == [(1, hy)] * hx


def test_render_steps_each_distinct_state_once(monkeypatch):
    # Cells fall onto few exact states after their clips, and the render
    # steps each distinct state of a chunk once: at c1=0.95, r=64 the kernel
    # steps about a seventh of the simulated quadrant's site-states.  In the
    # head, site 0 is stepped once per x-row and the other sites once per
    # cell; the tail steps whole distinct rows.  Every batch stays
    # column-major after the compactions.
    batches = _spy_batches(monkeypatch)
    r = 64
    h = (r + 1) // 2
    spec = cm.GridSpec(resolution=r)
    cm.render_basins(T95, spec)
    steps = spec.transient + spec.window
    head = basins._FIRST_COMPACTION
    assert len(batches) == steps + head == 120
    assert batches[: 2 * head] == [(h, 1, True, False), (h * h, 1, True, True)] * head
    tail = batches[2 * head :]
    assert {(n, carried) for _, n, _, carried in tail} == {(2, False)}
    site_steps = [m * n for m, n, _, _ in batches]
    assert sum(site_steps) <= 0.2 * h * h * spec.n_sites * steps
    assert 1 < tail[-1][0] < h * h
    assert all(f_contiguous for _, _, f_contiguous, _ in batches)


@pytest.mark.parametrize("transient, window", [(100, 12), (9, 40), (0, 40), (3, 12)])
@pytest.mark.parametrize("t", [T95, T98])
def test_render_window_steps_one_batch_without_compaction(monkeypatch, t, transient, window):
    # The window runs on the rows distinct at the end of the transient, so
    # each of its steps passes the kernel the same number of rows.
    batches = _spy_batches(monkeypatch)
    cm.render_basins(t, cm.GridSpec(resolution=64, transient=transient, window=window))
    # A step is one sweep from site 0: in the head, site 0's sweep, which
    # the carried sweep of the other sites continues.
    steps = [m for m, _, _, carried in batches if not carried]
    assert len(steps) == transient + window
    assert len(set(steps[-window:])) == 1


@pytest.mark.parametrize("r", [2, 3, 64, 65])
@pytest.mark.parametrize(
    "x_range, y_range",
    [(_UNIT, _UNIT), (_UNIT, (0.2, 0.7)), ((0.1, 0.6), _UNIT), ((0.1, 0.6), (0.2, 0.7))],
    ids=["square", "unit-x", "unit-y", "sub-range"],
)
def test_render_simulates_the_first_half_of_each_unit_axis(monkeypatch, r, x_range, y_range):
    # Each axis that spans the unit interval is folded on its own, to its
    # first (r + 1) // 2 cells; any other axis is simulated whole.  The
    # head's first step sweeps site 0 once per simulated x-row, then the
    # other site of every simulated cell.
    batches = _spy_batches(monkeypatch)
    cm.render_basins(T95, cm.GridSpec(resolution=r, x_range=x_range, y_range=y_range))
    hx, hy = ((r + 1) // 2 if a == _UNIT else r for a in (x_range, y_range))
    assert [m for m, _, _, _ in batches[:2]] == [hx, hx * hy]


@pytest.mark.parametrize("r", [2, 3, 8, 9])
@pytest.mark.parametrize("t", [T84, T94, T98])
def test_unit_axis_slice_matches_direct_simulation_of_every_cell(t, r):
    # A slice folded along x alone rebuilds every cell bit for bit.
    spec = cm.GridSpec(resolution=r, y_range=(0.2, 0.7), pinned_sites=(0.6,))
    want = _direct_fingerprints(t, spec).tobytes()
    assert cm.render_basins(t, spec).fingerprints.tobytes() == want


@pytest.mark.parametrize("chunk, calls", [(16384, 1 + 4), (512, 2 + 1 + 4)])
def test_render_compacts_across_chunks_only_when_there_are_several(monkeypatch, chunk, calls):
    # At r=64 the quadrant is one chunk of 1024 cells, which its head has
    # just compacted, so the tail compacts only at steps 16, 32, 64 and 100.
    # Two chunks add one compaction across them.
    monkeypatch.setattr(basins, "_CHUNK_CELLS", chunk)
    compactions = []
    inner = basins._distinct

    def spy(y):
        compactions.append(y.shape[0])
        return inner(y)

    monkeypatch.setattr(basins, "_distinct", spy)
    cm.render_basins(T95, cm.GridSpec(resolution=64))
    assert len(compactions) == calls


def _spy_batches(monkeypatch):
    # Each sweep as (rows, sites, column-major, given an incoming carry).
    batches = []
    inner = basins.cascade_batch

    def spy(y, c1, carry=None):
        batches.append((*y.shape, y.flags.f_contiguous, carry is not None))
        return inner(y, c1, carry)

    monkeypatch.setattr(basins, "cascade_batch", spy)
    return batches


def test_render_merges_the_chunks_after_the_first_compaction(monkeypatch):
    # At r=64 chunks of 512 cells make 2 chunks of 16 x-rows of the 1024
    # simulated cells.  Each chunk runs steps 1-8 on its own, site 0 once
    # per x-row and site 1 once per cell; the merged batch then runs steps
    # 9-112 once for the whole grid, both sites in one sweep.
    spec = cm.GridSpec(resolution=64)
    want = cm.render_basins(T95, spec).fingerprints.tobytes()
    monkeypatch.setattr(basins, "_CHUNK_CELLS", 512)
    batches = _spy_batches(monkeypatch)
    got = cm.render_basins(T95, spec).fingerprints.tobytes()
    assert len(batches) == 2 * 2 * 8 + (112 - 8) == 136
    head = [(16, 1, True, False), (512, 1, True, True)] * 8
    assert batches[:32] == head * 2
    assert {(n, carried) for _, n, _, carried in batches[32:]} == {(2, False)}
    assert all(f_contiguous for _, _, f_contiguous, _ in batches)
    assert got == want


#: sha256 of ``render_basins(T, GridSpec(resolution=r)).fingerprints.tobytes()``.
#: The odd resolutions were rendered one chunk at a time, before the chunks
#: were merged; the even one, which folds with no middle row, by reflecting
#: half of the cells through the centre, before each axis was folded.
_FINGERPRINT_DIGESTS = {
    (0.84, 601): "ea58d49efa7d78b43090351802cef4027af4164dbdb66a536f4d9d2d0952058c",
    (0.95, 999): "09874ff39bb7dc4d7653b1e33e4c1718dd6170ca39256754ace4378678f75d3b",
    (0.95, 1000): "8e6cf0c99ba577f30b7fc2d9651cc10848c2a1a0c86d3f8b003dfbb6a00795f5",
    (0.98, 999): "d7d8acef6d018780f774bd8bb2726522562ab39a13eec6abcf82c921217d42d2",
}


@pytest.mark.parametrize("c1, r", sorted(_FINGERPRINT_DIGESTS))
def test_many_chunk_render_keeps_its_fingerprints_bit_for_bit(c1, r):
    # 6 to 16 chunks of the default size, merged into one batch.
    g = cm.render_basins(cm.Threshold(c1), cm.GridSpec(resolution=r))
    digest = hashlib.sha256(g.fingerprints.tobytes()).hexdigest()
    assert digest == _FINGERPRINT_DIGESTS[c1, r]


def test_render_memory_is_bounded_by_the_output_and_one_chunk():
    r = 601
    spec = cm.GridSpec(resolution=r)
    threads = threading.active_count()
    tracemalloc.start()
    try:
        cm.render_basins(T84, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert threading.active_count() == threads
    # Per cell: 8 B of fingerprints, 4 B of classes and one int64 bucketing
    # temporary.  Per chunk of 16384 cells, at most sixteen (m, N) double
    # arrays; a fixed allowance, so a chunk that grows with the grid fails.
    per_cell = 8 + 4 + 8
    per_chunk = 16384 * 16 * spec.n_sites * 8
    assert peak < per_cell * r * r + per_chunk


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_render_chunks_at_their_peaks_stay_below_labelling():
    # The factor 2 is headroom: with one chunk's peak at most half of what
    # labelling the grid needs next to it, the corner command's peak is set
    # by the labelling, not by the render.
    # The chunk is the render's: whole x-rows of the folded quadrant, as
    # many as fit in _CHUNK_CELLS.
    spec = cm.GridSpec(resolution=499)
    h = (spec.resolution + 1) // 2
    ux, uy = (basins._axis_offsets(a, spec.resolution)[:h] for a in (spec.x_range, spec.y_range))

    def chunk(i1):
        steps = min(basins._FIRST_COMPACTION, spec.transient)
        basins._chunk_head(ux[:i1], uy, spec, T95.c1, steps)

    chunk(1)
    chunk_peak = _traced_peak(chunk, basins._CHUNK_CELLS // h)
    g = cm.render_basins(T95, spec)
    label_peak = _traced_peak(cm.label_components, g)
    # Both sides hold the fingerprints; labelling also holds the classes.
    assert 2 * chunk_peak < label_peak + g.classes.nbytes


@pytest.mark.parametrize("t", [T84, T95, T98])
def test_render_peak_stays_below_the_labelling_phase(t):
    # A command holds the grid's fingerprints and classes while it labels
    # them, so with the render below this the render never sets its peak.
    g = cm.render_basins(t, cm.GridSpec(resolution=499))
    render_peak = _traced_peak(cm.render_basins, t, g.spec)
    label_peak = _traced_peak(cm.label_components, g)
    assert render_peak < label_peak + g.fingerprints.nbytes + g.classes.nbytes


def test_pinned_sites_slice():
    spec = cm.GridSpec(resolution=24, pinned_sites=(0.5,))
    assert spec.n_sites == 3
    g = cm.render_basins(T84, spec)
    assert g.n_classes >= 1
    assert _cell_fingerprint(T84, spec, 3, 7) == g.fingerprints[3, 7]


def test_refinement_does_not_lose_components():
    c64 = cm.label_components(cm.render_basins(T84, cm.GridSpec(resolution=64)))
    c128 = cm.label_components(cm.render_basins(T84, cm.GridSpec(resolution=128)))
    assert c128.total_components >= c64.total_components


# ----------------------------------------------------------------- unfolding


def _index_map_unfold(quadrant, r, i0, i1):
    # Grid row i >= hx is quadrant row r - 1 - i, and column j >= hy is
    # quadrant column r - 1 - j.
    hx, hy = quadrant.shape
    i, j = np.arange(i0, i1), np.arange(r)
    return quadrant[np.where(i < hx, i, r - 1 - i)][:, np.where(j < hy, j, r - 1 - j)]


_FOLDS = {"both": (True, True), "x": (True, False), "y": (False, True), "none": (False, False)}


def _quadrant(r, fold, dtype):
    rng = np.random.default_rng(r)
    shape = tuple((r + 1) // 2 if folded else r for folded in _FOLDS[fold])
    if dtype == np.int32:
        return rng.integers(-(2**31), 2**31, shape, dtype=np.int32)
    return rng.standard_normal(shape)


def _assert_unfolds_alike(quadrant, r, i0, i1):
    got = basins._unfold(quadrant, r, i0, i1)
    expect = _index_map_unfold(quadrant, r, i0, i1)
    assert got.dtype == quadrant.dtype and got.shape == (i1 - i0, r)
    assert got.tobytes() == expect.tobytes(), (r, i0, i1)


@pytest.mark.parametrize("dtype", [np.float64, np.int32], ids=["f64", "i32"])
@pytest.mark.parametrize("fold", list(_FOLDS))
@pytest.mark.parametrize("r", [2, 3, 64, 65])
def test_unfold_of_a_whole_grid_matches_the_index_map(r, fold, dtype):
    _assert_unfolds_alike(_quadrant(r, fold, dtype), r, 0, r)


@pytest.mark.parametrize("dtype", [np.float64, np.int32], ids=["f64", "i32"])
@pytest.mark.parametrize("fold", list(_FOLDS))
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_unfold_of_every_strip_of_a_small_grid_matches_the_index_map(r, fold, dtype):
    quadrant = _quadrant(r, fold, dtype)
    for i0 in range(r + 1):
        for i1 in range(i0, r + 1):
            _assert_unfolds_alike(quadrant, r, i0, i1)


@pytest.mark.parametrize("dtype", [np.float64, np.int32], ids=["f64", "i32"])
@pytest.mark.parametrize("fold", list(_FOLDS))
@pytest.mark.parametrize("r", [64, 65])
def test_unfold_of_one_row_strips_and_strips_across_the_fold(r, fold, dtype):
    # r = 64 folds to 32 rows with no middle row; r = 65 to 33, row 32 the middle.
    quadrant = _quadrant(r, fold, dtype)
    h = (r + 1) // 2
    for i in range(r):
        _assert_unfolds_alike(quadrant, r, i, i + 1)
    for i0, i1 in [(h - 1, h + 1), (h - 3, h + 5), (0, h + 1), (h - 1, r), (h - 2, h), (h, h + 3)]:
        _assert_unfolds_alike(quadrant, r, i0, i1)


# ---------------------------------------------------------------- bucketing


def test_bucketing_merges_within_tolerance():
    values = np.array([[0.0, 0.0 + 5e-7], [1.0, 1.0 + 9e-7]])
    classes, table = _bucket_fingerprints(values)
    assert table == {0: 0.0, 1: 1.0}
    assert classes.tolist() == [[0, 0], [1, 1]]


def test_bucketing_splits_beyond_tolerance():
    values = np.array([[0.0, 2e-6], [1.0, 1.0]])
    classes, table = _bucket_fingerprints(values)
    assert len(table) == 3
    assert classes.tolist() == [[0, 1], [2, 2]]


@pytest.mark.parametrize("r", [2, 31, 32, 129])
@pytest.mark.parametrize(
    "ranges", [(_UNIT, _UNIT), ((0.1, 0.7), (0.25, 0.9))], ids=["unit", "sub"]
)
@pytest.mark.parametrize("t", [T84, T95], ids=["c84", "c95"])
def test_render_classes_match_bucketing_of_the_whole_grid(t, ranges, r):
    # On the unit square the render buckets only its simulated half; the
    # oracle buckets every cell.
    x_range, y_range = ranges
    g = cm.render_basins(t, cm.GridSpec(resolution=r, x_range=x_range, y_range=y_range))
    classes, table = _bucket_fingerprints(g.fingerprints)
    assert g.classes.dtype == np.int32
    assert np.array_equal(g.classes, classes)
    assert g.class_table == table


# ------------------------------------------------------------------ labelling


def _grid_from_classes(classes: np.ndarray) -> cm.BasinGrid:
    classes = np.asarray(classes, dtype=np.int32)
    spec = cm.GridSpec(resolution=classes.shape[0])
    table = {int(k): float(k) for k in np.unique(classes)}
    return cm.BasinGrid(
        spec=spec,
        fingerprints=classes.astype(float),
        classes=classes,
        class_table=table,
    )


def test_label_uniform_grid_is_one_component():
    stats = cm.label_components(_grid_from_classes(np.zeros((6, 6), dtype=int)))
    assert stats.total_components == 1
    assert stats.class_component_counts == {0: 1}


def test_label_checkerboard_every_cell_is_a_component():
    n = 6
    board = (np.add.outer(np.arange(n), np.arange(n)) % 2).astype(np.int32)
    stats = cm.label_components(_grid_from_classes(board))
    assert stats.total_components == n * n
    assert stats.class_component_counts == {0: 18, 1: 18}


def test_label_component_ids_partition_cells():
    g = cm.render_basins(T84, cm.GridSpec(resolution=64))
    stats = cm.label_components(g)
    ids = stats.component_ids
    assert ids.min() == 1
    assert ids.max() == stats.total_components
    # same component implies same class
    for comp in range(1, stats.total_components + 1):
        cells = g.classes[ids == comp]
        assert np.all(cells == cells[0])


def test_label_equal_class_neighbours_share_a_component():
    g = cm.render_basins(T84, cm.GridSpec(resolution=64))
    ids = cm.label_components(g).component_ids
    for c, i in ((g.classes, ids), (g.classes.T, ids.T)):
        same = c[1:] == c[:-1]
        assert np.array_equal(i[1:][same], i[:-1][same])


_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _ndimage_labels(g: cm.BasinGrid) -> tuple[np.ndarray, dict[int, int]]:
    """Per-class ``ndimage.label`` in class order is the reference labelling."""
    ids = np.zeros(g.classes.shape, dtype=np.int32)
    counts = {}
    for k in g.class_table:
        mask = g.classes == k
        labels, count = ndimage.label(mask, structure=_CROSS)
        ids[mask] = labels[mask] + sum(counts.values())
        counts[k] = count
    return ids, counts


def _assert_matches_ndimage(g: cm.BasinGrid) -> None:
    ids, counts = _ndimage_labels(g)
    # Renumber the oracle's components by their first cell in raster order.
    _, first = np.unique(ids, return_index=True)
    number = np.zeros(first.size + 1, dtype=np.int32)
    number[np.argsort(first) + 1] = np.arange(1, first.size + 1)
    ids = number[ids]
    stats = cm.label_components(g)
    assert stats.component_ids.dtype == np.int32
    assert np.array_equal(stats.component_ids, ids)
    assert stats.class_component_counts == counts
    assert stats.total_components == sum(counts.values())


@pytest.mark.parametrize("r", [31, 125, 249])
@pytest.mark.parametrize("t", [T84, T95, T98], ids=["c84", "c95", "c98"])
def test_label_matches_ndimage_on_rendered_grids(t, r):
    _assert_matches_ndimage(cm.render_basins(t, cm.GridSpec(resolution=r)))


@pytest.mark.parametrize("n_classes", [2, 3, 7])
@pytest.mark.parametrize("r", [2, 5, 97])
def test_label_matches_ndimage_on_random_maps(n_classes, r):
    rng = np.random.default_rng(1000 * n_classes + r)
    _assert_matches_ndimage(_grid_from_classes(rng.integers(0, n_classes, (r, r))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_label_matches_ndimage_on_small_maps(data):
    r = data.draw(st.integers(2, 9))
    k = data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(st.integers(0, k - 1), min_size=r * r, max_size=r * r))
    _assert_matches_ndimage(_grid_from_classes(np.reshape(cells, (r, r))))


def test_label_matches_ndimage_when_every_cell_is_its_own_class():
    # 4,096 classes of one cell each.
    rng = np.random.default_rng(64)
    _assert_matches_ndimage(_grid_from_classes(rng.permutation(64 * 64).reshape(64, 64)))


def test_label_matches_ndimage_with_a_few_hundred_classes():
    # 4x4 blocks of 300 classes, so that most classes have several components.
    rng = np.random.default_rng(300)
    blocks = rng.integers(0, 300, (25, 25))
    _assert_matches_ndimage(_grid_from_classes(np.kron(blocks, np.ones((4, 4), dtype=int))))


def _spiral(n: int) -> np.ndarray:
    """A clockwise wall of class 1 with a one-cell corridor of class 0."""
    wall = np.zeros((n, n), dtype=np.int32)
    i = j = 0
    di, dj = 0, 1
    wall[0, 0] = 1
    for _ in range(n * n):
        for _ in range(2):
            i1, j1, i2, j2 = i + di, j + dj, i + 2 * di, j + 2 * dj
            free = 0 <= i1 < n and 0 <= j1 < n and not wall[i1, j1]
            ahead = 0 <= i2 < n and 0 <= j2 < n and wall[i2, j2]
            if free and not ahead:
                wall[i1, j1] = 1
                i, j = i1, j1
                break
            di, dj = dj, -di
        else:
            return wall
    return wall


def _serpentine(n: int) -> np.ndarray:
    """Rows of class 1 on even rows, joined alternately at the right and left."""
    c = np.zeros((n, n), dtype=np.int32)
    c[::2] = 1
    c[1::4, -1] = 1
    c[3::4, 0] = 1
    return c


def _comb(n: int) -> np.ndarray:
    """Class-1 teeth in every other column, hanging from a class-1 top row."""
    c = np.zeros((n, n), dtype=np.int32)
    c[:, ::2] = 1
    c[0] = 1
    return c


_SHAPES = {
    "spiral": _spiral(41),
    "comb": _comb(41),
    "serpentine_rows": _serpentine(41),
    "serpentine_columns": _serpentine(41).T.copy(),
    "checkerboard": (np.add.outer(np.arange(41), np.arange(41)) % 2),
}


@pytest.mark.parametrize("name", list(_SHAPES))
def test_label_matches_ndimage_on_adversarial_shapes(name):
    _assert_matches_ndimage(_grid_from_classes(_SHAPES[name]))


def test_label_adversarial_shapes_have_their_component_counts():
    count = {
        name: cm.label_components(_grid_from_classes(c)).class_component_counts
        for name, c in _SHAPES.items()
    }
    assert count["spiral"] == {0: 1, 1: 1}
    assert count["comb"] == {0: 20, 1: 1}
    assert count["serpentine_rows"] == count["serpentine_columns"] == {0: 20, 1: 1}


def test_label_memory_stays_below_the_per_class_ndimage_loop():
    g = cm.render_basins(T95, cm.GridSpec(resolution=499))
    tracemalloc.start()
    try:
        cm.label_components(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 3.3 MB is the peak of the per-class ndimage.label loop on this grid.
    assert peak <= 3.3e6


def test_disk_covering_domain_counts_every_component():
    spec = cm.GridSpec(resolution=64)
    _, rows = cm.interior_accumulation(T84, spec, (0.75, 0.75), [1.5])
    total = cm.label_components(cm.render_basins(T84, spec)).total_components
    assert rows == [(1.5, total)]


# ------------------------------------------------------------- accumulation


def test_corner_accumulation_table_shape_and_growth():
    header, rows = cm.corner_accumulation(
        T84, cm.GridSpec(resolution=63), eps_list=[0.1, 0.05], resolutions=[63, 125]
    )
    assert header == ["resolution", "eps", "corner", "components"]
    assert len(rows) == 2 * 2 * 4
    counts = {(r, eps, corner): c for r, eps, corner, c in rows}
    # all four corners behave identically under the mirror symmetry
    for eps in (0.1, 0.05):
        for r in (63, 125):
            vals = {counts[(r, eps, c)] for c in ("00", "01", "10", "11")}
            assert len(vals) == 1
    # refinement exposes at least as many corner components
    assert counts[(125, 0.1, "00")] >= counts[(63, 0.1, "00")]


_RANGES = [(_UNIT, _UNIT), ((0.2, 0.7), (0.1, 0.9))]


def _oracle_count(ids: np.ndarray, mask: np.ndarray) -> int:
    return len(set(ids[mask].tolist()))


def _oracle_labels_and_centres(t, spec):
    ids, _ = _ndimage_labels(cm.render_basins(t, spec))
    r = spec.resolution
    return ids, basins._axis_centers(spec.x_range, r), basins._axis_centers(spec.y_range, r)


@pytest.mark.parametrize("ranges", _RANGES, ids=["unit", "sub"])
@pytest.mark.parametrize("t", [T84, T95], ids=["c84", "c95"])
def test_corner_accumulation_matches_ndimage_oracle(t, ranges):
    # Boxes hold the cells whose centre has cx <= eps or cx >= 1 - eps on
    # each axis; the sub-range leaves some boxes empty.
    x_range, y_range = ranges
    base = cm.GridSpec(resolution=31, x_range=x_range, y_range=y_range)
    eps_list = [0.3, 0.1, 0.02]
    _, rows = cm.corner_accumulation(t, base, eps_list, [31, 32, 125])
    expected = []
    for r in (31, 32, 125):
        ids, cx, cy = _oracle_labels_and_centres(t, dataclasses.replace(base, resolution=r))
        for eps in eps_list:
            sides = {"0": (cx <= eps, cy <= eps), "1": (cx >= 1 - eps, cy >= 1 - eps)}
            for corner in ("00", "01", "10", "11"):
                box = np.outer(sides[corner[0]][0], sides[corner[1]][1])
                expected.append((r, eps, corner, _oracle_count(ids, box)))
    assert rows == expected


@pytest.mark.parametrize("r", [31, 32, 125])
@pytest.mark.parametrize(
    "ranges, point",
    [(_RANGES[0], (0.75, 0.75)), (_RANGES[1], (0.45, 0.5))],
    ids=["unit", "sub"],
)
@pytest.mark.parametrize("t", [T84, T95], ids=["c84", "c95"])
def test_interior_accumulation_matches_ndimage_oracle(t, ranges, point, r):
    spec = cm.GridSpec(resolution=r, x_range=ranges[0], y_range=ranges[1])
    radii = [0.5, 0.2, 0.05, 0.01]
    _, rows = cm.interior_accumulation(t, spec, point, radii)
    ids, cx, cy = _oracle_labels_and_centres(t, spec)
    dist2 = (cx[:, None] - point[0]) ** 2 + (cy[None, :] - point[1]) ** 2
    assert rows == [(radius, _oracle_count(ids, dist2 <= radius * radius)) for radius in radii]


def _full_grid_corner_rows(t, base_spec, eps_list, resolutions):
    # Oracle: the full-grid corner driver, which rendered each grid whole,
    # labelled it with label_components and selected each box from the
    # grid of component ids.
    rows = []
    for r in resolutions:
        spec = dataclasses.replace(base_spec, resolution=r)
        ids = cm.label_components(cm.render_basins(t, spec)).component_ids
        cx = basins._axis_centers(spec.x_range, r)
        cy = basins._axis_centers(spec.y_range, r)
        for eps in eps_list:
            x_sides = (cx <= eps, cx >= 1.0 - eps)
            y_sides = (cy <= eps, cy >= 1.0 - eps)
            for corner in ("00", "01", "10", "11"):
                box = np.ix_(x_sides[int(corner[0])], y_sides[int(corner[1])])
                rows.append((r, eps, corner, int(np.count_nonzero(np.bincount(ids[box].ravel())))))
    return ["resolution", "eps", "corner", "components"], rows


def _full_grid_disk_rows(t, spec, point, radii):
    # Oracle: the full-grid interior driver, as _full_grid_corner_rows.
    ids = cm.label_components(cm.render_basins(t, spec)).component_ids
    cx = basins._axis_centers(spec.x_range, spec.resolution)
    cy = basins._axis_centers(spec.y_range, spec.resolution)
    dist2 = (cx[:, None] - point[0]) ** 2 + (cy[None, :] - point[1]) ** 2
    counts = [int(np.count_nonzero(np.bincount(ids[dist2 <= q * q]))) for q in radii]
    return ["radius", "components"], list(zip(radii, counts))


#: Strip sizes in cells: one grid row, several rows that end neither at a
#: fold nor at the grid's end, the default, and the whole grid.
_STRIP_SIZES = {"row": 1, "rows": 1000, "default": basins._STRIP_CELLS, "grid": 1 << 40}
_SLICES = {
    "unit": cm.GridSpec(resolution=2),
    "sub": cm.GridSpec(resolution=2, x_range=_RANGES[1][0], y_range=_RANGES[1][1]),
    "pinned": cm.GridSpec(resolution=2, y_range=(0.2, 0.7), pinned_sites=(0.3,)),
}


@pytest.mark.parametrize("strip", list(_STRIP_SIZES))
@pytest.mark.parametrize("slice_name", list(_SLICES))
@pytest.mark.parametrize("t", [T84, T95, T98], ids=["c84", "c95", "c98"])
def test_strip_counts_match_the_full_grid_drivers(monkeypatch, t, slice_name, strip):
    monkeypatch.setattr(basins, "_STRIP_CELLS", _STRIP_SIZES[strip])
    base = _SLICES[slice_name]
    eps_list = [0.5, 0.3, 0.1, 0.05, 0.02]
    args = (t, base, eps_list, [31, 32, 125])
    assert cm.corner_accumulation(*args) == _full_grid_corner_rows(*args)
    for r, point in ((32, (0.45, 0.5)), (125, (0.75, 0.75))):
        args = (t, dataclasses.replace(base, resolution=r), point, [2.0, 0.3, 0.1, 0.02])
        assert cm.interior_accumulation(*args) == _full_grid_disk_rows(*args)


@pytest.mark.parametrize("t", [T95, T98], ids=["c95", "c98"])
def test_strip_counts_match_the_full_grid_drivers_over_several_default_strips(t):
    # r=499 is four strips of the default size; r=300 is two, split unevenly.
    args = (t, cm.GridSpec(), [0.3, 0.1, 0.05, 0.02], [300, 499])
    assert cm.corner_accumulation(*args) == _full_grid_corner_rows(*args)


def _strip_regions(classes: np.ndarray) -> list[np.ndarray]:
    """Masks over the whole map: all of it, none of it, each column (each
    crosses every seam), the left half, and three random scatters."""
    n_rows, n_cols = classes.shape
    rng = np.random.default_rng(n_rows * n_cols)
    masks = [np.ones(classes.shape, bool), np.zeros(classes.shape, bool)]
    for j in range(n_cols):
        column = np.zeros(classes.shape, bool)
        column[:, j] = True
        masks.append(column)
    left = np.zeros(classes.shape, bool)
    left[:, : n_cols // 2] = True
    masks.append(left)
    masks += [rng.random(classes.shape) < p for p in (0.01, 0.1, 0.5)]
    return masks


def _assert_strip_counts_match_ndimage(classes: np.ndarray, rows: int) -> None:
    # The oracle labels a rectangular map too; its spec is not read.
    classes = np.asarray(classes, dtype=np.int32)
    masks = _strip_regions(classes)
    strips = (
        (classes[i : i + rows], [m[i : i + rows] for m in masks])
        for i in range(0, classes.shape[0], rows)
    )
    got = basins._strip_counts(strips)
    table = {int(k): float(k) for k in np.unique(classes)}
    g = cm.BasinGrid(cm.GridSpec(resolution=2), classes.astype(float), classes, table)
    ids, _ = _ndimage_labels(g)
    assert got == [_oracle_count(ids, m) for m in masks]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", list(_SHAPES))
def test_strip_labeller_matches_ndimage_on_adversarial_shapes(name, rows):
    # The serpentines cross every seam, and the spiral's corridor crosses
    # each seam many times before it closes.
    _assert_strip_counts_match_ndimage(_SHAPES[name], rows)
    _assert_strip_counts_match_ndimage(_SHAPES[name].T, rows)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("shape", [(2, 2), (5, 5), (7, 3), (3, 11), (97, 97)])
@pytest.mark.parametrize("n_classes", [2, 3, 7])
def test_strip_labeller_matches_ndimage_on_random_maps(n_classes, shape, rows):
    rng = np.random.default_rng(1000 * n_classes + shape[0] * shape[1])
    _assert_strip_counts_match_ndimage(rng.integers(0, n_classes, shape), rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_strip_labeller_matches_ndimage_on_small_maps(data):
    n_rows, n_cols = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, 4))
    size = n_rows * n_cols
    cells = data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    rows = data.draw(st.integers(1, n_rows))
    _assert_strip_counts_match_ndimage(np.reshape(cells, (n_rows, n_cols)), rows)


def test_corner_command_peak_at_r1999_is_bounded_by_the_quadrant_and_one_strip(monkeypatch):
    # The bound, fixed before the test was first run.  Per simulated cell
    # (hx * hy of them, 1000 x 1000 here): the render's int32 owner map,
    # 4 B, and its merged tail batch, at most one (m, 2) double row per
    # cell, 16 B.  Per strip: 64 B for each of the default strip's 65,536
    # cells, a fixed allowance.  A full-grid class map, id grid or strip
    # (r * r = 4M cells) adds 16 MB or more and fails.
    r = 1999
    h = (r + 1) // 2
    per_strip = 64 * 65536
    spec = cm.GridSpec(resolution=r)
    peak = _traced_peak(cm.corner_accumulation, T95, spec, [0.1, 0.05, 0.02], [r])
    assert peak < 20 * h * h + per_strip
    # With the render done outside the trace, what is left is the classes
    # of the simulated quadrant, 4 B per simulated cell, and the strips.
    rendered = basins._render_rows(T95, spec)
    monkeypatch.setattr(basins, "_render_rows", lambda t, s: rendered)
    peak = _traced_peak(cm.corner_accumulation, T95, spec, [0.1, 0.05, 0.02], [r])
    assert peak < 4 * h * h + per_strip


@pytest.mark.xfail(
    strict=True,
    reason="boxes are chosen on rounded cell centres, so mirror corners differ (ROADMAP item 7)",
)
def test_mirror_corner_boxes_count_alike():
    # The class map is exactly symmetric under x -> 1-x and y -> 1-y, so
    # corners 00 and 11 should count alike, and so should 01 and 10.
    _, rows = cm.corner_accumulation(T95, cm.GridSpec(resolution=125), [0.02], [125])
    count = {corner: n for _, _, corner, n in rows}
    assert count["00"] == count["11"] and count["01"] == count["10"]


def test_corner_accumulation_validates_monotone_args():
    spec = cm.GridSpec(resolution=16)
    with pytest.raises(ParameterError):
        cm.corner_accumulation(T84, spec, eps_list=[0.05, 0.1], resolutions=[16, 32])
    with pytest.raises(ParameterError):
        cm.corner_accumulation(T84, spec, eps_list=[0.1], resolutions=[32, 16])


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: cm.corner_accumulation(T84, spec, [0.1, -0.1], [16, 32]),
        lambda spec: cm.corner_accumulation(T84, spec, [0.0], [16]),
        lambda spec: cm.corner_accumulation(T84, spec, [float("nan")], [16]),
        lambda spec: cm.interior_accumulation(T84, spec, (1.5, 0.5), [0.1]),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5, 0.0), [0.1]),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5, 0.5), [0.1, -0.1]),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5, 0.5), [0.0]),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5, 0.5), [float("nan")]),
        lambda spec: cm.corner_accumulation(T84, spec, [], [16]),
        lambda spec: cm.corner_accumulation(T84, spec, [0.1], []),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5, 0.5), []),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5,), [0.1]),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5, 0.5, 0.5), [0.1]),
        lambda spec: cm.interior_accumulation(T84, spec, 0.5, [0.1]),
        lambda spec: cm.corner_accumulation(T84, spec, [0.1], [16.5]),
        lambda spec: cm.corner_accumulation(T84, spec, [0.1], [16, 32.5]),
        lambda spec: cm.corner_accumulation(T84, spec, 0.1, [16]),
        lambda spec: cm.corner_accumulation(T84, spec, [0.1], 16),
        lambda spec: cm.corner_accumulation(T84, spec, ["x"], [16]),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5, 0.5), 0.1),
        lambda spec: cm.interior_accumulation(T84, spec, (0.5, 0.5), ["x"]),
    ],
)
def test_accumulation_rejects_bad_regions_before_rendering(monkeypatch, call):
    def no_render(*args, **kwargs):
        raise AssertionError("rendered a grid for invalid regions")

    monkeypatch.setattr(basins, "render_basins", no_render)
    monkeypatch.setattr(basins, "_render_rows", no_render)
    with pytest.raises(ParameterError):
        call(cm.GridSpec(resolution=16))


def test_interior_accumulation_counts_grow_with_radius_above_xi2():
    header, rows = cm.interior_accumulation(
        T94, cm.GridSpec(resolution=149), (0.75, 0.75), [0.02, 0.05, 0.1, 0.2]
    )
    assert header == ["radius", "components"]
    counts = [c for _, c in rows]
    assert counts == sorted(counts)
    assert counts[0] >= 2  # already many components arbitrarily close
    assert counts[-1] > counts[0]


def test_interior_accumulation_single_basin_stays_at_one():
    _, rows = cm.interior_accumulation(
        T80, cm.GridSpec(resolution=64), (0.75, 0.75), [0.05, 0.1, 0.2]
    )
    assert [c for _, c in rows] == [1, 1, 1]


def test_fixed_corner_state_has_zero_fingerprint():
    # The exact corner state is a fixed point that never emits excess.
    s = cm.LatticeState(sites=[0.0, 0.0])
    for _ in range(100):
        s = cm.step(s, T84)
    assert analysis._window_fingerprint(s.sites, T84) == 0.0
