import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import cascade_maps as cm
from cascade_maps import basins
from cascade_maps.basins import _bucket_fingerprints
from cascade_maps.errors import ParameterError
from cascade_maps.lattice import cascade_batch

T84 = cm.make_threshold(0.84)
T80 = cm.make_threshold(0.80)
T94 = cm.make_threshold(0.94)
T95 = cm.make_threshold(0.95)
T98 = cm.make_threshold(0.98)


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
    ],
)
def test_gridspec_validation(kwargs):
    with pytest.raises(ParameterError):
        cm.GridSpec(**kwargs)


# ----------------------------------------------------------------- rendering


def test_single_attractor_parameter_gives_one_class():
    g = cm.render_basins(T80, cm.GridSpec(resolution=64))
    assert g.n_classes == 1
    assert np.all(g.classes == 0)
    stats = cm.label_components(g, eps_list=[0.1])
    assert stats.total_components == 1
    assert all(v == 1 for v in stats.corner_counts.values())


def test_two_attractor_parameter_gives_two_classes():
    g = cm.render_basins(T84, cm.GridSpec(resolution=125))
    assert g.n_classes == 2
    assert g.class_table[0] == pytest.approx(0.07577117593436133, abs=1e-12)
    assert g.class_table[1] == pytest.approx(1.8521395199999993, abs=1e-12)
    stats = cm.label_components(g, eps_list=[0.1])
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
        assert cm.cell_fingerprint(T84, spec, i, j) == g.fingerprints[i, j]
    with pytest.raises(ParameterError):
        cm.cell_fingerprint(T84, spec, 125, 0)


@pytest.mark.parametrize("t", [T84, T94])
def test_class_map_mirror_symmetric(t):
    g = cm.render_basins(t, cm.GridSpec(resolution=101))
    assert np.array_equal(g.classes, g.classes[::-1, ::-1])
    assert np.array_equal(g.fingerprints, g.fingerprints[::-1, ::-1])


def _direct_fingerprints(t, spec):
    # Oracle: every cell of the grid stepped as one block, none reflected
    # and none merged, with the window's excesses summed in step order.
    r = spec.resolution
    ux = basins._axis_offsets(spec.x_range, r)
    uy = basins._axis_offsets(spec.y_range, r)
    u = basins._cell_offsets(ux, uy, spec, 0, r * r)
    x, e = cascade_batch(1.0 - 4.0 * (u * u), t.c1)
    total = np.zeros(r * r)
    for k in range(1, spec.transient + spec.window + 1):
        if k > 1:
            x, e = cascade_batch(4.0 * x * (1.0 - x), t.c1)
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
    # through the compactions at 32 and 64 as well.
    monkeypatch.setattr(basins, "_CHUNK_CELLS", chunk)
    grid = [(tr, w) for tr in (0, 7, 8, 9, 16) for w in (1, 12)] + [(100, 12)]
    for transient, window in grid:
        steps = dict(transient=transient, window=window)
        specs = [
            cm.GridSpec(resolution=r, **steps),
            cm.GridSpec(resolution=r, pinned_sites=(0.3,), **steps),
            cm.GridSpec(resolution=r, x_range=(0.1, 0.6), **steps),
        ]
        for t in (T84, T94, T98):
            for spec in specs:
                want = _direct_fingerprints(t, spec).tobytes()
                g = cm.render_basins(t, spec)
                assert g.fingerprints.tobytes() == want, (t.c1, spec)


def test_render_steps_each_distinct_state_once(monkeypatch):
    # Cells fall onto few exact states after their clips, and the render
    # steps each distinct state of a chunk once: at c1=0.95, r=64 the kernel
    # steps about a tenth of the nominal rows.  Every batch stays
    # column-major after the compactions.
    batches = []
    inner = basins.cascade_batch

    def spy(y, c1):
        batches.append((y.shape[0], y.flags.f_contiguous))
        return inner(y, c1)

    monkeypatch.setattr(basins, "cascade_batch", spy)
    r = 64
    spec = cm.GridSpec(resolution=r)
    cm.render_basins(T95, spec)
    steps = spec.transient + spec.window
    assert len(batches) == steps == 112
    rows = [m for m, _ in batches]
    assert sum(rows) <= 0.2 * ((r * r + 1) // 2) * steps
    assert rows[0] == (r * r + 1) // 2
    assert 1 < rows[-1] < rows[0]
    assert all(f_contiguous for _, f_contiguous in batches)


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
    spec = cm.GridSpec(resolution=499)
    ux = basins._axis_offsets(spec.x_range, spec.resolution)
    uy = basins._axis_offsets(spec.y_range, spec.resolution)

    def chunk(k0, k1):
        u = basins._cell_offsets(ux, uy, spec, k0, k1)
        basins._window_sums(u, T95.c1, spec.transient, spec.window)

    chunk(0, 100)
    chunk_peak = _traced_peak(chunk, 0, basins._CHUNK_CELLS)
    g = cm.render_basins(T95, spec)
    label_peak = _traced_peak(cm.label_components, g)
    # Both sides hold the fingerprints; labelling also holds the classes.
    assert 2 * chunk_peak < label_peak + g.classes.nbytes


def test_pinned_sites_slice():
    spec = cm.GridSpec(resolution=24, pinned_sites=(0.5,))
    assert spec.n_sites == 3
    g = cm.render_basins(T84, spec)
    assert g.n_classes >= 1
    assert cm.cell_fingerprint(T84, spec, 3, 7) == g.fingerprints[3, 7]


def test_refinement_does_not_lose_components():
    c64 = cm.label_components(cm.render_basins(T84, cm.GridSpec(resolution=64)))
    c128 = cm.label_components(cm.render_basins(T84, cm.GridSpec(resolution=128)))
    assert c128.total_components >= c64.total_components


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


def _assert_matches_ndimage(g: cm.BasinGrid) -> None:
    """Per-class ``ndimage.label`` in class order is the reference labelling."""
    ids = np.zeros(g.classes.shape, dtype=np.int32)
    counts = {}
    for k in g.class_table:
        mask = g.classes == k
        labels, count = ndimage.label(mask, structure=_CROSS)
        ids[mask] = labels[mask] + sum(counts.values())
        counts[k] = count
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
    g = cm.render_basins(T84, cm.GridSpec(resolution=64))
    stats = cm.label_components(g, point=(0.75, 0.75), radii=[1.5])
    assert stats.disk_counts[1.5] == stats.total_components


def test_label_validates_regions():
    g = cm.render_basins(T80, cm.GridSpec(resolution=16))
    with pytest.raises(ParameterError):
        cm.label_components(g, eps_list=[-0.1])
    with pytest.raises(ParameterError):
        cm.label_components(g, point=(1.5, 0.5), radii=[0.1])
    with pytest.raises(ParameterError):
        cm.label_components(g, point=(0.5, 0.5), radii=[0.0])


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
    ],
)
def test_accumulation_rejects_bad_regions_before_rendering(monkeypatch, call):
    def no_render(*args, **kwargs):
        raise AssertionError("rendered a grid for invalid regions")

    monkeypatch.setattr(basins, "render_basins", no_render)
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
    assert cm.excess_window_sum(cm.LatticeState(sites=[0.0, 0.0]), T84, 100, 12) == 0.0
