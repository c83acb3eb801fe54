"""Basin-of-attraction rendering and accumulation diagnostics.

Every grid cell launches one lattice orbit from the cell centre; after a
transient the excesses of a fixed window are summed into the cell's
fingerprint, fingerprints are bucketed into classes, and classes are split
into 4-connected components by :func:`label_components`.  The accumulation
drivers count the distinct components that meet their regions, the
finite-resolution proxy for basin components accumulating at the corners
and at interior points: :func:`corner_accumulation` its corner boxes, and
:func:`interior_accumulation` its disks.  Each driver selects and checks
its own regions.  The drivers build neither the fingerprint grid nor the
class grid: they label the class map strip by strip of whole rows, and keep
across strips only the components open on the last row (see
:func:`_strip_counts`).

Mirror symmetry is preserved exactly: on the default unit square the cell
centres are stored as offsets ``u`` from 1/2 with ``u`` exactly
antisymmetric across the grid, and the first logistic application is
evaluated as ``1 - 4u**2``, which is bit-identical for ``+u`` and ``-u``.
Reflected cells therefore run bit-identical orbits from step one, making
the class map exactly symmetric under ``x -> 1-x`` and ``y -> 1-y``, each
on its own.

So each axis is folded on its own: on an axis that spans the unit interval
only its first ``(r + 1) // 2`` cells are simulated, any other axis is
simulated whole.  The unit square simulates one quadrant.  With ``hx`` and
``hy`` the simulated cells of the x and y axes, grid row ``i >= hx`` is row
``r - 1 - i`` and column ``j >= hy`` is column ``r - 1 - j``, and
:func:`_unfold` rebuilds every grid row that is output by these
reflections: the whole grids of :func:`render_basins` and the strips of
the drivers.  The reflected cells hold bit-identical values, so the
quadrant's values are bucketed alone.  Simulated cells are numbered
``k = i*hy + j``.  Batches are column-major (m, N), or in the head one
site-0 row per x-row and (m, N - 1) of the other sites, so the cascade
sweep reads each site column as one contiguous run (the fast path of
:func:`cascade_maps.lattice.cascade_batch`).

A clip sets a site to exactly ``c1``, so cells fall onto few exact float
states: at c1=0.95, r=499 the 62,500 simulated cells hold 9,577 distinct
states at step 8 and 40 from step 64 on.  Each step is one
:func:`cascade_batch` call, which turns the logistic images ``y`` into the
next step's in place, allocating no (m, N) array, and rows whose ``y``
agree bit for bit merge.  This is exact at any step: the kernel is
elementwise over rows, and step k+1 and every step after it, excesses
included, depend on ``y_{k+1}`` alone.  The head runs each chunk of whole
x-rows, at most ``_CHUNK_CELLS`` cells (small enough to stay in cache) and
at least one x-row, on its own for ``min(8, transient)`` steps.  The array
is uni-directional, so site 0 is driven by nothing and its orbit depends
on the cell's x offset alone: the head sweeps it once per x-row and sweeps
sites 1..N-1 of every cell with that x-row's excess as their incoming
carry, which is bit-identical to sweeping all N sites at once.  It then
assembles the chunk's (m, N) rows and compacts them to the distinct ones;
an ``int32`` owner map of 4 B per cell records each cell's row.  The tail
gathers every chunk's rows into one batch, compacts it across chunks
(unless there was one chunk, which its head has just compacted) and runs
the rest of the transient once per grid, compacting again at steps 16,
32, 64, ... and at ``transient``.  The window then sums each row's
excesses from zero, in step order, with no compaction in it.

The render's working set is the owner map plus one chunk, or the merged
batch if larger.  A chunk's head peaks at 0.82 MB traced (c1=0.95, the
first 65 x 250 cells of r=499, while compacting at step 8), less than half
of what labelling the r=499 grid needs next to it.  At c1=0.95 the render
peaks at 1.16 MB traced at r=499 and 16.8 MB at r=1999, where the merged
batch holds 147,006 rows.  :func:`render_basins` then holds its two grids,
12 B per cell, and :func:`label_components` its labels next to them.  The
accumulation drivers hold instead the classes of the simulated quadrant,
4 B per simulated cell, and one strip of at most ``_STRIP_CELLS`` cells.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, _require_integer
from .lattice import _distinct, cascade_batch
from .scalar import Threshold

__all__ = [
    "GridSpec",
    "BasinGrid",
    "ComponentStats",
    "render_basins",
    "label_components",
    "corner_accumulation",
    "interior_accumulation",
]

#: Absolute fingerprint bucketing tolerance.  Super-stable attractors give
#: exactly equal sums; distinct attractors at the parameters studied differ
#: by far more than this.
CLASS_TOL = 1e-6

_UNIT = (0.0, 1.0)
_CORNERS = ("00", "01", "10", "11")

#: Cells per block when run ids are mapped to component ids in place; a
#: block bounds the gather's temporary.
_LABEL_BLOCK = 65536


def _reals(name: str, value, pair: bool = False) -> tuple:
    """The items of ``value``, which must be a sequence of reals, and a pair
    if ``pair``."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    reals = items is not None and all(isinstance(v, numbers.Real) for v in items)
    if not reals or pair and len(items) != 2:
        kind = "pair" if pair else "sequence"
        raise ParameterError(f"{name} must be a {kind} of reals, got {value!r}")
    return items


def _positive_reals(name: str, value, item: str) -> list[float]:
    """The items of a sequence of reals as floats, each (an ``item``) > 0, so not NaN."""
    items = [float(v) for v in _reals(name, value)]
    if not all(v > 0.0 for v in items):
        raise ParameterError(f"{item} must be positive")
    return items


@dataclass(frozen=True)
class GridSpec:
    """Sampling protocol for a two-axis basin slice.

    Cells are sampled at their centres.  ``pinned_sites`` holds constant
    values for sites 3..N when rendering a 2-D slice of a larger lattice.
    """

    resolution: int = 499
    x_range: tuple[float, float] = _UNIT
    y_range: tuple[float, float] = _UNIT
    pinned_sites: tuple[float, ...] = ()
    transient: int = 100
    window: int = 12

    def __post_init__(self):
        for name, least in (("resolution", 2), ("transient", 0), ("window", 1)):
            _require_integer(name, getattr(self, name), least)
        for name in ("x_range", "y_range"):
            lo, hi = _reals(name, getattr(self, name), pair=True)
            if not (0.0 <= lo < hi <= 1.0):
                raise ParameterError("domain ranges must be sub-intervals of [0, 1]")
        if any(not 0.0 <= p <= 1.0 for p in _reals("pinned_sites", self.pinned_sites)):
            raise ParameterError("pinned site values must lie in [0, 1]")

    @property
    def n_sites(self) -> int:
        return 2 + len(self.pinned_sites)


@dataclass(frozen=True)
class BasinGrid:
    """Rendered fingerprints and their bucketed class labels.

    Arrays are indexed ``[i, j]`` with ``i`` the x cell index and ``j`` the
    y cell index.  ``class_table`` maps each dense class id to its
    representative (lowest) fingerprint; ids are assigned in ascending
    representative order.
    """

    spec: GridSpec
    fingerprints: np.ndarray
    classes: np.ndarray
    class_table: dict[int, float]

    @property
    def n_classes(self) -> int:
        return len(self.class_table)


@dataclass(frozen=True)
class ComponentStats:
    """4-connected components of the class map."""

    component_ids: np.ndarray  # 1-based ids over the full grid
    class_component_counts: dict[int, int]
    total_components: int


def _axis_offsets(axis_range: tuple[float, float], resolution: int) -> np.ndarray:
    """Cell-centre offsets from 1/2 along one axis.

    On the full unit axis the offsets are computed from exact integer
    numerators, so ``u[R-1-i] == -u[i]`` holds bit-exactly.
    """
    lo, hi = axis_range
    r = resolution
    if (lo, hi) == _UNIT:
        num = 2.0 * np.arange(r) + (1.0 - r)
        return num / (2.0 * r)
    width = hi - lo
    return lo + (np.arange(r) + 0.5) * (width / r) - 0.5


def _axis_centers(axis_range: tuple[float, float], resolution: int) -> np.ndarray:
    return _axis_offsets(axis_range, resolution) + 0.5


#: Most cells per chunk, in whole x-rows and at least one.  16384 cells
#: keep each (m, 2) array at 256 KB, so a chunk stays in a core's L2 cache
#: for all of its steps.
_CHUNK_CELLS = 16384

#: The first compaction step: each chunk is stepped this far on its own (or
#: to the transient, if shorter), and the grid's batch is compacted again at
#: twice, four times, ... it, and at the transient.
_FIRST_COMPACTION = 8


def _chunk_head(
    ux: np.ndarray, uy: np.ndarray, spec: GridSpec, c1: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``steps`` steps of the cells on x offsets ``ux`` by ``uy``.

    Returns the distinct (m, N) images of step ``steps + 1`` and each
    cell's row.  A pin's offset is ``pin - 0.5`` in the pin's own type, so
    that the pinned site runs a direct simulation's orbit bit for bit.
    """
    rows, hy = ux.size, uy.size
    drive = (1.0 - 4.0 * (ux * ux))[:, None]
    y = np.empty((rows * hy, spec.n_sites), order="F")
    y[:, 1].reshape(rows, hy)[...] = 1.0 - 4.0 * (uy * uy)
    pins = np.array([np.float64(p - 0.5) for p in spec.pinned_sites])
    y[:, 2:] = 1.0 - 4.0 * (pins * pins)
    cells = y[:, 1:]
    carry = np.empty((rows, hy))
    for _ in range(steps):
        carry[...] = cascade_batch(drive, c1)[:, None]
        cascade_batch(cells, c1, carry.reshape(-1))
    y[:, 0].reshape(rows, hy)[...] = drive
    return _distinct(y)


def _window_sums(
    t: Threshold, spec: GridSpec, ux: np.ndarray, uy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Window sums of the cells on axis offsets ``ux`` by ``uy``: per-row
    sums and each cell's ``int32`` row, so that the fingerprint of cell
    ``(i, j)`` is ``sums[owner[i*len(uy) + j]]``.
    """
    hx, hy = ux.size, uy.size
    transient = spec.transient
    k = min(_FIRST_COMPACTION, transient)
    owner = np.empty(hx * hy, dtype=np.int32)
    ys = []
    rows = 0
    per_chunk = max(1, _CHUNK_CELLS // hy)
    for i0 in range(0, hx, per_chunk):
        i1 = min(i0 + per_chunk, hx)
        y, inv = _chunk_head(ux[i0:i1], uy, spec, t.c1, k)
        inv += rows
        owner[i0 * hy : i1 * hy] = inv
        del inv
        rows += y.shape[0]
        ys.append(y)

    # The tail: every chunk's rows as one batch, and ``row`` mapping
    # each gathered row to the batch row that now carries its images.
    y, row = ys[0], np.arange(rows)
    if len(ys) > 1:
        y, row = _distinct(np.concatenate(ys))
    del ys
    while k < transient:
        stop = min(2 * k, transient)
        for _ in range(k, stop):
            cascade_batch(y, t.c1)
        k = stop
        y, inv = _distinct(y)
        row = inv[row]
    sums = np.zeros(y.shape[0])
    for _ in range(spec.window):
        sums += cascade_batch(y, t.c1)
    return sums[row], owner


def _render_rows(
    t: Threshold, spec: GridSpec
) -> tuple[np.ndarray, np.ndarray, dict[int, float], np.ndarray]:
    """The simulated quadrant of the render, before any grid is assembled.

    Returns the per-row window sums, the per-row classes and the class
    table, and the owner map: the (hx, hy) batch row of each simulated
    cell, ``hx`` and ``hy`` being the simulated cells of the x and y axes.
    """
    r = spec.resolution
    ux, uy = (
        _axis_offsets(a, r)[: (r + 1) // 2 if tuple(a) == _UNIT else r]
        for a in (spec.x_range, spec.y_range)
    )
    sums, owner = _window_sums(t, spec, ux, uy)
    row_classes, class_table = _bucket_fingerprints(sums)
    return sums, row_classes, class_table, owner.reshape(ux.size, uy.size)


def _unfold(quadrant: np.ndarray, r: int, i0: int, i1: int) -> np.ndarray:
    """Grid rows ``i0 .. i1 - 1`` of an ``r`` by ``r`` grid, rebuilt from its
    simulated quadrant: an axis of ``r`` quadrant cells is whole, any other
    is folded.

    Columns are mirrored from the quadrant's rows, never within the output:
    an overlapping copy would make numpy buffer it.
    """
    hx, hy = quadrant.shape
    mid = min(max(i0, hx), i1)
    out = np.empty((i1 - i0, r), dtype=quadrant.dtype)
    for rows, source in (
        (out[: mid - i0], quadrant[i0:mid]),
        (out[mid - i0 :], quadrant[r - i1 : r - mid][::-1]),
    ):
        rows[:, :hy] = source
        rows[:, hy:] = source[:, : r - hy][:, ::-1]
    return out


def render_basins(t: Threshold, spec: GridSpec) -> BasinGrid:
    """Render the fingerprint grid and bucket it into classes.

    Deterministic: cells are pure functions of their centre.  The per-row
    window sums hold every value the cells hold, so they are bucketed alone
    and each cell takes its row's class.
    """
    r = spec.resolution
    sums, row_classes, class_table, owner = _render_rows(t, spec)
    # Fingerprints first: their 8-B quadrant is freed before the class grid is made.
    fingerprints, classes = (_unfold(v[owner], r, 0, r) for v in (sums, row_classes))
    return BasinGrid(
        spec=spec, fingerprints=fingerprints, classes=classes, class_table=class_table
    )


def _bucket_fingerprints(fingerprints: np.ndarray) -> tuple[np.ndarray, dict[int, float]]:
    """Greedy absolute-tolerance bucketing of fingerprint values.

    Buckets are grown over the sorted distinct values; a new bucket starts
    when a value exceeds the current representative (the bucket's lowest
    member) by more than CLASS_TOL.  Ids are dense and ascend with the
    representative fingerprint.
    """
    values = np.sort(fingerprints, axis=None)
    # Dropping the repeats frees the full sorted copy before the classes are built.
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    reps: list[float] = []
    for v in values:
        if not reps or v > reps[-1] + CLASS_TOL:
            reps.append(float(v))
    # A value belongs to the bucket of the last representative not above it.
    edges = np.array(reps[1:])
    classes = np.searchsorted(edges, fingerprints, side="right").astype(np.int32)
    return classes, {k: rep for k, rep in enumerate(reps)}


def _run_graph(
    classes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row runs of equal class in a rectangular class map, and the edges between them.

    Returns each cell's run id (``int32``, raster order), each run's class,
    and the edges ``(upper, lower)``: one per pair of same-class runs that
    overlap in adjacent rows, taken at the first column of the overlap.
    """
    cols = classes.shape[1]
    flat = classes.ravel()
    start = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=start[1:])
    start[::cols] = True
    run = start.astype(np.int32)
    np.cumsum(run, out=run)
    run -= 1
    rows = start.reshape(classes.shape)
    joined = rows[1:] | rows[:-1]
    joined &= classes[1:] == classes[:-1]
    lower = np.flatnonzero(joined) + cols
    return run, np.compress(start, flat), np.take(run, lower - cols), np.take(run, lower)


def _join(parent: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """Union-find over the edges ``edges = [a, b]``, from the forest ``parent``.

    Hooks each edge's larger root onto its smaller one and pointer-jumps,
    until no edge joins two roots.  Returns each node's root, the least
    node of its set.  ``edges`` is emptied, so that the caller holds no
    copy of the edges while the loop narrows them.
    """
    a, b = edges
    edges.clear()
    while True:
        a, b = np.take(parent, a), np.take(parent, b)
        keep = a != b
        a, b = a[keep], b[keep]
        if not a.size:
            return parent
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = np.take(parent, parent)
            if np.array_equal(grand, parent):
                break
            parent = grand


def _label_cells(classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component ids of a rectangular class map and each component's class.

    Union-find (:func:`_join`) over the row runs of :func:`_run_graph`;
    each root is its component's first run in raster order, and the roots
    are numbered in that order, so that ids ascend with each component's
    first cell.
    """
    run, run_class, *edges = _run_graph(classes)
    parent = _join(np.arange(run_class.size, dtype=np.int32), edges)
    roots = np.flatnonzero(parent == np.arange(parent.size, dtype=np.int32))
    comp = np.empty(parent.size, dtype=np.int32)
    comp[roots] = np.arange(1, roots.size + 1, dtype=np.int32)
    # Indexing, not np.take, below: np.take copies int32 indices to intp.
    comp = comp[parent]
    for k0 in range(0, run.size, _LABEL_BLOCK):
        block = run[k0 : k0 + _LABEL_BLOCK]
        block[...] = comp[block]
    return run.reshape(classes.shape), run_class[roots]


def label_components(g: BasinGrid) -> ComponentStats:
    """4-connected labelling of same-class cells, all classes in one pass.

    Union-find over the row runs of equal class (see :func:`_label_cells`).
    Component ids are 1-based and ascend with each component's first cell
    in raster order.
    """
    component_ids, component_class = _label_cells(g.classes)
    counts = np.bincount(component_class, minlength=g.n_classes)
    return ComponentStats(
        component_ids=component_ids,
        class_component_counts={k: int(counts[k]) for k in g.class_table},
        total_components=int(counts.sum()),
    )


#: Most cells per strip of the accumulation drivers, in whole grid rows and
#: at least one.  Labelling a strip peaks at about 20 B per cell, and an
#: r = 499 grid is four strips, so there are few seams to stitch.
_STRIP_CELLS = 65536


def _strip_counts(strips) -> list[int]:
    """Distinct 4-connected components that meet each region of a class map
    given strip by strip (row-by-row cluster labelling, as in Hoshen and
    Kopelman, Phys. Rev. B 14 (1976) 3438).

    ``strips`` yields ``(classes, regions)`` from the top of the map down:
    ``classes`` is the map's next whole rows (``int32``), and ``regions``
    one index into them per region, the same regions in the same order in
    every strip.  Each strip is labelled on its own by :func:`_label_cells`.
    Its components and the components still open above it are the nodes of
    one :func:`_join`, whose edges join the equal-class cells that face each
    other across the seam.  A component that does not reach the strip's
    last row can grow no further: it is counted in every region it met, and
    dropped.  So only the last row's open components and the regions each
    has met are kept across strips, at most one per cell of a row, never a
    grid of labels.
    """
    count = 0
    seam = None
    for classes, regions in strips:
        if seam is None:
            # Above the first strip: no open component, and a row of no class.
            seam = np.full(classes.shape[1], -1, np.int32), np.zeros(classes.shape[1], np.int32)
            open_met = np.zeros((len(regions), 0), bool)
        ids, component_class = _label_cells(classes)
        # Nodes 0..m-1 are the open components; the strip's component k
        # (1-based) is node m - 1 + k.
        m = open_met.shape[1]
        nodes = np.arange(m + component_class.size, dtype=np.int32)
        # Only the count is read; the array would stay alive through the strip.
        del component_class
        ids += m - 1
        same = seam[0] == classes[0]
        root = _join(nodes, [seam[1][same], ids[0][same]])
        # Marks go to roots only: met[k, x] is whether root x met region k.
        met = np.zeros((len(regions), root.size), bool)
        np.logical_or.at(met.T, root[:m], open_met.T)
        for k, region in enumerate(regions):
            met[k, root[ids[region].ravel()]] = True
        last = root[ids[-1]]
        del ids
        reach = np.zeros(root.size, bool)
        reach[last] = True
        kept = np.flatnonzero(reach)
        open_met = met[:, kept]
        count = count + met.sum(axis=1) - open_met.sum(axis=1)
        # The roots on the last row stay open, renumbered from 0.
        number = np.empty(root.size, np.int32)
        number[kept] = np.arange(kept.size, dtype=np.int32)
        seam = classes[-1].copy(), number[last]
    return (count + open_met.sum(axis=1)).tolist()


def _region_counts(t: Threshold, spec: GridSpec, regions) -> list[int]:
    """Render ``spec`` and count the distinct components that meet each
    region, strip by strip: ``regions(rows)`` indexes every region within
    the grid rows of the slice ``rows`` (see :func:`_strip_counts`).
    Neither the fingerprint grid nor the class grid is built."""
    _, row_classes, _, owner = _render_rows(t, spec)
    quadrant = row_classes[owner]
    del owner
    r = spec.resolution
    step = max(1, _STRIP_CELLS // r)
    strips = (slice(i0, min(i0 + step, r)) for i0 in range(0, r, step))
    return _strip_counts((_unfold(quadrant, r, s.start, s.stop), regions(s)) for s in strips)


def _box_sides(centres: np.ndarray, eps: float) -> tuple[tuple[int, int], tuple[int, int]]:
    """The cells ``(start, stop)`` of an axis whose centre has ``c <= eps``
    and those whose centre has ``c >= 1 - eps``.  Cell centres ascend along
    an axis, so the first are a prefix of it and the second a suffix."""
    n = centres.size
    near = int(np.count_nonzero(centres <= eps))
    far = int(np.count_nonzero(centres >= 1.0 - eps))
    return (0, near), (n - far, n)


def corner_accumulation(
    t: Threshold,
    base_spec: GridSpec,
    eps_list: Sequence[float],
    resolutions: Sequence[int],
) -> tuple[list[str], list[tuple]]:
    """Corner-box component counts across grid refinements.

    Returns a (header, rows) table with one row per resolution, box size
    and corner, ready for CSV export.  The box of side eps at corner ``ab``
    holds the cells whose centre has ``cx <= eps`` (``a`` = 0) or
    ``cx >= 1 - eps`` (``a`` = 1), and likewise ``cy`` for ``b``; it counts
    the distinct components with a cell in it.  Each grid is counted strip
    by strip (:func:`_region_counts`), so a grid needs the render's working
    set, then 4 B per simulated cell and one strip, never a full grid: at
    c1=0.95 the call peaks at 1.54 MB traced for r = 125, 249, 499, set by
    the r=499 strips, and at 16.8 MB for r=1999, set by the render.
    """
    eps_list = _positive_reals("eps_list", eps_list, "corner box size")
    resolutions = _reals("resolutions", resolutions)
    resolutions = [_require_integer("resolution", r, 2) for r in resolutions]
    if not eps_list or not resolutions:
        raise ParameterError("eps_list and resolutions must not be empty")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ParameterError("eps_list must be strictly decreasing")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ParameterError("resolutions must be strictly increasing")
    header = ["resolution", "eps", "corner", "components"]
    rows: list[tuple] = []
    for r in resolutions:
        spec = dataclasses.replace(base_spec, resolution=r)
        cx, cy = _axis_centers(spec.x_range, r), _axis_centers(spec.y_range, r)
        boxes = []
        for eps in eps_list:
            x_sides, y_sides = _box_sides(cx, eps), _box_sides(cy, eps)
            boxes += [(x_sides[int(a)], slice(*y_sides[int(b)])) for a, b in _CORNERS]

        def in_strip(strip_rows):
            i0 = strip_rows.start
            return [(slice(max(a - i0, 0), max(b - i0, 0)), y) for (a, b), y in boxes]

        counts = _region_counts(t, spec, in_strip)
        keys = [(eps, corner) for eps in eps_list for corner in _CORNERS]
        rows += [(r, eps, corner, n) for (eps, corner), n in zip(keys, counts)]
    return header, rows


def interior_accumulation(
    t: Threshold,
    spec: GridSpec,
    point: tuple[float, float],
    radii: Sequence[float],
) -> tuple[list[str], list[tuple]]:
    """Component counts over disks around an interior point (one render).

    The disk of a radius holds the cells whose centre lies within it, and
    it counts the distinct components with a cell in it.  The grid is
    counted strip by strip, as in :func:`corner_accumulation`; each strip
    also holds its cells' squared distances, 8 B per cell, and one mask per
    radius.
    """
    radii = _positive_reals("radii", radii, "disk radius")
    if not radii:
        raise ParameterError("radii must not be empty")
    px, py = _reals("point", point, pair=True)
    if not (0.0 < px < 1.0 and 0.0 < py < 1.0):
        raise ParameterError("accumulation point must lie in the open square")
    cx = _axis_centers(spec.x_range, spec.resolution)
    cy = _axis_centers(spec.y_range, spec.resolution)

    def disks(rows):
        dist2 = (cx[rows, None] - px) ** 2 + (cy[None, :] - py) ** 2
        return [dist2 <= radius * radius for radius in radii]

    return ["radius", "components"], list(zip(radii, _region_counts(t, spec, disks)))
