"""Basin-of-attraction rendering and accumulation diagnostics.

Every grid cell launches one lattice orbit from the cell centre; after a
transient the excesses of a fixed window are summed into the cell's
fingerprint, fingerprints are bucketed into classes, and classes are split
into 4-connected components.  Corner boxes and interior disks then count
how many distinct components they meet, the finite-resolution proxy for
basin components accumulating at the corners and at interior points.

Mirror symmetry is preserved exactly: on the default unit square the cell
centres are stored as offsets ``u`` from 1/2 with ``u`` exactly
antisymmetric across the grid, and the first logistic application is
evaluated as ``1 - 4u**2``, which is bit-identical for ``+u`` and ``-u``.
Reflected cells therefore run bit-identical orbits from step one, making
the class map exactly symmetric under ``(x, y) -> (1-x, 1-y)``.

Cells are numbered ``k = i*r + j`` and simulated in fixed chunks of
``_CHUNK_CELLS`` cells, small enough for a chunk's arrays to stay in cache
for all of its steps.  Chunks are independent, each writing its own slice,
so the working set does not grow with the grid.  On the unit square cell
``k`` mirrors cell ``r*r - 1 - k``, so only the first half of the cells is
simulated and the rest is reflected.  A chunk's (m, N) arrays are
column-major, so the cascade sweep reads each site column as one contiguous
run (the fast path of :func:`cascade_maps.lattice.cascade_batch`).

A clip sets a site to exactly ``c1``, so cells fall onto few exact float
states: at c1=0.95, r=499 the 124,501 simulated cells hold 17,850 distinct
states after 5 steps, 1,273 after 17 and 40 after 64.  Each chunk is
compacted to its distinct rows at steps 8, 16, 32, ..., so bit-identical
cells are stepped once.  This is exact: the kernel is elementwise over rows
and every cell's excesses are summed in the same order, so no fingerprint
depends on it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import numpy.ma  # noqa: F401  # np.unique imports it on first call; do so at import

from .errors import ParameterError
from .lattice import _distinct_rows, cascade_batch
from .scalar import Threshold

__all__ = [
    "GridSpec",
    "BasinGrid",
    "ComponentStats",
    "render_basins",
    "cell_fingerprint",
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
        if self.resolution < 2:
            raise ParameterError("resolution must be >= 2")
        for lo, hi in (self.x_range, self.y_range):
            if not (0.0 <= lo < hi <= 1.0):
                raise ParameterError("domain ranges must be sub-intervals of [0, 1]")
        if any(not 0.0 <= p <= 1.0 for p in self.pinned_sites):
            raise ParameterError("pinned site values must lie in [0, 1]")
        if self.transient < 0:
            raise ParameterError("transient must be >= 0")
        if self.window < 1:
            raise ParameterError("window must be >= 1")

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
    """4-connected components of the class map plus accumulation counts."""

    component_ids: np.ndarray  # 1-based ids over the full grid
    class_component_counts: dict[int, int]
    total_components: int
    corner_counts: dict[tuple[str, float], int]
    disk_counts: dict[float, int]
    point: Optional[tuple[float, float]]


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


def _window_sums(u: np.ndarray, c1: float, transient: int, window: int) -> np.ndarray:
    """Fingerprints for a block of cells given centre offsets ``u`` (m, N).

    The first step maps each site through ``1 - 4u**2`` (the symmetric form
    of the logistic map at ``1/2 + u``), computed in place: ``u`` is
    overwritten.  Later steps evaluate the standard form ``(4x)(1 - x)``
    into one reused buffer, taking ``1 - x`` in place of the spent state.

    Bit-identical cells are stepped once.  A clip sets a site to exactly
    ``c1``, so cells fall onto few exact states; at steps 8, 16, 32, ...
    the batch is compacted to its distinct rows, and ``owner`` maps each
    cell to the row that carries its state.  The kernel is elementwise over
    rows and each cell's excesses are summed in step order, so this is
    exact: every fingerprint equals that of the cell stepped on its own.

    A chunk of ``_CHUNK_CELLS`` cells peaks at about 1.34 MB traced (c1 =
    0.95, while compacting at step 8), less than half of what labelling
    the r = 499 grid needs next to it, so labelling, not the render, sets
    the peak of a render-and-label command.
    """
    y = u
    np.multiply(y, y, out=y)
    np.multiply(4.0, y, out=y)
    np.subtract(1.0, y, out=y)
    x, e = cascade_batch(y, c1)
    owner = np.arange(u.shape[0])
    total = np.zeros(u.shape[0])
    if transient < 1:
        total += e
    k = 1
    compact_at = 8
    while k < transient + window:
        if k == compact_at:
            first, inv = _distinct_rows(x)
            x = np.asfortranarray(x[first])
            owner = inv[owner]
            y = np.empty_like(x)
            compact_at *= 2
        np.multiply(4.0, x, out=y)
        np.subtract(1.0, x, out=x)
        np.multiply(y, x, out=y)
        x, e = cascade_batch(y, c1)
        k += 1
        if k > transient:
            total += e[owner]
    return total


#: Cells per chunk.  16384 cells keep each (m, 2) array at 256 KB, so a
#: chunk stays in a core's L2 cache for all of its steps.
_CHUNK_CELLS = 16384


def _cell_offsets(
    ux: np.ndarray, uy: np.ndarray, spec: GridSpec, k0: int, k1: int
) -> np.ndarray:
    """Column-major offsets array (m, N) for cells ``k0 <= k < k1``,
    ``k = i*len(uy) + j``."""
    i, j = np.divmod(np.arange(k0, k1), uy.size)
    u = np.empty((k1 - k0, spec.n_sites), order="F")
    u[:, 0] = ux[i]
    u[:, 1] = uy[j]
    for k, pinned in enumerate(spec.pinned_sites):
        u[:, 2 + k] = pinned - 0.5
    return u


def render_basins(t: Threshold, spec: GridSpec) -> BasinGrid:
    """Render the fingerprint grid and bucket it into classes.

    Deterministic: cells are pure functions of their centre, and each fixed
    chunk of ``_CHUNK_CELLS`` cells writes a disjoint slice.  On the unit
    square only the first ``(r*r + 1) // 2`` cells are simulated; the rest
    are their exact mirror images.  Within a chunk, bit-identical cells are
    stepped once, which changes no bit (see the module docstring).
    """
    r = spec.resolution
    ux = _axis_offsets(spec.x_range, r)
    uy = _axis_offsets(spec.y_range, r)
    cells = r * r
    mirrored = (*spec.x_range, *spec.y_range) == _UNIT + _UNIT
    n = (cells + 1) // 2 if mirrored else cells
    flat = np.empty(cells)
    for k0 in range(0, n, _CHUNK_CELLS):
        k1 = min(k0 + _CHUNK_CELLS, n)
        u = _cell_offsets(ux, uy, spec, k0, k1)
        flat[k0:k1] = _window_sums(u, t.c1, spec.transient, spec.window)
    flat[n:] = flat[: cells - n][::-1]

    fingerprints = flat.reshape(r, r)
    classes, class_table = _bucket_fingerprints(fingerprints)
    return BasinGrid(
        spec=spec, fingerprints=fingerprints, classes=classes, class_table=class_table
    )


def cell_fingerprint(t: Threshold, spec: GridSpec, i: int, j: int) -> float:
    """Re-simulate a single cell through the renderer's exact code path."""
    r = spec.resolution
    if not (0 <= i < r and 0 <= j < r):
        raise ParameterError("cell index out of range")
    ux = _axis_offsets(spec.x_range, r)
    uy = _axis_offsets(spec.y_range, r)
    k = i * r + j
    u = _cell_offsets(ux, uy, spec, k, k + 1)
    return float(_window_sums(u, t.c1, spec.transient, spec.window)[0])


def _bucket_fingerprints(fingerprints: np.ndarray) -> tuple[np.ndarray, dict[int, float]]:
    """Greedy absolute-tolerance bucketing of fingerprint values.

    Buckets are grown over the sorted unique values; a new bucket starts
    when a value exceeds the current representative (the bucket's lowest
    member) by more than CLASS_TOL.  Ids are dense and ascend with the
    representative fingerprint.
    """
    uniq = np.unique(fingerprints)
    reps: list[float] = []
    for v in uniq:
        if not reps or v > reps[-1] + CLASS_TOL:
            reps.append(float(v))
    # A value belongs to the bucket of the last representative not above it.
    edges = np.array(reps[1:])
    classes = np.searchsorted(edges, fingerprints, side="right").astype(np.int32)
    return classes, {k: rep for k, rep in enumerate(reps)}


def _check_regions(
    eps_list: Sequence[float],
    point: Optional[tuple[float, float]],
    radii: Sequence[float],
) -> None:
    """Reject the corner boxes and disks that no grid can count (NaN included)."""
    if not all(eps > 0.0 for eps in eps_list):
        raise ParameterError("corner box size must be positive")
    if point is not None:
        px, py = point
        if not (0.0 < px < 1.0 and 0.0 < py < 1.0):
            raise ParameterError("accumulation point must lie in the open square")
        if not all(radius > 0.0 for radius in radii):
            raise ParameterError("disk radius must be positive")


def _run_graph(
    classes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row runs of equal class in a square class map, and the edges between them.

    Returns each cell's run id (``int32``, raster order), each run's class,
    and the edges ``(upper, lower)``: one per pair of same-class runs that
    overlap in adjacent rows, taken at the first column of the overlap.
    """
    r = classes.shape[0]
    flat = classes.ravel()
    start = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=start[1:])
    start[::r] = True
    run = start.astype(np.int32)
    np.cumsum(run, out=run)
    run -= 1
    rows = start.reshape(r, r)
    joined = rows[1:] | rows[:-1]
    joined &= classes[1:] == classes[:-1]
    lower = np.flatnonzero(joined) + r
    return run, np.compress(start, flat), np.take(run, lower - r), np.take(run, lower)


def _label_cells(classes: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Component ids of a square class map and the component count per class.

    Union-find over the row runs of :func:`_run_graph` hooks each edge's
    larger root onto its smaller one and pointer-jumps, until no edge joins
    two roots; each root is then its component's first run in raster order.
    """
    run, run_class, a, b = _run_graph(classes)
    parent = np.arange(run_class.size, dtype=np.int32)
    while True:
        a, b = np.take(parent, a), np.take(parent, b)
        keep = a != b
        a, b = a[keep], b[keep]
        if not a.size:
            break
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = np.take(parent, parent)
            if np.array_equal(grand, parent):
                break
            parent = grand

    # Number the roots by class, then by first cell: ids ascend in raster
    # order within a class, one class after another.
    roots = np.flatnonzero(parent == np.arange(parent.size, dtype=np.int32))
    root_class = run_class[roots]
    comp = np.empty(parent.size, dtype=np.int32)
    comp[roots[np.argsort(root_class, kind="stable")]] = np.arange(
        1, roots.size + 1, dtype=np.int32
    )
    # Indexing, not np.take, below: np.take copies int32 indices to intp.
    comp = comp[parent]
    for k0 in range(0, run.size, _LABEL_BLOCK):
        block = run[k0 : k0 + _LABEL_BLOCK]
        block[...] = comp[block]
    return run.reshape(classes.shape), np.bincount(root_class, minlength=n_classes)


def label_components(
    g: BasinGrid,
    eps_list: Sequence[float] = (),
    point: Optional[tuple[float, float]] = None,
    radii: Sequence[float] = (),
) -> ComponentStats:
    """4-connected labelling of same-class cells, all classes in one pass.

    Union-find over the row runs of equal class (see :func:`_label_cells`).
    Component ids are 1-based: the components of class 0 come first, then
    those of class 1 and so on, and within a class they ascend with their
    first cell in raster order.

    ``eps_list`` requests counts of distinct components meeting each corner
    box of side eps (all four corners); ``point`` and ``radii`` request
    counts over grid-rasterised disks.  Components are counted as meeting a
    region when any member cell centre falls inside it.
    """
    _check_regions(eps_list, point, radii)
    r = g.spec.resolution
    component_ids, counts = _label_cells(g.classes, g.n_classes)
    class_counts = {k: int(counts[k]) for k in g.class_table}

    cx = _axis_centers(g.spec.x_range, r)
    cy = _axis_centers(g.spec.y_range, r)

    corner_counts: dict[tuple[str, float], int] = {}
    for eps in eps_list:
        lo_x, hi_x = cx <= eps, cx >= 1.0 - eps
        lo_y, hi_y = cy <= eps, cy >= 1.0 - eps
        for corner, mx, my in (
            ("00", lo_x, lo_y),
            ("01", lo_x, hi_y),
            ("10", hi_x, lo_y),
            ("11", hi_x, hi_y),
        ):
            sub = component_ids[np.ix_(mx, my)]
            corner_counts[(corner, float(eps))] = int(np.unique(sub).size)

    disk_counts: dict[float, int] = {}
    if point is not None:
        px, py = point
        dist2 = (cx[:, None] - px) ** 2 + (cy[None, :] - py) ** 2
        for radius in radii:
            sel = component_ids[dist2 <= radius * radius]
            disk_counts[float(radius)] = int(np.unique(sel).size)

    return ComponentStats(
        component_ids=component_ids,
        class_component_counts=class_counts,
        total_components=int(counts.sum()),
        corner_counts=corner_counts,
        disk_counts=disk_counts,
        point=point,
    )


def corner_accumulation(
    t: Threshold,
    base_spec: GridSpec,
    eps_list: Sequence[float],
    resolutions: Sequence[int],
) -> tuple[list[str], list[tuple]]:
    """Corner-box component counts across grid refinements.

    Returns a (header, rows) table with one row per resolution, box size
    and corner, ready for CSV export.
    """
    eps_list = [float(e) for e in eps_list]
    resolutions = [int(r) for r in resolutions]
    if not eps_list or not resolutions:
        raise ParameterError("eps_list and resolutions must not be empty")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ParameterError("eps_list must be strictly decreasing")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ParameterError("resolutions must be strictly increasing")
    _check_regions(eps_list, None, ())
    header = ["resolution", "eps", "corner", "components"]
    rows: list[tuple] = []
    for r in resolutions:
        spec = dataclasses.replace(base_spec, resolution=r)
        stats = label_components(render_basins(t, spec), eps_list)
        for eps in eps_list:
            for corner in _CORNERS:
                rows.append((r, eps, corner, stats.corner_counts[(corner, eps)]))
    return header, rows


def interior_accumulation(
    t: Threshold,
    spec: GridSpec,
    point: tuple[float, float],
    radii: Sequence[float],
) -> tuple[list[str], list[tuple]]:
    """Component counts over disks around an interior point (one render)."""
    radii = [float(x) for x in radii]
    if not radii:
        raise ParameterError("radii must not be empty")
    _check_regions((), point, radii)
    stats = label_components(render_basins(t, spec), point=point, radii=radii)
    header = ["radius", "components"]
    rows = [(radius, stats.disk_counts[radius]) for radius in radii]
    return header, rows
