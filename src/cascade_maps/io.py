"""Stable file formats: CSV tables and raw PGM/PPM images.

Real numbers are written in shortest round-trip form, so a written value
parses back to the identical double.  CSV rows may come from any iterable
(a lazy ``zip`` included) and are written one at a time through the
``csv`` module.  The basin CSV of :func:`write_basin_csv` skips the rows:
each distinct value is formatted once with its separator.  ``j`` and
``y`` depend on the grid column alone, so they fill one row template per
table, and ``i`` and ``x`` on the grid row alone, so each grid row repeats
one text of each.  The fingerprint and class texts come from one gather
per chunk of whole grid rows through a vocabulary of texts, and each grid
row is one ``"".join`` of its template, so the writer holds at most one
chunk of codes and texts and one row's text in memory.  Images are binary
"P5"/"P6" with the grid transposed so that x grows to the right and y
grows upward.
The colour palette sweeps class hues from blue (lowest fingerprint class)
down to red (highest), each rounded to the nearest of a 12-colour wheel.
"""

from __future__ import annotations

import colorsys
import csv
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .basins import BasinGrid, _axis_centers

__all__ = [
    "format_real",
    "write_rows",
    "write_csv",
    "write_basin_csv",
    "write_image",
]


def format_real(value: float) -> str:
    """Shortest decimal form of a double that parses back bit-exactly."""
    return repr(float(value))


def _format_field(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format_real(value)
    return str(value)


#: Cells formatted per chunk of a basin table; a chunk is a run of whole
#: grid rows, at least one, so this bounds the writer's memory for r <= 16384.
_CHUNK_ROWS = 16384

_BASIN_HEADER = ("i", "j", "x", "y", "fingerprint", "class")


class _BasinTable:
    """The basin CSV rows of a grid, one per cell ``k = i*r + j``.

    A row is ``(i, j, x, y, fingerprint, class)``, with ``(x, y)`` the cell
    centre.  Iterating yields these rows as tuples of numpy scalars, while
    :func:`write_rows` writes the table without building them.
    """

    __slots__ = ("grid",)

    def __init__(self, grid: BasinGrid):
        self.grid = grid

    def __iter__(self) -> Iterator[tuple]:
        grid = self.grid
        r = grid.spec.resolution
        ii, jj = np.divmod(np.arange(r * r), r)
        return zip(
            ii,
            jj,
            _axis_centers(grid.spec.x_range, r)[ii],
            _axis_centers(grid.spec.y_range, r)[jj],
            grid.fingerprints.ravel(),
            grid.classes.ravel(),
        )

    def write(self, fh: TextIO) -> None:
        """Write the rows as CSV text, with no header.

        Every field text ends in its ``","`` or ``"\\r\\n"``.  ``i`` and
        ``x`` depend on the grid row alone and ``j`` and ``y`` on the column
        alone, so each grid row is written from one row template of
        ``6 r`` texts whose ``j`` and ``y`` slots are filled once per table.
        Each row sets its ``i`` and ``x`` slots by list repetition and its
        fingerprint and class slots from one gather per chunk of whole grid
        rows through a vocabulary of texts: the fingerprint's over its
        distinct 64-bit patterns (one sort per table, so ``-0.0`` stays
        apart from ``0.0`` and NaN payloads from each other), then the
        class's over ``range(n_classes)``.  Each row is then one
        ``"".join`` of its template.
        """
        grid = self.grid
        r = grid.spec.resolution
        keys = np.sort(grid.fingerprints.view(np.int64), axis=None)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        vocab = np.array(
            [format_real(v) + "," for v in keys.view(np.float64).tolist()]
            + [f"{k}\r\n" for k in range(grid.n_classes)],
            dtype=object,
        )
        x_texts, y_texts = (
            [format_real(v) + "," for v in _axis_centers(a, r).tolist()]
            for a in (grid.spec.x_range, grid.spec.y_range)
        )
        row = [""] * (6 * r)
        row[1::6] = [f"{j}," for j in range(r)]
        row[3::6] = y_texts
        step = max(1, _CHUNK_ROWS // r)
        for i0 in range(0, r, step):
            i1 = min(i0 + step, r)
            codes = np.empty((i1 - i0, 2, r), dtype=np.intp)
            codes[:, 0] = np.searchsorted(keys, grid.fingerprints[i0:i1].view(np.int64))
            codes[:, 1] = grid.classes[i0:i1] + keys.size
            for i, (fingerprints, classes) in enumerate(vocab.take(codes).tolist(), i0):
                row[0::6] = [f"{i},"] * r
                row[2::6] = [x_texts[i]] * r
                row[4::6] = fingerprints
                row[5::6] = classes
                fh.write("".join(row))


def write_rows(fh: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row and data rows as CSV to an open text stream.

    ``rows`` may be any iterable of rows; it is read once and written one
    row at a time, each real in shortest round-trip form.  A row whose
    length differs from the header's raises ``ValueError`` wherever it
    occurs, once the rows before it are written.  Every row, the header
    included, ends in ``"\\r\\n"`` (the ``csv`` module's excel dialect).

    The basin table of :func:`write_basin_csv` is written by its own
    ``write``, without the ``csv`` module.  Numeric text is never empty and
    holds no ``,``, ``"``, ``\\r`` or ``\\n``, so the excel dialect would
    quote none of it, and the bytes are the same as for its rows.
    """
    width = len(header)
    writer = csv.writer(fh)
    writer.writerow(list(header))
    if isinstance(rows, _BasinTable):
        rows.write(fh)
        return
    for row in rows:
        fields = [_format_field(v) for v in row]
        if len(fields) != width:
            raise ValueError(f"a row of {len(fields)} fields under {width} names")
        writer.writerow(fields)


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str) -> None:
    """Write a table with a header row to ``path`` via :func:`write_rows`."""
    try:
        with open(path, "w", newline="") as fh:
            write_rows(fh, header, rows)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


def write_basin_csv(grid: BasinGrid, path: str) -> None:
    """Write a basin grid as CSV, one ``i, j, x, y, fingerprint, class`` row per cell."""
    write_csv(_BASIN_HEADER, _BasinTable(grid), path)


def _palette(n_classes: int) -> np.ndarray:
    """RGB colours of the classes: hues from 240 deg (blue, class 0) down to
    0 deg (red, the last), each rounded to a 30 deg step."""
    colors = np.empty((max(n_classes, 1), 3), dtype=np.uint8)
    for k in range(max(n_classes, 1)):
        frac = k / (n_classes - 1) if n_classes > 1 else 0.0
        hue = round(240.0 * (1.0 - frac) / 30.0) * 30 % 360
        r, g, b = colorsys.hsv_to_rgb(hue / 360.0, 1.0, 1.0)
        colors[k] = (round(r * 255), round(g * 255), round(b * 255))
    return colors


def write_image(grid: BasinGrid, path: str, image_format: str) -> None:
    """Write a basin grid as a PGM ("pgm", class ids scaled onto 0..255) or
    PPM ("ppm", the class palette) image file, top row the largest y."""
    img, n = grid.classes.T[::-1, :], grid.n_classes
    if img.size and not 0 <= img.min() <= img.max() < n:
        raise ValueError(f"class ids must lie in [0, {n})")
    if image_format == "pgm":
        magic, table = "P5", np.rint(np.arange(n) * (255.0 / max(n - 1, 1))).astype(np.uint8)
    elif image_format == "ppm":
        magic, table = "P6", _palette(n)
    else:
        raise ValueError(f"unknown image format {image_format!r}")
    pixels = table[img]
    h, w = img.shape
    try:
        with open(path, "wb") as fh:
            fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write image to {path!r}: {exc}") from exc
