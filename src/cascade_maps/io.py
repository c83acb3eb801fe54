"""Stable file formats: CSV tables and raw PGM/PPM images.

Real numbers are written in shortest round-trip form, so a written value
parses back to the identical double.  CSV rows may come from any iterable
(a lazy ``zip`` included) and are written one at a time through the
``csv`` module.  A table of numeric numpy columns wrapped in
:class:`Columns` skips the rows altogether: it is written in fixed-size
chunks sliced from the arrays, since numeric text never needs CSV
quoting.  A column may be index-coded, ``values[index]``; its values are
formatted once per table and its index slices serve as codes.  Each chunk
codes every other column slice against the texts of its distinct values,
separators included, and becomes one string from one gather through that
vocabulary and one ``"".join``, so the writer holds at most one chunk of
codes and strings in memory.  Images are binary
"P5"/"P6" with the grid transposed so that x grows to the right and y
grows upward.
The colour palette spaces class hues evenly on a 12-colour wheel from
blue (lowest fingerprint class) down to red (highest).
"""

from __future__ import annotations

import colorsys
import csv
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .basins import BasinGrid

__all__ = [
    "Columns",
    "format_real",
    "write_rows",
    "write_csv",
    "read_csv",
    "grid_to_image",
    "class_palette",
    "pgm_bytes",
    "ppm_bytes",
    "write_image",
]


def format_real(value: float) -> str:
    """Shortest decimal form of a double that parses back bit-exactly."""
    return repr(float(value))


def _format_field(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format_real(value)
    return str(value)


#: Rows formatted per chunk of a :class:`Columns` table; bounds the
#: writer's memory for any table size.
_CHUNK_ROWS = 16384


class _Coded(NamedTuple):
    """An index-coded column of a :class:`Columns` table: ``values[index]``."""

    values: np.ndarray
    index: np.ndarray


def _numeric(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"a column must be 1-D, got shape {a.shape}")
    if a.dtype != np.float64 and a.dtype.kind not in "iu":
        raise ValueError(f"a column must be float64 or integer, got {a.dtype}")
    return a


def _column(col) -> np.ndarray | _Coded:
    if not isinstance(col, _Coded):
        return _numeric(col)
    values, index = _numeric(col.values), np.asarray(col.index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(
            f"a column index must be a 1-D integer array, got {index.dtype} {index.shape}"
        )
    # Checked here: a code outside the values would pick another column's text.
    if index.size and not 0 <= int(index.min()) <= int(index.max()) < values.shape[0]:
        raise ValueError(f"a column index must lie in [0, {values.shape[0]})")
    return _Coded(values, index)


def _length(col: np.ndarray | _Coded) -> int:
    return (col.index if isinstance(col, _Coded) else col).shape[0]


class Columns:
    """Equal-length numpy columns read as a table.

    A column is a 1-D ``float64`` or integer array, or an index-coded pair
    ``_Coded(values, index)`` that stands for ``values[index]``: ``values``
    is such an array and ``index`` a 1-D integer array whose entries lie in
    ``[0, len(values))``.  A column that repeats few values, such as a grid
    axis, is cheaper coded: :func:`write_rows` formats its ``values`` once
    per table.  A column that breaks these rules raises ``ValueError``.
    Arrays are held as given, not copied.  Iterating yields the same row
    tuples as ``zip`` over the materialised columns, so any consumer of rows
    can read a ``Columns``, while :func:`write_rows` formats it column by
    column without building rows.
    """

    __slots__ = ("arrays",)

    def __init__(self, *columns: np.ndarray | _Coded):
        self.arrays = tuple(map(_column, columns))
        if len({_length(c) for c in self.arrays}) > 1:
            raise ValueError("columns must have equal lengths")

    def __len__(self) -> int:
        return _length(self.arrays[0]) if self.arrays else 0

    def __iter__(self) -> Iterator[tuple]:
        return zip(*(c.values[c.index] if isinstance(c, _Coded) else c for c in self.arrays))


def _texts(values: np.ndarray, sep: str) -> list[str]:
    """The text of each value of a 1-D numeric array, each ending in ``sep``."""
    if values.dtype.kind in "iu":
        return [f"{v}{sep}" for v in values.tolist()]
    return [format_real(v) + sep for v in values.tolist()]


def _encode(values: np.ndarray, sep: str) -> tuple[np.ndarray, list[str]]:
    """Codes into a list of texts, each ending in ``sep``, for a 1-D slice.

    An integer slice whose values span no more than its length is coded as
    ``values - min`` against the texts of ``range(min, max + 1)``, with no
    sort; min and max are taken as Python ints, so ``int64`` and ``uint64``
    extremes cannot overflow.  Any other slice is coded by one sort and one
    ``np.searchsorted`` into its distinct sorted keys: the values of an
    integer slice, the 64-bit patterns of a double slice, so ``-0.0`` stays
    apart from ``0.0`` and NaN payloads from each other.
    """
    keys = values
    if values.dtype.kind in "iu":
        lo, hi = int(values.min()), int(values.max())
        if hi - lo < values.shape[0]:
            # The difference fits the unsigned type of the same width even
            # where the signed subtraction wraps (an int8 slice spans 255).
            codes = (values - lo).view(f"u{values.itemsize}")
            return codes, [f"{v}{sep}" for v in range(lo, hi + 1)]
    else:
        keys = values.view(np.int64)
    uniq = np.sort(keys)
    uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
    return np.searchsorted(uniq, keys), _texts(uniq.view(values.dtype), sep)


def _format_chunk(
    columns: Sequence[np.ndarray | _Coded],
    seps: Sequence[str],
    table_texts: list[str],
    starts: Sequence[int],
) -> str:
    """The CSV text of equal-length column slices, each row ending in ``"\\r\\n"``.

    A coded slice's index is its codes, offset by its column's start in
    ``table_texts``.  Any other slice is coded by :func:`_encode` against
    texts appended to a copy of ``table_texts``.  The codes are stored in
    an (m, ncols) array, whose row-major gather is joined once.
    """
    codes = np.empty((_length(columns[0]), len(columns)), dtype=np.intp)
    vocab = list(table_texts)
    offsets = list(starts)
    for c, (col, sep) in enumerate(zip(columns, seps)):
        if isinstance(col, _Coded):
            codes[:, c] = col.index
        else:
            codes[:, c], texts = _encode(col, sep)
            offsets[c] = len(vocab)
            vocab += texts
    codes += offsets
    return "".join(np.array(vocab, dtype=object).take(codes.ravel()).tolist())


def write_rows(
    fh: TextIO, header: Sequence[str], rows: Iterable[Sequence] | Columns
) -> None:
    """Write a header row and data rows as CSV to an open text stream.

    ``rows`` may be any iterable of rows; it is read once and written one
    row at a time, each real in shortest round-trip form.  A row whose
    length differs from the header's raises ``ValueError`` wherever it
    occurs, once the rows before it are written.  Every row, the header
    included, ends in ``"\\r\\n"`` (the ``csv`` module's excel dialect).

    A :class:`Columns` table whose column count differs from the header's
    raises ``ValueError`` before anything is written.  Otherwise it is
    written without the ``csv`` module.  The ``values`` of each coded
    column are formatted once per table, each text with its ``","`` or
    ``"\\r\\n"`` appended.  The table is then written a chunk of
    ``_CHUNK_ROWS`` rows at a time: a coded column's index slice is used
    as its codes, any other column slice is coded against the texts of its
    distinct values, and the chunk is one gather through the joined
    vocabulary and one ``"".join``.  Numeric text is never empty and holds
    no ``,``, ``"``, ``\\r`` or ``\\n``, so the excel dialect would quote
    none of it, and the bytes are the same as for its rows.
    """
    width = len(header)
    if isinstance(rows, Columns) and len(rows.arrays) != width:
        raise ValueError(f"a table of {len(rows.arrays)} columns under {width} names")
    writer = csv.writer(fh)
    writer.writerow(list(header))
    if isinstance(rows, Columns):
        seps = [","] * (width - 1) + ["\r\n"]
        table_texts: list[str] = []
        starts = []
        for col, sep in zip(rows.arrays, seps):
            starts.append(len(table_texts))
            if isinstance(col, _Coded):
                table_texts += _texts(col.values, sep)
        for k0 in range(0, len(rows), _CHUNK_ROWS):
            chunk = slice(k0, k0 + _CHUNK_ROWS)
            columns = [
                _Coded(c.values, c.index[chunk]) if isinstance(c, _Coded) else c[chunk]
                for c in rows.arrays
            ]
            fh.write(_format_chunk(columns, seps, table_texts, starts))
        return
    for row in rows:
        fields = [_format_field(v) for v in row]
        if len(fields) != width:
            raise ValueError(f"a row of {len(fields)} fields under {width} names")
        writer.writerow(fields)


def write_csv(
    header: Sequence[str], rows: Iterable[Sequence] | Columns, path: str
) -> None:
    """Write a table with a header row to ``path`` via :func:`write_rows`.

    ``rows`` is an iterable of rows or a :class:`Columns` table.
    """
    try:
        with open(path, "w", newline="") as fh:
            write_rows(fh, header, rows)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by :func:`write_csv`; fields come back as strings."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader]
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path!r}: {exc}") from exc
    return header, rows


def grid_to_image(values: np.ndarray) -> np.ndarray:
    """Reorient an ``[i=x, j=y]`` grid into image rows (top row = largest y)."""
    return values.T[::-1, :]


def class_palette(n_classes: int) -> np.ndarray:
    """RGB palette over classes: blue for the lowest class, red for the highest.

    Hues sweep 240 deg down to 0 deg, quantised to the nearest 30 deg step
    of a 12-colour wheel.
    """
    colors = np.empty((max(n_classes, 1), 3), dtype=np.uint8)
    for k in range(max(n_classes, 1)):
        frac = k / (n_classes - 1) if n_classes > 1 else 0.0
        hue = round(240.0 * (1.0 - frac) / 30.0) * 30 % 360
        r, g, b = colorsys.hsv_to_rgb(hue / 360.0, 1.0, 1.0)
        colors[k] = (round(r * 255), round(g * 255), round(b * 255))
    return colors


def pgm_bytes(classes_img: np.ndarray, n_classes: int) -> bytes:
    """8-bit binary PGM of class ids scaled onto 0..255."""
    h, w = classes_img.shape
    if n_classes > 1:
        scaled = np.rint(classes_img * (255.0 / (n_classes - 1))).astype(np.uint8)
    else:
        scaled = np.zeros_like(classes_img, dtype=np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + scaled.tobytes()


def ppm_bytes(classes_img: np.ndarray, n_classes: int) -> bytes:
    """24-bit binary PPM using the fixed class palette."""
    h, w = classes_img.shape
    palette = class_palette(n_classes)
    pixels = palette[classes_img]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def write_image(grid: BasinGrid, path: str, image_format: str) -> None:
    """Write a basin grid as a PGM ("pgm") or PPM ("ppm") image file."""
    img = grid_to_image(grid.classes)
    if image_format == "pgm":
        payload = pgm_bytes(img, grid.n_classes)
    elif image_format == "ppm":
        payload = ppm_bytes(img, grid.n_classes)
    else:
        raise ValueError(f"unknown image format {image_format!r}")
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write image to {path!r}: {exc}") from exc
