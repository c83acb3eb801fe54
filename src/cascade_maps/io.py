"""Stable file formats: CSV tables and raw PGM/PPM images.

Real numbers are written in shortest round-trip form, so a written value
parses back to the identical double.  CSV rows may come from any iterable
(a lazy ``zip`` over arrays included) and are streamed in fixed-size
chunks, formatted column by column, so the writer holds at most one chunk
of rows and their strings in memory.  A table of numeric numpy columns
wrapped in :class:`Columns` skips the rows altogether: each chunk is
sliced from the arrays and joined with ``","`` directly, since numeric
text never needs CSV quoting.  Images are binary "P5"/"P6" with
the grid transposed so that x grows to the right and y grows upward.
The colour palette spaces class hues evenly on a 12-colour wheel from
blue (lowest fingerprint class) down to red (highest).
"""

from __future__ import annotations

import colorsys
import csv
from itertools import islice
from typing import Iterable, Iterator, Sequence, TextIO

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
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, (np.floating,)):
        return format_real(float(value))
    return str(value)


#: Rows formatted per chunk; bounds the writer's memory for any table size.
_CHUNK_ROWS = 16384
_FLOAT_TYPES = frozenset((float, np.float64))
_INT_TYPES = frozenset((int, np.int64, np.int32))


class Columns:
    """Equal-length 1-D numpy arrays read as the columns of a table.

    Each array must be ``float64`` or of an integer dtype; the arrays are
    held as given, not copied.  Iterating yields the same row tuples as
    ``zip(*arrays)``, so any consumer of rows can read a ``Columns``, while
    :func:`write_rows` formats it column by column without building rows.
    """

    __slots__ = ("arrays",)

    def __init__(self, *arrays: np.ndarray):
        self.arrays = tuple(map(np.asarray, arrays))
        for a in self.arrays:
            if a.ndim != 1:
                raise ValueError(f"a column must be 1-D, got shape {a.shape}")
            if a.dtype != np.float64 and a.dtype.kind not in "iu":
                raise ValueError(f"a column must be float64 or integer, got {a.dtype}")
        if len({a.shape[0] for a in self.arrays}) > 1:
            raise ValueError("columns must have equal lengths")

    def __len__(self) -> int:
        return self.arrays[0].shape[0] if self.arrays else 0

    def __iter__(self) -> Iterator[tuple]:
        return zip(*self.arrays)


def _format_array(values: np.ndarray) -> list[str]:
    """Format a 1-D ``float64`` or integer array, each distinct value once.

    Doubles are told apart by their 64-bit pattern, so ``-0.0`` stays apart
    from ``0.0`` and NaN payloads from each other.  Integers go through
    ``str`` as Python ints, so ``uint64`` values above ``2**63`` are exact.
    """
    if values.dtype == np.float64:
        uniq, inverse = np.unique(values.view(np.int64), return_inverse=True)
        text = [format_real(v) for v in uniq.view(np.float64).tolist()]
    else:
        uniq, inverse = np.unique(values, return_inverse=True)
        text = [str(v) for v in uniq.tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def _format_column(col: tuple) -> list[str]:
    """Format one column of a chunk, as ``_format_field`` would per value.

    A column of exact ``float``/``np.float64`` values goes through
    :func:`_format_array`; an all-int column goes through ``str`` (Python
    ints may not fit ``int64``); anything else (a mixed int/float column,
    ``np.float32``, ``bool``, strings) is formatted value by value.
    """
    kinds = set(map(type, col))
    if kinds <= _FLOAT_TYPES:
        return _format_array(np.array(col, dtype=np.float64))
    if kinds <= _INT_TYPES:
        return list(map(str, col))
    return [_format_field(v) for v in col]


def write_rows(
    fh: TextIO, header: Sequence[str], rows: Iterable[Sequence] | Columns
) -> None:
    """Write a header row and data rows as CSV to an open text stream.

    ``rows`` may be any iterable of equal-length rows; it is read once, in
    chunks of ``_CHUNK_ROWS`` rows, so memory is bounded by the chunk.  A
    chunk whose rows differ in length raises ``ValueError``.  Reals are
    written in shortest round-trip form.  Every row, the header included,
    ends in ``"\\r\\n"`` (the ``csv`` module's excel dialect).

    A :class:`Columns` table is formatted a chunk of array slices at a time
    and joined with ``","`` without the ``csv`` module: numeric text is never
    empty and holds no ``,``, ``"``, ``\\r`` or ``\\n``, so the excel dialect
    would quote none of it, and the bytes are the same as for its rows.
    """
    writer = csv.writer(fh)
    writer.writerow(list(header))
    if isinstance(rows, Columns):
        for k0 in range(0, len(rows), _CHUNK_ROWS):
            cols = [_format_array(a[k0 : k0 + _CHUNK_ROWS]) for a in rows.arrays]
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")
        return
    it = iter(rows)
    while chunk := list(islice(it, _CHUNK_ROWS)):
        cols = [_format_column(col) for col in zip(*chunk, strict=True)]
        writer.writerows(zip(*cols) if cols else chunk)


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


def _class_image(grid: BasinGrid) -> tuple[np.ndarray, int]:
    return grid_to_image(grid.classes), grid.n_classes


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
    img, n_classes = _class_image(grid)
    if image_format == "pgm":
        payload = pgm_bytes(img, n_classes)
    elif image_format == "ppm":
        payload = ppm_bytes(img, n_classes)
    else:
        raise ValueError(f"unknown image format {image_format!r}")
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write image to {path!r}: {exc}") from exc
