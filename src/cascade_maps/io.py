"""Stable file formats: CSV tables and raw PGM/PPM images.

Real numbers are written in shortest round-trip form, so a written value
parses back to the identical double.  CSV rows may come from any iterable
(a lazy ``zip`` over arrays included) and are streamed in fixed-size
chunks, formatted column by column, so the writer holds at most one chunk
of rows and their strings in memory.  Images are binary "P5"/"P6" with
the grid transposed so that x grows to the right and y grows upward.
The colour palette spaces class hues evenly on a 12-colour wheel from
blue (lowest fingerprint class) down to red (highest).
"""

from __future__ import annotations

import colorsys
import csv
from itertools import islice
from typing import Iterable, Sequence, TextIO

import numpy as np

from .basins import BasinGrid

__all__ = [
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


def _format_column(col: tuple) -> list[str]:
    """Format one column of a chunk, as ``_format_field`` would per value.

    A column of exact ``float``/``np.float64`` values formats each distinct
    64-bit pattern once (so ``-0.0`` stays apart from ``0.0``); an all-int
    column goes through ``str``; anything else (a mixed int/float column,
    ``np.float32``, ``bool``, strings) is formatted value by value.
    """
    kinds = set(map(type, col))
    if kinds <= _FLOAT_TYPES:
        bits = np.array(col, dtype=np.float64).view(np.int64)
        uniq, inverse = np.unique(bits, return_inverse=True)
        text = [format_real(v) for v in uniq.view(np.float64).tolist()]
        return list(map(text.__getitem__, inverse.tolist()))
    if kinds <= _INT_TYPES:
        return list(map(str, col))
    return [_format_field(v) for v in col]


def write_rows(fh: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row and data rows as CSV to an open text stream.

    ``rows`` may be any iterable of equal-length rows; it is read once, in
    chunks of ``_CHUNK_ROWS`` rows, so memory is bounded by the chunk.  A
    chunk whose rows differ in length raises ``ValueError``.  Reals are
    written in shortest round-trip form.  Every row, the header included,
    ends in ``"\\r\\n"`` (the ``csv`` module's excel dialect).
    """
    writer = csv.writer(fh)
    writer.writerow(list(header))
    it = iter(rows)
    while chunk := list(islice(it, _CHUNK_ROWS)):
        cols = [_format_column(col) for col in zip(*chunk, strict=True)]
        writer.writerows(zip(*cols) if cols else chunk)


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str) -> None:
    """Write a table with a header row to ``path`` via :func:`write_rows`."""
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
