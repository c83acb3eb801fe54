"""Stable file formats: CSV tables and raw PGM/PPM images.

Real numbers are written in shortest round-trip form, so a written value
parses back to the identical double.  Images are binary "P5"/"P6" with
the grid transposed so that x grows to the right and y grows upward.
The colour palette spaces class hues evenly on a 12-colour wheel from
blue (lowest fingerprint class) down to red (highest).
"""

from __future__ import annotations

import colorsys
import csv
from typing import Sequence, TextIO

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


def write_rows(fh: TextIO, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a header row and data rows as CSV to an open text stream.

    Reals are written in shortest round-trip form.  Every row, the header
    included, ends in ``"\\r\\n"`` (the ``csv`` module's excel dialect).
    """
    writer = csv.writer(fh)
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_format_field(v) for v in row])


def write_csv(header: Sequence[str], rows: Sequence[Sequence], path: str) -> None:
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
