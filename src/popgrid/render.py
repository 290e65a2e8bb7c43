"""Grayscale heatmap rendering of grids as portable graymaps (PGM).

The maximum value maps to gray 255 and nodata cells to 0; a data cell that
is not finite has no place on that scale and is an error. Log scaling uses
log1p normalization, which preserves the location of the brightest cell.
P2 (ASCII) is the default for inspectability; P5 writes the same pixels in
binary.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParameterError, ValidationError
from .io import PopulationGrid, Raster

__all__ = ["render_pgm", "gray_levels"]


def gray_levels(values: np.ndarray, nodata: np.ndarray, scale: str = "linear") -> np.ndarray:
    """Map raster values to 0..255 grays (top row first, image order)."""
    if scale not in ("linear", "log"):
        raise ParameterError(f"scale must be 'linear' or 'log', got {scale!r}")
    vals = np.where(nodata, 0.0, np.asarray(values, dtype=np.float64))
    n_bad = int(np.count_nonzero(~np.isfinite(vals)))
    if n_bad:
        raise ValidationError(f"cannot render {n_bad} non-finite data cells (inf or nan)")
    vals = np.clip(vals, 0.0, None)
    peak = float(vals.max()) if vals.size else 0.0
    if peak <= 0.0:
        gray = np.zeros(vals.shape, dtype=np.uint8)
    else:
        if scale == "log":
            norm = np.log1p(vals) / np.log1p(peak)
        else:
            norm = vals / peak
        gray = np.floor(norm * 255.0 + 0.5).astype(np.uint8)
    return gray[::-1]  # raster rows are south-up; images are top-down


def render_pgm(
    obj: Raster | PopulationGrid,
    path: str | Path,
    scale: str = "linear",
    fmt: str = "P2",
) -> None:
    raster = obj.as_raster() if isinstance(obj, PopulationGrid) else obj
    fmt = fmt.upper()
    if fmt not in ("P2", "P5"):
        raise ParameterError(f"fmt must be 'P2' or 'P5', got {fmt!r}")
    gray = gray_levels(raster.values, raster.nodata, scale=scale)
    h, w = gray.shape
    if fmt == "P2":
        lines = ["P2", f"{w} {h}", "255"]
        lines.extend(" ".join(map(str, row.tolist())) for row in gray)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        Path(path).write_bytes(header + gray.tobytes())
