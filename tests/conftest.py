from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from popgrid.geo import Point, Polygon

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


_open_logs: list[list[Path]] = []  # the logs of the open ``opens`` blocks


def _log_open(event: str, args: tuple) -> None:
    if event == "open" and isinstance(args[0], str):
        for log in _open_logs:
            log.append(Path(args[0]))


sys.addaudithook(_log_open)  # an audit hook cannot be removed, so it is added once


@contextmanager
def _opens() -> Iterator[list[Path]]:
    log: list[Path] = []
    _open_logs.append(log)
    try:
        yield log
    finally:
        _open_logs.remove(log)


@pytest.fixture
def opens():
    """``with opens() as opened:`` lists, in ``opened``, every path the block
    opens (for reading or writing), from the interpreter's "open" audit event."""
    return _opens


def random_convex_polygon(rng: np.random.Generator, n_min: int = 3, n_max: int = 10) -> Polygon:
    """A convex polygon: points on a random ellipse at sorted angles."""
    n = int(rng.integers(n_min, n_max + 1))
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    # drop near-duplicate angles to keep vertices distinct
    keep = np.concatenate(([True], np.diff(angles) > 1e-3))
    angles = angles[keep]
    while angles.size < 3:
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        keep = np.concatenate(([True], np.diff(angles) > 1e-3))
        angles = angles[keep]
    cx, cy = rng.uniform(-500, 500, 2)
    ax, ay = rng.uniform(10, 300, 2)
    pts = [Point(cx + ax * np.cos(a), cy + ay * np.sin(a)) for a in angles]
    return Polygon(exterior=tuple(pts))


def convex_contains(poly: Polygon, x: float, y: float) -> bool:
    """Independent membership test for convex polygons via half-plane signs."""
    verts = poly.exterior
    n = len(verts)
    signs = []
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        signs.append((b.x - a.x) * (y - a.y) - (b.y - a.y) * (x - a.x))
    return all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


def slow_ray_cast(x: float, y: float, verts) -> bool:
    """Naive ray-cast reference (rightward ray, half-open vertex rule)."""
    n = len(verts)
    crossings = 0
    for i in range(n):
        x1, y1 = verts[i].x, verts[i].y
        x2, y2 = verts[(i + 1) % n].x, verts[(i + 1) % n].y
        if y1 == y2:
            continue
        if min(y1, y2) <= y < max(y1, y2):
            t = (y - y1) / (y2 - y1)
            if x1 + t * (x2 - x1) > x:
                crossings += 1
    return crossings % 2 == 1


def edge_distance(poly: Polygon, x: float, y: float) -> float:
    """Distance from (x, y) to the nearest exterior edge."""
    verts = poly.exterior
    n = len(verts)
    best = float("inf")
    for i in range(n):
        x1, y1 = verts[i].x, verts[i].y
        x2, y2 = verts[(i + 1) % n].x, verts[(i + 1) % n].y
        dx, dy = x2 - x1, y2 - y1
        seg2 = dx * dx + dy * dy
        t = 0.0 if seg2 == 0 else max(0.0, min(1.0, ((x - x1) * dx + (y - y1) * dy) / seg2))
        px, py = x1 + t * dx, y1 + t * dy
        best = min(best, ((x - px) ** 2 + (y - py) ** 2) ** 0.5)
    return best
