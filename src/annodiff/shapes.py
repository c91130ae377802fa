"""Geometry carriers for instance segmentations.

Two encodings exist in COCO-style files: lists of polygon rings (flat
``[x1, y1, x2, y2, ...]`` coordinate lists in pixel units, origin top-left)
and column-major run-length encoded masks for crowd regions. Both carriers
are ``NamedTuple`` records: immutable, and cheap to build once per
annotation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Polygons(NamedTuple):
    """One or more polygon rings, each stored in the flat COCO layout."""

    rings: tuple[tuple[float, ...], ...]

    @property
    def ring_count(self) -> int:
        return len(self.rings)

    @property
    def vertex_count(self) -> int:
        return sum(len(r) // 2 for r in self.rings)

    def points(self, i: int) -> np.ndarray:
        """Vertices of ring ``i`` as a float ``(k, 2)`` array of (x, y)."""
        return np.asarray(self.rings[i], dtype=np.float64).reshape(-1, 2)

    def all_points(self) -> np.ndarray:
        """Vertices of every ring stacked into one ``(k, 2)`` array."""
        if not self.rings:
            return np.empty((0, 2), dtype=np.float64)
        return np.concatenate([self.points(i) for i in range(len(self.rings))])


class RleMask(NamedTuple):
    """Column-major run-length encoded binary mask; first run is background."""

    counts: tuple[int, ...]
    height: int
    width: int


ShapeSpec = Polygons | RleMask
