"""Block-level topology of a multi-block dataset.

Pathlines cross block boundaries; the tracer must know which blocks can
contain a point that left its current block.  :class:`BlockTopology`
derives that from (slightly padded) bounding boxes of the block
handles — no payload data needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .block import BlockHandle, StructuredBlock

__all__ = ["BlockTopology", "FaceMatch", "find_matched_faces"]

#: the six logical boundary faces of a structured block.
FACES = ("i-", "i+", "j-", "j+", "k-", "k+")


def _face_points(block: StructuredBlock, face: str) -> np.ndarray:
    c = block.coords
    if face == "i-":
        return c[0]
    if face == "i+":
        return c[-1]
    if face == "j-":
        return c[:, 0]
    if face == "j+":
        return c[:, -1]
    if face == "k-":
        return c[:, :, 0]
    if face == "k+":
        return c[:, :, -1]
    raise ValueError(f"unknown face {face!r}; choose from {FACES}")


@dataclass(frozen=True)
class FaceMatch:
    """A point-matched interface between two blocks."""

    block_a: int
    face_a: str
    block_b: int
    face_b: str
    n_points: int


def find_matched_faces(
    blocks: Sequence[StructuredBlock], decimals: int = 9
) -> list[FaceMatch]:
    """Detect point-matched block interfaces.

    Two faces match when their point *sets* coincide (up to rounding);
    multi-block CFD meshes with one-to-one interfaces satisfy this,
    while interfaces with hanging nodes (different resolutions) do not
    and are deliberately not reported — extraction across them is only
    approximately conforming, which is worth knowing about a dataset.
    """
    face_sets: list[tuple[int, str, frozenset, np.ndarray]] = []
    for block in blocks:
        for face in FACES:
            pts = _face_points(block, face).reshape(-1, 3)
            key = frozenset(map(tuple, np.round(pts, decimals).tolist()))
            face_sets.append((block.block_id, face, key, pts))
    matches = []
    for a in range(len(face_sets)):
        bid_a, face_a, key_a, pts_a = face_sets[a]
        for b in range(a + 1, len(face_sets)):
            bid_b, face_b, key_b, pts_b = face_sets[b]
            if bid_a == bid_b:
                continue
            if len(key_a) == len(key_b) and key_a == key_b:
                matches.append(
                    FaceMatch(bid_a, face_a, bid_b, face_b, len(key_a))
                )
    return matches


class BlockTopology:
    """Bounding-box adjacency between blocks of one time level."""

    def __init__(self, handles: Sequence[BlockHandle], pad_fraction: float = 1e-6):
        if not handles:
            raise ValueError("topology needs at least one block handle")
        self.handles = {h.block_id: h for h in handles}
        self._ids = sorted(self.handles)
        lows = np.array([self.handles[i].bounds_min for i in self._ids])
        highs = np.array([self.handles[i].bounds_max for i in self._ids])
        extent = float((highs.max(axis=0) - lows.min(axis=0)).max())
        pad = pad_fraction * max(extent, 1.0)
        self._lows = lows - pad
        self._highs = highs + pad

    def candidates_many(self, points: np.ndarray) -> list[list[int]]:
        """Blocks whose (padded) bbox contains each point: one vectorized
        bbox test for all points.

        Returns one candidate list per point, nearest bbox center first.
        """
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        mask = np.all(
            (p[:, None, :] >= self._lows[None]) & (p[:, None, :] <= self._highs[None]),
            axis=2,
        )
        centers = 0.5 * (self._lows + self._highs)
        d2 = ((p[:, None, :] - centers[None]) ** 2).sum(axis=2)
        out: list[list[int]] = []
        for row in range(len(p)):
            hits = np.nonzero(mask[row])[0]
            if len(hits) > 1:
                hits = hits[np.argsort(d2[row, hits], kind="stable")]
            out.append([self._ids[h] for h in hits])
        return out
