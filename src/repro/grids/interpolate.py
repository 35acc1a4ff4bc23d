"""Point location and trilinear interpolation in curvilinear blocks.

Pathline integration needs, at every Runge-Kutta stage, the velocity at
an arbitrary physical point.  On a curvilinear grid that requires

1. finding the cell containing the point (*point location*), and
2. inverting the trilinear mapping of that cell to get *natural
   coordinates* ``(r, s, t) ∈ [0,1]^3`` (Newton iteration), then
3. trilinearly blending the corner values.

:class:`CellLocator` combines a kd-tree over cell centers (cold start)
with cell-to-cell *walking* from a hint cell (the common case during
tracing, where consecutive queries are close together).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .block import StructuredBlock

__all__ = ["CellLocator"]

#: Nearest cell centers tried, rank by rank, for a point with no hint
#: (or whose hint walk failed).
_K_CANDIDATES = 8

#: Most cells a hint walk visits before falling back to the kd-tree.
_MAX_WALK = 64


def _invert_one(cell, px, py, pz, tol2, max_iter):
    """One damped Newton inversion of a cell's trilinear map.

    Starts at the cell center, clamps to ``[-1, 2]`` and gives up on a
    singular Jacobian; returns ``(r, s, t, converged)``, where
    ``converged`` only says the residual reached ``sqrt(tol2)`` (whether
    the point is *inside* is a separate range check).  The 8-term sums
    keep numpy's pairwise association
    (``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``) from an earlier vectorised
    solver.  Its bits are pinned by the golden trace fingerprints
    (``tests/faults/test_golden_pins.py``) and the pathline sha256 pins
    (``tests/parallel/test_pathline_bytes.py``), because cell and step
    decisions downstream feed the simulated request stream; changing the
    association is a deliberate, explained golden re-baseline.
    """
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), \
        (x4, y4, z4), (x5, y5, z5), (x6, y6, z6), (x7, y7, z7) = cell
    r = s = t = 0.5
    for _ in range(max_iter):
        rm = 1.0 - r; sm = 1.0 - s; tm = 1.0 - t
        smtm = sm * tm; stm = s * tm; smt = sm * t; st = s * t
        w0 = rm * smtm; w1 = r * smtm; w2 = r * stm; w3 = rm * stm
        w4 = rm * smt; w5 = r * smt; w6 = r * st; w7 = rm * st
        fx = ((w0 * x0 + w1 * x1) + (w2 * x2 + w3 * x3)) \
            + ((w4 * x4 + w5 * x5) + (w6 * x6 + w7 * x7)) - px
        fy = ((w0 * y0 + w1 * y1) + (w2 * y2 + w3 * y3)) \
            + ((w4 * y4 + w5 * y5) + (w6 * y6 + w7 * y7)) - py
        fz = ((w0 * z0 + w1 * z1) + (w2 * z2 + w3 * z3)) \
            + ((w4 * z4 + w5 * z5) + (w6 * z6 + w7 * z7)) - pz
        if fx * fx + fy * fy + fz * fz < tol2:
            return r, s, t, True
        # Jacobian entries: the shape-function derivatives dN/dr,
        # dN/ds, dN/dt applied sign-by-sign.
        j00 = ((-(smtm * x0) + smtm * x1) + (stm * x2 - stm * x3)) \
            + ((-(smt * x4) + smt * x5) + (st * x6 - st * x7))
        j10 = ((-(smtm * y0) + smtm * y1) + (stm * y2 - stm * y3)) \
            + ((-(smt * y4) + smt * y5) + (st * y6 - st * y7))
        j20 = ((-(smtm * z0) + smtm * z1) + (stm * z2 - stm * z3)) \
            + ((-(smt * z4) + smt * z5) + (st * z6 - st * z7))
        rmtm = rm * tm; rtm = r * tm; rmt = rm * t; rt = r * t
        j01 = ((-(rmtm * x0) - rtm * x1) + (rtm * x2 + rmtm * x3)) \
            + ((-(rmt * x4) - rt * x5) + (rt * x6 + rmt * x7))
        j11 = ((-(rmtm * y0) - rtm * y1) + (rtm * y2 + rmtm * y3)) \
            + ((-(rmt * y4) - rt * y5) + (rt * y6 + rmt * y7))
        j21 = ((-(rmtm * z0) - rtm * z1) + (rtm * z2 + rmtm * z3)) \
            + ((-(rmt * z4) - rt * z5) + (rt * z6 + rmt * z7))
        rmsm = rm * sm; rsm = r * sm; rs = r * s; rms = rm * s
        j02 = ((-(rmsm * x0) - rsm * x1) + (-(rs * x2) - rms * x3)) \
            + ((rmsm * x4 + rsm * x5) + (rs * x6 + rms * x7))
        j12 = ((-(rmsm * y0) - rsm * y1) + (-(rs * y2) - rms * y3)) \
            + ((rmsm * y4 + rsm * y5) + (rs * y6 + rms * y7))
        j22 = ((-(rmsm * z0) - rsm * z1) + (-(rs * z2) - rms * z3)) \
            + ((rmsm * z4 + rsm * z5) + (rs * z6 + rms * z7))
        cof00 = j11 * j22 - j12 * j21
        cof01 = j10 * j22 - j12 * j20
        cof02 = j10 * j21 - j11 * j20
        det = j00 * cof00 - j01 * cof01 + j02 * cof02
        if det == 0.0 or not math.isfinite(det):
            return r, s, t, False
        inv = 1.0 / det
        d_r = inv * (
            fx * cof00 - j01 * (fy * j22 - j12 * fz) + j02 * (fy * j21 - j11 * fz)
        )
        d_s = inv * (
            j00 * (fy * j22 - j12 * fz) - fx * cof01 + j02 * (j10 * fz - fy * j20)
        )
        d_t = inv * (
            j00 * (j11 * fz - fy * j21) - j01 * (j10 * fz - fy * j20) + fx * cof02
        )
        r = r - d_r; s = s - d_s; t = t - d_t
        # Keep Newton from running away on strongly curved cells.
        r = -1.0 if r < -1.0 else (2.0 if r > 2.0 else r)
        s = -1.0 if s < -1.0 else (2.0 if s > 2.0 else s)
        t = -1.0 if t < -1.0 else (2.0 if t > 2.0 else t)
    rm = 1.0 - r; sm = 1.0 - s; tm = 1.0 - t
    smtm = sm * tm; stm = s * tm; smt = sm * t; st = s * t
    w0 = rm * smtm; w1 = r * smtm; w2 = r * stm; w3 = rm * stm
    w4 = rm * smt; w5 = r * smt; w6 = r * st; w7 = rm * st
    fx = ((w0 * x0 + w1 * x1) + (w2 * x2 + w3 * x3)) \
        + ((w4 * x4 + w5 * x5) + (w6 * x6 + w7 * x7)) - px
    fy = ((w0 * y0 + w1 * y1) + (w2 * y2 + w3 * y3)) \
        + ((w4 * y4 + w5 * y5) + (w6 * y6 + w7 * y7)) - py
    fz = ((w0 * z0 + w1 * z1) + (w2 * z2 + w3 * z3)) \
        + ((w4 * z4 + w5 * z5) + (w6 * z6 + w7 * z7)) - pz
    return r, s, t, (fx * fx + fy * fy + fz * fz < tol2)


class CellLocator:
    """Locates containing cells in one block and interpolates fields.

    Keeps only what location reads — the cell shape, the bounding box
    and read-only copies of the cell corners and (lazily) centres — and
    no reference to the block, so a locator memoised on its block
    (``block.memo(("locator",), (), ...)``) forms no block <-> locator
    cycle and leaves with the block.
    """

    def __init__(self, block: StructuredBlock, slack: float = 1e-8):
        self.slack = slack
        self.cell_shape = block.cell_shape
        self._centers = None
        self._tree: cKDTree | None = None
        self._bounds = block.bounds()
        # Cell corner coordinates gathered once, vectorized: repeated
        # per-cell fancy indexing dominated tracing profiles otherwise.
        c = block.coords
        self._cell_corners = np.stack(
            [
                c[:-1, :-1, :-1], c[1:, :-1, :-1], c[1:, 1:, :-1], c[:-1, 1:, :-1],
                c[:-1, :-1, 1:], c[1:, :-1, 1:], c[1:, 1:, 1:], c[:-1, 1:, 1:],
            ],
            axis=3,
        )  # (ci, cj, ck, 8, 3)
        self._cell_corners.flags.writeable = False

    # ------------------------------------------------------------ build
    def _ensure_tree(self) -> None:
        if self._tree is None:
            # geometry.cell_centers' sum, term by term in the same
            # order, so the centres (and the tree's answers) keep its
            # bits without holding the block's coordinates.
            k = self._cell_corners
            centers = 0.125 * (
                k[..., 0, :] + k[..., 1, :] + k[..., 2, :] + k[..., 3, :]
                + k[..., 4, :] + k[..., 5, :] + k[..., 6, :] + k[..., 7, :]
            )
            centers = centers.reshape(-1, 3)
            centers.flags.writeable = False
            self._centers = centers
            self._tree = cKDTree(centers)

    # ------------------------------------------------------- one point
    def locate_one(
        self,
        px: float,
        py: float,
        pz: float,
        hint: "tuple[int, int, int] | None" = None,
    ) -> "tuple[int, int, int, float, float, float] | None":
        """Locate one point: the particle tracer's locate kernel.

        Walks from ``hint`` (clamped into the block) toward where the
        natural coordinates point; if that fails, and the point lies in
        the slack-padded bbox, tries its ``_K_CANDIDATES`` nearest cell
        centers rank by rank.  Every cell is tested with
        :func:`_invert_one`.  Returns ``(i, j, k, r, s, t)`` or ``None``.
        """
        corners = self._cell_corners
        lo_ok = -self.slack
        hi_ok = 1.0 + self.slack
        tol2 = 1e-10 * 1e-10  # Newton residual tolerance, squared
        if hint is not None:
            ci, cj, ck = self.cell_shape
            i_hi, j_hi, k_hi = ci - 1, cj - 1, ck - 1
            a, b, c = hint
            a = 0 if a < 0 else (i_hi if a > i_hi else a)
            b = 0 if b < 0 else (j_hi if b > j_hi else b)
            c = 0 if c < 0 else (k_hi if c > k_hi else c)
            pa = pb = pc = -9
            for _ in range(_MAX_WALK):
                cell = corners[a, b, c].tolist()
                r, s, t, ok = _invert_one(cell, px, py, pz, tol2, 25)
                if ok and (lo_ok <= r <= hi_ok and lo_ok <= s <= hi_ok
                           and lo_ok <= t <= hi_ok):
                    return a, b, c, r, s, t
                # Step toward where the natural coordinates point.
                sa = -1 if r < lo_ok else (1 if r > hi_ok else 0)
                sb = -1 if s < lo_ok else (1 if s > hi_ok else 0)
                sc = -1 if t < lo_ok else (1 if t > hi_ok else 0)
                if sa == 0 and sb == 0 and sc == 0:
                    break  # Newton failed without direction info
                na, nb, nc = a + sa, b + sb, c + sc
                if not (0 <= na <= i_hi and 0 <= nb <= j_hi and 0 <= nc <= k_hi):
                    break  # walked off the block
                if na == pa and nb == pb and nc == pc:
                    break  # two-cell oscillation
                pa, pb, pc = a, b, c
                a, b, c = na, nb, nc
        pad = self.slack
        (x0, y0, z0), (x1, y1, z1) = self._bounds.tolist()
        if not (
            x0 - pad <= px <= x1 + pad
            and y0 - pad <= py <= y1 + pad
            and z0 - pad <= pz <= z1 + pad
        ):
            return None
        self._ensure_tree()
        ci, cj, ck = self.cell_shape
        k = min(_K_CANDIDATES, ci * cj * ck)
        _dists, flats = self._tree.query((px, py, pz), k=k)
        for flat in np.reshape(flats, k).tolist():
            i, rem = divmod(flat, cj * ck)
            j, kk = divmod(rem, ck)
            cell = corners[i, j, kk].tolist()
            r, s, t, ok = _invert_one(cell, px, py, pz, tol2, 25)
            if ok and (lo_ok <= r <= hi_ok and lo_ok <= s <= hi_ok
                       and lo_ok <= t <= hi_ok):
                return i, j, kk, r, s, t
        return None

    @staticmethod
    def blend_one(
        data: np.ndarray, i: int, j: int, k: int, r: float, s: float, t: float
    ) -> "float | list[float]":
        """Trilinear value of ``data`` at natural coordinates ``(r, s, t)``
        of cell ``(i, j, k)``: the particle tracer's interpolation kernel.

        Blends the 8 corner values in numpy's reduction order — pairwise
        for a scalar field (contiguous inner-axis sum), sequential per
        component for a vector field (outer-axis sum).  The vector sum
        feeds every pathline sample, so the pathline sha256 pins fix its
        bits.  Returns a float, or one float per component.
        """
        rm = 1.0 - r; sm = 1.0 - s; tm = 1.0 - t
        smtm = sm * tm; stm = s * tm; smt = sm * t; st = s * t
        w0 = rm * smtm; w1 = r * smtm; w2 = r * stm; w3 = rm * stm
        w4 = rm * smt; w5 = r * smt; w6 = r * st; w7 = rm * st
        # One 2x2x2 slice, unpacked into hexahedron corner order.
        ((c0, c4), (c3, c7)), ((c1, c5), (c2, c6)) = data[
            i:i + 2, j:j + 2, k:k + 2
        ].tolist()
        if data.ndim == 3:
            return ((w0 * c0 + w1 * c1) + (w2 * c2 + w3 * c3)) + (
                (w4 * c4 + w5 * c5) + (w6 * c6 + w7 * c7)
            )
        return [
            w0 * c0[n] + w1 * c1[n] + w2 * c2[n] + w3 * c3[n]
            + w4 * c4[n] + w5 * c5[n] + w6 * c6[n] + w7 * c7[n]
            for n in range(len(c0))
        ]

    def locate_many(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`locate_one` without hints, row by row.

        ``points`` has shape ``(n, 3)``.  Returns ``(cells, rst)``:
        ``cells`` is ``(n, 3)`` int64 with ``-1`` rows marking points
        contained in no cell of this block, ``rst`` the matching natural
        coordinates.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        cells = np.full((len(pts), 3), -1, dtype=np.int64)
        rst = np.zeros((len(pts), 3), dtype=np.float64)
        for row, (px, py, pz) in enumerate(pts.tolist()):
            hit = self.locate_one(px, py, pz)
            if hit is not None:
                cells[row] = hit[:3]
                rst[row] = hit[3:]
        return cells, rst
