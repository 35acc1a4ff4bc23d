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

__all__ = [
    "trilinear_weights_many",
    "invert_trilinear_many",
    "CellLocator",
]


def trilinear_weights_many(rst: np.ndarray) -> np.ndarray:
    """Shape-function values for a batch of natural coordinates.

    ``rst`` has shape ``(n, 3)``; the result has shape ``(n, 8)``.
    """
    rst = np.asarray(rst, dtype=np.float64)
    r, s, t = rst[..., 0], rst[..., 1], rst[..., 2]
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    smtm, stm, smt, st = sm * tm, s * tm, sm * t, s * t
    out = np.empty(rst.shape[:-1] + (8,), dtype=np.float64)
    out[..., 0] = rm * smtm
    out[..., 1] = r * smtm
    out[..., 2] = r * stm
    out[..., 3] = rm * stm
    out[..., 4] = rm * smt
    out[..., 5] = r * smt
    out[..., 6] = r * st
    out[..., 7] = rm * st
    return out


def _weight_derivative_columns(
    r: np.ndarray, s: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dN/dr, dN/ds, dN/dt)`` for a batch, each of shape ``(n, 8)``."""
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    n = np.shape(r)
    smtm, stm, smt, st = sm * tm, s * tm, sm * t, s * t
    dr = np.empty(n + (8,), dtype=np.float64)
    dr[..., 0] = -smtm
    dr[..., 1] = smtm
    dr[..., 2] = stm
    dr[..., 3] = -stm
    dr[..., 4] = -smt
    dr[..., 5] = smt
    dr[..., 6] = st
    dr[..., 7] = -st
    rmtm, rtm, rmt, rt = rm * tm, r * tm, rm * t, r * t
    ds = np.empty(n + (8,), dtype=np.float64)
    ds[..., 0] = -rmtm
    ds[..., 1] = -rtm
    ds[..., 2] = rtm
    ds[..., 3] = rmtm
    ds[..., 4] = -rmt
    ds[..., 5] = -rt
    ds[..., 6] = rt
    ds[..., 7] = rmt
    rmsm, rsm, rs = rm * sm, r * sm, r * s
    rms = rm * s
    dt = np.empty(n + (8,), dtype=np.float64)
    dt[..., 0] = -rmsm
    dt[..., 1] = -rsm
    dt[..., 2] = -rs
    dt[..., 3] = -rms
    dt[..., 4] = rmsm
    dt[..., 5] = rsm
    dt[..., 6] = rs
    dt[..., 7] = rms
    return dr, ds, dt


#: Batch sizes at or below this take scalar Python fast paths.  The
#: tracer's per-block groups are routinely 1-3 points, where per-call
#: numpy dispatch dominates the actual arithmetic by an order of
#: magnitude.
_SMALL_BATCH = 16

#: Nearest cell centers tried, rank by rank, for a point with no hint
#: (or whose hint walk failed).
_K_CANDIDATES = 8

#: Most cells a hint walk visits before falling back to the kd-tree.
_MAX_WALK = 64


def _invert_one(cell, px, py, pz, tol2, max_iter):
    """One Newton inversion, bit-identical to :func:`invert_trilinear_many`.

    Every expression mirrors the vectorized sweep, including numpy's
    pairwise association for 8-element row sums
    (``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``), so a row solved here is
    indistinguishable from the same row solved in a large batch.  This
    matters because downstream cell/step decisions feed the simulated
    request stream: the golden trace fingerprints pin these bits.
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
        # Jacobian rows, with the derivative columns of
        # _weight_derivative_columns folded in sign-by-sign.
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


def invert_trilinear_many(
    corners: np.ndarray,
    points: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 25,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton-invert the trilinear map for a batch of (cell, point) pairs.

    ``corners`` has shape ``(n, 8, 3)`` and ``points`` ``(n, 3)``; the
    result is ``(rst, converged)`` with shapes ``(n, 3)`` and ``(n,)``.
    Each pair runs a damped Newton iteration (start at the cell center,
    clamp to ``[-1, 2]``, give up on a singular Jacobian) with per-point
    convergence masks, so one LAPACK-free vectorized sweep serves the
    whole batch.  ``converged`` only says the iteration reached ``tol``;
    whether a point is *inside* is a separate range check on ``rst``.
    """
    c = np.asarray(corners, dtype=np.float64).reshape(-1, 8, 3)
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(c)
    if len(p) != n:
        raise ValueError(f"{n} corner sets but {len(p)} points")
    rst = np.full((n, 3), 0.5)
    converged = np.zeros(n, dtype=bool)
    if n == 0:
        return rst, converged
    if n <= _SMALL_BATCH:
        tol2 = tol * tol
        cl = c.tolist()
        pl = p.tolist()
        for i in range(n):
            px, py, pz = pl[i]
            r, s, t, ok = _invert_one(cl[i], px, py, pz, tol2, max_iter)
            row = rst[i]
            row[0] = r; row[1] = s; row[2] = t
            converged[i] = ok
        return rst, converged
    cx, cy, cz = c[:, :, 0], c[:, :, 1], c[:, :, 2]
    tol2 = tol * tol
    #: rows still iterating (neither converged nor singular).
    active = np.arange(n)
    for _ in range(max_iter):
        r, s, t = rst[active, 0], rst[active, 1], rst[active, 2]
        w = trilinear_weights_many(rst[active])
        fx = (w * cx[active]).sum(axis=1) - p[active, 0]
        fy = (w * cy[active]).sum(axis=1) - p[active, 1]
        fz = (w * cz[active]).sum(axis=1) - p[active, 2]
        done = fx * fx + fy * fy + fz * fz < tol2
        if done.any():
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            if active.size == 0:
                return rst, converged
            r, s, t = r[keep], s[keep], t[keep]
            fx, fy, fz = fx[keep], fy[keep], fz[keep]
        dr, ds, dt = _weight_derivative_columns(r, s, t)
        j00 = (dr * cx[active]).sum(axis=1)
        j10 = (dr * cy[active]).sum(axis=1)
        j20 = (dr * cz[active]).sum(axis=1)
        j01 = (ds * cx[active]).sum(axis=1)
        j11 = (ds * cy[active]).sum(axis=1)
        j21 = (ds * cz[active]).sum(axis=1)
        j02 = (dt * cx[active]).sum(axis=1)
        j12 = (dt * cy[active]).sum(axis=1)
        j22 = (dt * cz[active]).sum(axis=1)
        cof00 = j11 * j22 - j12 * j21
        cof01 = j10 * j22 - j12 * j20
        cof02 = j10 * j21 - j11 * j20
        det = j00 * cof00 - j01 * cof01 + j02 * cof02
        bad = (det == 0.0) | ~np.isfinite(det)
        if bad.any():
            # Singular / NaN Jacobian: give up on those rows (converged
            # stays False), keep iterating the rest.
            keep = ~bad
            active = active[keep]
            if active.size == 0:
                return rst, converged
            fx, fy, fz = fx[keep], fy[keep], fz[keep]
            j00, j01, j02 = j00[keep], j01[keep], j02[keep]
            j10, j11, j12 = j10[keep], j11[keep], j12[keep]
            j20, j21, j22 = j20[keep], j21[keep], j22[keep]
            cof00, cof01, cof02 = cof00[keep], cof01[keep], cof02[keep]
            det = det[keep]
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
        step = np.stack([d_r, d_s, d_t], axis=-1)
        # Keep Newton from running away on strongly curved cells.
        rst[active] = np.clip(rst[active] - step, -1.0, 2.0)
    if active.size:
        w = trilinear_weights_many(rst[active])
        fx = (w * cx[active]).sum(axis=1) - p[active, 0]
        fy = (w * cy[active]).sum(axis=1) - p[active, 1]
        fz = (w * cz[active]).sum(axis=1) - p[active, 2]
        converged[active] = fx * fx + fy * fy + fz * fz < tol2
    return rst, converged



class CellLocator:
    """Locates containing cells in one block and interpolates fields."""

    def __init__(self, block: StructuredBlock, slack: float = 1e-8):
        self.block = block
        self.slack = slack
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

    # ------------------------------------------------------------ build
    def _ensure_tree(self) -> None:
        if self._tree is None:
            from .geometry import cell_centers

            centers = cell_centers(self.block)
            self._centers = centers.reshape(-1, 3)
            self._tree = cKDTree(self._centers)

    # ------------------------------------------------------- one point
    def locate_one(
        self,
        px: float,
        py: float,
        pz: float,
        hint: "tuple[int, int, int] | None" = None,
    ) -> "tuple[int, int, int, float, float, float] | None":
        """Locate one point: the per-row counterpart of :meth:`locate_many`.

        Walks from ``hint`` (clamped into the block) toward where the
        natural coordinates point; if that fails, and the point lies in
        the slack-padded bbox, tries its ``_K_CANDIDATES`` nearest cell
        centers rank by rank.  Returns ``(i, j, k, r, s, t)`` or ``None``.

        Rows are independent in the vectorized sweep, so one row solved
        here with the bit-identical scalar Newton solve
        (:func:`_invert_one`) yields the exact cell and natural
        coordinates the sweep would, while skipping its per-step masking
        machinery.
        """
        corners = self._cell_corners
        lo_ok = -self.slack
        hi_ok = 1.0 + self.slack
        tol2 = 1e-10 * 1e-10  # invert_trilinear_many's tol * tol
        if hint is not None:
            ci, cj, ck = self.block.cell_shape
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
        k = min(_K_CANDIDATES, self.block.n_cells)
        _dists, flats = self._tree.query((px, py, pz), k=k)
        _ci, cj, ck = self.block.cell_shape
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
        of cell ``(i, j, k)``: the per-row kernel of :meth:`interpolate_many`.

        Blends the 8 corner values in numpy's reduction order — pairwise
        for a scalar field (contiguous inner-axis sum), sequential per
        component for a vector field (outer-axis sum) — so the result is
        bit-identical to the vectorized gather.  Returns a float, or one
        float per component.
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

    # ----------------------------------------------------- batch locate
    def locate_many(
        self,
        points: np.ndarray,
        hints: "list[tuple[int, int, int] | None] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Locate many points: one kd-tree query / walk sweep for the batch.

        ``points`` has shape ``(n, 3)``; ``hints`` is an optional
        per-point list of start cells (``None`` entries fall straight
        through to the kd-tree).  Returns ``(cells, rst)`` where
        ``cells`` is ``(n, 3)`` int64 with ``-1`` rows marking points
        contained in no cell of this block, and ``rst`` the matching
        natural coordinates.

        Points with hints walk together (one vectorized Newton solve per
        walk front); the rest share one batched kd-tree query and are
        tested against their k nearest candidate cells rank by rank.
        Each row gets exactly what :meth:`locate_one` returns for it.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        n = len(pts)
        cells = np.full((n, 3), -1, dtype=np.int64)
        rst_out = np.zeros((n, 3), dtype=np.float64)
        if n == 0:
            return cells, rst_out
        if hints is not None:
            hint_rows = [row for row, h in enumerate(hints) if h is not None]
            if hint_rows:
                rows = np.asarray(hint_rows, dtype=np.int64)
                starts = np.asarray(
                    [hints[row] for row in hint_rows], dtype=np.int64
                )
                w_cells, w_rst = self._walk_many(pts[rows], starts)
                cells[rows] = w_cells
                rst_out[rows] = w_rst
        unresolved = np.nonzero(cells[:, 0] < 0)[0]
        if unresolved.size == 0:
            return cells, rst_out
        pad = self.slack
        inb = np.all(pts[unresolved] >= self._bounds[0] - pad, axis=1) & np.all(
            pts[unresolved] <= self._bounds[1] + pad, axis=1
        )
        pending = unresolved[inb]
        if pending.size == 0:
            return cells, rst_out
        self._ensure_tree()
        n_cells = self.block.n_cells
        k = min(_K_CANDIDATES, n_cells)
        _dists, flats = self._tree.query(pts[pending], k=k)
        flats = np.atleast_2d(np.asarray(flats, dtype=np.int64).reshape(len(pending), k))
        ci, cj, ck = self.block.cell_shape
        for rank in range(k):
            if pending.size == 0:
                break
            flat = flats[:, rank]
            i, rem = np.divmod(flat, cj * ck)
            j, kk = np.divmod(rem, ck)
            corners = self._cell_corners[i, j, kk]
            rst, ok = invert_trilinear_many(corners, pts[pending])
            inside = (
                ok
                & np.all(rst >= -self.slack, axis=1)
                & np.all(rst <= 1.0 + self.slack, axis=1)
            )
            if inside.any():
                rows = pending[inside]
                cells[rows, 0] = i[inside]
                cells[rows, 1] = j[inside]
                cells[rows, 2] = kk[inside]
                rst_out[rows] = rst[inside]
                pending = pending[~inside]
                flats = flats[~inside]
        return cells, rst_out

    def _walk_many(
        self, pts: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized cell walk: every point steps from its own hint cell."""
        m = len(pts)
        ci, cj, ck = self.block.cell_shape
        limit = np.array([ci - 1, cj - 1, ck - 1], dtype=np.int64)
        cur = np.clip(np.asarray(starts, dtype=np.int64), 0, limit)
        out_cells = np.full((m, 3), -1, dtype=np.int64)
        out_rst = np.zeros((m, 3), dtype=np.float64)
        alive = np.arange(m)
        prev = np.full((m, 3), -9, dtype=np.int64)
        for _ in range(_MAX_WALK):
            corners = self._cell_corners[cur[alive, 0], cur[alive, 1], cur[alive, 2]]
            rst, ok = invert_trilinear_many(corners, pts[alive])
            inside = (
                ok
                & np.all(rst >= -self.slack, axis=1)
                & np.all(rst <= 1.0 + self.slack, axis=1)
            )
            if inside.any():
                rows = alive[inside]
                out_cells[rows] = cur[rows]
                out_rst[rows] = rst[inside]
            # Step toward where the natural coordinates point.
            step = np.where(rst < -self.slack, -1, np.where(rst > 1.0 + self.slack, 1, 0))
            nxt = cur[alive] + step
            keep = (
                ~inside
                & step.any(axis=1)  # Newton failed without direction info
                & (nxt >= 0).all(axis=1)
                & (nxt <= limit).all(axis=1)  # walked off the block
                & ~(nxt == prev[alive]).all(axis=1)  # two-cell oscillation
            )
            rows = alive[keep]
            if rows.size == 0:
                break
            prev[rows] = cur[rows]
            cur[rows] = nxt[keep]
            alive = rows
        return out_cells, out_rst

    def interpolate_many(
        self, name: str, cells: np.ndarray, rst: np.ndarray
    ) -> np.ndarray:
        """Trilinear values of field ``name``: one gather for many (cell, rst) pairs.

        ``cells`` is ``(n, 3)`` int, ``rst`` ``(n, 3)``; returns ``(n,)``
        for scalar fields and ``(n, 3)`` for vector fields.  Batches of
        at most ``_SMALL_BATCH`` rows run :meth:`blend_one` row by row.
        """
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        rst = np.asarray(rst, dtype=np.float64).reshape(-1, 3)
        data = self.block.field(name)
        n = len(cells)
        if n <= _SMALL_BATCH:
            out = np.empty((n,) + data.shape[3:], dtype=np.float64)
            for row, ((i, j, k), (r, s, t)) in enumerate(
                zip(cells.tolist(), rst.tolist())
            ):
                out[row] = self.blend_one(data, i, j, k, r, s, t)
            return out
        w = trilinear_weights_many(rst)
        i, j, k = cells[:, 0], cells[:, 1], cells[:, 2]
        corners = np.stack(
            [
                data[i, j, k],
                data[i + 1, j, k],
                data[i + 1, j + 1, k],
                data[i, j + 1, k],
                data[i, j, k + 1],
                data[i + 1, j, k + 1],
                data[i + 1, j + 1, k + 1],
                data[i, j + 1, k + 1],
            ],
            axis=1,
        )
        if data.ndim == 3:
            return (w * corners).sum(axis=1)
        return (w[:, :, None] * corners).sum(axis=1)
