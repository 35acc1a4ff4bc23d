"""One-point trilinear inversion and cell location: the test oracle.

The library's kernels (:func:`~repro.grids.interpolate._invert_one`,
:meth:`~repro.grids.interpolate.CellLocator.locate_one`,
:meth:`~repro.grids.interpolate.CellLocator.blend_one`) are written for
speed and for fixed floating-point association.  This module keeps the
independent implementation they are checked against: a separately
written Newton solver (:func:`invert_trilinear`) and a
:class:`ScalarCellLocator` that adds ``locate`` / ``interpolate`` /
``sample`` on numpy arrays to the library's locator.
"""

from __future__ import annotations

import numpy as np

from repro.grids.interpolate import CellLocator

__all__ = [
    "trilinear_weights",
    "trilinear_map",
    "invert_trilinear",
    "ScalarCellLocator",
]


def trilinear_weights(rst: np.ndarray) -> np.ndarray:
    """Shape-function values at natural coordinates, shape ``(8,)``."""
    r, s, t = rst
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    return np.array(
        [
            rm * sm * tm,
            r * sm * tm,
            r * s * tm,
            rm * s * tm,
            rm * sm * t,
            r * sm * t,
            r * s * t,
            rm * s * t,
        ]
    )


def trilinear_map(corners: np.ndarray, rst: np.ndarray) -> np.ndarray:
    """Physical point at natural coordinates ``rst`` of a hexahedron."""
    return trilinear_weights(rst) @ corners


def invert_trilinear(
    corners: np.ndarray,
    point: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 25,
) -> tuple[np.ndarray, bool]:
    """Newton-invert the trilinear map; returns ``(rst, converged)``.

    ``converged`` only says the Newton iteration reached ``tol``; whether
    the point is *inside* is a separate range check on ``rst``.

    The 3x3 Newton step is written in scalar Python, with its own
    summation order, so agreement with the library's ``_invert_one`` is
    agreement within rounding, not a copy of the same expressions.
    """
    c = np.asarray(corners, dtype=np.float64).reshape(8, 3).tolist()
    px, py, pz = (float(v) for v in np.asarray(point, dtype=np.float64))
    (c0, c1, c2, c3, c4, c5, c6, c7) = c
    r = s = t = 0.5
    tol2 = tol * tol
    for _ in range(max_iter):
        rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
        w0 = rm * sm * tm
        w1 = r * sm * tm
        w2 = r * s * tm
        w3 = rm * s * tm
        w4 = rm * sm * t
        w5 = r * sm * t
        w6 = r * s * t
        w7 = rm * s * t
        fx = (w0 * c0[0] + w1 * c1[0] + w2 * c2[0] + w3 * c3[0]
              + w4 * c4[0] + w5 * c5[0] + w6 * c6[0] + w7 * c7[0]) - px
        fy = (w0 * c0[1] + w1 * c1[1] + w2 * c2[1] + w3 * c3[1]
              + w4 * c4[1] + w5 * c5[1] + w6 * c6[1] + w7 * c7[1]) - py
        fz = (w0 * c0[2] + w1 * c1[2] + w2 * c2[2] + w3 * c3[2]
              + w4 * c4[2] + w5 * c5[2] + w6 * c6[2] + w7 * c7[2]) - pz
        if fx * fx + fy * fy + fz * fz < tol2:
            return np.array([r, s, t]), True
        # dN_i/dr etc., folded straight into the 3x3 Jacobian
        # J[c, a] = d x_c / d rst_a.
        dr = [-sm * tm, sm * tm, s * tm, -s * tm, -sm * t, sm * t, s * t, -s * t]
        ds = [-rm * tm, -r * tm, r * tm, rm * tm, -rm * t, -r * t, r * t, rm * t]
        dt = [-rm * sm, -r * sm, -r * s, -rm * s, rm * sm, r * sm, r * s, rm * s]
        j00 = j01 = j02 = j10 = j11 = j12 = j20 = j21 = j22 = 0.0
        for i, ci in enumerate((c0, c1, c2, c3, c4, c5, c6, c7)):
            j00 += dr[i] * ci[0]
            j10 += dr[i] * ci[1]
            j20 += dr[i] * ci[2]
            j01 += ds[i] * ci[0]
            j11 += ds[i] * ci[1]
            j21 += ds[i] * ci[2]
            j02 += dt[i] * ci[0]
            j12 += dt[i] * ci[1]
            j22 += dt[i] * ci[2]
        det = (
            j00 * (j11 * j22 - j12 * j21)
            - j01 * (j10 * j22 - j12 * j20)
            + j02 * (j10 * j21 - j11 * j20)
        )
        if det == 0.0 or det != det:  # singular or NaN
            return np.array([r, s, t]), False
        # Cramer's rule for J . delta = f.
        inv = 1.0 / det
        d_r = inv * (
            fx * (j11 * j22 - j12 * j21)
            - j01 * (fy * j22 - j12 * fz)
            + j02 * (fy * j21 - j11 * fz)
        )
        d_s = inv * (
            j00 * (fy * j22 - j12 * fz)
            - fx * (j10 * j22 - j12 * j20)
            + j02 * (j10 * fz - fy * j20)
        )
        d_t = inv * (
            j00 * (j11 * fz - fy * j21)
            - j01 * (j10 * fz - fy * j20)
            + fx * (j10 * j21 - j11 * j20)
        )
        r -= d_r
        s -= d_s
        t -= d_t
        # Keep Newton from running away on strongly curved cells.
        r = -1.0 if r < -1.0 else (2.0 if r > 2.0 else r)
        s = -1.0 if s < -1.0 else (2.0 if s > 2.0 else s)
        t = -1.0 if t < -1.0 else (2.0 if t > 2.0 else t)
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    w = (rm * sm * tm, r * sm * tm, r * s * tm, rm * s * tm,
         rm * sm * t, r * sm * t, r * s * t, rm * s * t)
    fx = sum(w[i] * ci[0] for i, ci in enumerate((c0, c1, c2, c3, c4, c5, c6, c7))) - px
    fy = sum(w[i] * ci[1] for i, ci in enumerate((c0, c1, c2, c3, c4, c5, c6, c7))) - py
    fz = sum(w[i] * ci[2] for i, ci in enumerate((c0, c1, c2, c3, c4, c5, c6, c7))) - pz
    return np.array([r, s, t]), bool(fx * fx + fy * fy + fz * fz < tol2)


def _inside(rst: np.ndarray, slack: float) -> bool:
    return bool(np.all(rst >= -slack) and np.all(rst <= 1.0 + slack))


class ScalarCellLocator(CellLocator):
    """:class:`CellLocator` plus the one-point locate / interpolate API."""

    def _cell_index(self, flat: int) -> tuple[int, int, int]:
        ci, cj, ck = self.block.cell_shape
        i, rem = divmod(flat, cj * ck)
        j, k = divmod(rem, ck)
        return (i, j, k)

    def in_bounds(self, point: np.ndarray, pad: float = 0.0) -> bool:
        p = np.asarray(point)
        return bool(
            np.all(p >= self._bounds[0] - pad) and np.all(p <= self._bounds[1] + pad)
        )

    # ----------------------------------------------------------- locate
    def _try_cell(
        self, cell: tuple[int, int, int], point: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        corners = self._cell_corners[cell]
        rst, ok = invert_trilinear(corners, point)
        return rst, ok and _inside(rst, self.slack)

    def locate(
        self,
        point: np.ndarray,
        hint: tuple[int, int, int] | None = None,
        k_candidates: int = 8,
        max_walk: int = 64,
    ) -> tuple[tuple[int, int, int], np.ndarray] | None:
        """Find ``(cell_index, natural_coords)`` for ``point``.

        With a ``hint``, walk from that cell using the direction in which
        natural coordinates overshoot (cheap for coherent queries);
        otherwise query the kd-tree over cell centers.  Returns ``None``
        when the point is in no cell of this block.
        """
        point = np.asarray(point, dtype=np.float64)
        if hint is not None:
            found = self._walk(point, hint, max_walk)
            if found is not None:
                return found
        if not self.in_bounds(point, pad=self.slack):
            return None
        self._ensure_tree()
        n_cells = self.block.n_cells
        k = min(k_candidates, n_cells)
        _dists, flats = self._tree.query(point, k=k)
        flats = np.atleast_1d(flats)
        for flat in flats:
            cell = self._cell_index(int(flat))
            rst, inside = self._try_cell(cell, point)
            if inside:
                return cell, rst
        return None

    def _walk(
        self, point: np.ndarray, start: tuple[int, int, int], max_walk: int
    ) -> tuple[tuple[int, int, int], np.ndarray] | None:
        ci, cj, ck = self.block.cell_shape
        cell = (
            min(max(start[0], 0), ci - 1),
            min(max(start[1], 0), cj - 1),
            min(max(start[2], 0), ck - 1),
        )
        visited = set()
        for _ in range(max_walk):
            if cell in visited:
                return None
            visited.add(cell)
            rst, inside = self._try_cell(cell, point)
            if inside:
                return cell, rst
            # Step toward where the natural coordinates point.
            step = [0, 0, 0]
            for a in range(3):
                if rst[a] < -self.slack:
                    step[a] = -1
                elif rst[a] > 1.0 + self.slack:
                    step[a] = 1
            if step == [0, 0, 0]:
                return None  # Newton failed without direction info
            nxt = (cell[0] + step[0], cell[1] + step[1], cell[2] + step[2])
            if not (0 <= nxt[0] < ci and 0 <= nxt[1] < cj and 0 <= nxt[2] < ck):
                return None  # walked off the block
            cell = nxt
        return None

    # ------------------------------------------------------ interpolate
    def interpolate(
        self, name: str, cell: tuple[int, int, int], rst: np.ndarray
    ) -> np.ndarray | float:
        """Trilinear value of field ``name`` at natural coords in ``cell``."""
        w = trilinear_weights(rst)
        data = self.block.field(name)
        i, j, k = cell
        if data.ndim == 3:
            corners = self.block.cell_corner_values(name, i, j, k)
            return float(w @ corners)
        corners = np.array(
            [
                data[i, j, k],
                data[i + 1, j, k],
                data[i + 1, j + 1, k],
                data[i, j + 1, k],
                data[i, j, k + 1],
                data[i + 1, j, k + 1],
                data[i + 1, j + 1, k + 1],
                data[i, j + 1, k + 1],
            ]
        )
        return w @ corners

    def sample(
        self, name: str, point: np.ndarray, hint: tuple[int, int, int] | None = None
    ) -> tuple[np.ndarray | float, tuple[int, int, int]] | None:
        """Locate ``point`` and interpolate ``name`` there in one call."""
        found = self.locate(point, hint=hint)
        if found is None:
            return None
        cell, rst = found
        return self.interpolate(name, cell, rst), cell
