"""Static search structure over numeric key vectors.

:class:`DominanceIndex` is the flat, block-pruned index behind every
exact query in curveq.  Rows are sorted by a caller-chosen key (a Morton
code in every structure) and grouped into blocks with componentwise
minima.  Every query has one form, a minimum over shift rows of a
maximum over columns of ``(value - shift) / scale``.  One best-first
search answers it (:meth:`DominanceIndex.nearest`): blocks are visited in
increasing order of a lower bound derived from their minima, and the
search stops once no unvisited block can beat the best distance found
(Roussopoulos, Kelley & Vincent, SIGMOD 1995; Hjaltason & Samet, TODS
1999); :meth:`DominanceIndex.within` scans the blocks whose bound is at
most a given distance.  Bounds are exact because ``x -> (x - s) /
scale`` rounds monotonically; for the same reason a shift row that
another row dominates (no larger in any column) is never closer to any
stored row, and a query with at most four shift rows per block drops it
first (the skyline of Börzsönyi, Kossmann & Stocker, ICDE 2001, on the
query side).  Values are stored column-major, one
contiguous row per dimension (the column-store layout of Boncz, Zukowski
& Nes, CIDR 2005), so the max over the D columns reduces over the leading
axis: NumPy takes elementwise maxima of long contiguous rows instead of
reducing many trailing axes of only 4-8 columns.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["DominanceIndex"]

# nearest filters shift rows while R is at most this many per block; past
# that its (D + 1) * R^2 comparisons stop paying for themselves against the
# D * R * blocks differences of a bound pass (timings in CHANGES.md)
_SKYLINE_ROWS_PER_BLOCK = 4


def _undominated(st) -> np.ndarray:
    """Mask of the shift rows (columns of the (D, R) array ``st``) that no
    other row dominates.  Row j dominates row i when ``st[:, i] <= st[:, j]``;
    of equal rows the first is kept."""
    le = np.logical_and.reduce(st[:, :, None] <= st[:, None, :], axis=0)  # le[i, j]: j dominates i
    return ~(le & ~np.triu(le.T)).any(axis=1)  # j does not drop an equal i < j


class DominanceIndex:
    """Exact min-max queries over N rows of D-dimensional values v.

    The per-column scales are fixed at build; a query supplies R shift
    rows s_r.  The distance of stored row v under shift row r is

        max_k (v[k] - s_r[k]) / scale[k]

    :meth:`nearest` minimizes it over all (r, v) pairs and :meth:`within`
    collects the rows where it is at most a given d.  Every difference is
    evaluated exactly as written, subtracted then divided column by
    column, which keeps results bit-identical to brute-force scans
    computing the same differences.  Scales must be powers of two (1 or 2
    here) so the quotients are exact.

    The sorted values are held once, as the C-contiguous (D, N) array
    ``cols``; block minima are (D, blocks).  Distances are (D, R, rows)
    differences reduced over axis 0, column by column in the same order
    as a row-major scan, so the layout does not change any answer.
    """

    def __init__(self, values, sort_keys, tags=None, block_size: Optional[int] = None,
                 scales=None):
        """``sort_keys`` sets the row order; ``scales`` holds the D column
        scales (default: all 1).

        A space-filling-curve key makes the per-block minima jointly
        selective across all dimensions.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        n, d = values.shape
        if n == 0:
            raise ValueError("DominanceIndex requires at least one row")
        order = np.argsort(np.asarray(sort_keys), kind="stable")
        # a C-contiguous copy: the F-ordered view values.T[:, order] is slow
        self.cols = np.ascontiguousarray(values.take(order, axis=0).T)
        tags = np.arange(n) if tags is None else np.asarray(tags)
        self.tags = tags[order]
        b = block_size or max(8, math.isqrt(n))
        self._starts = np.arange(0, n, b)
        self._bmins = np.minimum.reduceat(self.cols, self._starts, axis=1)
        self._n = n
        self._b = b
        # (D, 1, 1): each column's differences are divided after subtracting
        self._scale = None if scales is None else np.asarray(scales, dtype=float).reshape(-1, 1, 1)

    def describe(self) -> dict:
        """Rows, dims, blocks, block size and bytes of the row, tag and block arrays."""
        arrays = (self.cols, self.tags, self._starts, self._bmins)
        return {
            "rows": self._n,
            "dims": self.cols.shape[0],
            "blocks": len(self._starts),
            "block_size": self._b,
            "nbytes": sum(a.nbytes for a in arrays),
        }

    # -- min-max queries ------------------------------------------------------

    def _dist(self, shift_rows):
        """``dist(v, rows)``: distances of the (D, n) values v under the
        selected shift rows, shape (rows, n).

        When there are at most four shift rows per block, rows that
        another row dominates are dropped first (see :func:`_undominated`):
        by monotone rounding their distance to every row, and their bound
        on every block, is at least their dominator's, so no minimum, no
        block order and no set of rows within a distance changes.
        """
        st = np.ascontiguousarray(np.atleast_2d(np.asarray(shift_rows, dtype=float)).T)
        if 1 < st.shape[1] <= _SKYLINE_ROWS_PER_BLOCK * len(self._starts):
            st = st[:, _undominated(st)]
        scale = self._scale

        def dist(v, rows):
            diff = v[:, None, :] - st[:, rows, None]
            if scale is not None:
                diff /= scale
            return diff.max(axis=0)

        return dist

    def nearest(self, shift_rows):
        """``(distance, tag)`` of the minimizing pair; ties to the smallest tag.

        Per (shift row, block) the lower bound is the distance of the
        block's componentwise minima.  Blocks are visited in increasing
        order of their smallest bound, and inside a block only the shift
        rows whose bound does not exceed the best distance so far are
        evaluated.  The search ends at the first block whose bound is
        above the best distance, so blocks that tie it are still visited.
        A zero distance is returned as ``0.0``, never ``-0.0``.
        """
        dist = self._dist(shift_rows)
        bounds = dist(self._bmins, slice(None))  # (R, blocks)
        block_lb = bounds.min(axis=0)
        best, best_tag = math.inf, None
        for bi in np.argsort(block_lb, kind="stable").tolist():
            if block_lb[bi] > best:
                break
            rows = np.flatnonzero(bounds[:, bi] <= best)
            lo = bi * self._b
            d = dist(self.cols[:, lo:lo + self._b], rows).min(axis=0)
            m = d.min()
            if m > best:
                continue
            tag = self.tags[lo:lo + self._b][d == m].min()
            if best_tag is None or m < best or tag < best_tag:
                best, best_tag = float(m) + 0.0, tag  # + 0.0 turns -0.0 into 0.0
        return best, best_tag

    def within(self, shift_rows, d: float) -> np.ndarray:
        """Sorted distinct tags of the rows at distance at most d under some
        shift row (see :meth:`nearest`).  Each shift row is evaluated in one
        gather of the blocks whose bound under it is at most d, so the
        temporaries stay within a few times the bytes of ``cols``."""
        dist = self._dist(shift_rows)
        hits = dist(self._bmins, slice(None)) <= d  # (R, blocks)
        out = [self.tags[:0]]
        for r in np.flatnonzero(hits.any(axis=1)).tolist():
            rows = (np.flatnonzero(hits[r])[:, None] * self._b + np.arange(self._b)).ravel()
            rows = rows[rows < self._n]
            # take copies in C order; cols[:, rows] would be F-ordered and slow
            near = dist(self.cols.take(rows, axis=1), slice(r, r + 1))[0] <= d
            out.append(self.tags[rows[near]])
        return np.unique(np.concatenate(out))
