"""Static search structure over numeric key vectors.

:class:`DominanceIndex` is the flat, block-pruned index behind every
exact query in curveq.  Rows are sorted by a caller-chosen key (a Morton
code in every structure) and grouped into blocks with componentwise
minima.  One best-first search answers the min-max queries: blocks are
visited in increasing order of a lower bound derived from their minima,
and the search stops once no unvisited block can beat the best distance
found (Roussopoulos, Kelley & Vincent, SIGMOD 1995; Hjaltason & Samet,
TODS 1999).  Bounds are exact because ``x -> (x - s) / scale`` rounds
monotonically.  Threshold queries (:meth:`DominanceIndex.collect_thresholds`)
return every row below a componentwise bound.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["DominanceIndex"]


class DominanceIndex:
    """Exact min-max queries over N rows of D-dimensional values v.

    A query supplies R shift rows s_r, optional per-column scales and
    optional per-row constants c_r.  The distance of stored row v under
    shift row r is

        max(c_r, max_k (v[k] - s_r[k]) / scale[k])

    and :meth:`nearest` minimizes it over all (r, v) pairs.  Every
    difference is evaluated exactly as written, which keeps results
    bit-identical to brute-force scans computing the same differences.
    Scales must be powers of two (1 or 2 here) so the quotients are exact.
    """

    def __init__(self, values, sort_keys, tags=None, block_size: Optional[int] = None):
        """``sort_keys`` sets the row order.

        A space-filling-curve key makes the per-block minima jointly
        selective across all dimensions.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        n, d = values.shape
        if n == 0:
            raise ValueError("DominanceIndex requires at least one row")
        order = np.argsort(np.asarray(sort_keys), kind="stable")
        self.values = np.ascontiguousarray(values[order])
        tags = np.arange(n) if tags is None else np.asarray(tags)
        self.tags = tags[order]
        b = block_size or max(8, math.isqrt(n))
        self._starts = np.arange(0, n, b)
        self._bmins = np.minimum.reduceat(self.values, self._starts, axis=0)
        self._n = n
        self._b = b

    def __len__(self) -> int:
        return self._n

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def describe(self) -> dict:
        """Rows, dims, blocks, block size and bytes held in arrays."""
        arrays = (self.values, self.tags, self._starts, self._bmins)
        return {
            "rows": self._n,
            "dims": self.dims,
            "blocks": len(self._starts),
            "block_size": self._b,
            "nbytes": sum(a.nbytes for a in arrays),
        }

    # -- min-max queries ------------------------------------------------------

    def nearest(self, shift_rows, scales=None, row_consts=None, stop=None):
        """``(distance, tag)`` of the minimizing pair; ties to the smallest tag.

        Per (shift row, block) the lower bound is the distance of the
        block's componentwise minima.  Blocks are visited in increasing
        order of their smallest bound, and inside a block only the shift
        rows whose bound does not exceed the best distance so far are
        evaluated.  The search ends at the first block whose bound is
        above the best distance, so blocks that tie it are still visited.

        With ``stop`` the search returns the first pair found at distance
        at most ``stop`` instead, or None when there is none.
        """
        s = np.atleast_2d(np.asarray(shift_rows, dtype=float))
        scale = None if scales is None else np.asarray(scales, dtype=float)
        consts = None if row_consts is None else np.asarray(row_consts, dtype=float)

        def dist(v, rows):
            diff = v[None, :, :] - s[rows, None, :]
            if scale is not None:
                diff /= scale
            d = diff.max(axis=2)
            return d if consts is None else np.maximum(d, consts[rows, None])

        bounds = dist(self._bmins, slice(None))  # (R, blocks)
        block_lb = bounds.min(axis=0)
        best = math.inf if stop is None else float(stop)
        best_tag = None
        for bi in np.argsort(block_lb, kind="stable").tolist():
            if block_lb[bi] > best:
                break
            rows = np.flatnonzero(bounds[:, bi] <= best)
            lo = bi * self._b
            d = dist(self.values[lo:lo + self._b], rows).min(axis=0)
            m = d.min()
            if m > best:
                continue
            if stop is not None:
                return float(m), self.tags[lo + int(np.argmin(d))]
            tag = self.tags[lo:lo + self._b][d == m].min()
            if best_tag is None or m < best or tag < best_tag:
                best, best_tag = float(m), tag
        return None if best_tag is None else (best, best_tag)

    def decide(self, shift_rows, d: float, scales=None):
        """Tag of some row at distance at most d (see :meth:`nearest`), else None."""
        hit = self.nearest(shift_rows, scales, stop=d)
        return None if hit is None else hit[1]

    # -- threshold-form queries -----------------------------------------------

    def _block_rows(self, bi: int) -> slice:
        lo = self._starts[bi]
        return slice(lo, min(lo + self._b, self._n))

    def collect_thresholds(self, thresholds) -> np.ndarray:
        """Tags of all rows satisfying v <= thresholds componentwise."""
        thresholds = np.asarray(thresholds, dtype=float)
        out = []
        for bi in np.nonzero((self._bmins <= thresholds).all(axis=1))[0]:
            rows = self._block_rows(bi)
            ok = (self.values[rows] <= thresholds).all(axis=1)
            if ok.any():
                out.append(self.tags[rows][ok])
        if not out:
            return np.empty(0, dtype=self.tags.dtype)
        return np.sort(np.concatenate(out))
