"""(1+eps)-approximate nearest neighbor under the L2 discrete Fréchet distance.

* :class:`ExponentialGrid` + :class:`AnnStructure`: the (1+eps, r) problem
  for segment queries over curves.  Each curve gets exponential grids
  around its first and last vertex covering radii [eps*r/(2*sqrt(2)), r];
  every same-curve cell pair (g, h) is annotated with the input curve
  closest to the segment of cell centers.  A query locates a and b in
  all 2n grids in one pass and returns the best annotation: when some
  curve is within r, the answer is within (1+eps)*r.  Exact L2 segment
  queries without a radius go through :meth:`curveq.nn_linf.SegmentQueryIndex.nearest_l2`.

* :class:`KgonStructure`: curve queries over segments.  Replaces the
  L-infinity squares by regular k-gons with k chosen so that
  1/cos(pi/k) <= 1+eps; the exact k-gon optimum, rescaled by 1/cos(pi/k),
  sandwiches the true L2 optimum within [d*, (1+eps) d*].  It is the
  support-value index of :class:`~curveq.nn_linf.SegmentInputIndex` on
  the k-gon's k normals instead of the four axis normals.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .geometry import Curve, Segment, _curve_list, _dist_matrix
from .nn_linf import _SupportIndex

__all__ = ["ExponentialGrid", "AnnStructure", "kgon_sides", "KgonStructure"]

# AnnStructure's annotation compares every same-curve cell pair with every
# split of every curve; builds above this many comparisons are refused
MAX_ANN_COMPARISONS = 10**8
# KgonStructure's value table (2k support values per segment) is refused past this size
MAX_KGON_VALUES = 10**7


def _first(n: int, pred) -> int:
    """First k in [0, n) with pred(k), for pred monotone from False to True."""
    return bisect.bisect_left(range(n), True, key=pred)


def _grid_levels(centers: np.ndarray, eps: float, alpha: float, beta: float):
    """The levels of :class:`ExponentialGrid`: per level (half side, cell
    width, n cells per side), shared by every center, and per center,
    level and axis (x, y) the cells [a0, a1) meeting the level's square
    and [b0, b1) inside the previous one, as a (k, levels, 2, 4) array.
    Cell k spans x0 + k*w to x0 + (k+1)*w, monotone in k, so each range
    end is a binary search over the float steps of a scan; a cell is kept
    unless in b on both axes."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if not math.isfinite(2.0 * beta):
        raise ValueError(f"beta must be finite with 2*beta finite, got {beta}")
    if not 0 < alpha <= beta:
        raise ValueError("need 0 < alpha <= beta")
    sizes, ranges, half_prev = [], [], 0.0
    levels = max(1, math.ceil(math.log2(2.0 * beta / alpha)))
    for i in range(1, levels + 1):
        lam = min(2.0 ** i * alpha, 2.0 * beta) if i < levels else 2.0 * beta
        half = lam / 2.0
        w = 2.0 * half if i == 1 else eps * lam / (2.0 * math.sqrt(2.0))
        if w == 0.0:
            raise ValueError(f"cell width underflows to 0 at eps={eps!r}, alpha={alpha!r}")
        n = 1 if i == 1 else math.ceil(lam / w)  # level 1 is one cell
        sizes.append((half, w, n))
        for c in centers.ravel():
            x0 = c - half
            a0 = _first(n, lambda k: c - (x0 + (k + 1) * w) <= half)
            a1 = _first(n, lambda k: (x0 + k * w) - c > half)
            b0 = max(a0, _first(n, lambda k: (x0 + k * w) - c > -half_prev))
            ranges.append((a0, a1, b0, max(b0, min(a1, _first(
                n, lambda k: (x0 + (k + 1) * w) - c >= half_prev)))))
        half_prev = half
    return sizes, np.array(ranges, dtype=int).reshape(len(sizes), -1, 2, 4).swapaxes(0, 1)


class ExponentialGrid:
    """Concentric annulus grids of doubling scale around each of k centers.

    Level i uses the square S_i of side lambda_i = min(2^i * alpha,
    2*beta); the innermost square is a single cell, every further level
    tiles S_i \\ S_{i-1} with cells of side eps*lambda_i/(2*sqrt(2)).
    Setting the outermost side to 2*beta (2^i * alpha may round an ulp
    short of it there) makes the grid cover the whole closed L2 ball of
    radius beta while keeping every assigned cell center within
    max(sqrt(2)*alpha, eps*beta/2) of the located point.

    ``centers`` is a (k, 2) stack, or one point.  The k grids share the
    per-level ``half`` side, cell ``width`` and cells per ``side``; center
    j numbers its ``ncells[j]`` cells from 0, level by level and row by
    row.  Cells are built on first use, so ``ncells`` is known before.
    """

    def __init__(self, centers, eps: float, alpha: float, beta: float):
        self.centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        if not len(self.centers):
            raise ValueError("need at least one center")
        sizes, self._ranges = _grid_levels(self.centers, eps, alpha, beta)
        self.eps, self.alpha, self.beta = float(eps), float(alpha), float(beta)
        self.half, self.width, self.side = (np.array(v) for v in zip(*sizes))
        self.nlevels = len(sizes)
        self._sizes = np.column_stack([self.half, self.width, self.side - 1])  # for locate
        spans = self._ranges[..., 1::2] - self._ranges[..., ::2]  # (k, levels, axis, (a, b))
        self.ncells = (spans[..., 0].prod(axis=2) - spans[..., 1].prod(axis=2)).sum(axis=1)

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The (k, levels, n, n) table of cell ids by (row, col), -1 where
        no cell is kept, and the cell centers in id order."""
        r, idx = self._ranges[..., None], np.arange(self.side.max())
        a = (r[..., 0, :] <= idx) & (idx < r[..., 1, :])  # (k, levels, axis, n)
        b = (r[..., 2, :] <= idx) & (idx < r[..., 3, :])
        keep = ~(b[:, :, 1, :, None] & b[:, :, 0, None, :])
        keep &= a[:, :, 1, :, None] & a[:, :, 0, None, :]  # rows are y, columns x
        ids = np.cumsum(keep.reshape(len(keep), -1), axis=1).reshape(keep.shape) - 1
        j, lv, row, col = np.nonzero(keep)
        x0, w = self.centers[j] - self.half[lv, None], self.width[lv, None]
        ks = np.column_stack([col, row])
        mids = ((x0 + ks * w) + (x0 + (ks + 1) * w)) / 2.0
        mids[lv == 0] = self.centers[j[lv == 0]]  # the single innermost cell
        return np.where(keep, ids, -1), mids

    @property
    def cell_centers(self) -> np.ndarray:
        return self._cells[1]

    def locate(self, q) -> np.ndarray:
        """Per center, the id of its cell holding q (one point, or a (k, 2)
        stack of one point per center); -1 where q lies outside every
        square."""
        q = np.asarray(q, dtype=float)
        d = np.abs(q - self.centers)
        lv = self.half.searchsorted(np.maximum(d[:, 0], d[:, 1]))  # the first square holding q
        j = np.flatnonzero(lv < self.nlevels)
        lv = lv[j]
        half, w, last = self._sizes[lv].T[:, :, None]
        x0 = self.centers[j] - half
        # the float step can pass an edge cell of the square
        cell = np.clip(((q[j] if q.ndim == 2 else q) - x0) // w, 0, last).astype(int)
        ids = np.full(len(d), -1)
        ids[j] = self._cells[0][j, lv, cell[:, 1], cell[:, 0]]
        return ids


class AnnStructure:
    """(1+eps, r)-approximate nearest curve for segment queries.

    Build cost is dominated by annotating every same-curve cell pair with
    its nearest input curve (distance computed exactly per pair), i.e.
    O(n^2 K^2 m) point distances for K cells per grid.  Raises
    ValueError when that count exceeds ``MAX_ANN_COMPARISONS``, before
    any cell is built.

    ``grid`` stacks the grids of the n first, then the n last vertices.
    Curve j's pair (g, h) is annotated at ``pair_start[j] + g *
    ncells_last[j] + h`` of ``pair_dist`` and ``pair_curve``.
    """

    def __init__(self, curves: Sequence[Curve], eps: float, r: float):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if r <= 0:
            raise ValueError("r must be positive")
        if not math.isfinite(2.0 * r):  # also bounds the (1 + eps) * r answers
            raise ValueError(f"r must be finite with 2r finite, got {r}")
        curves, sizes = _curve_list(curves)
        self.curves = curves
        self.eps = float(eps)
        self.r = float(r)
        ends = [c.pts[i] for i in (0, -1) for c in curves]
        try:  # eps and r are valid here: the grid refuses only cells that underflow
            grid = ExponentialGrid(ends, eps, eps * r / (2.0 * math.sqrt(2.0)), r)
        except ValueError:
            raise ValueError(f"r={r!r} is too small for eps={eps!r}: "
                             "grid cells underflow to 0") from None
        n = len(curves)
        cells_first, self.ncells_last = grid.ncells[:n], grid.ncells[n:]
        work = sum(f * g for f, g in zip(cells_first.tolist(), self.ncells_last.tolist()))
        work *= int((sizes - 1).sum())
        if work > MAX_ANN_COMPARISONS:
            raise ValueError(
                f"AnnStructure build of {work:.3g} comparisons refused: cell pairs "
                f"times curve splits, limit {MAX_ANN_COMPARISONS:.0e}"
            )
        self.grid = grid
        self.pair_start = np.concatenate([[0], np.cumsum(cells_first * self.ncells_last)])

        # pair annotations: nearest curve over the whole set per (g, h)
        self.pair_dist = np.full(self.pair_start[-1], np.inf)
        self.pair_curve = np.zeros(self.pair_start[-1], dtype=int)
        cells = np.split(grid.cell_centers, np.cumsum(grid.ncells)[:-1])
        run_max = np.maximum.accumulate  # of distances to a curve's prefixes or suffixes
        for j, (cf, cl) in enumerate(zip(cells[:n], cells[n:])):
            pairs = slice(self.pair_start[j], self.pair_start[j + 1])
            best_d = self.pair_dist[pairs].reshape(len(cf), len(cl))
            best_c = self.pair_curve[pairs].reshape(len(cf), len(cl))
            for ci, c in enumerate(curves):
                pre_g = run_max(_dist_matrix(cf, c.pts, "l2"), axis=1)[:, :-1]
                suf_h = run_max(_dist_matrix(cl, c.pts[::-1], "l2"), axis=1)[:, ::-1][:, 1:]
                d = np.maximum.outer(pre_g[:, 0], suf_h[:, 0])
                for k in range(1, pre_g.shape[1]):
                    np.minimum(d, np.maximum.outer(pre_g[:, k], suf_h[:, k]), out=d)
                better = d < best_d
                best_d[better] = d[better]
                best_c[better] = ci

    def query(self, s: Segment) -> Optional[tuple[str, float]]:
        """(curve id, certified bound (1+eps)*r) or None when nothing stabs.

        A None is only possible when no curve lies within r of s; when
        some curve is within r, the returned curve is within (1+eps)*r.
        """
        n = len(self.curves)
        cell = self.grid.locate(np.array([s.a, s.b]).repeat(n, axis=0))
        g, h = cell[:n], cell[n:]
        pairs = (self.pair_start[:-1] + g * self.ncells_last + h)[np.minimum(g, h) >= 0]
        if not len(pairs):
            return None
        best = pairs[self.pair_dist[pairs].argmin()]  # first minimum: ties go to the first curve
        return self.curves[self.pair_curve[best]].id, (1.0 + self.eps) * self.r


# ---------------------------------------------------------------------------
# k-gon structure: curve queries over segments
# ---------------------------------------------------------------------------

def kgon_sides(eps: float) -> int:
    """Smallest k >= 3 with 1/cos(pi/k) <= 1 + eps, searched below twice
    the real bound pi/acos(1/(1+eps)): below eps ~ 1e-11, where cos rounds
    flat, the float inequality can first hold many steps from it."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if 1.0 + eps == 1.0:
        raise ValueError(f"no k-gon fits at eps={eps!r}: 1 + eps rounds to 1")
    bound = math.ceil(math.pi / math.acos(1.0 / (1.0 + eps)))
    return 3 + _first(2 * bound, lambda k: 1.0 / math.cos(math.pi / (k + 3)) <= 1.0 + eps)


class KgonStructure(_SupportIndex):
    """Segments indexed by their endpoints' support values on the k outward
    unit normals of the regular k-gon: the index of
    :class:`~curveq.nn_linf.SegmentInputIndex` on k normals instead of
    four.  The radius-d k-gon around p contains the L2 ball of radius d
    and fits in the ball of radius d/cos(pi/k).
    """

    def __init__(self, segments: Sequence[Segment], eps: float):
        self.eps = float(eps)
        self.k = kgon_sides(eps)
        values = 2 * self.k * len(segments)
        if values > MAX_KGON_VALUES:
            raise ValueError(f"KgonStructure at eps={eps!r} refused: k={self.k} sides make "
                             f"{values:.3g} support values, limit {MAX_KGON_VALUES:.0e}")
        ang = 2.0 * math.pi * np.arange(self.k) / self.k
        super().__init__(segments, np.column_stack([np.cos(ang), np.sin(ang)]))

    def nearest(self, q: Curve) -> tuple[str, float]:
        """Nearest segment with distance estimate d~ in [d*, (1+eps) d*].

        The exact k-gon optimum is the smallest per-split maximum of
        support-value differences; rescaling by 1/cos(pi/k) turns the
        inner-approximation into the two-sided guarantee.
        """
        sid, d_kgon = self._nearest(self._shift_rows(q))
        return sid, d_kgon / math.cos(math.pi / self.k)
