"""Reference scans: the correctness reference and the ``vs_scan`` baseline.

One vectorized linear scan per query direction, written from the split
form ``d(ab, C) = min_i max(prefix-to-a, suffix-to-b)`` with the same
floating-point expressions as :mod:`curveq.oracles`, so L-inf and
translation answers compare bit-for-bit.  L-inf segment queries reuse
:class:`curveq.oracles.BruteForceNN`, the scan ``curveq bench`` times.  Ties break to the smallest id
everywhere: rows are laid out in id order and ``argmin`` returns the
first minimum.  :func:`self_check` compares every scan with the oracles
before a workload trusts it.
"""

from __future__ import annotations

import numpy as np

from curveq import Curve, Segment, partition_profile
from curveq.oracles import BruteForceNN, nn_brute

__all__ = ["SegmentScan", "CurveScan", "self_check"]


def _by_id(items):
    return sorted(items, key=lambda it: it.id)


def _col(v: np.ndarray) -> np.ndarray:
    """Per-split values as a column: splits down, segments across."""
    return v[:, None]


def _max_of(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Elementwise maximum, accumulated in place to bound temporaries."""
    out = np.array(first, dtype=float)
    for arr in rest:
        np.maximum(out, arr, out=out)
    return out


class SegmentScan:
    """Segment queries over a curve set: L-inf, translation and exact L2."""

    def __init__(self, curves):
        self.curves = _by_id(curves)
        self.nearest_linf = BruteForceNN(self.curves, "linf").query
        profs = [partition_profile(c) for c in self.curves]
        cat = {f: np.concatenate([getattr(p, f) for p in profs])
               for f in ("pre_max_x", "pre_min_x", "pre_max_y", "pre_min_y",
                         "suf_max_x", "suf_min_x", "suf_max_y", "suf_min_y")}
        self._r = np.maximum(
            np.maximum(cat["pre_max_x"] - cat["pre_min_x"], cat["pre_max_y"] - cat["pre_min_y"]),
            np.maximum(cat["suf_max_x"] - cat["suf_min_x"], cat["suf_max_y"] - cat["suf_min_y"]),
        ) / 2.0
        self._u1 = cat["suf_min_x"] - cat["pre_max_x"]
        self._u2 = cat["suf_max_x"] - cat["pre_min_x"]
        self._u3 = cat["suf_min_y"] - cat["pre_max_y"]
        self._u4 = cat["suf_max_y"] - cat["pre_min_y"]
        self._row_curve = np.concatenate([np.full(p.nsplits, j) for j, p in enumerate(profs)])
        # flat vertex layout for the L2 scan: curve j owns [start[j], start[j+1])
        self._pts = np.vstack([c.pts for c in self.curves])
        self._start = np.cumsum([0] + [len(c) for c in self.curves])

    def nearest_translation(self, s: Segment) -> tuple[str, float]:
        cx, cy = s.b[0] - s.a[0], s.b[1] - s.a[1]
        d = np.maximum.reduce([
            self._r,
            (self._u2 - cx) / 2.0, (cx - self._u1) / 2.0,
            (self._u4 - cy) / 2.0, (cy - self._u3) / 2.0,
        ])
        k = int(np.argmin(d))
        return self.curves[self._row_curve[k]].id, float(d[k])

    def nearest_l2(self, s: Segment) -> tuple[str, float]:
        da = np.hypot(*(self._pts - s.a).T)
        db = np.hypot(*(self._pts - s.b).T)
        best = (np.inf, 0)
        for j, (lo, hi) in enumerate(zip(self._start[:-1], self._start[1:])):
            pre = np.maximum.accumulate(da[lo:hi])[:-1]
            suf = np.maximum.accumulate(db[lo:hi][::-1])[::-1][1:]
            d = float(np.maximum(pre, suf).min())
            if d < best[0]:
                best = (d, j)
        return self.curves[best[1]].id, best[0]


class CurveScan:
    """Curve queries over a segment set: L-inf, translation and exact L2."""

    def __init__(self, segments):
        self.segments = _by_id(segments)
        a = np.array([s.a for s in self.segments])
        b = np.array([s.b for s in self.segments])
        self._ax, self._ay = a[:, 0].copy(), a[:, 1].copy()
        self._bx, self._by = b[:, 0].copy(), b[:, 1].copy()
        self._cx, self._cy = self._bx - self._ax, self._by - self._ay

    def _best(self, per_split: np.ndarray) -> tuple[str, float]:
        """Nearest segment from a (splits, segments) distance table."""
        d = per_split.min(axis=0)
        k = int(np.argmin(d))
        return self.segments[k].id, float(d[k])

    def nearest_linf(self, q: Curve) -> tuple[str, float]:
        p = partition_profile(q)
        col = _col
        return self._best(_max_of(
            col(p.pre_max_x) - self._ax, self._ax - col(p.pre_min_x),
            col(p.pre_max_y) - self._ay, self._ay - col(p.pre_min_y),
            col(p.suf_max_x) - self._bx, self._bx - col(p.suf_min_x),
            col(p.suf_max_y) - self._by, self._by - col(p.suf_min_y),
        ))

    def nearest_translation(self, q: Curve) -> tuple[str, float]:
        p = partition_profile(q)
        r = np.maximum(
            np.maximum(p.pre_max_x - p.pre_min_x, p.pre_max_y - p.pre_min_y),
            np.maximum(p.suf_max_x - p.suf_min_x, p.suf_max_y - p.suf_min_y),
        ) / 2.0
        u1, u2 = p.suf_min_x - p.pre_max_x, p.suf_max_x - p.pre_min_x
        u3, u4 = p.suf_min_y - p.pre_max_y, p.suf_max_y - p.pre_min_y
        col = _col
        return self._best(_max_of(
            (col(u2) - self._cx) / 2.0, (self._cx - col(u1)) / 2.0,
            (col(u4) - self._cy) / 2.0, (self._cy - col(u3)) / 2.0,
            col(r),
        ))

    def nearest_l2(self, q: Curve) -> tuple[str, float]:
        x, y = q.pts[:, 0][:, None], q.pts[:, 1][:, None]
        da = np.hypot(x - self._ax, y - self._ay)  # (m, n)
        db = np.hypot(x - self._bx, y - self._by)
        pre = np.maximum.accumulate(da, axis=0)[:-1]
        suf = np.maximum.accumulate(db[::-1], axis=0)[::-1][1:]
        return self._best(np.maximum(pre, suf))


def self_check(curves, segments, seg_queries, curve_queries) -> list[str]:
    """Compare every scan with the oracles; returns one line per mismatch."""
    bad = []
    sscan, cscan = SegmentScan(curves), CurveScan(segments)
    for s in seg_queries:
        for name, got, want in (
            ("segq linf", sscan.nearest_linf(s), nn_brute(curves, s, "linf")),
            ("segq translation", sscan.nearest_translation(s),
             nn_brute(curves, s, "linf", translation=True)),
            ("segq l2", sscan.nearest_l2(s), nn_brute(curves, s, "l2")),
        ):
            if got != want:
                bad.append(f"{name} {s.id}: scan {got} oracle {want}")
    for q in curve_queries:
        for name, got, want in (
            ("curveq linf", cscan.nearest_linf(q), nn_brute(segments, q, "linf")),
            ("curveq translation", cscan.nearest_translation(q),
             nn_brute(segments, q, "linf", translation=True)),
            ("curveq l2", cscan.nearest_l2(q), nn_brute(segments, q, "l2")),
        ):
            if got != want:
                bad.append(f"{name} {q.id}: scan {got} oracle {want}")
    return bad
