"""Brute-force reference implementations used by the test suite.

Deliberately naive: linear scans, exhaustive split enumeration, and raw
interval algebra.  They never touch the indexed structures; the only
shared code is the primitive distance layer in :mod:`curveq.geometry`.
Every optimized operation elsewhere has a paired comparison test against
one of these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .geometry import (
    Curve,
    Metric,
    Segment,
    dfd_dp,
    dfd_segment_curve,
    min_enclosing_ball,
    partition_profile,
)

__all__ = [
    "nn_brute",
    "BruteForceNN",
    "translation_distance_brute",
    "center_brute",
]


def translation_distance_brute(s: Segment, c: Curve) -> float:
    """min over translations t of the L-inf distance between s_t and c.

    Closed form per split: the translation intervals placing a in the
    prefix rectangle and b in the suffix rectangle must be non-empty and
    overlap in both axes, so the minimal d is the max of the enclosing
    half-extents and the half span-difference terms.
    """
    if len(c) < 2:
        return dfd_dp(s.as_curve(), c, "linf")
    p = partition_profile(c)
    cx, cy = s.b[0] - s.a[0], s.b[1] - s.a[1]
    ext = np.maximum(
        np.maximum(p.pre_max_x - p.pre_min_x, p.pre_max_y - p.pre_min_y),
        np.maximum(p.suf_max_x - p.suf_min_x, p.suf_max_y - p.suf_min_y),
    ) / 2.0
    terms = np.maximum.reduce([
        ext,
        ((p.suf_max_x - p.pre_min_x) - cx) / 2.0,
        (cx - (p.suf_min_x - p.pre_max_x)) / 2.0,
        ((p.suf_max_y - p.pre_min_y) - cy) / 2.0,
        (cy - (p.suf_min_y - p.pre_max_y)) / 2.0,
    ])
    return float(terms.min())


def _item_distance(item, query, metric: Metric, translation: bool) -> float:
    if translation:
        if isinstance(item, Segment) and isinstance(query, Curve):
            return translation_distance_brute(item, query)
        if isinstance(item, Curve) and isinstance(query, Segment):
            return translation_distance_brute(query, item)
        raise ValueError("translation oracle needs a segment on one side")
    if isinstance(query, Segment):
        c = item if isinstance(item, Curve) else item.as_curve()
        return dfd_segment_curve(query, c, metric)[0]
    if isinstance(item, Segment):
        return dfd_segment_curve(item, query, metric)[0]
    return dfd_dp(item, query, metric)


def nn_brute(dataset: Sequence[Union[Curve, Segment]], query,
             metric: Metric = "linf", translation: bool = False) -> tuple[str, float]:
    """Nearest item by linear scan; ties break to the smallest id."""
    items = sorted(dataset, key=lambda it: it.id)
    if not items:
        raise ValueError("nn_brute requires a non-empty dataset")
    best_id, best_d = None, None
    for it in items:
        d = _item_distance(it, query, metric, translation)
        if best_d is None or d < best_d:
            best_id, best_d = it.id, d
    return best_id, float(best_d)


class BruteForceNN:
    """Vectorized linear-scan nearest neighbor over a fixed curve set.

    Same answers as :func:`nn_brute` for segment queries over curves;
    exists so benchmarks can time an honest O(nm) scan per query.
    """

    def __init__(self, curves: Sequence[Curve], metric: Metric = "linf"):
        if not curves:
            raise ValueError("empty dataset")
        order = np.argsort([c.id for c in curves], kind="stable")
        self._curves = [curves[k] for k in order]
        self._metric = metric
        profs = [partition_profile(c) for c in self._curves]
        self._rows = np.vstack([
            np.column_stack([
                p.pre_max_x, p.pre_min_x, p.pre_max_y, p.pre_min_y,
                p.suf_max_x, p.suf_min_x, p.suf_max_y, p.suf_min_y,
            ])
            for p in profs
        ])
        self._row_curve = np.concatenate([
            np.full(p.nsplits, j) for j, p in enumerate(profs)
        ])

    def query(self, s: Segment) -> tuple[str, float]:
        if self._metric != "linf":
            best_id, best_d = None, None
            for c in self._curves:
                d = dfd_segment_curve(s, c, self._metric)[0]
                if best_d is None or d < best_d:
                    best_id, best_d = c.id, d
            return best_id, float(best_d)
        v = self._rows
        ax, ay, bx, by = s.a[0], s.a[1], s.b[0], s.b[1]
        per_key = np.maximum.reduce([
            v[:, 0] - ax, ax - v[:, 1], v[:, 2] - ay, ay - v[:, 3],
            v[:, 4] - bx, bx - v[:, 5], v[:, 6] - by, by - v[:, 7],
        ])
        k = int(np.argmin(per_key))  # rows grouped by id order: first win = smallest id
        return self._curves[self._row_curve[k]].id, float(per_key[k])


# ---------------------------------------------------------------------------
# center oracle
# ---------------------------------------------------------------------------

def _axis_feasible(pmin, pmax, smin, smax, s_iv, t_iv) -> bool:
    """Translation interval placing [pmin, pmax] in s_iv and [smin, smax] in t_iv."""
    lo = max(s_iv[0] - pmin, t_iv[0] - smin)
    hi = min(s_iv[1] - pmax, t_iv[1] - smax)
    return lo <= hi


def _translation_min_r(pts: np.ndarray, i: int, pairing, dx: Fraction, dy: Fraction) -> Fraction:
    """Smallest feasible r for one curve/split/pairing by trying the
    necessary lower-bound candidates against the raw interval test.

    Everything is evaluated in exact rationals built from the float
    coordinates: in floats, the rounding of ``dy - 2r - pmin`` against
    ``smin`` can reject the exact optimum.
    """
    pminx, pminy = map(Fraction, pts[:i].min(axis=0).tolist())
    pmaxx, pmaxy = map(Fraction, pts[:i].max(axis=0).tolist())
    sminx, sminy = map(Fraction, pts[i:].min(axis=0).tolist())
    smaxx, smaxy = map(Fraction, pts[i:].max(axis=0).tolist())
    sx, sy = pairing
    gx = (sminx - pmaxx) if sx > 0 else (pminx - smaxx)
    gy = (sminy - pmaxy) if sy > 0 else (pminy - smaxy)
    cands = sorted({
        (pmaxx - pminx) / 2, (smaxx - sminx) / 2,
        (pmaxy - pminy) / 2, (smaxy - sminy) / 2,
        (dx - gx) / 4, (dy - gy) / 4,
    })

    def feasible(r: Fraction) -> bool:
        if r < 0:
            return False
        s_x = (0, 2 * r) if sx > 0 else (dx - 2 * r, dx)
        t_x = (dx - 2 * r, dx) if sx > 0 else (0, 2 * r)
        s_y = (0, 2 * r) if sy > 0 else (dy - 2 * r, dy)
        t_y = (dy - 2 * r, dy) if sy > 0 else (0, 2 * r)
        return (_axis_feasible(pminx, pmaxx, sminx, smaxx, s_x, t_x)
                and _axis_feasible(pminy, pmaxy, sminy, smaxy, s_y, t_y))

    for r in cands:
        if feasible(r):
            return r
    raise AssertionError("some lower-bound candidate must be feasible")


def _span(values: np.ndarray) -> Fraction:
    return Fraction(float(values.max())) - Fraction(float(values.min()))


def center_brute(curves: Sequence[Curve], metric: Metric = "linf",
                 translation: bool = False, guard: int = 10**6) -> tuple[float, dict[str, int]]:
    """Exhaustive (1,2)-Center over all split assignments.

    Refuses instances with more than ``guard`` assignments.  Fixed
    variants score an assignment by the larger of the prefix-union and
    suffix-union covering radii (half extent for L-inf, minimum
    enclosing ball for L2); the translation variant minimizes the
    feasible radius per curve and corner pairing by interval
    intersection in exact rationals.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("center_brute requires at least one curve")
    total = 1
    for c in curves:
        if len(c) < 2:
            raise ValueError(f"curve {c.id!r} needs m >= 2")
        total *= len(c) - 1
        if total > guard:
            raise ValueError(
                f"center_brute refuses more than {guard} split assignments"
            )
    ranges = [range(1, len(c)) for c in curves]
    if translation:
        if metric != "linf":
            raise ValueError("translation center oracle is L-inf only")
        dx = max(_span(c.pts[:, 0]) for c in curves)
        dy = max(_span(c.pts[:, 1]) for c in curves)
        pairings = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        # a curve's minimum depends only on its own split and the pairing
        min_r = [[[_translation_min_r(c.pts, i, pairing, dx, dy) for pairing in pairings]
                  for i in range(1, len(c))] for c in curves]
        best, best_sp = None, None
        for assignment in itertools.product(*ranges):
            for pi in range(len(pairings)):
                r = max(table[i - 1][pi] for table, i in zip(min_r, assignment))
                if best is None or r < best:
                    best, best_sp = r, assignment
        return float(best), {c.id: i for c, i in zip(curves, best_sp)}

    best, best_sp = None, None
    for assignment in itertools.product(*ranges):
        pre = np.vstack([c.pts[:i] for c, i in zip(curves, assignment)])
        suf = np.vstack([c.pts[i:] for c, i in zip(curves, assignment)])
        if metric == "linf":
            cost = max(
                float(max(pre[:, 0].max() - pre[:, 0].min(), pre[:, 1].max() - pre[:, 1].min())),
                float(max(suf[:, 0].max() - suf[:, 0].min(), suf[:, 1].max() - suf[:, 1].min())),
            ) / 2.0
        else:
            cost = max(min_enclosing_ball(pre)[1], min_enclosing_ball(suf)[1])
        if best is None or cost < best:
            best, best_sp = cost, assignment
    return float(best), {c.id: i for c, i in zip(curves, best_sp)}
