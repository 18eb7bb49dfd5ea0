"""Seeded input generators for the benchmark workloads.

Every generator draws from the ``numpy.random.Generator`` it is given,
so one seed always yields the same inputs.  Coordinates are integers in
``[0, BOX]``, so exact distance ties occur.  Each generator mixes in the
adversarial cases the library must survive: duplicate items under other
ids (exact ties), repeated vertices, all-equal and collinear curves,
two-vertex curves, point segments, and ids whose sort order differs from
insertion order.
"""

from __future__ import annotations

import json

import numpy as np

from curveq import Curve, Segment

BOX = 1000
ADVERSARIAL_FRAC = 0.05
UNIFORM_FRAC = 0.25  # regular curves with vertices uniform over the box
_STEP = 8      # random-walk step bound
_NOISE = 3     # perturbation of near queries
_GOLDEN = (5 ** 0.5 - 1) / 2


def shuffled_ids(rng, prefix: str, n: int) -> list[str]:
    """Unpadded ids in shuffled order, so "c10" sorts before "c9"."""
    return [f"{prefix}{k}" for k in rng.permutation(n).tolist()]


def stratified_sizes(rng, n: int, lo: int, hi: int, classes: int = 1) -> list[int]:
    """n sizes in [lo, hi] spread evenly within every residue class of the
    position mod ``classes`` and shuffled, so the size mix of each class
    is nearly the same for every seed."""
    out = np.empty(n, dtype=int)
    for c in range(classes):
        idx = np.arange(c, n, classes)
        out[idx] = rng.permutation(np.rint(np.linspace(lo, hi, len(idx))).astype(int))
    return out.tolist()


def _uniform(rng, m: int) -> np.ndarray:
    return rng.integers(0, BOX + 1, size=(m, 2)).astype(float)


def _walk(rng, m: int) -> np.ndarray:
    start = rng.integers(0, BOX + 1, size=2)
    steps = rng.integers(-_STEP, _STEP + 1, size=(m - 1, 2))
    pts = np.vstack([start, start + np.cumsum(steps, axis=0)])
    return np.clip(pts, 0, BOX).astype(float)


def _adversarial(rng, m: int, earlier: list[np.ndarray], kind=None) -> np.ndarray:
    kind = int(rng.integers(5)) if kind is None else kind
    if kind == 0 and earlier:  # exact duplicate of an earlier item
        return earlier[int(rng.integers(len(earlier)))]
    if kind == 1:  # repeated vertices
        pts = _walk(rng, max(2, (m + 1) // 2))
        return np.repeat(pts, 2, axis=0)[:m] if m > 2 else pts[:2]
    if kind == 2:  # all vertices equal
        return np.repeat(_uniform(rng, 1), m, axis=0)
    if kind == 3:  # collinear, not monotone along the line
        p = rng.integers(0, BOX // 2 + 1, size=2)
        d = rng.integers(-3, 4, size=2)
        t = rng.integers(0, 60, size=m)
        return np.clip(p + np.outer(t, d), 0, BOX).astype(float)
    return _uniform(rng, 2)  # two vertices


def make_curves(rng, n: int, m_lo: int, m_hi: int) -> list[Curve]:
    """n curves with m spread evenly over [m_lo, m_hi] in shuffled order.

    ``UNIFORM_FRAC`` of the regular curves have vertices uniform over the
    whole box; the rest are local random walks.
    """
    ids = shuffled_ids(rng, "c", n)
    out: list[np.ndarray] = []
    for m in stratified_sizes(rng, n, m_lo, m_hi):
        u = rng.random()
        if u < ADVERSARIAL_FRAC:
            out.append(_adversarial(rng, m, out))
        elif u < ADVERSARIAL_FRAC + UNIFORM_FRAC * (1 - ADVERSARIAL_FRAC):
            out.append(_uniform(rng, m))
        else:
            out.append(_walk(rng, m))
    return [Curve(cid, pts) for cid, pts in zip(ids, out)]


def make_segments(rng, n: int) -> list[Segment]:
    """Half uniform segments, half short ones; adversarial ties mixed in."""
    ids = shuffled_ids(rng, "s", n)
    a = rng.integers(0, BOX + 1, size=(n, 2))
    far = rng.integers(0, BOX + 1, size=(n, 2))
    near = np.clip(a + rng.integers(-50, 51, size=(n, 2)), 0, BOX)
    b = np.where(rng.random(n)[:, None] < 0.5, far, near)
    kind = rng.random(n)
    b[kind < ADVERSARIAL_FRAC / 2] = a[kind < ADVERSARIAL_FRAC / 2]  # point segments
    dup = (kind >= ADVERSARIAL_FRAC / 2) & (kind < ADVERSARIAL_FRAC)
    src = rng.integers(0, n, size=n)
    a[dup], b[dup] = a[src[dup]], b[src[dup]]  # exact ties under other ids
    return [Segment(i, pa, pb) for i, pa, pb in zip(ids, a.astype(float), b.astype(float))]


def adversarial_at(k: int, period: int = 1) -> bool:
    """Whether query position k is adversarial: the last of every twenty
    consecutive groups of ``period`` positions.  Fixed positions, rather
    than random draws, keep the share of these often extreme queries the
    same for every seed, and a group spans every query class.  Pairs of
    positions take the degenerate shapes in turn, shifted by one in each
    adversarial group, so every shape reaches several query classes."""
    return (k // period) % 20 == 19


def _split_radius(pts: np.ndarray) -> float:
    """min over splits of the larger prefix/suffix enclosing-square radius:
    about the distance of a near query to its target, which sets how many
    index rows the query must examine."""
    def extents(p):
        lo, hi = np.minimum.accumulate(p), np.maximum.accumulate(p)
        return (hi - lo).max(axis=1)
    pre, suf = extents(pts)[:-1], extents(pts[::-1])[::-1][1:]
    return float(np.maximum(pre, suf).min()) / 2.0


def _spread_pick(order: np.ndarray, j: int, offset: float) -> int:
    """The j-th near-query target: the item at the j-th point of a
    golden-ratio sequence over ``order``.  Targets whose queries cost very
    different amounts then keep the same share for every seed and in
    every class of query positions."""
    return int(order[int((j * _GOLDEN + offset) % 1.0 * len(order))])


def segment_queries(rng, curves: list[Curve], n: int, start: int = 0) -> list[Segment]:
    """Queries at positions ``start .. start+n-1``: even positions are near
    queries (the endpoints of a curve picked by :func:`_spread_pick` over
    :func:`_split_radius` order, plus small noise), odd positions far
    uniform segments.  At adversarial positions near queries hit the
    endpoints exactly and far segments are points."""
    by_radius = np.argsort([_split_radius(c.pts) for c in curves], kind="stable")
    offset = rng.random()
    out = []
    for k in range(start, start + n):
        adversarial = adversarial_at(k)
        if k % 2 == 0:
            c = curves[_spread_pick(by_radius, k // 2, offset)]
            noise = rng.integers(-_NOISE, _NOISE + 1, size=(2, 2))
            if adversarial:
                noise[:] = 0
            a, b = np.clip(np.array([c.pts[0], c.pts[-1]]) + noise, 0, BOX)
        else:
            a, b = _uniform(rng, 2)
            if adversarial:
                b = a
        out.append(Segment(f"q{k}", a, b))
    return out


def curve_queries(rng, segments: list[Segment], sizes: list[int],
                  start: int = 0, period: int = 1) -> list[Curve]:
    """One query per entry of ``sizes`` (its vertex count), at positions
    from ``start``.  Even positions follow a stored segment (picked by
    :func:`_spread_pick` over length order) with small noise, odd
    positions are random walks; adversarial positions take the degenerate
    shapes in turn (see :func:`adversarial_at`)."""
    by_length = np.argsort([np.abs(s.b - s.a).max() for s in segments], kind="stable")
    offset = rng.random()
    out = []
    for k, m in enumerate(sizes, start=start):
        if adversarial_at(k, period):
            pts = _adversarial(rng, m, [], kind=1 + (k // 2 + k // (20 * period)) % 4)
        elif k % 2 == 0:
            s = segments[_spread_pick(by_length, k // 2, offset)]
            t = np.sort(rng.random(m))
            t[: m // 2] *= 0.1  # half the vertices cluster at each end
            t[m // 2:] = 0.9 + 0.1 * t[m // 2:]
            pts = np.rint(s.a + np.outer(t, s.b - s.a))
            pts = np.clip(pts + rng.integers(-_NOISE, _NOISE + 1, size=(m, 2)), 0, BOX)
        else:
            pts = _walk(rng, m)
        out.append(Curve(f"q{k}", pts))
    return out


def jsonl(items) -> str:
    """Curve-file text for curves or segments (segments as 2-point records)."""
    lines = []
    for it in items:
        pts = it.pts if isinstance(it, Curve) else (it.a, it.b)
        lines.append(json.dumps({"id": it.id, "points": [[float(x), float(y)] for x, y in pts]}))
    return "\n".join(lines) + "\n"
