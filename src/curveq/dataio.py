"""Line-delimited curve files and deterministic result records.

A curve file holds one JSON record per line: ``{"id": "...", "points":
[[x, y], ...]}``.  Records with exactly two points double as segments.
A file is read in one pass into one read-only float64 buffer, whose rows the
loaded curves and segments view; errors name the first bad ``path:line``.
Distances are printed with 12 significant digits; serialization has a
stable field order so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .geometry import Curve, Segment, _frozen

__all__ = ["load_curves", "save_curves", "as_segments", "ResultRecord", "fmt"]

_NUMBERS = frozenset((int, float))  # json's number types; bool is a subclass of int


def fmt(x: float) -> str:
    """Render a number with 12 significant digits (stable across runs)."""
    return format(float(x), ".12g")


def load_curves(path) -> list[Curve]:
    """Parse a curve file in one pass; errors carry the offending line number."""
    parts, ends, seen = [], [0], {}  # each record's coordinates, row past it, id -> line
    error = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(map(str.strip, fh), start=1):
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ValueError(f"{path}:{ln}: malformed record: {e}") from None
                if not isinstance(rec, dict) or "id" not in rec or "points" not in rec:
                    raise ValueError(f"{path}:{ln}: record needs 'id' and 'points'")
                cid = rec["id"]
                if not isinstance(cid, str):
                    raise ValueError(f"{path}:{ln}: id must be a string")
                if cid in seen:
                    raise ValueError(f"{path}:{ln}: duplicate id {cid!r} "
                                     f"(first seen on line {seen[cid]})")
                seen[cid] = ln
                pts = rec["points"]
                try:  # array refuses every non-number but bool, and a bool needs a true or false
                    if set(map(len, pts)) != {2} or ("true" in line or "false" in line) and \
                            not _NUMBERS.issuperset(map(type, chain.from_iterable(pts))):
                        raise TypeError
                    parts.append(array("d", chain.from_iterable(pts)))
                except (TypeError, OverflowError):  # not pairs, not numbers or too large
                    raise ValueError(
                        f"{path}:{ln}: points must be a non-empty list of [x, y]") from None
                ends.append(ends[-1] + len(pts))
    except ValueError as e:  # raised unless an earlier line has a non-finite coordinate
        error = e
    # one exact-size immutable buffer (growing one array cost cli-batch 1.2 MB of peak RSS)
    rows = np.frombuffer(b"".join(parts), dtype=float).reshape(-1, 2)
    del parts  # before the curves are made, so they reuse its memory
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        k = int(np.searchsorted(ends, np.argmin(finite), "right")) - 1
        raise ValueError(f"{path}:{list(seen.values())[k]}: non-finite coordinate")
    if error:
        raise error
    return [_frozen(Curve, cid, rows[s:e]) for cid, s, e in zip(seen, ends, ends[1:])]


def save_curves(path, curves: Sequence[Curve]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in curves:
            rec = {"id": c.id, "points": [[float(x), float(y)] for x, y in c.pts]}
            fh.write(json.dumps(rec) + "\n")


def as_segments(curves: Sequence[Curve]) -> list[Segment]:
    """Reinterpret 2-point records as segments on views of their rows."""
    out = []
    for c in curves:
        if len(c) != 2:
            raise ValueError(f"record {c.id!r} has {len(c)} points; a segment needs 2")
        out.append(_frozen(Segment, c.id, c.pts[0], c.pts[1]))
    return out


@dataclass(frozen=True)
class ResultRecord:
    """One query outcome.

    Timing is kept out of the default serialization so equal inputs
    yield byte-identical output; pass ``include_timing=True`` to add it.
    """

    query_id: str
    answer_id: Optional[str]
    distance: Optional[float]
    metric: str
    translation: bool = False
    epsilon: Optional[float] = None
    radius: Optional[float] = None
    timing_us: Optional[float] = None

    def to_json(self, include_timing: bool = False) -> str:
        parts = [
            f'"query_id": {json.dumps(self.query_id)}',
            f'"answer_id": {json.dumps(self.answer_id)}',
            '"distance": ' + ("null" if self.distance is None else fmt(self.distance)),
            f'"metric": {json.dumps(self.metric)}',
            f'"translation": {json.dumps(self.translation)}',
            '"epsilon": ' + ("null" if self.epsilon is None else fmt(self.epsilon)),
            '"radius": ' + ("null" if self.radius is None else fmt(self.radius)),
        ]
        if include_timing and self.timing_us is not None:
            parts.append(f'"timing_us": {fmt(self.timing_us)}')
        return "{" + ", ".join(parts) + "}"
