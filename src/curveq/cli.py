"""Command-line front end: dfd, nn, center, and bench subcommands.

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import oracles
from .center import center_l2, center_linf, center_linf_translation
from .dataio import ResultRecord, as_segments, fmt, load_curves
from .geometry import Curve, Segment, dfd_dp
from .nn_l2 import AnnStructure, KgonStructure
from .nn_linf import SegmentQueryIndex, SegmentInputIndex
from .nn_translation import TranslationCurveIndex, TranslationSegmentIndex

__all__ = ["main", "cli_dispatch"]


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="curveq",
        description="Nearest-neighbor queries and (1,2)-center clustering for "
                    "planar polygonal curves under the discrete Fréchet distance.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("dfd", help="distance between two stored curves")
    d.add_argument("--file-a", required=True)
    d.add_argument("--id-a", required=True)
    d.add_argument("--file-b", required=True)
    d.add_argument("--id-b", required=True)
    d.add_argument("--metric", choices=("linf", "l2"), default="l2")

    n = sub.add_parser("nn", help="nearest-neighbor queries over a dataset")
    n.add_argument("--data", required=True)
    n.add_argument("--queries", required=True)
    n.add_argument("--metric", choices=("linf", "l2"), required=True)
    n.add_argument("--translation", action="store_true")
    n.add_argument("--epsilon", type=float)
    n.add_argument("--radius", type=float)
    n.add_argument("--brute", action="store_true")
    n.add_argument("--direction", choices=("auto", "segment-query", "curve-query"),
                   default="auto")
    n.add_argument("--timings", action="store_true")

    c = sub.add_parser("center", help="optimal segment center of a curve set")
    c.add_argument("--data", required=True)
    c.add_argument("--metric", choices=("linf", "l2"), required=True)
    c.add_argument("--translation", action="store_true")

    b = sub.add_parser("bench", help="build/query timing sweep (CSV)")
    b.add_argument("--structure", default="linf-segment-query",
                   choices=("linf-segment-query", "brute-segment-query",
                            "linf-curve-query", "translation-segment-query",
                            "translation-curve-query"))
    b.add_argument("--sizes", default="1000,2000")
    b.add_argument("--m", type=int, default=10)
    b.add_argument("--queries", type=int, default=100)
    b.add_argument("--seed", type=int, default=0)
    return p


def _cmd_dfd(args, out) -> int:
    curves_a = {c.id: c for c in load_curves(args.file_a)}
    curves_b = {c.id: c for c in load_curves(args.file_b)}
    if args.id_a not in curves_a:
        raise ValueError(f"id {args.id_a!r} not found in {args.file_a}")
    if args.id_b not in curves_b:
        raise ValueError(f"id {args.id_b!r} not found in {args.file_b}")
    d = dfd_dp(curves_a[args.id_a], curves_b[args.id_b], args.metric)
    out.write(fmt(d) + "\n")
    return 0


def _detect_direction(data: list[Curve], queries: list[Curve]) -> str:
    if queries and all(len(q) == 2 for q in queries) and any(len(c) > 2 for c in data):
        return "segment-query"
    if data and all(len(c) == 2 for c in data):
        return "curve-query"
    raise ValueError(
        "cannot auto-detect query direction; pass --direction explicitly"
    )


def _cmd_nn(args, out) -> int:
    if args.metric == "l2" and args.translation:
        raise _UsageError("translation queries are supported for --metric linf only")
    if args.metric == "l2" and args.epsilon is None:
        raise _UsageError("--metric l2 requires --epsilon")
    data = load_curves(args.data)
    queries = load_curves(args.queries)
    if not data:
        raise ValueError("empty dataset")
    direction = args.direction
    if direction == "auto":
        direction = _detect_direction(data, queries)

    records = []
    if direction == "segment-query":
        qsegs = [Segment(q.id, q.pts[0], q.pts[-1]) if len(q) == 2 else None for q in queries]
        if any(s is None for s in qsegs):
            raise ValueError("segment-query direction needs 2-point query records")
        answer = _segment_query_answerer(args, data)
        for s in qsegs:
            t0 = time.perf_counter()
            aid, dist = answer(s)
            us = (time.perf_counter() - t0) * 1e6
            records.append(ResultRecord(s.id, aid, dist, args.metric, args.translation,
                                        args.epsilon, args.radius, us))
    else:
        segs = as_segments(data)
        answer = _curve_query_answerer(args, segs)
        for q in queries:
            t0 = time.perf_counter()
            aid, dist = answer(q)
            us = (time.perf_counter() - t0) * 1e6
            records.append(ResultRecord(q.id, aid, dist, args.metric, args.translation,
                                        args.epsilon, args.radius, us))
    for rec in records:
        out.write(rec.to_json(include_timing=args.timings) + "\n")
    return 0


def _segment_query_answerer(args, data: list[Curve]):
    if args.brute:
        return lambda s: oracles.nn_brute(
            data, s, metric=args.metric, translation=args.translation
        )
    if args.metric == "linf":
        index = TranslationCurveIndex(data) if args.translation else SegmentQueryIndex(data)
        return index.nearest
    if args.radius is None:
        return SegmentQueryIndex(data).nearest_l2
    ann = AnnStructure(data, args.epsilon, args.radius)

    def answer(s: Segment):
        hit = ann.query(s)
        return (None, None) if hit is None else hit

    return answer


def _curve_query_answerer(args, segs: list[Segment]):
    if args.brute:
        return lambda q: oracles.nn_brute(
            segs, q, metric=args.metric, translation=args.translation
        )
    if args.metric == "linf":
        if args.translation:
            return TranslationSegmentIndex(segs).nearest_to_curve
        return SegmentInputIndex(segs).nearest_to_curve
    return KgonStructure(segs, args.epsilon).nearest


def _cmd_center(args, out) -> int:
    curves = load_curves(args.data)
    if args.metric == "l2":
        if args.translation:
            raise _UsageError("translation center is supported for --metric linf only")
        sol = center_l2(curves)
    elif args.translation:
        sol = center_linf_translation(curves)
    else:
        sol = center_linf(curves)
    ids = sorted(sol.splits)
    parts = [
        '"type": "center"',
        f'"metric": {json.dumps(args.metric)}',
        f'"translation": {json.dumps(args.translation)}',
        f'"radius": {fmt(sol.radius)}',
        f'"a": [{fmt(sol.a[0])}, {fmt(sol.a[1])}]',
        f'"b": [{fmt(sol.b[0])}, {fmt(sol.b[1])}]',
        '"splits": {' + ", ".join(
            f"{json.dumps(i)}: {sol.splits[i]}" for i in ids) + "}",
        '"translations": {' + ", ".join(
            f'{json.dumps(i)}: [{fmt(sol.translation_of(i)[0])}, {fmt(sol.translation_of(i)[1])}]'
            for i in ids) + "}",
    ]
    out.write("{" + ", ".join(parts) + "}\n")
    return 0


def _random_dataset(rng, n: int, m: int) -> list[Curve]:
    return [
        Curve(f"c{j:06d}", rng.integers(0, 1001, size=(m, 2)).astype(float))
        for j in range(n)
    ]


def _cmd_bench(args, out) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise _UsageError(f"bad --sizes value {args.sizes!r}")
    rng = np.random.default_rng(args.seed)
    out.write("structure,n,m,build_us,query_us_p50,query_us_p99\n")
    for n in sizes:
        if args.structure.endswith("segment-query"):
            data = _random_dataset(rng, n, args.m)
            queries = [
                Segment(f"q{k}", rng.integers(0, 1001, 2).astype(float),
                        rng.integers(0, 1001, 2).astype(float))
                for k in range(args.queries)
            ]
            t0 = time.perf_counter()
            if args.structure == "brute-segment-query":
                index = oracles.BruteForceNN(data, "linf")
                run = index.query
            elif args.structure == "translation-segment-query":
                run = TranslationCurveIndex(data).nearest
            else:
                run = SegmentQueryIndex(data).nearest
            build_us = (time.perf_counter() - t0) * 1e6
        else:
            segs = [
                Segment(f"s{k:06d}", rng.integers(0, 1001, 2).astype(float),
                        rng.integers(0, 1001, 2).astype(float))
                for k in range(n)
            ]
            queries = _random_dataset(rng, args.queries, args.m)
            t0 = time.perf_counter()
            if args.structure == "translation-curve-query":
                run = TranslationSegmentIndex(segs).nearest_to_curve
            else:
                run = SegmentInputIndex(segs).nearest_to_curve
            build_us = (time.perf_counter() - t0) * 1e6
        times = []
        for q in queries:
            t0 = time.perf_counter()
            run(q)
            times.append((time.perf_counter() - t0) * 1e6)
        p50, p99 = np.percentile(times, [50, 99])
        out.write(f"{args.structure},{n},{args.m},{build_us:.0f},{p50:.1f},{p99:.1f}\n")
    return 0


def cli_dispatch(argv: Optional[Sequence[str]] = None,
                 out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        if args.cmd == "dfd":
            return _cmd_dfd(args, out)
        if args.cmd == "nn":
            return _cmd_nn(args, out)
        if args.cmd == "center":
            return _cmd_center(args, out)
        return _cmd_bench(args, out)
    except _UsageError as e:
        err.write(f"usage error: {e}\n")
        return 2
    except (ValueError, OSError) as e:
        err.write(f"error: {e}\n")
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return cli_dispatch(argv)


if __name__ == "__main__":
    raise SystemExit(main())
