"""The benchmark's workloads.

A workload is built from a seed and a scratch directory, and exposes

* ``prepare()`` -- untimed: reference answers for its query pool, with
  the per-query time of each reference scan in ``scan_ms``;
* ``setup()``   -- the work counted in ``setup_s``, repeated
  ``setup_reps`` times in a run; returns the seconds of each named part
  (structure builds, or warm-up ops);
* ``op(i)``     -- op ``i`` of a fixed sequence, as an :class:`Op` whose
  ``call`` is timed and whose ``check`` accepts or rejects the result.

Op ``i`` depends only on the seed and ``i``, so a traced replay of the
first ops repeats the calls of the untraced run exactly.  Every answer
is checked against a reference computed outside the timed call:

* L-inf and translation answers: id and distance equal the scan's;
* k-gon: ``d* <= d~ <= (1+eps) d*`` against the exact L2 scan, and the
  exact L2 distance of the returned segment is at most ``d~``;
* ladder: the printed distance is the exact L2 distance of the returned
  id, and at most ``(1+eps)^2 d*``;
* ``--radius r``: when ``d* <= r``, the returned curve is within
  ``(1+eps) r``;
* centers: every kind solves a small group through the CLI that must
  match ``oracles.center_brute``; every printed solution passes a
  feasibility re-check of its splits, translations, ``a``, ``b`` and
  radius.

Approximate checks allow a relative ``REL_TOL`` for rounding; the CLI
prints 12 significant digits.
"""

from __future__ import annotations

import io
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen
import scans
from curveq import (
    KgonStructure,
    SegmentInputIndex,
    TranslationSegmentIndex,
    cli,
    dfd_segment_curve,
)
from curveq.dataio import fmt
from curveq.oracles import center_brute

__all__ = ["Op", "CurveQuery", "CliBatch", "WORKLOADS"]

REL_TOL = 1e-9
ABS_TOL = 1e-9
PRINT_TOL = 1e-6  # absorbs the CLI's 12-digit printing of coordinates up to gen.BOX
KGON_EPS = 0.5
LADDER_EPS = 1.0


def _le(x: float, y: float) -> bool:
    """x <= y up to floating-point rounding."""
    return x <= y * (1.0 + REL_TOL) + ABS_TOL


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    key: int = 0  # the op's input: ops with equal keys repeat one input
    query_ms: list = field(default_factory=list)  # per-query times the CLI printed


def _timed(fn, arg):
    t0 = time.perf_counter()
    out = fn(arg)
    return out, (time.perf_counter() - t0) * 1e3


def _exact(ref):
    return lambda got: got[0] == ref[0] and float(got[1]) == ref[1]


def _kgon_ok(dstar: float, by_id: dict, q):
    """d* <= d~ <= (1+eps) d*, and the returned segment lies within d~ of
    q: the k-gon fits inside the L2 ball of radius d~."""
    def check(got) -> bool:
        sid, d = got[0], float(got[1])
        return (sid in by_id and _le(dfd_segment_curve(by_id[sid], q, "l2")[0], d)
                and _le(dstar, d) and _le(d, (1.0 + KGON_EPS) * dstar))
    return check


class CurveQuery:
    """20k segments, three structures, curve queries (m in 8..48).

    A pool of queries is cycled by op index.  Queries rotate two by two
    over ``SLOTS``, near and far alternating, with the same spread of m
    for each (slot, near/far) class.  ``SegmentInputIndex`` fills two of
    the four slots: its latency mode lies between the translation and
    k-gon modes, so the median falls inside it rather than on a sparse
    boundary between two kinds.
    """

    name = "curve-query"
    setup_reps = 15
    trace_ops = 64  # eight rotations of the four slots
    setup_failures = ()  # builds give no answers to reject
    N_SEGMENTS, M_LO, M_HI, POOL = 20_000, 8, 48, 320
    SLOTS = ("nn_linf.curveq", "nn_translation.curveq", "nn_linf.curveq", "nn_l2.kgon")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.segments = gen.make_segments(rng, self.N_SEGMENTS)
        period = 2 * len(self.SLOTS)
        sizes = gen.stratified_sizes(rng, self.POOL, self.M_LO, self.M_HI, classes=period)
        self.queries = gen.curve_queries(rng, self.segments, sizes, period=period)
        self.kinds = [self.SLOTS[(k // 2) % len(self.SLOTS)] for k in range(self.POOL)]
        self.by_id = {s.id: s for s in self.segments}
        self._methods = {"nn_linf.curveq": "nearest_to_curve",
                         "nn_translation.curveq": "nearest_to_curve", "nn_l2.kgon": "nearest"}

    def prepare(self) -> None:
        scan = scans.CurveScan(self.segments)
        scans_by_kind = {"nn_linf.curveq": ("scan.curveq", scan.nearest_linf),
                         "nn_translation.curveq": ("scan.curveq_translation", scan.nearest_translation),
                         "nn_l2.kgon": ("scan.curveq_l2", scan.nearest_l2)}
        self.scan_ms = defaultdict(list)
        self.refs = []
        for q, kind in zip(self.queries, self.kinds):
            scan_name, fn = scans_by_kind[kind]
            ref, ms = _timed(fn, q)
            self.refs.append(ref)
            self.scan_ms[scan_name].append(ms)

    def setup(self) -> dict:
        self.indexes = {}  # release the previous build first
        builds = {}
        for kind, build in (("nn_linf.curveq", SegmentInputIndex),
                            ("nn_translation.curveq", TranslationSegmentIndex),
                            ("nn_l2.kgon", lambda segs: KgonStructure(segs, KGON_EPS))):
            t0 = time.perf_counter()
            self.indexes[kind] = build(self.segments)
            builds[kind] = time.perf_counter() - t0
        return builds

    def op(self, i: int) -> Op:
        k = i % len(self.queries)
        kind, q = self.kinds[k], self.queries[k]
        index, method = self.indexes[kind], self._methods[kind]
        check = _kgon_ok(self.refs[k][1], self.by_id, q) if kind == "nn_l2.kgon" \
            else _exact(self.refs[k])
        return Op(kind, lambda: getattr(index, method)(q), check, k)


# ---------------------------------------------------------------------------
# CLI batch
# ---------------------------------------------------------------------------

def _dist(diff: np.ndarray, metric: str) -> np.ndarray:
    if metric == "linf":
        return np.abs(diff).max(axis=1)
    return np.hypot(diff[:, 0], diff[:, 1])


def center_feasible(curves, sol: dict, metric: str) -> bool:
    """Every translated curve's prefix lies within ``radius`` of ``a`` and
    its suffix within ``radius`` of ``b``, at the printed split, up to
    ``PRINT_TOL``."""
    splits, trans = sol["splits"], sol["translations"]
    if set(splits) != {c.id for c in curves} or set(trans) != set(splits):
        return False
    a, b, r = np.array(sol["a"]), np.array(sol["b"]), float(sol["radius"])
    for c in curves:
        s = splits[c.id]
        if not 1 <= s < len(c):
            return False
        pts = c.pts + np.array(trans[c.id])
        if (_dist(pts[:s] - a, metric).max() > r + PRINT_TOL
                or _dist(pts[s:] - b, metric).max() > r + PRINT_TOL):
            return False
    return True


def _printed_exact(refs):
    """Record check: the reference id, and its distance as the CLI prints it."""
    return lambda k, r: r["answer_id"] == refs[k][0] and r["distance"] == float(fmt(refs[k][1]))


def _result(res):
    """Parsed stdout records of a successful CLI call."""
    rc, out, err = res
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.strip()}")
    return [json.loads(line) for line in out.splitlines()]


class CliBatch:
    """Many small, distinct JSONL datasets through ``curveq.cli``.

    Op ``i`` runs kind ``MIX[i % len(MIX)]`` on inputs drawn from the seed
    and ``i`` alone; no input is reused.  Each op is one in-process
    ``cli_dispatch`` call with stdout going to a buffer, covering load,
    build, answer and format.  ``setup_s`` is one untimed warm-up op of
    each kind.
    """

    name = "cli-batch"
    setup_reps = 5
    # center.linf fills two of the eleven slots.  An odd slot count puts
    # the median inside one kind's latency mode rather than on a boundary
    # between two, and the doubled slowest kind holds the tail percentile
    # (ten samples beyond it) inside its own mode.
    MIX = ("cli.nn_linf.segq", "center.linf", "cli.nn_translation.segq", "cli.nn_linf.curveq",
           "nn_l2.ladder", "cli.nn_translation.curveq", "center.translation", "cli.nn_l2.kgon",
           "nn_l2.radius", "center.linf", "center.l2")
    KINDS = tuple(dict.fromkeys(MIX))
    trace_ops = len(MIX)
    NN_CURVES, NN_SEGMENTS, NN_QUERIES = 400, 1000, 4
    L2_CURVES, CENTER_CURVES, CENTER_SMALL_CURVES = 8, 2000, 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.scan_ms = defaultdict(list)
        self.setup_failures: list[str] = []
        self._reps = 0

    def prepare(self) -> None:
        pass  # every op draws and checks its own inputs

    def setup(self) -> dict:
        self._reps += 1
        parts = {}
        for j, kind in enumerate(self.KINDS):
            op = self._make(kind, np.random.default_rng([self.seed, 4, self._reps, j]), 0)
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as e:  # reported with the result, like a failed op
                res = e
            parts[kind] = time.perf_counter() - t0
            try:
                ok = not isinstance(res, Exception) and op.check(res)
            except Exception as e:
                ok, res = False, e
            if not ok:
                self.setup_failures.append(f"warm-up {kind} op failed: {res!r:.300}")
        return parts

    def op(self, i: int) -> Op:
        op = self._make(self.MIX[i % len(self.MIX)], np.random.default_rng([self.seed, 3, i]), i)
        op.key = i
        return op

    # -- op construction ---------------------------------------------------

    def _write(self, name: str, items) -> str:
        path = os.path.join(self.workdir, f"{name}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.jsonl(items))
        return path

    def _scan(self, name: str, fn, q):
        ref, ms = _timed(fn, q)
        self.scan_ms[name].append(ms)
        return ref

    @staticmethod
    def _dispatch(argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            return cli.cli_dispatch(argv, out=out, err=err), out.getvalue(), err.getvalue()
        return call

    def _make(self, kind: str, rng, i: int) -> Op:
        """Op of ``kind`` drawn from ``rng``; ``i`` places its queries
        among the query positions of the whole run."""
        if kind.startswith("center."):
            return self._center(kind, rng)
        if kind.endswith("segq") or kind in ("nn_l2.ladder", "nn_l2.radius"):
            return self._segq(kind, rng, i)
        return self._curveq(kind, rng, i)

    def _nn_op(self, kind, argv, queries, record_ok) -> Op:
        op = Op(kind, self._dispatch(argv + ["--timings"]), None)

        def check(res) -> bool:
            recs = _result(res)
            if [r["query_id"] for r in recs] != [q.id for q in queries]:
                return False
            op.query_ms.extend(r["timing_us"] / 1e3 for r in recs)
            return all(record_ok(k, r) for k, r in enumerate(recs))

        op.check = check
        return op

    def _segq(self, kind: str, rng, i: int) -> Op:
        l2 = kind.startswith("nn_l2")
        curves = gen.make_curves(rng, self.L2_CURVES if l2 else self.NN_CURVES, 2 if l2 else 8,
                                 8 if l2 else 32)
        if kind == "nn_l2.ladder":  # one query, near and far in alternate cycles
            queries = gen.segment_queries(rng, curves, 1, start=i // len(self.MIX))
        else:
            queries = gen.segment_queries(rng, curves, self.NN_QUERIES, start=self.NN_QUERIES * i)
        scan = scans.SegmentScan(curves)
        argv = ["nn", "--direction", "segment-query",
                "--data", self._write("data", curves), "--queries", self._write("queries", queries)]
        if not l2:
            translation = kind == "cli.nn_translation.segq"
            fn = scan.nearest_translation if translation else scan.nearest_linf
            refs = [self._scan("scan.segq_translation" if translation else "scan.segq", fn, q)
                    for q in queries]
            argv += ["--metric", "linf"] + (["--translation"] if translation else [])
            return self._nn_op(kind, argv, queries, _printed_exact(refs))

        dstar = [self._scan("scan.segq_l2", scan.nearest_l2, q)[1] for q in queries]
        by_id = {c.id: c for c in curves}
        argv += ["--metric", "l2", "--epsilon", str(LADDER_EPS)]

        def exact(k, r):
            return dfd_segment_curve(queries[k], by_id[r["answer_id"]], "l2")[0]

        if kind == "nn_l2.ladder":
            return self._nn_op(kind, argv, queries, lambda k, r: (
                r["answer_id"] in by_id and r["distance"] == float(fmt(exact(k, r)))
                and _le(exact(k, r), (1.0 + LADDER_EPS) ** 2 * dstar[k])))
        radius = max(max(dstar) * float(rng.uniform(1.0, 1.25)), 1.0)
        argv += ["--radius", repr(radius)]
        return self._nn_op(kind, argv, queries, lambda k, r: dstar[k] > radius or (
            r["answer_id"] in by_id and _le(exact(k, r), (1.0 + LADDER_EPS) * radius)))

    def _curveq(self, kind: str, rng, i: int) -> Op:
        segments = gen.make_segments(rng, self.NN_SEGMENTS)
        sizes = gen.stratified_sizes(rng, self.NN_QUERIES, 8, 48)
        queries = gen.curve_queries(rng, segments, sizes, start=self.NN_QUERIES * i)
        scan = scans.CurveScan(segments)
        argv = ["nn", "--direction", "curve-query",
                "--data", self._write("data", segments), "--queries", self._write("queries", queries)]
        if kind == "cli.nn_l2.kgon":
            dstar = [self._scan("scan.curveq_l2", scan.nearest_l2, q)[1] for q in queries]
            by_id = {s.id: s for s in segments}
            argv += ["--metric", "l2", "--epsilon", str(KGON_EPS)]
            return self._nn_op(kind, argv, queries, lambda k, r: _kgon_ok(
                dstar[k], by_id, queries[k])((r["answer_id"], r["distance"])))
        translation = kind == "cli.nn_translation.curveq"
        fn = scan.nearest_translation if translation else scan.nearest_linf
        refs = [self._scan("scan.curveq_translation" if translation else "scan.curveq", fn, q)
                for q in queries]
        argv += ["--metric", "linf"] + (["--translation"] if translation else [])
        return self._nn_op(kind, argv, queries, _printed_exact(refs))

    def _center(self, kind: str, rng) -> Op:
        """A center op.  Every kind solves a small group that must match
        ``center_brute``; the L-inf kinds time a large group, which must
        pass the feasibility re-check, and solve the small group through
        the same CLI path inside the untimed check."""
        translation = kind == "center.translation"
        metric = "l2" if kind == "center.l2" else "linf"
        argv = ["center", "--metric", metric] + (["--translation"] if translation else [])
        small = gen.make_curves(rng, self.CENTER_SMALL_CURVES, 3, 6)
        brute = center_brute(small, metric, translation=translation)[0]

        def solved(curves, res, ref=None) -> bool:
            (sol,) = _result(res)
            if ref is not None and abs(sol["radius"] - ref) > ABS_TOL:
                return False
            return center_feasible(curves, sol, metric)

        if metric == "l2":
            return Op(kind, self._dispatch(argv + ["--data", self._write("data", small)]),
                      lambda res: solved(small, res, brute))
        large = gen.make_curves(rng, self.CENTER_CURVES, 8, 32)
        solve_small = self._dispatch(argv + ["--data", self._write("small", small)])
        return Op(kind, self._dispatch(argv + ["--data", self._write("data", large)]),
                  lambda res: solved(large, res) and solved(small, solve_small(), brute))


WORKLOADS = {w.name: w for w in (CurveQuery, CliBatch)}
