"""curveq benchmark: one command, two seeded workloads, checked answers.

    python3 perfbench/run.py --workload curve-query --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, and the run fails without printing a result when that
directory is missing.  Each invocation runs one workload in its own
process as a closed loop: one client, one thread, the next op issued when
the previous one returns.  BLAS/OpenMP pools are pinned to one thread.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced phase, then replays the workload's first ``trace_ops`` ops with
every public curveq callable wrapped (see ``tracing.py``), each op once
traced and once untraced, and prints the per-layer metrics.  The last stdout line is the JSON result; the lines
before it give details (tail percentile, per-kind latencies, skipped
names).  Spans go to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import os

PINNED_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = PINNED_THREADS  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from tracing import Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

E2E = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
       "peak_rss_mb": "MB", "ok_frac": "ratio"}

# structure kind -> same-direction scan; the ladder compares per-query times
VS_SCAN = {
    "nn_linf.segq": "scan.segq",
    "nn_translation.segq": "scan.segq_translation",
    "nn_linf.curveq": "scan.curveq",
    "nn_translation.curveq": "scan.curveq_translation",
    "nn_l2.kgon": "scan.curveq_l2",
    "nn_l2.ladder": "scan.segq_l2",
}
# segment-query structures run only inside cli-batch's CLI calls: their
# latency is the per-query time the CLI prints, their build time the
# traced constructor span
CLI_QUERY = {"nn_linf.segq": "cli.nn_linf.segq", "nn_translation.segq": "cli.nn_translation.segq"}
CLI_BUILD = {"nn_linf.segq": "nn_linf.SegmentQueryIndex.__init__",
             "nn_translation.segq": "nn_translation.TranslationCurveIndex.__init__"}
BUILDS = ("nn_linf.segq", "nn_translation.segq", "nn_linf.curveq",
          "nn_translation.curveq", "nn_l2.kgon")
OP_P50 = ("nn_linf.segq", "nn_translation.segq", "nn_linf.curveq", "nn_translation.curveq",
          "nn_l2.kgon", "nn_l2.ladder", "nn_l2.radius", "center.linf", "center.translation",
          "center.l2")
SCANS = ("scan.segq", "scan.segq_translation", "scan.curveq", "scan.curveq_translation",
         "scan.curveq_l2", "scan.segq_l2")
SELF_LAYERS = ("rangetree", "nn_linf", "nn_translation", "geometry", "nn_l2", "center",
               "dataio", "cli")

PER_LAYER = {
    **{f"{layer}.self_ms_per_op": "ms/op" for layer in SELF_LAYERS},
    "rangetree.calls_per_op": "calls/op",
    "geometry.calls_per_op": "calls/op",
    "rangetree.probes_per_query": "calls/query",
    "geometry.partition_profile.calls_per_op": "calls/op",
    "nn_l2.ladder.ann_builds_per_query": "builds/query",
    "center.l2.decisions_per_solve": "calls/solve",
    "center.l2.candidate_radii_ms": "ms/solve",
    **{f"{k}.p50_ms": "ms" for k in OP_P50},
    **{f"{k}.build_s": "s" for k in BUILDS},
    **{f"{k}.p50_ms": "ms" for k in SCANS},
    **{f"{k}.vs_scan": "ratio" for k in VS_SCAN},
    **{f"{k}.slower_than_scan": "flag" for k in VS_SCAN},
    "trace.overhead_frac": "ratio",
}

# wrapped names the per-layer counters read; a refactor that removes one
# is reported, and the counter reads 0
PROBES = ("rangetree.DominanceIndex.decide", "rangetree.DominanceIndex.decide_many")
NEAREST = ("nn_linf.SegmentQueryIndex.nearest", "nn_linf.SegmentInputIndex.nearest_to_curve",
           "nn_translation.TranslationCurveIndex.nearest",
           "nn_translation.TranslationSegmentIndex.nearest_to_curve",
           "nn_l2.KgonStructure.nearest")
LADDER, ANN_BUILD = "nn_l2.ann_ladder_query", "nn_l2.AnnStructure.__init__"
SOLVE, DECISION, RADII = "center.center_l2", "center.center_l2_decision", "center.candidate_radii"
PROFILE = "geometry.partition_profile"
COUNTED = PROBES + NEAREST + (LADDER, ANN_BUILD, SOLVE, DECISION, RADII, PROFILE) \
    + tuple(CLI_BUILD.values())


def _import_library():
    """Import curveq from this checkout's ``src``; None when it is absent."""
    src = ROOT / "src"
    if not (src / "curveq" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import curveq
    if Path(curveq.__file__).resolve().parent != (src / "curveq").resolve():
        return None
    return curveq


class Row(NamedTuple):
    """One timed op of the untraced phase."""

    kind: str
    seconds: float
    ok: bool
    query_ms: list  # per-query times the CLI printed
    key: int  # the op's input


def check_scans(seed: int) -> list[str]:
    """Compare every reference scan with ``curveq.oracles`` on a small
    seeded sample; one line per mismatch."""
    import gen
    import numpy as np
    import scans
    rng = np.random.default_rng([seed, 0])
    curves = gen.make_curves(rng, 12, 2, 10)
    segments = gen.make_segments(rng, 12)
    return scans.self_check(curves, segments, gen.segment_queries(rng, curves, 8),
                            gen.curve_queries(rng, segments, gen.stratified_sizes(rng, 8, 2, 10)))


def measure(wl, seconds: float) -> tuple[list[dict], list[Row]]:
    """Set-ups, and a closed loop over ops 0, 1, ... until the ops' busy
    time reaches ``seconds``.

    The first set-up precedes the first op.  The other ``setup_reps - 1``
    run between ops at even steps of busy time: the machine's speed
    drifts over seconds, and set-ups spread over the run sample it as the
    ops do, where back-to-back ones would all land in one window.
    """
    setups = [wl.setup()]
    rows, busy, i = [], 0.0, 0
    while busy < seconds:
        if len(setups) < wl.setup_reps and busy >= seconds * len(setups) / wl.setup_reps:
            setups.append(wl.setup())
        op = wl.op(i)
        t0 = time.perf_counter()
        try:
            res, err = op.call(), None
        except Exception as e:  # a raising op is a failed op, not a crash
            res, err = None, e
        dt = time.perf_counter() - t0
        rows.append(Row(op.kind, dt, err is None and _accepted(op, res, i), op.query_ms, op.key))
        if err is not None:
            _report_failure(i, op.kind, err)
        busy += dt
        i += 1
    while len(setups) < wl.setup_reps:
        setups.append(wl.setup())
    return setups, rows


def _accepted(op, res, i) -> bool:
    try:
        ok = bool(op.check(res))
    except Exception as e:
        _report_failure(i, op.kind, e)
        return False
    if not ok:
        print(f"op {i} ({op.kind}): answer rejected by the reference check", file=sys.stderr)
    return ok


def _report_failure(i, kind, err) -> None:
    print(f"op {i} ({kind}) raised:", file=sys.stderr)
    traceback.print_exception(err, file=sys.stderr)


def measure_traced(wl, tracer, n: int):
    """Replay ops 0..n-1 twice each, once traced and once through the idle
    wrappers, alternating which runs first so that warm caches favour
    neither.  Returns (untraced seconds, traced seconds) per op; pairing
    each op with itself keeps slow machine drift out of the overhead."""
    pairs = []
    for i in range(n):
        op = wl.op(i)
        times = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.run_op(i, op.kind, op.call)
                else:
                    op.call()
            except Exception as e:
                _report_failure(i, op.kind, e)
            times[traced] = time.perf_counter() - t0
        pairs.append((times[False], times[True]))
    return pairs


def _p50_ms(values_s) -> float:
    return statistics.median(values_s) * 1e3 if values_s else 0.0


def input_latencies(rows) -> list[float]:
    """Sorted latencies of the run's distinct inputs, each taken at the
    median of its repetitions.

    Pool workloads repeat each input several times, spread over the run,
    so the median per input filters machine noise out; workloads that
    never repeat an input keep one sample per op.
    """
    per_input = defaultdict(list)
    for row in rows:
        per_input[row.key].append(row.seconds)
    return sorted(statistics.median(v) for v in per_input.values())


def tail(rows):
    """(value, percentile, inputs): over :func:`input_latencies`, the
    highest percentile that leaves at least ten inputs beyond it.  On a
    pool workload the percentile stays fixed by the pool size when the
    program gets faster."""
    lat = input_latencies(rows)
    n = len(lat)
    j = max(0, n - 11)
    return lat[j], 100.0 * (j + 1) / n, n


def e2e_metrics(setups, rows) -> tuple[dict, dict]:
    lat = [row.seconds for row in rows]
    ok = sum(row.ok for row in rows)
    tail_value, tail_pct, inputs = tail(rows)
    metrics = {
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "op_p50_ms": statistics.median(input_latencies(rows)) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / len(rows),
    }
    return metrics, {"ops": len(lat), "op_tail_percentile": round(tail_pct, 3),
                     "op_tail_inputs": inputs}


def layer_metrics(wl, setups, rows, tracer, pairs) -> dict:
    by_kind, query_ms = defaultdict(list), defaultdict(list)
    for row in rows:
        by_kind[row.kind].append(row.seconds)
        query_ms[row.kind].extend(row.query_ms)
    m = dict.fromkeys(PER_LAYER, 0.0)
    for k in OP_P50:
        m[f"{k}.p50_ms"] = _p50_ms(by_kind.get(k, []))
    for k, cli_kind in CLI_QUERY.items():
        if query_ms[cli_kind]:
            m[f"{k}.p50_ms"] = statistics.median(query_ms[cli_kind])
    for k in BUILDS:
        if any(k in s for s in setups):
            m[f"{k}.build_s"] = statistics.median(s[k] for s in setups)
    for k in SCANS:
        m[f"{k}.p50_ms"] = statistics.median(wl.scan_ms[k]) if wl.scan_ms.get(k) else 0.0
    for k, scan in VS_SCAN.items():
        # the ladder runs inside a CLI call: compare its per-query time
        own = statistics.median(query_ms[k]) if k == "nn_l2.ladder" and query_ms[k] \
            else m[f"{k}.p50_ms"]
        if own and m[f"{scan}.p50_ms"]:
            m[f"{k}.vs_scan"] = own / m[f"{scan}.p50_ms"]
            m[f"{k}.slower_than_scan"] = float(m[f"{k}.vs_scan"] > 1.0)

    n = len(pairs)
    counts = defaultdict(float)
    for (kind, name), c in tracer.counts.items():
        counts[name] += c
        counts[kind, name] += c
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    for span, st in zip(tracer.spans, self_times(tracer.spans)):
        layer = span[0].split(".", 1)[0]
        layer_self[layer] += st
        layer_calls[layer] += 1
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms_per_op"] = layer_self[layer] * 1e3 / n
    m["rangetree.calls_per_op"] = layer_calls["rangetree"] / n
    m["geometry.calls_per_op"] = layer_calls["geometry"] / n
    queries = sum(counts[k] for k in NEAREST)
    if queries:
        m["rangetree.probes_per_query"] = sum(counts[k] for k in PROBES) / queries
    m["geometry.partition_profile.calls_per_op"] = counts[PROFILE] / n
    for k, span_name in CLI_BUILD.items():
        durations = [s[2] - s[1] for s in tracer.spans if s[0] == span_name]
        if durations:
            m[f"{k}.build_s"] = statistics.median(durations)
    if counts[LADDER]:
        m["nn_l2.ladder.ann_builds_per_query"] = counts["nn_l2.ladder", ANN_BUILD] / counts[LADDER]
    if counts[SOLVE]:
        m["center.l2.decisions_per_solve"] = counts[DECISION] / counts[SOLVE]
        radii_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == RADII)
        m["center.l2.candidate_radii_ms"] = radii_s * 1e3 / counts[SOLVE]
    m["trace.overhead_frac"] = sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if _import_library() is None:
        print(f"error: no curveq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    mismatches = check_scans(args.seed)
    if mismatches:
        print("error: reference scans disagree with curveq.oracles:", *mismatches[:10],
              sep="\n", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        setups, rows = measure(wl, args.seconds)
        details = {"workload": args.workload, "seed": args.seed, "pinned_threads": int(PINNED_THREADS),
                   "nproc": os.cpu_count(), "setup_reps": wl.setup_reps}
        metrics, extra = e2e_metrics(setups, rows)
        details.update(extra)
        details["op_p50_ms_by_kind"] = {
            k: round(_p50_ms([row.seconds for row in rows if row.kind == k]), 4)
            for k in sorted({row.kind for row in rows})}
        failures = list(wl.setup_failures)
        if args.trace:
            tracer = Tracer()
            tracer.install(expected=COUNTED)
            try:
                pairs = measure_traced(wl, tracer, wl.trace_ops)
            finally:
                tracer.uninstall()
            tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
            details["trace_ops"] = wl.trace_ops
            details["trace_spans"] = len(tracer.spans)
            details["trace_skipped"] = tracer.skipped
            metrics = layer_metrics(wl, setups, rows, tracer, pairs)
            units = PER_LAYER
        else:
            units = E2E
        print(json.dumps({"details": details}))
        failed = sum(not row.ok for row in rows)
        for line in failures:
            print(line, file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0 and not failures,
            "attempted": len(rows),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
