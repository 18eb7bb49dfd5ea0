"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import scans  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from curveq import SegmentQueryIndex, nn_linf  # noqa: E402


def test_self_time_of_nested_spans():
    # op [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds
    # d [6, 8] and e [7, 8.5], which overlap and reach past d's end.
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["d", 6.0, 8.0, 3, 0],
        ["e", 7.0, 8.5, 3, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scans_match_oracles(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        curves = gen.make_curves(rng, int(rng.integers(1, 10)), 2, 9)
        segments = gen.make_segments(rng, int(rng.integers(1, 10)))
        seg_queries = gen.segment_queries(rng, curves, 6)
        curve_queries = gen.curve_queries(rng, segments, gen.stratified_sizes(rng, 6, 2, 9))
        assert scans.self_check(curves, segments, seg_queries, curve_queries) == []


def _inputs(seed):
    rng = np.random.default_rng(seed)
    curves = gen.make_curves(rng, 300, 2, 32)
    segments = gen.make_segments(rng, 300)
    return (gen.jsonl(curves) + gen.jsonl(segments)
            + gen.jsonl(gen.segment_queries(rng, curves, 40))
            + gen.jsonl(gen.curve_queries(rng, segments, gen.stratified_sizes(rng, 40, 8, 48))))


def test_same_seed_gives_identical_inputs():
    assert _inputs(7).encode() == _inputs(7).encode()
    assert _inputs(7) != _inputs(8)


def test_cli_ops_write_identical_files_for_a_seed(tmp_path):
    texts = []
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        batch = workloads.CliBatch(5, str(d))
        per_op = []
        for i in range(len(batch.MIX)):
            batch.op(i)
            per_op.append(sorted((p.name, p.read_bytes()) for p in d.iterdir()))
        texts.append(per_op)
    assert texts[0] == texts[1]


def test_adversarial_cases_present():
    rng = np.random.default_rng(3)
    curves = gen.make_curves(rng, 2000, 2, 12)
    pts = [c.pts for c in curves]
    assert any(len(p) == 2 for p in pts)
    assert any(len(p) > 2 and (p == p[0]).all() for p in pts)
    keys = [p.tobytes() for p in pts]
    assert len(set(keys)) < len(keys)  # duplicates under other ids
    ids = [c.id for c in curves]
    assert ids != sorted(ids)


def test_kgon_check_rejects_a_far_id_with_a_right_estimate():
    rng = np.random.default_rng(4)
    segments = gen.make_segments(rng, 50)
    by_id = {s.id: s for s in segments}
    scan = scans.CurveScan(segments)
    for q in gen.curve_queries(rng, segments, gen.stratified_sizes(rng, 6, 3, 12)):
        best, dstar = scan.nearest_l2(q)
        check = workloads._kgon_ok(dstar, by_id, q)
        dist = {sid: workloads.dfd_segment_curve(s, q, "l2")[0] for sid, s in by_id.items()}
        far = max(dist, key=dist.get)
        assert check((best, dstar)) and not check(("no-such-id", dstar))
        assert dist[far] > dstar and not check((far, dstar))


def test_tail_leaves_ten_inputs_beyond():
    rows = [run.Row("k", float(x), True, [], x) for x in range(100)]
    value, pct, inputs = run.tail(rows)
    assert sum(x > value for x in range(100)) == 10 and pct == 90.0 and inputs == 100
    # each input at the median of its repetitions: input 99 ran at 99, 0 and 0
    rows += [run.Row("k", 0.0, True, [], 99), run.Row("k", 0.0, True, [], 99)]
    value, pct, inputs = run.tail(rows)
    assert (value, inputs) == (88.0, 100)


def test_tracer_counts_repeat_and_originals_return():
    rng = np.random.default_rng(11)
    curves = gen.make_curves(rng, 200, 2, 12)
    queries = gen.segment_queries(rng, curves, 20)
    original = SegmentQueryIndex.nearest, nn_linf.partition_profile
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install(expected=run.COUNTED + ("nn_linf.NoSuchIndex.nearest",))
        try:
            index = tracer.run_op(0, "build", lambda: SegmentQueryIndex(curves))
            for i, q in enumerate(queries, start=1):
                tracer.run_op(i, "query", lambda: index.nearest(q))
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
        assert "nn_linf.NoSuchIndex.nearest: not wrapped" in tracer.skipped
        assert all(s[2] >= s[1] for s in tracer.spans)
    assert counts[0] == counts[1]
    assert counts[0]["build", "geometry.partition_profile"] == len(curves)
    assert counts[0]["query", "nn_linf.SegmentQueryIndex.nearest"] == len(queries)
    assert (SegmentQueryIndex.nearest, nn_linf.partition_profile) == original


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
