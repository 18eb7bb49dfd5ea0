import io
import json
from pathlib import Path

import pytest

from curveq.cli import cli_dispatch

DATA = Path(__file__).parent / "data"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli_dispatch(argv, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


GOLDEN_CASES = [
    ("nn_linf_segq.jsonl",
     ["nn", "--data", str(DATA / "curves_small.jsonl"),
      "--queries", str(DATA / "queries_seg.jsonl"), "--metric", "linf"]),
    ("nn_trans_segq.jsonl",
     ["nn", "--data", str(DATA / "curves_small.jsonl"),
      "--queries", str(DATA / "queries_seg.jsonl"), "--metric", "linf", "--translation"]),
    ("nn_linf_curveq.jsonl",
     ["nn", "--data", str(DATA / "segments_small.jsonl"),
      "--queries", str(DATA / "queries_curves.jsonl"), "--metric", "linf"]),
    ("nn_trans_curveq.jsonl",
     ["nn", "--data", str(DATA / "segments_small.jsonl"),
      "--queries", str(DATA / "queries_curves.jsonl"), "--metric", "linf", "--translation"]),
    ("nn_l2_curveq.jsonl",
     ["nn", "--data", str(DATA / "segments_small.jsonl"),
      "--queries", str(DATA / "queries_curves.jsonl"), "--metric", "l2",
      "--epsilon", "0.1"]),
    ("center_linf.jsonl",
     ["center", "--data", str(DATA / "bundle.jsonl"), "--metric", "linf"]),
    ("center_trans.jsonl",
     ["center", "--data", str(DATA / "bundle.jsonl"), "--metric", "linf", "--translation"]),
    ("center_l2.jsonl",
     ["center", "--data", str(DATA / "bundle.jsonl"), "--metric", "l2"]),
]


class TestGoldenFiles:
    @pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
    def test_byte_identical(self, golden, argv):
        rc, out, err = run(argv)
        assert rc == 0, err
        assert out == (DATA / "golden" / golden).read_text()


class TestBruteAB:
    @pytest.mark.parametrize("extra", [
        ["--metric", "linf"],
        ["--metric", "linf", "--translation"],
        ["--metric", "l2", "--epsilon", "0.5"],  # exact without --radius
    ])
    def test_segment_queries_match_brute(self, extra):
        base = ["nn", "--data", str(DATA / "curves_small.jsonl"),
                "--queries", str(DATA / "queries_seg.jsonl")] + extra
        rc1, out1, _ = run(base)
        rc2, out2, _ = run(base + ["--brute"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("extra", [[], ["--translation"]])
    def test_curve_queries_match_brute(self, extra):
        base = ["nn", "--data", str(DATA / "segments_small.jsonl"),
                "--queries", str(DATA / "queries_curves.jsonl"), "--metric", "linf"] + extra
        rc1, out1, _ = run(base)
        rc2, out2, _ = run(base + ["--brute"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_l2_within_factor_of_brute(self):
        base = ["nn", "--data", str(DATA / "segments_small.jsonl"),
                "--queries", str(DATA / "queries_curves.jsonl"), "--metric", "l2",
                "--epsilon", "0.1"]
        _, approx_out, _ = run(base)
        _, brute_out, _ = run(base + ["--brute"])
        for la, lb in zip(approx_out.splitlines(), brute_out.splitlines()):
            da = json.loads(la)["distance"]
            db = json.loads(lb)["distance"]
            assert db <= da <= 1.1 * db + 1e-9

    def test_l2_segment_query_fixed_radius(self):
        rc, out, err = run(["nn", "--data", str(DATA / "curves_small.jsonl"),
                            "--queries", str(DATA / "queries_seg.jsonl"),
                            "--metric", "l2", "--epsilon", "0.5",
                            "--radius", "100"])
        assert rc == 0, err
        for line in out.splitlines():
            rec = json.loads(line)
            assert rec["answer_id"] is not None
            assert rec["distance"] == pytest.approx(1.5 * 100)


class TestDfd:
    def test_distance_output(self):
        rc, out, _ = run(["dfd", "--file-a", str(DATA / "curves_small.jsonl"),
                          "--id-a", "c00", "--file-b", str(DATA / "curves_small.jsonl"),
                          "--id-b", "c00", "--metric", "l2"])
        assert rc == 0
        assert out.strip() == "0"

    def test_missing_id_is_data_error(self):
        rc, _, err = run(["dfd", "--file-a", str(DATA / "curves_small.jsonl"),
                          "--id-a", "nope", "--file-b", str(DATA / "curves_small.jsonl"),
                          "--id-b", "c00"])
        assert rc == 1
        assert "nope" in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        rc, _, _ = run(["nn", "--no-such-flag"])
        assert rc == 2

    def test_unknown_subcommand(self):
        rc, _, _ = run(["frobnicate"])
        assert rc == 2

    def test_missing_file_is_data_error(self):
        rc, _, err = run(["nn", "--data", "/nonexistent.jsonl",
                          "--queries", "/nonexistent.jsonl", "--metric", "linf"])
        assert rc == 1

    def test_l2_without_epsilon_is_usage_error(self):
        rc, _, err = run(["nn", "--data", str(DATA / "segments_small.jsonl"),
                          "--queries", str(DATA / "queries_curves.jsonl"),
                          "--metric", "l2"])
        assert rc == 2
        assert "epsilon" in err

    def test_l2_translation_is_usage_error(self):
        rc, _, _ = run(["nn", "--data", str(DATA / "segments_small.jsonl"),
                        "--queries", str(DATA / "queries_curves.jsonl"),
                        "--metric", "l2", "--epsilon", "0.5", "--translation"])
        assert rc == 2

    def test_malformed_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("oops\n")
        rc, _, err = run(["nn", "--data", str(bad),
                          "--queries", str(DATA / "queries_seg.jsonl"),
                          "--metric", "linf"])
        assert rc == 1
        assert ":1:" in err


class TestDirection:
    def test_singleton_dataset_returns_it(self, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_text('{"id": "only", "points": [[0, 0], [1, 1], [2, 0]]}\n')
        q = tmp_path / "q.jsonl"
        q.write_text('{"id": "q", "points": [[0, 0], [2, 0]]}\n')
        rc, out, _ = run(["nn", "--data", str(data), "--queries", str(q),
                          "--metric", "linf"])
        assert rc == 0
        assert json.loads(out)["answer_id"] == "only"

    def test_direction_override(self):
        # all records are 2-point: auto would pick curve-query; force the
        # segment-query direction instead
        rc, out, _ = run(["nn", "--data", str(DATA / "segments_small.jsonl"),
                          "--queries", str(DATA / "queries_seg.jsonl"),
                          "--metric", "linf", "--direction", "segment-query"])
        assert rc == 0
        assert len(out.splitlines()) == 4

    def test_timings_flag_adds_field(self):
        rc, out, _ = run(["nn", "--data", str(DATA / "curves_small.jsonl"),
                          "--queries", str(DATA / "queries_seg.jsonl"),
                          "--metric", "linf", "--timings"])
        assert rc == 0
        assert all("timing_us" in line for line in out.splitlines())


class TestBench:
    def test_csv_header_and_rows(self):
        rc, out, _ = run(["bench", "--sizes", "30,60", "--m", "4",
                          "--queries", "5", "--seed", "1"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "structure,n,m,build_us,query_us_p50,query_us_p99"
        assert len(lines) == 3
        assert lines[1].startswith("linf-segment-query,30,4,")

    def test_bad_sizes_is_usage_error(self):
        rc, _, _ = run(["bench", "--sizes", "abc"])
        assert rc == 2
