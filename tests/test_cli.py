import io
import json
from pathlib import Path

import pytest

from curveq import cli
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
    ("nn_l2_segq.jsonl",
     ["nn", "--data", str(DATA / "curves_small.jsonl"),
      "--queries", str(DATA / "queries_seg.jsonl"), "--metric", "l2"]),
    ("nn_l2_radius_segq.jsonl",
     ["nn", "--data", str(DATA / "curves_small.jsonl"),
      "--queries", str(DATA / "queries_seg.jsonl"), "--metric", "l2",
      "--epsilon", "1", "--radius", "20"]),
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

    @pytest.mark.parametrize("extra", [
        ["--direction", "segment-query"],
        ["--direction", "segment-query", "--translation"],
        ["--direction", "curve-query"],
        ["--direction", "curve-query", "--translation"],
    ])
    def test_signed_zero_prints_like_brute(self, tmp_path, extra):
        # the distance is a zero whose sign depends on the order of the
        # differences; both sides must print it as 0
        data = tmp_path / "d.jsonl"
        data.write_text('{"id": "c", "points": [[0.0, 0.0], [0.0, 0.0]]}\n')
        q = tmp_path / "q.jsonl"
        q.write_text('{"id": "q", "points": [[0.0, 0.0], [0.0, -0.0]]}\n')
        base = ["nn", "--data", str(data), "--queries", str(q), "--metric", "linf"] + extra
        rc1, out1, _ = run(base)
        rc2, out2, _ = run(base + ["--brute"])
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert '"distance": 0,' in out1

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


class TestReadOnlyItems:
    @pytest.mark.parametrize("direction, data, queries", [
        ("segment-query", "curves_small.jsonl", "queries_seg.jsonl"),
        ("curve-query", "segments_small.jsonl", "queries_curves.jsonl"),
    ])
    def test_loaded_endpoints_are_read_only(self, monkeypatch, direction, data, queries):
        # every point the answerers see is a read-only view of a loaded file
        seen = []

        def answerer(args, items):
            seen.extend(items)
            return lambda item: seen.append(item) or (None, None)

        monkeypatch.setattr(cli, "_segment_query_answerer", answerer)
        monkeypatch.setattr(cli, "_curve_query_answerer", answerer)
        rc, _, err = run(["nn", "--data", str(DATA / data), "--queries", str(DATA / queries),
                          "--metric", "linf", "--direction", direction])
        assert rc == 0, err
        arrays = [a for x in seen for a in ((x.a, x.b) if hasattr(x, "a") else (x.pts,))]
        assert len(seen) > 4 and len(arrays) >= len(seen)
        for a in arrays:
            assert a.flags.writeable is False
            with pytest.raises(ValueError):
                a[0] = 1.0
            with pytest.raises(ValueError):
                a.flags.writeable = True


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

    def test_l2_segment_queries_need_no_epsilon(self):
        # exact L2 segment queries never read --epsilon, so it may be left out
        argv = ["nn", "--data", str(DATA / "curves_small.jsonl"),
                "--queries", str(DATA / "queries_seg.jsonl"), "--metric", "l2"]
        rc, out, err = run(argv)
        assert (rc, err) == (0, "")
        rc, with_eps, _ = run(argv + ["--epsilon", "0.5"])
        assert rc == 0
        assert out == with_eps.replace('"epsilon": 0.5', '"epsilon": null')
        assert out.count('"epsilon": null') == len(out.splitlines()) > 0

    def test_l2_brute_curve_queries_need_no_epsilon(self):
        # the oracles never read --epsilon, so --brute may leave it out
        argv = ["nn", "--data", str(DATA / "segments_small.jsonl"),
                "--queries", str(DATA / "queries_curves.jsonl"), "--metric", "l2", "--brute"]
        rc, out, err = run(argv)
        assert (rc, err) == (0, "")
        rc, with_eps, _ = run(argv + ["--epsilon", "0.5"])
        assert rc == 0
        assert out == with_eps.replace('"epsilon": 0.5', '"epsilon": null')
        assert out.count('"epsilon": null') == len(out.splitlines()) > 0

    def test_l2_radius_without_epsilon_is_usage_error(self):
        rc, out, err = run(["nn", "--data", str(DATA / "curves_small.jsonl"),
                            "--queries", str(DATA / "queries_seg.jsonl"),
                            "--metric", "l2", "--radius", "3"])
        assert (rc, out) == (2, "")
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

    @pytest.mark.parametrize("data, queries, extra", [
        ("curves_small.jsonl", "queries_seg.jsonl", ["--metric", "linf"]),
        ("segments_small.jsonl", "queries_curves.jsonl", ["--metric", "linf"]),
        ("segments_small.jsonl", "queries_curves.jsonl", ["--metric", "l2", "--epsilon", "0.5"]),
    ], ids=["linf-segment-query", "linf-curve-query", "l2-curve-query"])
    def test_radius_outside_l2_segment_queries_is_usage_error(self, data, queries, extra):
        rc, out, err = run(["nn", "--data", str(DATA / data), "--queries", str(DATA / queries),
                            *extra, "--radius", "3"])
        assert (rc, out) == (2, "")
        assert err == "usage error: --radius applies to --metric l2 segment queries only\n"

    @pytest.mark.parametrize("extra", [[], ["--translation"]])
    def test_empty_dataset_is_data_error(self, tmp_path, extra):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc, out, err = run(["nn", "--data", str(empty), "--queries", str(DATA / "queries_seg.jsonl"),
                            "--metric", "linf", "--direction", "segment-query", *extra])
        assert (rc, out, err) == (1, "", "error: empty dataset\n")


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

    def test_segment_query_direction_rejects_longer_queries(self, tmp_path):
        q = tmp_path / "q.jsonl"
        q.write_text('{"id": "q", "points": [[0, 0], [1, 1], [2, 0]]}\n')
        rc, out, err = run(["nn", "--data", str(DATA / "curves_small.jsonl"), "--queries", str(q),
                            "--metric", "linf", "--direction", "segment-query"])
        assert (rc, out) == (1, "")
        assert err == "error: segment-query direction needs 2-point query records\n"

    def test_timings_flag_adds_field(self):
        rc, out, _ = run(["nn", "--data", str(DATA / "curves_small.jsonl"),
                          "--queries", str(DATA / "queries_seg.jsonl"),
                          "--metric", "linf", "--timings"])
        assert rc == 0
        assert all("timing_us" in line for line in out.splitlines())
