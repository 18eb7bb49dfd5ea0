import numpy as np
import pytest

from curveq import Curve, load_curves, save_curves, as_segments
from curveq.dataio import ResultRecord, fmt


class TestLoadCurves:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert load_curves(p) == []

    def test_single_record(self, tmp_path):
        p = tmp_path / "one.jsonl"
        p.write_text('{"id": "a", "points": [[1, 2], [3.5, -4]]}\n')
        curves = load_curves(p)
        assert len(curves) == 1
        assert curves[0].id == "a"
        assert curves[0].pts.tolist() == [[1, 2], [3.5, -4]]

    def test_round_trip_identity(self, tmp_path, rng):
        curves = [
            Curve(f"c{k}", rng.uniform(-100, 100, size=(int(rng.integers(1, 8)), 2)))
            for k in range(10)
        ]
        p = tmp_path / "rt.jsonl"
        save_curves(p, curves)
        back = load_curves(p)
        assert [c.id for c in back] == [c.id for c in curves]
        for a, b in zip(curves, back):
            assert np.array_equal(a.pts, b.pts)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "points": [[0, 0]]}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_curves(p)

    def test_duplicate_id_reports_line(self, tmp_path):
        p = tmp_path / "dup.jsonl"
        p.write_text(
            '{"id": "a", "points": [[0, 0]]}\n{"id": "a", "points": [[1, 1]]}\n'
        )
        with pytest.raises(ValueError, match="duplicate id"):
            load_curves(p)

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "inf.jsonl"
        p.write_text('{"id": "a", "points": [[0, Infinity]]}\n')
        with pytest.raises(ValueError, match="non-finite"):
            load_curves(p)

    @pytest.mark.parametrize("points", [
        "[[[1, 2], [3, 4]]]", "[[1, 2, 3]]", "[1, 2]", "[[]]", "[]", "[[1, 2], [3]]",
        '[[1, "a"]]', '{"x": 1}', f"[[1{'0' * 400}, 0]]",
        '[["1", 2], [3, 4]]', "[[true, false]]", "[[true, 2], [3, 4]]",
    ])
    def test_bad_points_report_line(self, tmp_path, points):
        p = tmp_path / "shape.jsonl"
        p.write_text('{"id": "a", "points": [[0, 0]]}\n'
                     f'{{"id": "x", "points": {points}}}\n')
        with pytest.raises(ValueError, match=r":2: points must be a non-empty list of \[x, y\]"):
            load_curves(p)

    def test_numbers_load_beside_quotes_and_words(self, tmp_path):
        # extra string fields and an id spelling true/false run the type scan
        p = tmp_path / "words.jsonl"
        p.write_text('{"id": "true false", "points": [[1, 2.5], [-0.0, 1e3]], "note": "x"}\n')
        assert load_curves(p)[0].pts.tolist() == [[1.0, 2.5], [-0.0, 1000.0]]

    def test_missing_points_rejected(self, tmp_path):
        p = tmp_path / "nopoints.jsonl"
        p.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError, match="points"):
            load_curves(p)


class TestAsSegments:
    def test_two_point_records(self):
        segs = as_segments([Curve("s", [[0, 0], [4, 2]])])
        assert segs[0].id == "s"
        assert segs[0].a.tolist() == [0, 0] and segs[0].b.tolist() == [4, 2]

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            as_segments([Curve("c", [[0, 0], [1, 1], [2, 2]])])


class TestResultRecord:
    def test_stable_serialization(self):
        r = ResultRecord("q", "a", 1.0 / 3.0, "linf", timing_us=12.7)
        s1 = r.to_json()
        s2 = ResultRecord("q", "a", 1.0 / 3.0, "linf", timing_us=99.9).to_json()
        assert s1 == s2  # timing excluded by default
        assert '"distance": 0.333333333333' in s1
        assert "timing_us" in r.to_json(include_timing=True)

    def test_null_fields(self):
        r = ResultRecord("q", None, None, "l2", epsilon=0.5)
        s = r.to_json()
        assert '"answer_id": null' in s and '"distance": null' in s
        assert '"epsilon": 0.5' in s

    def test_fmt_12_significant_digits(self):
        assert fmt(4.0) == "4"
        assert fmt(1234567.891234567) == "1234567.89123"
        assert fmt(0.1) == "0.1"
