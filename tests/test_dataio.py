import json
from itertools import chain

import numpy as np
import pytest

from curveq import Curve, load_curves, save_curves, as_segments
from curveq.dataio import ResultRecord, fmt

_NUMBERS = frozenset((int, float))


def ref_load_curves(path) -> list[Curve]:
    """Reference loader: every record checked and converted on its own
    line, each through the public ``Curve`` constructor."""
    curves: list[Curve] = []
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
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
                raise ValueError(
                    f"{path}:{ln}: duplicate id {cid!r} (first seen on line {seen[cid]})"
                )
            seen[cid] = ln
            pts = rec["points"]
            try:
                arr = np.asarray(pts, dtype=float)
            except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or too large
                arr = np.empty(0)
            # asarray also converts numeric strings and booleans
            if (arr.ndim != 2 or arr.shape[1] != 2 or not len(arr)
                    or not _NUMBERS.issuperset(map(type, chain.from_iterable(pts)))):
                raise ValueError(f"{path}:{ln}: points must be a non-empty list of [x, y]")
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}:{ln}: non-finite coordinate")
            curves.append(Curve(cid, arr))
    return curves


BAD_POINTS = [
    "[[[1, 2], [3, 4]]]", "[[1, 2, 3]]", "[1, 2]", "[[]]", "[]", "[[1, 2], [3]]",
    '[[1, "a"]]', '{"x": 1}', f"[[1{'0' * 400}, 0]]",
    '[["1", 2], [3, 4]]', "[[true, false]]", "[[true, 2], [3, 4]]",
]
# malformed points that also hold a non-finite coordinate: the shape error wins
BAD_POINTS_WITH_INF = [
    '[[Infinity, "a"]]', "[[Infinity, 1], [2]]", "[[true, Infinity]]", "[[NaN, null]]",
    '[[1, 2], [Infinity, 3], [4, [5]]]',
]
GOOD = ['{"id": "g1", "points": [[0, 0], [1.5, -2]]}',
        '{"id": "g2", "points": [[-0.0, 3], [1e308, -5e-324], [7, 8]]}',
        '{"id": "g3", "points": [[4, 5]]}']


def _file(*lines, end="\n"):
    return end.join(lines) + end


def _corpus():
    """(name, file text) pairs: valid files and every kind of bad record,
    at the first line, a middle line and the last line."""
    cases = []
    rec = '{{"id": "x", "points": {}}}'.format
    for k, pts in enumerate(BAD_POINTS + BAD_POINTS_WITH_INF):
        cases += [(f"points{k}-first", _file(rec(pts), *GOOD)),
                  (f"points{k}-second", _file(GOOD[0], rec(pts), *GOOD[1:])),
                  (f"points{k}-last", _file(*GOOD, rec(pts)))]
    for k, pts in enumerate(["[[0, Infinity]]", "[[NaN, 1], [2, 3]]", "[[1, 2], [-Infinity, 0]]",
                             "[[1e400, 0]]"]):
        cases += [(f"nonfinite{k}-first", _file(rec(pts), *GOOD)),
                  (f"nonfinite{k}-second", _file(GOOD[0], rec(pts), *GOOD[1:])),
                  (f"nonfinite{k}-last", _file(*GOOD, rec(pts)))]
    inf, nan = rec("[[0, Infinity]]"), rec("[[NaN, 0]]").replace('"x"', '"y"')
    cases += [
        ("two-nonfinite", _file(GOOD[0], inf, GOOD[1], nan)),
        ("nonfinite-then-malformed", _file(GOOD[0], inf, "not json", GOOD[1])),
        ("malformed-then-nonfinite", _file(GOOD[0], "not json", inf)),
        ("nonfinite-then-bad-points", _file(inf, GOOD[0], rec("[[1, 2, 3]]").replace('"x"', '"z"'))),
        ("nonfinite-then-duplicate", _file(GOOD[0], inf, GOOD[0])),
        ("nonfinite-then-no-points", _file(inf, '{"id": "a"}')),
        ("bad-points-then-nonfinite", _file(GOOD[0], rec("[[true, 1]]"), inf.replace('"x"', '"w"'))),
        ("duplicate", _file(GOOD[0], GOOD[1], GOOD[0])),
        ("duplicate-adjacent", _file(*GOOD, GOOD[2])),
        ("non-dict-list", _file(GOOD[0], "[1, 2]")),
        ("non-dict-string", _file('"abc"', GOOD[0])),
        ("non-dict-number", _file(GOOD[0], "3", GOOD[1])),
        ("non-dict-null", _file("null")),
        ("missing-points", _file(GOOD[0], '{"id": "a"}')),
        ("missing-id", _file('{"points": [[0, 0]]}')),
        ("id-number", _file(GOOD[0], '{"id": 1, "points": [[0, 0]]}')),
        ("id-null", _file('{"id": null, "points": [[0, 0]]}', GOOD[0])),
        ("id-list", _file(*GOOD, '{"id": ["a"], "points": [[0, 0]]}')),
        ("points-null", _file(rec("null"))),
        ("points-number", _file(GOOD[0], rec("5"))),
        ("points-string", _file(rec('"ab"'))),
        ("points-strings", _file(rec('["ab", "cd"]'))),
        ("points-dicts", _file(rec('[{"a": 1, "b": 2}]'))),
        ("points-dict-key", _file(rec('{"xy": [1, 2]}'))),
        ("points-numbers", _file(rec("[5, 6]"))),
        ("malformed-first", _file("{", *GOOD)),
        ("empty", ""),
        ("blank-lines", _file("", "   ", GOOD[0], "\t", "", GOOD[1], " ")),
        ("only-blank", _file("", " ", "\t")),
        ("crlf", _file(*GOOD, end="\r\n")),
        ("crlf-nonfinite", _file(GOOD[0], inf, end="\r\n")),
        ("id-u2028", _file('{"id": "a\u2028b", "points": [[1, 2], [3, 4]]}', *GOOD[1:])),
        ("id-u2028-escaped", _file('{"id": "a\\u2028b", "points": [[1, 2]]}')),
        ("id-unicode", _file('{"id": "\u00e9\\u00e9", "points": [[1, 2]]}')),
        ("extra-fields", _file('{"id": "e", "points": [[1, 2]], "note": "x", "w": [1, "2"]}')),
        ("true-in-id", _file('{"id": "true false", "points": [[1, 2.5], [-0.0, 1e3]], "f": true}')),
        ("false-in-id-bad", _file('{"id": "false", "points": [[1, "2"]]}')),
        ("big-ints", _file(rec(f"[[{2 ** 53 + 1}, {-(2 ** 63) - 1}], [{10 ** 20 + 1}, {2 ** 64}]]"),
                           rec(f"[[{10 ** 308}, {2 ** 1023 + 1}]]").replace('"x"', '"y"'))),
        ("int-past-float-range", _file(GOOD[0], rec(f"[[{2 ** 1024}, 0]]"))),
        ("negative-zero", _file(rec("[[-0.0, 0.0], [0, -0]]"))),
        ("subnormal", _file(rec("[[5e-324, -2.2250738585072014e-308]]"))),
    ]
    rng = np.random.default_rng(18)
    for k in range(6):
        lines = []
        for j in range(int(rng.integers(1, 40))):
            m = int(rng.integers(1, 12))
            pts = rng.normal(scale=10.0 ** rng.integers(-3, 9), size=(m, 2))
            pts[rng.random(size=(m, 2)) < 0.2] = -0.0
            lines.append(json.dumps({"id": f"r{j}", "points": pts.tolist()}))
        cases.append((f"random{k}", _file(*lines)))
    return cases


CORPUS = _corpus()


def _outcome(load, path):
    try:
        return [(c.id, c.pts.dtype, c.pts.shape, c.pts.tobytes()) for c in load(path)]
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("text", [t for _, t in CORPUS], ids=[n for n, _ in CORPUS])
def test_loader_matches_reference(tmp_path, text):
    p = tmp_path / "c.jsonl"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(load_curves, p) == _outcome(ref_load_curves, p)


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

    def test_wrong_arity_message(self, tmp_path):
        p = tmp_path / "three.jsonl"
        p.write_text('{"id": "x", "points": [[0, 0], [1, 1], [2, 2]]}\n')
        with pytest.raises(ValueError, match=r"^record 'x' has 3 points; a segment needs 2$"):
            as_segments(load_curves(p))


def _assert_read_only(a, view=True):
    assert a.flags.writeable is False
    with pytest.raises(ValueError):
        a[0] = 1.0
    if view:  # a view of the read-only buffer cannot be made writeable again
        with pytest.raises(ValueError):
            a.flags.writeable = True


class TestReadOnlyViews:
    """Loaded curves and their segments are views of one read-only buffer."""

    def test_loaded_points_and_segment_endpoints(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text(_file(*GOOD, '{"id": "s", "points": [[1, 2], [3, 4]]}'))
        curves = load_curves(p)
        assert len({id(c.pts.base) for c in curves}) == 1  # one shared buffer
        for c in curves:
            _assert_read_only(c.pts)
        before = [c.pts.copy() for c in curves]
        (seg,) = as_segments(curves[3:])
        for end in (seg.a, seg.b):
            _assert_read_only(end)
        assert seg.a.tolist() == [1, 2] and seg.b.tolist() == [3, 4]
        assert all(np.array_equal(b, c.pts) for b, c in zip(before, curves))

    def test_translated_view_is_independent(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(_file(*GOOD))
        c = load_curves(p)[1]
        before = c.pts.copy()
        moved = c.translated([1.0, -2.0])
        assert not np.shares_memory(moved.pts, c.pts)
        assert np.array_equal(moved.pts, before + [1.0, -2.0])
        assert np.array_equal(c.pts, before)
        _assert_read_only(moved.pts, view=False)


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
