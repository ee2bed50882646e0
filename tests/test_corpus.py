from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from unitforge.corpus import (
    Manifest, ManifestError, Segment, Utterance, as_units,
    get_field, join_units, manifest_stats, parse_units, read_manifest, set_field, write_manifest,
)


def u(i, **kwargs):
    return Utterance(id=f"u{i}", **kwargs)


class TestTypes:
    def test_empty_id_rejected(self):
        with pytest.raises(ManifestError):
            Utterance(id="")

    def test_negative_duration_rejected(self):
        with pytest.raises(ManifestError):
            Utterance(id="a", duration_s=-1.0)

    def test_nan_duration_rejected(self):
        with pytest.raises(ManifestError):
            Utterance(id="a", duration_s=float("nan"))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ManifestError, match="duplicate"):
            Manifest(records=(u(1), u(1)))

    def test_set_field_shares_unwritten_fields(self):
        rec = Utterance(id="a", text="hi", units=tuple(range(500)), extra={"zh": "你好"})
        for name in ("id", "lang", "audio", "duration_s", "speaker", "text"):
            new = set_field(rec, name, "7")
            assert new.units is rec.units and new.extra is rec.extra
            assert get_field(new, name) == ("7.0" if name == "duration_s" else "7")
        new = set_field(rec, "mt", "")
        assert new.units is rec.units and new.extra == {"zh": "你好", "mt": ""}
        assert rec.extra == {"zh": "你好"}
        new = set_field(rec, "units", "4 5")
        assert new.extra is rec.extra and new.units == (4, 5) and rec.units == tuple(range(500))

    def test_units_rule(self):
        assert parse_units(" 4\t0  12\n") == (4, 0, 12) and parse_units(" ") == ()
        assert join_units((4, 0, 12)) == "4 0 12" and join_units(()) == ""
        for values in ([4, 0, 3], ("4", " 0", "3"), (4.0, 0, True + 2), iter((4, 0, 3))):
            units = as_units(values)
            assert units == (4, 0, 3) and all(type(u) is int for u in units)
        with pytest.raises(ValueError, match="invalid literal"):
            parse_units("1 2.0")

    def test_non_integral_units_refused(self):
        with pytest.raises(ValueError, match="non-integral unit id 1.9"):
            Utterance(id="a", units=(1.9,))
        with pytest.raises(ValueError, match="non-integral unit id 0.5"):
            as_units([1, 0.5])
        assert Utterance(id="a", units=(2.0, 3)).units == (2, 3)
        assert set_field(Utterance(id="a"), "units", " ").units is None

    def test_segment_bounds(self):
        Segment("a", 0.0, 1.0)
        with pytest.raises(ManifestError):
            Segment("a", 1.0, 1.0)
        with pytest.raises(ManifestError):
            Segment("a", -0.5, 1.0)

    def test_segment_overlap(self):
        assert Segment("a", 0, 10).overlap_s(Segment("a", 8, 18)) == pytest.approx(2.0)
        assert Segment("a", 0, 10).overlap_s(Segment("a", 12, 18)) == 0.0


class TestReadTsv:
    def test_two_line_tsv(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
            "u1\ten\ta.wav\t1.5\ts1\thello\t1 2 3\n"
            "u2\ten\t\t\t\t\t\n")
        m = read_manifest(path)
        assert m.ids() == ("u1", "u2")
        assert m.records[0].units == (1, 2, 3)
        assert m.records[1].text is None

    def test_duplicate_id_cites_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
                        "u1\ten\t\t\t\t\t\n"
                        "u1\ten\t\t\t\t\t\n")
        with pytest.raises(ManifestError, match=re.escape(f"{path}:3: duplicate")):
            read_manifest(path)

    def test_wrong_column_count_cites_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
                        "u1\ten\n")
        with pytest.raises(ManifestError, match=re.escape(f"{path}:2: expected 7 columns")):
            read_manifest(path)

    def test_crlf_line_end_not_kept_in_last_column(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"id\ttext\tnote\r\nu1\thello\tx\r\nu2\t\t\r\n")
        m = read_manifest(path)
        assert [(r.id, r.text, r.extra) for r in m] == [("u1", "hello", {"note": "x"}),
                                                       ("u2", None, {})]

    def test_bad_duration_cites_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
                        "u1\ten\t\tnot-a-number\t\t\t\n")
        with pytest.raises(ManifestError, match=re.escape(f"{path}:2: unparsable duration")):
            read_manifest(path)

    @pytest.mark.parametrize("cell, message", [
        ("not-a-number", "unparsable duration 'not-a-number'"),
        ("-1", "duration_s must be finite and >= 0, got '-1'"),
        ("nan", "duration_s must be finite and >= 0, got 'nan'"),
    ])
    def test_duration_follows_the_utterance_rule(self, tmp_path, cell, message):
        # the TSV reader and Utterance share one duration check and message
        path = tmp_path / "m.tsv"
        path.write_text(f"id\tduration_s\nu1\t1.5\nu2\t{cell}\n")
        with pytest.raises(ManifestError) as info:
            read_manifest(path)
        assert str(info.value) == f"{path}:3: {message}"
        with pytest.raises(ManifestError) as info:
            Utterance(id="u2", duration_s=cell)
        assert str(info.value) == message

    def test_empty_id_cites_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\ttext\nu1\tx\n\ty\n")
        with pytest.raises(ManifestError) as info:
            read_manifest(path)
        assert str(info.value) == f"{path}:3: utterance id must be nonempty"

    def test_bad_units_cite_line_and_field(self, tmp_path):
        path = tmp_path / "m.tsv"
        for bad in ("4 x 5", "4 1.5", "1e3"):
            path.write_text("id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
                            "u1\ten\t\t\t\t\t1 2\n"
                            f"u2\ten\t\t\t\t\t{bad}\n")
            with pytest.raises(ManifestError) as info:
                read_manifest(path)
            assert str(info.value) == f"{path}:3: unparsable units field {bad!r}"

    def test_bad_units_reported_before_bad_id_or_duration(self, tmp_path):
        # the units cell is parsed before the record is built and checked
        path = tmp_path / "m.tsv"
        for row in ("\ten\t\t\t\t\t4 x", "u1\ten\t\t-1\t\t\t4 x"):
            path.write_text("id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n" + row + "\n")
            with pytest.raises(ManifestError) as info:
                read_manifest(path)
            assert str(info.value) == f"{path}:2: unparsable units field '4 x'"

    def test_whitespace_units_read_as_empty(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
                        "u1\ten\t\t\t\t\t \u3000 \n")
        m = read_manifest(path)
        assert m.records[0].units == ()
        write_manifest(m, tmp_path / "m.jsonl")
        assert (tmp_path / "m.jsonl").read_text() == '{"id": "u1", "lang": "en", "units": []}\n'

    def test_unknown_columns_preserved(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\tzh\n"
                        "u1\ten\t\t\t\t\t\t你好\n")
        m = read_manifest(path)
        assert m.records[0].extra == {"zh": "你好"}

    def test_duplicate_header_column_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tlang\tlang\n" "u1\ten\tzh\n")
        with pytest.raises(ManifestError, match="duplicate column"):
            read_manifest(path)


class TestReadJsonl:
    def test_duration_parses(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a","duration_s":1.62}\n')
        m = read_manifest(path)
        assert m.records[0].duration_s == pytest.approx(1.62)

    def test_bad_json_cites_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a"}\nnot json\n')
        with pytest.raises(ManifestError, match=re.escape(f"{path}:2: invalid JSON")):
            read_manifest(path)

    def test_empty_text_distinct_from_missing(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a","text":""}\n{"id":"b"}\n')
        m = read_manifest(path)
        assert m.records[0].text == ""
        assert m.records[1].text is None

    @pytest.mark.parametrize("field", ["lang", "audio", "speaker", "text"])
    @pytest.mark.parametrize("value", ["5", "true", "1.5", '["x"]', '{"a": "b"}'])
    def test_string_fields_must_be_strings(self, tmp_path, field, value):
        path = tmp_path / "m.jsonl"
        path.write_text(f'{{"id":"a","{field}":"ok"}}\n{{"id":"b","{field}":{value}}}\n')
        with pytest.raises(ManifestError) as info:
            read_manifest(path)
        assert str(info.value) == f"{path}:2: {field!r} must be a string or null"
        path.write_text(f'{{"id":"a","{field}":null}}\n')
        assert get_field(read_manifest(path).records[0], field) == ""

    def test_lone_cr_is_json_whitespace(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"id": "a",\r"text": "x"}\n')
        assert [(r.id, r.text) for r in read_manifest(path)] == [("a", "x")]

    def test_boolean_duration_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a","duration_s":true}\n')
        with pytest.raises(ManifestError, match="duration"):
            read_manifest(path)


def manifest_text(fmt, rows):
    """``rows`` of ``(id, duration_s)`` as a manifest in ``fmt``, and the line
    number of its first record; a row of ``None`` is a blank JSONL line."""
    if fmt == "tsv":
        return "id\tduration_s\n" + "".join(f"{i}\t{d}\n" for i, d in rows), 2
    return "".join("\n" if row is None else json.dumps({"id": row[0], "duration_s": row[1]})
                   + "\n" for row in rows), 1


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
class TestSharedReader:
    """Both formats run through one line loop, its line numbers and its id check."""

    def read_error(self, tmp_path, fmt, rows) -> tuple[str, int, ManifestError]:
        text, first = manifest_text(fmt, rows)
        path = tmp_path / f"m.{fmt}"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            read_manifest(path)
        return str(path), first, info.value

    def test_repeated_id_fails_at_its_second_line(self, tmp_path, fmt):
        path, first, exc = self.read_error(tmp_path, fmt, [("a", 1), ("b", 2), ("a", 3)])
        assert str(exc) == f"{path}:{first + 2}: duplicate utterance id 'a'"

    def test_utterance_errors_carry_the_line(self, tmp_path, fmt):
        path, first, exc = self.read_error(tmp_path, fmt, [("a", 1), ("b", -1.5)])
        assert str(exc).startswith(f"{path}:{first + 1}: duration_s must be finite and >= 0")

    def test_record_error_precedes_the_repeated_id(self, tmp_path, fmt):
        path, first, exc = self.read_error(tmp_path, fmt, [("a", 1), ("b", 2), ("a", "x")])
        assert str(exc) == f"{path}:{first + 2}: unparsable duration 'x'"


class TestBlankJsonlLines:
    def test_skipped_but_counted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        text, _ = manifest_text("jsonl", [None, ("a", 1), None, ("b", 2)])
        path.write_text(text + "  \t \n", encoding="utf-8")
        assert read_manifest(path).ids() == ("a", "b")
        text, _ = manifest_text("jsonl", [("a", 1), None, None, ("a", 2)])
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            read_manifest(path)
        assert str(info.value) == f"{path}:4: duplicate utterance id 'a'"


class TestWrite:
    def test_tab_in_field_rejected(self, tmp_path):
        m = Manifest(records=(Utterance(id="a", text="has\ttab"),))
        with pytest.raises(ManifestError, match="text"):
            write_manifest(m, tmp_path / "m.tsv")

    def test_jsonl_lines_equal_json_dumps(self, tmp_path):
        records = (
            Utterance(id="a", lang="hok", audio_ref="wav/ä.wav", duration_s=1e-7,
                      speaker="s\"1", text="Tâi-lô \u2028 \x00 \\ 你好", units=(0, 2499),
                      extra={"zh": "你好\t", "b": "\ud7ff", "a": "x"}),
            Utterance(id="b", duration_s=1e20, units=()),
            Utterance(id="c", duration_s=0.1, text=""),
        )
        write_manifest(Manifest(records=records), tmp_path / "m.jsonl")
        want = [
            {"id": "a", "lang": "hok", "audio": "wav/ä.wav", "duration_s": 1e-7,
             "speaker": "s\"1", "text": "Tâi-lô \u2028 \x00 \\ 你好", "units": [0, 2499],
             "a": "x", "b": "\ud7ff", "zh": "你好\t"},
            {"id": "b", "duration_s": 1e20, "units": []},
            {"id": "c", "duration_s": 0.1, "text": ""},
        ]
        assert (tmp_path / "m.jsonl").read_bytes() == "".join(
            json.dumps(obj, ensure_ascii=False) + "\n" for obj in want).encode("utf-8")

    def test_format_inference_failure(self, tmp_path):
        with pytest.raises(ManifestError, match="infer"):
            write_manifest(Manifest(), tmp_path / "m.dat")


# text fields that survive the TSV dialect (no tabs/newlines, nonempty)
_tsv_text = st.text(alphabet="ab z.é你好'-", min_size=1, max_size=12)
# JSONL can additionally carry tabs and newlines
_jsonl_text = st.text(alphabet="ab z.é你\t\n\"\\", min_size=1, max_size=12)


@st.composite
def manifests(draw, tsv_safe: bool):
    n = draw(st.integers(min_value=0, max_value=6))
    records = []
    for i in range(n):
        optional = st.none() | (_tsv_text if tsv_safe else _jsonl_text)
        records.append(Utterance(
            id=f"id{i}",
            lang=draw(st.sampled_from(["", "en", "hok", "zh"])),
            audio_ref=draw(optional),
            duration_s=draw(st.none() | st.floats(min_value=0, max_value=1e4,
                                                  allow_nan=False)),
            speaker=draw(optional),
            text=draw(optional),
            units=draw(st.none() | st.lists(st.integers(min_value=0, max_value=99),
                                            min_size=1, max_size=5).map(tuple)),
            extra={k: draw(_tsv_text) for k in draw(st.sets(
                st.sampled_from(["mt", "zh_text", "norm"]), max_size=2))},
        ))
    return Manifest(records=tuple(records))


class TestRoundTrip:
    @given(m=manifests(tsv_safe=True))
    def test_tsv_round_trip(self, m, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "m.tsv"
        write_manifest(m, path)
        assert read_manifest(path).records == m.records

    @given(m=manifests(tsv_safe=False))
    def test_jsonl_round_trip(self, m, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "m.jsonl"
        write_manifest(m, path)
        assert read_manifest(path).records == m.records


class TestStats:
    def test_empty(self):
        assert manifest_stats(Manifest()) == {}

    def test_missing_duration_tally(self):
        m = Manifest(records=(
            u(1, lang="en", duration_s=2.0),
            u(2, lang="en", duration_s=3.0),
            u(3, lang="en"),
        ))
        stats = manifest_stats(m)
        assert stats["en"]["total_duration_s"] == pytest.approx(5.0)
        assert stats["en"]["missing_duration"] == 1
        assert stats["en"]["count"] == 3

    def test_benchmark_set_shape(self):
        # 722 records of 8.078 s: the duration sum lands on 1.62 hours
        m = Manifest(records=tuple(
            Utterance(id=f"u{i}", lang="en", duration_s=8.078,
                      speaker=f"spk{i % 10}")
            for i in range(722)))
        stats = manifest_stats(m)
        assert stats["en"]["count"] == 722
        assert round(stats["en"]["total_duration_s"] / 3600.0, 2) == 1.62
        assert stats["en"]["speaker_count"] == 10

    def test_permutation_invariant(self):
        records = [u(i, lang="en" if i % 2 else "hok", duration_s=float(i))
                   for i in range(1, 9)]
        base = manifest_stats(Manifest(records=tuple(records)))
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        assert manifest_stats(Manifest(records=tuple(shuffled))) == base
